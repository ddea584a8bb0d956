import dataclasses
import math

import numpy as np
import pytest

from navstruct import raycast
from navstruct.fixtures import straight_corridor
from navstruct.mesh import BlockerMesh, build_blocker_mesh
from navstruct.oracles import _probe_rays, _random_soup, first_hit_all_triangles
from navstruct.terminals import classify_samples, sample_boundary

# the constants _query_ball_per_ray reads, spelled here so that a change to
# raycast's own shows
EPS = 1e-9
ROUNDOFF = float(np.finfo(float).eps)


@pytest.fixture(scope="module")
def corridor200_fan_rays():
    """The 200-square corridor's walls and every fan ray its terminals stage casts."""
    surface, blockers = straight_corridor(200)
    rays = []
    original = raycast.first_hit

    def recording(mesh, origin, direction, max_t):
        rays.append((np.asarray(origin), np.asarray(direction), max_t))
        return original(mesh, origin, direction, max_t)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(raycast, "first_hit", recording)
        classify_samples(sample_boundary(surface), blockers)
    assert len(rays) > 4000
    return blockers, rays


def _long_segments(g, rng, count):
    """Segments between random maze nodes, most of them many cells long."""
    positions = [node.position for node in g.nodes]
    rays = []
    for _ in range(count):
        a, b = rng.choice(len(positions), size=2, replace=False)
        lift = np.array([0.0, 0.0, rng.choice((0.0, 0.25, -0.49))])
        rays.append((positions[a] + lift, positions[b] - positions[a], 1.0))
    return rays


def _whole_mesh_rays(rays):
    """Rays whose ball holds every centroid: the same rays with an infinite
    max_t, and with a NaN direction."""
    out = [(o, d, math.inf) for o, d, _ in rays]
    out += [(o, np.array([math.nan, d[1], d[2]]), max_t) for o, d, max_t in rays[:10]]
    return out


def test_first_hit_equals_np_cross_reference_exactly(corridor200_fan_rays, maze_walls):
    rng = np.random.default_rng(11)
    verts = rng.uniform(-5.0, 5.0, size=(300, 3))
    tris = rng.integers(0, len(verts), size=(120, 3))
    tris = tris[(tris[:, 0] != tris[:, 1]) & (tris[:, 1] != tris[:, 2])
                & (tris[:, 0] != tris[:, 2])]
    blockers = build_blocker_mesh(verts.tolist(), tris.tolist())
    hits = 0
    for _ in range(400):
        origin = rng.uniform(-6.0, 6.0, size=3)
        direction = rng.normal(size=3)
        max_t = float(rng.uniform(0.5, 4.0))
        got = raycast.first_hit(blockers, origin, direction, max_t)
        want = first_hit_all_triangles(blockers, origin, direction, max_t)
        assert got == want
        hits += got is not None
    assert 50 < hits < 400

    corridor, fan_rays = corridor200_fan_rays
    g, walls = maze_walls(12, 12, seed=3)
    segments = _long_segments(g, rng, 150)
    cases = [
        ("corridor200 fans", corridor, fan_rays),
        ("corridor200 whole mesh", corridor, _whole_mesh_rays(fan_rays[:40])),
        ("maze walls", walls, segments + _probe_rays(walls, rng)),
        ("maze whole mesh", walls, _whole_mesh_rays(segments[:40])),
    ]
    for name, mesh, rays in cases:
        hits = 0
        for o, d, max_t in rays:
            got = raycast.first_hit(mesh, o, d, max_t)
            assert got == first_hit_all_triangles(mesh, o, d, max_t), (name, o, d, max_t)
            hits += got is not None
        assert 0 < hits < len(rays), name

    nan_ray = ((0.0, 0.5, 0.0), (math.nan, 0.0, 0.0), 1.0)
    assert raycast.first_hit(corridor, *nan_ray) is None
    assert first_hit_all_triangles(corridor, *nan_ray) is None
    assert raycast.first_hit(None, (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), math.inf) is None
    empty = build_blocker_mesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=int))
    for max_t in (1.0, math.inf):
        assert raycast.first_hit(empty, (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), max_t) is None
        assert first_hit_all_triangles(empty, (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), max_t) is None


def test_blocker_mesh_keeps_its_triangles_as_python_float_rows():
    names = {f.name for f in dataclasses.fields(BlockerMesh)}
    assert not names & {"v0", "e1", "e2"}
    _, blockers = straight_corridor(3)
    arrays = {n for n in names if isinstance(getattr(blockers, n), np.ndarray)}
    assert arrays == {"vertices", "triangles"}
    assert len(blockers.corner_edges) == len(blockers.triangles)
    corners = blockers.vertices[blockers.triangles]
    for row, (a, b, c) in zip(blockers.corner_edges, corners):
        assert type(row) is tuple and all(type(x) is float for x in row)
        assert row == (*a, *(b - a), *(c - a))


def _query_ball_per_ray(blockers, o, d, max_t):
    """_query_ball's expressions as they read when every figure came from
    the tree on each call, on numpy vectors."""
    tree = blockers.triangle_tree
    mid = 0.5 * (tree.mins + tree.maxes)
    spread = 0.5 * math.dist(tree.mins, tree.maxes)  # every centroid is this close to mid
    reach = blockers.reach
    edge = 2.0 * reach
    length = math.hypot(*d)
    segment = (max_t + EPS) * length
    center = [a + 0.5 * (max_t + EPS) * b for a, b in zip(o.tolist(), d.tolist())]
    far = math.dist(o, mid) + spread + reach
    rounding = 64.0 * ROUNDOFF / EPS * length * edge * edge * (far + edge + segment)
    radius = 0.5 * segment + (1.0 + 3.0 * EPS) * reach + rounding
    if not radius < math.dist(center, mid) + spread:
        return mid, math.inf
    return center, radius


def _bits(values):
    return [float(x).hex() for x in values]


def test_query_ball_equals_the_per_ray_expressions_bit_for_bit(corridor200_fan_rays):
    corridor, fan_rays = corridor200_fan_rays
    rng = np.random.default_rng(4)
    soup = _random_soup(rng)
    # grazing rays, rays ending at a corner and the box diagonals, whose
    # ball holds every centroid
    cases = [(corridor, fan_rays)]
    for mesh in (corridor, soup):
        probes = _probe_rays(mesh, rng)
        cases.append((mesh, probes + _whole_mesh_rays(probes)))
    sizes = set()
    for mesh, rays in cases:
        for o, d, max_t in rays:
            o, d = np.asarray(o, dtype=float), np.asarray(d, dtype=float)
            center, radius = raycast._query_ball(mesh, o.tolist(), d.tolist(), max_t)
            want_center, want_radius = _query_ball_per_ray(mesh, o, d, max_t)
            assert _bits(center) == _bits(want_center), (o, d, max_t)
            assert float(radius).hex() == float(want_radius).hex(), (o, d, max_t)
            sizes.add(math.isinf(radius))
    assert sizes == {False, True}
