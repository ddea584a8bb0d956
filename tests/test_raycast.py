import dataclasses
import math

import numpy as np
import pytest

from navstruct import raycast
from navstruct.fixtures import straight_corridor
from navstruct.mesh import BlockerMesh, build_blocker_mesh
from navstruct.oracles import (
    _probe_rays,
    _random_soup,
    classify_per_ray,
    first_hit_all_triangles,
)
from navstruct.terminals import (
    DEFAULT_RADIUS,
    DEFAULT_RAY_COUNT,
    classify_samples,
    fan_directions,
    sample_boundary,
)

# the constants _query_ball_per_ray reads, spelled here so that a change to
# raycast's own shows
EPS = 1e-9
ROUNDOFF = float(np.finfo(float).eps)


@pytest.fixture(scope="module")
def corridor200_fan_rays():
    """The 200-square corridor's walls and every fan ray its terminals stage
    casts (both fans of every boundary sample), as rays and as the batch."""
    surface, blockers = straight_corridor(200)
    samples = sample_boundary(surface)
    origins = samples.positions
    directions = fan_directions(samples, DEFAULT_RAY_COUNT)
    rays = [(o, d, DEFAULT_RADIUS) for o, row in zip(origins, directions) for d in row]
    assert len(rays) == 8040
    return blockers, rays, (origins, directions, DEFAULT_RADIUS)


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


def _oracle(mesh, o, d, max_t):
    t = first_hit_all_triangles(mesh, o, d, max_t)
    return math.inf if t is None else t


def _segment_hit(mesh, o, d, max_t):
    """The scalar any-hit loop on a ray given as any two 3-sequences."""
    return raycast._segment_hit(
        mesh, np.asarray(o, dtype=float).tolist(), np.asarray(d, dtype=float).tolist(), max_t)


def _batch_hits(mesh, origins, directions, max_t):
    """first_hit's batch, each entry checked against the oracle; the number
    of rays that hit."""
    got = raycast.first_hit(mesh, origins, directions, max_t)
    assert got.shape == np.shape(directions)[:2]
    for o, row, t_row in zip(origins, directions, got):
        for d, t in zip(row, t_row):
            assert t == _oracle(mesh, o, d, max_t), (o, d, max_t)
    return int((got < math.inf).sum())


def _rows(rays, width):
    """Rows of `width` rays that share the first ray's origin and max_t:
    each ray's direction, then the next rays' directions."""
    return [
        (o, [rays[(i + k) % len(rays)][1] for k in range(width)], max_t)
        for i, (o, _, max_t) in enumerate(rays)
    ]


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
        want = _oracle(blockers, origin, direction, max_t)
        got = raycast.first_hit(blockers, [origin], [[direction]], max_t)
        assert got.tolist() == [[want]]
        assert _segment_hit(blockers, origin, direction, max_t) == (want < math.inf)
        hits += want < math.inf
    assert 50 < hits < 400

    corridor, fan_rays, fan_batch = corridor200_fan_rays
    hits = _batch_hits(corridor, *fan_batch)
    assert 0 < hits < len(fan_rays)
    g, walls = maze_walls(12, 12, seed=3)
    segments = _long_segments(g, rng, 150)
    # the scalar loop on each ray, the batch on rows of rays
    cases = [
        ("corridor200 whole mesh", corridor, _whole_mesh_rays(fan_rays[:40])),
        ("maze walls", walls, segments + _probe_rays(walls, rng)),
        ("maze whole mesh", walls, _whole_mesh_rays(segments[:40])),
    ]
    for name, mesh, rays in cases:
        hits = 0
        for o, d, max_t in rays:
            got = _segment_hit(mesh, o, d, max_t)
            assert got == (first_hit_all_triangles(mesh, o, d, max_t) is not None), (
                name, o, d, max_t)
            hits += got
        assert 0 < hits < len(rays), name
        # the batch, on up to 200 rows of three rays from one origin: a NaN
        # direction makes the whole row test the whole mesh
        rows = _rows(rays, 3)[::max(1, len(rays) // 200)]
        hits = sum(_batch_hits(mesh, [o], [row], max_t) for o, row, max_t in rows)
        assert 0 < hits < 3 * len(rows), name

    nan_ray = ((0.0, 0.5, 0.0), (math.nan, 0.0, 0.0), 1.0)
    assert not _segment_hit(corridor, *nan_ray)
    assert first_hit_all_triangles(corridor, *nan_ray) is None
    assert raycast.first_hit(corridor, [nan_ray[0]], [[nan_ray[1]]], 1.0).tolist() == [[math.inf]]
    assert raycast.first_hit(None, np.zeros((2, 3)), np.ones((2, 3, 3)), math.inf).tolist() == [
        [math.inf] * 3] * 2
    assert raycast.first_hit(corridor, np.zeros((0, 3)), np.zeros((0, 5, 3)), 1.0).shape == (0, 5)
    empty = build_blocker_mesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=int))
    for max_t in (1.0, math.inf):
        assert not _segment_hit(empty, (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), max_t)
        assert raycast.first_hit(empty, [(0.0, 0.0, 0.0)], [[(1.0, 0.0, 0.0)]], max_t).tolist() == [
            [math.inf]]
        assert first_hit_all_triangles(empty, (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), max_t) is None
    assert raycast.segment_clear(None, (0.0, 0.0, 0.0), (1.0, 0.0, 0.0))


def test_blocker_mesh_keeps_its_triangles_as_python_float_rows():
    names = {f.name for f in dataclasses.fields(BlockerMesh)}
    assert not names & {"v0", "e1", "e2"}
    _, blockers = straight_corridor(3)
    arrays = {n for n in names if isinstance(getattr(blockers, n), np.ndarray)}
    assert arrays == {"vertices", "triangles", "corner_table"}
    assert blockers.corner_table.tolist() == [list(row) for row in blockers.corner_edges]
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
    corridor, fan_rays, _ = corridor200_fan_rays
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


def _ball(mesh, center, radius):
    if math.isinf(radius):
        return set(range(len(mesh.triangles)))
    return set(mesh.triangle_tree.query_ball_point(center, radius))


def test_each_origin_ball_holds_every_ray_ball_of_its_rays(corridor200_fan_rays):
    corridor, fan_rays, (origins, directions, max_t) = corridor200_fan_rays
    # a NaN direction makes every 200th row a whole-mesh ball amid local ones
    poisoned = directions.copy()
    poisoned[::200, 3, 1] = math.nan
    rng = np.random.default_rng(8)
    soup = _random_soup(rng)
    cases = [(corridor, origins, poisoned, max_t)]
    for mesh in (corridor, soup):
        for o, row, probe_t in _rows(_probe_rays(mesh, rng), 3):
            cases.append((mesh, [o], [row], probe_t))
    local = whole = 0
    for mesh, batch_origins, batch_directions, t in cases:
        batch_origins = np.asarray(batch_origins, dtype=float)
        batch_directions = np.asarray(batch_directions, dtype=float)
        radius, is_whole = raycast._origin_balls(mesh, batch_origins, batch_directions, t)
        ends, ids, shift = raycast._candidates(mesh, batch_origins, radius, is_whole)
        begins = np.concatenate([[0], ends[:-1]])
        for o, row, r, w, b, e, s in zip(
            batch_origins, batch_directions, radius, is_whole, begins, ends, shift
        ):
            # the run holds exactly the origin's ball, each id once
            held = ids[b + s:e + s].tolist()
            assert len(held) == len(set(held))
            assert set(held) == _ball(mesh, o, math.inf if w else r)
            for d in row:
                center, ray_radius = raycast._query_ball(mesh, o.tolist(), d.tolist(), t)
                assert _ball(mesh, center, ray_radius) <= set(held), (o, d, t)
            local += not w
            whole += bool(w)
    assert local > 800 and whole > 5


def test_whole_mesh_balls_keep_fans_exact_in_bounded_slices(monkeypatch):
    # at radius 1e20 every ball holds every centroid: 804 samples x 800
    # triangles x 10 fan rays
    surface, blockers = straight_corridor(200)
    slices = []
    original = raycast._slice_hits

    def recording(table, o, d, limit):
        t, ok = original(table, o, d, limit)
        slices.append(t.size)
        return t, ok

    monkeypatch.setattr(raycast, "_slice_hits", recording)
    samples = sample_boundary(surface)
    open_ahead, open_behind = classify_samples(samples, blockers, radius=1e20)
    assert len(samples) == 804
    assert sum(slices) == 804 * 800 * 10
    assert max(slices) <= raycast.PAIR_BUDGET
    flags = list(zip(open_ahead.tolist(), open_behind.tolist()))
    assert flags == classify_per_ray(samples, blockers, 1e20, DEFAULT_RAY_COUNT)
    assert {f for f in flags} == {(False, False), (False, True)}


def test_overflowing_rays_follow_python_floats():
    # directions of length up to 1e308: d x e2 and the dot products overflow
    # to inf, and inf * 0 gives NaN.  The batch must give the oracle's t bit
    # for bit, without a numpy RuntimeWarning of its own
    surface, blockers = straight_corridor(12)
    samples = sample_boundary(surface)
    origins = samples.positions
    directions = fan_directions(samples, DEFAULT_RAY_COUNT) * 1e308
    for max_t in (1e-308, 1.0):
        got = raycast.first_hit(blockers, origins, directions, max_t)
        with np.errstate(over="ignore", invalid="ignore"):
            want = [[_oracle(blockers, o, d, max_t) for d in row]
                    for o, row in zip(origins, directions)]
        assert got.tolist() == want


def test_segment_clear_guard_is_np_linalg_norm_below_eps(monkeypatch):
    # with every long segment blocked, segment_clear answers its zero-length
    # guard alone; it must be np.linalg.norm(c - a) < EPS on every input.  On
    # lengths within a few ulps of EPS a plain sum of squares, and
    # math.hypot, fall on the other side of EPS for a few percent of these
    monkeypatch.setattr(raycast, "_segment_hit", lambda *args: True)
    _, blockers = straight_corridor(2)
    rng = np.random.default_rng(3)
    cases = []
    for _ in range(4000):
        d = rng.normal(size=3)
        d *= EPS / np.linalg.norm(d) * (1.0 + int(rng.integers(-6, 7)) * ROUNDOFF)
        a = rng.uniform(-1.0, 1.0, size=3) * rng.choice((0.0, 0.0, 1e-6))
        cases.append((a, a + d))
    cases += [((0.0, 0.0, 0.0), c) for c in (
        (0.0, 0.0, 0.0), (1e-200, 0.0, 0.0), (1e-10, 1e-10, 1e-10), (1e-9, 0.0, 0.0),
        (1e300, 1e300, 0.0), (math.inf, 0.0, 0.0), (math.nan, 0.0, 0.0), [0, 0, 1],
    )]
    short = 0
    for a, c in cases:
        d = np.asarray(c, dtype=float) - np.asarray(a, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):  # the reference, at 1e300 and NaN
            want = bool(np.linalg.norm(d) < EPS)
        assert raycast.segment_clear(blockers, a, c) == want, (a, c)
        short += want
    assert 1000 < short < len(cases) - 1000
    assert raycast.segment_clear(None, (0.0, 0.0, 0.0), (5.0, 0.0, 0.0))


def test_segment_clear_answers_whether_the_oracle_finds_a_hit(maze_walls):
    g, walls = maze_walls(12, 12, seed=3)
    rng = np.random.default_rng(6)
    rays = _long_segments(g, rng, 150) + _probe_rays(walls, rng)
    blocked = 0
    for o, d, _ in rays:
        c = o + d
        want = first_hit_all_triangles(walls, o, c - o, 1.0) is None
        for ends in ((o, c), (o.tolist(), c.tolist()), (tuple(o), tuple(c))):
            assert raycast.segment_clear(walls, *ends) == want, (o, c)
        blocked += not want
    assert 0 < blocked < len(rays)
