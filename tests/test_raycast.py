import dataclasses
import itertools
import math

import numpy as np
import pytest

from navstruct import mesh as mesh_module
from navstruct import oracles, raycast
from navstruct.fixtures import plus_hub, straight_corridor
from navstruct.mesh import BlockerMesh, build_blocker_mesh
from navstruct.oracles import (
    _probe_rays,
    _random_soup,
    axis_fans,
    cell_plane_rays,
    classify_per_ray,
    first_hit_all_triangles,
)
from navstruct.pipeline import PipelineConfig, run_pipeline
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
    casts (both fans of every boundary sample), as rays, and the batch of
    forward fans that casts them."""
    surface, blockers = straight_corridor(200)
    samples = sample_boundary(surface)
    origins = samples.positions
    directions = fan_directions(samples, DEFAULT_RAY_COUNT)
    rays = [(o, d, DEFAULT_RADIUS) for o, row in zip(origins, _both_ways(directions)) for d in row]
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


def _both_ways(directions):
    """Each row of m directions followed by their negations: the 2m rays
    whose first hits first_hit returns for the row."""
    directions = np.asarray(directions, dtype=float)
    return np.concatenate([directions, -directions], axis=1)


def _oracle(mesh, o, d, max_t):
    t = first_hit_all_triangles(mesh, o, d, max_t)
    return math.inf if t is None else t


def _segment_hit(mesh, o, d, max_t):
    """The scalar any-hit loop on a ray given as any two 3-sequences."""
    return raycast._segment_hit(
        mesh, np.asarray(o, dtype=float).tolist(), np.asarray(d, dtype=float).tolist(), max_t)


def _batch_hits(mesh, origins, directions, max_t):
    """first_hit's batch, each entry of both halves checked against the
    oracle on the ray or its negation; the number of rays that hit."""
    got = raycast.first_hit(mesh, origins, directions, max_t)
    n, m = np.shape(directions)[:2]
    assert got.shape == (n, 2 * m)
    for o, row, t_row in zip(origins, _both_ways(directions), got):
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
        assert got.tolist() == [[want, _oracle(blockers, origin, -direction, max_t)]]
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
        assert 0 < hits < 6 * len(rows), name

    nan_ray = ((0.0, 0.5, 0.0), (math.nan, 0.0, 0.0), 1.0)
    assert not _segment_hit(corridor, *nan_ray)
    assert first_hit_all_triangles(corridor, *nan_ray) is None
    assert raycast.first_hit(corridor, [nan_ray[0]], [[nan_ray[1]]], 1.0).tolist() == [
        [math.inf, math.inf]]
    assert raycast.first_hit(None, np.zeros((2, 3)), np.ones((2, 3, 3)), math.inf).tolist() == [
        [math.inf] * 6] * 2
    assert raycast.first_hit(corridor, np.zeros((0, 3)), np.zeros((0, 5, 3)), 1.0).shape == (0, 10)
    empty = build_blocker_mesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=int))
    for max_t in (1.0, math.inf):
        assert not _segment_hit(empty, (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), max_t)
        assert raycast.first_hit(empty, [(0.0, 0.0, 0.0)], [[(1.0, 0.0, 0.0)]], max_t).tolist() == [
            [math.inf, math.inf]]
        assert first_hit_all_triangles(empty, (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), max_t) is None
    assert raycast.segment_clear(None, (0.0, 0.0, 0.0), (1.0, 0.0, 0.0))


def _cross_terms(table, d):
    """d x e2 for every (triangle, direction) pair, as first_hit spells it."""
    e2x, e2y, e2z = table.T[6:, :, None]
    dx, dy, dz = d[None, :, 0], d[None, :, 1], d[None, :, 2]
    return np.stack([dy * e2z - dz * e2y, dz * e2x - dx * e2z, dx * e2y - dy * e2x])


def test_axis_fans_reach_the_zero_that_negation_does_not_flip():
    # d x e2 for -d is -(d x e2) except where a difference is exactly 0:
    # both are +0 there.  The axis fans must meet that case on triangles
    # they hit, and first_hit must still give the oracle's t both ways
    _, corridor = straight_corridor(9)
    rng = np.random.default_rng(5)
    unflipped = hits = 0
    for o, fan, max_t in axis_fans(corridor, rng, 60):
        hits += _batch_hits(corridor, [o], [fan], max_t)
        with np.errstate(invalid="ignore"):
            p, q = _cross_terms(corridor.corner_table, fan), _cross_terms(corridor.corner_table, -fan)
        same = (p == 0.0) & (np.signbit(p) == np.signbit(q))
        for k, d in enumerate(fan):
            ahead, behind = _accepted(corridor, o, d, max_t)
            unflipped += int(same[:, sorted(ahead | behind), k].any(axis=0).sum())
    assert hits > 20
    assert unflipped > 20


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


def _segment_box_per_ray(blockers, o, d, max_t):
    """_segment_box's expressions as they read when every figure came from
    the tree and the vertices on each call, on numpy vectors."""
    tree = blockers.triangle_tree
    mid = 0.5 * (tree.mins + tree.maxes)
    spread = 0.5 * math.dist(tree.mins, tree.maxes)  # every centroid is this close to mid
    reach = blockers.reach
    edge = 2.0 * reach
    limit = max_t + EPS
    length = math.hypot(*d)
    segment = limit * length
    far = math.dist(o, mid) + spread + reach
    rounding = 64.0 * ROUNDOFF / EPS * length * edge * edge * (far + edge + segment)
    magnitude = float(np.abs(blockers.vertices).max())
    pad = (rounding + 6.0 * EPS * reach + 4.0 * ROUNDOFF * (segment + magnitude)) * (
        1.0 + 8.0 * ROUNDOFF)
    if not pad < math.inf:
        return [-math.inf] * 3 + [math.inf] * 3
    with np.errstate(over="ignore"):
        e = o + limit * d
    return [*(np.minimum(o, e) - pad), *(np.maximum(o, e) + pad)]


def _bits(values):
    return [float(x).hex() for x in values]


def test_segment_box_equals_the_per_ray_expressions_bit_for_bit(corridor200_fan_rays):
    corridor, fan_rays, _ = corridor200_fan_rays
    rng = np.random.default_rng(4)
    soup = _random_soup(rng)
    # grazing rays, rays ending at a corner and the box diagonals; infinite
    # max_t and NaN directions, whose box is all of space
    cases = [(corridor, fan_rays)]
    for mesh in (corridor, soup):
        probes = _probe_rays(mesh, rng)
        cases.append((mesh, probes + _whole_mesh_rays(probes)))
    sizes = set()
    for mesh, rays in cases:
        grid = mesh.triangle_grid()
        for o, d, max_t in rays:
            o, d = np.asarray(o, dtype=float), np.asarray(d, dtype=float)
            box = raycast._segment_box(mesh, grid, o.tolist(), d.tolist(), max_t + EPS)
            assert _bits(box) == _bits(_segment_box_per_ray(mesh, o, d, max_t)), (o, d, max_t)
            sizes.add(math.isinf(box[0]))
    assert sizes == {False, True}


def _ball(mesh, center, radius):
    if math.isinf(radius):
        return set(range(len(mesh.triangles)))
    return set(mesh.triangle_tree.query_ball_point(center, radius))


def _accepted(mesh, o, d, max_t):
    """The ids of every triangle whose Moller-Trumbore test accepts the ray
    and the ids of those that accept its negation, as first_hit evaluates
    them."""
    table = mesh.corner_table
    with np.errstate(over="ignore", invalid="ignore"):
        _, ahead, behind = raycast._slice_hits(
            table, np.broadcast_to(o, (len(table), 3)),
            np.broadcast_to(d, (len(table), 1, 3)), max_t + EPS)
    return set(np.flatnonzero(ahead[:, 0]).tolist()), set(np.flatnonzero(behind[:, 0]).tolist())


def test_each_origin_ball_holds_every_triangle_its_rays_accept(corridor200_fan_rays):
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
    local = whole = accepted = extra = 0
    for mesh, batch_origins, batch_directions, t in cases:
        batch_origins = np.asarray(batch_origins, dtype=float)
        batch_directions = np.asarray(batch_directions, dtype=float)
        radius, is_whole = raycast._origin_balls(mesh, batch_origins, batch_directions, t)
        rows, ids = raycast._candidates(mesh, batch_origins, radius, is_whole)
        assert (np.diff(rows) >= 0).all()  # sorted by origin
        for i, (o, row, r, w) in enumerate(zip(batch_origins, batch_directions, radius, is_whole)):
            held = ids[np.searchsorted(rows, i):np.searchsorted(rows, i, side="right")].tolist()
            assert len(held) == len(set(held))
            if w:
                # a whole-mesh origin tests every triangle, outside the pairs
                assert held == []
                held = range(len(mesh.triangles))
            else:
                # the pairs hold the origin's ball, and only a few ulps more
                ball = _ball(mesh, o, r)
                assert ball <= set(held) <= _ball(mesh, o, r * (1.0 + 8.0 * ROUNDOFF))
                extra += len(held) - len(ball)
            for d in row:
                ahead, behind = _accepted(mesh, o, d, t)
                assert ahead | behind <= set(held), (o, d, t)
                accepted += len(ahead) + len(behind)
            local += not w
            whole += bool(w)
    assert local > 800 and whole > 5 and accepted > 2000
    assert extra == 0


def test_whole_mesh_balls_keep_fans_exact_in_bounded_slices(monkeypatch):
    # at radius 1e20 every ball holds every centroid: 804 samples x 800
    # triangles x 10 fan rays
    surface, blockers = straight_corridor(200)
    slices = []
    original = raycast._slice_hits

    def recording(table, o, d, limit):
        t, ahead, behind = original(table, o, d, limit)
        slices.append(t.size)
        return t, ahead, behind

    monkeypatch.setattr(raycast, "_slice_hits", recording)
    samples = sample_boundary(surface)
    open_ahead, open_behind = classify_samples(samples, blockers, radius=1e20)
    assert len(samples) == 804
    # each pass tests the forward rays and answers their negations too
    assert sum(slices) == 804 * 800 * 5
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
                    for o, row in zip(origins, _both_ways(directions))]
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


def _grid_meshes(rng):
    """Walls, a soup, walls moved to negative coordinates and one triangle."""
    _, hub = plus_hub()
    _, corridor = straight_corridor(9)
    return {
        "plus hub": hub,
        "corridor": corridor,
        "soup": _random_soup(rng),
        "negative": build_blocker_mesh(hub.vertices - (37.25, 12.5, 5.0), hub.triangles),
        "one triangle": build_blocker_mesh(
            [(0.3, -0.2, 0.1), (1.7, 0.4, -0.5), (0.2, 1.1, 0.9)], [(0, 1, 2)]),
    }


def _floor_cell(x, low, scale, count):
    """The grid's cell of coordinate x: floor((x - low) * scale), clamped."""
    return min(max(math.floor((x - low) * scale), 0), count - 1)


def _box_cells(grid, box):
    return [range(_floor_cell(lo, g, grid.scale, n), _floor_cell(hi, g, grid.scale, n) + 1)
            for lo, hi, g, n in zip(box[:3], box[3:], grid.low, grid.shape)]


def _meets(a, b):
    return all(a[k] <= b[k + 3] and b[k] <= a[k + 3] for k in range(3))


def test_grid_lists_each_triangle_in_every_cell_its_box_covers(maze_walls):
    rng = np.random.default_rng(17)
    meshes = _grid_meshes(rng)
    _, meshes["maze"] = maze_walls(12, 12, seed=3)
    for name, mesh in meshes.items():
        grid = mesh.triangle_grid()
        assert grid.scale == 1.0 / (2.0 * mesh.reach)
        corners = mesh.vertices[mesh.triangles]
        assert grid.boxes == list(map(tuple, np.hstack(
            [corners.min(axis=1), corners.max(axis=1)]).tolist())), name
        assert all(type(x) is float for box in grid.boxes for x in box)
        assert list(grid.low) == corners.min(axis=(0, 1)).tolist()
        assert grid.magnitude == float(np.abs(mesh.vertices).max())
        _, ny, nz = grid.shape
        want = {}
        for i, box in enumerate(grid.boxes):
            spans = _box_cells(grid, box)
            assert all(len(span) <= 2 for span in spans), name  # at most two cells per axis
            for ix, iy, iz in itertools.product(*spans):
                want.setdefault((ix * ny + iy) * nz + iz, []).append(i)
        assert grid.cells == {key: tuple(ids) for key, ids in want.items()}, name
        assert mesh.triangle_grid() is grid


def test_cell_ids_hold_every_triangle_whose_box_meets_the_query():
    # query boxes with faces exactly on a cell plane and 1 or 2 ulps to
    # either side, around every triangle box
    rng = np.random.default_rng(5)
    checked = 0
    for name, mesh in _grid_meshes(rng).items():
        grid = mesh.triangle_grid()
        for _ in range(150):
            k = int(rng.integers(3))
            j = int(rng.integers(grid.shape[k] + 1))
            plane = oracles._cell_plane(grid, k, j)
            assert (plane - grid.low[k]) * grid.scale >= j
            assert (math.nextafter(plane, -math.inf) - grid.low[k]) * grid.scale < j
            center = np.asarray(grid.boxes[int(rng.integers(len(grid.boxes)))]).reshape(2, 3)
            lo, hi = (center - rng.uniform(0.0, 1.0, size=(2, 3)) * mesh.reach).tolist()
            hi = [max(a, b) for a, b in zip(hi, center[1].tolist())]
            face = plane
            for _ in range(int(rng.integers(-2, 3))):
                face = math.nextafter(face, rng.choice((-math.inf, math.inf)))
            if rng.integers(2):
                lo[k], hi[k] = face, max(face, hi[k])
            else:
                lo[k], hi[k] = min(face, lo[k]), face
            box = (*lo, *hi)
            held = set(raycast._cell_ids(grid, box))
            want = {i for i, b in enumerate(grid.boxes) if _meets(b, box)}
            assert want <= held, (name, box)
            checked += len(want)
    assert checked > 200


def test_segment_hit_on_cell_planes_equals_the_oracle():
    rng = np.random.default_rng(21)
    for name, mesh in _grid_meshes(rng).items():
        grid = mesh.triangle_grid()
        rays = cell_plane_rays(mesh, rng, 60)
        assert len(rays) > 200, name
        on_plane = hits = 0
        for o, d, max_t in rays:
            box = raycast._segment_box(mesh, grid, o, d, max_t + EPS)
            # the least float of its cell on some axis
            on_plane += any(
                (math.nextafter(f, -math.inf) - g) * grid.scale < math.floor((f - g) * grid.scale)
                for f, g in zip(box, grid.low * 2))
            got = raycast._segment_hit(mesh, o, d, max_t)
            assert got == (first_hit_all_triangles(mesh, o, d, max_t) is not None), (name, o, d)
            hits += got
            for ends in ((o, np.add(o, d)), (tuple(o), tuple(np.add(o, d).tolist())),
                         (np.asarray(o), np.add(o, d))):
                assert raycast.segment_clear(mesh, *ends) == (
                    first_hit_all_triangles(mesh, o, np.subtract(ends[1], o), 1.0) is None)
        assert 0 < hits < len(rays), name
        assert on_plane >= len(rays) // 6, name


def test_long_nan_and_infinite_segments_scan_the_whole_mesh(maze_walls):
    rng = np.random.default_rng(9)
    _, walls = maze_walls(12, 12, seed=3)
    meshes = {**_grid_meshes(rng), "maze": walls}
    for name, mesh in meshes.items():
        grid = mesh.triangle_grid()
        lo = mesh.vertices.min(axis=0)
        hi = mesh.vertices.max(axis=0)
        # the box diagonals and segments through the middle longer than
        # the grid: their box covers more cells than the grid holds
        rays = [(lo - 1.0, hi - lo + 2.0, 1.0), (hi + 1.0, lo - hi - 2.0, 1.0)]
        for _ in range(20):
            d = rng.normal(size=3)
            d *= 3.0 * float(np.linalg.norm(hi - lo)) / np.linalg.norm(d)
            rays.append(((lo + hi) / 2 - d / 2, d, 1.0))
        whole = scans = 0
        for o, d, max_t in rays + _whole_mesh_rays(rays):
            o, d = np.asarray(o, dtype=float).tolist(), np.asarray(d, dtype=float).tolist()
            box = raycast._segment_box(mesh, grid, o, d, max_t + EPS)
            ids = raycast._cell_ids(grid, box)
            # every triangle: as one range when the box covers more cells
            # than the grid holds, else from every cell
            whole += set(ids) == set(range(len(mesh.triangles)))
            scans += ids == range(len(mesh.triangles))
            assert raycast._segment_hit(mesh, o, d, max_t) == (
                first_hit_all_triangles(mesh, o, d, max_t) is not None), (name, o, d, max_t)
        assert whole > len(rays), name
        if len(grid.cells) < np.prod(grid.shape):
            assert scans >= len(rays), name
        else:  # no box covers more cells than the grid holds
            assert scans == 0, name
        for max_t in (math.inf, math.nan):
            assert not raycast._segment_hit(mesh, [math.nan, 0.0, 0.0], [1.0, 0.0, 0.0], max_t)
            assert not raycast._segment_hit(mesh, [0.0, 0.0, 0.0], [1.0, math.nan, 0.0], max_t)
        assert raycast._segment_box(mesh, grid, [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], math.inf) == (
            -math.inf, -math.inf, -math.inf, math.inf, math.inf, math.inf)


def test_the_empty_mesh_has_an_empty_grid():
    empty = build_blocker_mesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=int))
    grid = empty.triangle_grid()
    assert grid.cells == {} and grid.boxes == []
    for o, d in (([0.0, 0.0, 0.0], [1.0, 0.0, 0.0]), ([math.nan] * 3, [1.0, 2.0, 3.0])):
        for max_t in (1.0, math.inf, math.nan):
            assert not raycast._segment_hit(empty, o, d, max_t)
            assert list(raycast._cell_ids(grid, raycast._segment_box(empty, grid, o, d, max_t))) == []
    assert raycast.segment_clear(empty, [0.0, 0.0, 0.0], (1.0, 0.0, 0.0))


class _CountingTree:
    """A KD-tree that counts its ball and pair queries."""

    def __init__(self, tree):
        self.tree = tree
        self.queries = 0

    def __getattr__(self, name):
        return getattr(self.tree, name)

    def query_ball_point(self, *args, **kwargs):
        self.queries += 1
        return self.tree.query_ball_point(*args, **kwargs)

    def sparse_distance_matrix(self, *args, **kwargs):
        self.queries += 1
        return self.tree.sparse_distance_matrix(*args, **kwargs)


def test_segments_build_the_grid_once_and_make_no_ball_query(maze_walls, monkeypatch):
    built = []
    original = mesh_module._triangle_grid

    def counting(*args):
        built.append(args)
        return original(*args)

    monkeypatch.setattr(mesh_module, "_triangle_grid", counting)
    g, walls = maze_walls(12, 12, seed=3)
    tree = _CountingTree(walls.triangle_tree)
    walls = dataclasses.replace(walls, triangle_tree=tree)
    assert walls.grid is None
    rays = _long_segments(g, np.random.default_rng(2), 300)
    blocked = sum(not raycast.segment_clear(walls, o, o + d) for o, d, _ in rays)
    assert 0 < blocked < len(rays)
    assert len(built) == 1 and walls.grid is not None
    assert tree.queries == 0
    # the fans still query the centroid tree, one pair query a batch, and
    # build no grid
    _batch_hits(walls, [rays[0][0]], [[rays[0][1]]], 1.0)
    assert tree.queries == 1
    _, corridor = straight_corridor(3)
    _batch_hits(corridor, [(0.5, 0.5, 0.0)], [[(1.0, 0.0, 0.0)]], 1.0)
    assert corridor.grid is None and len(built) == 1


def test_a_corridor_pipeline_run_never_builds_the_grid():
    surface, blockers = straight_corridor(200)
    run_pipeline(PipelineConfig(terminals="entry-exit"), surface=surface, blockers=blockers)
    assert blockers.grid is None


def _past_edge_rays(mesh, rng, count):
    """Segments crossing a triangle's plane just outside one of its edges:
    inside the test's -EPS tolerance on u, v or 1 - u - v, or just beyond
    it.  On an axis-aligned edge that point lies outside the triangle's box."""
    rays = []
    for i in rng.integers(len(mesh.triangles), size=count):
        corners = mesh.vertices[mesh.triangles[i]]
        k = int(rng.integers(3))
        a, b, c = corners[k], corners[(k + 1) % 3], corners[(k + 2) % 3]
        edge = (b - a) / np.linalg.norm(b - a)
        out = (a - c) - np.dot(a - c, edge) * edge  # from c, square to the edge
        height = np.linalg.norm(out)
        normal = np.cross(b - a, c - a)
        normal /= np.linalg.norm(normal)
        q = a + rng.uniform(0.1, 0.9) * (b - a) + rng.choice(
            (0.0, 0.5, 0.9, 1.1, 3.0)) * EPS * out
        # square to `out`, so on an axis-aligned edge the segment's box is
        # flat there
        d = (normal + rng.normal(scale=0.5) * edge) * height * rng.uniform(0.5, 2.0)
        rays.append((q - rng.uniform(0.2, 0.8) * d, d, 1.0))
    return rays


def test_segments_just_past_a_triangle_edge_equal_the_oracle():
    # walls at full size and at a thousandth of it, where the tolerance on
    # u and v reaches farther than the rounding margin
    # u and v reaches farther than the rounding margin, also far from the
    # origin, where coordinates round by more than that
    _, hub = plus_hub()
    for scale, offset in ((1.0, 0.0), (1e-3, 0.0), (1e-3, (3e5, -1e6, 2e5))):
        mesh = build_blocker_mesh(hub.vertices * scale + offset, hub.triangles)
        rays = _past_edge_rays(mesh, np.random.default_rng(13), 400)
        hits = 0
        for o, d, max_t in rays:
            got = _segment_hit(mesh, o, d, max_t)
            assert got == (first_hit_all_triangles(mesh, o, d, max_t) is not None), (scale, o, d)
            hits += got
        assert 100 < hits < len(rays), (scale, offset)
