import logging
import math
import random

import numpy as np
import pytest

from navstruct import terminals
from navstruct.errors import EmptyTerminalSet, ValidationError
from navstruct.fixtures import (
    boundary_walls,
    graph_from_edges,
    grid_surface,
    l_corridor,
    maze_graph,
    plus_hub,
    ramp_corridor,
    random_connected_graph,
    regular_polygon,
    ring_surface,
    stacked_floors,
    straight_corridor,
    surface_from_squares,
    vertical_strip,
)
from navstruct.graph import SOURCE_ENTRY_EXIT, graph_from_navmesh
from navstruct.mesh import build_walkable_surface
from navstruct.oracles import (
    eigenvector_oracle,
    first_hit_all_triangles,
    katz_oracle,
    random_ring_surface,
    register_differences,
)
from navstruct.terminals import (
    BoundarySamples,
    classify_samples,
    entry_exit_terminals,
    extract_segments,
    register_terminals,
    sample_boundary,
    terminals_from_metric,
)

X = np.array([1.0, 0.0, 0.0])
Y = np.array([0.0, 1.0, 0.0])
Z = np.array([0.0, 0.0, 1.0])


def make_table(tangents, loops=None, positions=None):
    """Samples with the given tangents, normal +Z, sample k at (k, 0, 0)
    unless `positions` says otherwise, all on loop 0 unless `loops` does."""
    tangents = np.array(tangents, dtype=float).reshape(-1, 3)
    n = len(tangents)
    if positions is None:
        positions = [(k, 0.0, 0.0) for k in range(n)]
    return BoundarySamples(
        positions=np.array(positions, dtype=float).reshape(-1, 3),
        tangents=tangents,
        normals=np.tile(Z, (n, 1)),
        loops=np.zeros(n, dtype=np.intp) if loops is None else np.array(loops),
    )


def flags(*pairs):
    """(open_ahead, open_behind) arrays from one (ahead, behind) pair per sample."""
    ahead, behind = np.array(pairs, dtype=bool).reshape(-1, 2).T
    return ahead, behind


def sample_boundary_per_sample(surface, interval):
    """The boundary samples written out one at a time, as (position,
    tangent, normal, loop) tuples."""
    rows = []
    for loop_id, loop in enumerate(surface.boundary_edges):
        vecs, lens, normals = [], [], []
        for a, b, owner in loop:
            vec = surface.vertices[b] - surface.vertices[a]
            lens.append(float(np.linalg.norm(vec)))
            vecs.append(vec / lens[-1])
            normals.append(surface.polygon_normals[owner])
        edge, edge_start_arc = 0, 0.0
        for k in range(max(1, math.floor(float(sum(lens)) / interval + 1e-9))):
            arc = k * interval
            while arc - edge_start_arc > lens[edge] - 1e-9 and edge + 1 < len(loop):
                edge_start_arc += lens[edge]
                edge += 1
            local = arc - edge_start_arc
            a = loop[edge][0]
            position = surface.vertices[a] + vecs[edge] * local
            rows.append((position, vecs[edge], normals[edge], loop_id))
    return rows


# --- boundary sampling ------------------------------------------------------

def test_sample_boundary_unit_square_half_interval():
    surface = surface_from_squares([(0, 0)])
    samples = sample_boundary(surface, interval=0.5)
    assert len(samples) == 8  # perimeter 4 / interval 0.5
    corners = [(0, 0), (0.5, 0), (1, 0), (1, 0.5), (1, 1), (0.5, 1), (0, 1), (0, 0.5)]
    assert np.allclose(samples.positions[:, :2], corners)
    assert not samples.positions[:, 2].any()
    # a corner sample carries the outgoing edge's tangent
    assert np.allclose(samples.tangents[2], Y)
    assert np.allclose(samples.tangents[1], X)
    assert samples.loops.tolist() == [0] * 8
    assert np.allclose(samples.normals, Z)


def test_sample_boundary_nondividing_interval():
    surface = surface_from_squares([(0, 0)])
    samples = sample_boundary(surface, interval=0.75)
    assert len(samples) == 5  # floor(4 / 0.75)
    # at arc lengths 0, 0.75, 1.5, 2.25 and 3
    assert np.allclose(samples.positions[:, :2], [(0, 0), (0.75, 0), (1, 0.5), (0.75, 1), (0, 1)])


def test_sample_boundary_tiny_loop_keeps_one_sample():
    surface = surface_from_squares([(0, 0)])
    samples = sample_boundary(surface, interval=10.0)
    assert len(samples) == 1
    assert samples.positions.tolist() == [[0.0, 0.0, 0.0]]


def test_sample_boundary_rejects_bad_interval():
    surface = surface_from_squares([(0, 0)])
    with pytest.raises(ValidationError, match="interval must be positive"):
        sample_boundary(surface, interval=0.0)


def test_sample_boundary_covers_every_loop():
    samples = sample_boundary(ring_surface(), interval=1.0)
    assert set(samples.loops.tolist()) == {0, 1}
    # rows run loop after loop
    assert (np.diff(samples.loops) >= 0).all()
    assert {int((samples.loops == 0).sum()), int((samples.loops == 1).sum())} == {12, 4}


def test_sample_table_equals_the_per_sample_expressions_bit_for_bit():
    surfaces = [
        surface_from_squares([(0, 0)]), ring_surface(), grid_surface(4, 3), l_corridor(),
        stacked_floors(), vertical_strip(), regular_polygon(40), straight_corridor(12)[0],
        plus_hub()[0],
    ] + [ramp_corridor(angle) for angle in (30.0, 60.0, 80.0)]
    nprng = np.random.default_rng(22)
    surfaces += [build_walkable_surface(*random_ring_surface(nprng)) for _ in range(20)]
    for surface in surfaces:
        for interval in (0.1, 0.37, 0.5, 1.0, 3.0):
            samples = sample_boundary(surface, interval)
            want = sample_boundary_per_sample(surface, interval)
            assert len(samples) == len(want)
            for k, (position, tangent, normal, loop) in enumerate(want):
                assert samples.positions[k].tolist() == position.tolist()
                assert samples.tangents[k].tolist() == tangent.tolist()
                assert samples.normals[k].tolist() == normal.tolist()
                assert samples.loops[k] == loop


# --- classification ---------------------------------------------------------

def test_fan_directions_equal_the_np_cross_reference_exactly():
    rng = np.random.default_rng(3)
    for ray_count, sample_count in ((1, 100), (2, 100), (5, 100), (1000, 8)):
        axes = rng.normal(size=(sample_count, 3))
        tangents, positions = rng.normal(size=(2, sample_count, 3))
        samples = make_table(tangents, positions=positions)
        samples.normals = axes / np.linalg.norm(axes, axis=1)[:, None]
        fans = terminals.fan_directions(samples, ray_count)
        assert fans.shape == (sample_count, ray_count, 3)
        if ray_count == 1:
            angles = [0.0]
        else:
            angles = [-np.pi / 4 + np.pi / 2 * k / (ray_count - 1) for k in range(ray_count)]
        c = np.array([math.cos(a) for a in angles])[:, None]
        s = np.array([math.sin(a) for a in angles])[:, None]
        for axis, tangent, fan in zip(samples.normals, samples.tangents, fans):
            # the backward fan, the rotated reversed tangent, is the
            # forward fan's exact negation, which first_hit casts
            for v, rows in ((tangent, fan), (-tangent, -fan)):
                want = v * c + np.cross(axis, v) * s + axis * float(np.dot(axis, v)) * (1.0 - c)
                assert (rows == want).all()
        assert (terminals.fan_directions(samples, ray_count, slice(3, 7)) == fans[3:7]).all()
    assert terminals.fan_directions(make_table([]), 5).shape == (0, 5, 3)


def test_classify_no_blockers_flags_everything(caplog):
    surface = surface_from_squares([(0, 0)])
    samples = sample_boundary(surface, interval=1.0)
    with caplog.at_level(logging.WARNING, logger="navstruct"):
        open_ahead, open_behind = classify_samples(samples, None)
    assert "no blocker mesh" in caplog.text
    assert open_ahead.tolist() == open_behind.tolist() == [True] * 4


def test_classify_corridor_open_corners(corridor):
    surface, blockers = corridor
    samples = sample_boundary(surface, interval=1.0)
    open_ahead, open_behind = classify_samples(samples, blockers)
    assert len(samples) == 26  # perimeter 2*12 + 2
    flagged = {
        tuple(np.round(samples.positions[k, :2], 6)): (open_ahead[k], open_behind[k])
        for k in np.flatnonzero(open_ahead | open_behind)
    }
    # the four corners around the two open ends: the corner whose forward
    # tangent runs along the open edge can start a segment, the corner whose
    # backward tangent points out through the opening can close one
    assert flagged == {
        (12.0, 0.0): (True, False),
        (12.0, 1.0): (False, True),
        (0.0, 1.0): (True, False),
        (0.0, 0.0): (False, True),
    }
    segments = extract_segments(samples, open_ahead, open_behind)
    starts = sorted(tuple(np.round(samples.positions[first, :2], 6)) for first, _ in segments)
    # the sharp corner turn cuts each run down to its single start sample
    assert starts == [(0.0, 1.0), (12.0, 0.0)]
    assert all(first == last for first, last in segments)


def test_classify_validates_parameters():
    surface = surface_from_squares([(0, 0)])
    samples = sample_boundary(surface, interval=1.0)
    with pytest.raises(ValidationError, match="radius must be positive"):
        classify_samples(samples, None, radius=0.0)
    with pytest.raises(ValidationError, match="ray count"):
        classify_samples(samples, None, ray_count=0)


def test_classify_leaves_the_table_unchanged(hub):
    surface, blockers = hub
    samples = sample_boundary(surface, interval=0.25)
    before = {name: array.copy() for name, array in vars(samples).items()}
    open_ahead, open_behind = classify_samples(samples, blockers)
    assert vars(samples).keys() == before.keys()
    for name, array in vars(samples).items():
        assert array.tolist() == before[name].tolist()
    assert open_ahead.shape == open_behind.shape == (len(samples),)
    assert open_ahead.dtype == open_behind.dtype == bool


def test_classify_casts_whole_samples_under_the_ray_budget(monkeypatch):
    ray_count = terminals.MAX_RAY_COUNT
    per_call = terminals.FAN_RAY_BUDGET // (2 * ray_count)
    n = 24_000
    assert n * 2 * ray_count * 3 * 8 > 2**30  # one batch's directions alone
    shapes = []

    def first_hit(blockers, origins, directions, max_t):
        # casts nothing: sample k's forward fan hits when k % 3 == 0, its
        # backward fan, the last m of the 2m columns, when k % 3 == 1
        shapes.append(directions.shape)
        k = origins[:, 0].astype(int) % 3
        t = np.full((len(directions), 2 * directions.shape[1]), math.inf)
        t[k == 0, 0] = 0.5
        t[k == 1, -1] = 0.5
        return t

    monkeypatch.setattr(terminals.raycast, "first_hit", first_hit)
    samples = make_table(np.tile(X, (n, 1)))
    open_ahead, open_behind = classify_samples(samples, None, ray_count=ray_count)
    assert [rows for rows, _, _ in shapes] == [per_call] * (n // per_call) + [n % per_call]
    assert {shape[1:] for shape in shapes} == {(ray_count, 3)}
    assert per_call * 2 * ray_count <= terminals.FAN_RAY_BUDGET
    assert open_ahead.tolist() == [k % 3 != 0 for k in range(n)]
    assert open_behind.tolist() == [k % 3 != 1 for k in range(n)]


def test_classify_in_runs_flags_as_one_batch(monkeypatch, hub):
    surface, blockers = hub
    samples = sample_boundary(surface, interval=0.25)
    one = np.column_stack(classify_samples(samples, blockers))
    monkeypatch.setattr(terminals, "FAN_RAY_BUDGET", 30)  # 3 samples of 10 rays a call
    runs = np.column_stack(classify_samples(samples, blockers))
    assert runs.tolist() == one.tolist()
    assert len({tuple(row) for row in one.tolist()}) > 1


def _pillar_level(size: int = 10, pitch: int = 4):
    """A walled square level with a lattice of walled pillar holes and one
    doorway cell in the middle of each outer side."""
    pillars = {(x, y) for x in range(2, size, pitch) for y in range(2, size, pitch)}
    surface = surface_from_squares(
        [(float(x), float(y)) for y in range(size) for x in range(size) if (x, y) not in pillars])
    c, s = size // 2 + 0.5, float(size)
    doors = [(c, 0.0, 0.0), (s, c, 0.0), (c, s, 0.0), (0.0, c, 0.0)]
    return surface, boundary_walls(surface, doors)


@pytest.mark.parametrize("scene", ["corridor200", "pillar level"])
def test_classify_flags_equal_the_oracle_on_both_explicit_fans(scene):
    # first_hit casts each backward fan as the negation of the forward one;
    # the flags must be those of every ray of [d, -d] cast on its own
    surface, blockers = straight_corridor(200) if scene == "corridor200" else _pillar_level()
    samples = sample_boundary(surface)
    ray_count = terminals.DEFAULT_RAY_COUNT
    fans = terminals.fan_directions(samples, ray_count)
    radius = terminals.DEFAULT_RADIUS
    want = []
    for o, fan in zip(samples.positions, fans):
        want.append(tuple(
            all(first_hit_all_triangles(blockers, o, d, radius) is None for d in rays)
            for rays in (fan, -fan)
        ))
    open_ahead, open_behind = classify_samples(samples, blockers, radius, ray_count)
    assert list(zip(open_ahead.tolist(), open_behind.tolist())) == want
    assert {(True, False), (False, True), (False, False)} <= set(want)


def test_classify_single_ray_is_the_fan_center():
    # a wall ahead blocks the forward ray but not the backward one
    surface = surface_from_squares([(0, 0)])
    walls = boundary_walls(surface, open_midpoints=[(0.5, 0.0, 0.0), (1.0, 0.5, 0.0), (0.0, 0.5, 0.0)])
    # only the top edge (y=1) keeps its wall
    samples = sample_boundary(surface, interval=0.5)
    open_ahead, open_behind = classify_samples(samples, walls, ray_count=1)
    (k,) = np.flatnonzero(np.all(np.isclose(samples.positions, [1.0, 0.5, 0.0]), axis=1))
    assert not open_ahead[k]  # forward ray (toward y+) runs into the top wall
    assert open_behind[k]     # backward ray escapes through the open bottom


# --- segment extraction -----------------------------------------------------

def test_segments_break_on_sharp_turns():
    samples = make_table([X, X, Y])  # a 90 degree turn before the third
    segments = extract_segments(samples, *flags(*[(True, True)] * 3), sharpness_deg=45.0)
    assert segments == [(0, 1), (2, 2)]


def test_segments_tolerate_shallow_turns():
    gentle = np.array([np.cos(np.radians(30.0)), np.sin(np.radians(30.0)), 0.0])
    samples = make_table([X, gentle])
    segments = extract_segments(samples, *flags((True, True), (True, True)), sharpness_deg=45.0)
    assert segments == [(0, 1)]


def test_segments_close_after_final_end_sample():
    samples = make_table([X, X, X])
    segments = extract_segments(samples, *flags((True, True), (True, False), (False, True)))
    assert segments == [(0, 0), (1, 2)]


def test_segments_skip_unflagged_samples():
    samples = make_table([X, X, X])
    segments = extract_segments(samples, *flags((False, False), (True, True), (False, False)))
    assert segments == [(1, 1)]


def test_segments_not_mixed_across_loops():
    samples = make_table([X, X], loops=[0, 1], positions=[(0.0, 0.0, 0.0), (5.0, 5.0, 0.0)])
    assert extract_segments(samples, *flags((True, True), (True, True))) == [(0, 0), (1, 1)]


def test_segments_never_join_two_loops():
    """On random tables, each segment lies in one loop, and the segments are
    those of each loop's rows taken on their own."""
    rng = np.random.default_rng(22)
    for _ in range(200):
        sizes = rng.integers(1, 8, size=rng.integers(1, 5))
        n = int(sizes.sum())
        loops = np.repeat(np.arange(len(sizes)), sizes)
        turns = rng.choice([0.0, 0.3, 1.2], size=n)
        tangents = np.column_stack([np.cos(turns), np.sin(turns), np.zeros(n)])
        samples = make_table(tangents, loops=loops)
        open_ahead, open_behind = rng.random((2, n)) < 0.7
        segments = extract_segments(samples, open_ahead, open_behind)
        want = []
        for loop in range(len(sizes)):
            rows = np.flatnonzero(loops == loop)
            part = BoundarySamples(
                samples.positions[rows], samples.tangents[rows], samples.normals[rows], loops[rows]
            )
            low = int(rows[0])
            want += [
                (low + first, low + last)
                for first, last in extract_segments(part, open_ahead[rows], open_behind[rows])
            ]
        assert segments == want
        assert all(loops[first] == loops[last] for first, last in segments)


def test_segment_endpoints_dedupe_when_coincident():
    surface = surface_from_squares([(0, 0)])
    g = graph_from_edges([(0.5, 0.5, 0.0)], [])
    samples = make_table([X, X, X], positions=[(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, 1e-10)])
    # a segment of one sample, or whose last end lies within 1e-9 of its
    # first, registers one node; one with distinct ends registers two
    for segment, count in (((0, 0), 1), ((0, 2), 1), ((0, 1), 2)):
        g2, terminals_ = register_terminals(g, samples, [segment], surface)
        assert terminals_.node_ids == list(range(1, 1 + count))
        assert g2.nodes[1].position.tolist() == [0.0, 0.0, 0.0]
    g2, _ = register_terminals(g, samples, [(0, 1)], surface)
    assert g2.nodes[2].position.tolist() == [1.0, 0.0, 0.0]


def test_segments_validate_sharpness():
    empty = make_table([])
    with pytest.raises(ValidationError, match="sharpness"):
        extract_segments(empty, *flags(), sharpness_deg=0.0)
    with pytest.raises(ValidationError, match="sharpness"):
        extract_segments(empty, *flags(), sharpness_deg=180.0)


# --- terminal registration --------------------------------------------------

def test_register_terminals_on_corridor(corridor):
    surface, blockers = corridor
    g = graph_from_navmesh(surface)
    g2, terminals = entry_exit_terminals(g, surface, blockers, interval=1.0)
    assert terminals.node_ids == [12, 13]
    assert len(g2) == 14
    assert len(g) == 12  # input graph untouched
    t_east, t_west = g2.nodes[12], g2.nodes[13]
    assert np.allclose(t_east.position, [12.0, 0.0, 0.0])
    assert np.allclose(t_west.position, [0.0, 1.0, 0.0])
    assert t_east.source == SOURCE_ENTRY_EXIT
    assert t_east.on_navmesh and t_west.on_navmesh
    # each terminal links to its nearest polygon-center node
    link_east = [e for e in g2.edges if 12 in e[:2]]
    link_west = [e for e in g2.edges if 13 in e[:2]]
    assert link_east == [(11, 12, pytest.approx(np.sqrt(0.5)))]
    assert link_west == [(0, 13, pytest.approx(np.sqrt(0.5)))]


def test_register_terminals_exit_offset_moves_off_mesh(corridor):
    surface, blockers = corridor
    g = graph_from_navmesh(surface)
    g2, terminals = entry_exit_terminals(
        g, surface, blockers, interval=1.0, exit_offset=0.25
    )
    east, west = g2.nodes[terminals.node_ids[0]], g2.nodes[terminals.node_ids[1]]
    assert np.allclose(east.position, [12.25, 0.0, 0.0])
    assert np.allclose(west.position, [-0.25, 1.0, 0.0])
    assert not east.on_navmesh
    assert not west.on_navmesh
    assert east.polygon == west.polygon == -1


def test_register_terminals_dedupes_shared_positions():
    surface = surface_from_squares([(0, 0)])
    g = graph_from_edges([(0.5, 0.5, 0.0)], [])
    samples = make_table([X], positions=[(0.0, 0.0, 0.0)])
    g2, terminals = register_terminals(g, samples, [(0, 0), (0, 0)], surface)
    assert terminals.node_ids == [1]  # the duplicate registers once
    assert len(g2) == 2


def test_register_terminals_links_an_equidistant_end_to_the_lowest_id():
    surface = grid_surface(2, 2)
    g = graph_from_navmesh(surface)
    # (1, 1) is sqrt(0.5) from all four centres; (1, 0.5) is 0.5 from 0 and 1
    samples = make_table([X, X], positions=[(1.0, 1.0, 0.0), (1.0, 0.5, 0.0)])
    g2, terminals_ = register_terminals(g, samples, [(0, 0), (1, 1)], surface)
    assert terminals_.node_ids == [4, 5]
    assert [e for e in g2.edges if e[1] >= 4] == [(0, 4, math.sqrt(0.5)), (0, 5, 0.5)]
    far = graph_from_edges([(2.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, -1.0, 0.0)],
                           [(0, 1, 1.0), (1, 2, 1.0)])
    origin = make_table([X], positions=[(0.0, 0.0, 0.0)])
    g3, _ = register_terminals(far, origin, [(0, 0)], surface)
    assert g3.edges[-1] == (1, 3, 1.0)


@pytest.mark.parametrize("gap, count", [(0.9e-9, 1), (1.1e-9, 2)])
def test_register_terminals_merges_ends_closer_than_1e_9(gap, count):
    surface = surface_from_squares([(0, 0)])
    g = graph_from_edges([(0.5, 0.5, 0.0)], [])
    samples = make_table([X, X], positions=[(0.25, 0.25, 0.0), (0.25 + gap, 0.25, 0.0)])
    g2, terminals_ = register_terminals(g, samples, [(0, 0), (1, 1)], surface)
    assert terminals_.node_ids == list(range(1, 1 + count))
    assert g2.nodes[1].position.tolist() == [0.25, 0.25, 0.0]


def test_register_terminals_drops_only_ends_close_to_a_kept_one():
    # a ~ b and b ~ c are within 1e-9, a and c are not: b merges into a, and
    # c, close only to the dropped b, registers
    surface = surface_from_squares([(0, 0)])
    g = graph_from_edges([(0.5, 0.5, 0.0)], [])
    xs = [0.25, 0.25 + 0.6e-9, 0.25 + 1.2e-9]
    samples = make_table([X] * 3, positions=[(x, 0.25, 0.0) for x in xs])
    g2, terminals_ = register_terminals(g, samples, [(0, 0), (1, 1), (2, 2)], surface)
    assert terminals_.node_ids == [1, 2]
    assert [g2.nodes[k].position[0] for k in (1, 2)] == [xs[0], xs[2]]


def test_register_terminals_without_segments_adds_nothing():
    surface = grid_surface(2, 1)
    g = graph_from_navmesh(surface)
    g2, terminals_ = register_terminals(g, sample_boundary(surface), [], surface)
    assert terminals_.node_ids == []
    assert g2.nodes == g.nodes and g2.edges == g.edges
    for a, b in zip(g2.arcs, g.arcs):
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert (g2.arcs.matrix != g.arcs.matrix).nnz == 0


def small_level():
    """An 8x8 level with four pillar holes and two doorways on each outer
    wall, walled everywhere else."""
    pillars = {(2, 2), (2, 5), (5, 2), (5, 5)}
    surface = surface_from_squares(
        [(float(x), float(y)) for y in range(8) for x in range(8) if (x, y) not in pillars]
    )
    doors = [m for c in (2.5, 5.5)
             for m in ((c, 0.0, 0.0), (c, 8.0, 0.0), (0.0, c, 0.0), (8.0, c, 0.0))]
    return surface, boundary_walls(surface, doors)


def test_register_terminals_adds_one_leaf_per_doorway_end():
    surface, blockers = small_level()
    g = graph_from_navmesh(surface)
    samples = sample_boundary(surface)
    segments = extract_segments(samples, *classify_samples(samples, blockers))
    g2, terminals_ = register_terminals(g, samples, segments, surface)
    assert len(terminals_.node_ids) == 16 and len(g2) == len(g) + 16
    assert register_differences(g, samples, segments, surface, 0.0, 0.5) == []


def test_register_terminals_refuses_positions_past_the_written_limit():
    surface = surface_from_squares([(0, 0)])
    g = graph_from_edges([(0.5, 0.5, 0.0)], [])
    samples = make_table([X], positions=[(0.0, 0.0, 0.0)])
    for offset in (math.nan, 1e200, -3e50):
        with pytest.raises(ValidationError, match="entry/exit coordinates"):
            register_terminals(g, samples, [(0, 0)], surface, exit_offset=offset)


def test_register_terminals_rejects_node_collision():
    surface = surface_from_squares([(0, 0)])
    g = graph_from_edges([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)], [(0, 1, 1.0)])
    samples = make_table([X], positions=[(0.0, 0.0, 0.0)])
    with pytest.raises(ValidationError, match="coincides with node"):
        register_terminals(g, samples, [(0, 0)], surface)


def test_fully_walled_surface_has_no_terminals():
    surface = surface_from_squares([(0.0, 0.0), (1.0, 0.0)])
    walls = boundary_walls(surface)  # no openings at all
    g = graph_from_navmesh(surface)
    with pytest.raises(EmptyTerminalSet, match="no openings"):
        entry_exit_terminals(g, surface, walls, interval=1.0)


def test_hub_has_four_terminals(hub):
    surface, blockers = hub
    g = graph_from_navmesh(surface)
    g2, terminals = entry_exit_terminals(g, surface, blockers, interval=1.0)
    assert len(terminals.node_ids) == 4
    assert terminals.node_ids == [9, 10, 11, 12]
    for t in terminals.node_ids:
        assert g2.nodes[t].source == SOURCE_ENTRY_EXIT


# --- metric selection -------------------------------------------------------

def test_leaves_method_picks_degree_one_nodes():
    g = graph_from_edges(
        [(0, 0, 0), (1, 0, 0), (2, 0, 0), (1, 1, 0)],
        [(0, 1, 1.0), (1, 2, 1.0), (1, 3, 1.0)],
    )
    terminals = terminals_from_metric(g, "leaves")
    assert terminals.node_ids == [0, 2, 3]


def test_leaves_method_rejects_leafless_graph():
    square = graph_from_edges(
        [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)],
        [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)],
    )
    with pytest.raises(EmptyTerminalSet, match="degree-1"):
        terminals_from_metric(square, "leaves")


def test_metric_method_ranks_by_centrality():
    g = graph_from_edges(
        [(0, 0, 0), (1, 0, 0), (2, 0, 0), (1, 1, 0)],
        [(0, 1, 1.0), (1, 2, 1.0), (1, 3, 1.0)],
    )
    top1 = terminals_from_metric(g, "metric", metric="degree", k=1)
    assert top1.node_ids == [1]  # the hub has degree 3
    top2 = terminals_from_metric(g, "metric", metric="degree", k=2)
    assert top2.node_ids == [0, 1]  # degree tie among leaves: lowest id
    everything = terminals_from_metric(g, "metric", metric="degree", k=99)
    assert everything.node_ids == [0, 1, 2, 3]


def test_metric_picks_ignore_last_bit_noise(monkeypatch):
    # the 12x12 grid's four centre squares, then the lowest four ids of the
    # eight squares around them, whose scores differ only by rounding
    cases = [
        (graph_from_navmesh(grid_surface(12, 12)), 8, [53, 54, 64, 65, 66, 67, 77, 78]),
        (graph_from_navmesh(grid_surface(10, 10)), 4, [44, 45, 54, 55]),
    ]
    for g, k, picks in cases:
        assert terminals_from_metric(g, "metric", "eigenvector", k=k).node_ids == picks
    real = terminals.compute_centrality
    rng = random.Random(5)
    for nudge in (
        lambda x: math.nextafter(x, math.inf),
        lambda x: math.nextafter(x, -math.inf),
        lambda x: math.nextafter(x, rng.choice([-math.inf, math.inf])),
    ):
        def noisy(*args, **kwargs):
            return [nudge(x) for x in real(*args, **kwargs)]
        monkeypatch.setattr(terminals, "compute_centrality", noisy)
        for g, k, picks in cases:
            assert terminals_from_metric(g, "metric", "eigenvector", k=k).node_ids == picks


def test_spectral_picks_equal_the_picks_from_the_dense_oracles(monkeypatch):
    """Top-k eigenvector and Katz picks, ranked from the fast scores and from
    the dense oracles' scores by the same rule.  The Katz series oracle
    multiplies dense matrices, n^3 per term, so on the 45x45 grid a dense
    solve of (I - alpha A) x = alpha A 1 stands in for it."""
    rng = random.Random(16)
    graphs = [graph_from_navmesh(grid_surface(size, size)) for size in (12, 20, 45)]
    graphs += [maze_graph(size, size, seed) for size in (10, 20) for seed in range(3)]
    graphs += [
        random_connected_graph(rng, rng.randint(20, 60), rng.uniform(0.1, 0.4)) for _ in range(20)
    ]
    ks = (1, 2, 4, 8, 16, 32, 64)
    picks = {}
    for index, g in enumerate(graphs):
        for metric in ("eigenvector", "katz"):
            picks[index, metric] = [
                terminals_from_metric(g, "metric", metric, k=k).node_ids for k in ks
            ]
    for index, g in enumerate(graphs):
        n = len(g.nodes)
        adjacency = np.zeros((n, n))
        for i, j, _w in g.edges:
            adjacency[i, j] = adjacency[j, i] = 1.0
        alpha = 0.9 / float(np.linalg.eigvalsh(adjacency).max())
        if n <= 400:
            katz = katz_oracle(g, alpha)
        else:
            katz = np.linalg.solve(np.eye(n) - alpha * adjacency, alpha * adjacency.sum(axis=1))
        reference = {"eigenvector": eigenvector_oracle(g), "katz": list(katz)}
        monkeypatch.setattr(
            terminals, "compute_centrality",
            lambda _g, metric, **_kwargs: reference[metric],
        )
        for metric in ("eigenvector", "katz"):
            assert [
                terminals_from_metric(g, "metric", metric, k=k).node_ids for k in ks
            ] == picks[index, metric], (index, metric)


def test_metric_picks_lowest_ids_when_every_score_is_zero():
    isolated = graph_from_edges([(0, 0, 0), (1, 0, 0), (2, 0, 0)], [])
    assert terminals_from_metric(isolated, "metric", "degree", k=2).node_ids == [0, 1]


def test_metric_method_validates_arguments():
    g = graph_from_edges([(0, 0, 0), (1, 0, 0)], [(0, 1, 1.0)])
    with pytest.raises(ValidationError, match="k must be"):
        terminals_from_metric(g, "metric", k=0)
    with pytest.raises(ValidationError, match="unknown terminal method"):
        terminals_from_metric(g, "frontier")
