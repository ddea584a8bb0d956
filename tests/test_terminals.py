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
    maze_graph,
    random_connected_graph,
    surface_from_squares,
)
from navstruct.graph import SOURCE_ENTRY_EXIT, graph_from_navmesh
from navstruct.oracles import eigenvector_oracle, katz_oracle
from navstruct.terminals import (
    BoundarySample,
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


def make_sample(arc, forward, start=True, end=True, loop=0, position=None):
    fwd = np.asarray(forward, dtype=float)
    return BoundarySample(
        position=np.asarray(position if position is not None else (arc, 0.0, 0.0), dtype=float),
        loop=loop,
        arc_param=float(arc),
        forward_dir=fwd,
        normal=Z.copy(),
        potential_start=start,
        potential_end=end,
    )


# --- boundary sampling ------------------------------------------------------

def test_sample_boundary_unit_square_half_interval():
    surface = surface_from_squares([(0, 0)])
    samples = sample_boundary(surface, interval=0.5)
    assert len(samples) == 8  # perimeter 4 / interval 0.5
    assert [s.arc_param for s in samples] == [0.5 * k for k in range(8)]
    assert np.allclose(samples[0].position, [0, 0, 0])
    assert np.allclose(samples[1].position, [0.5, 0, 0])
    assert np.allclose(samples[2].position, [1, 0, 0])
    # a corner sample carries the outgoing edge's tangent
    assert np.allclose(samples[2].forward_dir, Y)
    assert np.allclose(samples[1].forward_dir, X)
    assert all(s.loop == 0 for s in samples)
    assert all(np.allclose(s.normal, Z) for s in samples)


def test_sample_boundary_nondividing_interval():
    surface = surface_from_squares([(0, 0)])
    samples = sample_boundary(surface, interval=0.75)
    assert len(samples) == 5  # floor(4 / 0.75)
    assert [s.arc_param for s in samples] == [0.0, 0.75, 1.5, 2.25, 3.0]


def test_sample_boundary_tiny_loop_keeps_one_sample():
    surface = surface_from_squares([(0, 0)])
    samples = sample_boundary(surface, interval=10.0)
    assert len(samples) == 1
    assert samples[0].arc_param == 0.0


def test_sample_boundary_rejects_bad_interval():
    surface = surface_from_squares([(0, 0)])
    with pytest.raises(ValidationError, match="interval must be positive"):
        sample_boundary(surface, interval=0.0)


def test_sample_boundary_covers_every_loop():
    from navstruct.fixtures import ring_surface

    surface = ring_surface()
    samples = sample_boundary(surface, interval=1.0)
    loops = {s.loop for s in samples}
    assert loops == {0, 1}
    outer = [s for s in samples if s.loop == 0]
    inner = [s for s in samples if s.loop == 1]
    assert {len(outer), len(inner)} == {12, 4}


# --- classification ---------------------------------------------------------

def test_fan_directions_equal_the_np_cross_reference_exactly():
    rng = np.random.default_rng(3)
    for ray_count, sample_count in ((1, 100), (2, 100), (5, 100), (1000, 8)):
        samples = []
        for _ in range(sample_count):
            axis = rng.normal(size=3)
            samples.append(make_sample(0.0, rng.normal(size=3), position=rng.normal(size=3)))
            samples[-1].normal = axis / np.linalg.norm(axis)
        fans = terminals.fan_directions(samples, ray_count)
        assert fans.shape == (sample_count, 2 * ray_count, 3)
        if ray_count == 1:
            angles = [0.0]
        else:
            angles = [-np.pi / 4 + np.pi / 2 * k / (ray_count - 1) for k in range(ray_count)]
        c = np.array([math.cos(a) for a in angles])[:, None]
        s = np.array([math.sin(a) for a in angles])[:, None]
        for sample, fan in zip(samples, fans):
            axis = sample.normal
            for v, rows in ((sample.forward_dir, fan[:ray_count]), (-sample.forward_dir, fan[ray_count:])):
                want = v * c + np.cross(axis, v) * s + axis * float(np.dot(axis, v)) * (1.0 - c)
                assert (rows == want).all()
            assert (fan[ray_count:] == -fan[:ray_count]).all()
    assert terminals.fan_directions([], 5).shape == (0, 10, 3)


def test_classify_no_blockers_flags_everything(caplog):
    surface = surface_from_squares([(0, 0)])
    samples = sample_boundary(surface, interval=1.0)
    with caplog.at_level(logging.WARNING, logger="navstruct"):
        classify_samples(samples, None)
    assert "no blocker mesh" in caplog.text
    assert all(s.potential_start and s.potential_end for s in samples)


def test_classify_corridor_open_corners(corridor):
    surface, blockers = corridor
    samples = classify_samples(sample_boundary(surface, interval=1.0), blockers)
    assert len(samples) == 26  # perimeter 2*12 + 2
    flags = {
        tuple(np.round(s.position[:2], 6)): (s.potential_start, s.potential_end)
        for s in samples
        if s.potential_start or s.potential_end
    }
    # the four corners around the two open ends: the corner whose forward
    # tangent runs along the open edge can start a segment, the corner whose
    # backward tangent points out through the opening can close one
    assert flags == {
        (12.0, 0.0): (True, False),
        (12.0, 1.0): (False, True),
        (0.0, 1.0): (True, False),
        (0.0, 0.0): (False, True),
    }
    segments = extract_segments(samples)
    starts = sorted(tuple(np.round(seg.start.position[:2], 6)) for seg in segments)
    # the sharp corner turn cuts each run down to its single start sample
    assert starts == [(0.0, 1.0), (12.0, 0.0)]
    assert all(seg.start is seg.end for seg in segments)


def test_classify_validates_parameters():
    surface = surface_from_squares([(0, 0)])
    samples = sample_boundary(surface, interval=1.0)
    with pytest.raises(ValidationError, match="radius must be positive"):
        classify_samples(samples, None, radius=0.0)
    with pytest.raises(ValidationError, match="ray count"):
        classify_samples(samples, None, ray_count=0)


def test_classify_casts_whole_samples_under_the_ray_budget(monkeypatch):
    ray_count = terminals.MAX_RAY_COUNT
    per_call = terminals.FAN_RAY_BUDGET // (2 * ray_count)
    n = 24_000
    assert n * 2 * ray_count * 3 * 8 > 2**30  # one batch's directions alone
    shapes = []

    def first_hit(blockers, origins, directions, max_t):
        # casts nothing: sample k's forward fan hits when k % 3 == 0, its
        # backward fan when k % 3 == 1
        shapes.append(directions.shape)
        k = origins[:, 0].astype(int) % 3
        t = np.full(directions.shape[:2], math.inf)
        t[k == 0, 0] = 0.5
        t[k == 1, -1] = 0.5
        return t

    monkeypatch.setattr(terminals.raycast, "first_hit", first_hit)
    samples = [make_sample(k, X, position=(k, 0.0, 0.0)) for k in range(n)]
    classify_samples(samples, None, ray_count=ray_count)
    assert [rows for rows, _, _ in shapes] == [per_call] * (n // per_call) + [n % per_call]
    assert {shape[1:] for shape in shapes} == {(2 * ray_count, 3)}
    assert per_call * 2 * ray_count <= terminals.FAN_RAY_BUDGET
    assert [(s.potential_start, s.potential_end) for s in samples] == [
        (k % 3 != 0, k % 3 != 1) for k in range(n)
    ]


def test_classify_in_runs_flags_as_one_batch(monkeypatch, hub):
    surface, blockers = hub
    samples = sample_boundary(surface, interval=0.25)
    one = [(s.potential_start, s.potential_end) for s in classify_samples(samples, blockers)]
    monkeypatch.setattr(terminals, "FAN_RAY_BUDGET", 30)  # 3 samples of 10 rays a call
    runs = [(s.potential_start, s.potential_end) for s in classify_samples(samples, blockers)]
    assert runs == one
    assert len(set(one)) > 1


def test_classify_single_ray_is_the_fan_center():
    # a wall ahead blocks the forward ray but not the backward one
    surface = surface_from_squares([(0, 0)])
    walls = boundary_walls(surface, open_midpoints=[(0.5, 0.0, 0.0), (1.0, 0.5, 0.0), (0.0, 0.5, 0.0)])
    # only the top edge (y=1) keeps its wall
    samples = [s for s in classify_samples(
        sample_boundary(surface, interval=0.5), walls, ray_count=1,
    ) if np.allclose(s.position, [1.0, 0.5, 0.0])]
    (s,) = samples
    assert not s.potential_start  # forward ray (toward y+) runs into the top wall
    assert s.potential_end        # backward ray escapes through the open bottom


# --- segment extraction -----------------------------------------------------

def span(seg):
    """Arc parameters of a segment's first and last sample."""
    return seg.start.arc_param, seg.end.arc_param


def test_segments_break_on_sharp_turns():
    samples = [
        make_sample(0.0, X),
        make_sample(1.0, X),
        make_sample(2.0, Y),  # 90 degree turn
    ]
    segments = extract_segments(samples, sharpness_deg=45.0)
    assert len(segments) == 2
    assert span(segments[0]) == (0.0, 1.0)
    assert span(segments[1]) == (2.0, 2.0)


def test_segments_tolerate_shallow_turns():
    gentle = np.array([np.cos(np.radians(30.0)), np.sin(np.radians(30.0)), 0.0])
    samples = [make_sample(0.0, X), make_sample(1.0, gentle)]
    segments = extract_segments(samples, sharpness_deg=45.0)
    assert len(segments) == 1
    assert span(segments[0]) == (0.0, 1.0)


def test_segments_close_after_final_end_sample():
    samples = [
        make_sample(0.0, X, start=True, end=True),
        make_sample(1.0, X, start=True, end=False),
        make_sample(2.0, X, start=False, end=True),
    ]
    segments = extract_segments(samples)
    assert len(segments) == 2
    assert span(segments[0]) == (0.0, 0.0)
    assert span(segments[1]) == (1.0, 2.0)


def test_segments_skip_unflagged_samples():
    samples = [
        make_sample(0.0, X, start=False, end=False),
        make_sample(1.0, X, start=True, end=True),
        make_sample(2.0, X, start=False, end=False),
    ]
    segments = extract_segments(samples)
    assert len(segments) == 1
    assert segments[0].start.arc_param == 1.0


def test_segments_not_mixed_across_loops():
    samples = [
        make_sample(0.0, X, loop=0),
        make_sample(0.0, X, loop=1, position=(5.0, 5.0, 0.0)),
    ]
    segments = extract_segments(samples)
    assert len(segments) == 2


def test_segment_endpoints_dedupe_when_coincident():
    single = extract_segments([make_sample(0.0, X)])
    assert len(single[0].matched_points) == 1
    double = extract_segments([make_sample(0.0, X), make_sample(1.0, X)])
    assert len(double[0].matched_points) == 2


def test_segments_validate_sharpness():
    with pytest.raises(ValidationError, match="sharpness"):
        extract_segments([], sharpness_deg=0.0)
    with pytest.raises(ValidationError, match="sharpness"):
        extract_segments([], sharpness_deg=180.0)


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


def test_register_terminals_dedupes_shared_positions():
    surface = surface_from_squares([(0, 0)])
    g = graph_from_edges([(0.5, 0.5, 0.0)], [])
    seg = extract_segments([make_sample(0.0, X, position=(0.0, 0.0, 0.0))])[0]
    g2, terminals = register_terminals(g, [seg, seg], surface)
    assert terminals.node_ids == [1]  # the duplicate registers once
    assert len(g2) == 2


def test_register_terminals_rejects_node_collision():
    surface = surface_from_squares([(0, 0)])
    g = graph_from_edges([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)], [(0, 1, 1.0)])
    seg = extract_segments([make_sample(0.0, X, position=(0.0, 0.0, 0.0))])[0]
    with pytest.raises(ValidationError, match="coincides with node"):
        register_terminals(g, [seg], surface)


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
