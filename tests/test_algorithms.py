import math
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from navstruct import algorithms
from navstruct.algorithms import (
    betweenness_centrality,
    compute_centrality,
    degree_centrality,
    dijkstra_tree,
    eigenvector_centrality,
    katz_centrality,
    kruskal_edges,
    spectral_radius,
)
from navstruct.errors import AlphaTooLarge, EmptyGraph, ValidationError
from navstruct.fixtures import (
    graph_from_edges,
    grid_surface,
    maze_graph,
    random_connected_graph,
    random_forest_graph,
    random_tree_graph,
    stacked_floors,
)
from navstruct.graph import SurfaceGraph, graph_from_navmesh
from navstruct.oracles import (
    adjacency,
    betweenness_oracle,
    dijkstra_tree_heap,
    eigenvector_oracle,
    katz_oracle,
    mst_weight_exhaustive,
    sub_ulp_graphs,
    tree_path_interior_counts,
)
from navstruct.steiner import build_steiner_tree
from navstruct.terminals import terminals_from_metric


def unit(pairs):
    return [(i, j, 1.0) for i, j in pairs]


def line_graph(n):
    return graph_from_edges(
        [(float(k), 0.0, 0.0) for k in range(n)],
        unit([(k, k + 1) for k in range(n - 1)]),
    )


def kite_graph():
    """4 nodes, 5 weighted edges; the cheap route 0-1-2-3 costs 4."""
    return graph_from_edges(
        [(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)],
        [(0, 1, 1.0), (0, 2, 4.0), (1, 2, 2.0), (1, 3, 5.0), (2, 3, 1.0)],
    )


# --- shortest paths ---------------------------------------------------------

def test_dijkstra_distances_on_kite():
    # distances frozen from an all-pairs relaxation done by hand:
    # 0-1 direct (1), 0-2 via 1 (3), 0-3 via 1,2 (4)
    g = kite_graph()
    dist, pred = dijkstra_tree(g, [0])
    assert dist == pytest.approx([0.0, 1.0, 3.0, 4.0])
    assert pred[3] == 2 and pred[2] == 1 and pred[1] == 0


def test_shortest_path_route_and_weight():
    g = kite_graph()
    dist, pred = dijkstra_tree(g, [0])
    assert pred == [-1, 0, 1, 2]
    assert dist[3] == pytest.approx(4.0)
    dist, pred = dijkstra_tree(g, [2])
    assert pred[2] == -1 and dist[2] == 0.0


def test_dijkstra_tie_prefers_smaller_predecessor():
    # two equal-cost routes into node 3: via 1 and via 2
    g = graph_from_edges(
        [(0, 0, 0), (1, 1, 0), (1, -1, 0), (2, 0, 0)],
        [(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)],
    )
    _dist, pred = dijkstra_tree(g, [0])
    assert pred == [-1, 0, 0, 1]


def test_dijkstra_tree_keeps_the_smallest_tied_predecessor(rng):
    # integer weights force equal-cost ties; each node's recorded predecessor
    # must be the smallest neighbor that lies on some shortest path to it
    for _ in range(40):
        n = rng.randint(3, 14)
        g = random_connected_graph(rng, n, rng.uniform(0.3, 0.8))
        g = graph_from_edges(
            [tuple(node.position) for node in g.nodes],
            [(i, j, float(rng.randint(1, 3))) for i, j, _w in g.edges],
        )
        adj = adjacency(g)
        for src in range(n):
            dist, pred = dijkstra_tree(g, [src])
            for v in range(n):
                tied = [u for u, w in adj[v] if dist[u] + w == dist[v]]
                assert pred[v] == (min(tied) if tied else -1)


def test_dijkstra_tree_searches_from_sources_in_two_components():
    g = graph_from_edges(
        [(0, 0, 0), (1, 0, 0), (5, 0, 0), (6, 0, 0)],
        unit([(0, 1), (2, 3)]),
    )
    assert dijkstra_tree(g, [0]) == ([0.0, 1.0, math.inf, math.inf], [-1, 0, -1, -1])
    assert dijkstra_tree(g, [0, 3]) == ([0.0, 1.0, 1.0, 0.0], [-1, 0, 3, -1])


def test_dijkstra_tree_gives_no_source_a_predecessor():
    # a zero-weight arc between two sources is tight both ways; each source
    # still roots its own tree, and node 2 hangs off the smaller one
    g = SurfaceGraph(nodes=line_graph(3).nodes, edges=[(0, 1, 0.0), (1, 2, 1.0), (0, 2, 1.0)])
    for search in (dijkstra_tree, dijkstra_tree_heap):
        assert search(g, [0, 1]) == ([0.0, 0.0, 1.0], [-1, -1, 0])


def test_dijkstra_tree_leaves_unreached_nodes_without_predecessor():
    # a tight-arc test reads inf + w == inf as tight: the unreached component
    # {0, 1, 2} must still get no predecessors
    g = graph_from_edges(
        [(float(k), 0.0, 0.0) for k in range(6)],
        unit([(0, 1), (1, 2), (3, 5), (3, 4)]),
    )
    dist, pred = dijkstra_tree(g, [5])
    assert dist == [math.inf, math.inf, math.inf, 1.0, 2.0, 0.0]
    assert pred == [-1, -1, -1, 5, 3, -1]
    assert (dist, pred) == dijkstra_tree_heap(g, [5])


def test_dijkstra_tree_follows_the_heap_where_a_weight_vanishes_in_rounding():
    # 1e17 + 1.0 == 1e17: both ends of the 1.0 edge share a distance, and
    # only the end the heap settles first may be the other's predecessor
    first, second = sub_ulp_graphs()
    assert dijkstra_tree(first, [0])[1] == [-1, 2, 0]
    assert dijkstra_tree(second, [0])[1] == [-1, 3, 1, 0, 0]
    for g in (first, second):
        for src in range(len(g.nodes)):
            dist, pred = dijkstra_tree(g, [src])
            assert (dist, pred) == dijkstra_tree_heap(g, [src])
            for dst in range(len(g.nodes)):
                path = [dst]
                while pred[path[-1]] >= 0 and len(path) <= len(pred):
                    path.append(pred[path[-1]])
                assert path[-1] == src and len(set(path)) == len(path)


def _sum_is_finite(weights) -> bool:
    """Whether the exact sum of `weights` rounds to a finite float."""
    try:
        return math.isfinite(float(sum(map(Fraction, weights))))
    except OverflowError:
        return False


def test_dijkstra_tree_equals_the_heap_oracle_on_awkward_graphs(rng):
    # tie-heavy and vanishing weights, zero weights and weights whose sums
    # pass the float range, some drawn with a repeated edge and a self-loop;
    # the constructor refuses exactly the drawn graphs that are not simple or
    # whose weights sum past the float range, and every other one is searched
    # from each node alone and from random source sets
    nodes = line_graph(12).nodes
    weight_sets = [
        (0.1, 0.2, 0.3), (0.1, 0.2, 0.3, 1e-18), (0.0, 0.5, 1.0),
        (1e17, 1.0, 3.0), (1e308, 1.5e308, 1.0), (5e-324, 1e-300, 1.0),
    ]
    for _ in range(300):
        n = rng.randint(1, 12)
        weights = rng.choice(weight_sets)
        p = rng.uniform(0.05, 0.8)
        edges = [
            (i, j, rng.choice(weights))
            for i in range(n) for j in range(i + 1, n) if rng.random() < p
        ]
        simple = not edges or rng.random() >= 0.3
        if not simple:
            edges += [(j, i, rng.choice(weights)) for i, j, _w in rng.sample(edges, 1)]
            edges.append((n - 1, n - 1, rng.choice(weights)))
        rng.shuffle(edges)
        if not (simple and _sum_is_finite(w for _i, _j, w in edges)):
            with pytest.raises(ValidationError):
                SurfaceGraph(nodes[:n], edges)
            continue
        g = SurfaceGraph(nodes[:n], edges)
        for src in range(n):
            assert dijkstra_tree(g, [src]) == dijkstra_tree_heap(g, [src])
        for _ in range(3):
            sources = sorted(rng.sample(range(n), rng.randint(1, n)))
            assert dijkstra_tree(g, sources) == dijkstra_tree_heap(g, sources)


def test_graph_arcs_hold_each_edge_both_ways_and_are_built_once():
    # the constructor builds the arcs with the edges, ordered by (tail, head)
    g = SurfaceGraph(nodes=line_graph(4).nodes, edges=[(2, 1, 0.5), (3, 0, 4.0), (1, 0, 2.0)])
    arcs = g.arcs
    got = list(zip(arcs.tail.tolist(), arcs.head.tolist(), arcs.weight.tolist()))
    assert got == [
        (0, 1, 2.0), (0, 3, 4.0), (1, 0, 2.0), (1, 2, 0.5), (2, 1, 0.5), (3, 0, 4.0),
    ]
    # the matrix holds the same arcs, one row per tail
    assert arcs.matrix.nnz == len(got)
    assert arcs.matrix.indptr.tolist() == [0, 2, 4, 5, 6]


def test_steiner_on_a_maze_runs_no_python_heap_search(monkeypatch):
    searches = []
    real = algorithms._sssp_dijkstra
    monkeypatch.setattr(
        algorithms, "_sssp_dijkstra", lambda *args: searches.append(1) or real(*args)
    )
    g = maze_graph(12, 12)
    leaves = terminals_from_metric(g, "leaves")
    tree = build_steiner_tree(g, leaves)
    assert len(leaves.node_ids) > 2 and set(leaves.node_ids) <= set(tree.nodes)
    assert searches == []


# --- spanning trees ---------------------------------------------------------

def test_kruskal_weight_matches_exhaustive_oracle():
    g = kite_graph()
    forest = kruskal_edges(range(len(g)), g.edges)
    assert forest.component_count == 1
    # 4.0 frozen from enumerating every 3-edge spanning subset
    assert forest.total_weight == pytest.approx(4.0)
    assert mst_weight_exhaustive(len(g), g.edges) == pytest.approx(4.0)


def test_kruskal_deterministic_on_ties():
    # all weights equal: chosen edges must follow (weight, small id, big id)
    g = graph_from_edges(
        [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)],
        unit([(0, 1), (0, 2), (1, 3), (2, 3), (0, 3)]),
    )
    forest = kruskal_edges(range(len(g)), g.edges)
    assert [(i, j) for i, j, _w in forest.edges] == [(0, 1), (0, 2), (0, 3)]


def test_kruskal_forest_on_disconnected_graph():
    g = graph_from_edges(
        [(0, 0, 0), (1, 0, 0), (5, 0, 0), (6, 0, 0)],
        unit([(0, 1), (2, 3)]),
    )
    forest = kruskal_edges(range(len(g)), g.edges)
    assert forest.component_count == 2
    assert len(forest.edges) == 2


def test_random_mst_weights_match_exhaustive(rng):
    for _ in range(25):
        g = random_connected_graph(rng, rng.randint(4, 7), 0.6)
        if len(g.edges) > 14:
            continue  # exhaustive enumeration budget
        expected = mst_weight_exhaustive(len(g), g.edges)
        got = kruskal_edges(range(len(g)), g.edges).total_weight
        assert got == pytest.approx(expected, abs=1e-9)


# --- degree and betweenness -------------------------------------------------

def test_degree_centrality_counts_neighbors():
    g = graph_from_edges(
        [(0, 0, 0), (1, 0, 0), (0, 1, 0), (-1, 0, 0)],
        unit([(0, 1), (0, 2), (0, 3)]),
    )
    assert degree_centrality(g) == [3.0, 1.0, 1.0, 1.0]


def test_betweenness_on_path_and_cycle():
    # frozen from the dense all-pairs path-counting routine: P4 interior
    # nodes each sit on 2 of the 6 unordered pairs' shortest paths
    p4 = line_graph(4)
    assert betweenness_centrality(p4) == pytest.approx([0.0, 2.0, 2.0, 0.0])
    pos5 = [
        (math.cos(2 * math.pi * k / 5), math.sin(2 * math.pi * k / 5), 0.0)
        for k in range(5)
    ]
    c5 = graph_from_edges(pos5, unit([(k, (k + 1) % 5) for k in range(5)]))
    assert betweenness_centrality(c5) == pytest.approx([1.0] * 5)


def test_betweenness_weighted_kite():
    # frozen oracle values: all 0-3 traffic runs along 0-1-2-3
    g = kite_graph()
    assert betweenness_centrality(g) == pytest.approx([0.0, 2.0, 2.0, 0.0])


def test_betweenness_star_center():
    n = 6
    g = graph_from_edges(
        [(0, 0, 0)] + [(math.cos(k), math.sin(k), 0) for k in range(n - 1)],
        unit([(0, k) for k in range(1, n)]),
    )
    scores = betweenness_centrality(g)
    assert scores[0] == pytest.approx((n - 1) * (n - 2) / 2)
    assert scores[1:] == pytest.approx([0.0] * (n - 1))


def test_betweenness_splits_equal_paths():
    # 4-cycle: each s-t diagonal pair has two shortest routes, half credit each
    g = graph_from_edges(
        [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)],
        unit([(0, 1), (1, 2), (2, 3), (0, 3)]),
    )
    assert betweenness_centrality(g) == pytest.approx([0.5] * 4)


def test_betweenness_matches_oracle_on_random_graphs(rng):
    for _ in range(20):
        g = random_connected_graph(rng, rng.randint(5, 12), 0.5)
        got = betweenness_centrality(g)
        expected = betweenness_oracle(g)
        assert got == pytest.approx(expected, abs=1e-9)


def test_betweenness_uniform_weights_agree_with_weighted_route(rng):
    # equal-weight graphs take a breadth-first fast path; forcing the general
    # weighted route by scaling one weight infinitesimally must not change
    # anything observable, and both must match the oracle
    for _ in range(10):
        n = rng.randint(5, 10)
        g = random_connected_graph(rng, n, 0.5)
        uniform = graph_from_edges(
            [node.position for node in g.nodes],
            [(i, j, 2.5) for i, j, _w in g.edges],
        )
        got = betweenness_centrality(uniform)
        assert got == pytest.approx(betweenness_oracle(uniform), abs=1e-9)


def test_betweenness_unweighted_flag_ignores_weights():
    g = kite_graph()
    hops = betweenness_centrality(g, weighted=False)
    # under hop counting the kite's direct edges 0-2 and 1-3 matter:
    # frozen from the path-counting oracle with unit weights
    assert hops == pytest.approx(betweenness_oracle(g, weighted=False), abs=1e-9)



def test_betweenness_on_forests_skips_the_shortest_path_searches(monkeypatch, rng):
    searches = []
    real = algorithms._sssp_dijkstra
    monkeypatch.setattr(
        algorithms, "_sssp_dijkstra", lambda *args: searches.append(1) or real(*args)
    )
    for _ in range(10):
        tree = random_tree_graph(rng, rng.randint(2, 30))
        for weighted in (True, False):
            got = betweenness_centrality(tree, weighted=weighted)
            assert got == tree_path_interior_counts(tree)
    for _ in range(10):
        # size-1 parts are isolated nodes
        sizes = [1] + [rng.randint(1, 9) for _ in range(rng.randint(1, 4))]
        forest = random_forest_graph(rng, sizes)
        for weighted in (True, False):
            got = betweenness_centrality(forest, weighted=weighted)
            assert got == pytest.approx(betweenness_oracle(forest, weighted), abs=1e-9)
    maze = maze_graph(50, 50)
    assert len(maze.edges) == len(maze.nodes) - 1
    assert max(betweenness_centrality(maze)) > 0.0
    assert searches == []

    square = graph_from_edges(
        [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0, 1.0, 0.0), (0.0, 1.0, 0.0)],
        unit([(0, 1), (1, 2), (2, 3), (0, 3)]),
    )
    assert betweenness_centrality(square) == [0.5] * 4
    assert searches


# --- eigenvector and katz ---------------------------------------------------

def test_eigenvector_on_path3():
    g = line_graph(3)
    scores = eigenvector_centrality(g)
    # dominant eigenvector of the 3-path, max-normalized: (1/sqrt2, 1, 1/sqrt2)
    root_half = 1.0 / math.sqrt(2.0)
    assert scores == pytest.approx([root_half, 1.0, root_half], abs=1e-8)


def test_eigenvector_on_star():
    g = graph_from_edges(
        [(0, 0, 0), (1, 0, 0), (0, 1, 0), (-1, 0, 0)],
        unit([(0, 1), (0, 2), (0, 3)]),
    )
    scores = eigenvector_centrality(g)
    leaf = 1.0 / math.sqrt(3.0)
    assert scores == pytest.approx([1.0, leaf, leaf, leaf], abs=1e-8)


def test_eigenvector_matches_dense_oracle(rng):
    for _ in range(10):
        g = random_connected_graph(rng, rng.randint(4, 10), 0.6)
        got = eigenvector_centrality(g)
        assert got == pytest.approx(eigenvector_oracle(g), abs=1e-10)


@pytest.mark.parametrize("size, seed", [(30, 0), (30, 2), (30, 5), (40, 1), (40, 4)])
def test_eigenvector_converges_on_mazes(size, seed):
    # a maze is a tree whose top eigenvalues lie close together; power
    # iteration stopped after 10,000 steps short of its 1e-9 step rule here
    g = maze_graph(size, size, seed)
    assert eigenvector_centrality(g) == pytest.approx(eigenvector_oracle(g), abs=1e-10)


def test_eigenvector_of_a_disconnected_graph_is_the_power_iteration_limit():
    # components below the top eigenvalue score zero; components tied at it
    # keep their Perron vectors, weighted by their projections onto ones
    triangles_and_an_edge = graph_from_edges(
        [(float(k), 0.0, 0.0) for k in range(8)],
        unit([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (6, 7)]),
    )
    assert eigenvector_centrality(triangles_and_an_edge) == pytest.approx(
        [1.0] * 6 + [0.0, 0.0], abs=1e-12
    )
    # a 5-node path (radius sqrt 3) and two edges (radius 1)
    floors = graph_from_navmesh(stacked_floors())
    half_root3 = math.sqrt(3.0) / 2.0
    assert eigenvector_centrality(floors) == pytest.approx(
        [0.5, half_root3, 1.0, half_root3, 0.5, 0.0, 0.0, 0.0, 0.0], abs=1e-12
    )


def test_eigenvector_rejects_edgeless_graph():
    g = graph_from_edges([(0, 0, 0), (1, 0, 0)], [])
    with pytest.raises(EmptyGraph):
        eigenvector_centrality(g)


def test_spectral_radius_known_graphs():
    triangle = graph_from_edges(
        [(0, 0, 0), (1, 0, 0), (0.5, 1, 0)], unit([(0, 1), (1, 2), (0, 2)])
    )
    assert spectral_radius(triangle) == pytest.approx(2.0, abs=1e-10)
    assert spectral_radius(line_graph(3)) == pytest.approx(math.sqrt(2.0), abs=1e-10)
    star = graph_from_edges(
        [(0, 0, 0), (1, 0, 0), (0, 1, 0), (-1, 0, 0)],
        unit([(0, 1), (0, 2), (0, 3)]),
    )
    assert spectral_radius(star) == pytest.approx(math.sqrt(3.0), abs=1e-10)


def test_katz_matches_series_oracle():
    g = kite_graph()
    scores = katz_centrality(g, alpha=0.25)
    # frozen limit of the attenuated walk series at alpha = 1/4
    assert scores == pytest.approx([1.5, 2.0, 2.0, 1.5], abs=1e-10)
    assert scores == pytest.approx(katz_oracle(g, 0.25), abs=1e-10)


def test_katz_default_alpha_converges(rng):
    for _ in range(5):
        g = random_connected_graph(rng, rng.randint(4, 8), 0.6)
        scores = katz_centrality(g)
        alpha = 0.9 / spectral_radius(g)
        assert scores == pytest.approx(katz_oracle(g, alpha), abs=1e-10)
        assert all(v > 0.0 for v in scores)


def test_katz_rejects_alpha_at_or_beyond_threshold():
    triangle = graph_from_edges(
        [(0, 0, 0), (1, 0, 0), (0.5, 1, 0)], unit([(0, 1), (1, 2), (0, 2)])
    )
    # spectral radius 2 means the series only converges for alpha < 0.5
    with pytest.raises(AlphaTooLarge):
        katz_centrality(triangle, alpha=0.5)
    with pytest.raises(AlphaTooLarge):
        katz_centrality(triangle, alpha=0.9)
    # NaN fails every comparison, so it is refused as alpha <= 0 is
    with pytest.raises(AlphaTooLarge, match="alpha must be positive, got nan"):
        katz_centrality(triangle, alpha=float("nan"))
    scores = katz_centrality(triangle, alpha=0.4)
    assert scores == pytest.approx(katz_oracle(triangle, 0.4), abs=1e-10)


def test_spectral_scores_stay_sparse_on_a_large_grid():
    # one dense float64 adjacency of this graph would take 4900^2 * 8 B = 192 MB
    g = graph_from_navmesh(grid_surface(70, 70))
    assert len(g.nodes) == 4900
    tracemalloc.start()
    try:
        eigenvector_centrality(g)
        spectral_radius(g)
        katz_centrality(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    # grids tie heavily, as the benchmark's metric terminals do
    small = graph_from_navmesh(grid_surface(12, 12))
    assert eigenvector_centrality(small) == pytest.approx(
        eigenvector_oracle(small), abs=1e-6
    )
    assert katz_centrality(small) == pytest.approx(
        katz_oracle(small, 0.9 / spectral_radius(small)), abs=1e-6
    )


@pytest.mark.parametrize("size", [12, 45])
def test_spectral_radius_of_a_grid_matches_the_dense_eigenvalue(size):
    # the max-norm peak repeats at the second step on grids and read 4.0 here
    g = graph_from_navmesh(grid_surface(size, size))
    dense = np.zeros((len(g.nodes), len(g.nodes)))
    for i, j, _ in g.edges:
        dense[i, j] = dense[j, i] = 1.0
    assert abs(spectral_radius(g) - np.linalg.eigvalsh(dense).max()) <= 1e-12


def test_random_connected_graph_gives_up_on_a_hopeless_edge_probability():
    start = time.perf_counter()
    with pytest.raises(ValueError, match="n=29, p=0.014"):
        random_connected_graph(random.Random(0), 29, 0.014)
    assert time.perf_counter() - start < 1.0


def test_repeated_edges_and_self_loops_count_once():
    # the constructor refuses a repeated edge or a self-loop, so no graph
    # carries a copy into the spectral matrix; the graph that keeps each
    # edge once matches the oracles' dense build entry for entry
    nodes = line_graph(4).nodes
    for edges, message in [
        ([(0, 1, 1.0), (0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)], r"^duplicate edge \(0, 1\)$"),
        ([(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 2, 2.0)], r"^duplicate edge \(2, 3\)$"),
        ([(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (2, 2, 1.0)], r"^self-loop on node 2$"),
    ]:
        with pytest.raises(ValidationError, match=message):
            SurfaceGraph(nodes, edges)
    g = SurfaceGraph(nodes, [(0, 1, 1.0), (1, 2, 1.0), (3, 2, 2.0)])
    assert g.arcs.matrix.nnz == 6
    assert eigenvector_centrality(g) == pytest.approx(eigenvector_oracle(g), abs=1e-10)
    dense = [[0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0]]
    assert spectral_radius(g) == pytest.approx(max(np.linalg.eigvalsh(dense)), abs=1e-10)
    assert katz_centrality(g) == pytest.approx(
        katz_oracle(g, 0.9 / spectral_radius(g)), abs=1e-10
    )
    assert katz_centrality(g, alpha=0.3) == pytest.approx(katz_oracle(g, 0.3), abs=1e-10)


# --- dispatcher -------------------------------------------------------------

def test_compute_centrality_dispatch():
    g = line_graph(4)
    assert compute_centrality(g, "degree") == [1.0, 2.0, 2.0, 1.0]
    assert compute_centrality(g, "betweenness") == betweenness_centrality(g)
    assert compute_centrality(g, "eigenvector") == eigenvector_centrality(g)
    assert compute_centrality(g, "katz") == katz_centrality(g)
    assert compute_centrality(g, "katz", alpha=0.25) == katz_centrality(g, alpha=0.25)
    # the kite has a cycle, so unit weights move its betweenness
    kite = kite_graph()
    hops = compute_centrality(kite, "betweenness", weighted=False)
    assert hops == betweenness_centrality(kite, weighted=False)
    assert hops != betweenness_centrality(kite)
    with pytest.raises(ValidationError, match="unknown centrality"):
        compute_centrality(g, "pagerank")
