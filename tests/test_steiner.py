import math

import pytest

from navstruct.algorithms import kruskal_edges
from navstruct.errors import DisconnectedTerminals, EmptyTerminalSet
from navstruct.fixtures import graph_from_edges, grid_surface, maze_graph, random_connected_graph
from navstruct.graph import graph_from_navmesh
from navstruct.oracles import (
    _tie_heavy_graph,
    adjacency,
    dijkstra_tree_heap,
    steiner_exhaustive,
    sub_ulp_graphs,
)
from navstruct.steiner import SteinerTree, build_steiner_tree
from navstruct.terminals import TerminalSet, terminals_from_metric


def terms(ids):
    return TerminalSet(node_ids=list(ids))


def ladder_graph():
    """6 nodes in two rails; terminals 0, 3, 5 connect optimally through 2."""
    return graph_from_edges(
        [(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0), (1, 1, 0), (2, 1, 0)],
        [
            (0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0),
            (1, 4, 1.0), (4, 5, 1.0), (2, 5, 1.0),
            (0, 4, 2.5), (3, 5, 2.5),
        ],
    )


def shortcut_hub_graph():
    """Three terminals around a cheap hub, with direct shortcut edges that
    trick the metric-closure heuristic into a strictly suboptimal answer."""
    return graph_from_edges(
        [(0, 0, 0), (2, 0, 0), (1, 1.7, 0), (1, 0.6, 0)],
        [
            (0, 3, 1.0), (1, 3, 1.0), (2, 3, 1.0),
            (0, 1, 1.8), (0, 2, 1.8), (1, 2, 1.8),
        ],
    )


def assert_valid_steiner_tree(tree: SteinerTree, g, terminal_ids):
    node_set = set(tree.nodes)
    assert set(terminal_ids) <= node_set
    assert len(tree.edges) == len(tree.nodes) - 1
    # connected and acyclic over its own node set
    seen = set()
    stack = [0]
    adj = adjacency(tree.dense_graph(g))
    while stack:
        k = stack.pop()
        if k in seen:
            continue
        seen.add(k)
        stack.extend(u for u, _w in adj[k])
    assert {tree.nodes[k] for k in seen} == node_set
    # every edge exists in the host graph with the same weight
    host = {(i, j): w for i, j, w in g.edges}
    for i, j, w in tree.edges:
        assert host[(i, j)] == pytest.approx(w)
    # no non-terminal leaves survive pruning
    degree = {v: 0 for v in tree.nodes}
    for i, j, _w in tree.edges:
        degree[i] += 1
        degree[j] += 1
    for v, d in degree.items():
        if d <= 1 and len(tree.nodes) > 1:
            assert v in set(terminal_ids)


def test_single_terminal_is_a_trivial_tree():
    g = ladder_graph()
    tree = build_steiner_tree(g, terms([2]))
    assert tree.nodes == [2]
    assert tree.edges == []
    assert tree.total_weight == 0.0


def test_two_terminals_reduce_to_the_shortest_path():
    g = ladder_graph()
    tree = build_steiner_tree(g, terms([0, 3]))
    assert tree.nodes == [0, 1, 2, 3]
    assert tree.total_weight == pytest.approx(3.0)


def test_ladder_terminals_match_exhaustive_optimum():
    g = ladder_graph()
    tree = build_steiner_tree(g, terms([0, 3, 5]))
    # 4.0 frozen from enumerating every connecting subset of nodes
    opt, _leaves = steiner_exhaustive(g, [0, 3, 5])
    assert opt == pytest.approx(4.0)
    assert tree.total_weight == pytest.approx(4.0)
    assert tree.nodes == [0, 1, 2, 3, 5]
    assert tree.edges == [
        (0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (2, 5, 1.0),
    ]


def test_shortcut_hub_shows_the_approximation_gap():
    g = shortcut_hub_graph()
    tree = build_steiner_tree(g, terms([0, 1, 2]))
    opt, _leaves = steiner_exhaustive(g, [0, 1, 2])
    # the optimum routes through the hub (3.0); the metric-closure answer
    # takes two direct shortcuts (3.6) and stays within the 2x guarantee
    assert opt == pytest.approx(3.0)
    assert tree.total_weight == pytest.approx(3.6)
    assert tree.edges == [(0, 1, 1.8), (0, 2, 1.8)]
    assert tree.total_weight <= 2.0 * opt


def test_terminals_spanning_a_tree_return_it_whole():
    g = graph_from_edges(
        [(0, 0, 0), (1, 0, 0), (2, 0, 0), (1, 1, 0), (1, 2, 0)],
        [(0, 1, 1.0), (1, 2, 1.5), (1, 3, 2.0), (3, 4, 1.0)],
    )
    tree = build_steiner_tree(g, terms([0, 2, 4]))
    assert tree.nodes == [0, 1, 2, 3, 4]
    assert tree.total_weight == pytest.approx(5.5)


def test_pruning_removes_dangling_branches():
    # node 4 hangs off the 0-3 path; it must not survive
    g = graph_from_edges(
        [(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0), (1, 1, 0)],
        [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (1, 4, 0.1)],
    )
    tree = build_steiner_tree(g, terms([0, 3]))
    assert 4 not in tree.nodes


def test_terminal_validation():
    g = ladder_graph()
    with pytest.raises(EmptyTerminalSet):
        build_steiner_tree(g, terms([]))
    with pytest.raises(EmptyTerminalSet, match="not a node"):
        build_steiner_tree(g, terms([0, 99]))


def test_disconnected_terminals_name_the_pair():
    g = graph_from_edges(
        [(0, 0, 0), (1, 0, 0), (5, 0, 0), (6, 0, 0)],
        [(0, 1, 1.0), (2, 3, 1.0)],
    )
    with pytest.raises(DisconnectedTerminals) as err:
        build_steiner_tree(g, terms([0, 3]))
    assert "0" in str(err.value) and "3" in str(err.value)
    assert "different components" in str(err.value)


def test_duplicate_terminal_ids_collapse():
    g = ladder_graph()
    tree = build_steiner_tree(g, terms([3, 0, 3]))
    assert tree.total_weight == pytest.approx(3.0)


def test_random_instances_stay_within_double_optimum(rng):
    checked = 0
    for _ in range(40):
        n = rng.randint(4, 9)
        g = random_connected_graph(rng, n, rng.uniform(0.4, 0.8))
        t = rng.sample(range(n), rng.randint(2, min(4, n)))
        tree = build_steiner_tree(g, terms(t))
        assert_valid_steiner_tree(tree, g, t)
        opt, _leaves = steiner_exhaustive(g, t)
        assert tree.total_weight <= 2.0 * opt + 1e-9
        checked += 1
    assert checked == 40


def test_deterministic_across_repeat_builds(rng):
    for _ in range(10):
        n = rng.randint(5, 10)
        g = random_connected_graph(rng, n, 0.5)
        t = rng.sample(range(n), 3)
        first = build_steiner_tree(g, terms(t))
        second = build_steiner_tree(g, terms(t))
        assert first.nodes == second.nodes
        assert first.edges == second.edges
        assert first.total_weight == second.total_weight


def closure_mst_weight(g, terminal_ids):
    """Weight of a minimum spanning tree of the terminals' metric closure,
    one heap search per terminal; None when two terminals are disconnected."""
    dist = {t: dijkstra_tree_heap(g, [t])[0] for t in terminal_ids}
    pairs = [
        (a, b, dist[a][b]) for k, a in enumerate(terminal_ids) for b in terminal_ids[k + 1:]
    ]
    if any(d == math.inf for _a, _b, d in pairs):
        return None
    return kruskal_edges(terminal_ids, pairs).total_weight


def test_tree_weighs_no_more_than_the_metric_closure_mst(rng):
    graphs = [random_connected_graph(rng, rng.randint(4, 20), rng.uniform(0.15, 0.8))
              for _ in range(150)]
    graphs += [_tie_heavy_graph(rng, (0.1, 0.2, 0.3)) for _ in range(150)]
    # 1e-18 vanishes in the rounding of every distance from 0.1 up
    graphs += [_tie_heavy_graph(rng, (0.1, 0.2, 0.3, 1e-18)) for _ in range(150)]
    graphs += sub_ulp_graphs() * 10
    graphs += [graph_from_navmesh(grid_surface(n, n)) for n in (4, 8, 12) for _ in range(10)]
    spanned = disconnected = 0
    for g in graphs:
        n = len(g.nodes)
        t = sorted(rng.sample(range(n), rng.randint(1, min(n, 12))))
        bound = closure_mst_weight(g, t)
        if bound is None:
            dist = dijkstra_tree_heap(g, [t[0]])[0]
            with pytest.raises(DisconnectedTerminals) as err:
                build_steiner_tree(g, terms(t))
            assert err.value.pair == (t[0], next(b for b in t if dist[b] == math.inf))
            disconnected += 1
            continue
        tree = build_steiner_tree(g, terms(t))
        assert_valid_steiner_tree(tree, g, t)
        # the tree sums edge weights, the closure path lengths: a few ulps apart
        assert tree.total_weight <= bound * (1.0 + 1e-12)
        spanned += 1
    assert spanned > 300 and disconnected > 50


def test_maze_with_a_thousand_leaf_terminals_builds_in_two_seconds(time_limit):
    g = maze_graph(100, 100)
    leaves = terminals_from_metric(g, "leaves")
    assert len(leaves.node_ids) == 1006
    with time_limit(2.0):
        tree = build_steiner_tree(g, leaves)
    assert_valid_steiner_tree(tree, g, leaves.node_ids)
