import gc
import math
import random
import weakref

import numpy as np
import pytest

from navstruct import pipeline, trees
from navstruct.algorithms import betweenness_centrality
from navstruct.errors import PointOffMesh, ValidationError
from navstruct.fixtures import (
    boundary_walls,
    graph_from_edges,
    l_corridor,
    maze_graph,
    plus_hub,
    ramp_corridor,
    random_forest_graph,
    random_tree_graph,
    ring_surface,
    stacked_floors,
    straight_corridor,
    surface_from_squares,
)
from navstruct.graph import SOURCE_SAMPLE, GraphNode, SurfaceGraph, graph_from_navmesh
from navstruct.mesh import GEOM_EPS, WalkableSurface, build_walkable_surface
from navstruct.oracles import surface_los_numpy
from navstruct.pipeline import PipelineConfig, run_pipeline
from navstruct.steiner import SteinerTree, build_steiner_tree
from navstruct.terminals import TerminalSet, entry_exit_terminals, terminals_from_metric
from navstruct.trees import (
    RemovalRecord,
    SimplifyConfig,
    can_simplify,
    find_rooted_trees,
    normal_angle_deg,
    simplify_tree,
    surface_los,
    verify_removals,
    walkable_los,
)

Z = np.array([0.0, 0.0, 1.0])


def terms(ids):
    return TerminalSet(node_ids=list(ids))


def uniform_scores(n, value=1.0):
    return [value] * n


def path_graph(xs):
    pts = [(float(x), 0.0, 0.0) for x in xs]
    edges = [
        (k, k + 1, float(abs(xs[k + 1] - xs[k]))) for k in range(len(xs) - 1)
    ]
    return graph_from_edges(pts, edges)


def payload(pos, normal=Z, polygon=None, terminal=False):
    return GraphNode(
        position=np.asarray(pos, dtype=float),
        normal=np.asarray(normal, dtype=float),
        polygon=polygon,
        terminal=terminal,
        source=SOURCE_SAMPLE,
    )


def rooted_path(positions, terminal_ids=(), on_mesh_override=None):
    """Hand-rolled rooted chain 0 -> 1 -> ... -> n-1."""
    g = graph_from_edges(
        positions,
        [
            (k, k + 1, float(np.linalg.norm(np.subtract(positions[k + 1], positions[k]))))
            for k in range(len(positions) - 1)
        ],
    )
    tree = build_steiner_tree(g, terms([0, len(positions) - 1]))
    n = len(positions)
    scores = [1.0] + [0.0] * (n - 1)
    (rooted,) = find_rooted_trees(tree, g, scores)
    for t in terminal_ids:
        rooted.payloads[t].terminal = True
    if on_mesh_override:
        for v, flag in on_mesh_override.items():
            rooted.payloads[v].polygon = None if flag else -1
    return rooted


# --- rooting ----------------------------------------------------------------

def test_root_is_the_highest_scoring_node():
    g = path_graph([0, 1, 2, 3])
    tree = build_steiner_tree(g, terms([0, 3]))
    scores = [0.0, 0.0, 5.0, 0.0]
    (rooted,) = find_rooted_trees(tree, g, scores)
    assert rooted.root == 2
    assert rooted.depth == {2: 0, 1: 1, 3: 1, 0: 2}
    assert rooted.parent[2] is None
    assert rooted.parent[1] == 2 and rooted.parent[0] == 1


def test_root_tie_breaks_on_centroid_distance():
    # equal scores; node 2 (x=2) sits nearest the centroid x=1.75
    g = path_graph([0, 1, 2, 4])
    tree = build_steiner_tree(g, terms([0, 3]))
    (rooted,) = find_rooted_trees(tree, g, uniform_scores(4))
    assert rooted.root == 2


def test_root_tie_breaks_on_lowest_id_last():
    # scores and centroid distances both tie for nodes 1 and 2
    g = path_graph([0, 1, 2, 3])
    tree = build_steiner_tree(g, terms([0, 3]))
    (rooted,) = find_rooted_trees(tree, g, uniform_scores(4))
    assert rooted.root == 1


def test_root_explicit_centroid_override():
    # node 4 (x=8) lies outside the Steiner tree but pulls the graph centroid
    # to x=2.8, nearest node 3
    g = path_graph([0, 1, 2, 3, 8])
    tree = build_steiner_tree(g, terms([0, 3]))
    assert 4 not in tree.nodes
    (rooted,) = find_rooted_trees(tree, g, uniform_scores(5))
    assert rooted.root == 3


def test_corridor_root_falls_on_the_tie_broken_center(corridor):
    surface, blockers = corridor
    g = graph_from_navmesh(surface)
    g, terminal_set = entry_exit_terminals(g, surface, blockers, interval=1.0)
    tree = build_steiner_tree(g, terminal_set)
    scores = betweenness_centrality(g)
    (rooted,) = find_rooted_trees(tree, g, scores)
    # nodes 5 and 6 tie on score and centroid distance; the lower id roots
    assert rooted.root == 5


def test_children_ordered_ascending():
    g = graph_from_edges(
        [(0, 0, 0), (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)],
        [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0), (0, 4, 1.0)],
    )
    tree = build_steiner_tree(g, terms([1, 2, 3, 4]))
    scores = [9.0, 0, 0, 0, 0]
    (rooted,) = find_rooted_trees(tree, g, scores)
    assert rooted.children[0] == [1, 2, 3, 4]
    assert rooted.payloads[1].terminal and not rooted.payloads[0].terminal


def test_forest_partitions_multi_component_input():
    g = graph_from_edges(
        [(0, 0, 0), (1, 0, 0), (5, 0, 0), (6, 0, 0)],
        [(0, 1, 1.0), (2, 3, 1.0)],
    )
    two_part = SteinerTree(
        nodes=[0, 1, 2, 3],
        edges=[(0, 1, 1.0), (2, 3, 1.0)],
        terminals=terms([0, 1, 2, 3]),
        total_weight=2.0,
    )
    forest = find_rooted_trees(two_part, g, uniform_scores(4))
    assert len(forest) == 2
    covered = sorted(v for t in forest for v in t.node_ids())
    assert covered == [0, 1, 2, 3]


def _sparse_id_split():
    """Tree nodes 3, 7, 12 | 40, 41 of a 42-node graph on the x axis.  Node
    41 sits at x = -1, so the graph centroid is x = 19.5, as far from node
    41 as from node 40.  The graph's edges (0, 1) and (12, 40) are not tree
    edges."""
    xs = [float(v) for v in range(41)] + [-1.0]
    g = graph_from_edges([(x, 0.0, 0.0) for x in xs], [
        (0, 1, 1.0), (3, 12, 9.0), (7, 12, 5.0), (12, 40, 28.0), (40, 41, 41.0)])
    for v in (3, 7):
        g.nodes[v].terminal = True
    stree = SteinerTree(nodes=[3, 7, 12, 40, 41],
                        edges=[(3, 12, 9.0), (7, 12, 5.0), (40, 41, 41.0)],
                        terminals=terms([3, 40]), total_weight=55.0)
    return g, stree


def test_rooting_on_sparse_ids_across_two_components():
    g, stree = _sparse_id_split()
    # 12, 40 and 41 tie at the top; nodes 0 and 1 (dense ids of 3 and 7)
    # outscore them all but lie outside the tree
    scores = [0.0] * len(g)
    scores[0] = scores[1] = 9.0
    scores[3] = 1.0
    scores[12] = scores[40] = scores[41] = 2.0
    first, second = find_rooted_trees(stree, g, scores)
    # 12 lies 7.5 from the centroid, 40 and 41 20.5 each: 12 roots first,
    # then 40 wins the distance tie by its lower id
    assert (first.root, second.root) == (12, 40)
    assert list(first.children.items()) == [(12, [3, 7]), (3, []), (7, [])]
    assert list(second.children.items()) == [(40, [41]), (41, [])]
    # 3 (flagged, a terminal) and 12, 41 (neither) are shared; 7 (flagged,
    # not a terminal) and 40 (a terminal, not flagged) are copied
    payloads = first.payloads | second.payloads
    shared = {v for v, p in payloads.items() if p is g.nodes[v]}
    assert shared == {3, 12, 41}
    assert {v for v, p in payloads.items() if p.terminal} == {3, 40}
    assert all(payloads[v].position is g.nodes[v].position for v in (7, 40))
    assert stree.dense.edges == [(0, 2, 9.0), (1, 2, 5.0), (3, 4, 41.0)]


def test_rooting_refuses_an_edge_end_outside_the_tree():
    g, stree = _sparse_id_split()
    # 13 falls between tree ids 12 and 40, 42 past the last, 2 before the first
    for edge in ((13, 40, 1.0), (41, 42, 1.0), (2, 3, 1.0)):
        bad = SteinerTree(nodes=stree.nodes, edges=stree.edges + [edge],
                          terminals=stree.terminals, total_weight=0.0)
        with pytest.raises(ValidationError, match=rf"^Steiner tree edge \({edge[0]}, {edge[1]}\) "
                                                 "ends outside its nodes$"):
            find_rooted_trees(bad, g, uniform_scores(len(g)))
    unsorted = SteinerTree(nodes=[3, 12, 7, 40, 41], edges=stree.edges,
                           terminals=stree.terminals, total_weight=0.0)
    with pytest.raises(ValidationError, match="^Steiner tree nodes must ascend$"):
        find_rooted_trees(unsorted, g, uniform_scores(len(g)))


def _rooted_trees_by_full_key(tree, g, scores):
    """find_rooted_trees as it was before the root pick skipped distances:
    the key (-score, centroid distance, id) is computed for every node."""
    cen = g.centroid()
    term_set = set(tree.terminals.node_ids)
    adj = {v: [] for v in tree.nodes}
    for i, j, _w in tree.edges:
        adj[i].append(j)
        adj[j].append(i)
    unvisited = set(tree.nodes)
    forest = []
    while unvisited:
        root = min(unvisited, key=lambda v: (
            -scores[v], float(np.linalg.norm(g.nodes[v].position - cen)), v))
        children = {}
        stack = [root]
        unvisited.discard(root)
        while stack:
            v = stack.pop()
            kids = sorted(u for u in adj[v] if u in unvisited)
            children[v] = kids
            for u in reversed(kids):
                unvisited.discard(u)
                stack.append(u)
        forest.append((root, children, {v: v in term_set for v in children}))
    return forest


def test_root_pick_equals_the_full_key_pick_on_random_forests():
    rng = random.Random(20261019)
    # uniform, two-level and random scores, in turn
    draws = (lambda: 1.0, lambda: rng.choice((0.0, 2.5)), rng.random)
    for k in range(300):
        g = random_forest_graph(rng, [rng.randint(1, 12) for _ in range(rng.randint(1, 5))])
        if k % 2:  # lattice positions, so that centroid distances tie too
            for node in g.nodes:
                node.position = np.array([rng.randint(0, 3), rng.randint(0, 3), 0.0])
        n = len(g.nodes)
        scores = [draws[k % 3]() for _ in range(n)]
        stree = SteinerTree(nodes=list(range(n)), edges=list(g.edges),
                            terminals=terms(rng.sample(range(n), rng.randint(1, n))),
                            total_weight=0.0)
        if k % 4 >= 2:
            # one node outside the forest moves the graph centroid to a
            # random point
            centroid = np.array([rng.uniform(0, 3), 1.0, 0.0])
            far = (n + 1) * centroid - g.positions().sum(axis=0)
            g = SurfaceGraph(g.nodes + [payload(far)], g.edges)
        got = [(t.root, t.children, {v: p.terminal for v, p in t.payloads.items()})
               for t in find_rooted_trees(stree, g, scores)]
        assert got == _rooted_trees_by_full_key(stree, g, scores)


def test_rooting_rejects_short_score_vector():
    g = path_graph([0, 1, 2])
    tree = build_steiner_tree(g, terms([0, 2]))
    with pytest.raises(ValidationError, match="scores do not cover"):
        find_rooted_trees(tree, g, uniform_scores(2))


def test_rooting_rejects_nan_scores():
    g = maze_graph(6, 6)
    tree = build_steiner_tree(g, terminals_from_metric(g, "leaves"))
    scores = uniform_scores(len(g))
    one_nan = list(scores)
    one_nan[min(tree.nodes)] = math.nan
    for bad in ([math.nan] * len(g), one_nan):
        with pytest.raises(ValidationError, match="^centrality scores must not be NaN$"):
            find_rooted_trees(tree, g, bad)
    assert find_rooted_trees(tree, g, scores)


def test_rooting_shares_the_graph_nodes_whose_terminal_flag_holds():
    g = maze_graph(8, 8, seed=5)
    # flags the graph already carries: two that stay terminals, two that drop
    for v in (3, 10, 20, 40):
        g.nodes[v].terminal = True
    stree = build_steiner_tree(g, terms([3, 10, 27, 50, 63]))
    before = list(g.nodes)
    flags = [node.terminal for node in g.nodes]
    forest = find_rooted_trees(stree, g, betweenness_centrality(g))
    assert all(a is b for a, b in zip(g.nodes, before)) and len(g.nodes) == len(before)
    assert [node.terminal for node in g.nodes] == flags
    term_set = set(stree.terminals.node_ids)
    copies = 0
    for tree in forest:
        for v, p in tree.payloads.items():
            assert p.terminal is (v in term_set)
            flips = g.nodes[v].terminal is not (v in term_set)
            assert (p is not g.nodes[v]) == flips
            copies += flips
            if flips:
                assert (p.position is g.nodes[v].position, p.polygon, p.source) == (
                    True, g.nodes[v].polygon, g.nodes[v].source)
    # 27, 50 and 63 become terminals; 3 and 10 stay; 20 and 40 drop if the tree holds them
    assert copies == 3 + sum(v in stree.nodes for v in (20, 40))


def test_rooting_computes_the_centroid_only_on_a_tie(monkeypatch):
    calls = []
    original = SurfaceGraph.centroid

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(SurfaceGraph, "centroid", counting)
    g = maze_graph(12, 12)
    stree = build_steiner_tree(g, terminals_from_metric(g, "leaves"))
    scores = pipeline._root_scores(g, stree, PipelineConfig(terminals="leaves"))
    (rooted,) = find_rooted_trees(stree, g, scores)
    assert calls == []
    assert rooted.root == max(stree.nodes, key=lambda v: (scores[v], -v))
    # a tie in each of two components: one centroid serves both
    g = graph_from_edges([(0, 0, 0), (1, 0, 0), (5, 0, 0), (6, 0, 0), (9, 0, 0)],
                         [(0, 1, 1.0), (2, 3, 1.0), (3, 4, 3.0)])
    split = SteinerTree(nodes=[0, 1, 2, 3, 4], edges=list(g.edges),
                        terminals=terms([0, 1, 2, 4]), total_weight=5.0)
    # the centroid sits at x = 4.2: node 2 (x = 5) roots first, then node 1 (x = 1)
    assert [t.root for t in find_rooted_trees(split, g, uniform_scores(5))] == [2, 1]
    assert calls == [g]


def test_rooted_tree_helpers():
    rooted = rooted_path([(0, 0, 0), (1, 0, 0), (2, 0, 0)])
    assert rooted.node_ids() == [0, 1, 2]
    assert rooted.edge_list() == [(0, 1), (1, 2)]
    assert [v for v in rooted.node_ids() if not rooted.children[v]] == [2]
    assert rooted.size() == 3
    assert not rooted.children[2] and rooted.children[0]
    copy = rooted.clone()
    copy.children[0].clear()
    assert rooted.children[0] == [1]


# --- surface line of sight --------------------------------------------------

def test_los_straight_corridor(corridor):
    surface, _blockers = corridor
    assert surface_los(surface, (0.5, 0.5, 0.0), (11.5, 0.5, 0.0))
    assert surface_los(surface, (11.5, 0.5, 0.0), (0.5, 0.5, 0.0))
    assert surface_los(surface, (0.5, 0.5, 0.0), (0.5, 0.5, 0.0))  # same point
    assert surface_los(surface, (0.2, 0.2, 0.0), (0.8, 0.8, 0.0))  # same polygon


def test_los_blocked_at_the_l_corner():
    surface = l_corridor()
    assert surface_los(surface, (0.5, 0.5, 0.0), (2.5, 0.5, 0.0))
    assert surface_los(surface, (2.5, 0.5, 0.0), (2.5, 1.5, 0.0))
    # center of the first square to center of the top square grazes the
    # reflex corner at (2, 1); vertex contact does not count as a crossing
    assert not surface_los(surface, (1.5, 0.5, 0.0), (2.5, 1.5, 0.0))


def test_los_stops_at_the_mesh_boundary(corridor):
    surface, _blockers = corridor
    assert not surface_los(surface, (0.5, 0.5, 0.0), (13.0, 0.5, 0.0))
    assert not surface_los(surface, (0.5, 0.5, 0.0), (0.5, -2.0, 0.0))


def test_los_across_the_ring_hole():
    surface = ring_surface()
    assert surface_los(surface, (0.5, 0.5, 0.0), (2.5, 0.5, 0.0))  # along one side
    assert not surface_los(surface, (0.5, 1.5, 0.0), (2.5, 1.5, 0.0))  # through the hole
    assert not surface_los(surface, (0.5, 0.5, 0.0), (2.5, 2.5, 0.0))  # corner to corner


def test_los_vertex_touch_is_not_a_crossing():
    surface = surface_from_squares([(0.0, 0.0), (1.0, 1.0)])
    assert not surface_los(surface, (0.5, 0.5, 0.0), (1.5, 1.5, 0.0))


def test_los_height_tolerance_on_the_ramp():
    surface = ramp_corridor(30.0)
    h = np.tan(np.radians(30.0))
    a = (0.5, 0.5, 0.0)
    c = (3.5, 0.5, float(h))
    # the straight chord sags about 0.29 below the ramp crest
    assert surface_los(surface, a, c, SimplifyConfig(los_height_tolerance=0.5))
    assert not surface_los(surface, a, c, SimplifyConfig(los_height_tolerance=0.2))


def test_los_raises_for_off_mesh_start(corridor):
    surface, _blockers = corridor
    with pytest.raises(PointOffMesh):
        surface_los(surface, (-3.0, 0.5, 0.0), (0.5, 0.5, 0.0))


# --- the walk in Python floats against the walk on numpy vectors ------------

def _moved(surface, pid, p, off, ulps):
    """`p` moved along polygon `pid`'s normal to `off` from its plane, as
    np.dot measures it, then `ulps` ulps of p's coordinates further."""
    n = surface.polygon_normals[pid]
    now = float(np.dot(n, p)) - float(surface.polygon_offsets[pid])
    return p + (off - now + ulps * float(np.spacing(np.abs(p).max()))) * n


def _random_points(surface, pid, rng, count):
    """`count` random points inside polygon `pid`."""
    corners = surface.vertices[surface.polygons[pid]]
    points = []
    for _ in range(count):
        weights = np.array([rng.random() + 1e-3 for _ in corners])
        points.append(weights @ corners / weights.sum())
    return points


def _tilted_corridor(n, angle_deg):
    """straight_corridor(n)'s squares turned `angle_deg` about the x axis."""
    flat = straight_corridor(n)[0]
    c, s = math.cos(math.radians(angle_deg)), math.sin(math.radians(angle_deg))
    verts = [(x, y * c, y * s) for x, y, _ in flat.vertices.tolist()]
    return build_walkable_surface(verts, flat.polygons)


class _CountCalls:
    """Counts the calls of `owner.name` made while `run` runs a function."""

    def __init__(self, monkeypatch, owner, name):
        self.calls = 0
        self.counting = False
        real = getattr(owner, name)

        def call(*args, **kwargs):
            self.calls += self.counting
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, call)

    def run(self, fn, *args, **kwargs):
        self.counting = True
        try:
            return fn(*args, **kwargs)
        finally:
            self.counting = False


@pytest.mark.parametrize("angle", [30.0, 60.0])
def test_plane_test_asks_np_dot_only_next_to_the_tolerance(monkeypatch, angle):
    # targets over and under the ramp polygon, at the height tolerance give
    # or take 1 to 4 ulps, or at half of it; walks from the ramp's centre
    surface = ramp_corridor(angle)
    rng = random.Random(int(angle))
    points = _random_points(surface, 1, rng, 300)
    sides = [rng.choice((-1.0, 1.0)) for _ in points]
    near = [_moved(surface, 1, p, side * 0.5, rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)))
            for p, side in zip(points, sides)]
    half = [_moved(surface, 1, p, side * 0.25, 0) for p, side in zip(points, sides)]
    dots = _CountCalls(monkeypatch, np, "dot")
    a = surface.polygon_centers[1]
    answers = {}
    for targets, asked in ((near, True), (half, False)):
        dots.calls = 0
        answers[asked] = []
        for c in targets:
            got = dots.run(surface_los, surface, a, c, funnel=trees.LosFunnel(start=1))
            assert got == surface_los_numpy(surface, a, c, start=1)
            answers[asked].append(got)
        assert (dots.calls > 0) == asked
    assert set(answers[True]) == {True, False}
    assert True in answers[False]


def _resume_as_numpy(funnel, surface, a, c, tol):
    """Whether the offset test on numpy vectors lets `funnel` resume the
    walk a -> c: both ends within tol / 2 of the start polygon's plane, by
    np.dot."""
    n, d = surface.polygon_plane(funnel.start)
    a, c = np.asarray(a), np.asarray(c)
    return max(abs(float(np.dot(n, p)) - d) for p in (a, a + (c - a))) <= 0.5 * tol


def test_resume_offset_test_asks_np_dot_only_next_to_half_the_tolerance(monkeypatch):
    # anchors half the tolerance off a tilted corridor, give or take 1 to 4
    # ulps, with funnels armed by a walk down the corridor; the next walk
    # goes further along it, through every recorded portal
    surface = _tilted_corridor(12, 30.0)
    rng = random.Random(7)
    dots = _CountCalls(monkeypatch, np, "dot")
    skips = []
    offsets = [(0.25, ulps) for ulps in (-4, -3, -2, -1, 1, 2, 3, 4)] + [(0.1, 0)]
    for off, ulps in offsets:
        dots.calls = 0
        for _ in range(60):
            p = surface.polygon_centers[0] + (rng.uniform(-0.3, 0.3), 0.0, 0.0)
            a = _moved(surface, 0, p, rng.choice((-off, off)), ulps)
            c1, c2 = a + (6.0, 0.0, 0.0), a + (10.0, 0.0, 0.0)
            funnel = trees.LosFunnel(start=0)
            assert surface_los(surface, a, c1, funnel=funnel)
            # the squares' planes round apart from the start's after a few
            # steps, and the funnel records none beyond
            steps = len(funnel.steps)
            assert steps >= 2
            seg = (c2 - a).tolist()
            skip = dots.run(funnel.resume, surface, a.tolist(), seg, seg[:2], 0.5)
            want = _resume_as_numpy(funnel, surface, a, c2, 0.5)
            assert skip == (steps - 1 if want else 0)
            skips.append(want)
            assert surface_los(surface, a, c2, funnel=funnel) == surface_los_numpy(
                surface, a, c2, start=0)
        assert (dots.calls > 0) == (off == 0.25)
    assert set(skips) == {True, False}


def _two_squares(turn_deg=0.0):
    """Two 8-unit squares sharing the edge from (-4, 0, 0) to (4, 0, 0),
    polygon 0 below y = 0, the pair turned `turn_deg` about the x axis."""
    c, s = math.cos(math.radians(turn_deg)), math.sin(math.radians(turn_deg))
    corners = ((-4, -8), (4, -8), (4, 0), (-4, 0), (4, 8), (-4, 8))
    return build_walkable_surface([(x, y * c, y * s) for x, y in corners],
                                  [[0, 1, 2, 3], [3, 2, 4, 5]])


# (scale of GEOM_EPS, whether the norm guard asks np.linalg.norm, whether
# the segment is shorter than GEOM_EPS)
_LENGTHS = [
    (1.0 - 1e-8, False, True),
    (1.0 - 1e-12, True, True),
    (1.0, True, False),  # norm is exactly GEOM_EPS
    (1.0 + 1e-12, True, False),
    (1.0 + 1e-8, False, False),
]


@pytest.mark.parametrize("scale, asked, short", _LENGTHS)
def test_a_segment_shorter_than_geom_eps_sees_and_a_longer_one_walks(
        monkeypatch, scale, asked, short):
    # from the middle of a boundary edge, one length out of the square: a
    # point sees itself, and the walk leaves through the boundary
    surface = build_walkable_surface([(-4, 0, 0), (4, 0, 0), (4, 8, 0), (-4, 8, 0)],
                                     [[0, 1, 2, 3]])
    norms = _CountCalls(monkeypatch, np.linalg, "norm")
    a, c = np.zeros(3), np.array([0.0, -GEOM_EPS * scale, 0.0])
    assert norms.run(surface_los, surface, a, c) == short
    assert surface_los_numpy(surface, a, c) == short
    assert (norms.calls > 0) == asked


@pytest.mark.parametrize("turn", [0.0, 60.0])
@pytest.mark.parametrize("scale, asked, short", _LENGTHS)
def test_a_projection_shorter_than_geom_eps_is_a_point_test(monkeypatch, turn, scale, asked, short):
    # from the middle of the shared edge, one length into polygon 1 and
    # raised 0.1 along the dropped axis: the point test finds it outside
    # polygon 0, where the walk crosses into polygon 1
    surface = _two_squares(turn)
    keep = surface.polygon_axes[0]
    c = np.zeros(3)
    c[keep] = (0.0, GEOM_EPS * scale)
    c[3 - keep.sum()] = 0.1
    norms = _CountCalls(monkeypatch, np.linalg, "norm")
    a = np.zeros(3)
    assert norms.run(surface_los, surface, a, c) == (not short)
    assert surface_los_numpy(surface, a, c) == (not short)
    # the full length is 0.1 or more: only the projected one may ask
    assert norms.calls == int(asked)


def test_a_walked_surface_is_freed_by_reference_counting():
    # the walk's per-polygon rows hold floats and ints only: no cycle, so
    # the surface goes with its last reference even with the collector off
    gc.collect()
    gc.disable()
    try:
        surface = straight_corridor(20)[0]
        nodes = graph_from_navmesh(surface).nodes
        los = walkable_los(surface)
        assert los(nodes[0], nodes[10]) and los(nodes[0], nodes[15])
        assert surface_los(surface, nodes[3].position, nodes[12].position)
        assert surface.walk_rows
        ref = weakref.ref(surface)
        del surface, los
        assert ref() is None
    finally:
        gc.enable()


# --- collapse predicate -----------------------------------------------------

def test_predicate_rejects_terminal_middle(corridor):
    surface, _blockers = corridor
    a = payload((0.5, 0.5, 0))
    b = payload((1.5, 0.5, 0), terminal=True)
    c = payload((2.5, 0.5, 0))
    assert not can_simplify(a, b, c, walkable_los(surface))
    b.terminal = False
    assert can_simplify(a, b, c, walkable_los(surface))


def test_predicate_rejects_off_mesh_leaf_grandchild(corridor):
    surface, _blockers = corridor
    a = payload((0.5, 0.5, 0))
    b = payload((1.5, 0.5, 0))
    c = payload((2.5, 0.5, 0), polygon=-1)
    assert not can_simplify(a, b, c, walkable_los(surface), c_is_leaf=True)
    # an off-mesh interior node is no obstacle
    assert can_simplify(a, b, c, walkable_los(surface), c_is_leaf=False)


def test_predicate_rejects_normal_disagreement():
    surface = ramp_corridor(30.0)
    h = float(np.tan(np.radians(30.0)))
    ramp_normal = np.array([-np.sin(np.radians(30.0)), 0.0, np.cos(np.radians(30.0))])
    a = payload((0.5, 0.5, 0.0))
    b = payload((1.5, 0.5, h / 2.0), normal=ramp_normal)
    c = payload((2.5, 0.5, h))
    assert normal_angle_deg(a.normal, b.normal) == pytest.approx(30.0)
    assert not can_simplify(a, b, c, walkable_los(surface))  # 30 degrees > default 15
    loose = SimplifyConfig(normal_tolerance_deg=45.0)
    assert can_simplify(a, b, c, walkable_los(surface), loose)


def test_predicate_uses_injected_los():
    a = payload((0.0, 0.0, 0))
    b = payload((1.0, 0.0, 0))
    c = payload((2.0, 0.0, 0))
    seen = []

    def los(p, q):
        seen.append((tuple(p.position), tuple(q.position)))
        return True

    assert can_simplify(a, b, c, los)
    assert seen == [((0.0, 0.0, 0.0), (2.0, 0.0, 0.0))]
    assert not can_simplify(a, b, c, lambda p, q: False)


def test_predicate_off_mesh_parent_has_no_los(corridor):
    surface, _blockers = corridor
    a = payload((-5.0, 0.5, 0))  # off the walkable surface
    b = payload((0.5, 0.5, 0))
    c = payload((1.5, 0.5, 0))
    assert not can_simplify(a, b, c, walkable_los(surface))


# upper polygons 5, 6 | gap | 7, 8 lie 0.3 above the unbroken lower strip
# 0-4, within the height tolerance: located afresh, an upper centre lands on
# the lower floor's polygon and sees across the gap

def test_stacked_floors_walk_from_each_node_s_own_polygon():
    surface = stacked_floors()
    nodes = graph_from_navmesh(surface).nodes
    los = walkable_los(surface)
    assert not los(nodes[5], nodes[8]) and not los(nodes[8], nodes[5])
    assert los(nodes[5], nodes[6]) and los(nodes[6], nodes[5])
    assert los(nodes[0], nodes[4]) and los(nodes[4], nodes[0])


def test_stacked_floors_predicate_sees_no_further_than_the_upper_floor():
    surface = stacked_floors()
    nodes = graph_from_navmesh(surface).nodes
    mid = nodes[2]
    assert not can_simplify(nodes[5], mid, nodes[8], walkable_los(surface))
    assert not can_simplify(nodes[8], mid, nodes[5], walkable_los(surface))
    assert can_simplify(nodes[5], mid, nodes[6], walkable_los(surface))
    assert can_simplify(nodes[6], mid, nodes[5], walkable_los(surface))


# --- simplification ---------------------------------------------------------

def test_simplify_collapses_a_clear_chain():
    rooted = rooted_path(
        [(float(k), 0.0, 0.0) for k in range(6)], terminal_ids=(0, 5)
    )
    out = simplify_tree(rooted, lambda p, q: True)
    assert out.node_ids() == [0, 5]
    assert out.edge_list() == [(0, 5)]
    assert out.depth == {0: 0, 5: 1}
    assert len(out.removals) == 4
    assert rooted.size() == 6  # input untouched
    assert verify_removals(rooted, out, lambda p, q: True)


def test_simplify_respects_blocked_visibility():
    rooted = rooted_path(
        [(float(k), 0.0, 0.0) for k in range(6)], terminal_ids=(0, 5)
    )
    out = simplify_tree(rooted, lambda p, q: False)
    assert out.node_ids() == [0, 1, 2, 3, 4, 5]
    assert out.removals == []


def test_simplify_distance_limited_visibility_thins_every_other_node():
    rooted = rooted_path(
        [(float(k), 0.0, 0.0) for k in range(7)], terminal_ids=(0, 6)
    )
    los = lambda p, q: float(np.linalg.norm(q.position - p.position)) <= 2.5  # noqa: E731
    out = simplify_tree(rooted, los)
    assert out.node_ids() == [0, 2, 4, 6]
    assert out.edge_list() == [(0, 2), (2, 4), (4, 6)]
    assert verify_removals(rooted, out, los)
    again = simplify_tree(out, los)
    assert again.removals == []  # fixed point


def test_simplify_keeps_terminals_and_leaves():
    rooted = rooted_path(
        [(float(k), 0.0, 0.0) for k in range(6)], terminal_ids=(0, 3, 5)
    )
    out = simplify_tree(rooted, lambda p, q: True)
    assert out.node_ids() == [0, 3, 5]
    assert {v for v in out.node_ids() if not out.children[v]} == {5}
    assert all(out.payloads[v].terminal for v in out.node_ids())


def test_simplify_retains_interior_next_to_off_mesh_leaf():
    rooted = rooted_path(
        [(float(k), 0.0, 0.0) for k in range(4)],
        terminal_ids=(0, 3),
        on_mesh_override={3: False},
    )
    out = simplify_tree(rooted, lambda p, q: True)
    # node 2 must survive: its only grandchild view is the off-mesh leaf 3
    assert out.node_ids() == [0, 2, 3]
    assert out.edge_list() == [(0, 2), (2, 3)]


def test_simplify_corridor_to_three_nodes(corridor):
    surface, blockers = corridor
    g = graph_from_navmesh(surface)
    g, terminal_set = entry_exit_terminals(g, surface, blockers, interval=1.0)
    tree = build_steiner_tree(g, terminal_set)
    scores = betweenness_centrality(g)
    (rooted,) = find_rooted_trees(tree, g, scores)
    out = simplify_tree(rooted, walkable_los(surface))
    assert out.node_ids() == [5, 12, 13]
    assert out.edge_list() == [(5, 12), (5, 13)]
    assert len(out.removals) == 11
    assert verify_removals(rooted, out, walkable_los(surface))
    assert simplify_tree(out, walkable_los(surface)).removals == []


def test_simplify_stops_at_the_l_corner():
    surface = l_corridor()
    g = graph_from_navmesh(surface)
    terminal_set = terminals_from_metric(g, "leaves")
    tree = build_steiner_tree(g, terminal_set)
    (rooted,) = find_rooted_trees(tree, g, betweenness_centrality(g))
    assert rooted.root == 1
    out = simplify_tree(rooted, walkable_los(surface))
    # the reflex corner blocks sight from node 1 to node 3, so node 2 stays
    assert out.node_ids() == [0, 1, 2, 3]
    assert out.removals == []


def test_simplify_multi_pass_reaches_a_stable_point():
    # first pass cannot remove node 1 (0 cannot see 2) but removes node 2;
    # afterwards 0-1-3 opens up and a later pass must remove node 1 too
    pos = {0: 0.0, 1: 4.0, 2: 5.0, 3: 6.0}
    los = lambda p, q: abs(float(q.position[0] - p.position[0])) != 5.0  # noqa: E731
    rooted = rooted_path(
        [(pos[k], 0.0, 0.0) for k in range(4)], terminal_ids=(0, 3)
    )
    out = simplify_tree(rooted, los)
    assert out.node_ids() == [0, 3]
    assert [(r.parent, r.removed) for r in out.removals] == [(1, 2), (0, 1)]
    assert verify_removals(rooted, out, los)


# --- the per-anchor funnel ------------------------------------------------------

def _plain_los(surface):
    """The plain `surface_los` walk from each anchor node's polygon as a
    visibility test: a fresh funnel per query records steps but never
    resumes past them."""
    def los(a, c):
        try:
            return surface_los(surface, a.position, c.position,
                               funnel=trees.LosFunnel(start=a.polygon))
        except PointOffMesh:
            return False
    return los


def _level_like():
    """A 14x14 level with 9 pillar holes and 5 doorways in its outer wall."""
    pillars = {(x, y) for x in range(2, 14, 4) for y in range(2, 14, 4)}
    surface = surface_from_squares(
        [(float(x), float(y)) for y in range(14) for x in range(14) if (x, y) not in pillars]
    )
    doors = [(0.0, 7.5, 0.0), (14.0, 3.5, 0.0), (7.5, 0.0, 0.0), (4.5, 14.0, 0.0),
             (11.5, 14.0, 0.0)]
    return surface, boundary_walls(surface, doors)


@pytest.mark.parametrize("fixture", ["corridor", "hub", "level", "ramp30", "ramp80"])
def test_funnel_simplify_equals_the_plain_walk(request, fixture):
    if fixture.startswith("ramp"):
        surface = ramp_corridor(float(fixture[4:]))
        g = graph_from_navmesh(surface)
        term_set = terminals_from_metric(g, "leaves")
    else:
        level = fixture == "level"
        surface, blockers = _level_like() if level else request.getfixturevalue(fixture)
        g, term_set = entry_exit_terminals(graph_from_navmesh(surface), surface, blockers)
    stree = build_steiner_tree(g, term_set)
    for tree in find_rooted_trees(stree, g, betweenness_centrality(g)):
        got = simplify_tree(tree, walkable_los(surface))
        want = simplify_tree(tree, _plain_los(surface))
        assert got.root == want.root
        assert got.children == want.children
        assert got.removals == want.removals
        assert verify_removals(tree, got, _plain_los(surface))


def test_funnel_records_clean_steps_and_resumes_past_them(monkeypatch):
    surface = surface_from_squares([(float(i), 0.0) for i in range(10)])
    clips = []
    real_clip = WalkableSurface.clip_line
    monkeypatch.setattr(WalkableSurface, "clip_line",
                        lambda self, pid, *args: clips.append(pid) or real_clip(self, pid, *args))
    funnel = trees.LosFunnel()
    a = (0.5, 0.5, 0.0)
    assert surface_los(surface, a, (4.5, 0.5, 0.0), funnel=funnel)
    assert funnel.start == 0
    assert [s.polygon for s in funnel.steps] == [0, 1, 2, 3]
    clips.clear()
    # resumes in polygon 3, the last recorded step's: 4 clips, not 7
    assert surface_los(surface, a, (6.5, 0.5, 0.0), funnel=funnel)
    assert clips == [3, 4, 5, 6]
    assert [s.polygon for s in funnel.steps] == [0, 1, 2, 3, 4, 5]
    # short of the last portal: the walk starts over, and its trail is kept
    clips.clear()
    assert surface_los(surface, a, (2.5, 0.5, 0.0), funnel=funnel)
    assert clips == [0, 1, 2]
    assert [s.polygon for s in funnel.steps] == [0, 1]
    # a walk that fails leaves the funnel as it was
    assert not surface_los(surface, a, (4.5, 2.5, 0.0), funnel=funnel)
    assert [s.polygon for s in funnel.steps] == [0, 1]


def test_funnel_records_no_step_that_left_through_a_corner():
    # the walk from polygon 0 to polygon 2 leaves polygon 0 through the
    # corner (1, 0): two exit edges, the boundary edge first, so the step is
    # not recorded; the next walk leaves through that boundary edge
    verts = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0), (1, -1, 0), (3, -1, 0), (3, 1, 0),
             (1, -2, 0), (3, -2, 0)]
    surface = build_walkable_surface(verts, [[0, 1, 2, 3], [4, 5, 6, 2, 1], [7, 8, 5, 4]])
    a = (0.5, 0.5, 0.0)
    funnel = trees.LosFunnel()
    assert surface_los(surface, a, (2.25, -1.25, 0.0), funnel=funnel)
    assert funnel.steps == []
    c = (0.5 + 2.0 / math.tan(math.radians(60.0)), -1.5, 0.0)
    assert not surface_los(surface, a, c)
    assert not surface_los(surface, a, c, funnel=funnel)


def test_funnel_stops_at_a_change_of_plane_and_remembers_an_off_mesh_anchor():
    surface = ramp_corridor(10.0)
    funnel = trees.LosFunnel()
    assert surface_los(surface, (0.5, 0.5, 0.0), surface.polygon_centers[3], funnel=funnel)
    assert [s.polygon for s in funnel.steps] == [0]  # polygon 1 is the ramp
    off = trees.LosFunnel()
    for _ in range(2):
        with pytest.raises(PointOffMesh):
            surface_los(surface, (-3.0, 0.5, 0.0), (0.5, 0.5, 0.0), funnel=off)
        assert off.start == -1


def _count_walk_calls(monkeypatch):
    """Count the run's surface_los, clip_line and locate_point calls."""
    counts = {"surface_los": 0, "clip_line": 0, "locate_point": 0}
    for owner, name in ((trees, "surface_los"), (WalkableSurface, "clip_line"),
                        (WalkableSurface, "locate_point")):
        def call(*args, _real=getattr(owner, name), _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, name, call)
    return counts


def test_corridor200_walks_pin_their_clip_count(monkeypatch):
    surface, blockers = straight_corridor(200)
    counts = _count_walk_calls(monkeypatch)
    result = run_pipeline(
        PipelineConfig(terminals="entry-exit"), surface=surface, blockers=blockers
    )
    (tree,) = result.forest
    # every walk starts from the root's own polygon: only the terminals stage
    # locates, its 4 points, and the clips count those locates' containment
    # tests (205 locates and 11,004 clips without the funnel and the stored
    # polygon, one locate per walk)
    assert counts == {"surface_los": 201, "clip_line": 604, "locate_point": 4}
    assert len(tree.removals) == 199


@pytest.mark.parametrize("make", [lambda: straight_corridor(200), plus_hub])
def test_simplify_locates_no_anchor(monkeypatch, make):
    surface, blockers = make()
    g, term_set = entry_exit_terminals(graph_from_navmesh(surface), surface, blockers)
    forest = find_rooted_trees(build_steiner_tree(g, term_set), g, betweenness_centrality(g))
    counts = _count_walk_calls(monkeypatch)
    removed = sum(len(simplify_tree(t, walkable_los(surface)).removals) for t in forest)
    # every anchor is a polygon centre or a placed terminal: its polygon is known
    assert counts["locate_point"] == 0
    assert counts["surface_los"] > 0 and removed > 0


def test_corridor800_clip_count_is_linear(monkeypatch):
    n = 800
    surface, blockers = straight_corridor(n)
    counts = _count_walk_calls(monkeypatch)
    run_pipeline(PipelineConfig(terminals="entry-exit"), surface=surface, blockers=blockers)
    assert counts["surface_los"] == n + 1
    assert counts["clip_line"] <= 10 * n  # 164,004 without the funnel


# --- one decision per (A, B, C) triple ----------------------------------------

def _record_decisions(monkeypatch):
    """Route the pipeline's simplify_tree through a recorder: one list per
    run of the (A, B, C) node ids it asks can_simplify about."""
    runs = []
    real_simplify, real_predicate = pipeline.simplify_tree, trees.can_simplify

    def simplify(tree, *args, **kwargs):
        ids = {id(p): v for v, p in tree.payloads.items()}
        asked = []

        def predicate(a, b, c, *pargs, **pkwargs):
            asked.append((ids[id(a)], ids[id(b)], ids[id(c)]))
            return real_predicate(a, b, c, *pargs, **pkwargs)

        monkeypatch.setattr(trees, "can_simplify", predicate)
        runs.append(asked)
        return real_simplify(tree, *args, **kwargs)

    monkeypatch.setattr(pipeline, "simplify_tree", simplify)
    return runs


def test_maze_run_asks_each_triple_once_and_pins_the_count(monkeypatch, maze_walls):
    g, walls = maze_walls(12, 12, seed=0)
    runs = _record_decisions(monkeypatch)
    result = run_pipeline(PipelineConfig(terminals="leaves"), graph=g, blockers=walls)
    assert len(runs) == len(result.forest) == 1
    for asked in runs:
        assert len(asked) == len(set(asked))
    # 217 calls before the per-run decision table, 51 removals both ways
    assert sum(map(len, runs)) == 157
    assert sum(len(t.removals) for t in result.forest) == 51


@pytest.mark.parametrize("fixture", ["corridor", "hub"])
def test_surface_runs_ask_each_triple_once(monkeypatch, request, fixture):
    surface, blockers = request.getfixturevalue(fixture)
    runs = _record_decisions(monkeypatch)
    result = run_pipeline(
        PipelineConfig(terminals="entry-exit", interval=1.0), surface=surface, blockers=blockers
    )
    assert len(runs) == len(result.forest)
    assert sum(len(t.removals) for t in result.forest) > 0
    for asked in runs:
        assert asked and len(asked) == len(set(asked))


def _simplify_asking_every_time(tree, los):
    """simplify_tree as it was before the decision table: each pass asks
    can_simplify again for every triple it scans."""
    out = tree.clone()
    removals = []
    while _pass_asking_every_time(out, los, SimplifyConfig(), removals):
        pass
    out.removals = removals
    return out


def _pass_asking_every_time(t, los, cfg, removals):
    any_removed = False
    stack = [t.root]
    while stack:
        a = stack.pop()
        changed = True
        while changed:
            changed = False
            for b in list(t.children[a]):
                b_kids = t.children[b]
                if not b_kids:
                    continue
                if all(
                    trees.can_simplify(
                        t.payloads[a], t.payloads[b], t.payloads[c],
                        los, cfg, c_is_leaf=not t.children[c],
                    )
                    for c in b_kids
                ):
                    kids = list(b_kids)
                    t.children[a] = sorted(
                        [x for x in t.children[a] if x != b] + kids
                    )
                    del t.children[b]
                    del t.payloads[b]
                    removals.append(
                        RemovalRecord(parent=a, removed=b, children=tuple(kids))
                    )
                    any_removed = True
                    changed = True
                    break
        for child in reversed(t.children[a]):
            stack.append(child)
    return any_removed


def _hashed_los(salt: int, p_clear: float):
    """A deterministic, random-looking visibility test of the two nodes'
    positions."""
    def los(a, c):
        key = hash((salt, *a.position.tolist(), *c.position.tolist()))
        return random.Random(key).random() < p_clear
    return los


def _random_rooted_trees(rng, count):
    """Rooted trees of random and maze graphs, with some tilted normals,
    off-mesh nodes and terminal flags drawn at random."""
    out = []
    for k in range(count):
        if k % 5 == 4:
            g = maze_graph(rng.randint(2, 9), rng.randint(2, 9), seed=k)
        else:
            g = random_tree_graph(rng, rng.randint(2, 40))
        stree = build_steiner_tree(g, terminals_from_metric(g, "leaves"))
        scores = [rng.random() for _ in g.nodes]
        for t in find_rooted_trees(stree, g, scores):
            for p in t.payloads.values():
                if rng.random() < 0.1:
                    p.normal = np.array([0.0, math.sin(0.5), math.cos(0.5)])
                p.polygon = None if rng.random() < 0.9 else -1
                p.terminal = p.terminal or rng.random() < 0.1
            out.append(t)
    return out


def test_decision_table_keeps_every_decision_of_the_asking_pass():
    rng = random.Random(20261019)
    forest = _random_rooted_trees(rng, 240)
    assert len(forest) >= 200
    removed = calls_with = calls_without = 0
    for k, tree in enumerate(forest):
        los = _hashed_los(k, rng.choice((0.3, 0.7, 0.95)))
        asked = []

        def counting(*args, **kwargs):
            asked.append(1)
            return can_simplify(*args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(trees, "can_simplify", counting)
            want = _simplify_asking_every_time(tree, los)
            calls_without += len(asked)
            asked.clear()
            got = simplify_tree(tree, los)
            calls_with += len(asked)
        assert got.root == want.root
        assert got.children == want.children
        assert got.removals == want.removals
        assert verify_removals(tree, got, los)
        removed += len(got.removals)
    assert removed > 500
    assert calls_with < calls_without  # some triple was asked again without the table


def test_verify_removals_detects_a_corrupted_log():
    rooted = rooted_path(
        [(float(k), 0.0, 0.0) for k in range(5)], terminal_ids=(0, 4)
    )
    los = lambda p, q: True  # noqa: E731
    out = simplify_tree(rooted, los)
    assert verify_removals(rooted, out, los)
    # forging a record that claims a terminal was removed must fail the audit
    forged = out.removals[0].__class__(parent=0, removed=4, children=(2,))
    out.removals.append(forged)
    assert not verify_removals(rooted, out, los)


def test_simplify_config_validation():
    with pytest.raises(ValidationError, match="normal tolerance"):
        SimplifyConfig(normal_tolerance_deg=0.0)
    with pytest.raises(ValidationError, match="normal tolerance"):
        SimplifyConfig(normal_tolerance_deg=90.0)
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(ValidationError, match="height tolerance"):
            SimplifyConfig(los_height_tolerance=bad)


def test_normal_angle_degrees():
    assert normal_angle_deg(Z, Z) == pytest.approx(0.0)
    assert normal_angle_deg(Z, (1, 0, 0)) == pytest.approx(90.0)
    assert normal_angle_deg(Z, (0, 0, -1)) == pytest.approx(180.0)
    tilted = (0.0, np.sin(np.radians(15.0)), np.cos(np.radians(15.0)))
    assert normal_angle_deg(Z, tilted) == pytest.approx(15.0)
