import numpy as np
import pytest

from navstruct.algorithms import CentralityScores, betweenness_centrality
from navstruct.errors import PointOffMesh, ValidationError
from navstruct.fixtures import (
    graph_from_edges,
    l_corridor,
    ramp_corridor,
    ring_surface,
    surface_from_squares,
)
from navstruct.graph import SOURCE_SAMPLE, GraphNode, graph_from_navmesh
from navstruct.steiner import SteinerTree, build_steiner_tree
from navstruct.terminals import TerminalSet, entry_exit_terminals, terminals_from_metric
from navstruct.trees import (
    SimplifyConfig,
    can_simplify,
    find_rooted_trees,
    normal_angle_deg,
    simplify_tree,
    surface_los,
    verify_removals,
)

Z = np.array([0.0, 0.0, 1.0])


def terms(ids):
    return TerminalSet(node_ids=list(ids), selection_method="metric")


def uniform_scores(n, value=1.0):
    return CentralityScores(metric="degree", values=[value] * n, params={})


def path_graph(xs):
    pts = [(float(x), 0.0, 0.0) for x in xs]
    edges = [
        (k, k + 1, float(abs(xs[k + 1] - xs[k]))) for k in range(len(xs) - 1)
    ]
    return graph_from_edges(pts, edges)


def payload(node_id, pos, normal=Z, on_navmesh=True, terminal=False):
    return GraphNode(
        id=node_id,
        position=np.asarray(pos, dtype=float),
        normal=np.asarray(normal, dtype=float),
        on_navmesh=on_navmesh,
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
    scores = CentralityScores(
        metric="degree", values=[1.0] + [0.0] * (n - 1), params={}
    )
    (rooted,) = find_rooted_trees(tree, g, scores)
    for t in terminal_ids:
        rooted.payloads[t].terminal = True
    if on_mesh_override:
        for v, flag in on_mesh_override.items():
            rooted.payloads[v].on_navmesh = flag
    return rooted


# --- rooting ----------------------------------------------------------------

def test_root_is_the_highest_scoring_node():
    g = path_graph([0, 1, 2, 3])
    tree = build_steiner_tree(g, terms([0, 3]))
    scores = CentralityScores(metric="degree", values=[0.0, 0.0, 5.0, 0.0], params={})
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
    g = path_graph([0, 1, 2, 3])
    tree = build_steiner_tree(g, terms([0, 3]))
    (rooted,) = find_rooted_trees(
        tree, g, uniform_scores(4), centroid=(3.0, 0.0, 0.0)
    )
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
    scores = CentralityScores(metric="degree", values=[9.0, 0, 0, 0, 0], params={})
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


def test_rooting_rejects_short_score_vector():
    g = path_graph([0, 1, 2])
    tree = build_steiner_tree(g, terms([0, 2]))
    with pytest.raises(ValidationError, match="scores do not cover"):
        find_rooted_trees(tree, g, uniform_scores(2))


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


# --- collapse predicate -----------------------------------------------------

def test_predicate_rejects_terminal_middle(corridor):
    surface, _blockers = corridor
    a = payload(0, (0.5, 0.5, 0))
    b = payload(1, (1.5, 0.5, 0), terminal=True)
    c = payload(2, (2.5, 0.5, 0))
    assert not can_simplify(a, b, c, surface)
    b.terminal = False
    assert can_simplify(a, b, c, surface)


def test_predicate_rejects_off_mesh_leaf_grandchild(corridor):
    surface, _blockers = corridor
    a = payload(0, (0.5, 0.5, 0))
    b = payload(1, (1.5, 0.5, 0))
    c = payload(2, (2.5, 0.5, 0), on_navmesh=False)
    assert not can_simplify(a, b, c, surface, c_is_leaf=True)
    # an off-mesh interior node is no obstacle
    assert can_simplify(a, b, c, surface, c_is_leaf=False)


def test_predicate_rejects_normal_disagreement():
    surface = ramp_corridor(30.0)
    h = float(np.tan(np.radians(30.0)))
    ramp_normal = np.array([-np.sin(np.radians(30.0)), 0.0, np.cos(np.radians(30.0))])
    a = payload(0, (0.5, 0.5, 0.0))
    b = payload(1, (1.5, 0.5, h / 2.0), normal=ramp_normal)
    c = payload(2, (2.5, 0.5, h))
    assert normal_angle_deg(a.normal, b.normal) == pytest.approx(30.0)
    assert not can_simplify(a, b, c, surface)  # 30 degrees > default 15
    loose = SimplifyConfig(normal_tolerance_deg=45.0)
    assert can_simplify(a, b, c, surface, loose)


def test_predicate_uses_injected_los():
    a = payload(0, (0.0, 0.0, 0))
    b = payload(1, (1.0, 0.0, 0))
    c = payload(2, (2.0, 0.0, 0))
    seen = []

    def los(p, q):
        seen.append((tuple(p), tuple(q)))
        return True

    assert can_simplify(a, b, c, None, los=los)
    assert seen == [((0.0, 0.0, 0.0), (2.0, 0.0, 0.0))]
    assert not can_simplify(a, b, c, None, los=lambda p, q: False)


def test_predicate_off_mesh_parent_has_no_los(corridor):
    surface, _blockers = corridor
    a = payload(0, (-5.0, 0.5, 0))  # off the walkable surface
    b = payload(1, (0.5, 0.5, 0))
    c = payload(2, (1.5, 0.5, 0))
    assert not can_simplify(a, b, c, surface)


def test_predicate_requires_some_visibility_source():
    a = payload(0, (0.0, 0.0, 0))
    b = payload(1, (1.0, 0.0, 0))
    c = payload(2, (2.0, 0.0, 0))
    with pytest.raises(ValidationError, match="surface or an explicit los"):
        can_simplify(a, b, c, None)


# --- simplification ---------------------------------------------------------

def test_simplify_collapses_a_clear_chain():
    rooted = rooted_path(
        [(float(k), 0.0, 0.0) for k in range(6)], terminal_ids=(0, 5)
    )
    out = simplify_tree(rooted, None, los=lambda p, q: True)
    assert out.node_ids() == [0, 5]
    assert out.edge_list() == [(0, 5)]
    assert out.depth == {0: 0, 5: 1}
    assert len(out.removals) == 4
    assert rooted.size() == 6  # input untouched
    assert verify_removals(rooted, out, None, los=lambda p, q: True)


def test_simplify_respects_blocked_visibility():
    rooted = rooted_path(
        [(float(k), 0.0, 0.0) for k in range(6)], terminal_ids=(0, 5)
    )
    out = simplify_tree(rooted, None, los=lambda p, q: False)
    assert out.node_ids() == [0, 1, 2, 3, 4, 5]
    assert out.removals == []


def test_simplify_distance_limited_visibility_thins_every_other_node():
    rooted = rooted_path(
        [(float(k), 0.0, 0.0) for k in range(7)], terminal_ids=(0, 6)
    )
    los = lambda p, q: float(np.linalg.norm(np.subtract(q, p))) <= 2.5  # noqa: E731
    out = simplify_tree(rooted, None, los=los)
    assert out.node_ids() == [0, 2, 4, 6]
    assert out.edge_list() == [(0, 2), (2, 4), (4, 6)]
    assert verify_removals(rooted, out, None, los=los)
    again = simplify_tree(out, None, los=los)
    assert again.removals == []  # fixed point


def test_simplify_keeps_terminals_and_leaves():
    rooted = rooted_path(
        [(float(k), 0.0, 0.0) for k in range(6)], terminal_ids=(0, 3, 5)
    )
    out = simplify_tree(rooted, None, los=lambda p, q: True)
    assert out.node_ids() == [0, 3, 5]
    assert {v for v in out.node_ids() if not out.children[v]} == {5}
    assert all(out.payloads[v].terminal for v in out.node_ids())


def test_simplify_retains_interior_next_to_off_mesh_leaf():
    rooted = rooted_path(
        [(float(k), 0.0, 0.0) for k in range(4)],
        terminal_ids=(0, 3),
        on_mesh_override={3: False},
    )
    out = simplify_tree(rooted, None, los=lambda p, q: True)
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
    out = simplify_tree(rooted, surface)
    assert out.node_ids() == [5, 12, 13]
    assert out.edge_list() == [(5, 12), (5, 13)]
    assert len(out.removals) == 11
    assert verify_removals(rooted, out, surface)
    assert simplify_tree(out, surface).removals == []


def test_simplify_stops_at_the_l_corner():
    surface = l_corridor()
    g = graph_from_navmesh(surface)
    terminal_set = terminals_from_metric(g, "leaves")
    tree = build_steiner_tree(g, terminal_set)
    (rooted,) = find_rooted_trees(tree, g, betweenness_centrality(g))
    assert rooted.root == 1
    out = simplify_tree(rooted, surface)
    # the reflex corner blocks sight from node 1 to node 3, so node 2 stays
    assert out.node_ids() == [0, 1, 2, 3]
    assert out.removals == []


def test_simplify_multi_pass_reaches_a_stable_point():
    # first pass cannot remove node 1 (0 cannot see 2) but removes node 2;
    # afterwards 0-1-3 opens up and a later pass must remove node 1 too
    pos = {0: 0.0, 1: 4.0, 2: 5.0, 3: 6.0}
    los = lambda p, q: abs(float(q[0]) - float(p[0])) != 5.0  # noqa: E731
    rooted = rooted_path(
        [(pos[k], 0.0, 0.0) for k in range(4)], terminal_ids=(0, 3)
    )
    out = simplify_tree(rooted, None, los=los)
    assert out.node_ids() == [0, 3]
    assert [(r.parent, r.removed) for r in out.removals] == [(1, 2), (0, 1)]
    assert verify_removals(rooted, out, None, los=los)


def test_verify_removals_detects_a_corrupted_log():
    rooted = rooted_path(
        [(float(k), 0.0, 0.0) for k in range(5)], terminal_ids=(0, 4)
    )
    los = lambda p, q: True  # noqa: E731
    out = simplify_tree(rooted, None, los=los)
    assert verify_removals(rooted, out, None, los=los)
    # forging a record that claims a terminal was removed must fail the audit
    forged = out.removals[0].__class__(parent=0, removed=4, children=(2,))
    out.removals.append(forged)
    assert not verify_removals(rooted, out, None, los=los)


def test_simplify_config_validation():
    with pytest.raises(ValidationError, match="normal tolerance"):
        SimplifyConfig(normal_tolerance_deg=0.0)
    with pytest.raises(ValidationError, match="normal tolerance"):
        SimplifyConfig(normal_tolerance_deg=90.0)
    with pytest.raises(ValidationError, match="height tolerance"):
        SimplifyConfig(los_height_tolerance=0.0)


def test_normal_angle_degrees():
    assert normal_angle_deg(Z, Z) == pytest.approx(0.0)
    assert normal_angle_deg(Z, (1, 0, 0)) == pytest.approx(90.0)
    assert normal_angle_deg(Z, (0, 0, -1)) == pytest.approx(180.0)
    tilted = (0.0, np.sin(np.radians(15.0)), np.cos(np.radians(15.0)))
    assert normal_angle_deg(Z, tilted) == pytest.approx(15.0)
