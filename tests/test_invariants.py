"""Invariants that hold between the stages on every input: Steiner tree to
rooted forest to simplified forest to structure.json and back."""
import random

import numpy as np
import pytest

from navstruct.algorithms import betweenness_centrality
from navstruct.export import load_structure_json, structure_json_bytes
from navstruct.fixtures import (
    grid_surface,
    l_corridor,
    maze_graph,
    plus_hub,
    ramp_corridor,
    random_connected_graph,
    random_tree_graph,
    ring_surface,
    stacked_floors,
    straight_corridor,
    vertical_strip,
)
from navstruct.graph import graph_from_navmesh
from navstruct.steiner import build_steiner_tree
from navstruct.terminals import entry_exit_terminals, terminals_from_metric
from navstruct.trees import find_rooted_trees, simplify_tree, verify_removals, walkable_los


def check_stages(g, term_set, los, path):
    """Run Steiner, rooting and simplify on `g` and check every invariant;
    returns the number of simplify removals."""
    terminals = set(term_set.node_ids)
    stree = build_steiner_tree(g, term_set)
    degree = {v: 0 for v in stree.nodes}
    for i, j, _w in stree.edges:
        degree[i] += 1
        degree[j] += 1
    assert terminals <= set(stree.nodes)
    assert {v for v, d in degree.items() if d <= 1 and len(stree.nodes) > 1} <= terminals

    forest = find_rooted_trees(stree, g, betweenness_centrality(g))
    covered = [v for t in forest for v in t.node_ids()]
    assert sorted(covered) == stree.nodes
    forest_edges = sorted(tuple(sorted(e)) for t in forest for e in t.edge_list())
    assert forest_edges == [(i, j) for i, j, _w in stree.edges]

    simplified = [simplify_tree(t, los) for t in forest]
    steiner_edges = {(i, j) for i, j, _w in stree.edges}
    for original, out in zip(forest, simplified):
        assert verify_removals(original, out, los)
        # every final edge is a Steiner edge or one a logged removal made,
        # and verify_removals audited the LOS of those
        made = {(rec.parent, c) for rec in out.removals for c in rec.children}
        for p, c in out.edge_list():
            assert (min(p, c), max(p, c)) in steiner_edges or (p, c) in made
    assert terminals <= {v for t in simplified for v in t.node_ids()}

    data = structure_json_bytes(simplified)
    path.write_bytes(data)
    assert structure_json_bytes(load_structure_json(path)) == data
    return sum(len(t.removals) for t in simplified)


def surface_cases():
    corridor, corridor_walls = straight_corridor(12)
    hub, hub_walls = plus_hub(2)
    yield "corridor", corridor, corridor_walls, "entry-exit"
    yield "hub", hub, hub_walls, "entry-exit"
    yield "l-corridor", l_corridor(), None, "leaves"
    yield "ring", ring_surface(), None, "metric"
    yield "grid", grid_surface(6, 5), None, "metric"
    for angle in (30.0, 60.0, 80.0):
        yield f"ramp{angle:.0f}", ramp_corridor(angle), None, "leaves"
    yield "stacked-floors", stacked_floors(), None, "metric"
    yield "vertical-strip", vertical_strip(), None, "metric"


@pytest.mark.parametrize("name, surface, blockers, method", list(surface_cases()))
def test_stage_invariants_on_fixture_surfaces(name, surface, blockers, method, tmp_path):
    g = graph_from_navmesh(surface)
    if method == "entry-exit":
        g, term_set = entry_exit_terminals(g, surface, blockers, interval=1.0)
    elif method == "leaves":
        term_set = terminals_from_metric(g, "leaves")
    else:
        term_set = terminals_from_metric(g, "metric", k=4)
    check_stages(g, term_set, walkable_los(surface), tmp_path / f"{name}.json")


def test_stage_invariants_on_random_and_maze_graphs(tmp_path):
    rng = random.Random(20261019)
    cases = [(random_connected_graph(rng, rng.randint(4, 30), rng.uniform(0.1, 0.5)), "metric")
             for _ in range(30)]
    cases += [(random_tree_graph(rng, rng.randint(2, 40)), "leaves") for _ in range(30)]
    cases += [(maze_graph(12, 9, seed=s), "leaves") for s in range(5)]
    removed = 0
    for k, (g, method) in enumerate(cases):
        term_set = terminals_from_metric(g, method, k=rng.randint(1, 6))
        limit = rng.uniform(1.0, 6.0)
        los = lambda a, c, L=limit: float(np.linalg.norm(c.position - a.position)) <= L  # noqa: E731
        removed += check_stages(g, term_set, los, tmp_path / f"graph-{k}.json")
    assert removed > 0  # the audit must see real removals
