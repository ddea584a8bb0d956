"""End-to-end acceptance checks.

One test per shipping criterion; each prints a single verdict line outside
pytest's capture so a full run always shows one PASS/FAIL line per criterion.
"""
import json
import random
import time

import numpy as np

from navstruct.algorithms import (
    CentralityScores,
    betweenness_centrality,
    eigenvector_centrality,
    katz_centrality,
)
from navstruct.cli import main
from navstruct.fixtures import (
    graph_from_edges,
    grid_surface,
    l_corridor,
    maze_graph,
    ramp_corridor,
    random_connected_graph,
    random_tree_graph,
    ring_surface,
)
from navstruct.graph import graph_from_navmesh
from navstruct.mesh import build_blocker_mesh
from navstruct.oracles import (
    betweenness_oracle,
    eigenvector_oracle,
    katz_oracle,
    steiner_exhaustive,
    tree_path_interior_counts,
)
from navstruct.pipeline import (
    STAGE_INITIAL,
    STAGE_SIMPLIFY,
    STAGE_STEINER,
    STAGE_TERMINALS,
    PipelineConfig,
    run_pipeline,
)
from navstruct.steiner import SteinerTree, build_steiner_tree
from navstruct.terminals import TerminalSet, entry_exit_terminals, terminals_from_metric
from navstruct.trees import find_rooted_trees, simplify_tree, verify_removals


def _verdict(capsys, number, label, ok):
    with capsys.disabled():
        print(f"ACCEPTANCE {number} {label}: {'PASS' if ok else 'FAIL'}")


def _write_mesh_files(surface, blockers, tmp_path, stem):
    surf = tmp_path / f"{stem}.json"
    surf.write_text(json.dumps({
        "vertices": [[float(x) for x in v] for v in surface.vertices],
        "polygons": [[int(i) for i in poly] for poly in surface.polygons],
    }))
    blk = tmp_path / f"{stem}_walls.json"
    blk.write_text(json.dumps({
        "vertices": [[float(x) for x in v] for v in blockers.vertices],
        "triangles": [[int(i) for i in t] for t in blockers.triangles],
    }))
    return surf, blk


def test_criterion_1_steiner_weight_within_twice_optimal(capsys):
    ok = False
    try:
        rng = random.Random(99120041)
        t_start = time.perf_counter()
        violations = 0
        for _ in range(200):
            n = rng.randint(4, 12)
            p = rng.uniform(0.4, 0.8)
            g = random_connected_graph(rng, n, p)
            terminals = sorted(rng.sample(range(n), rng.randint(2, min(4, n))))
            opt, _ = steiner_exhaustive(g, terminals)
            tree = build_steiner_tree(
                g, TerminalSet(node_ids=terminals, selection_method="metric")
            )
            if tree.total_weight > 2.0 * opt + 1e-9:
                violations += 1
        elapsed = time.perf_counter() - t_start
        assert violations == 0
        assert elapsed < 60.0
        ok = True
    finally:
        _verdict(capsys, 1, "steiner weight within 2x optimal on 200 random graphs", ok)


def test_criterion_2_betweenness_matches_enumeration_oracle(capsys):
    ok = False
    try:
        rng = random.Random(99120042)
        t_start = time.perf_counter()
        worst = 0.0
        for i in range(100):
            n = rng.randint(2, 50)
            p = rng.uniform(0.1, 0.6)
            g = random_connected_graph(rng, n, p)
            weighted = i % 4 != 3
            got = betweenness_centrality(g, weighted=weighted).values
            want = betweenness_oracle(g, weighted=weighted)
            worst = max(worst, max(abs(a - b) for a, b in zip(got, want)))
        elapsed = time.perf_counter() - t_start
        assert worst <= 1e-9
        assert elapsed < 30.0
        ok = True
    finally:
        _verdict(capsys, 2, "betweenness equals path-enumeration oracle (1e-9)", ok)


def test_criterion_3_eigenvector_and_katz_match_dense_oracles(capsys):
    ok = False
    try:
        rng = random.Random(99120043)
        eig_err = katz_err = 0.0
        for _ in range(50):
            n = rng.randint(2, 20)
            g = random_connected_graph(rng, n, rng.uniform(0.3, 0.8))
            got = eigenvector_centrality(g).values
            want = eigenvector_oracle(g)
            eig_err = max(eig_err, max(abs(a - b) for a, b in zip(got, want)))
            adjacency = np.zeros((n, n))
            for i, j, _w in g.edges:
                adjacency[i, j] = adjacency[j, i] = 1.0
            alpha = 0.5 / float(np.linalg.eigvalsh(adjacency).max())
            got_k = katz_centrality(g, alpha=alpha).values
            want_k = katz_oracle(g, alpha)
            katz_err = max(katz_err, max(abs(a - b) for a, b in zip(got_k, want_k)))
        assert eig_err <= 1e-6
        assert katz_err <= 1e-6
        ok = True
    finally:
        _verdict(capsys, 3, "eigenvector and katz match dense oracles (1e-6)", ok)


def test_criterion_4_corridor_collapses_to_root_plus_two_terminals(capsys, corridor):
    ok = False
    try:
        surface, blockers = corridor
        cfg = PipelineConfig(terminals="entry-exit", interval=1.0, experiment="corridor")
        result = run_pipeline(cfg, surface=surface, blockers=blockers)
        report = result.report
        assert report.stage(STAGE_INITIAL).nodes == 12
        assert report.stage(STAGE_INITIAL).edges == 11
        assert report.stage(STAGE_TERMINALS).terminals == 2
        assert report.stage(STAGE_SIMPLIFY).nodes == 3
        assert report.stage(STAGE_SIMPLIFY).edges == 2
        (tree,) = result.forest
        assert tree.size() == 3
        assert not tree.payloads[tree.root].terminal
        assert len(tree.children[tree.root]) == 2
        for leaf in tree.children[tree.root]:
            assert not tree.children[leaf]
            assert tree.payloads[leaf].terminal
        ok = True
    finally:
        _verdict(capsys, 4, "corridor 12/11 with 2 terminals simplifies to 3/2", ok)


def _rooted_forest(surface=None, graph=None, blockers=None,
                   method="entry-exit", k=3, interval=1.0):
    g = graph_from_navmesh(surface) if surface is not None else graph
    if method == "entry-exit":
        g, term_set = entry_exit_terminals(g, surface, blockers, interval=interval)
    elif method == "leaves":
        term_set = terminals_from_metric(g, "leaves")
    else:
        term_set = terminals_from_metric(g, "metric", k=k)
    tree = build_steiner_tree(g, term_set)
    scores = betweenness_centrality(g)
    return find_rooted_trees(tree, g, scores)


def _audit_one(original, surface, los=None):
    simplified = simplify_tree(original, surface, los=los)
    assert verify_removals(original, simplified, surface, los=los)
    kept = set(simplified.node_ids())
    assert {v for v in original.node_ids() if not original.children[v]} <= kept
    terminals = {v for v in original.node_ids() if original.payloads[v].terminal}
    assert terminals <= kept
    assert simplify_tree(simplified, surface, los=los).removals == []
    return simplified


def test_criterion_5_simplification_audit_is_sound(capsys, corridor, hub):
    ok = False
    try:
        fixture_runs = [
            (corridor[0], corridor[1], "entry-exit"),
            (hub[0], hub[1], "entry-exit"),
            (l_corridor(), None, "leaves"),
            (ramp_corridor(30.0), None, "leaves"),
            (ring_surface(), None, "metric"),
            (grid_surface(5, 4), None, "metric"),
        ]
        removed_total = 0
        for surface, blockers, method in fixture_runs:
            forest = _rooted_forest(surface=surface, blockers=blockers, method=method)
            for tree in forest:
                simplified = _audit_one(tree, surface)
                removed_total += len(simplified.removals)
        assert removed_total > 0  # the audit must see real removals, not no-ops

        rng = random.Random(99120045)
        for i in range(100):
            g = random_tree_graph(rng, rng.randint(4, 20))
            forest = _rooted_forest(graph=g, method="leaves")
            if i % 3 == 0:
                los = lambda a, c: True  # noqa: E731
            elif i % 3 == 1:
                limit = rng.uniform(2.0, 8.0)
                los = lambda a, c, L=limit: float(np.linalg.norm(np.subtract(c, a))) <= L  # noqa: E731
            else:
                los = lambda a, c: False  # noqa: E731
            for tree in forest:
                _audit_one(tree, None, los=los)
        ok = True
    finally:
        _verdict(capsys, 5, "removal logs audit clean on fixtures + 100 random trees", ok)


def test_criterion_6_rooting_picks_argmax_with_centroid_tie_break(capsys):
    ok = False
    try:
        rng = random.Random(99120046)
        centroid_rule_hits = 0
        for _ in range(100):
            n = rng.randint(3, 20)
            g = random_tree_graph(rng, n)
            term_set = terminals_from_metric(g, "leaves")
            tree = build_steiner_tree(g, term_set)
            scores = betweenness_centrality(g)
            oracle = tree_path_interior_counts(g)
            assert max(abs(a - b) for a, b in zip(scores.values, oracle)) <= 1e-9
            centroid = g.centroid()

            def rank(v):
                return (
                    -scores.values[v],
                    float(np.linalg.norm(g.nodes[v].position - centroid)),
                    v,
                )

            forest = find_rooted_trees(tree, g, scores)
            assert [t.root for t in forest] == [min(tree.nodes, key=rank)]
            covered = sorted(v for t in forest for v in t.node_ids())
            assert covered == sorted(tree.nodes)

        # force score ties so the centroid rule itself decides every root
        for _ in range(50):
            n = rng.randint(3, 20)
            g = random_tree_graph(rng, n)
            tree = build_steiner_tree(g, terminals_from_metric(g, "leaves"))
            flat = CentralityScores(metric="degree", values=[1.0] * n, params={})
            centroid = g.centroid()
            expected = min(
                tree.nodes,
                key=lambda v: (float(np.linalg.norm(g.nodes[v].position - centroid)), v),
            )
            (rooted,) = find_rooted_trees(tree, g, flat)
            assert rooted.root == expected
            centroid_rule_hits += 1
        assert centroid_rule_hits == 50

        # a multi-component tree must come back as a partition
        g = graph_from_edges(
            [(0, 0, 0), (1, 0, 0), (5, 0, 0), (6, 0, 0)],
            [(0, 1, 1.0), (2, 3, 1.0)],
        )
        split = SteinerTree(
            nodes=[0, 1, 2, 3],
            edges=[(0, 1, 1.0), (2, 3, 1.0)],
            terminals=TerminalSet(node_ids=[0, 1, 2, 3], selection_method="metric"),
            total_weight=2.0,
        )
        forest = find_rooted_trees(
            split, g, CentralityScores(metric="degree", values=[1.0] * 4, params={})
        )
        assert len(forest) == 2
        assert sorted(v for t in forest for v in t.node_ids()) == [0, 1, 2, 3]
        ok = True
    finally:
        _verdict(capsys, 6, "roots are argmax betweenness with centroid tie-break", ok)


def test_criterion_7_repeat_extraction_is_byte_identical(capsys, hub, tmp_path):
    ok = False
    try:
        surf, blk = _write_mesh_files(hub[0], hub[1], tmp_path, "hub")
        outputs = []
        for run in ("first", "second"):
            out = tmp_path / run
            code = main(["extract", "--surface", str(surf), "--blockers", str(blk),
                         "--interval", "1.0", "--out", str(out)])
            assert code == 0
            outputs.append((out / "structure.json").read_bytes())
        assert outputs[0] == outputs[1]
        structure = json.loads(outputs[0])
        (tree,) = structure["trees"]
        assert len(tree["nodes"]) == 5  # hub root plus one terminal per opening
        ok = True
    finally:
        _verdict(capsys, 7, "two extract runs write byte-identical structure.json", ok)


def test_criterion_8_off_mesh_terminal_keeps_interior_neighbor(capsys, corridor):
    ok = False
    try:
        surface, blockers = corridor
        cfg = PipelineConfig(
            terminals="entry-exit", interval=1.0, exit_offset=0.25,
            experiment="offset",
        )
        result = run_pipeline(cfg, surface=surface, blockers=blockers)
        (tree,) = result.forest
        assert tree.node_ids() == [0, 5, 11, 12, 13]
        assert tree.edge_list() == [(0, 13), (5, 0), (5, 11), (11, 12)]
        for term in (12, 13):
            assert tree.payloads[term].terminal
            assert not tree.payloads[term].on_navmesh
        # the interior parents of the off-mesh leaves survive simplification
        assert tree.parent[12] == 11 and tree.payloads[11].on_navmesh
        assert tree.parent[13] == 0 and tree.payloads[0].on_navmesh

        # without the offset the same corridor loses those interior nodes
        base = run_pipeline(
            PipelineConfig(terminals="entry-exit", interval=1.0, experiment="base"),
            surface=surface, blockers=blockers,
        )
        assert base.forest[0].node_ids() == [5, 12, 13]
        ok = True
    finally:
        _verdict(capsys, 8, "off-mesh terminal retains its interior neighbor", ok)


def test_criterion_9_thousand_node_graph_under_ten_seconds(capsys):
    ok = False
    try:
        g = maze_graph(25, 40)
        assert len(g.nodes) == 1000
        wall = build_blocker_mesh(
            [(1e6, -1, -1), (1e6, 1, -1), (1e6, 1, 1), (1e6, -1, 1)],
            [(0, 1, 2), (0, 2, 3)],
        )
        cfg = PipelineConfig(terminals="leaves", analyze=True, experiment="maze")
        t_start = time.perf_counter()
        result = run_pipeline(cfg, graph=g, blockers=wall)
        elapsed = time.perf_counter() - t_start
        assert elapsed < 10.0
        report = result.report
        n_initial = report.stage(STAGE_INITIAL).nodes
        n_steiner = report.stage(STAGE_STEINER).nodes
        n_simplified = report.stage(STAGE_SIMPLIFY).nodes
        assert n_simplified <= n_steiner <= n_initial
        e_initial = report.stage(STAGE_INITIAL).edges
        e_steiner = report.stage(STAGE_STEINER).edges
        e_simplified = report.stage(STAGE_SIMPLIFY).edges
        assert e_simplified <= e_steiner <= e_initial
        assert report.stage(STAGE_TERMINALS).terminals == 102
        assert len(report.node_analysis) == n_simplified
        ok = True
    finally:
        _verdict(capsys, 9, "1000-node pipeline under 10 s with monotone counts", ok)


def test_criterion_10_2500_node_analyze_under_ten_seconds(capsys):
    # rooting and post-process betweenness run on forests; at this size only
    # their closed form fits the bound, a search per node does not
    ok = False
    try:
        g = maze_graph(50, 50)
        assert len(g.nodes) == 2500
        wall = build_blocker_mesh(
            [(1e6, -1, -1), (1e6, 1, -1), (1e6, 1, 1), (1e6, -1, 1)],
            [(0, 1, 2), (0, 2, 3)],
        )
        cfg = PipelineConfig(terminals="leaves", analyze=True, experiment="maze")
        t_start = time.perf_counter()
        result = run_pipeline(cfg, graph=g, blockers=wall)
        elapsed = time.perf_counter() - t_start
        assert elapsed < 10.0
        report = result.report
        n_initial = report.stage(STAGE_INITIAL).nodes
        n_steiner = report.stage(STAGE_STEINER).nodes
        n_simplified = report.stage(STAGE_SIMPLIFY).nodes
        assert n_simplified <= n_steiner <= n_initial
        e_initial = report.stage(STAGE_INITIAL).edges
        e_steiner = report.stage(STAGE_STEINER).edges
        e_simplified = report.stage(STAGE_SIMPLIFY).edges
        assert e_simplified <= e_steiner <= e_initial
        assert report.stage(STAGE_TERMINALS).terminals == 242
        assert len(report.node_analysis) == n_simplified
        ok = True
    finally:
        _verdict(capsys, 10, "2500-node analyze pipeline under 10 s with monotone counts", ok)
