import json
from collections import Counter

import numpy as np
import pytest

from navstruct.analysis import (
    AnalysisReport,
    StageRecord,
    density_classes,
    forest_to_graph,
    render_report_text,
    report_to_dict,
)
from navstruct.errors import DegenerateEdge, ParseError, ValidationError
from navstruct.export import (
    STRUCTURE_FORMAT,
    canonical_json,
    export_structure,
    load_structure_json,
    structure_dot,
    structure_json_bytes,
    structure_obj,
)
from navstruct.fixtures import grid_surface, maze_graph, plus_hub, straight_corridor
from navstruct.graph import SOURCE_SAMPLE, GraphNode
from navstruct.pipeline import PipelineConfig, run_pipeline
from navstruct.trees import RootedTree


def tnode(v, pos, terminal=False, on_navmesh=True):
    return GraphNode(
        id=v,
        position=np.asarray(pos, dtype=float),
        normal=np.array([0.0, 0.0, 1.0]),
        on_navmesh=on_navmesh,
        terminal=terminal,
        source=SOURCE_SAMPLE,
    )


def small_forest():
    """Root 0 with a terminal leaf, plus a two-node branch ending off-mesh."""
    payloads = {
        0: tnode(0, (0, 0, 0)),
        1: tnode(1, (1, 0, 0), terminal=True),
        2: tnode(2, (0, 2, 0)),
        3: tnode(3, (0, 3, 0.5), terminal=True, on_navmesh=False),
    }
    tree = RootedTree(
        root=0,
        children={0: [1, 2], 1: [], 2: [3], 3: []},
        depth={0: 0, 1: 1, 2: 1, 3: 2},
        payloads=payloads,
        parent={0: None, 1: 0, 2: 0, 3: 2},
    )
    return [tree]


def singleton_tree(v, pos):
    return RootedTree(
        root=v, children={v: []}, depth={v: 0},
        payloads={v: tnode(v, pos)}, parent={v: None},
    )


# --- forest -> graph --------------------------------------------------------

def test_forest_to_graph_rebuilds_weighted_edges():
    g = forest_to_graph(small_forest())
    assert [n.id for n in g.nodes] == [0, 1, 2, 3]
    assert g.node_index == {0: 0, 1: 1, 2: 2, 3: 3}
    assert g.edges == [
        (0, 1, 1.0),
        (0, 2, 2.0),
        (2, 3, pytest.approx(np.sqrt(1.25))),
    ]
    assert g.nodes[3].on_navmesh is False


def test_forest_to_graph_renumbers_sparse_ids():
    tree = RootedTree(
        root=7,
        children={7: [9], 9: []},
        depth={7: 0, 9: 1},
        payloads={7: tnode(7, (0, 0, 0)), 9: tnode(9, (3, 4, 0))},
        parent={7: None, 9: 7},
    )
    g = forest_to_graph([tree, singleton_tree(2, (9, 9, 9))])
    assert g.node_index == {2: 0, 7: 1, 9: 2}
    assert g.edges == [(1, 2, 5.0)]


def test_forest_to_graph_rejects_shared_nodes():
    forest = small_forest()
    with pytest.raises(ValidationError, match="more than one tree"):
        forest_to_graph(forest + [singleton_tree(2, (5, 5, 0))])


def test_forest_to_graph_rejects_zero_length_edges():
    forest = small_forest()
    forest[0].payloads[1].position = np.zeros(3)
    with pytest.raises(DegenerateEdge, match="zero length"):
        forest_to_graph(forest)


# --- density classes --------------------------------------------------------

def test_density_terciles_on_a_ramp_of_values():
    out = density_classes([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    assert out.thresholds == [2.0, 4.0]
    assert out.labels == ["low", "low", "medium", "medium", "high", "high"]
    assert out.buckets == 3


def test_density_order_independent():
    out = density_classes([6.0, 1.0, 4.0, 3.0, 5.0, 2.0])
    assert out.labels == ["high", "low", "medium", "medium", "high", "low"]


def test_density_all_equal_values_fall_in_the_lowest_class():
    out = density_classes([5.0] * 4)
    assert out.thresholds == [5.0, 5.0]
    assert out.labels == ["low"] * 4


def test_density_ties_share_a_class():
    out = density_classes([1.0, 2.0, 2.0, 3.0], buckets=2)
    assert out.labels == ["b0", "b0", "b0", "b1"]


def test_density_custom_bucket_names():
    out = density_classes([float(v) for v in range(10)], buckets=5)
    assert out.thresholds == [1.0, 3.0, 5.0, 7.0]
    assert out.labels == [f"b{v // 2}" for v in range(10)]


def test_density_empty_and_invalid_inputs():
    out = density_classes([])
    assert out.labels == [] and out.thresholds == []
    with pytest.raises(ValidationError, match="must be >= 2"):
        density_classes([1.0, 2.0], buckets=1)


def test_density_distinct_values_balance_bucket_sizes(rng):
    for _ in range(30):
        n = rng.randint(1, 40)
        buckets = rng.randint(2, 6)
        values = [float(v) for v in rng.sample(range(10_000), n)]
        out = density_classes(values, buckets=buckets)
        names = [f"b{k}" for k in range(buckets)] if buckets != 3 else ["low", "medium", "high"]
        sizes = Counter(out.labels)
        counts = [sizes.get(name, 0) for name in names]
        assert max(counts) - min(counts) <= 1
        ranked = sorted(range(n), key=lambda v: values[v])
        indices = [names.index(out.labels[v]) for v in ranked]
        assert indices == sorted(indices)  # class never drops as values rise


# --- run reports ------------------------------------------------------------

def demo_report():
    return AnalysisReport(
        "demo",
        [
            StageRecord("graph", 12.6, nodes=10, edges=9),
            StageRecord("steiner", 3.2, terminals=2),
        ],
        15.8,
        density_thresholds=[0.5, 2.0],
    )


def test_stage_lookup():
    report = demo_report()
    assert report.stage("graph").nodes == 10
    assert report.stage("steiner").millis == 3.2
    with pytest.raises(KeyError):
        report.stage("missing")


def test_report_text_uses_whole_milliseconds():
    text = render_report_text(demo_report())
    assert text.endswith("\n")
    lines = text.splitlines()
    assert lines[0] == "experiment: demo"
    assert lines[1].split() == ["stage", "ms", "nodes", "edges", "terminals"]
    assert lines[3].split() == ["graph", "13", "10", "9", "-"]
    assert lines[4].split() == ["steiner", "3", "-", "-", "2"]
    assert lines[6].split() == ["total", "16"]
    assert lines[7] == "density thresholds: [0.5, 2]"


def test_report_dict_keeps_fractional_milliseconds():
    out = report_to_dict(demo_report())
    assert out["experiment"] == "demo"
    assert out["stages"][0] == {"name": "graph", "millis": 12.6, "nodes": 10, "edges": 9}
    assert out["stages"][1] == {"name": "steiner", "millis": 3.2, "terminals": 2}
    assert out["total_millis"] == 15.8
    assert out["density_thresholds"] == [0.5, 2.0]
    assert "node_analysis" not in out


def test_report_dict_rounds_to_three_decimals():
    report = AnalysisReport(
        "demo", [StageRecord("graph", 1.23456)], 1.23456,
        node_analysis=[{"id": 0, "density": "low"}],
    )
    out = report_to_dict(report)
    assert out["stages"][0]["millis"] == 1.235
    assert out["total_millis"] == 1.235
    assert out["node_analysis"] == [{"id": 0, "density": "low"}]


# --- canonical JSON ---------------------------------------------------------

def test_canonical_json_sorts_keys_and_formats_floats():
    assert canonical_json({"b": [1.5, True, None], "a": -0.0}) == '{"a":0,"b":[1.5,true,null]}'
    assert canonical_json(1 / 3) == "0.333333333"
    assert canonical_json(123456789.123) == "123456789"
    assert canonical_json(1e-10) == "1e-10"
    assert canonical_json(np.array([1.0, 2.5])) == "[1,2.5]"
    assert canonical_json((np.int64(3), np.float64(0.25))) == "[3,0.25]"


def test_canonical_json_round_trips_by_value():
    obj = {"z": {"k": [0.1, 2, "s"]}, "a": [True, None, -1.25]}
    text = canonical_json(obj)
    assert canonical_json(json.loads(text)) == text


def test_canonical_json_rejects_non_finite_and_unknown_types():
    with pytest.raises(ValueError, match="non-finite"):
        canonical_json(float("nan"))
    with pytest.raises(ValueError, match="non-finite"):
        canonical_json([float("inf")])
    with pytest.raises(TypeError):
        canonical_json({1, 2})


# --- structure files --------------------------------------------------------

def test_forest_dict_shape():
    out = json.loads(structure_json_bytes(small_forest()))
    assert out["format"] == STRUCTURE_FORMAT
    (tree,) = out["trees"]
    assert tree["root"] == 0
    assert [n["id"] for n in tree["nodes"]] == [0, 1, 2, 3]
    root = tree["nodes"][0]
    assert root["parent"] is None and root["depth"] == 0
    assert root["children"] == [1, 2]
    leaf = tree["nodes"][3]
    assert leaf["terminal"] and not leaf["on_navmesh"]
    assert leaf["position"] == [0.0, 3.0, 0.5]


def random_forest(rng):
    """Up to four trees over sparse ids, with floats of every magnitude and
    sign (-0.0 included) and sources that JSON must escape."""
    values = [0.0, -0.0, 1.0, -2.5, 1 / 3, 1e-10, -7.25e-300, 123456789.123, 4.5e307]
    sources = ["sample", 'quo"te', "back\\slash", "caf\u00e9", "tab\tnew\nline", ""]
    ids = rng.sample(range(10_000), rng.randint(0, 40))
    forest = []
    while ids:
        members, ids = ids[:rng.randint(1, 12)], ids[12:]
        parent = {members[0]: None}
        children = {v: [] for v in members}
        depth = {members[0]: 0}
        for k, v in enumerate(members[1:], start=1):
            up = members[rng.randrange(k)]
            parent[v], depth[v] = up, depth[up] + 1
            children[up].append(v)
        for kids in children.values():
            kids.sort()
        payloads = {v: GraphNode(
            id=v,
            position=np.array([rng.choice(values) * rng.random() for _ in range(3)]),
            normal=np.array([rng.choice(values) for _ in range(3)]),
            on_navmesh=rng.random() < 0.5, terminal=rng.random() < 0.5,
            source=rng.choice(sources),
        ) for v in members}
        forest.append(RootedTree(root=members[0], children=children, depth=depth,
                                 payloads=payloads, parent=parent))
    return forest


def _golden_forests():
    corridor, corridor_walls = straight_corridor(12)
    hub, hub_walls = plus_hub(2)
    return [run_pipeline(cfg, **inputs).forest for cfg, inputs in [
        (PipelineConfig(terminals="entry-exit", interval=1.0),
         {"surface": corridor, "blockers": corridor_walls}),
        (PipelineConfig(terminals="entry-exit"), {"surface": hub, "blockers": hub_walls}),
        (PipelineConfig(terminals="leaves"), {"graph": maze_graph(12, 12, seed=3)}),
        (PipelineConfig(terminals="metric", metric="eigenvector", k=4),
         {"surface": grid_surface(10, 10)}),
    ]]


def test_structure_json_is_canonical_json(rng):
    for forest in _golden_forests() + [random_forest(rng) for _ in range(50)]:
        raw = structure_json_bytes(forest)
        assert canonical_json(json.loads(raw)) + "\n" == raw.decode()


def test_structure_json_round_trip(tmp_path):
    forest = small_forest()
    raw = structure_json_bytes(forest)
    assert raw.endswith(b"\n")
    path = tmp_path / "structure.json"
    export_structure(forest, "json", path)
    assert path.read_bytes() == raw
    loaded = load_structure_json(path)
    assert structure_json_bytes(loaded) == raw
    assert loaded[0].root == 0
    assert loaded[0].children == forest[0].children
    assert loaded[0].parent == forest[0].parent
    assert loaded[0].depth == forest[0].depth
    for v, p in forest[0].payloads.items():
        q = loaded[0].payloads[v]
        assert np.allclose(q.position, p.position)
        assert q.terminal == p.terminal and q.on_navmesh == p.on_navmesh
        assert q.source == p.source


def test_structure_json_rejects_bad_files(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{garbage")
    with pytest.raises(ParseError, match="invalid JSON"):
        load_structure_json(bad)
    other = tmp_path / "other.json"
    other.write_text(json.dumps({"format": "something-else/9", "trees": []}))
    with pytest.raises(ParseError, match="not a"):
        load_structure_json(other)
    treeless = tmp_path / "treeless.json"
    treeless.write_text(json.dumps({"format": STRUCTURE_FORMAT}))
    with pytest.raises(ParseError, match="'trees'"):
        load_structure_json(treeless)
    # ids, parents, children, depths and roots follow the one index rule
    for node, key, value in [
        (None, "root", 5.7), (0, "depth", "0"), (0, "children", [True, 2]), (1, "parent", 0.5),
    ]:
        data = json.loads(structure_json_bytes(small_forest()))
        record = data["trees"][0] if node is None else data["trees"][0]["nodes"][node]
        record[key] = value
        edited = tmp_path / f"edited-{key}.json"
        edited.write_text(json.dumps(data))
        with pytest.raises(ParseError, match="is not an integer"):
            load_structure_json(edited)


def test_structure_dot_marks_roots_depths_and_terminals():
    forest = small_forest() + [singleton_tree(9, (5, 5, 0))]
    dot = structure_dot(forest)
    lines = dot.splitlines()
    assert lines[0] == "digraph structure {"
    assert lines[-1] == "}"
    assert '  n0 [label="id=0 depth=0", color=black, shape=doubleoctagon];' in lines
    assert '  n1 [label="id=1 depth=1 terminal", color=red];' in lines
    assert '  n2 [label="id=2 depth=1", color=red];' in lines
    assert '  n3 [label="id=3 depth=2 terminal", color=yellow];' in lines
    assert '  n9 [label="id=9 depth=0", color=black, shape=doubleoctagon];' in lines
    assert "  n0 -> n1 [color=red];" in lines
    assert "  n2 -> n3 [color=yellow];" in lines


def test_structure_obj_overlay_is_exact():
    forest = small_forest() + [singleton_tree(9, (5, 5, 0))]
    assert structure_obj(forest) == (
        "# structure overlay\n"
        "v 0 0 0\n"
        "v 1 0 0\n"
        "v 0 2 0\n"
        "v 0 3 0.5\n"
        "v 5 5 0\n"
        "l 1 2\n"
        "l 1 3\n"
        "l 3 4\n"
        "p 1\n"
        "p 5\n"
    )


def test_export_structure_formats(tmp_path):
    forest = small_forest()
    export_structure(forest, "dot", tmp_path / "structure.dot")
    export_structure(forest, "obj", tmp_path / "overlay.obj")
    assert (tmp_path / "structure.dot").read_text() == structure_dot(forest)
    assert (tmp_path / "overlay.obj").read_text() == structure_obj(forest)
    with pytest.raises(ValueError, match="unknown export format"):
        export_structure(forest, "svg", tmp_path / "x.svg")
