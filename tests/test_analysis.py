import itertools
import json
import operator
import warnings
from collections import Counter

import numpy as np
import pytest

from navstruct.analysis import (
    MAX_DENSITY_BUCKETS,
    AnalysisReport,
    StageRecord,
    density_classes,
    forest_to_graph,
    render_report_text,
    report_to_dict,
)
from navstruct.errors import DegenerateEdge, ParseError, ValidationError
from navstruct.export import (
    _JSON_VECTOR,
    _OBJ_VERTEX,
    STRUCTURE_FORMAT,
    _fmt_float,
    _vector,
    canonical_json,
    export_structure,
    load_structure_json,
    report_json,
    structure_dot,
    structure_json_bytes,
    structure_obj,
)
from navstruct.fixtures import grid_surface, maze_graph, plus_hub, straight_corridor
from navstruct.graph import SOURCE_SAMPLE, GraphNode, SurfaceGraph
from navstruct.mesh import MAX_COORDINATE, MAX_WRITTEN_COORDINATE, build_walkable_surface
from navstruct.pipeline import PipelineConfig, run_pipeline
from navstruct.trees import RootedTree


def tnode(pos, terminal=False, polygon=None):
    return GraphNode(
        position=np.asarray(pos, dtype=float),
        normal=np.array([0.0, 0.0, 1.0]),
        polygon=polygon,
        terminal=terminal,
        source=SOURCE_SAMPLE,
    )


def small_forest():
    """Root 0 with a terminal leaf, plus a two-node branch ending off-mesh."""
    payloads = {
        0: tnode((0, 0, 0)),
        1: tnode((1, 0, 0), terminal=True),
        2: tnode((0, 2, 0)),
        3: tnode((0, 3, 0.5), terminal=True, polygon=-1),
    }
    tree = RootedTree(
        root=0,
        children={0: [1, 2], 1: [], 2: [3], 3: []},
        payloads=payloads,
    )
    return [tree]


def singleton_tree(v, pos):
    return RootedTree(root=v, children={v: []}, payloads={v: tnode(pos)})


def test_rooted_tree_derives_parent_and_depth():
    tree = small_forest()[0]
    assert tree.parent == {0: None, 1: 0, 2: 0, 3: 2}
    assert tree.depth == {0: 0, 1: 1, 2: 1, 3: 2}
    assert singleton_tree(4, (0, 0, 0)).parent == {4: None}
    assert singleton_tree(4, (0, 0, 0)).depth == {4: 0}


# --- forest -> graph --------------------------------------------------------

def test_forest_to_graph_rebuilds_weighted_edges():
    forest = small_forest()
    g = forest_to_graph(forest)
    p = forest[0].payloads
    assert g.nodes == [forest[0].payloads[v] for v in (0, 1, 2, 3)]
    assert g.edges == [
        (0, 1, 1.0),
        (0, 2, 2.0),
        (2, 3, float(np.linalg.norm(p[2].position - p[3].position))),
    ]
    assert g.nodes[3].on_navmesh is False


def test_forest_to_graph_renumbers_sparse_ids():
    tree = RootedTree(
        root=7,
        children={7: [9], 9: []},
        payloads={7: tnode((0, 0, 0)), 9: tnode((3, 4, 0))},
    )
    single = singleton_tree(2, (9, 9, 9))
    g = forest_to_graph([tree, single])
    assert g.nodes == [single.payloads[2], tree.payloads[7], tree.payloads[9]]
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


def forest_to_graph_per_edge(forest):
    """forest_to_graph as one np.linalg.norm per edge, each tree's nodes
    checked before its edges and the trees in order, renumbered through a
    dict."""
    payloads, edges = {}, []
    for tree in forest:
        for v in tree.node_ids():
            if v in payloads:
                raise ValidationError(f"node {v} appears in more than one tree")
            payloads[v] = tree.payloads[v]
        for p, c in tree.edge_list():
            w = float(np.linalg.norm(tree.payloads[p].position - tree.payloads[c].position))
            if w < 1e-12:
                raise DegenerateEdge(f"tree edge ({p}, {c}) has zero length")
            edges.append((p, c, w))
    index = {v: k for k, v in enumerate(sorted(payloads))}
    return SurfaceGraph([payloads[v] for v in index],
                        [(index[p], index[c], w) for p, c, w in edges])


def _outcome(fn, forest):
    try:
        g = fn(forest)
    except ValidationError as exc:  # DegenerateEdge included
        return type(exc), str(exc)
    return g.nodes, g.edges


def test_forest_to_graph_raises_the_first_fault_in_tree_order():
    def chain(ids, xs):
        children = {v: [w] for v, w in zip(ids, ids[1:])} | {ids[-1]: []}
        return RootedTree(root=ids[0], children=children,
                          payloads={v: tnode((x, 0, 0)) for v, x in zip(ids, xs)})

    sound = chain([0, 1, 2], [0, 1, 3])
    degenerate = chain([5, 6, 7], [0, 2, 2])           # edge (6, 7) has zero length
    shares = chain([8, 1], [9, 10])                     # node 1 is sound's
    shares_degenerate = chain([9, 2, 4], [4, 4, 6])     # node 2 is sound's; (9, 2) has zero length
    cases = [
        ([degenerate, shares, sound], DegenerateEdge, "tree edge (6, 7) has zero length"),
        ([sound, shares, degenerate], ValidationError, "node 1 appears in more than one tree"),
        ([sound, shares_degenerate], ValidationError, "node 2 appears in more than one tree"),
        ([sound, degenerate, shares], DegenerateEdge, "tree edge (6, 7) has zero length"),
    ]
    for forest, kind, message in cases:
        assert _outcome(forest_to_graph, forest) == (kind, message)
        assert _outcome(forest_to_graph_per_edge, forest) == (kind, message)


def test_forest_to_graph_equals_the_per_edge_build(rng):
    forests = [r.forest for r in _golden_runs()] + [random_forest(rng) for _ in range(100)]
    faults = Counter({DegenerateEdge: 0, ValidationError: 0})
    for forest in forests:
        for tree in forest:  # random positions may coincide: move them apart
            for v, p in tree.payloads.items():
                p.position = p.position + np.array([v, 1.0, 0.5])
        # and then some tree shares a node or some edge is degenerate
        if forest and rng.random() < 0.5:
            tree = rng.choice(forest)
            v = rng.choice(tree.node_ids())
            if rng.random() < 0.5 and tree.parent[v] is not None:
                tree.payloads[v].position = tree.payloads[tree.parent[v]].position.copy()
            else:
                forest.append(singleton_tree(v, (0, 0, 0)))
        # coordinates near 4.5e307 overflow the squared lengths in both builds
        with np.errstate(over="ignore"):
            got = _outcome(forest_to_graph, forest)
            want = _outcome(forest_to_graph_per_edge, forest)
        if isinstance(want[0], type):  # the exception's type and text
            assert got == want
            faults[want[0]] += 1
        else:  # the same payload objects, and bit-equal edges
            assert len(got[0]) == len(want[0]) and all(map(operator.is_, got[0], want[0]))
            assert got[1] == want[1]
    assert min(faults.values()) >= 10


# --- density classes --------------------------------------------------------

def test_density_terciles_on_a_ramp_of_values():
    out = density_classes([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    assert out.thresholds == [2.0, 4.0]
    assert out.labels == ["low", "low", "medium", "medium", "high", "high"]


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


def _labels_by_threshold_scan(values, thresholds, names):
    """The labelling loop density_classes ran before it bisected."""
    buckets = len(thresholds) + 1
    labels = []
    for v in range(len(values)):
        bucket = buckets - 1
        for k, t in enumerate(thresholds):
            if values[v] <= t:
                bucket = k
                break
        labels.append(names[bucket])
    return labels


def test_density_bisect_labels_match_the_threshold_scan(rng):
    cases = [(values, buckets) for values in ([], [4.0] * 7) for buckets in (2, 3, 50)]
    for buckets in range(2, 51):
        for spread in (2, 5, 30):  # few distinct values: many ties
            values = [float(rng.randint(0, spread)) for _ in range(rng.randint(1, 80))]
            cases.append((values, buckets))
    for values, buckets in cases:
        out = density_classes(values, buckets=buckets)
        names = ["low", "medium", "high"] if buckets == 3 else [f"b{k}" for k in range(buckets)]
        assert out.labels == _labels_by_threshold_scan(values, out.thresholds, names)


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


DENSITY_LABELS = ["low", "medium", "high"] + [f"b{k}" for k in range(MAX_DENSITY_BUCKETS)]


def random_report(rng):
    """A run report whose node-analysis records hold floats of every
    magnitude and sign (-0.0 included), ids beyond 2**53 and density labels;
    sometimes no records, or an empty list of them."""
    values = [0.0, -0.0, 1.0, -2.5, 1 / 3, 1e-300, -1e-300, 1e300, 123456789.123, 4.5e307]
    ids = [0, 7, 2**53 - 1, 2**53 + 1, 2**63 + 5, 10**30]
    records = [
        {"id": rng.choice(ids) + k, "density": rng.choice(DENSITY_LABELS),
         "betweenness": rng.choice(values) * rng.choice((1.0, rng.random())),
         "position": [rng.choice(values) * rng.random() for _ in range(3)]}
        for k in range(rng.randint(0, 60))
    ]
    return AnalysisReport(
        "exp\"ériment", [StageRecord("graph", rng.random() * 100, nodes=3)],
        rng.random() * 100,
        node_analysis=rng.choice((None, records)),
        density_thresholds=rng.choice((None, [rng.choice(values) for _ in range(2)])),
    )


def test_report_json_is_canonical_json(rng):
    reports = [r.report for r in _golden_runs()]
    assert all(r.node_analysis for r in reports)
    reports += [random_report(rng) for _ in range(200)]
    reports.append(AnalysisReport("empty", [], 0.0, node_analysis=[], density_thresholds=[]))
    reports.append(AnalysisReport("labels", [], 0.0, node_analysis=[
        {"id": k, "density": label, "betweenness": 0.5 * k, "position": [float(k), -0.0, 1e300]}
        for k, label in enumerate(DENSITY_LABELS)]))
    labels = set()
    for report in reports:
        out = report_to_dict(report)
        assert report_json(out) == canonical_json(out) + "\n"
        labels |= {r["density"] for r in report.node_analysis or ()}
    assert labels == set(DENSITY_LABELS)


# where %g switches to exponent form, rounds up in the ninth digit, or meets
# -0.0, a subnormal or the float range
EDGE_FLOATS = [0.0, -0.0, 5e-324, 1e-5, 9.99999999949e-5, 123456789.5, 999999999.5,
               1e308, -1e308, 0.1 + 0.2]


def test_one_format_per_vector_equals_fmt_float_per_component():
    for x, y, z in itertools.product(EDGE_FLOATS, repeat=3):
        parts = [_fmt_float(x), _fmt_float(y), _fmt_float(z)]
        assert _vector(_JSON_VECTOR, x, y, z) == ",".join(parts)
        assert _vector(_OBJ_VERTEX, x, y, z) == "v " + " ".join(parts)
    assert [_fmt_float(x) for x in EDGE_FLOATS[:7]] == [
        "0", "0", "4.94065646e-324", "1e-05", "0.0001", "123456790", "1e+09"]
    # the writers against canonical_json over the same values
    forest = [RootedTree(root=k, children={k: []}, payloads={k: GraphNode(
        position=np.array(xyz), normal=np.array(xyz[::-1]), polygon=k % 2 - 1,
        terminal=k % 3 == 0, source="sample")}) for k, xyz in enumerate(
        itertools.combinations(EDGE_FLOATS, 3))]
    assert structure_json_bytes(forest).decode() == canonical_json({
        "format": STRUCTURE_FORMAT, "trees": [{"root": t.root, "nodes": [{
            "id": t.root, "children": [], "depth": 0, "parent": None,
            "position": p.position, "normal": p.normal, "on_navmesh": p.on_navmesh,
            "source": p.source, "terminal": p.terminal,
        }]} for t in forest for p in t.payloads.values()]}) + "\n"
    assert structure_obj(forest).splitlines()[1:len(forest) + 1] == [
        "v " + " ".join(map(_fmt_float, t.payloads[t.root].position)) for t in forest]
    records = [{"id": t.root, "density": "low", "betweenness": 0.5,
                "position": t.payloads[t.root].position.tolist()} for t in forest]
    report = {"experiment": "x", "node_analysis": records}
    assert report_json(report) == canonical_json(report) + "\n"


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_every_writer_rejects_a_non_finite_component(bad):
    for k in range(3):
        vector = [1.0, -0.0, 2.5]
        vector[k] = bad
        for field in ("position", "normal"):
            forest = small_forest()
            setattr(forest[0].payloads[2], field, np.array(vector))
            writers = [structure_json_bytes] + [structure_obj] * (field == "position")
            for write in writers:
                with pytest.raises(ValueError, match="^non-finite float in export$"):
                    write(forest)
        report = {"node_analysis": [
            {"id": 0, "density": "low", "betweenness": 1.0, "position": vector}]}
        with pytest.raises(ValueError, match="^non-finite float in export$"):
            report_json(report)
        with pytest.raises(ValueError, match="^non-finite float in export$"):
            canonical_json(report)


def test_report_json_rejects_a_non_finite_score():
    for bad in (float("nan"), float("inf"), -float("inf")):
        report = AnalysisReport("x", [], 0.0, node_analysis=[
            {"id": 0, "density": "low", "betweenness": bad, "position": [0.0, 0.0, 0.0]}])
        with pytest.raises(ValueError, match="non-finite"):
            report_json(report_to_dict(report))


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
        children = {v: [] for v in members}
        for k, v in enumerate(members[1:], start=1):
            children[members[rng.randrange(k)]].append(v)
        for kids in children.values():
            kids.sort()
        payloads = {v: GraphNode(
            position=np.array([rng.choice(values) * rng.random() for _ in range(3)]),
            normal=np.array([rng.choice(values) for _ in range(3)]),
            polygon=None if rng.random() < 0.5 else -1, terminal=rng.random() < 0.5,
            source=rng.choice(sources),
        ) for v in members}
        forest.append(RootedTree(root=members[0], children=children, payloads=payloads))
    return forest


def _golden_runs():
    corridor, corridor_walls = straight_corridor(12)
    hub, hub_walls = plus_hub(2)
    return [run_pipeline(cfg, **inputs) for cfg, inputs in [
        (PipelineConfig(terminals="entry-exit", interval=1.0, analyze=True),
         {"surface": corridor, "blockers": corridor_walls}),
        (PipelineConfig(terminals="entry-exit", analyze=True),
         {"surface": hub, "blockers": hub_walls}),
        (PipelineConfig(terminals="leaves", analyze=True), {"graph": maze_graph(12, 12, seed=3)}),
        (PipelineConfig(terminals="metric", metric="eigenvector", k=4, analyze=True),
         {"surface": grid_surface(10, 10)}),
    ]]


def test_structure_json_is_canonical_json(rng):
    forests = [r.forest for r in _golden_runs()]
    for forest in forests + [random_forest(rng) for _ in range(50)]:
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


def test_structure_json_refuses_far_positions_at_load(tmp_path):
    # near 4.5e307 the analysis would overflow summing squared edge lengths
    for x in (4.5e307, -1e300, float(np.nextafter(MAX_WRITTEN_COORDINATE, np.inf))):
        data = json.loads(structure_json_bytes(small_forest()))
        data["trees"][0]["nodes"][2]["position"] = [0.0, x, 0.0]
        far = tmp_path / "far.json"
        far.write_text(json.dumps(data))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="structure node coordinates must lie within"):
                load_structure_json(far)


def test_a_structure_written_at_the_coordinate_limit_reloads(tmp_path):
    # a corridor spanning +-MAX_COORDINATE, its terminals pushed out by the
    # largest exit_offset
    surface, _ = straight_corridor(3)
    verts = surface.vertices.copy()
    verts[:, 0] = (verts[:, 0] / 1.5 - 1.0) * MAX_COORDINATE
    verts[:, 1] = (verts[:, 1] - 0.5) * MAX_COORDINATE
    cfg = PipelineConfig(
        terminals="entry-exit", exit_offset=MAX_COORDINATE, interval=MAX_COORDINATE / 8,
        radius=MAX_COORDINATE / 4, los_height_tol=MAX_COORDINATE / 10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_pipeline(cfg, surface=build_walkable_surface(verts, surface.polygons))
        path = tmp_path / "structure.json"
        export_structure(result.forest, "json", path)
        loaded = load_structure_json(path)
        graph = forest_to_graph(loaded)
    positions = np.array([q.position for tree in loaded for q in tree.payloads.values()])
    assert 1.9 * MAX_COORDINATE < np.abs(positions).max() <= MAX_WRITTEN_COORDINATE
    assert structure_json_bytes(loaded) == path.read_bytes()
    assert len(graph.nodes) == len(positions)


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
    # positions and normals follow the one number rule
    for key, value, message in [
        ("position", [10**400, 0, 0], "'position' must be finite"),
        ("position", ["2.5", 0, 0], "'2.5' is not a number"),
        ("normal", [0, 0, True], "True is not a number"),
    ]:
        data = json.loads(structure_json_bytes(small_forest()))
        data["trees"][0]["nodes"][1][key] = value
        edited = tmp_path / f"edited-{key}.json"
        edited.write_text(json.dumps(data))
        with pytest.raises(ParseError, match=message):
            load_structure_json(edited)


def test_structure_json_flags_must_be_booleans_and_source_a_string(tmp_path):
    for key, value, message in [
        ("terminal", "false", "node 1 'terminal' must be true or false, not 'false'"),
        ("terminal", 1, "node 1 'terminal' must be true or false, not 1"),
        ("terminal", None, "node 1 'terminal' must be true or false, not None"),
        ("on_navmesh", 0, "node 1 'on_navmesh' must be true or false, not 0"),
        ("on_navmesh", "true", "node 1 'on_navmesh' must be true or false, not 'true'"),
        ("source", 7, "node 1 'source' must be a string, not 7"),
        ("source", ["sample"], "node 1 'source' must be a string, not \\['sample'\\]"),
    ]:
        data = json.loads(structure_json_bytes(small_forest()))
        data["trees"][0]["nodes"][1][key] = value
        edited = tmp_path / f"edited-{key}.json"
        edited.write_text(json.dumps(data))
        with pytest.raises(ParseError, match=message):
            load_structure_json(edited)
    # what the writer emits loads back unchanged
    path = tmp_path / "structure.json"
    export_structure(small_forest(), "json", path)
    loaded = load_structure_json(path)[0].payloads
    assert [(p.terminal, p.on_navmesh, p.source) for p in loaded.values()] == [
        (False, True, "sample"), (True, True, "sample"), (False, True, "sample"),
        (True, False, "sample")]


def _node_record(v, children, parent, depth):
    return {"children": children, "depth": depth, "id": v, "normal": [0, 0, 1],
            "on_navmesh": True, "parent": parent, "position": [v, 0, 0],
            "source": "sample", "terminal": False}


def test_structure_json_rejects_trees_that_children_do_not_form(tmp_path, time_limit):
    # small_forest: 0 -> [1, 2], 2 -> [3]
    def edit_node(v, **fields):
        def apply(nodes):
            nodes[v].update(fields)
        return apply

    cases = {
        "wrong parent": (edit_node(3, parent=0), "'parent' does not match"),
        "wrong depth": (edit_node(3, depth=1), "'depth' does not match"),
        "child that is no node": (edit_node(2, children=[3, 8]), "no node"),
        # two nodes that list each other: their parents agree with the lists,
        # but the root's walk never reaches them
        "unreachable nodes": (
            lambda nodes: nodes.extend(
                [_node_record(5, [6], 6, 1), _node_record(6, [5], 5, 2)]
            ),
            "'depth' does not match",
        ),
        "cycle through the root": (
            lambda nodes: (nodes[3].update(children=[0]), nodes[0].update(parent=3)),
            "'parent' does not match",
        ),
        "cycle below the root": (
            lambda nodes: (nodes[3].update(children=[2]), nodes[2].update(parent=3)),
            "'parent' does not match",
        ),
        # a second record for leaf 3 with another payload
        "repeated node": (
            lambda nodes: nodes.append({**nodes[3], "position": [9, 9, 9]}),
            "node 3 is listed twice",
        ),
    }
    for name, (edit, message) in cases.items():
        data = json.loads(structure_json_bytes(small_forest()))
        edit(data["trees"][0]["nodes"])
        path = tmp_path / f"{name.replace(' ', '-')}.json"
        path.write_text(json.dumps(data))
        with time_limit(5.0), pytest.raises(ParseError, match=message):
            load_structure_json(path)


def test_structure_json_reimport_is_byte_stable(tmp_path):
    for k, forest in enumerate(r.forest for r in _golden_runs()):
        path = tmp_path / f"golden-{k}.json"
        export_structure(forest, "json", path)
        assert structure_json_bytes(load_structure_json(path)) == path.read_bytes()


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
