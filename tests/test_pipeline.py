import dataclasses
import json
import logging
import random
import time
from dataclasses import fields

import numpy as np
import pytest

from navstruct.cli import _config_from_args, build_parser, main
from navstruct.errors import AlphaTooLarge, ValidationError
from navstruct.fixtures import graph_from_edges, maze_graph, straight_corridor
from navstruct.graph import relabel_dense
from navstruct.mesh import WalkableSurface, build_blocker_mesh, load_walkable_surface
from navstruct.pipeline import (
    STAGE_INITIAL,
    STAGE_POST,
    STAGE_ROOTING,
    STAGE_SIMPLIFY,
    STAGE_STEINER,
    STAGE_TERMINALS,
    PipelineConfig,
    run_extract,
    run_pipeline,
)
from navstruct.steiner import build_steiner_tree
from navstruct.terminals import TerminalSet, sample_boundary
from navstruct.trees import SimplifyConfig

STAGE_ORDER = [
    STAGE_INITIAL, STAGE_TERMINALS, STAGE_STEINER,
    STAGE_ROOTING, STAGE_SIMPLIFY, STAGE_POST,
]


def corridor_cfg(**kw):
    base = dict(terminals="entry-exit", interval=1.0, experiment="corridor")
    base.update(kw)
    return PipelineConfig(**base)


def chain_graph(n=4):
    return graph_from_edges(
        [(float(k), 0.0, 0.0) for k in range(n)],
        [(k, k + 1, 1.0) for k in range(n - 1)],
    )


def wall_blockers(x):
    """Vertical quad crossing the x axis at `x`, as two blocker triangles."""
    verts = [(x, -1, -1), (x, 1, -1), (x, 1, 1), (x, -1, 1)]
    return build_blocker_mesh(verts, [(0, 1, 2), (0, 2, 3)])


def write_chain_json(path, n=4, edges=None):
    data = {
        "nodes": [{"pos": [float(k), 0.0, 0.0]} for k in range(n)],
        "edges": edges if edges is not None else [[k, k + 1] for k in range(n - 1)],
    }
    path.write_text(json.dumps(data))
    return path


def write_corridor_files(corridor, tmp_path):
    surface, blockers = corridor
    surf = tmp_path / "corridor.json"
    surf.write_text(json.dumps({
        "vertices": [[float(x) for x in v] for v in surface.vertices],
        "polygons": [[int(i) for i in poly] for poly in surface.polygons],
    }))
    blk = tmp_path / "walls.json"
    blk.write_text(json.dumps({
        "vertices": [[float(x) for x in v] for v in blockers.vertices],
        "triangles": [[int(i) for i in t] for t in blockers.triangles],
    }))
    return surf, blk


# --- config validation ------------------------------------------------------

@pytest.mark.parametrize("overrides, message", [
    (dict(), "exactly one"),
    (dict(surface_path="s.obj", graph_path="g.json"), "exactly one"),
    (dict(graph_path="g.json"), "require a surface"),
    (dict(surface_path="s.obj", terminals="bogus"), "unknown terminal method"),
    (dict(surface_path="s.obj", metric="bogus"), "unknown terminal metric"),
    (dict(surface_path="s.obj", root_metric="bogus"), "unknown root metric"),
    (dict(surface_path="s.obj", centrality_weights="fancy"), "centrality weights"),
    (dict(surface_path="s.obj", interval=0.0), "interval must be positive"),
    (dict(surface_path="s.obj", radius=-1.0), "radius must be positive"),
    (dict(surface_path="s.obj", sharpness_deg=0.0), "sharpness_deg must be positive"),
    (dict(surface_path="s.obj", los_height_tol=0.0), "los_height_tol must be positive"),
    (dict(surface_path="s.obj", ray_count=0), "ray_count"),
    (dict(surface_path="s.obj", k=0), "k must be"),
    (dict(surface_path="s.obj", normal_tol_deg=95.0), "normal_tol_deg"),
    (dict(surface_path="s.obj", weld_eps=-1.0), "weld_eps"),
    (dict(surface_path="s.obj", plane_eps=0.0), "plane_eps"),
    (dict(surface_path="s.obj", density_buckets=1), "density_buckets"),
    (dict(surface_path="s.obj", exit_offset=-0.1), "exit_offset"),
    (dict(surface_path="s.obj", radius=float("inf")), "radius must be positive and finite"),
    (dict(surface_path="s.obj", los_height_tol=float("nan")), "los_height_tol must be"),
    (dict(surface_path="s.obj", plane_eps=float("nan")), "plane_eps must be positive and finite"),
    (dict(surface_path="s.obj", plane_eps=float("inf")), "plane_eps must be positive and finite"),
    (dict(surface_path="s.obj", weld_eps=float("inf")), "weld_eps must be >= 0 and finite"),
    (dict(surface_path="s.obj", weld_eps=float("nan")), "weld_eps must be >= 0 and finite"),
    (dict(surface_path="s.obj", exit_offset=float("nan")), "exit_offset must be >= 0 and finite"),
    (dict(surface_path="s.obj", exit_offset=float("inf")), "exit_offset must be >= 0 and finite"),
])
def test_config_validation_rejects(overrides, message):
    with pytest.raises(ValidationError, match=message):
        PipelineConfig(**overrides).validate()


def test_config_validation_with_loaded_inputs_skips_path_checks():
    PipelineConfig(terminals="leaves").validate(loaded=True)


def test_simplify_defaults_are_the_pipeline_defaults():
    assert SimplifyConfig() == PipelineConfig().simplify_config()


def test_metric_terminals_use_the_katz_alpha():
    # alpha 10 is far beyond 1/spectral-radius of any maze; rooting uses
    # betweenness, so only the terminal stage can raise
    cfg = PipelineConfig(terminals="metric", metric="katz", katz_alpha=10.0)
    with pytest.raises(AlphaTooLarge):
        run_pipeline(cfg, graph=maze_graph(6, 6))


def test_run_pipeline_requires_exactly_one_input():
    cfg = PipelineConfig(terminals="leaves")
    with pytest.raises(ValidationError, match="exactly one"):
        run_pipeline(cfg)
    with pytest.raises(ValidationError, match="require a surface"):
        run_pipeline(PipelineConfig(), graph=chain_graph())


# --- steiner subgraph -------------------------------------------------------

def test_steiner_subgraph_renumbers_densely():
    g = graph_from_edges(
        [(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0), (1, 1, 0), (2, 1, 0)],
        [
            (0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0),
            (1, 4, 1.0), (4, 5, 1.0), (2, 5, 1.0),
        ],
    )
    tree = build_steiner_tree(
        g, TerminalSet(node_ids=[0, 3, 5], selection_method="metric")
    )
    sub = relabel_dense({v: g.nodes[v] for v in tree.nodes}, tree.edges)
    index = sub.node_index
    assert index == {0: 0, 1: 1, 2: 2, 3: 3, 5: 4}
    assert sub.node_index == index
    assert sub.edges == [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (2, 4, 1.0)]
    assert np.allclose(sub.nodes[4].position, g.nodes[5].position)


# --- pipeline routes --------------------------------------------------------

def test_corridor_extraction_stage_by_stage(corridor):
    surface, blockers = corridor
    result = run_pipeline(corridor_cfg(), surface=surface, blockers=blockers)
    report = result.report
    assert [s.name for s in report.stages] == STAGE_ORDER
    assert all(s.millis >= 0.0 for s in report.stages)
    assert report.total_millis > 0.0
    assert report.experiment == "corridor"

    assert report.stage(STAGE_INITIAL).nodes == 12
    assert report.stage(STAGE_INITIAL).edges == 11
    assert report.stage(STAGE_TERMINALS).nodes == 14
    assert report.stage(STAGE_TERMINALS).edges == 13
    assert report.stage(STAGE_TERMINALS).terminals == 2
    assert report.stage(STAGE_STEINER).nodes == 14
    assert report.stage(STAGE_STEINER).edges == 13
    assert report.stage(STAGE_SIMPLIFY).nodes == 3
    assert report.stage(STAGE_SIMPLIFY).edges == 2

    assert result.terminal_set.node_ids == [12, 13]
    (tree,) = result.forest
    assert tree.root == 5
    assert tree.node_ids() == [5, 12, 13]
    assert result.analysis_graph is None
    assert report.node_analysis is None


def test_corridor_analyze_recolors_the_structure(corridor):
    surface, blockers = corridor
    result = run_pipeline(
        corridor_cfg(analyze=True), surface=surface, blockers=blockers
    )
    assert result.analysis_graph is not None
    assert len(result.analysis_graph.nodes) == 3
    assert result.report.density_thresholds == [0.0, 0.0]
    assert result.report.node_analysis == [
        {"id": 5, "position": [5.5, 0.5, 0.0], "betweenness": 1.0, "density": "high"},
        {"id": 12, "position": [12.0, 0.0, 0.0], "betweenness": 0.0, "density": "low"},
        {"id": 13, "position": [0.0, 1.0, 0.0], "betweenness": 0.0, "density": "low"},
    ]


def test_graph_route_without_visibility_skips_simplify(caplog):
    cfg = PipelineConfig(terminals="leaves", experiment="chain")
    with caplog.at_level(logging.WARNING, logger="navstruct"):
        result = run_pipeline(cfg, graph=chain_graph())
    assert "simplification skipped" in caplog.text
    (tree,) = result.forest
    assert tree.root == 1  # betweenness tie between 1 and 2; both at the centroid
    assert tree.node_ids() == [0, 1, 2, 3]
    assert result.report.stage(STAGE_SIMPLIFY).nodes == 4


def test_graph_route_with_blockers_collapses_clear_spans():
    cfg = PipelineConfig(terminals="leaves", experiment="chain")
    result = run_pipeline(cfg, graph=chain_graph(), blockers=wall_blockers(100.0))
    (tree,) = result.forest
    assert tree.node_ids() == [0, 1, 3]


def test_graph_route_with_blockers_respects_a_wall():
    cfg = PipelineConfig(terminals="leaves", experiment="chain")
    result = run_pipeline(cfg, graph=chain_graph(), blockers=wall_blockers(2.5))
    (tree,) = result.forest
    assert tree.node_ids() == [0, 1, 2, 3]


def test_run_extract_loads_files(corridor, tmp_path):
    surf, blk = write_corridor_files(corridor, tmp_path)
    cfg = corridor_cfg(surface_path=str(surf), blockers_path=str(blk))
    result = run_extract(cfg)
    assert result.forest[0].node_ids() == [5, 12, 13]


# --- command line -----------------------------------------------------------

def test_cli_extract_graph_route(tmp_path):
    gp = write_chain_json(tmp_path / "chain.json")
    out = tmp_path / "out"
    code = main(["extract", "--graph", str(gp), "--terminals", "leaves",
                 "--out", str(out)])
    assert code == 0
    structure = json.loads((out / "structure.json").read_text())
    (tree,) = structure["trees"]
    assert tree["root"] == 1
    assert len(tree["nodes"]) == 4
    report = json.loads((out / "report.json").read_text())
    assert report["experiment"] == "chain"
    assert [s["name"] for s in report["stages"]] == STAGE_ORDER
    assert "node_analysis" not in report
    assert (out / "report.txt").read_text().startswith("experiment: chain\n")


def test_cli_extract_surface_route(corridor, tmp_path):
    surf, blk = write_corridor_files(corridor, tmp_path)
    out = tmp_path / "out"
    code = main(["extract", "--surface", str(surf), "--blockers", str(blk),
                 "--interval", "1.0", "--out", str(out),
                 "--format", "json", "--format", "obj"])
    assert code == 0
    assert (out / "overlay.obj").exists()
    assert not (out / "structure.dot").exists()
    structure = json.loads((out / "structure.json").read_text())
    assert structure["trees"][0]["root"] == 5
    assert len(structure["trees"][0]["nodes"]) == 3


def test_cli_analyze_adds_recoloring(corridor, tmp_path):
    surf, blk = write_corridor_files(corridor, tmp_path)
    out = tmp_path / "out"
    code = main(["analyze", "--surface", str(surf), "--blockers", str(blk),
                 "--interval", "1.0", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["density_thresholds"] == [0.0, 0.0]
    assert [rec["id"] for rec in report["node_analysis"]] == [5, 12, 13]
    assert [rec["density"] for rec in report["node_analysis"]] == ["high", "low", "low"]
    assert "density thresholds: [0, 0]" in (out / "report.txt").read_text()


def test_cli_config_file_fills_unset_flags(tmp_path):
    gp = write_chain_json(tmp_path / "chain.json")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# demo configuration\n"
        "terminals = leaves\n"
        "format = dot, obj\n"
        "exit-offset = 0.0\n"
    )
    out = tmp_path / "out"
    code = main(["extract", "--graph", str(gp), "--config", str(cfg),
                 "--out", str(out)])
    assert code == 0
    assert (out / "structure.dot").exists()
    assert (out / "overlay.obj").exists()
    assert not (out / "structure.json").exists()


def test_cli_explicit_flags_beat_the_config_file(tmp_path):
    gp = write_chain_json(tmp_path / "chain.json")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("terminals = metric\nk = 2\n")
    out = tmp_path / "out"
    code = main(["extract", "--graph", str(gp), "--config", str(cfg),
                 "--terminals", "leaves", "--out", str(out)])
    assert code == 0
    structure = json.loads((out / "structure.json").read_text())
    assert len(structure["trees"][0]["nodes"]) == 4  # leaves route, not top-2 metric


def test_cli_defaults_are_the_library_defaults():
    args = build_parser().parse_args(["extract", "--surface", "s.obj"])
    assert _config_from_args(args, analyze=False) == PipelineConfig(
        surface_path="s.obj", experiment="s"
    )
    inputs = {"surface_path", "blockers_path", "graph_path", "analyze", "experiment"}
    tuning = [f.name for f in fields(PipelineConfig) if f.name not in inputs]
    assert len(tuning) == 16
    io_flags = {"config", "surface", "blockers", "graph", "out", "format", "experiment"}
    assert set(args.options) == io_flags | set(tuning)
    for name in tuning:  # one flag per field, named after it
        assert args.options[name].option_strings == ["--" + name.replace("_", "-")]


@pytest.mark.parametrize("text, message", [
    ("bogus = 1\n", "unknown config key"),
    ("k = abc\n", "bad value"),
    ("terminals = bogus\n", "bad value"),
    ("just-some-words\n", "expected key = value"),
])
def test_cli_rejects_bad_config_files(tmp_path, capsys, text, message):
    gp = write_chain_json(tmp_path / "chain.json")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    code = main(["extract", "--graph", str(gp), "--config", str(cfg),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert message in capsys.readouterr().err


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["extract", "--out", str(tmp_path)]) == 2  # no input at all
    assert "error:" in capsys.readouterr().err

    with pytest.raises(SystemExit) as exc:  # argparse rejects an unknown command
        main(["bench", "--out", str(tmp_path)])
    assert exc.value.code == 2
    capsys.readouterr()

    missing = tmp_path / "missing.json"
    assert main(["extract", "--graph", str(missing), "--terminals", "leaves",
                 "--out", str(tmp_path)]) == 4
    assert "i/o error:" in capsys.readouterr().err

    split = write_chain_json(tmp_path / "split.json", n=4, edges=[[0, 1], [2, 3]])
    assert main(["extract", "--graph", str(split), "--terminals", "leaves",
                 "--out", str(tmp_path)]) == 3

    ring = write_chain_json(
        tmp_path / "ring.json", n=4, edges=[[0, 1], [1, 2], [2, 3], [0, 3]]
    )
    assert main(["extract", "--graph", str(ring), "--terminals", "leaves",
                 "--out", str(tmp_path)]) == 2
    assert "degree-1" in capsys.readouterr().err


_CHAIN = {"nodes": [{"pos": [0, 0, 0]}, {"pos": [1, 0, 0]}], "edges": [[0, 1]]}


def _edit(key, value, at=None):
    """An edit of the corridor's surface or wall JSON: set `key`, or entry
    `at` of its first record, to `value`."""
    def edit(data):
        if at is None:
            data[key] = value
        else:
            data[key][0][at] = value
    return edit


# A name starting with "surface" or "walls" is read as --surface or
# --blockers next to the corridor's valid files, a .cfg as --config, and any
# other name as --graph.  A callable edits the corridor's own JSON file.
@pytest.mark.parametrize("name, text", [
    ("nodes.json", json.dumps({"nodes": 5, "edges": []})),
    ("edge.json", json.dumps({**_CHAIN, "edges": [[0, "x"]]})),
    ("pos.json", json.dumps({**_CHAIN, "nodes": [{"pos": ["nan", 0, 0]}, {"pos": [1, 0, 0]}]})),
    ("weight.json", json.dumps({**_CHAIN, "edges": [[0, 1, "nan"]]})),
    ("surface.obj", "v 0 0 0\nv 1 0 0\nv 2 0 0\nv 0 1 0\nv 1 1 nan\nv 2 1 0\n"
                    "f 1 2 5 4\nf 2 3 6 5\n"),
    ("index.json", json.dumps({**_CHAIN, "edges": [[0, 1.9]]})),
    ("latin1.json", b'{"nodes": [], "edges": [], "name": "caf\xe9"}'),
    ("surface-latin1.obj", b"# caf\xe9\nv 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n"),
    ("surface-ring.json", _edit("polygons", 1.4, at=1)),
    ("walls-nan.json", _edit("vertices", float("nan"), at=0)),
    ("walls-text.json", _edit("vertices", "x", at=0)),
    ("walls-number.json", _edit("triangles", 5)),
    ("walls-letter.json", _edit("triangles", "a", at=2)),
    ("walls-fraction.json", _edit("triangles", 2.7, at=2)),
    ("walls-huge.json", _edit("triangles", 10**20, at=2)),
    ("latin1.cfg", b"# caf\xe9\nk = 2\n"),
    ("zero-normal.json", json.dumps({**_CHAIN, "nodes": [{"pos": [0, 0, 0], "normal": [0, 0, 0]},
                                                         {"pos": [1, 0, 0]}]})),
    ("surface-overflow.json", _edit("vertices", 1e200, at=0)),
    ("walls-overflow.json", _edit("vertices", -1e308, at=1)),
    # each path sum is finite by itself, but 0 -> 2 overflows
    ("weight-overflow.json", json.dumps({
        "nodes": [{"pos": [k, 0, 0]} for k in range(3)],
        "edges": [[0, 1, 1e308], [1, 2, 1e308]],
    })),
])
def test_cli_rejects_malformed_inputs_with_one_error_line(corridor, tmp_path, capsys, name, text):
    surf, walls = write_corridor_files(corridor, tmp_path)
    if callable(text):
        data = json.loads((surf if name.startswith("surface") else walls).read_text())
        text(data)
        text = json.dumps(data)
    path = tmp_path / name
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    if name.startswith("surface"):
        inputs = ["--surface", str(path)]
    elif name.startswith("walls"):
        inputs = ["--surface", str(surf), "--blockers", str(path)]
    elif name.endswith(".cfg"):
        chain = write_chain_json(tmp_path / "chain.json")
        inputs = ["--graph", str(chain), "--terminals", "leaves", "--config", str(path)]
    else:
        inputs = ["--graph", str(path), "--terminals", "leaves"]
    code = main(["extract", *inputs, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert len([line for line in err.splitlines() if line.startswith("error:")]) == 1


@pytest.mark.parametrize("flag, value, message", [
    ("--plane-eps", "nan", "plane_eps must be positive and finite"),
    ("--plane-eps", "inf", "plane_eps must be positive and finite"),
    ("--exit-offset", "nan", "exit_offset must be >= 0 and finite"),
])
def test_cli_rejects_non_finite_tolerances(corridor, tmp_path, capsys, flag, value, message):
    """A NaN or infinite plane_eps would switch the planarity and convexity
    checks off, and a NaN exit offset would reach the KD-tree."""
    surf, walls = write_corridor_files(corridor, tmp_path)
    reflex = tmp_path / "reflex.json"
    reflex.write_text(json.dumps({
        "vertices": [[0, 0, 0], [2, 0, 0], [2, 2, 0], [1, 0.5, 0], [0, 2, 0]],
        "polygons": [[0, 1, 2, 3, 4]],
    }))
    out = str(tmp_path / "out")
    assert main(["extract", "--surface", str(reflex), "--out", out]) == 2
    assert "non-convex" in capsys.readouterr().err
    inputs = ["--surface", str(reflex if flag == "--plane-eps" else surf), "--blockers", str(walls)]
    assert main(["extract", *inputs, flag, value, "--out", out]) == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error:")] == [f"error: {message}"]


def test_cli_caps_the_boundary_samples(tmp_path, capsys):
    surface, _walls = straight_corridor(6)
    argv = {}
    for x in (-1e20, -1e4):
        verts = surface.vertices.copy()
        verts[0, 0] = x  # the first square stays convex, its boundary long
        path = tmp_path / f"far{x:g}.obj"
        path.write_text(_obj_text(verts, surface.polygons))
        argv[x] = ["extract", "--surface", str(path), "--interval", "1",
                   "--out", str(tmp_path / f"out{x:g}")]
    start = time.perf_counter()
    assert main(argv[-1e20]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        "error: boundary sampling at interval 1 needs more than 1000000 samples"
    ]
    # one sample per unit of the boundary is well under the cap
    assert len(sample_boundary(load_walkable_surface(argv[-1e4][2]), 1.0)) == 20_013
    assert main(argv[-1e4]) == 0


_BAD_COORDS = [float("nan"), float("inf"), -float("inf"), 1e308, -1e308, 1e200]
_BAD_INDICES = [0, -3, 2.5, 10**20, 1e308]
_BAD_TYPES = ["x", None, True, [], {}, [1, 2], {"pos": 1}]


def _obj_text(verts, faces):
    return "".join(
        [f"v {x!r} {y!r} {z!r}\n" for x, y, z in verts.tolist()]
        + ["f " + " ".join(str(i + 1) for i in face) + "\n" for face in faces]
    )


def _mutate_obj(rng, text):
    """One coordinate made non-finite or overflowing, or one face index made
    huge, negative, zero or fractional."""
    lines = text.splitlines()
    tag = rng.choice("vf")
    k = rng.choice([i for i, line in enumerate(lines) if line.startswith(tag + " ")])
    fields = lines[k].split()
    fields[rng.randrange(1, len(fields))] = str(
        rng.choice(_BAD_COORDS if tag == "v" else _BAD_INDICES))
    lines[k] = " ".join(fields)
    return "\n".join(lines) + "\n"


def _mutate_graph(rng, text):
    """One position, normal, edge index or weight made bad, or one value
    anywhere replaced by a wrong JSON type."""
    data = json.loads(text)
    node, edge = rng.choice(data["nodes"]), rng.choice(data["edges"])
    kind = rng.randrange(3)
    if kind == 0:
        node[rng.choice(["pos", "normal"])][rng.randrange(3)] = rng.choice(_BAD_COORDS + [0.0])
    elif kind == 1:
        edge[rng.randrange(len(edge))] = rng.choice(_BAD_INDICES)
    else:
        holder, key = rng.choice([
            (data, "nodes"), (data, "edges"), (data["nodes"], 0), (node, "pos"),
            (node, "normal"), (node["pos"], 1), (data["edges"], 0), (edge, 0), (edge, 2),
        ])
        holder[key] = rng.choice(_BAD_TYPES)
    return json.dumps(data)


def test_cli_survives_seeded_malformed_inputs(tmp_path, capsys):
    """About 200 seeded mutations of a corridor's surface and wall OBJ files
    and of a maze graph's JSON: truncation, byte flips, non-finite and
    overflowing numbers, bad indices and wrong JSON types.  The command never
    raises, and every failure prints exactly one error line."""
    surface, walls = straight_corridor(6)
    maze = maze_graph(6, 6)
    originals = {
        "surface.obj": _obj_text(surface.vertices, surface.polygons),
        "walls.obj": _obj_text(walls.vertices, walls.triangles.tolist()),
        "graph.json": json.dumps({
            "nodes": [{"pos": n.position.tolist(), "normal": n.normal.tolist()}
                      for n in maze.nodes],
            "edges": [list(e) for e in maze.edges],
        }),
    }
    for name, text in originals.items():
        (tmp_path / name).write_text(text)
    rng = random.Random(5)
    started = time.perf_counter()
    codes = []
    for case in range(200):
        name = rng.choice(sorted(originals))
        data = originals[name].encode()
        kind = rng.randrange(3)
        if kind == 0:
            data = data[:rng.randrange(len(data))]
        elif kind == 1:
            flipped = bytearray(data)
            flipped[rng.randrange(len(data))] = rng.randrange(256)
            data = bytes(flipped)
        else:
            mutate = _mutate_graph if name == "graph.json" else _mutate_obj
            data = mutate(rng, originals[name]).encode()
        path = tmp_path / f"mutated-{name}"
        path.write_bytes(data)
        if name == "graph.json":
            inputs = ["--graph", str(path), "--terminals", "leaves"]
        else:
            files = {n: str(tmp_path / n) for n in originals}
            files[name] = str(path)
            inputs = ["--surface", files["surface.obj"], "--blockers", files["walls.obj"]]
        code = main(["extract", *inputs, "--interval", "1.0", "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        codes.append(code)
        if code:
            assert len([line for line in err.splitlines() if line.startswith("error:")]) == 1, (
                case, name, err)
    assert time.perf_counter() - started < 5.0
    assert set(codes) >= {0, 2}


_CONFIG = """\
# corridor run
terminals = entry-exit
interval = 1.0
radius = 1.0
ray-count = 5
sharpness-deg = 45
exit-offset = 0.0
plane-eps = 1e-4
weld-eps = 0
normal-tol-deg = 15
los-height-tol = 0.5
metric = degree
root-metric = katz
centrality-weights = euclidean
k = 4
katz-alpha = 0.05
density-buckets = 3
format = json, dot
"""
_BAD_VALUES = [
    "nan", "inf", "-inf", "1e999", "-1e999", "1e308", "-1e308",  # non-finite and overflowing
    "abc", "2.5", "-3", "0", "", "0x10", "1_0",  # bad numbers and ints
    "bogus", "Leaves", "json, svg",  # bad choices
]


def _mutate_config(rng, text):
    """One line of a key = value file with a bad value, an unknown key, its
    '=' gone or its key blank; or the file truncated or one byte flipped."""
    kind = rng.randrange(6)
    if kind == 0:
        return text.encode()[:rng.randrange(len(text))]
    if kind == 1:
        data = bytearray(text.encode())
        data[rng.randrange(len(data))] = rng.randrange(256)
        return bytes(data)
    lines = text.splitlines()
    k = rng.randrange(1, len(lines))
    key, value = (part.strip() for part in lines[k].split("=", 1))
    lines[k] = [
        f"{key} = {rng.choice(_BAD_VALUES)}",
        f"{key}-x = {value}",
        f"{key} {value}",
        f"= {value}",
    ][kind - 2]
    return ("\n".join(lines) + "\n").encode()


def test_cli_survives_seeded_config_mutations(tmp_path, capsys):
    """100 seeded mutations of a --config file: unknown keys, missing '=',
    non-finite and overflowing floats, bad ints and choices, truncation and
    byte flips.  The command exits 0 or 2, never raises, and every failure
    prints exactly one error line."""
    surf, walls = write_corridor_files(straight_corridor(6), tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_CONFIG)
    argv = ["extract", "--surface", str(surf), "--blockers", str(walls), "--config", str(cfg),
            "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    rng = random.Random(8)
    codes = []
    for case in range(100):
        cfg.write_bytes(_mutate_config(rng, _CONFIG))
        code = main(argv)
        err = capsys.readouterr().err
        codes.append(code)
        assert code in (0, 2), (case, cfg.read_bytes(), err)
        if code:
            assert len([line for line in err.splitlines() if line.startswith("error:")]) == 1, (
                case, cfg.read_bytes(), err)
    assert set(codes) == {0, 2}


def test_cli_oracle_suites_pass(capsys):
    assert main(["oracle", "--instances", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) >= 4
    assert any(line.startswith("oracle betweenness-forest: ") for line in lines)
    assert lines[-3].startswith("oracle locate-linear: ")
    assert lines[-2].startswith("oracle raycast-full: ")
    assert lines[-1].startswith("oracle dijkstra-tree: ")
    for line in lines:
        assert line.startswith("oracle ")
        assert ": PASS (" in line


class _CountingTree:
    """A KD-tree that records how many ids each ball query returns."""

    def __init__(self, tree):
        self.tree = tree
        self.sizes = []

    def __getattr__(self, name):
        return getattr(self.tree, name)

    def query_ball_point(self, *args, **kwargs):
        ids = self.tree.query_ball_point(*args, **kwargs)
        self.sizes.append(len(ids))
        return ids


def test_corridor200_point_location_and_ray_candidates_stay_local(monkeypatch):
    # a whole-mesh scan tests about 100 polygons per locate and 800 triangles per ray
    surface, blockers = straight_corridor(200)
    assert len(blockers.triangles) == 800
    contains, locate = WalkableSurface.contains_point, WalkableSurface.locate_point
    contains_calls = []
    per_locate = []

    def counting_contains(self, *args):
        contains_calls.append(args[0])
        return contains(self, *args)

    def counting_locate(self, *args):
        before = len(contains_calls)
        found = locate(self, *args)
        per_locate.append(len(contains_calls) - before)
        return found

    monkeypatch.setattr(WalkableSurface, "contains_point", counting_contains)
    monkeypatch.setattr(WalkableSurface, "locate_point", counting_locate)
    tree = _CountingTree(blockers.triangle_tree)
    blockers = dataclasses.replace(blockers, triangle_tree=tree)
    run_pipeline(PipelineConfig(terminals="entry-exit"), surface=surface, blockers=blockers)
    assert len(per_locate) > 200
    assert max(per_locate) <= 10
    # every first_hit here is a fan ray, and each makes one ball query
    assert len(tree.sizes) > 4000
    assert max(tree.sizes) <= 64
