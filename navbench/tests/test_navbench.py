"""Tests of the benchmark itself: inputs, correctness check, tracer, tables.

Run with `python3 -m pytest navbench/tests`.
"""
import json
from pathlib import Path

import pytest

import gen
import run
import tracing
import worker
from check import check_output
from navstruct import cli
from navstruct import pipeline

ROOT = Path(__file__).resolve().parents[2]


def _tree(path: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_generator_is_deterministic(tmp_path, workload):
    gen.generate(workload, 7, tmp_path / "a")
    gen.generate(workload, 7, tmp_path / "b")
    gen.generate(workload, 8, tmp_path / "c")
    assert _tree(tmp_path / "a") == _tree(tmp_path / "b")
    assert _tree(tmp_path / "a") != _tree(tmp_path / "c")


def _records(path: Path, tag: str) -> int:
    return sum(1 for line in path.read_text().splitlines() if line.startswith(tag + " "))


def test_generated_sizes(tmp_path):
    gen.generate("maze-graph", 3, tmp_path / "maze")
    graph = json.loads((tmp_path / "maze" / "maze.json").read_text())
    assert len(graph["nodes"]) == 900 and len(graph["edges"]) == 899
    # one wall quad per unused lattice link: 2 * 30 * 29 links in all
    assert _records(tmp_path / "maze" / "walls.obj", "f") == 2 * (2 * 30 * 29 - 899)
    gen.generate("corridor-surface", 3, tmp_path / "corridor")
    assert _records(tmp_path / "corridor" / "surface.obj", "f") == 200
    assert _records(tmp_path / "corridor" / "walls.obj", "f") == 800
    gen.generate("level-surface", 3, tmp_path / "level")
    assert _records(tmp_path / "level" / "surface.obj", "f") == 24 * 24 - 36
    gen.generate("grid-metric", 3, tmp_path / "grid")
    assert _records(tmp_path / "grid" / "surface.obj", "f") == 45 * 45
    assert not (tmp_path / "grid" / "walls.obj").exists()


def _extract(tmp_path, make, **size):
    """Small instance of a workload: run it through the CLI, return the
    output directory and the reference the benchmark checks it against."""
    inputs = tmp_path / "in"
    inputs.mkdir()
    command, options = make(inputs, 5, **size)
    out = tmp_path / "out"
    argv = [command] + [a for k, v in options.items() for a in (f"--{k}", str(v))]
    assert cli.main(argv + ["--out", str(out)] + worker.FORMATS) == 0
    return out, worker.reference(command, options)


def _rewrite(out: Path, edit) -> None:
    path = out / "structure.json"
    data = json.loads(path.read_text())
    edit(data["trees"][0])
    path.write_text(json.dumps(data))


def _nodes(tree) -> dict:
    return {n["id"]: n for n in tree["nodes"]}


def _move(tree, child, new_parent) -> None:
    nodes = _nodes(tree)
    old = nodes[child]["parent"]
    nodes[old]["children"].remove(child)
    nodes[new_parent]["children"] = sorted(nodes[new_parent]["children"] + [child])
    nodes[child]["parent"] = new_parent
    nodes[child]["depth"] = nodes[new_parent]["depth"] + 1


SMALL = [(gen.maze_graph, {"size": 8}), (gen.level_surface, {"size": 12, "doorways_per_side": 2}),
         (gen.corridor_surface, {"length": 20})]


@pytest.mark.parametrize("make,size", SMALL)
def test_check_accepts_the_program_output(tmp_path, make, size):
    out, ref = _extract(tmp_path, make, **size)
    assert ref.problems == []
    assert check_output(out, ref) == []


@pytest.mark.parametrize("make,size", SMALL)
def test_check_rejects_a_dropped_terminal(tmp_path, make, size):
    out, ref = _extract(tmp_path, make, **size)

    def drop(tree):
        leaf = next(n for n in tree["nodes"] if n["terminal"] and not n["children"])
        _nodes(tree)[leaf["parent"]]["children"].remove(leaf["id"])
        tree["nodes"].remove(leaf)

    _rewrite(out, drop)
    assert any("missing from the forest" in p for p in check_output(out, ref))


@pytest.mark.parametrize("make,size", SMALL[:2])
def test_check_rejects_an_edge_without_line_of_sight(tmp_path, make, size):
    out, ref = _extract(tmp_path, make, **size)
    tree = json.loads((out / "structure.json").read_text())["trees"][0]
    nodes = _nodes(tree)

    def descendants(v):
        out = {v}
        for c in nodes[v]["children"]:
            out |= descendants(c)
        return out

    leaf = next(v for v, n in nodes.items() if not n["children"] and n["parent"] is not None)
    blocked = next(p for p in sorted(nodes) if p not in descendants(leaf)
                   and not ref.los(ref.positions[p], ref.positions[leaf]))
    _rewrite(out, lambda t: _move(t, leaf, blocked))
    problems = check_output(out, ref)
    assert f"edge {blocked} -> {leaf} has no line of sight" in problems


def test_check_rejects_a_node_in_two_trees(tmp_path):
    out, ref = _extract(tmp_path, gen.maze_graph, size=8)
    path = out / "structure.json"
    data = json.loads(path.read_text())
    data["trees"].append({"root": data["trees"][0]["root"], "nodes": [
        dict(_nodes(data["trees"][0])[data["trees"][0]["root"]], children=[])]})
    path.write_text(json.dumps(data))
    assert any("appears twice" in p for p in check_output(out, ref))


def test_tracer_spans_nest_and_patches_are_restored(tmp_path):
    out, _ref = _extract(tmp_path, gen.corridor_surface, length=20)
    before = pipeline.build_steiner_tree
    tracer = tracing.Tracer()
    tracer.install()
    argv = ["extract", "--surface", str(tmp_path / "in" / "surface.obj"), "--blockers",
            str(tmp_path / "in" / "walls.obj"), "--out", str(out)]
    try:
        assert tracer.extraction("root", cli.main, argv) == 0
    finally:
        tracer.uninstall()
    assert pipeline.build_steiner_tree is before
    assert tracer.skipped == []
    (row,) = tracer.layer_totals()
    assert row["root.calls"] == 1
    assert row["steiner.build_steiner_tree.calls"] == 1
    assert row["raycast.first_hit.calls"] > 0
    assert row["mesh.contains_point.calls@mesh.locate_point"] > 0
    assert 0 <= row["raycast.first_hit.self_s"] <= row["raycast.first_hit.total_s"]
    names = {s[1] for s in tracer.spans}
    parents = {s[1]: tracer.spans[s[2]][1] for s in tracer.spans if s[2] is not None}
    assert parents["raycast.first_hit"] in names
    assert parents["terminals.entry_exit_terminals"] == "root"
    tracer.write(tmp_path / "spans.jsonl")
    assert len((tmp_path / "spans.jsonl").read_text().splitlines()) == len(tracer.spans)


def test_tail_is_the_highest_percentile_with_ten_beyond():
    values = [float(v) for v in range(1, 41)]
    assert run.tail(values) == (30.0, 75.0, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (1.0, 100.0 / 3, 2)


def test_benchmark_json_matches_the_benchmark():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in bench["workloads"]} == set(gen.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
