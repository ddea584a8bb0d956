"""navbench: the navstruct benchmark.

    python3 navbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's input files from the seed, measures the set-up time
of a fresh interpreter importing `navstruct.cli`, then starts one worker
process that runs extractions through `navstruct.cli.main` for S seconds and
checks every output (see worker.py).  Every time is rescaled to a fixed
machine speed measured next to it (see calib.py); the raw wall times are kept
in the result file.  Prints each metric with its unit and, as
the last line, one JSON object:
`{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}` holding
the end-to-end metrics with --trace 0 and the per-layer metrics with
--trace 1.  The full result, with the environment it ran in, goes to
.navbench/results/ under the repository root; the spans of a traced run go
next to it.

navstruct is imported from src/ next to this directory, never from an
installed copy: without src/navstruct the benchmark exits with code 2.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
from calib import CALIBRATION_REF_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".navbench"
SETUP_PROBES = 5
RUN_LIMIT_S = 170   # a run must end within 180 s
TAIL_BEYOND = 10    # samples that must lie beyond the tail percentile
PROBE = ("import sys, time; t = time.perf_counter(); import navstruct.cli; "
         "t = time.perf_counter() - t; sys.path.insert(0, {here!r}); "
         "from calib import calibrate; print(t, calibrate())").format(here=str(HERE))

END_TO_END = {
    "extract_s.p50": "s",
    "extract_s.tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "structure_nodes": "count",
    "steiner_weight": "length",
}

STAGES = {
    "initial-graph": "pipeline.initial_graph_s",
    "terminals": "pipeline.terminals_s",
    "steiner": "pipeline.steiner_s",
    "rooting": "pipeline.rooting_s",
    "simplify": "pipeline.simplify_s",
    "post-process": "pipeline.post_process_s",
}

# per-layer metric -> unit; each is read from the tracer's per-extraction
# totals (tracing.py) except the stage times, the ratios and the overhead
PER_LAYER = {
    **{name: "s" for name in STAGES.values()},
    "raycast.first_hit.calls": "count",
    "raycast.first_hit.self_s": "s",
    "raycast.segment_clear.calls": "count",
    "raycast.segment_clear.self_s": "s",
    "raycast.triangles_tested": "count",
    "raycast.hit_ratio": "ratio",
    "mesh.locate_point.calls": "count",
    "mesh.locate_point.self_s": "s",
    "mesh.contains_point.calls": "count",
    "mesh.polygons_per_locate": "count",
    "mesh.load_walkable_surface.self_s": "s",
    "mesh.load_blocker_mesh.self_s": "s",
    "trees.surface_los.calls": "count",
    "trees.surface_los.self_s": "s",
    "trees.can_simplify.calls": "count",
    "trees.simplify_tree.self_s": "s",
    "trees.find_rooted_trees.self_s": "s",
    "trees.removal_ratio": "ratio",
    "algorithms.betweenness_centrality.calls": "count",
    "algorithms.betweenness_centrality.self_s": "s",
    "algorithms.sssp_sources": "count",
    "algorithms.eigenvector_centrality.self_s": "s",
    "algorithms.dense_bytes": "B",
    "algorithms.dijkstra_tree.calls": "count",
    "steiner.build_steiner_tree.self_s": "s",
    "terminals.entry_exit_terminals.self_s": "s",
    "terminals.terminals_from_metric.self_s": "s",
    "graph.load_graph_json.self_s": "s",
    "graph.graph_from_navmesh.self_s": "s",
    "analysis.forest_to_graph.self_s": "s",
    "export.export_structure.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) of the highest percentile with
    at least TAIL_BEYOND samples beyond it; with too few samples for that,
    the lowest sample, which has the most beyond it."""
    ordered = sorted(values)
    rank = max(1, len(ordered) - TAIL_BEYOND)
    return ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered) - rank


def layer_metrics(rows: list[dict]) -> dict[str, float]:
    """Median over traced extractions of each per-layer metric."""
    derived = []
    for r in rows:
        d = dict(r)
        d["raycast.hit_ratio"] = _ratio(r.get("raycast.hits", 0), r.get("raycast.first_hit.calls", 0))
        d["mesh.polygons_per_locate"] = _ratio(
            r.get("mesh.contains_point.calls@mesh.locate_point", 0), r.get("mesh.locate_point.calls", 0))
        d["trees.removal_ratio"] = _ratio(r.get("trees.removals", 0), r.get("trees.can_simplify.calls", 0))
        derived.append(d)
    names = [n for n in PER_LAYER if n not in STAGES.values() and n != "trace.overhead_ratio"]
    return {n: statistics.median(d.get(n, 0) for d in derived) for n in names}


def worker_env(nproc: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["STRUCT_LOG"] = "error"
    threads = str(min(2, nproc))   # BLAS may use the two CPUs a run is allowed
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def measure_setup(env: dict, cwd: Path) -> list[tuple[float, float]]:
    """(seconds a fresh interpreter spends importing navstruct.cli, the
    calibration's seconds right after) per probe."""
    probes = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run([sys.executable, "-c", PROBE], env=env, cwd=cwd,
                             capture_output=True, text=True, timeout=60, check=True)
        seconds, calibration = map(float, out.stdout.split())
        probes.append((seconds, calibration))
    return probes


def rescaled(seconds: float, calibration_s: float) -> float:
    return seconds * CALIBRATION_REF_S / calibration_s


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() or None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    began = time.monotonic()

    if not (SRC / "navstruct" / "cli.py").is_file():
        sys.stderr.write(f"navbench: no navstruct sources under {SRC}\n")
        return 2
    name = f"{args.workload}-seed{args.seed}"
    work = STATE / name
    command, options = gen.generate(args.workload, args.seed, work / "inputs")
    nproc = len(os.sched_getaffinity(0))
    env = worker_env(nproc)
    setup = measure_setup(env, work) if not args.trace else []

    spec_path = work / f"spec-trace{args.trace}.json"
    result_path = work / f"result-trace{args.trace}.json"
    result_path.unlink(missing_ok=True)
    spec = {"src": str(SRC), "command": command, "options": options, "out": str(work / "out"),
            "seconds": args.seconds, "trace": args.trace, "result": str(result_path),
            "spans": str(work / "spans.jsonl")}
    spec_path.write_text(json.dumps(spec))
    worker = subprocess.Popen([sys.executable, str(HERE / "worker.py"),
                               str(spec_path)], env=env, cwd=work, stdout=sys.stderr)
    try:
        rc = worker.wait(timeout=RUN_LIMIT_S - (time.monotonic() - began))
    except subprocess.TimeoutExpired:
        worker.kill()
        worker.wait()
        sys.stderr.write("navbench: worker timed out\n")
        return 1
    if rc != 0 or not result_path.exists():
        sys.stderr.write(f"navbench: worker failed with exit code {rc}\n")
        return 1
    res = json.loads(result_path.read_text())

    samples = res["samples"]
    ok = [s for s in samples if s["ok"]]
    untraced = [s for s in ok if not s["traced"]]
    failed = len(samples) - len(ok)
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": nproc, "blas_threads": env["OPENBLAS_NUM_THREADS"],
        "python": res["python"], "numpy": res["numpy"], "scipy": res["scipy"],
        "platform": platform.platform(), "git_commit": git_commit(),
        "argv": [command] + [f"--{k}={v}" for k, v in options.items()],
        "attempted": len(samples), "failed": failed, "failed_frac": failed / len(samples),
        "problems": res["problems"], "terminals": res["terminals"],
        "structure_sha256": sorted({s["sha256"] for s in ok}),
        "extract_wall_s": [s["seconds"] for s in samples],
        "calibration_s": [s["calibration_s"] for s in samples],
    }
    metrics: dict[str, float] = {}
    if untraced:
        times = [rescaled(s["seconds"], s["calibration_s"]) for s in untraced]
        value, pct, beyond = tail(times)
        info["tail"] = {"percentile": pct, "samples": len(times), "beyond": beyond}
        info["extract_wall_s.p50"] = statistics.median(s["seconds"] for s in untraced)
        metrics.update({"extract_s.p50": statistics.median(times), "extract_s.tail": value})
        for stage, metric in STAGES.items():
            metrics[metric] = statistics.median(
                rescaled(s["stages"][stage], s["calibration_s"]) for s in untraced)
    if setup:
        info["setup_probes"] = setup
        metrics["setup_s"] = statistics.median(rescaled(*probe) for probe in setup)
    metrics.update({"peak_rss_mb": res["peak_rss_mb"], "structure_nodes": res["structure_nodes"],
                    "steiner_weight": res["steiner_weight"]})
    if args.trace:
        traced = [s for s in samples if s["traced"]]
        rows = [{k: rescaled(v, s["calibration_s"]) if k.endswith("_s") else v
                 for k, v in row.items()} for row, s in zip(res["layers"], traced)]
        metrics.update(layer_metrics(rows))
        traced_ok = [rescaled(s["seconds"], s["calibration_s"]) for s in traced if s["ok"]]
        if traced_ok:
            metrics["trace.overhead_ratio"] = _ratio(statistics.median(traced_ok),
                                                     metrics.get("extract_s.p50", 0.0))
        info["layers"] = rows
        info["skipped_patch_points"] = res["skipped_patch_points"]
        info["spans"] = spec["spans"]
    units = {**END_TO_END, **PER_LAYER}
    info["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}

    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-trace{args.trace}.json").write_text(json.dumps(info, indent=1) + "\n")

    print(f"navbench {args.workload} seed={args.seed} nproc={nproc} python={res['python']} "
          f"numpy={res['numpy']} commit={info['git_commit']}")
    for k, v in metrics.items():
        print(f"  {k:<42} {v:>14.6g} {units[k]}")
    print(f"  {'failed_frac':<42} {info['failed_frac']:>14.6g} ratio")
    if "tail" in info:
        t = info["tail"]
        print(f"  extract_s.tail is p{t['percentile']:.1f} of {t['samples']} samples "
              f"({t['beyond']} beyond it)")
    for sha in info["structure_sha256"]:
        print(f"  structure.json sha256 {sha}")
    for p in res["problems"]:
        print(f"  problem: {p}")

    wanted = PER_LAYER if args.trace else END_TO_END
    correct = failed == 0 and not res["problems"] and all(k in metrics for k in wanted)
    print(json.dumps({
        "correct": correct, "attempted": len(samples), "failed": failed,
        "metrics": {k: {"value": metrics.get(k, 0.0), "unit": u} for k, u in wanted.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
