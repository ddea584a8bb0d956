"""The worker process of one navbench run.

Usage: python3 worker.py SPEC.json  (written by run.py)

One client in a closed loop: each operation is one in-process call of the
public entry point `navstruct.cli.main`, which loads the inputs, runs the
pipeline and writes structure.json / structure.dot / overlay.obj and the
reports, as every CLI invocation does.  After each call, outside the timed
region, the machine's speed is calibrated (calib.py) and its outputs are
checked.  With tracing on, every other extraction is traced, so the untraced
ones give the overhead baseline and the stage times.
The result is written as JSON to the path the spec names.
"""
from __future__ import annotations

import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy
import scipy

from navstruct import cli
from navstruct.mesh import load_blocker_mesh, load_walkable_surface
from navstruct.pipeline import PipelineConfig, run_extract

from calib import calibrate
from check import STRUCTURE_FILES, Reference, check_output, check_report
from tracing import Tracer

CONFIG_FIELDS = {"surface": "surface_path", "blockers": "blockers_path", "graph": "graph_path",
                 "terminals": "terminals", "metric": "metric", "k": "k"}
FORMATS = ["--format", "json", "--format", "dot", "--format", "obj"]
MIN_EXTRACTIONS = 4


def reference(command: str, options: dict) -> Reference:
    cfg = PipelineConfig(analyze=command == "analyze",
                         **{CONFIG_FIELDS[k]: v for k, v in options.items()})
    surface = load_walkable_surface(options["surface"]) if "surface" in options else None
    blockers = load_blocker_mesh(options["blockers"]) if "blockers" in options else None
    return Reference(run_extract(cfg), surface, blockers)


def stage_seconds(out_dir: Path) -> dict:
    report = json.loads((out_dir / "report.json").read_text())
    return {s["name"]: s["millis"] / 1e3 for s in report["stages"]}


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    src = Path(spec["src"]).resolve()
    if src not in Path(cli.__file__).resolve().parents:
        sys.stderr.write(f"navstruct imported from {cli.__file__}, not from {src}\n")
        return 2
    out_dir = Path(spec["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    argv = [spec["command"]]
    for flag, value in spec["options"].items():
        argv += [f"--{flag}", str(value)]
    argv += ["--out", str(out_dir)] + FORMATS

    ref = reference(spec["command"], spec["options"])
    tracer = Tracer() if spec["trace"] else None
    verdicts: dict[tuple, list[str]] = {}
    samples = []   # one dict per extraction
    problems_seen = list(ref.problems)
    calibration = calibrate()
    deadline = time.perf_counter() + spec["seconds"]
    while True:
        for stale in out_dir.iterdir():
            stale.unlink()
        traced = tracer is not None and len(samples) % 2 == 1
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            rc = tracer.extraction("navbench.extract", cli.main, argv) if traced else cli.main(argv)
        except Exception:  # a crash is a failed operation, not the end of the run
            traceback.print_exc()
            rc = None
        seconds = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
        after = calibrate()
        sample = {"seconds": seconds, "calibration_s": (calibration + after) / 2, "traced": traced}
        calibration = after

        problems = [f"exit code {rc}"] if rc != 0 else []
        if not problems:
            raw = tuple((out_dir / n).read_bytes() if (out_dir / n).exists() else None
                        for n in STRUCTURE_FILES)
            if raw not in verdicts:
                verdicts[raw] = check_output(out_dir, ref)
            problems = ref.problems + verdicts[raw] + check_report(out_dir, ref)
        if not problems:
            sample["stages"] = stage_seconds(out_dir)
            sample["sha256"] = hashlib.sha256(raw[0]).hexdigest()
        sample["ok"] = not problems
        samples.append(sample)
        problems_seen += [p for p in problems if p not in problems_seen]

        typical = statistics.median(s["seconds"] + s["calibration_s"] for s in samples)
        if len(samples) >= MIN_EXTRACTIONS and time.perf_counter() + typical > deadline:
            break

    result = {
        "samples": samples,
        "problems": problems_seen[:20],
        "structure_nodes": ref.structure_nodes,
        "steiner_weight": ref.steiner_weight,
        "terminals": len(ref.terminals),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_totals()
        result["skipped_patch_points"] = tracer.skipped
        tracer.write(Path(spec["spans"]))
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
