"""Command-line interface.

Subcommands: `extract` (structure outputs, plus report.json and the stage
timing table in report.txt), `analyze` (adds betweenness and density
recoloring), `oracle` (brute-force self-checks).  A flat key=value config
file can pre-set any flag; explicit command-line flags win.  The STRUCT_LOG
environment variable (error|warn|info|debug) controls diagnostic verbosity.

Exit codes: 0 success, 2 validation failure, 3 disconnected terminals,
4 I/O failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys
import typing
from pathlib import Path

from .analysis import render_report_text, report_to_dict
from .errors import DisconnectedTerminals, NavStructError, NoPath, ValidationError
from .export import STRUCTURE_FORMATS, canonical_json, export_structure
from .mesh import read_text
from .pipeline import TUNING_FIELDS, PipelineConfig, run_extract

log = logging.getLogger("navstruct")

_LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DISCONNECTED = 3
EXIT_IO = 4


def _setup_logging() -> None:
    level_name = os.environ.get("STRUCT_LOG", "warn").lower()
    level = _LOG_LEVELS.get(level_name, logging.WARNING)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("[%(levelname)s] %(message)s"))
    log.handlers[:] = [handler]
    log.setLevel(level)


def _tuning_option(p: argparse.ArgumentParser, f: dataclasses.Field, hint) -> argparse.Action:
    """The flag of one tuning field; its type is the annotation less any `| None`."""
    return p.add_argument(
        f"--{f.name.replace('_', '-')}", type=(typing.get_args(hint) or (hint,))[0],
        default=f.default, choices=f.metadata["choices"], help=f.metadata["help"],
    )


def _add_pipeline_options(p: argparse.ArgumentParser) -> dict[str, argparse.Action]:
    """Add the pipeline flags to `p` and return them by destination name."""
    hints = typing.get_type_hints(PipelineConfig)
    actions = [
        p.add_argument("--config", help="flat key=value file pre-setting any flag"),
        p.add_argument("--surface", help="walkable surface (.obj or .json)"),
        p.add_argument("--blockers", help="blocker triangle mesh (.obj or .json)"),
        p.add_argument("--graph", help="pre-built graph (.json) instead of a surface"),
        *(_tuning_option(p, f, hints[f.name]) for f in TUNING_FIELDS),
        p.add_argument("--out", default=".", help="output directory"),
        p.add_argument("--format", action="append", choices=list(STRUCTURE_FORMATS),
                       default=[], help="structure export format (repeatable; default json)"),
        p.add_argument("--experiment", default=None,
                       help="experiment name in reports (default: input stem)"),
    ]
    return {a.dest: a for a in actions}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="navstruct",
        description="Extract simplified tree structures from walkable-surface geometry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("extract", "extract the simplified structure and write exports"),
        ("analyze", "extract plus betweenness/density recoloring"),
    ):
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(options=_add_pipeline_options(sp))

    op = sub.add_parser("oracle", help="run brute-force verification suites")
    op.add_argument("--seed", type=int, default=0)
    op.add_argument("--instances", type=int, default=25,
                    help="random instances per suite")
    return parser


def _read_config_file(path: str) -> dict[str, str]:
    text = read_text(Path(path))
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{lineno}: expected key = value")
        key, value = line.split("=", 1)
        out[key.strip().replace("-", "_")] = value.strip()
    return out


def _apply_config(
    args: argparse.Namespace, options: dict[str, argparse.Action], config: dict[str, str]
) -> None:
    """Fill parsed args from the config file wherever the command line left
    the default in place (explicit flags therefore win).  A list-valued flag
    (one whose default is a list) takes a comma-separated value."""
    for key, raw in config.items():
        if key not in options:
            raise ValidationError(f"unknown config key {key!r}")
        action = options[key]
        if getattr(args, key) != action.default:
            continue  # explicitly set on the command line
        is_list = isinstance(action.default, list)
        values = [_config_value(key, action, text.strip())
                  for text in (raw.split(",") if is_list else [raw])]
        setattr(args, key, values if is_list else values[0])


def _config_value(key: str, action: argparse.Action, text: str):
    try:
        value = action.type(text) if action.type is not None else text
    except ValueError as exc:
        raise ValidationError(f"config key {key!r}: bad value {text!r}") from exc
    if action.choices and value not in action.choices:
        raise ValidationError(f"config key {key!r}: bad value {text!r}")
    return value


def _config_from_args(args: argparse.Namespace, analyze: bool) -> PipelineConfig:
    experiment = args.experiment
    if experiment is None:
        source = args.surface or args.graph or "run"
        experiment = Path(source).stem
    return PipelineConfig(
        surface_path=args.surface,
        blockers_path=args.blockers,
        graph_path=args.graph,
        analyze=analyze,
        experiment=experiment,
        **{f.name: getattr(args, f.name) for f in TUNING_FIELDS},
    )


def _run_pipeline_command(args: argparse.Namespace, analyze: bool) -> int:
    cfg = _config_from_args(args, analyze)
    result = run_extract(cfg)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    formats = args.format or ["json"]
    for fmt in formats:
        export_structure(result.forest, fmt, out_dir / STRUCTURE_FORMATS[fmt][0])
    report_dict = report_to_dict(result.report)
    (out_dir / "report.json").write_text(canonical_json(report_dict) + "\n")
    (out_dir / "report.txt").write_text(render_report_text(result.report))
    log.info(
        "wrote %s (%d trees, %d nodes)",
        out_dir, len(result.forest), sum(t.size() for t in result.forest),
    )
    return EXIT_OK


def _run_oracle(args: argparse.Namespace) -> int:
    from .oracles import run_oracle_suites

    results = run_oracle_suites(seed=args.seed, instances=args.instances)
    all_ok = True
    for name, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        sys.stdout.write(f"oracle {name}: {status} ({detail})\n")
        all_ok &= ok
    return EXIT_OK if all_ok else 1


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            _apply_config(args, args.options, _read_config_file(args.config))
        if args.command == "extract":
            return _run_pipeline_command(args, analyze=False)
        if args.command == "analyze":
            return _run_pipeline_command(args, analyze=True)
        return _run_oracle(args)
    except (DisconnectedTerminals, NoPath) as exc:
        log.error("%s", exc)
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DISCONNECTED
    except NavStructError as exc:
        log.error("%s", exc)
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION
    except OSError as exc:
        log.error("%s", exc)
        sys.stderr.write(f"i/o error: {exc}\n")
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
