"""Spans around navstruct's layers, installed from outside the program.

The tracer patches the names that callers look up at call time (a module
global or a class attribute) and restores them on `uninstall`.  Each span
records a name, start, end and the id of the span that was open when it
began; every span of one extraction carries that extraction's index.  Spans
stay in memory until `write` at the end of the run.

Patch points the installed navstruct no longer has are skipped and listed in
`skipped`, so the benchmark keeps running when the program is refactored; the
layers behind them then read zero.
"""
from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter
from pathlib import Path


def _dense(counts, args, _result):
    n = len(getattr(args[0], "nodes", ()))
    counts["algorithms.dense_bytes"] += n * n * 8


def _rays(counts, args, result):
    counts["raycast.triangles_tested"] += len(getattr(args[0], "triangles", ()))
    counts["raycast.hits"] += result is not None


def _sources(counts, args, _result):
    counts["algorithms.sssp_sources"] += len(getattr(args[0], "nodes", ()))


def _removals(counts, _args, result):
    counts["trees.removals"] += len(getattr(result, "removals", ()))


# (owner, attribute, span name, note); owner is "module" or "module:Class".
# The owner is where the caller looks the name up, not where it is defined.
SPANS = [
    ("navstruct.pipeline", "load_walkable_surface", "mesh.load_walkable_surface", None),
    ("navstruct.pipeline", "load_blocker_mesh", "mesh.load_blocker_mesh", None),
    ("navstruct.pipeline", "load_graph_json", "graph.load_graph_json", None),
    ("navstruct.pipeline", "graph_from_navmesh", "graph.graph_from_navmesh", None),
    ("navstruct.pipeline", "entry_exit_terminals", "terminals.entry_exit_terminals", None),
    ("navstruct.pipeline", "terminals_from_metric", "terminals.terminals_from_metric", None),
    ("navstruct.raycast", "first_hit", "raycast.first_hit", _rays),
    ("navstruct.pipeline", "segment_clear", "raycast.segment_clear", None),
    ("navstruct.pipeline", "build_steiner_tree", "steiner.build_steiner_tree", None),
    ("navstruct.steiner", "dijkstra_tree", "algorithms.dijkstra_tree", None),
    ("navstruct.algorithms", "betweenness_centrality",
     "algorithms.betweenness_centrality", _sources),
    ("navstruct.algorithms", "eigenvector_centrality",
     "algorithms.eigenvector_centrality", _dense),
    ("navstruct.algorithms", "katz_centrality", "algorithms.katz_centrality", _dense),
    ("navstruct.pipeline", "find_rooted_trees", "trees.find_rooted_trees", None),
    ("navstruct.pipeline", "simplify_tree", "trees.simplify_tree", _removals),
    ("navstruct.trees", "surface_los", "trees.surface_los", None),
    ("navstruct.mesh:WalkableSurface", "locate_point", "mesh.locate_point", None),
    ("navstruct.pipeline", "forest_to_graph", "analysis.forest_to_graph", None),
    ("navstruct.cli", "export_structure", "export.export_structure", None),
]

# Hot, cheap calls that are counted (against the open span) but not timed.
COUNTED = [
    ("navstruct.trees", "can_simplify", "trees.can_simplify.calls"),
    ("navstruct.mesh:WalkableSurface", "contains_point", "mesh.contains_point.calls"),
]


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    def __init__(self):
        # span id = index; (extraction, name, parent id, start ns, end ns)
        self.spans: list[tuple | None] = []
        self.counts: list[Counter] = []   # per extraction
        self.skipped: list[str] = []
        self._stack: list[tuple[int | None, str]] = [(None, "")]  # open spans
        self._originals: list[tuple[object, str, object]] = []

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        self.skipped = []
        for owner, attr, name, note in SPANS:
            self._patch(owner, attr, lambda fn, n=name, f=note: self._span(n, fn, f))
        for owner, attr, name in COUNTED:
            self._patch(owner, attr, lambda fn, n=name: self._count(n, fn))

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._originals):
            setattr(obj, attr, original)
        self._originals = []

    def _patch(self, owner: str, attr: str, make) -> None:
        try:
            obj = _resolve(owner)
            # a class attribute is read from __dict__ so that restoring it
            # puts back the plain function, not a bound method
            original = obj.__dict__[attr] if isinstance(obj, type) else getattr(obj, attr)
        except (ImportError, AttributeError, KeyError):
            self.skipped.append(f"{owner}.{attr}")
            return
        self._originals.append((obj, attr, original))
        setattr(obj, attr, make(original))

    # -- recording ---------------------------------------------------------

    def extraction(self, name: str, fn, *args):
        """Call fn(*args) as the root span of a new extraction."""
        self.counts.append(Counter())
        return self._span(name, fn)(*args)

    def _span(self, name: str, fn, note=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1][0]
            stack.append((sid, name))
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[sid] = (len(self.counts) - 1, name, parent, start, end)
            if note is not None:
                note(self.counts[-1], args, result)
            return result

        return wrapper

    def _count(self, name: str, fn):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts = self.counts[-1]
            counts[name] += 1
            counts[f"{name}@{stack[-1][1]}"] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- results -----------------------------------------------------------

    def layer_totals(self) -> list[dict]:
        """Per extraction: the counters, plus `<span>.calls`, `<span>.self_s`
        and `<span>.total_s` for every span name.  Self time is the span's
        duration minus the durations of its direct children."""
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span[2] is not None:
                child_ns[span[2]] += span[4] - span[3]
        out = [dict(c) for c in self.counts]
        for sid, (ext, name, _parent, start, end) in enumerate(self.spans):
            row = out[ext]
            row[f"{name}.calls"] = row.get(f"{name}.calls", 0) + 1
            row[f"{name}.self_s"] = row.get(f"{name}.self_s", 0.0) + (end - start - child_ns[sid]) / 1e9
            row[f"{name}.total_s"] = row.get(f"{name}.total_s", 0.0) + (end - start) / 1e9
        return out

    def write(self, path: Path) -> None:
        """All spans as JSON lines."""
        with open(path, "w") as f:
            for sid, (ext, name, parent, start, end) in enumerate(self.spans):
                f.write(json.dumps({"id": sid, "extraction": ext, "name": name, "parent": parent,
                                    "start_ns": start, "end_ns": end}) + "\n")
