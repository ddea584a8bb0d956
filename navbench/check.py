"""Correctness check of one extraction, run outside the timed region.

`Reference` holds what every extraction of one input must satisfy.  It is
built once per run from an untimed `run_extract` on the same inputs; the
Steiner tree it reports is checked against an independent bound computed
with scipy.sparse.csgraph.  `check_output` then checks the files one CLI
extraction wrote.  Both return a list of problems; empty means correct.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra, minimum_spanning_tree

from navstruct.errors import PointOffMesh
from navstruct.export import load_structure_json, structure_dot, structure_json_bytes, structure_obj
from navstruct.raycast import segment_clear
from navstruct.trees import SimplifyConfig, surface_los

STAGES = ["initial-graph", "terminals", "steiner", "rooting", "simplify", "post-process"]
STRUCTURE_FILES = ("structure.json", "structure.dot", "overlay.obj")
REL_TOL = 1e-9


class Reference:
    def __init__(self, result, surface=None, blockers=None):
        """`result` is the PipelineResult of the same input; `surface` and
        `blockers` are the loaded input meshes, for the LOS predicate the
        pipeline used: surface LOS on a surface, segment clearance against the
        blockers on a graph."""
        self.terminals = sorted(set(result.terminal_set.node_ids))
        self.positions = result.graph.positions()
        self.steiner_nodes = set(result.steiner.nodes)
        self.steiner_weight = float(result.steiner.total_weight)
        self.structure = structure_json_bytes(result.forest)
        self.structure_nodes = sum(t.size() for t in result.forest)
        if surface is not None:
            cfg = SimplifyConfig()
            self.los = lambda a, c: _surface_clear(surface, a, c, cfg)
        elif blockers is not None:
            self.los = lambda a, c: segment_clear(blockers, a, c)
        else:
            self.los = None
        self.problems = check_steiner(result.graph, result.steiner, self.terminals)


def _surface_clear(surface, a, c, cfg) -> bool:
    try:
        return surface_los(surface, a, c, cfg)
    except PointOffMesh:
        return False


def check_steiner(graph, steiner, terminals) -> list[str]:
    """The tree uses graph edges at their weights, spans every terminal, and
    weighs at most the MST of the terminals' metric closure (and at least
    half of it, which bounds the optimum from below)."""
    problems = []
    weight_of = {(i, j): w for i, j, w in graph.edges}
    total = 0.0
    for i, j, w in steiner.edges:
        if weight_of.get((min(i, j), max(i, j))) != w:
            problems.append(f"steiner edge ({i}, {j}, {w}) is not a graph edge")
        total += w
    if not math.isclose(total, steiner.total_weight, rel_tol=REL_TOL):
        problems.append(f"steiner edges sum to {total}, reported {steiner.total_weight}")
    nodes = set(steiner.nodes)
    if len(steiner.edges) != len(nodes) - 1 or not _connected(nodes, steiner.edges):
        problems.append("steiner edges do not form a spanning tree of its nodes")
    missing = set(terminals) - nodes
    if missing:
        problems.append(f"steiner tree misses terminals {sorted(missing)[:5]}")
    if len(terminals) > 1:
        n = len(graph.nodes)
        rows, cols, data = zip(*graph.edges)
        adj = coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
        closure = dijkstra(adj, directed=False, indices=terminals)[:, terminals]
        if not np.isfinite(closure).all():
            problems.append("terminals are not connected in the graph")
        else:
            bound = float(minimum_spanning_tree(closure).sum())
            if steiner.total_weight > bound * (1 + REL_TOL):
                problems.append(f"steiner weight {steiner.total_weight} > closure MST {bound}")
            if steiner.total_weight < bound / 2 * (1 - REL_TOL):
                problems.append(f"steiner weight {steiner.total_weight} < closure MST / 2")
    return problems


def _connected(nodes, edges) -> bool:
    adj = {v: [] for v in nodes}
    for i, j, _ in edges:
        if i not in adj or j not in adj:
            return False
        adj[i].append(j)
        adj[j].append(i)
    start = next(iter(nodes), None)
    seen = {start} if start is not None else set()
    stack = list(seen)
    while stack:
        for u in adj[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == len(nodes)


def check_structure(data: dict, ref: Reference) -> list[str]:
    """Forest shape, terminals and LOS of a parsed structure.json."""
    problems = []
    owner: dict[int, int] = {}
    flagged = set()
    for t, tree in enumerate(data.get("trees", [])):
        nodes = {}
        for rec in tree["nodes"]:
            v = rec["id"]
            if v in owner or v in nodes:
                problems.append(f"node {v} appears twice")
            nodes[v] = rec
            owner[v] = t
            if rec["terminal"]:
                flagged.add(v)
        root = tree["root"]
        if root not in nodes or nodes[root]["parent"] is not None:
            problems.append(f"tree {t}: root {root} is missing or has a parent")
            continue
        for v, rec in nodes.items():
            if v not in ref.steiner_nodes:
                problems.append(f"node {v} is not a steiner tree node")
                continue
            if not np.allclose(rec["position"], ref.positions[v], rtol=0, atol=1e-6):
                problems.append(f"node {v} moved from its graph position")
            p = rec["parent"]
            if p is None and v != root:
                problems.append(f"tree {t}: node {v} has no parent")
            elif p is not None and (p not in nodes or v not in nodes[p]["children"]):
                problems.append(f"tree {t}: parent link {p} -> {v} is not mutual")
            for c in rec["children"]:
                if c not in nodes or nodes[c]["parent"] != v:
                    problems.append(f"tree {t}: child link {v} -> {c} is not mutual")
                elif nodes[c]["depth"] != rec["depth"] + 1:
                    problems.append(f"tree {t}: depth of {c} is not depth of {v} + 1")
                elif (ref.los is not None and c in ref.steiner_nodes
                      and not ref.los(ref.positions[v], ref.positions[c])):
                    problems.append(f"edge {v} -> {c} has no line of sight")
        seen = {root}
        stack = [root]
        while stack:
            for c in nodes[stack.pop()]["children"]:
                if c in nodes and c not in seen:
                    seen.add(c)
                    stack.append(c)
        if len(seen) != len(nodes):
            problems.append(f"tree {t}: {len(nodes) - len(seen)} nodes unreachable from the root")
    missing = sorted(set(ref.terminals) - set(owner))
    if missing:
        problems.append(f"terminals {missing[:5]} are missing from the forest")
    if flagged != set(ref.terminals) & set(owner):
        problems.append("terminal flags differ from the run's terminal set")
    return problems


def check_output(out_dir: Path, ref: Reference) -> list[str]:
    """Every structure file: shape, terminals, LOS, round trip and identity
    with the reference run's bytes."""
    raw = {}
    for name in STRUCTURE_FILES:
        try:
            raw[name] = (out_dir / name).read_bytes()
        except OSError:
            return [f"{name} was not written"]
    try:
        data = json.loads(raw["structure.json"])
    except json.JSONDecodeError as exc:
        return [f"structure.json is not JSON: {exc}"]
    try:
        problems = check_structure(data, ref)
        forest = load_structure_json(out_dir / "structure.json")
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        return [f"structure.json is malformed: {exc!r}"]
    if structure_json_bytes(forest) != raw["structure.json"]:
        problems.append("structure.json changes on export -> reimport -> export")
    if structure_dot(forest).encode() != raw["structure.dot"]:
        problems.append("structure.dot differs from the reimported structure's export")
    if structure_obj(forest).encode() != raw["overlay.obj"]:
        problems.append("overlay.obj differs from the reimported structure's export")
    if raw["structure.json"] != ref.structure:
        problems.append("structure.json differs from the reference run's")
    return problems


def check_report(out_dir: Path, ref: Reference) -> list[str]:
    """report.json names the six stages and the run's terminal count."""
    try:
        report = json.loads((out_dir / "report.json").read_text())
        stages = {s["name"]: s for s in report["stages"]}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"report.json unreadable: {exc}"]
    if list(stages) != STAGES:
        return [f"report.json stages {list(stages)} != {STAGES}"]
    if stages["terminals"].get("terminals") != len(ref.terminals):
        return ["report.json terminal count differs from the run's"]
    return []
