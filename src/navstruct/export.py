"""Structure exports (JSON / DOT / OBJ) and reimport.

The JSON writer is canonical: keys are emitted in sorted order and floats are
formatted with 9 significant digits, so identical structures serialize to
identical bytes and an export -> reimport -> export cycle is byte-stable.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import ParseError
from .graph import GraphNode, _finite_vector
from .mesh import as_index, read_json
from .trees import RootedTree

STRUCTURE_FORMAT = "navstruct-structure/1"

# depth coloring: depth-1 red, then yellow, green, cyan, blue, magenta, cycling
_DEPTH_PALETTE = ("red", "yellow", "green", "cyan", "blue", "magenta")


def _depth_color(depth: int) -> str:
    if depth <= 0:
        return "black"
    return _DEPTH_PALETTE[(depth - 1) % len(_DEPTH_PALETTE)]


# ---------------------------------------------------------------------------
# canonical JSON
# ---------------------------------------------------------------------------

def _fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError("non-finite float in export")
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return format(x, ".9g")


def canonical_json(obj) -> str:
    """Serialize with sorted keys and fixed float formatting."""
    parts: list[str] = []
    _emit(obj, parts)
    return "".join(parts)


def _emit(obj, parts: list[str]) -> None:
    if obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        parts.append(_fmt_float(float(obj)))
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif isinstance(obj, dict):
        parts.append("{")
        for k, key in enumerate(sorted(obj)):
            if k:
                parts.append(",")
            parts.append(json.dumps(str(key)))
            parts.append(":")
            _emit(obj[key], parts)
        parts.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        parts.append("[")
        for k, item in enumerate(obj):
            if k:
                parts.append(",")
            _emit(item, parts)
        parts.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


# ---------------------------------------------------------------------------
# structure JSON
# ---------------------------------------------------------------------------

# one node record, its keys in sorted order as canonical_json would emit them
_NODE_RECORD = (
    '{{"children":[{}],"depth":{},"id":{},"normal":[{}],"on_navmesh":{},'
    '"parent":{},"position":[{}],"source":{},"terminal":{}}}'
)


def _fmt_vector(vec) -> str:
    return ",".join(_fmt_float(float(x)) for x in vec)


def structure_json_bytes(forest: list[RootedTree]) -> bytes:
    """The forest as canonical JSON: what canonical_json writes for
    {"format": STRUCTURE_FORMAT, "trees": [{"root": r, "nodes": [...]}]}."""
    trees = []
    for tree in forest:
        nodes = []
        for v in tree.node_ids():
            p = tree.payloads[v]
            parent = tree.parent[v]
            nodes.append(_NODE_RECORD.format(
                ",".join(map(str, tree.children[v])), tree.depth[v], v,
                _fmt_vector(p.normal), "true" if p.on_navmesh else "false",
                "null" if parent is None else parent, _fmt_vector(p.position),
                json.dumps(p.source), "true" if p.terminal else "false",
            ))
        trees.append(f'{{"nodes":[{",".join(nodes)}],"root":{tree.root}}}')
    text = f'{{"format":"{STRUCTURE_FORMAT}","trees":[{",".join(trees)}]}}\n'
    return text.encode("utf-8")


def load_structure_json(path: str | Path) -> list[RootedTree]:
    """Rebuild a forest from a structure JSON file."""
    p = Path(path)
    data = read_json(p)
    if not isinstance(data, dict) or data.get("format") != STRUCTURE_FORMAT:
        raise ParseError(f"{p}: not a {STRUCTURE_FORMAT} file")
    if not isinstance(data.get("trees"), list):
        raise ParseError(f"{p}: 'trees' must be a list")
    try:
        return [_tree_from_dict(trec, p) for trec in data["trees"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{p}: malformed tree record: {exc!r}") from exc


def _tree_from_dict(trec: dict, p: Path) -> RootedTree:
    children: dict[int, list[int]] = {}
    depth: dict[int, int] = {}
    parent: dict[int, int | None] = {}
    payloads: dict[int, GraphNode] = {}
    for nrec in trec["nodes"]:
        v = as_index(nrec["id"], p)
        children[v] = [as_index(c, p) for c in nrec["children"]]
        depth[v] = as_index(nrec["depth"], p)
        parent[v] = None if nrec["parent"] is None else as_index(nrec["parent"], p)
        payloads[v] = GraphNode(
            id=v,
            position=_finite_vector(nrec["position"], f"{p}: node {v} 'position'"),
            normal=_finite_vector(nrec["normal"], f"{p}: node {v} 'normal'"),
            on_navmesh=bool(nrec["on_navmesh"]),
            terminal=bool(nrec["terminal"]),
            source=str(nrec["source"]),
        )
    return RootedTree(
        root=as_index(trec["root"], p), children=children, depth=depth,
        payloads=payloads, parent=parent,
    )


# ---------------------------------------------------------------------------
# DOT / OBJ
# ---------------------------------------------------------------------------

def structure_dot(forest: list[RootedTree]) -> str:
    lines = ["digraph structure {", "  rankdir=TB;"]
    for tree in forest:
        for v in tree.node_ids():
            p = tree.payloads[v]
            d = tree.depth[v]
            label = f"id={v} depth={d}"
            if p.terminal:
                label += " terminal"
            attrs = [f'label="{label}"', f"color={_depth_color(d)}"]
            if v == tree.root:
                attrs.append("shape=doubleoctagon")
            lines.append(f"  n{v} [{', '.join(attrs)}];")
        for a, b in tree.edge_list():
            lines.append(f"  n{a} -> n{b} [color={_depth_color(tree.depth[b])}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def structure_obj(forest: list[RootedTree]) -> str:
    """Polyline overlay: one `v` per node, one 2-vertex `l` per edge, and a
    `p` point record marking each root."""
    lines = ["# structure overlay"]
    obj_index: dict[int, int] = {}
    for tree in forest:
        for v in tree.node_ids():
            p = tree.payloads[v].position
            obj_index[v] = len(obj_index) + 1  # 1-based
            lines.append(f"v {_fmt_float(float(p[0]))} {_fmt_float(float(p[1]))} {_fmt_float(float(p[2]))}")
    for tree in forest:
        for a, b in tree.edge_list():
            lines.append(f"l {obj_index[a]} {obj_index[b]}")
    for tree in forest:
        lines.append(f"p {obj_index[tree.root]}")
    return "\n".join(lines) + "\n"


# export format -> (file name in an output directory, renderer)
STRUCTURE_FORMATS = {
    "json": ("structure.json", structure_json_bytes),
    "dot": ("structure.dot", structure_dot),
    "obj": ("overlay.obj", structure_obj),
}


def export_structure(forest: list[RootedTree], fmt: str, path: str | Path) -> None:
    """Write the forest to `path` in one of the STRUCTURE_FORMATS."""
    if fmt not in STRUCTURE_FORMATS:
        raise ValueError(f"unknown export format {fmt!r}")
    data = STRUCTURE_FORMATS[fmt][1](forest)
    Path(path).write_bytes(data if isinstance(data, bytes) else data.encode("utf-8"))
