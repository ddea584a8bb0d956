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
from .mesh import MAX_WRITTEN_COORDINATE, _check_coordinates, as_index, read_json
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
    '{"children":[%s],"depth":%d,"id":%d,"normal":[%s],"on_navmesh":%s,'
    '"parent":%s,"position":[%s],"source":%s,"terminal":%s}'
)

# a 3-vector as a JSON list's items and as an OBJ vertex line
_JSON_VECTOR = "%.9g,%.9g,%.9g"
_OBJ_VERTEX = "v %.9g %.9g %.9g"


def _vector(template: str, x, y, z) -> str:
    """`template` filled with x, y and z, each as _fmt_float writes it:
    "%.9g" % x is format(x, ".9g"), and adding 0.0 turns only -0.0 into
    0.0."""
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        raise ValueError("non-finite float in export")
    return template % (x + 0.0, y + 0.0, z + 0.0)


class _Quoted(dict):
    """json.dumps of each string looked up, computed once per distinct one."""

    def __missing__(self, text: str) -> str:
        quoted = self[text] = json.dumps(text)
        return quoted


def structure_json_bytes(forest: list[RootedTree]) -> bytes:
    """The forest as canonical JSON: what canonical_json writes for
    {"format": STRUCTURE_FORMAT, "trees": [{"root": r, "nodes": [...]}]}."""
    trees = []
    sources = _Quoted()
    for tree in forest:
        nodes = []
        parent, depth = tree.parent, tree.depth
        for v in tree.node_ids():
            p = tree.payloads[v]
            nodes.append(_NODE_RECORD % (
                ",".join(map(str, tree.children[v])), depth[v], v,
                _vector(_JSON_VECTOR, *p.normal.tolist()), "true" if p.on_navmesh else "false",
                "null" if parent[v] is None else parent[v],
                _vector(_JSON_VECTOR, *p.position.tolist()),
                sources[p.source], "true" if p.terminal else "false",
            ))
        trees.append(f'{{"nodes":[{",".join(nodes)}],"root":{tree.root}}}')
    text = f'{{"format":"{STRUCTURE_FORMAT}","trees":[{",".join(trees)}]}}\n'
    return text.encode("utf-8")


# ---------------------------------------------------------------------------
# report JSON
# ---------------------------------------------------------------------------

# one node-analysis record, its keys in sorted order
_ANALYSIS_RECORD = '{"betweenness":%s,"density":%s,"id":%d,"position":[%s]}'


def report_json(report: dict) -> str:
    """canonical_json(report) + "\n" for a report_to_dict dict; its
    node-analysis records are written from one format string."""
    fields = []
    for key in sorted(report):
        value = report[key]
        if key == "node_analysis":
            labels = _Quoted()
            text = "[" + ",".join(
                _ANALYSIS_RECORD % (
                    _fmt_float(float(r["betweenness"])), labels[r["density"]],
                    r["id"], _vector(_JSON_VECTOR, *r["position"]),
                )
                for r in value
            ) + "]"
        else:
            text = canonical_json(value)
        fields.append(f"{json.dumps(key)}:{text}")
    return "{" + ",".join(fields) + "}\n"


def load_structure_json(path: str | Path) -> list[RootedTree]:
    """Rebuild a forest from a structure JSON file.  The trees are rebuilt
    from the `children` lists; ParseError unless every tree's lists form one
    tree under its root whose parents and depths are the file's, no tree
    lists a node id twice, `on_navmesh` and `terminal` are JSON booleans and
    `source` is a string; ValidationError for a position beyond
    +-MAX_WRITTEN_COORDINATE, which no pipeline run writes."""
    p = Path(path)
    data = read_json(p)
    if not isinstance(data, dict) or data.get("format") != STRUCTURE_FORMAT:
        raise ParseError(f"{p}: not a {STRUCTURE_FORMAT} file")
    if not isinstance(data.get("trees"), list):
        raise ParseError(f"{p}: 'trees' must be a list")
    try:
        forest = [_tree_from_dict(trec, p) for trec in data["trees"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{p}: malformed tree record: {exc!r}") from exc
    positions = [q.position for tree in forest for q in tree.payloads.values()]
    _check_coordinates(np.reshape(positions, (-1, 3)), f"{p}: structure node", MAX_WRITTEN_COORDINATE)
    return forest


def _tree_from_dict(trec: dict, p: Path) -> RootedTree:
    children: dict[int, list[int]] = {}
    depth: dict[int, int] = {}
    parent: dict[int, int | None] = {}
    payloads: dict[int, GraphNode] = {}
    for nrec in trec["nodes"]:
        v = as_index(nrec["id"], p)
        if v in children:
            raise ParseError(f"{p}: node {v} is listed twice in one tree")
        children[v] = [as_index(c, p) for c in nrec["children"]]
        depth[v] = as_index(nrec["depth"], p)
        parent[v] = None if nrec["parent"] is None else as_index(nrec["parent"], p)
        on_navmesh, terminal, source = nrec["on_navmesh"], nrec["terminal"], nrec["source"]
        for name, value in (("on_navmesh", on_navmesh), ("terminal", terminal)):
            if type(value) is not bool:
                raise ParseError(f"{p}: node {v} {name!r} must be true or false, not {value!r}")
        if type(source) is not str:
            raise ParseError(f"{p}: node {v} 'source' must be a string, not {source!r}")
        payloads[v] = GraphNode(
            position=_finite_vector(nrec["position"], f"{p}: node {v} 'position'"),
            normal=_finite_vector(nrec["normal"], f"{p}: node {v} 'normal'"),
            # the file keeps only whether a node was on the surface
            polygon=None if on_navmesh else -1,
            terminal=terminal,
            source=source,
        )
    tree = RootedTree(root=as_index(trec["root"], p), children=children, payloads=payloads)
    listed = [c for cs in children.values() for c in cs]
    if not set(listed) <= children.keys():
        raise ParseError(f"{p}: tree {tree.root}: a child id names no node")
    # with n - 1 entries that name every other node (the derived parents
    # match), each is named once and the root never: no list cycles, so the
    # depth walk ends, and a node it misses lies on a cycle off the tree
    if len(listed) != len(children) - 1 or tree.parent != parent:
        raise ParseError(f"{p}: tree {tree.root}: 'parent' does not match 'children'")
    if tree.depth != depth:
        raise ParseError(f"{p}: tree {tree.root}: 'depth' does not match 'children'")
    return tree


# ---------------------------------------------------------------------------
# DOT / OBJ
# ---------------------------------------------------------------------------

def structure_dot(forest: list[RootedTree]) -> str:
    lines = ["digraph structure {", "  rankdir=TB;"]
    for tree in forest:
        depth = tree.depth
        for v in tree.node_ids():
            p = tree.payloads[v]
            d = depth[v]
            label = f"id={v} depth={d}"
            if p.terminal:
                label += " terminal"
            attrs = [f'label="{label}"', f"color={_depth_color(d)}"]
            if v == tree.root:
                attrs.append("shape=doubleoctagon")
            lines.append(f"  n{v} [{', '.join(attrs)}];")
        for a, b in tree.edge_list():
            lines.append(f"  n{a} -> n{b} [color={_depth_color(depth[b])}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def structure_obj(forest: list[RootedTree]) -> str:
    """Polyline overlay: one `v` per node, one 2-vertex `l` per edge, and a
    `p` point record marking each root."""
    lines = ["# structure overlay"]
    obj_index: dict[int, int] = {}
    for tree in forest:
        for v in tree.node_ids():
            obj_index[v] = len(obj_index) + 1  # 1-based
            lines.append(_vector(_OBJ_VERTEX, *tree.payloads[v].position.tolist()))
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
