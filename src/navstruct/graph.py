"""Surface-derived graphs: polygon-center graphs and JSON I/O."""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np
from scipy.sparse import csr_matrix

from .errors import DegenerateEdge, ParseError, ValidationError
from .mesh import WalkableSurface, _check_extent, as_index, read_json

UP = np.array([0.0, 0.0, 1.0])

SOURCE_POLYGON = "polygon-center"
SOURCE_SAMPLE = "sample"
SOURCE_ENTRY_EXIT = "entry-exit"


@dataclass
class GraphNode:
    id: int
    position: np.ndarray  # (3,)
    normal: np.ndarray    # (3,) unit
    on_navmesh: bool = True
    source: str = SOURCE_POLYGON
    terminal: bool = False


class Arcs(NamedTuple):
    """Every edge in both directions: arc k runs tail[k] -> head[k] with
    weight[k].  `matrix` is the same arcs as a weighted CSR matrix, row by
    tail; `head` and `weight` are its `indices` and `data`.  A repeated edge
    stays one entry per copy, so no weights are summed.

    `node_ids` is an object array of the Python ints 0..n-1, then -1: a list
    read through it shares one int object per node, so the per-terminal
    predecessor lists Steiner keeps cost a pointer per entry."""

    matrix: csr_matrix
    tail: np.ndarray
    head: np.ndarray
    weight: np.ndarray
    node_ids: np.ndarray


@dataclass
class SurfaceGraph:
    """Undirected simple graph with 3D node payloads.

    Edges are stored once with i < j.  Node ids are dense 0..N-1.
    `node_index` maps source identifiers (polygon ids for navmesh-derived
    graphs, original node ids for rebuilt graphs) to node ids.
    """

    nodes: list[GraphNode]
    edges: list[tuple[int, int, float]]
    node_index: dict[int, int] | None = None
    _adjacency: list[list[tuple[int, float]]] | None = field(
        default=None, repr=False, compare=False
    )
    _arcs: Arcs | None = field(default=None, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.nodes)

    def adjacency(self) -> list[list[tuple[int, float]]]:
        """Per-node (neighbor, weight) lists, built lazily, neighbors ascending."""
        if self._adjacency is None:
            adj: list[list[tuple[int, float]]] = [[] for _ in self.nodes]
            for i, j, w in self.edges:
                adj[i].append((j, w))
                adj[j].append((i, w))
            for lst in adj:
                lst.sort()
            self._adjacency = adj
        return self._adjacency

    def arcs(self) -> Arcs:
        """The directed arcs and their CSR matrix, built lazily."""
        if self._arcs is None:
            n = len(self.nodes)
            ends = np.array([(i, j) for i, j, _ in self.edges], dtype=np.intp).reshape(-1, 2)
            weights = np.array([w for _, _, w in self.edges], dtype=float)
            tail = np.concatenate([ends[:, 0], ends[:, 1]])
            order = np.argsort(tail, kind="stable")
            tail = tail[order]
            head = np.concatenate([ends[:, 1], ends[:, 0]])[order]
            weight = np.concatenate([weights, weights])[order]
            indptr = np.searchsorted(tail, np.arange(n + 1))
            matrix = csr_matrix((weight, head, indptr), shape=(n, n))
            node_ids = np.array([*range(n), -1], dtype=object)
            self._arcs = Arcs(matrix, tail, matrix.indices, matrix.data, node_ids)
        return self._arcs

    def positions(self) -> np.ndarray:
        return np.array([n.position for n in self.nodes])

    def centroid(self) -> np.ndarray:
        return self.positions().mean(axis=0)

    def with_extra_nodes(
        self, new_nodes: list[GraphNode], new_edges: list[tuple[int, int, float]]
    ) -> "SurfaceGraph":
        """Value-style extension: returns a new graph, leaves self untouched."""
        return SurfaceGraph(
            nodes=list(self.nodes) + list(new_nodes),
            edges=_canonical_edges(list(self.edges) + list(new_edges)),
            node_index=dict(self.node_index) if self.node_index else None,
        )


def _canonical_edges(edges: Iterable[tuple[int, int, float]]) -> list[tuple[int, int, float]]:
    out = []
    seen = set()
    for i, j, w in edges:
        if i == j:
            raise ValidationError(f"self-loop on node {i}")
        a, b = (i, j) if i < j else (j, i)
        if (a, b) in seen:
            raise ValidationError(f"duplicate edge ({a}, {b})")
        seen.add((a, b))
        out.append((a, b, float(w)))
    out.sort()
    return out


def relabel_dense(
    nodes: dict[int, GraphNode], edges: Iterable[tuple[int, int, float]]
) -> SurfaceGraph:
    """Standalone graph over a subset of nodes, renumbered densely.

    `nodes` maps original ids to payloads and `edges` uses original ids.  New
    ids follow ascending original id; `node_index` maps original to new id.
    """
    index = {orig: k for k, orig in enumerate(sorted(nodes))}
    return SurfaceGraph(
        nodes=[replace(nodes[orig], id=k) for orig, k in index.items()],
        edges=_canonical_edges((index[i], index[j], w) for i, j, w in edges),
        node_index=index,
    )


def graph_from_navmesh(surface: WalkableSurface) -> SurfaceGraph:
    """One node per polygon center, one edge per shared polygon edge.

    Edge weight is the Euclidean distance between the two centers; coincident
    centers raise DegenerateEdge.
    """
    nodes = [
        GraphNode(
            id=pid,
            position=surface.polygon_centers[pid].copy(),
            normal=surface.polygon_normals[pid].copy(),
            on_navmesh=True,
            source=SOURCE_POLYGON,
        )
        for pid in range(len(surface.polygons))
    ]
    edges = []
    for pid, nbrs in enumerate(surface.adjacency):
        for qid, _edge in nbrs:
            if pid < qid:
                w = float(
                    np.linalg.norm(surface.polygon_centers[pid] - surface.polygon_centers[qid])
                )
                if w < 1e-12:
                    raise DegenerateEdge(
                        f"polygon centers {pid} and {qid} coincide (zero-weight edge)"
                    )
                edges.append((pid, qid, w))
    return SurfaceGraph(
        nodes=nodes,
        edges=_canonical_edges(edges),
        node_index={pid: pid for pid in range(len(nodes))},
    )


def load_graph_json(path: str | Path) -> SurfaceGraph:
    """Load a graph from JSON: {"nodes": [{"pos": [...], "normal": [...]}],
    "edges": [[i, j, w], ...]}.  `normal` defaults to +Z and is scaled to unit
    length (a zero normal is a ParseError); a 2-element edge entry gets a
    Euclidean weight."""
    p = Path(path)
    data = read_json(p)
    if not isinstance(data, dict) or "nodes" not in data or "edges" not in data:
        raise ParseError(f"{p}: expected object with 'nodes' and 'edges'")
    if not isinstance(data["nodes"], list) or not isinstance(data["edges"], list):
        raise ParseError(f"{p}: 'nodes' and 'edges' must be lists")
    nodes = []
    for k, rec in enumerate(data["nodes"]):
        if not isinstance(rec, dict) or "pos" not in rec:
            raise ParseError(f"{p}: node {k} must be an object with 'pos'")
        pos = _finite_vector(rec["pos"], f"{p}: node {k} 'pos'")
        normal = _finite_vector(rec.get("normal", UP), f"{p}: node {k} 'normal'")
        length = math.hypot(*normal.tolist())
        if not 0.0 < length < math.inf:
            raise ParseError(f"{p}: node {k} 'normal' must have a nonzero finite length")
        normal = normal / length
        nodes.append(
            GraphNode(id=k, position=pos, normal=normal, on_navmesh=True, source=SOURCE_SAMPLE)
        )
    _check_extent(np.array([n.position for n in nodes]).reshape(-1, 3), "graph node")
    edges = []
    for rec in data["edges"]:
        if not isinstance(rec, list) or len(rec) not in (2, 3):
            raise ParseError(f"{p}: edge entries must be [i, j] or [i, j, w]")
        i, j = as_index(rec[0], p), as_index(rec[1], p)
        try:
            w = float(rec[2]) if len(rec) == 3 else None
        except (TypeError, ValueError) as exc:
            raise ParseError(f"{p}: edge {rec!r} weight must be a number") from exc
        if not (0 <= i < len(nodes) and 0 <= j < len(nodes)):
            raise ParseError(f"{p}: edge ({i}, {j}) out of range")
        if w is None:
            w = float(np.linalg.norm(nodes[i].position - nodes[j].position))
        if not math.isfinite(w):
            raise ParseError(f"{p}: edge ({i}, {j}) has non-finite weight")
        if w <= 0.0:
            raise DegenerateEdge(f"edge ({i}, {j}) has non-positive weight {w}")
        edges.append((i, j, w))
    return SurfaceGraph(nodes=nodes, edges=_canonical_edges(edges))


def _finite_vector(value, what: str) -> np.ndarray:
    """`value` as a finite 3-vector, or ParseError naming `what`."""
    try:
        vec = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{what} must hold 3 numbers") from exc
    if vec.shape != (3,):
        raise ParseError(f"{what} must have 3 components")
    if not np.isfinite(vec).all():
        raise ParseError(f"{what} must be finite")
    return vec
