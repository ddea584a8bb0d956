"""Surface-derived graphs: polygon-center graphs and JSON I/O."""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np
from scipy.sparse import csr_matrix

from .errors import DegenerateEdge, ParseError, ValidationError
from .mesh import WalkableSurface, _check_coordinates, _row_dots, as_index, as_number, read_json

SOURCE_POLYGON = "polygon-center"
SOURCE_SAMPLE = "sample"
SOURCE_ENTRY_EXIT = "entry-exit"


@dataclass
class GraphNode:
    """A node payload.  `polygon` is the walkable polygon the node sits on,
    -1 when it lies off the surface, or None when there is no surface to
    tell (a graph read from JSON, an on-surface node of a reloaded
    structure)."""

    position: np.ndarray  # (3,)
    normal: np.ndarray    # (3,) unit
    polygon: int | None = None
    source: str = SOURCE_POLYGON
    terminal: bool = False

    @property
    def on_navmesh(self) -> bool:
        return self.polygon != -1


class Arcs(NamedTuple):
    """Every edge in both directions: arc k runs tail[k] -> head[k] with
    weight[k], the arcs ordered by (tail, head).  `matrix` is the same arcs
    as a weighted CSR matrix, row by tail, so each row lists its heads
    ascending; `head` and `weight` are its `indices` and `data`."""

    matrix: csr_matrix
    tail: np.ndarray
    head: np.ndarray
    weight: np.ndarray


class SurfaceGraph:
    """Undirected simple graph with 3D node payloads.

    Node ids are dense 0..N-1: a node's id is its index in `nodes`.  The
    constructor takes the edges as rows of (i, j, w), a list of tuples or an
    (E, 3) array, in any order and either orientation.  It refuses a
    self-loop (the first one listed), a repeated edge (the lowest pair) and
    weights whose sum is not a finite float (no shortest path sums more than
    all the weights, so none overflows) with a ValidationError.  It stores
    `edges` once each as (i, j, w) tuples of Python ints and floats with
    i < j, sorted, and builds `arcs` from the same arrays.
    """

    nodes: list[GraphNode]
    edges: list[tuple[int, int, float]]
    arcs: Arcs

    def __init__(
        self, nodes: list[GraphNode], edges: list[tuple[int, int, float]] | np.ndarray
    ) -> None:
        rows = np.asarray(edges, dtype=float).reshape(-1, 3)
        ends = rows[:, :2].astype(np.intp)
        loops = np.flatnonzero(ends[:, 0] == ends[:, 1])
        if len(loops):
            raise ValidationError(f"self-loop on node {ends[loops[0], 0]}")
        ends.sort(axis=1)
        order = np.lexsort((ends[:, 1], ends[:, 0]))
        i, j = ends[order].T
        weights = rows[order, 2]
        repeats = np.flatnonzero((i[1:] == i[:-1]) & (j[1:] == j[:-1]))
        if len(repeats):
            k = repeats[0]
            raise ValidationError(f"duplicate edge ({i[k]}, {j[k]})")
        listed = weights.tolist()
        try:
            total = math.fsum(listed)
        except (OverflowError, ValueError):  # an exact sum past the float range, or inf - inf
            total = math.inf
        if not math.isfinite(total):
            raise ValidationError("edge weights sum past the float range")
        self.nodes = nodes
        self.edges = list(zip(i.tolist(), j.tolist(), listed))
        n = len(nodes)
        tail, head = np.concatenate([i, j]), np.concatenate([j, i])
        order = np.lexsort((head, tail))
        tail, head, weight = tail[order], head[order], np.concatenate([weights, weights])[order]
        matrix = csr_matrix((weight, head, np.searchsorted(tail, np.arange(n + 1))), shape=(n, n))
        self.arcs = Arcs(matrix, tail, matrix.indices, matrix.data)

    def __len__(self) -> int:
        return len(self.nodes)

    def adjacency(self) -> list[list[tuple[int, float]]]:
        """Per-node (neighbor, weight) lists, neighbors ascending: the rows of
        `arcs`, read out anew on each call."""
        pairs = list(zip(self.arcs.head.tolist(), self.arcs.weight.tolist()))
        ptr = self.arcs.matrix.indptr.tolist()
        return [pairs[ptr[v]:ptr[v + 1]] for v in range(len(self.nodes))]

    def positions(self) -> np.ndarray:
        return np.array([n.position for n in self.nodes])

    def centroid(self) -> np.ndarray:
        return self.positions().mean(axis=0)


def relabel_dense(
    nodes: dict[int, GraphNode], edges: Iterable[tuple[int, int, float]]
) -> SurfaceGraph:
    """Standalone graph over a subset of nodes, renumbered densely.

    `nodes` maps original ids to payloads and `edges` uses original ids.  New
    id k is the k-th smallest original id; the payload objects are shared.
    """
    index = {orig: k for k, orig in enumerate(sorted(nodes))}
    return SurfaceGraph(
        [nodes[orig] for orig in index], [(index[i], index[j], w) for i, j, w in edges]
    )


def graph_from_navmesh(surface: WalkableSurface) -> SurfaceGraph:
    """One node per polygon center, one edge per shared polygon edge.

    Edge weight is the Euclidean distance between the two centers, each as
    np.linalg.norm gives it (see mesh._row_dots); coincident centers raise
    DegenerateEdge for the lowest such pair.
    """
    # rows of one copy of the centres and one of the normals; GraphNode takes
    # position, normal, polygon in that order, and source defaults to SOURCE_POLYGON
    positions = surface.polygon_centers.copy()
    nodes = list(map(GraphNode, positions, surface.polygon_normals.copy(), range(len(positions))))
    # owners are listed ascending, so each pair is (p, q) with p < q
    pairs = np.array(
        [pid for o in surface.edge_polygons.values() if len(o) == 2 for pid in o], dtype=np.intp
    ).reshape(-1, 2)
    p, q = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))].T
    d = positions[p] - positions[q]
    weights = np.sqrt(_row_dots(d, d))
    coincide = np.flatnonzero(weights < 1e-12)
    if len(coincide):
        k = coincide[0]
        raise DegenerateEdge(f"polygon centers {p[k]} and {q[k]} coincide (zero-weight edge)")
    return SurfaceGraph(nodes, np.column_stack((p, q, weights)))


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
        normal = _finite_vector(rec.get("normal", [0.0, 0.0, 1.0]), f"{p}: node {k} 'normal'")
        length = math.hypot(*normal.tolist())
        if not 0.0 < length < math.inf:
            raise ParseError(f"{p}: node {k} 'normal' must have a nonzero finite length")
        normal = normal / length
        nodes.append(
            GraphNode(position=pos, normal=normal, source=SOURCE_SAMPLE)
        )
    _check_coordinates(np.array([n.position for n in nodes]).reshape(-1, 3), "graph node")
    edges = []
    for rec in data["edges"]:
        if not isinstance(rec, list) or len(rec) not in (2, 3):
            raise ParseError(f"{p}: edge entries must be [i, j] or [i, j, w]")
        i, j = as_index(rec[0], p), as_index(rec[1], p)
        w = as_number(rec[2], p) if len(rec) == 3 else None
        if not (0 <= i < len(nodes) and 0 <= j < len(nodes)):
            raise ParseError(f"{p}: edge ({i}, {j}) out of range")
        if w is None:
            w = float(np.linalg.norm(nodes[i].position - nodes[j].position))
        if not math.isfinite(w):
            raise ParseError(f"{p}: edge ({i}, {j}) has non-finite weight")
        if w <= 0.0:
            raise DegenerateEdge(f"edge ({i}, {j}) has non-positive weight {w}")
        edges.append((i, j, w))
    return SurfaceGraph(nodes, edges)


def _finite_vector(value, what: str) -> np.ndarray:
    """`value` as a finite 3-vector, or ParseError naming `what`."""
    if not isinstance(value, list) or len(value) != 3:
        raise ParseError(f"{what} must have 3 components")
    numbers = [as_number(x, what) for x in value]
    if not all(map(math.isfinite, numbers)):
        raise ParseError(f"{what} must be finite")
    return np.array(numbers)
