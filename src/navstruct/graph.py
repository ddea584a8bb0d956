"""Surface-derived graphs: polygon-center graphs and JSON I/O."""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, compress, repeat
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

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

    def ascending(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each edge once: the tail, head and weight of the arcs with
        tail < head, in (tail, head) order."""
        up = self.tail < self.head
        return self.tail[up], self.head[up], self.weight[up]


class SurfaceGraph:
    """Undirected simple graph with 3D node payloads.

    Node ids are dense 0..N-1: a node's id is its index in `nodes`.  The
    constructor takes the edges as rows of (i, j, w), a list of tuples or an
    (E, 3) array, in any order and either orientation.  It refuses, with a
    ValidationError, an end that is not a node id (the first such row), a
    self-loop (the first one listed), a repeated edge (the lowest pair) and
    weights whose sum, taken in (i, j) order, is not a finite float (no
    shortest path sums more than all the weights, so none overflows).  It
    keeps each edge once, in `arcs`; `edges` reads them out.
    """

    nodes: list[GraphNode]
    arcs: Arcs

    def __init__(
        self, nodes: list[GraphNode], edges: list[tuple[int, int, float]] | np.ndarray
    ) -> None:
        n = len(nodes)
        rows = np.asarray(edges, dtype=float).reshape(-1, 3)
        ends = rows[:, :2]
        stray = np.flatnonzero(((ends < 0) | (ends >= n) | (ends != np.floor(ends))).any(axis=1))
        if len(stray):
            a, b = ends[stray[0]]
            raise ValidationError(f"edge {stray[0]} ({a:g}, {b:g}) has an end outside the {n} node ids")
        ends = ends.astype(np.intp)
        loops = np.flatnonzero(ends[:, 0] == ends[:, 1])
        if len(loops):
            raise ValidationError(f"self-loop on node {ends[loops[0], 0]}")
        ends.sort(axis=1)
        order = np.lexsort((ends[:, 1], ends[:, 0]))
        i, j = ends[order].T
        repeats = np.flatnonzero((i[1:] == i[:-1]) & (j[1:] == j[:-1]))
        if len(repeats):
            k = repeats[0]
            raise ValidationError(f"duplicate edge ({i[k]}, {j[k]})")
        w = rows[order, 2]
        try:
            total = math.fsum(w.tolist())
        except (OverflowError, ValueError):  # an exact sum past the float range, or inf - inf
            total = math.inf
        if not math.isfinite(total):
            raise ValidationError("edge weights sum past the float range")
        self.nodes = nodes
        # every edge in both directions, sorted by (tail, head)
        tail, head = np.concatenate([i, j]), np.concatenate([j, i])
        order = np.lexsort((head, tail))
        tail = tail[order]
        matrix = csr_matrix(
            (np.concatenate([w, w])[order], head[order], np.searchsorted(tail, np.arange(n + 1))),
            shape=(n, n),
        )
        self.arcs = Arcs(matrix, tail, matrix.indices, matrix.data)

    @property
    def edges(self) -> list[tuple[int, int, float]]:
        """Each edge once as (i, j, w), ints and a float, i < j, sorted: the
        arcs with tail < head, read out into a new list on each read."""
        return list(zip(*(col.tolist() for col in self.arcs.ascending())))

    def __len__(self) -> int:
        return len(self.nodes)

    def positions(self) -> np.ndarray:
        return np.array([n.position for n in self.nodes])

    def centroid(self) -> np.ndarray:
        return self.positions().mean(axis=0)


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
    # each shared edge once, from the corner of its lower polygon: (p, q), p < q
    sizes = list(map(len, surface.across))
    across = np.fromiter(chain.from_iterable(surface.across), np.intp, sum(sizes))
    owner = np.repeat(np.arange(len(sizes)), sizes)
    ahead = across > owner
    p, q = owner[ahead], across[ahead]
    order = np.lexsort((q, p))
    p, q = p[order], q[order]
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
    Euclidean weight.

    `_graph_from_arrays` reads the document in passes over whole lists; when
    it declines, `load_graph_json_per_node` reads it one record at a time
    and its answer stands: the graph, or the first faulty record's error."""
    p = Path(path)
    data = read_json(p)
    graph = _graph_from_arrays(data, p)
    return load_graph_json_per_node(p, data) if graph is None else graph


def _graph_from_arrays(data, p: Path) -> SurfaceGraph | None:
    """The graph of the JSON document `data` read from `p`, by passes over
    whole lists; None when a pass raises ValueError or OverflowError.
    ParseError unless 'nodes' and 'edges' are lists."""
    records, links = _graph_lists(data, p)
    try:
        positions, normals = _node_arrays(records)
        _check_coordinates(positions, "graph node")
        rows = _edge_rows(links, positions)
    except (OverflowError, ValueError):
        return None
    nodes = list(map(GraphNode, positions, normals, repeat(None), repeat(SOURCE_SAMPLE)))
    return SurfaceGraph(nodes, rows)


def load_graph_json_per_node(path: str | Path, data=None) -> SurfaceGraph:
    """`load_graph_json` one record at a time: each node's vectors through
    `_finite_vector`, each 2-element edge's weight through its own
    np.linalg.norm call, and the edges passed on as a list of tuples.
    `data` is the file's JSON document when the caller has read it already.
    Raises the first faulty record's error, in file order."""
    p = Path(path)
    records, links = _graph_lists(read_json(p) if data is None else data, p)
    nodes = []
    for k, rec in enumerate(records):
        if not isinstance(rec, dict) or "pos" not in rec:
            raise ParseError(f"{p}: node {k} must be an object with 'pos'")
        pos = _finite_vector(rec["pos"], f"{p}: node {k} 'pos'")
        normal = _finite_vector(rec.get("normal", [0.0, 0.0, 1.0]), f"{p}: node {k} 'normal'")
        length = math.hypot(*normal.tolist())
        if not 0.0 < length < math.inf:
            raise ParseError(f"{p}: node {k} 'normal' must have a nonzero finite length")
        nodes.append(GraphNode(position=pos, normal=normal / length, source=SOURCE_SAMPLE))
    _check_coordinates(np.array([n.position for n in nodes]).reshape(-1, 3), "graph node")
    edges = []
    for rec in links:
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


def _graph_lists(data, p: Path) -> tuple[list, list]:
    """The node and edge records of a graph document; ParseError unless it
    is an object whose 'nodes' and 'edges' are lists."""
    if not isinstance(data, dict) or "nodes" not in data or "edges" not in data:
        raise ParseError(f"{p}: expected object with 'nodes' and 'edges'")
    if not isinstance(data["nodes"], list) or not isinstance(data["edges"], list):
        raise ParseError(f"{p}: 'nodes' and 'edges' must be lists")
    return data["nodes"], data["edges"]


def _node_arrays(records: list) -> tuple[np.ndarray, np.ndarray]:
    """Positions and unit normals of the node records, as (N, 3) arrays.  A
    node without a normal gets +Z; a given one is scaled by its math.hypot
    length.  ValueError or OverflowError when a record is at fault."""
    if set(map(type, records)) - {dict} or not all(map(dict.__contains__, records, repeat("pos"))):
        raise ValueError("a node record is not an object with 'pos'")
    positions = _vectors(list(map(itemgetter("pos"), records)))
    normals = np.zeros_like(positions)
    normals[:, 2] = 1.0
    given = list(compress(range(len(records)), map(dict.__contains__, records, repeat("normal"))))
    if given:
        vectors = _vectors([records[k]["normal"] for k in given])
        lengths = np.array([math.hypot(*v) for v in vectors.tolist()])
        if not ((0.0 < lengths) & (lengths < math.inf)).all():
            raise ValueError("a node normal has a zero or infinite length")
        normals[given] = vectors / lengths[:, None]
    return positions, normals


def _vectors(values: list) -> np.ndarray:
    """`values` as a (k, 3) array: ValueError unless each is a list of three
    JSON numbers (ints or floats, not bools), all finite; OverflowError for
    an int past the float range."""
    if set(map(type, values)) - {list} or set(map(len, values)) - {3}:
        raise ValueError("a vector is not a list of 3 components")
    flat = list(chain.from_iterable(values))
    if set(map(type, flat)) - {int, float}:
        raise ValueError("a vector component is not a number")
    out = np.fromiter(map(float, flat), dtype=float, count=len(flat)).reshape(-1, 3)
    if not np.isfinite(out).all():
        raise ValueError("a vector component is not finite")
    return out


def _edge_rows(links: list, positions: np.ndarray) -> np.ndarray:
    """The edge records as (E, 3) rows (i, j, w) in file order.  A 2-element
    record gets the distance between its nodes, each as np.linalg.norm gives
    it (see mesh._row_dots).  ValueError or OverflowError when a record is
    at fault."""
    if set(map(type, links)) - {list}:
        raise ValueError("an edge record is not a list")
    sizes = list(map(len, links))
    if set(sizes) - {2, 3}:
        raise ValueError("an edge record has neither 2 nor 3 entries")
    ends = list(chain.from_iterable(map(itemgetter(0, 1), links)))
    kinds = set(map(type, ends))
    if kinds - {int, float} or float in kinds and not all(
        x.is_integer() for x in ends if type(x) is float
    ):
        raise ValueError("an edge end is not an integer")
    ij = np.fromiter(map(int, ends), dtype=np.intp, count=len(ends)).reshape(-1, 2)
    if ij.size and not (ij.min() >= 0 and ij.max() < len(positions)):
        raise ValueError("an edge end is out of range")
    given = np.array(sizes) == 3
    weights = list(map(itemgetter(2), compress(links, given)))
    if set(map(type, weights)) - {int, float}:
        raise ValueError("an edge weight is not a number")
    w = np.empty(len(links))
    w[given] = np.fromiter(map(float, weights), dtype=float, count=len(weights))
    d = positions[ij[~given, 0]] - positions[ij[~given, 1]]
    w[~given] = np.sqrt(_row_dots(d, d))
    if not (np.isfinite(w) & (w > 0.0)).all():
        raise ValueError("an edge weight is not finite and positive")
    return np.column_stack((ij, w))


def _finite_vector(value, what: str) -> np.ndarray:
    """`value` as a finite 3-vector, or ParseError naming `what`."""
    if not isinstance(value, list) or len(value) != 3:
        raise ParseError(f"{what} must have 3 components")
    numbers = [as_number(x, what) for x in value]
    if not all(map(math.isfinite, numbers)):
        raise ParseError(f"{what} must be finite")
    return np.array(numbers)
