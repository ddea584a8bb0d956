"""Brute-force reference implementations used to cross-check the fast paths.

Every function here deliberately takes a different algorithmic route from the
implementation it validates: Floyd-Warshall + explicit path counting instead
of priority-queue searches, exhaustive subset enumeration instead of greedy
construction, dense eigendecomposition instead of Lanczos, explicit matrix
powers instead of a sparse linear solve.
"""
from __future__ import annotations

import dataclasses
import itertools
import json
import math
import random
import tempfile
from heapq import heapify, heappop, heappush
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

from . import mesh
from .errors import DegenerateEdge, NavStructError, PointOffMesh, ValidationError
from .graph import (
    SOURCE_ENTRY_EXIT,
    SOURCE_POLYGON,
    GraphNode,
    SurfaceGraph,
    _graph_from_arrays,
    graph_from_navmesh,
    load_graph_json_per_node,
)
from .mesh import (
    DEFAULT_HEIGHT_TOL,
    GEOM_EPS,
    PLANE_EPS,
    BlockerMesh,
    WalkableSurface,
    _check_coordinates,
    _row_dots,
    _stitch_boundary_loops,
    _weld,
    build_blocker_mesh,
    build_walkable_surface,
    parse_obj_per_line,
)
from .raycast import EPS, _segment_box
from .terminals import (
    BoundarySamples,
    TerminalSet,
    _end_positions,
    classify_samples,
    register_terminals,
    sample_boundary,
)
from .trees import SimplifyConfig

_TIE_TOL = 1e-12


def adjacency(g: SurfaceGraph) -> list[list[tuple[int, float]]]:
    """Per-node (neighbor, weight) lists, neighbors ascending: the rows of
    `g.arcs`, read out anew on each call."""
    pairs = list(zip(g.arcs.head.tolist(), g.arcs.weight.tolist()))
    ptr = g.arcs.matrix.indptr.tolist()
    return [pairs[ptr[v]:ptr[v + 1]] for v in range(len(g.nodes))]


def weight_matrix(g: SurfaceGraph, weighted: bool = True) -> np.ndarray:
    n = len(g.nodes)
    w = np.full((n, n), np.inf)
    np.fill_diagonal(w, 0.0)
    for i, j, wt in g.edges:
        w[i, j] = w[j, i] = wt if weighted else 1.0
    return w


def dijkstra_tree_heap(g: SurfaceGraph, sources: list[int]) -> tuple[list[float], list[int]]:
    """Distances to the nearest source and predecessors by a binary-heap
    search in Python, its heap seeded with every source at distance 0.
    Settling u offers d + w to each unsettled neighbour v: a smaller value
    replaces v's predecessor list, an equal one joins it.  Each node keeps the
    smallest id of its list, -1 for a source or an empty list."""
    n = len(g.nodes)
    dist = [math.inf] * n
    preds: list[list[int]] = [[] for _ in range(n)]
    done = [False] * n
    for s in sources:
        dist[s] = 0.0
    adj = adjacency(g)
    heap = [(0.0, s) for s in sources]
    heapify(heap)
    while heap:
        d, u = heappop(heap)
        if done[u]:
            continue
        done[u] = True
        for v, w in adj[u]:
            if done[v]:
                continue
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                preds[v] = [u]
                heappush(heap, (nd, v))
            elif nd == dist[v]:
                preds[v].append(u)
    for s in sources:
        preds[s] = []
    return dist, [min(p) if p else -1 for p in preds]


def sub_ulp_graphs() -> list[SurfaceGraph]:
    """Graphs where a weight vanishes in the rounding of a distance, so two
    neighbours end at the same distance and the heap's settle order decides
    which is the other's predecessor.  In the second, reading both equal
    arcs as tight would make nodes 1 and 2 each other's predecessor."""
    from .fixtures import graph_from_edges

    return [
        graph_from_edges([(float(k), 0.0, 0.0) for k in range(n)], edges)
        for n, edges in (
            (3, [(0, 2, 1e17), (1, 2, 1.0)]),
            (5, [(0, 3, 1.0), (0, 4, 1.0), (1, 3, 1e17), (2, 4, 1e17), (1, 2, 1.0)]),
        )
    ]


def floyd_warshall(w: np.ndarray) -> np.ndarray:
    d = w.copy()
    n = len(d)
    for k in range(n):
        np.minimum(d, d[:, k, None] + d[None, k, :], out=d)
    return d


def shortest_path_counts(g: SurfaceGraph, d: np.ndarray, weighted: bool = True) -> np.ndarray:
    """sigma[s, v]: number of minimum-weight s->v paths, counted by dynamic
    programming over nodes in increasing distance order."""
    n = len(g.nodes)
    adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for i, j, wt in g.edges:
        wt = wt if weighted else 1.0
        adj[i].append((j, wt))
        adj[j].append((i, wt))
    sigma = np.zeros((n, n))
    for s in range(n):
        order = sorted(range(n), key=lambda v: d[s, v])
        sigma[s, s] = 1.0
        for v in order:
            if v == s or not np.isfinite(d[s, v]):
                continue
            acc = 0.0
            for u, wt in adj[v]:
                if abs(d[s, u] + wt - d[s, v]) <= _TIE_TOL * max(1.0, d[s, v]):
                    acc += sigma[s, u]
            sigma[s, v] = acc
    return sigma


def betweenness_oracle(g: SurfaceGraph, weighted: bool = True) -> list[float]:
    """Betweenness from all-pairs distances and path counts: for every
    unordered pair (s, t), each interior node v on a shortest path receives
    sigma_sv * sigma_tv / sigma_st."""
    n = len(g.nodes)
    d = floyd_warshall(weight_matrix(g, weighted))
    sigma = shortest_path_counts(g, d, weighted)
    cb = [0.0] * n
    for s in range(n):
        for t in range(s + 1, n):
            if not np.isfinite(d[s, t]) or sigma[s, t] == 0.0:
                continue
            for v in range(n):
                if v == s or v == t:
                    continue
                if abs(d[s, v] + d[v, t] - d[s, t]) <= _TIE_TOL * max(1.0, d[s, t]):
                    cb[v] += sigma[s, v] * sigma[t, v] / sigma[s, t]
    return cb


def mst_weight_exhaustive(n: int, edges: list[tuple[int, int, float]]) -> float | None:
    """Minimum spanning weight by trying every (n-1)-edge subset."""
    if n == 1:
        return 0.0
    best = None
    for combo in itertools.combinations(range(len(edges)), n - 1):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        ok = True
        total = 0.0
        for idx in combo:
            i, j, w = edges[idx]
            ri, rj = find(i), find(j)
            if ri == rj:
                ok = False
                break
            parent[ri] = rj
            total += w
        if ok and (best is None or total < best):
            best = total
    return best


def _prim(nodes: list[int], weight: dict[tuple[int, int], float]):
    """Prim's algorithm over an explicit node set; returns (weight, edges) or
    None when the induced graph is disconnected."""
    if not nodes:
        return None
    in_tree = {nodes[0]}
    edges = []
    total = 0.0
    while len(in_tree) < len(nodes):
        best = None
        for u in sorted(in_tree):
            for v in nodes:
                if v in in_tree:
                    continue
                key = (u, v) if u < v else (v, u)
                if key in weight:
                    cand = (weight[key], key[0], key[1])
                    if best is None or cand < best:
                        best = cand
        if best is None:
            return None
        w, a, b = best
        total += w
        edges.append((a, b, w))
        in_tree.update((a, b))
    return total, edges


def steiner_exhaustive(
    g: SurfaceGraph, terminals: list[int]
) -> tuple[float, int]:
    """Optimal Steiner weight by enumerating every subset of candidate
    intermediate nodes; also returns the largest leaf count among all optimal
    trees found (for the approximation-bound factor)."""
    weight = {(i, j): w for i, j, w in g.edges}
    term = sorted(set(terminals))
    others = [v for v in range(len(g.nodes)) if v not in set(term)]
    best = None
    best_leaves = 2
    for r in range(len(others) + 1):
        for extra in itertools.combinations(others, r):
            nodes = sorted(term + list(extra))
            res = _prim(nodes, weight)
            if res is None:
                continue
            total, edges = res
            if best is None or total < best - 1e-12:
                best = total
                best_leaves = _leaf_count(nodes, edges)
            elif abs(total - best) <= 1e-12:
                best_leaves = max(best_leaves, _leaf_count(nodes, edges))
    if best is None:
        raise ValueError("terminals cannot be connected")
    return best, best_leaves


def _leaf_count(nodes, edges) -> int:
    deg = {v: 0 for v in nodes}
    for a, b, _ in edges:
        deg[a] += 1
        deg[b] += 1
    return sum(1 for v in nodes if deg[v] == 1)


def eigenvector_oracle(g: SurfaceGraph) -> list[float]:
    """Principal eigenvector from a dense symmetric eigendecomposition,
    normalized to unit max-norm."""
    n = len(g.nodes)
    a = np.zeros((n, n))
    for i, j, _ in g.edges:
        a[i, j] = a[j, i] = 1.0
    vals, vecs = np.linalg.eigh(a)
    v = vecs[:, int(np.argmax(vals))]
    if v[int(np.argmax(np.abs(v)))] < 0:
        v = -v
    v = v / v.max()
    return [float(x) for x in v]


def katz_oracle(g: SurfaceGraph, alpha: float, terms: int = 10000) -> list[float]:
    """Katz scores by summing explicit matrix powers alpha^i A^i applied to
    the all-ones vector until the added term is negligible."""
    n = len(g.nodes)
    a = np.zeros((n, n))
    for i, j, _ in g.edges:
        a[i, j] = a[j, i] = 1.0
    power = np.eye(n)
    total = np.zeros(n)
    ones = np.ones(n)
    for _ in range(terms):
        power = power @ (alpha * a)
        term = power @ ones
        total += term
        if float(np.abs(term).max()) < 1e-12:
            break
    return [float(x) for x in total]


def tree_path_interior_counts(g: SurfaceGraph) -> list[float]:
    """Betweenness on a tree by walking the unique path of every pair."""
    n = len(g.nodes)
    adj = adjacency(g)
    cb = [0.0] * n

    def path(s, t):
        prev = {s: None}
        stack = [s]
        while stack:
            v = stack.pop()
            if v == t:
                break
            for u, _ in adj[v]:
                if u not in prev:
                    prev[u] = v
                    stack.append(u)
        out = [t]
        while prev[out[-1]] is not None:
            out.append(prev[out[-1]])
        return out

    for s in range(n):
        for t in range(s + 1, n):
            for v in path(s, t)[1:-1]:
                cb[v] += 1.0
    return cb


def _newell_normal(ring_pts: np.ndarray) -> np.ndarray:
    """Area-weighted ring normal; direction follows the ring winding."""
    n = np.zeros(3)
    k = len(ring_pts)
    for i in range(k):
        a = ring_pts[i]
        b = ring_pts[(i + 1) % k]
        n[0] += (a[1] - b[1]) * (a[2] + b[2])
        n[1] += (a[2] - b[2]) * (a[0] + b[0])
        n[2] += (a[0] - b[0]) * (a[1] + b[1])
    return n


def build_walkable_surface_per_polygon(
    vertices, polygons, *, plane_eps: float = PLANE_EPS, weld_eps: float = 0.0
) -> WalkableSurface:
    """`mesh.build_walkable_surface` one polygon at a time: each ring is
    checked, measured and given its reach in its own numpy calls, and
    `across` and the boundary edges are read from `edge_polygons`, a dict
    built by a walk over every ring corner."""
    verts = np.asarray(vertices, dtype=float)
    if verts.ndim != 2 or verts.shape[1] != 3:
        raise ValidationError("vertices must be an (N, 3) array")
    _check_coordinates(verts, "surface vertex")
    polys = [list(map(int, ring)) for ring in polygons]

    if weld_eps > 0.0 and len(verts):
        verts, polys = _weld(verts, polys, weld_eps)

    if not polys:
        raise ValidationError("surface has no polygons")

    normals = np.zeros((len(polys), 3))
    centers = np.zeros((len(polys), 3))
    offsets = np.zeros(len(polys))
    reach = 0.0
    for pid, ring in enumerate(polys):
        if len(ring) < 3:
            raise ValidationError(f"polygon {pid}: ring has fewer than 3 vertices")
        if any(i < 0 or i >= len(verts) for i in ring):
            raise ValidationError(f"polygon {pid}: vertex index out of range")
        if len(set(ring)) != len(ring):
            raise ValidationError(f"polygon {pid}: ring repeats a vertex")
        pts = verts[ring]
        # edges[k] runs from ring position k to k + 1, turning into edges[k + 1]
        edges = np.roll(pts, -1, axis=0) - pts
        lengths = np.sqrt((edges * edges).sum(axis=1))
        if lengths.min() < 1e-12:
            raise ValidationError(f"polygon {pid}: zero-length edge")
        n = _newell_normal(pts)
        norm = np.linalg.norm(n)
        if norm < 1e-12:
            raise ValidationError(f"polygon {pid}: degenerate (zero area)")
        n = n / norm
        center = pts.mean(axis=0)
        # planarity: every vertex within plane_eps of the centroid plane
        dev = np.abs((pts - center) @ n)
        if dev.max() > plane_eps:
            raise ValidationError(
                f"polygon {pid}: non-planar (deviation {dev.max():.3e} > {plane_eps:.3e})"
            )
        # convexity: consecutive edge turns must not flip against the normal;
        # the cross product is written out with np.cross's own expressions
        (ax, ay, az), (bx, by, bz) = edges.T, np.roll(edges, -1, axis=0).T
        turn = (ay * bz - az * by) * n[0] + (az * bx - ax * bz) * n[1] + (ax * by - ay * bx) * n[2]
        flipped = np.flatnonzero(turn < -plane_eps * (lengths * np.roll(lengths, -1)))
        if len(flipped):
            raise ValidationError(f"polygon {pid}: non-convex at ring position {flipped[0]}")
        normals[pid] = n
        centers[pid] = center
        offsets[pid] = float(np.dot(n, center))
        # reach: the farthest corner, grown by the clip's GEOM_EPS over the
        # thinnest centre-edge triangle projected along the dominant axis
        rel = pts - center
        kept = rel[:, [[1, 2], [0, 2], [0, 1]][int(np.argmax(np.abs(n)))]]
        nxt = np.roll(kept, -1, axis=0)
        thin = np.abs(kept[:, 0] * nxt[:, 1] - kept[:, 1] * nxt[:, 0]).min()
        grow = math.inf if thin == 0.0 else GEOM_EPS / thin
        far = np.linalg.norm(rel, axis=1).max() + math.sqrt(3.0) * plane_eps
        reach = max(reach, float(far * (1.0 + grow)))
    dominant = np.argmax(np.abs(normals), axis=1)
    axes = np.array([[1, 2], [0, 2], [0, 1]])[dominant]
    winding = np.where(normals * [1.0, -1.0, 1.0] >= 0.0, 1.0, -1.0)

    # each corner's edge looked up in the edge -> owners map
    owners = edge_polygons(polys)
    across, boundary = [], []
    for pid, ring in enumerate(polys):
        across.append([])
        for k in range(len(ring)):
            a, b = ring[k], ring[(k + 1) % len(ring)]
            beyond = [q for q in owners[(a, b) if a < b else (b, a)] if q != pid]
            across[pid].append(beyond[0] if beyond else -1)
            if not beyond:
                boundary.append((a, b, pid))

    return WalkableSurface(
        vertices=verts,
        polygons=polys,
        polygon_normals=normals,
        polygon_centers=centers,
        polygon_offsets=offsets,
        polygon_axes=axes,
        polygon_winding=winding,
        axis_coords=verts.T.tolist(),
        boundary_edges=_stitch_boundary_loops(boundary),
        polygon_tree=cKDTree(centers),
        polygon_reach=reach,
        across=across,
    )


def edge_polygons(polygons: list[list[int]]) -> dict[tuple[int, int], list[int]]:
    """Undirected (min, max) edge -> the ids of the polygons that own it, in
    id order: two for an interior edge, one for a boundary edge.  Raises
    ValidationError for the first edge a walk over the ring corners finds a
    third owner of."""
    edges: dict[tuple[int, int], list[int]] = {}
    for pid, ring in enumerate(polygons):
        for k in range(len(ring)):
            a, b = ring[k], ring[(k + 1) % len(ring)]
            key = (a, b) if a < b else (b, a)
            owners = edges.setdefault(key, [])
            owners.append(pid)
            if len(owners) > 2:
                raise ValidationError(
                    f"edge {key}: shared by more than two polygons (non-manifold)"
                )
    return edges


def build_differences(vertices, polygons, **kwargs) -> list[str]:
    """How `mesh.build_walkable_surface` differs from the per-polygon
    reference on one input: the WalkableSurface fields that differ (arrays
    by dtype and np.array_equal, the KD-tree by its data, the rest by ==),
    or both outcomes when either raises and their ValidationError texts
    differ."""
    outcomes = []
    for build in (build_walkable_surface, build_walkable_surface_per_polygon):
        try:
            outcomes.append(build(vertices, polygons, **kwargs))
        except ValidationError as exc:
            outcomes.append(f"ValidationError: {exc}")
    fast, ref = outcomes
    if isinstance(fast, str) or isinstance(ref, str):
        fast, ref = (o if isinstance(o, str) else "a surface" for o in outcomes)
        return [] if fast == ref else [f"{fast} against {ref}"]
    differ = []
    for f in dataclasses.fields(WalkableSurface):
        a, b = getattr(fast, f.name), getattr(ref, f.name)
        if isinstance(a, cKDTree):
            same = np.array_equal(a.data, b.data)
        elif isinstance(a, np.ndarray):
            same = a.dtype == b.dtype and np.array_equal(a, b)
        else:
            same = a == b
        if not same:
            differ.append(f.name)
    return differ


def graph_from_navmesh_per_edge(surface: WalkableSurface) -> SurfaceGraph:
    """`graph.graph_from_navmesh` one shared edge at a time: each node gets
    its own row copies, and each weight its own np.linalg.norm call."""
    nodes = [
        GraphNode(
            position=surface.polygon_centers[pid].copy(),
            normal=surface.polygon_normals[pid].copy(),
            polygon=pid,
            source=SOURCE_POLYGON,
        )
        for pid in range(len(surface.polygons))
    ]
    edges = []
    for pid, qid in sorted(o for o in edge_polygons(surface.polygons).values() if len(o) == 2):
        w = float(np.linalg.norm(surface.polygon_centers[pid] - surface.polygon_centers[qid]))
        if w < 1e-12:
            raise DegenerateEdge(f"polygon centers {pid} and {qid} coincide (zero-weight edge)")
        edges.append((pid, qid, w))
    return SurfaceGraph(nodes, edges)


def graph_differences(surface: WalkableSurface) -> list[str]:
    """How `graph.graph_from_navmesh` differs from the per-edge reference on
    one surface: the node fields that differ (position and normal by dtype
    and bytes), the edge list (ints and float bits), or both outcomes when
    either raises and their exception types or texts differ."""
    return _graph_outcome_differences(
        [_outcome(build, surface) for build in (graph_from_navmesh, graph_from_navmesh_per_edge)]
    )


def _outcome(fn, *args):
    """fn(*args), or "Type: text" of the NavStructError it raises."""
    try:
        return fn(*args)
    except NavStructError as exc:
        return f"{type(exc).__name__}: {exc}"


def _graph_outcome_differences(outcomes: list) -> list[str]:
    """How two outcomes of building one graph differ (see graph_differences)."""
    fast, ref = outcomes
    if isinstance(fast, str) or isinstance(ref, str):
        fast, ref = (o if isinstance(o, str) else "a graph" for o in outcomes)
        return [] if fast == ref else [f"{fast} against {ref}"]

    def node_key(node: GraphNode):
        return (node.position.dtype, node.position.tobytes(), node.normal.dtype,
                node.normal.tobytes(), node.polygon, node.source, node.terminal)

    def edge_key(edge):
        i, j, w = edge
        return type(i), i, type(j), j, type(w), w.hex()

    differ = []
    if list(map(node_key, fast.nodes)) != list(map(node_key, ref.nodes)):
        differ.append("nodes")
    if list(map(edge_key, fast.edges)) != list(map(edge_key, ref.edges)):
        differ.append("edges")
    return differ


def graph_load_differences(path, ref=None) -> list[str]:
    """How the array passes of `graph.load_graph_json` differ from the
    per-record reference (`ref`, its outcome, if the caller has it) on one
    file, as graph_differences tells it; none when they decline the file."""
    p = Path(path)
    fast = _outcome(lambda: _graph_from_arrays(mesh.read_json(p), p))
    if fast is None:
        return []
    ref = _outcome(load_graph_json_per_node, p) if ref is None else ref
    return _graph_outcome_differences([fast, ref])


def obj_parse_differences(path, ref=None) -> list[str]:
    """How numpy's reader of `mesh._parse_obj` (`_plain_obj`) differs from
    the per-line reference (`ref`, its outcome, if the caller has it) on
    one file: the vertices (as float arrays, by shape and bytes), the face
    rings (by ==; an index table must be a 2-D int64 array whose rows are
    the rings), or both outcomes when either raises and their exception
    types or texts differ; none when numpy's reader declines the text."""
    fast = _outcome(lambda: mesh._plain_obj(mesh.read_text(Path(path)).splitlines()))
    if fast is None:
        return []
    ref = _outcome(parse_obj_per_line, path) if ref is None else ref
    if isinstance(fast, str) or isinstance(ref, str):
        fast, ref = (o if isinstance(o, str) else "a parse" for o in (fast, ref))
        return [] if fast == ref else [f"{fast} against {ref}"]
    differ = []
    got, want = np.asarray(fast[0], dtype=float), np.asarray(ref[0], dtype=float)
    if got.shape != want.shape or got.tobytes() != want.tobytes():
        differ.append("vertices")
    faces = fast[1]
    if isinstance(faces, np.ndarray):
        same = faces.dtype == np.int64 and faces.ndim == 2 and faces.tolist() == ref[1]
    else:
        same = faces == ref[1]
    if not same:
        differ.append("faces")
    return differ


# OBJ and graph JSON tokens that Python's float() and int() read, and those
# they refuse; each text draws from both and from the faults below
_OBJ_NUMBERS = ("0", "-0.0", "+3", "1_0", ".5", "2.", "1e2", "-7.25", "1E-3", "-1e-320")
_OBJ_FAULTS = (
    "v 1 2", "v", "v a 0 0", "v nan 0 0", "v 0 inf 0", "v 0 0 1e400", "v 1 2 3.0.0",
    "v 0x1 0 0",
    "f 1 2", "f", "f 1 x 3", "f 0 1 2", "f -1 2 3", "f //3 1 2", "f 1 2 3.0", "f 1 2 1e1",
    "curve 1 2", "V 0 0 0", "vertex 0 0 0", "f 1 2 3 #", "v# 0 0 0",
)
_OBJ_EXTRAS = (
    "", "   ", "# comment", "#", "vn 0 0 1", "vt 0.5 0.5", "vp 0.1", "o part", "g group",
    "s off", "usemtl stone", "mtllib walls.mtl", "v 1 2 3 1.0", "v 1 2 3 # tail",
)


def random_obj_text(nprng: np.random.Generator, faults: int = 0) -> str:
    """An OBJ text of 3 to 12 vertices and up to 8 faces, with numbers in
    the forms float() and int() accept, `v/vt/vn` face tokens, metadata and
    comment lines, and space, tab, CRLF, CR and form-feed separators; then
    `faults` lines from _OBJ_FAULTS, or a token overwritten, at random places."""
    def pick(options):
        return options[int(nprng.integers(len(options)))]

    nverts = int(nprng.integers(3, 13))
    lines = []
    for _ in range(nverts):
        coords = [pick(_OBJ_NUMBERS) if nprng.random() < 0.3 else repr(float(nprng.normal()))
                  for _ in range(3)]
        lines.append(pick((" ", "\t", "  ")).join(["v", *coords]))
    for _ in range(int(nprng.integers(0, 9))):
        ids = [int(k) for k in nprng.integers(1, nverts + 1, size=int(nprng.integers(3, 6)))]
        tokens = [pick(("{}", "{}", "+{}", "0{}", "{}/1", "{}//2", "{}/1/2", "{}/", "1_{}"))
                  .format(k) for k in ids]
        lines.append(pick((" ", "\t")).join(["f", *tokens]))
    for _ in range(int(nprng.integers(0, 4))):
        lines.insert(int(nprng.integers(len(lines) + 1)), pick(_OBJ_EXTRAS))
    return _faulty_obj_text(nprng, lines, faults)


# number forms that numpy's parser and float() both read, the lines besides
# records that the plain layout holds, and its faults: those of any text,
# tags with nothing after them, which np.loadtxt would skip as blank rows,
# and a comment after a face, which it would drop unless told not to
_PLAIN_NUMBERS = tuple(x for x in _OBJ_NUMBERS if "_" not in x)
_PLAIN_EXTRAS = ("", "# comment", "#", "#v 0 0 0", "#f 1 2")
_PLAIN_FAULTS = _OBJ_FAULTS + ("f ", "v \t", "f 1 2 3 # x")


def random_plain_obj_text(
    nprng: np.random.Generator, faults: int = 0, width: int | None = None
) -> str:
    """An OBJ text in the plain layout `mesh._parse_obj` reads with numpy:
    3 to 12 `v x y z` rows and up to 8 faces of `width` ids each (3 or 4 at
    random when None), one space after each tag, numbers in the forms
    float(), int() and numpy all read, space or tab separators, `#` comment
    and empty lines, and CRLF, CR and form-feed line ends; then `faults`
    faults as in random_obj_text."""
    def pick(options):
        return options[int(nprng.integers(len(options)))]

    width = width or int(nprng.integers(3, 5))
    nverts = int(nprng.integers(3, 13))
    lines = []
    for _ in range(nverts):
        coords = [pick(_PLAIN_NUMBERS) if nprng.random() < 0.3 else repr(float(nprng.normal()))
                  for _ in range(3)]
        lines.append("v " + pick((" ", "\t", "  ")).join(coords))
    for _ in range(int(nprng.integers(0, 9))):
        ids = nprng.integers(1, nverts + 1, size=width).tolist()
        lines.append("f " + " ".join(pick(("{}", "{}", "+{}", "0{}")).format(k) for k in ids))
    for _ in range(int(nprng.integers(0, 4))):
        lines.insert(int(nprng.integers(len(lines) + 1)), pick(_PLAIN_EXTRAS))
    return _faulty_obj_text(nprng, lines, faults, _PLAIN_FAULTS)


def _faulty_obj_text(
    nprng: np.random.Generator, lines: list[str], faults: int, options: tuple = _OBJ_FAULTS
) -> str:
    """The lines with `faults` lines from `options`, or a token
    overwritten, at random places, each ended by a random line end."""
    def pick(options):
        return options[int(nprng.integers(len(options)))]

    for _ in range(faults):
        k = int(nprng.integers(len(lines) + 1))
        if nprng.random() < 0.7 or not lines:
            lines.insert(k, pick(options))
        else:  # one token of an existing line overwritten
            fields = lines[min(k, len(lines) - 1)].split() or ["#"]
            fields[int(nprng.integers(len(fields)))] = pick(("x", "0", "-2", "nan", "/", "1e999"))
            lines[min(k, len(lines) - 1)] = " ".join(fields)
    ends = [pick(("\n", "\n", "\r\n", "\r", "\x0c")) for _ in lines]
    return "".join(line + end for line, end in zip(lines, ends))


def random_graph_document(nprng: np.random.Generator, faults: int = 0) -> dict:
    """A graph JSON document of 2 to 10 nodes, some with a normal, and
    edges of 2 or 3 entries with int or integral float indices; then
    `faults` records or entries replaced by ones load_graph_json refuses
    (non-finite literals, bools, strings, wrong lengths, bad indices,
    non-positive weights, coincident nodes, repeated edges, self-loops)."""
    def pick(options):
        return options[int(nprng.integers(len(options)))]

    def number(x):
        return pick((float(x), int(round(x)), int(round(x)), float(round(x))))

    n = int(nprng.integers(2, 11))
    nodes = []
    for _ in range(n):
        rec = {"pos": [number(x) for x in nprng.uniform(-5.0, 5.0, size=3)]}
        if nprng.random() < 0.4:
            rec["normal"] = [number(x) for x in nprng.normal(size=3)]
            if not any(rec["normal"]):
                rec["normal"][2] = 1
        nodes.append(rec)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if nprng.random() < 0.5]
    edges = []
    for i, j in pairs:
        if nprng.random() < 0.5:
            i, j = j, i
        ends = [pick((i, i, float(i))), pick((j, j, float(j)))]
        edges.append(ends if nprng.random() < 0.5 else ends + [number(nprng.uniform(0.5, 5.0))])
    doc = {"nodes": nodes, "edges": edges}
    node_faults = (
        "not a node", {"q": 1}, {"pos": [0, 0]}, {"pos": [0, True, 0]}, {"pos": ["1", 0, 0]},
        {"pos": [math.nan, 0, 0]}, {"pos": [0, 0, math.inf]}, {"pos": [10**400, 0, 0]},
        {"pos": [1e60, 0, 0]}, {"pos": [0, 0, 0], "normal": [0, 0, 0]},
        {"pos": [0, 0, 0], "normal": None}, {"pos": [0, 0, 0], "normal": [1.5e308, 1.5e308, 0]},
    )
    edge_faults = (
        "0-1", [0], [0, 1, 2, 3], [True, 0], [0, True, 1.5], [1, 0.5], [2.5, 0, 1], ["1", 0],
        [-1, 0], [0, n], [0, 10**30], [0, 1e300], [0, 1, False], [0, 1, "2"], [0, 1, math.nan],
        [0, 1, -1], [0, 1, 0], [0, 1, 10**400], [0, 1, math.inf], [1, 1], [1, 1, 2.0], [0, 1],
        [1, 0, 2],
    )
    for _ in range(faults):
        kind = nprng.random()
        if kind < 0.35:
            nodes[int(nprng.integers(n))] = pick(node_faults)
        elif kind < 0.5:  # a 2-element edge between coincident nodes
            nodes[1] = dict(nodes[0])
            edges.insert(int(nprng.integers(len(edges) + 1)), [0, 1])
        elif kind < 0.95:
            edges.insert(int(nprng.integers(len(edges) + 1)), pick(edge_faults))
        else:
            doc = pick(({"nodes": nodes}, {"nodes": 3, "edges": []}, [nodes, edges]))
    return doc


def random_ring_surface(
    nprng: np.random.Generator, patches: int = 6
) -> tuple[np.ndarray, list[list[int]]]:
    """Vertices and rings of `patches` convex polygons of 3 to 12 corners on
    an ellipse.  A polygon of 4 or more corners is often split by a chord
    into two rings sharing that edge.  Each lies flat, vertical or tilted at
    random, some run reversed, every ring starts at a random corner, and the
    vertex ids are shuffled."""
    verts: list[np.ndarray] = []
    rings: list[list[int]] = []
    for _ in range(patches):
        k = int(nprng.integers(3, 13))
        angles = (np.arange(k) + nprng.uniform(0.1, 0.9, k)) * (2.0 * math.pi / k)
        radii = [*nprng.uniform(0.2, 3.0, 2), 0.0]
        flat = np.c_[np.cos(angles), np.sin(angles), np.zeros(k)] * radii
        pose = nprng.choice(("flat", "vertical", "tilted"))
        if pose == "flat":
            turn = np.eye(3)
        elif pose == "vertical":
            heading = nprng.uniform(0.0, 2.0 * math.pi)
            c, s = math.cos(heading), math.sin(heading)
            turn = np.array([[c, 0.0, -s], [s, 0.0, c], [0.0, 1.0, 0.0]])
        else:
            turn = np.linalg.qr(nprng.normal(size=(3, 3)))[0]
        ids = list(range(len(verts), len(verts) + k))
        verts.extend(flat @ turn.T + nprng.uniform(-20.0, 20.0, 3))
        if nprng.random() < 0.5:
            ids.reverse()
        if k >= 4 and nprng.random() < 0.6:
            j = int(nprng.integers(2, k - 1))
            pieces = [ids[:j + 1], ids[j:] + ids[:1]]
        else:
            pieces = [ids]
        for ring in pieces:
            r = int(nprng.integers(len(ring)))
            rings.append(ring[r:] + ring[:r])
    shuffle = nprng.permutation(len(verts))
    out = np.empty((len(verts), 3))
    out[shuffle] = verts
    return out, [[int(shuffle[i]) for i in ring] for ring in rings]


_FAULTS = ("short", "range", "repeat", "zero-edge", "zero-area", "bent", "reflex", "non-manifold")


def faulty_ring_surface(
    nprng: np.random.Generator, faults: int
) -> tuple[np.ndarray, list[list[int]]]:
    """`random_ring_surface` with `faults` faults, each of a random kind on
    its own random polygon: a ring cut to 2 corners, an id out of range, a
    repeated id, a zero-length edge, a collinear ring, a corner lifted off
    the plane, one or two corners pulled inside (reflex), or a new ring on
    an edge (a third one when a chord splits the polygon)."""
    verts, rings = random_ring_surface(nprng)
    verts = list(verts)

    def add(point) -> int:
        verts.append(np.asarray(point, dtype=float))
        return len(verts) - 1

    # highest id first, so a ring inserted at pid moves only rings already done
    for pid in sorted(nprng.choice(len(rings), size=faults, replace=False).tolist())[::-1]:
        ring = rings[pid]
        pts = np.array([verts[i] for i in ring])
        j = int(nprng.integers(len(ring)))
        kind = nprng.choice(_FAULTS)
        normal = np.cross(pts[1] - pts[0], pts[2] - pts[0])
        if kind == "short":
            ring[:] = ring[:2]
        elif kind == "range":
            ring[j] = [len(verts) + 3, -1, 10**20][int(nprng.integers(3))]
        elif kind == "repeat":
            ring[j] = ring[j - 2]
        elif kind == "zero-edge":
            ring.insert(j + 1, add(pts[j]))
        elif kind == "zero-area":
            a, b = pts[0], pts[1]
            ring[:] = [add(a), add((a + b) / 2.0), add(b)]
        elif kind == "bent":
            ring[j] = add(pts[j] + 1e-3 * normal / np.linalg.norm(normal))
        elif kind == "reflex":  # one corner, or two apart on a larger ring
            center = pts.mean(axis=0)
            for i in [j, (j + 3) % len(ring)] if len(ring) >= 6 else [j]:
                ring[i] = add(center + 0.1 * (pts[i] - center))
        else:
            # on an edge two rings share, when there is one
            edges = [(r[i], r[i - 1]) for r in rings for i in range(len(r))]
            met = set(edges)
            twice = [e for e in edges if e[::-1] in met] or [(ring[j], ring[j - 1])]
            a, b = twice[int(nprng.integers(len(twice)))]
            rings.insert(pid, [a, b, add(verts[a] + normal)])
    return np.array(verts), rings


def locate_point_linear(surface: WalkableSurface, point, height_tol: float) -> int | None:
    """Point location by testing every polygon in id order."""
    for pid in range(len(surface.polygons)):
        if surface.contains_point(pid, point, height_tol):
            return pid
    return None


def surface_los_numpy(
    surface: WalkableSurface, a, c, cfg: SimplifyConfig | None = None, start: int | None = None
) -> bool:
    """The plain line-of-sight walk on numpy vectors, as `trees.surface_los`
    walked before it ran in Python floats: no funnel, numpy points, norms
    and plane dot products.  It walks from polygon `start` when given, else
    from the one locate_point finds.  The fast walk's answers must equal
    this one's on every input."""
    cfg = cfg or SimplifyConfig()
    tol = cfg.los_height_tolerance
    a = np.asarray(a, dtype=float)
    c = np.asarray(c, dtype=float)
    if start is None:
        start = surface.locate_point(a, tol)
        start = -1 if start is None else start
    if start < 0:
        raise PointOffMesh(f"point {a.tolist()} lies on no walkable polygon")
    if float(np.linalg.norm(c - a)) < GEOM_EPS:
        return True

    keep = surface.polygon_axes[start]
    a2 = a[keep]
    d2 = (c - a)[keep]
    if float(np.linalg.norm(d2)) < GEOM_EPS:
        # segment is vertical in this projection; only a same-polygon hop works
        return surface.contains_point(start, c, tol)

    max_steps = 4 * len(surface.polygons) + 8
    seg = c - a
    current = start
    clip = surface.clip_line(current, keep, a2, d2)
    t = 0.0
    for _ in range(max_steps):
        t_in, t_out, exits = clip
        if t_out < t - GEOM_EPS or t_in > t_out + GEOM_EPS:
            return False  # projection misses this polygon: walk broke down
        lo = max(t, t_in)
        hi = min(1.0, t_out)
        n, d_plane = surface.polygon_plane(current)
        for param in (lo, hi):
            p = a + seg * param
            if abs(float(np.dot(n, p)) - d_plane) > tol:
                return False  # segment strays too far above/below the surface
        if t_out >= 1.0 - GEOM_EPS:
            return True
        # crossing needs a shared edge
        candidates = {surface.across[current][k] for k in exits} - {-1}
        if not candidates:
            return False  # exits through a boundary edge
        nxt = None
        best_out = t_out
        for q in sorted(candidates):
            q_clip = surface.clip_line(q, keep, a2, d2)
            q_in, q_out, _ = q_clip
            if q_in <= t_out + GEOM_EPS and q_out > best_out + GEOM_EPS:
                nxt, clip, best_out = q, q_clip, q_out  # nxt's clip serves the next step
        if nxt is None:
            return False  # no neighbor continues the segment
        current = nxt
        t = t_out
    return False  # step guard exhausted (degenerate geometry)


def first_hit_all_triangles(
    blockers: BlockerMesh, origin, direction, max_t: float
) -> float | None:
    """Moller-Trumbore over every triangle of the mesh, with np.cross, on
    corner and edge arrays derived here from the mesh's vertices."""
    o = np.asarray(origin, dtype=float)
    d = np.asarray(direction, dtype=float)
    corners = blockers.vertices[blockers.triangles]
    v0 = corners[:, 0]
    e1, e2 = corners[:, 1] - v0, corners[:, 2] - v0
    pvec = np.cross(d[None, :], e2)
    det = _dot_rows(e1, pvec)
    ok = np.abs(det) > EPS
    inv_det = np.where(ok, 1.0 / np.where(ok, det, 1.0), 0.0)
    tvec = o[None, :] - v0
    u = _dot_rows(tvec, pvec) * inv_det
    ok &= (u >= -EPS) & (u <= 1.0 + EPS)
    qvec = np.cross(tvec, e1)
    v = _dot_rows(d[None, :], qvec) * inv_det
    ok &= (v >= -EPS) & (u + v <= 1.0 + EPS)
    t = _dot_rows(e2, qvec) * inv_det
    ok &= (t > EPS) & (t <= max_t + EPS)
    if not ok.any():
        return None
    return float(t[ok].min())


def classify_per_ray(samples, blockers: BlockerMesh, radius: float, ray_count: int):
    """(open ahead, open behind) of each row of a boundary-sample table,
    from one oracle ray at a time.  Each fan ray is Rodrigues' rotation with
    np.cross, v c + (n x v) s + n (n . v)(1 - c), of the tangent (forward
    fan) or of the negated tangent (backward fan) about the sample normal n."""
    if ray_count == 1:
        angles = [0.0]
    else:
        angles = [-math.pi / 4.0 + math.pi / 2.0 * k / (ray_count - 1) for k in range(ray_count)]
    flags = []
    for position, tangent, n in zip(samples.positions, samples.tangents, samples.normals):
        clear = []
        for v in (tangent, -tangent):
            rays = (
                v * math.cos(a) + np.cross(n, v) * math.sin(a)
                + n * float(np.dot(n, v)) * (1.0 - math.cos(a))
                for a in angles
            )
            clear.append(all(
                first_hit_all_triangles(blockers, position, d, radius) is None for d in rays
            ))
        flags.append(tuple(clear))
    return flags


def register_terminals_per_terminal(
    g: SurfaceGraph, samples, segments, surface: WalkableSurface,
    exit_offset: float = 0.0, height_tol: float = DEFAULT_HEIGHT_TOL,
):
    """`terminals.register_terminals` one position at a time: each position
    is compared with every position kept before it and with every graph
    node, and the graph is rebuilt by the constructor."""
    pushed, normals = _end_positions(samples, segments, exit_offset)
    positions = g.positions()
    new_nodes: list[GraphNode] = []
    new_edges: list[tuple[int, int, float]] = []
    kept: list[int] = []  # rows of `pushed` registered so far
    for k, (pos, normal) in enumerate(zip(pushed, normals)):
        gaps = pushed[kept] - pos
        if (np.sqrt(_row_dots(gaps, gaps)) < 1e-9).any():
            continue
        kept.append(k)
        dists = np.linalg.norm(positions - pos, axis=1)
        nearest = int(np.argmin(dists))  # ties resolve to the lowest id
        w = float(dists[nearest])
        if w < 1e-12:
            raise ValidationError(f"entry/exit position coincides with node {nearest}")
        pid = surface.locate_point(pos, height_tol)
        new_edges.append((nearest, len(g.nodes) + len(new_nodes), w))
        new_nodes.append(GraphNode(
            position=pos, normal=normal, polygon=-1 if pid is None else pid,
            source=SOURCE_ENTRY_EXIT,
        ))
    ids = list(range(len(g.nodes), len(g.nodes) + len(new_nodes)))
    return SurfaceGraph(g.nodes + new_nodes, g.edges + new_edges), TerminalSet(ids)


def register_differences(g: SurfaceGraph, samples, segments, surface, exit_offset, height_tol):
    """How `terminals.register_terminals` differs from the per-terminal
    reference on one table: the terminal ids, and the nodes and edges as
    graph_differences tells them (both graphs come from the constructor, so
    equal edges give equal arcs); or both outcomes when either raises and
    their texts differ."""
    args = (g, samples, segments, surface, exit_offset, height_tol)
    outcomes = [_outcome(fn, *args) for fn in (register_terminals, register_terminals_per_terminal)]
    if any(isinstance(o, str) for o in outcomes):
        return _graph_outcome_differences(outcomes)
    (fast, fast_ids), (ref, ref_ids) = outcomes
    differ = _graph_outcome_differences([fast, ref])
    if fast_ids.node_ids != ref_ids.node_ids:
        differ.append("terminals")
    return differ


def random_register_table(surface: WalkableSurface, nprng: np.random.Generator):
    """Boundary samples of `surface` with extra rows, and segments over
    them.  The extra rows copy a sample, or move one by 0.5e-9 to 1.5e-9
    (some in chains of three such steps), or sit on a polygon corner, where
    up to four centres are equally far, or, rarely, on a polygon centre,
    each with the copied sample's tangent and normal.  The segments are
    random row pairs, some repeated."""
    base = sample_boundary(surface, float(nprng.choice([0.3, 0.5, 1.0])))
    rows = list(range(len(base)))
    positions = list(base.positions)
    for _ in range(int(nprng.integers(1, 8))):
        k = int(nprng.integers(len(base)))
        kind = int(nprng.integers(4))
        step = np.eye(3)[nprng.integers(3)] * nprng.uniform(0.5e-9, 1.5e-9)
        if kind == 0:
            moved = [base.positions[k]]
        elif kind == 1:
            moved = [base.positions[k] + step]
        elif kind == 2:
            moved = [base.positions[k] + step * m for m in (0.9, 1.8, 2.7)]
        elif nprng.random() < 0.9:
            moved = [surface.vertices[nprng.integers(len(surface.vertices))]]
        else:  # on a node: refused
            moved = [surface.polygon_centers[nprng.integers(len(surface.polygons))]]
        rows += [k] * len(moved)
        positions += moved
    table = BoundarySamples(
        positions=np.array(positions), tangents=base.tangents[rows],
        normals=base.normals[rows], loops=base.loops[rows],
    )
    segments = []
    for _ in range(int(nprng.integers(1, 12))):
        first, last = sorted(nprng.integers(len(rows), size=2).tolist())
        segments += [(first, last)] * int(nprng.integers(1, 3))
    # the extra rows end segments of their own, so that they are registered
    extra = list(range(len(base), len(rows)))
    segments += [(k, k) for k in extra[: int(nprng.integers(len(extra) + 1))]]
    return table, segments


def _dot_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of (n, 3) arrays, adding x, z, then y.  That is
    the order in which np.einsum("ij,ij->i") reduces three products with
    SIMD (numpy 2.4 on x86-64 with AVX-512), so these are its results there;
    spelled out, the order holds on every platform, and `raycast.first_hit`
    and `raycast._segment_hit` add in the same order."""
    return a[:, 0] * b[:, 0] + a[:, 2] * b[:, 2] + a[:, 1] * b[:, 1]


def shoelace_sign(ring2d) -> float:
    """Winding of a 2D ring from its shoelace sum, where the surface reads it
    off the Newell normal: +1.0 counter-clockwise (or zero area), -1.0 clockwise."""
    pts = [tuple(p) for p in ring2d]
    area2 = sum(ax * by - bx * ay for (ax, ay), (bx, by) in zip(pts, pts[1:] + pts[:1]))
    return 1.0 if area2 >= 0.0 else -1.0


# ---------------------------------------------------------------------------
# self-check suites (CLI `oracle` subcommand)
# ---------------------------------------------------------------------------

def run_oracle_suites(seed: int = 0, instances: int = 25) -> list[tuple[str, bool, str]]:
    """Cross-check fast implementations against the oracles on random inputs.

    Returns (suite name, passed, detail) triples.
    """
    from .algorithms import (
        betweenness_centrality,
        dijkstra_tree,
        eigenvector_centrality,
        katz_centrality,
        kruskal_edges,
        spectral_radius,
    )
    from .fixtures import (
        coincident_centers,
        double_shared_edge,
        grid_surface,
        l_corridor,
        plus_hub,
        ramp_corridor,
        random_connected_graph,
        random_forest_graph,
        regular_polygon,
        ring_surface,
        stacked_floors,
        straight_corridor,
        turned_grid,
        vertical_strip,
    )
    from .raycast import _segment_hit, first_hit
    from .steiner import build_steiner_tree
    from .trees import LosFunnel, surface_los

    rng = random.Random(seed)
    results = []

    worst = 0.0
    ok = True
    for _ in range(instances):
        g = random_connected_graph(rng, rng.randint(4, 12), rng.uniform(0.4, 0.8))
        term_ids = sorted(rng.sample(range(len(g.nodes)), rng.randint(2, 4)))
        tree = build_steiner_tree(g, TerminalSet(term_ids))
        opt, leaves = steiner_exhaustive(g, term_ids)
        bound = 2.0 * (1.0 - 1.0 / leaves) * opt if leaves else 2.0 * opt
        worst = max(worst, tree.total_weight / opt if opt else 1.0)
        if tree.total_weight > bound + 1e-9:
            ok = False
    results.append(("steiner-bound", ok, f"worst ratio {worst:.4f}"))

    err = 0.0
    for _ in range(instances):
        g = random_connected_graph(rng, rng.randint(4, 20), rng.uniform(0.2, 0.6))
        fast = betweenness_centrality(g)
        slow = betweenness_oracle(g)
        err = max(err, max(abs(a - b) for a, b in zip(fast, slow)))
    results.append(("betweenness-exact", err <= 1e-9, f"max abs err {err:.2e}"))

    ok = True
    for _ in range(instances):
        g = random_connected_graph(rng, rng.randint(4, 9), 0.4)
        if len(g.edges) > 14:
            continue
        mst = kruskal_edges(range(len(g.nodes)), g.edges)
        ref = mst_weight_exhaustive(len(g.nodes), g.edges)
        if abs(mst.total_weight - ref) > 1e-9:
            ok = False
    results.append(("mst-exhaustive", ok, "spanning-subset enumeration"))

    err = 0.0
    kerr = 0.0
    for _ in range(instances):
        g = random_connected_graph(rng, rng.randint(3, 15), rng.uniform(0.3, 0.7))
        ev = eigenvector_centrality(g)
        ev_ref = eigenvector_oracle(g)
        err = max(err, max(abs(a - b) for a, b in zip(ev, ev_ref)))
        alpha = 0.5 / max(spectral_radius(g), 1e-9)
        kz = katz_centrality(g, alpha=alpha)
        kz_ref = katz_oracle(g, alpha)
        kerr = max(kerr, max(abs(a - b) for a, b in zip(kz, kz_ref)))
    results.append(("eigenvector-dense", err <= 1e-10, f"max abs err {err:.2e}"))
    results.append(("katz-series", kerr <= 1e-10, f"max abs err {kerr:.2e}"))

    err = 0.0
    for _ in range(instances):
        sizes = [rng.randint(1, 10) for _ in range(rng.randint(2, 5))]
        g = random_forest_graph(rng, sizes)
        weighted = rng.random() < 0.5
        fast = betweenness_centrality(g, weighted=weighted)
        slow = betweenness_oracle(g, weighted=weighted)
        err = max(err, max(abs(a - b) for a, b in zip(fast, slow)))
    results.append(("betweenness-forest", err <= 1e-9, f"max abs err {err:.2e}"))

    surfaces = [
        stacked_floors(), ring_surface(), grid_surface(6, 6), turned_grid(),
        vertical_strip(),
    ] + [ramp_corridor(angle) for angle in (30.0, 60.0, 80.0)]

    long_rings = [regular_polygon(1000), regular_polygon(5000)]
    inputs = [(s.vertices, s.polygons) for s in surfaces + long_rings]
    for _ in range(instances):
        nprng = np.random.default_rng(rng.randrange(2**32))
        inputs += [random_ring_surface(nprng), faulty_ring_surface(nprng, rng.randint(1, 3))]
    # and each input's rings of one width, as the (F, k) table the OBJ
    # reader gives, where their ids fit int64; each fixture's table also
    # with one id past the vertices and one at -1
    fixed = len(surfaces) + len(long_rings)
    for k, (verts, rings) in enumerate(list(inputs)):
        for width in sorted(set(map(len, rings))):
            rows = [ring for ring in rings if len(ring) == width]
            if not all(-(2**63) <= i < 2**63 for ring in rows for i in ring):
                continue
            table = np.array(rows, dtype=np.int64)
            inputs.append((verts, table))
            for bad in [len(verts), -1] if k < fixed else []:
                wrong = table.copy()
                wrong[-1, 0] = bad
                inputs.append((verts, wrong))
    wrong = sum(bool(build_differences(verts, rings)) for verts, rings in inputs)
    results.append(
        ("surface-build", wrong == 0, f"{wrong} of {len(inputs)} surfaces differ")
    )

    # runs of walks from shared anchors, each from the anchor's known polygon:
    # each answer with the anchor's funnel must be the answer of the plain
    # walk from that polygon (a fresh funnel, which never resumes)
    runs = [straight_corridor(3)[0], straight_corridor(24)[0], plus_hub()[0], l_corridor()]
    runs += surfaces
    for _ in range(instances):
        nprng = np.random.default_rng(rng.randrange(2**32))
        runs.append(build_walkable_surface(*random_ring_surface(nprng)))
    checked = wrong = armed = 0
    for surface in runs:
        for a, pid, targets in _funnel_runs(surface, rng):
            funnel = LosFunnel(start=pid)
            for c in targets:
                checked += 1
                armed += len(funnel.steps) >= 2
                answers = []
                for f in (funnel, LosFunnel(start=pid)):
                    try:
                        answers.append(surface_los(surface, a, c, funnel=f))
                    except PointOffMesh:
                        answers.append(None)
                wrong += answers[0] != answers[1]
    results.append((
        "los-funnel", wrong == 0,
        f"{wrong} of {checked} answers differ, {armed} asked with two or more portals recorded",
    ))

    # every fan ray of every sample in one batch, against one oracle ray at
    # a time, on corridor walls and on random soups across the corridor
    checked = wrong = flagged = 0
    for _ in range(instances):
        nprng = np.random.default_rng(rng.randrange(2**32))
        corridor, walls = straight_corridor(rng.randint(2, 12))
        for blockers in (walls, _random_soup(nprng)):
            radius, ray_count = rng.choice((0.2, 1.0, 3.0)), rng.choice((1, 5, 9))
            samples = sample_boundary(corridor)
            open_ahead, open_behind = classify_samples(samples, blockers, radius, ray_count)
            flags = list(zip(open_ahead.tolist(), open_behind.tolist()))
            want = classify_per_ray(samples, blockers, radius, ray_count)
            checked += len(samples)
            flagged += sum(ahead or behind for ahead, behind in flags)
            wrong += sum(f != w for f, w in zip(flags, want))
    results.append((
        "fan-classify", wrong == 0,
        f"{wrong} of {checked} samples differ, {flagged} with an open fan",
    ))

    # every surface that builds from surface-build's inputs, the two whose
    # graphs fail, and larger random rings
    graphed = [double_shared_edge(), coincident_centers()]
    for verts, rings in inputs:
        try:
            graphed.append(build_walkable_surface(verts, rings))
        except ValidationError:
            pass
    for _ in range(instances):
        nprng = np.random.default_rng(rng.randrange(2**32))
        graphed.append(build_walkable_surface(*random_ring_surface(nprng, patches=12)))
    wrong = sum(bool(graph_differences(surface)) for surface in graphed)
    results.append(("graph-build", wrong == 0, f"{wrong} of {len(graphed)} surfaces differ"))

    # seeded OBJ texts and graph documents, a third of them sound and the
    # rest with one or two faults, some behind a UTF-8 byte-order mark; every
    # seventh OBJ text is 150 texts long, with the faults in the last one.
    # Each draw also makes two OBJ texts in the plain layout, one sound and
    # one with k % 2 faults, from a stream of their own so that the later
    # suites' inputs stay the same; about half of all texts are then read by
    # numpy's path
    obj_wrong = obj_refused = graph_wrong = graph_refused = 0
    texts = 8 * instances
    with tempfile.TemporaryDirectory() as tmp:
        obj_path, graph_path = Path(tmp, "input.obj"), Path(tmp, "input.json")

        def check_obj(text: str) -> None:
            nonlocal obj_wrong, obj_refused
            obj_path.write_text(text, encoding="utf-8")
            ref = _outcome(parse_obj_per_line, obj_path)
            obj_wrong += bool(obj_parse_differences(obj_path, ref))
            obj_refused += isinstance(ref, str)

        for k in range(texts):
            draw = rng.randrange(2**32)
            nprng = np.random.default_rng(draw)
            bom = "\ufeff" if k % 5 == 4 else ""
            repeats = 149 if k % 7 == 6 else 0
            sound = "".join(random_obj_text(nprng) for _ in range(repeats))
            check_obj(bom + sound + random_obj_text(nprng, k % 3))
            graph_path.write_text(
                bom + json.dumps(random_graph_document(nprng, k % 3)), encoding="utf-8")
            ref = _outcome(load_graph_json_per_node, graph_path)
            graph_wrong += bool(graph_load_differences(graph_path, ref))
            graph_refused += isinstance(ref, str)
            plain = np.random.default_rng([draw, 1])
            for faults in (0, k % 2):
                width = int(plain.integers(3, 5))
                sound = "".join(random_plain_obj_text(plain, 0, width) for _ in range(repeats))
                check_obj(bom + sound + random_plain_obj_text(plain, faults, width))
    results.append((
        "obj-parse", obj_wrong == 0,
        f"{obj_wrong} of {3 * texts} texts differ, {obj_refused} refused",
    ))
    results.append((
        "graph-load", graph_wrong == 0,
        f"{graph_wrong} of {texts} documents differ, {graph_refused} refused",
    ))

    # the walk in Python floats against the walk on numpy vectors, located
    # and from the anchor's polygon through one funnel, on the los-funnel
    # runs, on the ramps at the height tolerance and on segments of about
    # GEOM_EPS from the origin
    walks = [(s, a, pid, targets, None) for s in runs for a, pid, targets in _funnel_runs(s, rng)]
    for surface in surfaces[-4:]:  # the vertical strip and the three ramps
        walks += [(surface, *run) for run in _tolerance_runs(surface, rng)]
    walks += _eps_runs(rng)
    checked = wrong = 0
    for surface, a, pid, targets, cfg in walks:
        funnel = LosFunnel(start=pid)
        for c in targets:
            checked += 2
            wrong += _outcome(surface_los, surface, a, c, cfg) != _outcome(
                surface_los_numpy, surface, a, c, cfg)
            wrong += _outcome(surface_los, surface, a, c, cfg, funnel) != _outcome(
                surface_los_numpy, surface, a, c, cfg, pid)
    results.append(("los-walk", wrong == 0, f"{wrong} of {checked} answers differ"))

    tols = (0.05, 0.3, DEFAULT_HEIGHT_TOL, 1.0)
    checked = wrong = 0
    for surface in surfaces:
        verts = surface.vertices
        edges = edge_polygons(surface.polygons)
        points = [*verts] + [(verts[a] + verts[b]) / 2.0 for a, b in edges]
        cases = [(p, rng.choice(tols)) for p in points]
        # each corner and centre, moved along the dominant axis to just
        # inside the height tolerance: as far from the centre as it gets
        for pid, ring in enumerate(surface.polygons):
            normal = surface.polygon_normals[pid]
            k = int(np.argmax(np.abs(normal)))
            for p in [*verts[ring], surface.polygon_centers[pid]]:
                tol = rng.choice(tols)
                shift = rng.choice((-0.999, 0.999)) * tol / abs(normal[k])
                cases.append((p + shift * np.eye(3)[k], tol))
        for _ in range(instances):
            center = surface.polygon_centers[rng.randrange(len(surface.polygons))]
            point = center + np.array([rng.uniform(-0.8, 0.8) for _ in range(3)])
            cases.append((point, rng.choice(tols)))
        for p, tol in cases:
            checked += 1
            wrong += surface.locate_point(p, tol) != locate_point_linear(surface, p, tol)
    results.append(("locate-linear", wrong == 0, f"{wrong} of {checked} points differ"))

    # the batch kernel on rows of three probe rays from one origin and their
    # negations, at a finite length, at an infinite one and with a NaN
    # direction in some rows (whole-mesh balls), and on axis-aligned fans;
    # the scalar loop on each probe ray
    checked = hits = wrong = 0
    plus = plus_hub()[1]
    for _ in range(instances):
        nprng = np.random.default_rng(rng.randrange(2**32))
        soup = _random_soup(nprng)
        corridor = straight_corridor(rng.randint(2, 12))[1]
        for blockers in (soup, corridor):
            probes = _probe_rays(blockers, nprng)
            origins = np.array([o for o, _, _ in probes])
            directions = np.array([[probes[(i + k) % len(probes)][1] for k in range(3)]
                                   for i in range(len(probes))])
            poisoned = directions.copy()
            poisoned[::4, 1, 0] = math.nan
            batches = [(origins, directions, 1.0), (origins, directions, math.inf),
                       (origins, poisoned, 2.0)]
            batches += [([o], [fan], max_t) for o, fan, max_t in axis_fans(blockers, nprng, 8)]
            for batch_origins, dirs, max_t in batches:
                dirs = np.asarray(dirs)
                got = first_hit(blockers, batch_origins, dirs, max_t)
                if got.shape != (len(dirs), 2 * dirs.shape[1]):
                    checked += 2 * dirs.shape[0] * dirs.shape[1]
                    wrong += 2 * dirs.shape[0] * dirs.shape[1]
                    continue
                # column j is along dirs[:, j], column m + j along its negation
                both = np.concatenate([dirs, -dirs], axis=1)
                for o, row, t_row in zip(batch_origins, both, got):
                    for d, t in zip(row, t_row):
                        want = first_hit_all_triangles(blockers, o, d, max_t)
                        checked += 1
                        hits += want is not None
                        wrong += t != (math.inf if want is None else want)
            for o, d, max_t in probes:
                checked += 1
                wrong += _segment_hit(blockers, o.tolist(), d.tolist(), max_t) != (
                    first_hit_all_triangles(blockers, o, d, max_t) is not None)
        # the scalar loop on segments whose box has a face on a grid cell plane
        for blockers in (plus, corridor):
            for o, d, max_t in cell_plane_rays(blockers, nprng, 4):
                checked += 1
                wrong += _segment_hit(blockers, o, d, max_t) != (
                    first_hit_all_triangles(blockers, o, d, max_t) is not None)
    empty = build_blocker_mesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=int))
    for blockers in (empty, None):
        checked += 1
        wrong += bool((first_hit(blockers, np.zeros((2, 3)), np.ones((2, 4, 3)), 1e6) < math.inf).any())
    checked += 1
    wrong += _segment_hit(empty, [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], 1e6)
    results.append(
        ("raycast-full", wrong == 0, f"{wrong} of {checked} rays differ, {hits} hit")
    )

    graphs = sub_ulp_graphs()
    for _ in range(instances):
        graphs.append(_tie_heavy_graph(rng, (0.1, 0.2, 0.3)))
        # 1e-18 is below half an ulp of every distance from 0.1 up
        graphs.append(_tie_heavy_graph(rng, (0.1, 0.2, 0.3, 1e-18)))
    checked = wrong = 0
    for g in graphs:
        n = len(g.nodes)
        source_sets = [[src] for src in range(n)]
        source_sets += [sorted(rng.sample(range(n), rng.randint(2, n))) for _ in range(n // 2)]
        for sources in source_sets:
            checked += 1
            wrong += dijkstra_tree(g, sources) != dijkstra_tree_heap(g, sources)
    results.append(("dijkstra-tree", wrong == 0, f"{wrong} of {checked} source sets differ"))

    # extended boundary tables on grids, corridors, ramps and stacked floors,
    # pushed by no offset, by less than 1e-9, and off the surface
    checked = wrong = raised = 0
    for _ in range(instances):
        nprng = np.random.default_rng(rng.randrange(2**32))
        for surface in (grid_surface(rng.randint(1, 6), rng.randint(1, 6)),
                        straight_corridor(rng.randint(2, 12))[0], ramp_corridor(60.0),
                        stacked_floors()):
            g = graph_from_navmesh(surface)
            samples, segments = random_register_table(surface, nprng)
            offset, tol = rng.choice((0.0, 0.0, 5e-10, 0.25, 3.0)), rng.choice((0.05, 0.5))
            checked += 1
            wrong += bool(register_differences(g, samples, segments, surface, offset, tol))
            raised += isinstance(_outcome(register_terminals_per_terminal, g, samples,
                                          segments, surface, offset, tol), str)
    results.append((
        "terminal-register", wrong == 0,
        f"{wrong} of {checked} tables differ, {raised} refused",
    ))
    return results


def _funnel_runs(surface: WalkableSurface, rng: random.Random):
    """(anchor, its polygon, targets) runs for the los-funnel suite, from up
    to 8 polygon centres and 2 corners.  Each run follows three rays in the
    anchor's plane (one at random, one through a corner, one through a
    centre) out past the mesh, each time then stepping back short of the
    last portal and behind the anchor; then it visits every corner by
    distance (grazing portal ends) and two points off the mesh."""
    verts = surface.vertices
    extent = float(np.linalg.norm(verts.max(axis=0) - verts.min(axis=0)))
    owners = {v: pids[0] for edge, pids in edge_polygons(surface.polygons).items() for v in edge}
    pids = rng.sample(range(len(surface.polygons)), min(8, len(surface.polygons)))
    anchors = [(surface.polygon_centers[p], p) for p in pids]
    anchors += [(verts[v], owners[v]) for v in rng.sample(sorted(owners), 2)]
    for a, pid in anchors:
        normal = surface.polygon_normals[pid]
        targets = []
        for aim in (
            np.array([rng.gauss(0.0, 1.0) for _ in range(3)]),
            verts[rng.randrange(len(verts))] - a,
            surface.polygon_centers[rng.randrange(len(surface.polygons))] - a,
        ):
            aim = aim - normal * float(np.dot(normal, aim))
            length = float(np.linalg.norm(aim))
            if length < 1e-6:
                continue
            ray = [a + aim * (r / length) for r in np.linspace(0.3, 1.2 * extent, 16)]
            targets += ray + [(a + ray[-2]) / 2.0, 2.0 * a - ray[3]]
        targets += sorted(verts, key=lambda v: float(np.linalg.norm(v - a)))
        targets += [a + 5.0 * normal, a + 2.0 * extent * np.array([1.0, 0.5, 0.0])]
        yield a, pid, targets


def _tolerance_runs(surface: WalkableSurface, rng: random.Random):
    """(anchor, its polygon, targets, config) runs at the height tolerance
    tol, for two tolerances: from each polygon centre, on its plane or
    moved off it by tol / 2 (where a funnel tests whether it may resume),
    to points of every polygon (its centre, corners and 24 random points)
    moved off its plane by tol.  Each move lands 1 to 4 ulps of the point's
    coordinates short of or past that, on either side of the plane, so the
    walk's plane tests fall next to their limit."""
    def moved(p, q, off):
        n = surface.polygon_normals[q]
        now = float(np.dot(n, p)) - float(surface.polygon_offsets[q])
        ulp = float(np.spacing(np.abs(p).max()))
        jitter = rng.choice((-1, 1)) * rng.randint(1, 4) * ulp
        return p + (rng.choice((-1.0, 1.0)) * off - now + jitter) * n

    points = []
    for q, ring in enumerate(surface.polygons):
        corners = surface.vertices[ring]
        points += [(q, surface.polygon_centers[q]), *((q, p) for p in corners)]
        for _ in range(24):
            weights = np.array([rng.random() + 1e-3 for _ in ring])
            points.append((q, weights @ corners / weights.sum()))
    for tol in (DEFAULT_HEIGHT_TOL, 0.3):
        cfg = SimplifyConfig(los_height_tolerance=tol)
        targets = [moved(p, q, tol) for q, p in points]
        for pid, center in enumerate(surface.polygon_centers):
            yield center, pid, targets, cfg
            yield moved(center, pid, 0.5 * tol), pid, targets, cfg


def _eps_runs(rng: random.Random):
    """(surface, anchor, its polygon, targets, config) runs from the origin,
    which lies on the middle of an 8-unit edge: the edge two squares share,
    flat or turned 30 or 60 degrees about it, or the boundary edge of one
    square.  The targets lie GEOM_EPS (1 + delta) from the origin in the
    projection of its polygon, for delta 0, +-1e-12 and +-1e-8, along the
    kept axes and at random angles: in the polygon's plane, so the full
    length is that too, or raised along the dropped axis, so only the
    projected one is.  Near the boundary or the shared edge, a walk and a
    point test answer such a segment differently."""
    surfaces = [build_walkable_surface([(-4, 0, 0), (4, 0, 0), (4, 8, 0), (-4, 8, 0)],
                                       [[0, 1, 2, 3]])]
    corners = ((-4, -8), (4, -8), (4, 0), (-4, 0), (4, 8), (-4, 8))
    for degrees in (0.0, 30.0, 60.0):
        cos, sin = math.cos(math.radians(degrees)), math.sin(math.radians(degrees))
        verts = [(x, y * cos, y * sin) for x, y in corners]
        surfaces.append(build_walkable_surface(verts, [[0, 1, 2, 3], [3, 2, 4, 5]]))
    for surface in surfaces:
        pid = surface.locate_point(np.zeros(3), DEFAULT_HEIGHT_TOL)
        keep = surface.polygon_axes[pid]
        angles = [rng.uniform(0.0, 2.0 * math.pi) for _ in range(48)]
        directions = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)]
        directions += [(math.cos(angle), math.sin(angle)) for angle in angles]
        targets = []
        for delta in (-1e-8, -1e-12, 0.0, 1e-12, 1e-8):
            for direction in directions:
                flat = np.zeros(3)
                flat[keep] = GEOM_EPS * (1.0 + delta) * np.array(direction)
                raised = flat.copy()
                raised[3 - keep.sum()] = rng.choice((-0.1, -1e-3, 1e-3, 0.1))
                targets += [flat, raised]
        yield surface, np.zeros(3), pid, targets, None


def _tie_heavy_graph(rng: random.Random, weights) -> SurfaceGraph:
    """2 to 16 nodes, each pair joined with one probability drawn per graph
    (often too low to connect it), every weight picked from `weights`."""
    from .fixtures import graph_from_edges

    n = rng.randint(2, 16)
    p = rng.uniform(0.05, 0.6)
    edges = [
        (i, j, rng.choice(weights))
        for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return graph_from_edges([(float(k), 0.0, 0.0) for k in range(n)], edges)


def _random_soup(nprng: np.random.Generator) -> BlockerMesh:
    """About 40 random non-degenerate triangles in a 10-unit cube."""
    verts = nprng.uniform(-5.0, 5.0, size=(60, 3))
    tris = nprng.integers(0, len(verts), size=(40, 3))
    distinct = (tris[:, 0] != tris[:, 1]) & (tris[:, 1] != tris[:, 2]) & (tris[:, 0] != tris[:, 2])
    return build_blocker_mesh(verts, tris[distinct])


def cell_plane_rays(blockers: BlockerMesh, nprng: np.random.Generator, count: int):
    """Segments (o, d, 1.0), as Python floats, whose box as
    `raycast._segment_box` widens it has one face exactly on a plane
    between two cells of the mesh's triangle grid, or 1 or 2 ulps to either
    side of it.  Each of the `count` starting segments runs from a random
    point towards, to or past a random point near a random triangle; it then
    slides along one axis until its low or high face lies on the nearest
    cell plane, each of the five ways in turn (skipped where rounding never
    lands it there)."""
    grid = blockers.triangle_grid()
    limit = 1.0 + EPS
    rays = []
    for _ in range(count):
        tri = blockers.vertices[blockers.triangles[nprng.integers(len(blockers.triangles))]]
        target = nprng.dirichlet(np.ones(3)) @ tri + nprng.normal(scale=0.01, size=3)
        d = nprng.normal(size=3) * nprng.uniform(0.2, 3.0) * blockers.reach
        o = (target - nprng.choice((0.5, 1.0, 1.5)) * d).tolist()
        d = d.tolist()
        k = int(nprng.integers(3))
        face = k + 3 * int(nprng.integers(2))
        x = _segment_box(blockers, grid, o, d, limit)[face]
        plane = _cell_plane(grid, k, min(max(round((x - grid.low[k]) * grid.scale), 0), grid.shape[k]))
        for shift in (-2, -1, 0, 1, 2):
            want = plane
            for _ in range(abs(shift)):
                want = math.nextafter(want, math.copysign(math.inf, shift))
            slid = _slide_face(blockers, grid, o, d, limit, k, face, want)
            if slid is not None:
                rays.append((slid, d, 1.0))
    return rays


def _cell_plane(grid, k: int, j: int) -> float:
    """The least float x that the grid puts at or past cell boundary j on
    axis k: (x - low) * scale >= j."""
    low, scale = grid.low[k], grid.scale
    x = low + j / scale
    while (x - low) * scale >= j:
        x = math.nextafter(x, -math.inf)
    while (x - low) * scale < j:
        x = math.nextafter(x, math.inf)
    return x


def _slide_face(blockers, grid, o: list, d: list, limit: float, k: int, face: int, want: float):
    """o moved along axis k so that face `face` of the segment's box is
    exactly `want`, or None where no float origin puts it there."""
    o = list(o)
    for _ in range(40):  # the pad changes with o, so each step only lands near `want`
        o[k] += want - _segment_box(blockers, grid, o, d, limit)[face]
    for _ in range(64):
        got = _segment_box(blockers, grid, o, d, limit)[face]
        if got == want:
            return o
        o[k] = math.nextafter(o[k], math.inf if got < want else -math.inf)
    return None


def axis_fans(blockers: BlockerMesh, nprng: np.random.Generator, count: int):
    """`count` rows (origin, directions (3, 3), max_t) of axis-aligned fans:
    the +x, +y and +z directions at one length from a triangle corner moved
    by whole and half units along each axis.  Against axis-aligned edges
    many of Moller-Trumbore's product differences are then exactly 0, where
    d and -d both round to +0 rather than to zeros of opposite sign."""
    rows = []
    for _ in range(count):
        corner = blockers.vertices[blockers.triangles[nprng.integers(len(blockers.triangles))]][
            nprng.integers(3)]
        origin = corner + nprng.choice((-1.0, -0.5, 0.0, 0.5, 1.0), size=3)
        length = nprng.choice((0.5, 1.0, 2.0))
        rows.append((origin, np.eye(3) * length, nprng.choice((1.0, 2.0))))
    return rows


def _probe_rays(blockers: BlockerMesh, nprng: np.random.Generator):
    """(origin, direction, max_t) rays at a blocker mesh: random rays; rays
    aimed at corners and at points on edges; rays grazing a triangle's
    plane, in it or tilted by 1e-12 to 1e-5; rays ending at a corner; and
    the box diagonals."""
    lo = blockers.vertices.min(axis=0) - 1.0
    hi = blockers.vertices.max(axis=0) + 1.0
    rays = [(lo, hi - lo, 1.0), (hi, lo - hi, 1.0)]
    for _ in range(8):
        rays.append((nprng.uniform(lo, hi), nprng.normal(size=3), nprng.uniform(0.5, 4.0)))
    for _ in range(8):
        tri = blockers.vertices[blockers.triangles[nprng.integers(len(blockers.triangles))]]
        a, b = nprng.choice(3, size=2, replace=False)
        target = tri[a] + nprng.choice((0.0, 0.5, nprng.uniform())) * (tri[b] - tri[a])
        o = nprng.uniform(lo, hi)
        rays.append((o, target - o, nprng.choice((1.0, nprng.uniform(0.5, 2.0)))))
        normal = np.cross(tri[1] - tri[0], tri[2] - tri[0])
        normal /= np.linalg.norm(normal)
        along = (tri[b] - tri[a]) / np.linalg.norm(tri[b] - tri[a])
        tilt = nprng.choice((0.0, 1e-12, -1e-9, 1e-7, -1e-5))
        lift = nprng.choice((0.0, 1e-12, -1e-9))
        o = tri.mean(axis=0) - 2.0 * along + lift * normal
        rays.append((o, along + tilt * normal, 4.0))
        # ending at corner a (just inside, or outside within EPS), arriving
        # from beyond it, away from the centroid: the centroid is then as far
        # from the segment as it gets
        inward = tri.mean(axis=0) - tri[a]
        target = tri[a] + nprng.choice((1e-6, -1e-10)) * inward
        o = target - 2.0 * inward / np.linalg.norm(inward) + nprng.choice((1e-5, -0.05)) * normal
        rays.append((o, target - o, 1.0))
    return rays
