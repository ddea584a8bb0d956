"""Brute-force reference implementations used to cross-check the fast paths.

Every function here deliberately takes a different algorithmic route from the
implementation it validates: Floyd-Warshall + explicit path counting instead
of priority-queue searches, exhaustive subset enumeration instead of greedy
construction, dense eigendecomposition instead of power iteration, explicit
matrix powers instead of vector recurrences.
"""
from __future__ import annotations

import dataclasses
import itertools
import math
import random
from heapq import heappop, heappush

import numpy as np
from scipy.spatial import cKDTree

from .errors import ValidationError
from .graph import SurfaceGraph
from .mesh import (
    DEFAULT_HEIGHT_TOL,
    GEOM_EPS,
    PLANE_EPS,
    BlockerMesh,
    WalkableSurface,
    _check_extent,
    _stitch_boundary_loops,
    _weld,
    build_blocker_mesh,
    build_walkable_surface,
)
from .raycast import EPS

_TIE_TOL = 1e-12


def weight_matrix(g: SurfaceGraph, weighted: bool = True) -> np.ndarray:
    n = len(g.nodes)
    w = np.full((n, n), np.inf)
    np.fill_diagonal(w, 0.0)
    for i, j, wt in g.edges:
        w[i, j] = w[j, i] = wt if weighted else 1.0
    return w


def dijkstra_tree_heap(g: SurfaceGraph, src: int) -> tuple[list[float], list[int]]:
    """Single-source distances and predecessors by a binary-heap search in
    Python.  Settling u offers d + w to each unsettled neighbour v: a smaller
    value replaces v's predecessor list, an equal one joins it.  Each node
    keeps the smallest id of its list, -1 when the list is empty."""
    n = len(g.nodes)
    dist = [math.inf] * n
    preds: list[list[int]] = [[] for _ in range(n)]
    done = [False] * n
    dist[src] = 0.0
    adj = g.adjacency()
    heap = [(0.0, src)]
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
    adj = g.adjacency()
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
    checked, measured and given its reach in its own numpy calls, and the
    edge owners come from a walk over every ring corner."""
    verts = np.asarray(vertices, dtype=float)
    if verts.ndim != 2 or verts.shape[1] != 3:
        raise ValidationError("vertices must be an (N, 3) array")
    _check_extent(verts, "surface vertex")
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

    # edge bookkeeping: undirected identity is the sorted vertex pair
    edge_polygons: dict[tuple[int, int], list[int]] = {}
    directed: set[tuple[int, int]] = set()
    for pid, ring in enumerate(polys):
        for k in range(len(ring)):
            a, b = ring[k], ring[(k + 1) % len(ring)]
            key = (a, b) if a < b else (b, a)
            owners = edge_polygons.setdefault(key, [])
            owners.append(pid)
            if len(owners) > 2:
                raise ValidationError(
                    f"edge {key}: shared by more than two polygons (non-manifold)"
                )
            directed.add((a, b))

    # boundary edges in the direction the owning ring uses
    loops = _stitch_boundary_loops([
        key if key in directed else key[::-1]
        for key, owners in edge_polygons.items() if len(owners) == 1
    ])

    return WalkableSurface(
        vertices=verts,
        polygons=polys,
        polygon_normals=normals,
        polygon_centers=centers,
        polygon_offsets=offsets,
        polygon_axes=axes,
        polygon_winding=winding,
        axis_coords=verts.T.tolist(),
        boundary_edges=loops,
        polygon_tree=cKDTree(centers),
        polygon_reach=reach,
        edge_polygons=edge_polygons,
    )


def build_differences(vertices, polygons, **kwargs) -> list[str]:
    """How `mesh.build_walkable_surface` differs from the per-polygon
    reference on one input: the WalkableSurface fields that differ (arrays
    by dtype and np.array_equal, the KD-tree by its data, edge_polygons with
    its order, the rest by ==), or both outcomes when either raises and
    their ValidationError texts differ."""
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
        elif isinstance(a, dict):
            same = list(a.items()) == list(b.items())
        else:
            same = a == b
        if not same:
            differ.append(f.name)
    return differ


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


def _dot_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of (n, 3) arrays, adding x, z, then y.  That is
    the order in which np.einsum("ij,ij->i") reduces three products with
    SIMD (numpy 2.4 on x86-64 with AVX-512), so these are its results there;
    spelled out, the order holds on every platform, and `raycast.first_hit`
    adds in the same order."""
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
        grid_surface,
        ramp_corridor,
        random_connected_graph,
        random_forest_graph,
        ring_surface,
        stacked_floors,
        straight_corridor,
        vertical_strip,
    )
    from .raycast import first_hit
    from .steiner import build_steiner_tree
    from .terminals import TerminalSet

    rng = random.Random(seed)
    results = []

    worst = 0.0
    ok = True
    for _ in range(instances):
        g = random_connected_graph(rng, rng.randint(4, 12), rng.uniform(0.4, 0.8))
        term_ids = sorted(rng.sample(range(len(g.nodes)), rng.randint(2, 4)))
        tree = build_steiner_tree(
            g, TerminalSet(node_ids=term_ids, selection_method="metric")
        )
        opt, leaves = steiner_exhaustive(g, term_ids)
        bound = 2.0 * (1.0 - 1.0 / leaves) * opt if leaves else 2.0 * opt
        worst = max(worst, tree.total_weight / opt if opt else 1.0)
        if tree.total_weight > bound + 1e-9:
            ok = False
    results.append(("steiner-bound", ok, f"worst ratio {worst:.4f}"))

    err = 0.0
    for _ in range(instances):
        g = random_connected_graph(rng, rng.randint(4, 20), rng.uniform(0.2, 0.6))
        fast = betweenness_centrality(g).values
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
        ev = eigenvector_centrality(g).values
        ev_ref = eigenvector_oracle(g)
        err = max(err, max(abs(a - b) for a, b in zip(ev, ev_ref)))
        alpha = 0.5 / max(spectral_radius(g), 1e-9)
        kz = katz_centrality(g, alpha=alpha).values
        kz_ref = katz_oracle(g, alpha)
        kerr = max(kerr, max(abs(a - b) for a, b in zip(kz, kz_ref)))
    results.append(("eigenvector-dense", err <= 1e-6, f"max abs err {err:.2e}"))
    results.append(("katz-series", kerr <= 1e-6, f"max abs err {kerr:.2e}"))

    err = 0.0
    for _ in range(instances):
        sizes = [rng.randint(1, 10) for _ in range(rng.randint(2, 5))]
        g = random_forest_graph(rng, sizes)
        weighted = rng.random() < 0.5
        fast = betweenness_centrality(g, weighted=weighted).values
        slow = betweenness_oracle(g, weighted=weighted)
        err = max(err, max(abs(a - b) for a, b in zip(fast, slow)))
    results.append(("betweenness-forest", err <= 1e-9, f"max abs err {err:.2e}"))

    grid = grid_surface(6, 6)
    # the grid turned so that its normal is (1, 1, 1) / sqrt(3), the most
    # a point may sit off its projection along the dominant axis
    turn = np.array([[1.0, -1.0, 0.0], [1.0, 1.0, -2.0], [1.0, 1.0, 1.0]])
    turn /= np.linalg.norm(turn, axis=1)[:, None]
    surfaces = [
        stacked_floors(), ring_surface(), grid,
        build_walkable_surface(grid.vertices @ turn, grid.polygons),
        vertical_strip(),
    ] + [ramp_corridor(angle) for angle in (30.0, 60.0, 80.0)]

    inputs = [(s.vertices, s.polygons) for s in surfaces]
    for _ in range(instances):
        nprng = np.random.default_rng(rng.randrange(2**32))
        inputs += [random_ring_surface(nprng), faulty_ring_surface(nprng, rng.randint(1, 3))]
    wrong = sum(bool(build_differences(verts, rings)) for verts, rings in inputs)
    results.append(
        ("surface-build", wrong == 0, f"{wrong} of {len(inputs)} surfaces differ")
    )

    tols = (0.05, 0.3, DEFAULT_HEIGHT_TOL, 1.0)
    checked = wrong = 0
    for surface in surfaces:
        verts = surface.vertices
        points = [*verts] + [(verts[a] + verts[b]) / 2.0 for a, b in surface.edge_polygons]
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

    checked = hits = wrong = 0
    for _ in range(instances):
        nprng = np.random.default_rng(rng.randrange(2**32))
        for blockers in (_random_soup(nprng), straight_corridor(rng.randint(2, 12))[1]):
            for o, d, max_t in _probe_rays(blockers, nprng):
                got = first_hit(blockers, o, d, max_t)
                checked += 1
                hits += got is not None
                wrong += got != first_hit_all_triangles(blockers, o, d, max_t)
    empty = build_blocker_mesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=int))
    checked += 1
    wrong += first_hit(empty, (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), 1e6) is not None
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
        for src in range(len(g.nodes)):
            checked += 1
            wrong += dijkstra_tree(g, src) != dijkstra_tree_heap(g, src)
    results.append(("dijkstra-tree", wrong == 0, f"{wrong} of {checked} sources differ"))
    return results


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
