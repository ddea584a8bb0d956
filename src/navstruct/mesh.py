"""Walkable surfaces and blocker meshes: parsing, validation and per-mesh indexes.

A walkable surface is a set of convex, planar rings joined on shared vertex
ids (vertices closer than `weld_eps` are merged first).  `edge_polygons` maps
each undirected edge to the polygons that own it: two for an interior edge,
one for a boundary edge, never more.  Boundary edges chain into closed loops.
A polygon's normal follows its ring's winding, so each ring runs
counter-clockwise seen from its normal's side, and the walkable interior lies
to the LEFT of each directed boundary edge.  A blocker mesh is a triangle soup
used only as a raycast target.

`build_walkable_surface` checks and measures the rings in array passes over
ring position; `oracles.build_walkable_surface_per_polygon` does the same one
polygon at a time and is the reference it must match, field for field and
error for error.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

from .errors import ParseError, ValidationError

# default tolerance for planarity / convexity checks, in world units
PLANE_EPS = 1e-4

# tolerance of the convex clip and of the line-of-sight walk, in world units
GEOM_EPS = 1e-9

# default distance a point may sit off a polygon's plane and still be on it
DEFAULT_HEIGHT_TOL = 0.5


@dataclass
class WalkableSurface:
    """Validated navigation surface with its edge owners and boundary loops."""

    vertices: np.ndarray          # (V, 3) float64
    polygons: list[list[int]]     # vertex-index rings, CCW along outward normal
    polygon_normals: np.ndarray   # (P, 3) unit normals
    polygon_centers: np.ndarray   # (P, 3) ring centroids
    polygon_offsets: np.ndarray   # (P,) plane offsets n.center
    # (P, 2) the axes kept when projecting along the normal's dominant axis
    polygon_axes: np.ndarray
    # (P, 3) winding of the ring projected along each axis: +1.0 CCW, -1.0 CW
    polygon_winding: np.ndarray
    # per axis x, y, z: every vertex's coordinate, as Python floats
    axis_coords: list[list[float]]
    # loops of directed (a, b) edges; interior lies to the left of each edge
    boundary_edges: list[list[tuple[int, int]]]
    # KD-tree over polygon_centers; and over all polygons, the farthest from
    # its polygon's centre that a point contains_point accepts can project
    # along the normal's dominant axis.  The reach is inf when a centre-edge
    # area rounds to exactly zero (a corner far from the rest): a sound
    # bound, under which locate_point tests every polygon
    polygon_tree: cKDTree = field(repr=False)
    polygon_reach: float
    # undirected (min, max) edge -> owning polygon ids, ascending: two for an
    # interior edge, whose owners are neighbours, and one for a boundary edge
    edge_polygons: dict[tuple[int, int], list[int]] = field(repr=False, default_factory=dict)

    def polygon_plane(self, poly_id: int) -> tuple[np.ndarray, float]:
        """Return (unit normal n, offset d) with n.p = d for points on the plane."""
        return self.polygon_normals[poly_id], float(self.polygon_offsets[poly_id])

    def clip_line(self, poly_id: int, keep, origin, direction) -> tuple[float, float, list]:
        """Clip the 2D line origin + t*direction, on the axes `keep`, against
        the polygon's convex ring projected there.  Returns (t_in, t_out,
        exit_edges), with t_in > t_out when the line misses; a zero direction
        gives (-inf, inf, []) for a point inside or on the ring."""
        ring = self.polygons[poly_id]
        kx, ky = int(keep[0]), int(keep[1])
        sign = float(self.polygon_winding[poly_id, 3 - kx - ky])
        xs, ys = self.axis_coords[kx], self.axis_coords[ky]
        ox, oy = float(origin[0]), float(origin[1])
        dx, dy = float(direction[0]), float(direction[1])
        t_in = -math.inf
        t_out = math.inf
        exit_edges: list[tuple[int, int]] = []
        k = len(ring)
        for i in range(k):
            a, b = ring[i], ring[(i + 1) % k]
            ex, ey = xs[b] - xs[a], ys[b] - ys[a]
            f0 = sign * (ex * (oy - ys[a]) - ey * (ox - xs[a]))
            fd = sign * (ex * dy - ey * dx)
            if abs(fd) <= GEOM_EPS:
                if f0 < -GEOM_EPS:
                    return math.inf, -math.inf, []  # parallel and outside
                continue
            bound = -f0 / fd
            if fd > 0.0:
                t_in = max(t_in, bound)
            elif bound < t_out - GEOM_EPS:
                t_out = bound
                exit_edges = [(a, b)]
            elif bound <= t_out + GEOM_EPS:
                exit_edges.append((a, b))
        return t_in, t_out, exit_edges

    def contains_point(
        self, poly_id: int, point, height_tol: float = DEFAULT_HEIGHT_TOL
    ) -> bool:
        """True when `point` projects inside the polygon (edges included) and
        sits within `height_tol` of its plane (measured along the normal)."""
        p = np.asarray(point, dtype=float)
        n, d = self.polygon_plane(poly_id)
        if abs(float(np.dot(n, p)) - d) > height_tol:
            return False
        keep = self.polygon_axes[poly_id]
        t_in, t_out, _ = self.clip_line(poly_id, keep, p[keep], (0.0, 0.0))
        return t_in <= t_out

    def locate_point(self, point, height_tol: float = DEFAULT_HEIGHT_TOL) -> int | None:
        """Lowest polygon id containing `point`, or None when off-mesh.

        Only the polygons whose centre lies within polygon_reach +
        sqrt(3) * height_tol of the point are tested, in id order.  That is
        enough: a point that contains_point accepts is at most
        height_tol / |n_k| <= sqrt(3) * height_tol from its projection along
        the normal's dominant axis k, and the projection is within
        polygon_reach of the centre."""
        p = np.asarray(point, dtype=float)
        radius = self.polygon_reach + math.sqrt(3.0) * height_tol
        # rounding in the plane test and the tree's distances is far below this
        radius += 1e-9 * (radius + float(np.abs(p).max()))
        for pid in self.polygon_tree.query_ball_point(p, radius, return_sorted=True):
            if self.contains_point(pid, p, height_tol):
                return pid
        return None


@dataclass
class BlockerMesh:
    """Triangle soup used purely as a raycast target (walls, obstacles)."""

    vertices: np.ndarray   # (V, 3) float64
    triangles: np.ndarray  # (T, 3) int
    # per triangle, its first corner v0 and its two edges e1, e2 from there,
    # as one tuple of 9 Python floats (v0x, v0y, v0z, e1x, ..., e2z)
    corner_edges: list[tuple[float, ...]] = field(repr=False)
    # KD-tree over the triangle centroids, and the largest centroid-corner distance
    triangle_tree: cKDTree = field(repr=False)
    reach: float
    # the centre and half-diagonal of the tree's centroid box, and 2 * reach,
    # which bounds every edge length
    box_center: tuple[float, float, float] = field(repr=False)
    box_spread: float = field(repr=False)
    max_edge: float = field(repr=False)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def read_text(path: Path) -> str:
    """The text of an input file, which must be UTF-8.

    Raises:
        ParseError: the bytes are not UTF-8.
        OSError: unreadable path.
    """
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc


def read_json(path: Path):
    """The JSON document in an input file; ParseError when it is not UTF-8 JSON."""
    try:
        return json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc


def as_index(value, path: Path) -> int:
    """An index read from the JSON file `path`, which must be an integral
    number (2 or 2.0, not 2.7, "2" or true); ParseError otherwise."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ParseError(f"{path}: index {value!r} is not an integer")


_OBJ_IGNORED = {"vn", "vt", "vp", "o", "g", "s", "mtllib", "usemtl"}


def _parse_obj(path: Path) -> tuple[list[list[float]], list[list[int]]]:
    verts: list[list[float]] = []
    faces: list[list[int]] = []
    for lineno, raw in enumerate(read_text(path).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        tag = fields[0]
        if tag == "v":
            if len(fields) < 4:
                raise ParseError(f"{path}:{lineno}: vertex record needs 3 coordinates")
            try:
                coords = [float(x) for x in fields[1:4]]
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: bad vertex coordinate") from exc
            if not all(math.isfinite(x) for x in coords):
                raise ParseError(f"{path}:{lineno}: vertex coordinates must be finite")
            verts.append(coords)
        elif tag == "f":
            ring = []
            for tok in fields[1:]:
                head = tok.split("/")[0]
                try:
                    idx = int(head)
                except ValueError as exc:
                    raise ParseError(f"{path}:{lineno}: bad face index {tok!r}") from exc
                if idx <= 0:
                    raise ParseError(f"{path}:{lineno}: face indices must be positive (1-based)")
                ring.append(idx - 1)
            if len(ring) < 3:
                raise ParseError(f"{path}:{lineno}: face needs at least 3 vertices")
            faces.append(ring)
        elif tag in _OBJ_IGNORED:
            continue  # harmless metadata records
        else:
            raise ParseError(f"{path}:{lineno}: unsupported OBJ record {tag!r}")
    return verts, faces


def _parse_surface_json(
    path: Path, face_keys: tuple[str, ...]
) -> tuple[list[list[float]], list[list[int]]]:
    """Vertices and index rings from a JSON object; the rings are under the
    first of `face_keys` the object has."""
    data = read_json(path)
    key = next((k for k in face_keys if isinstance(data, dict) and k in data), None)
    if key is None or "vertices" not in data:
        raise ParseError(f"{path}: expected object with 'vertices' and {face_keys[0]!r}")
    verts = data["vertices"]
    polys = data[key]
    if not isinstance(verts, list) or not all(
        isinstance(v, list) and len(v) == 3 for v in verts
    ):
        raise ParseError(f"{path}: 'vertices' must be a list of [x, y, z] triples")
    if not isinstance(polys, list) or not all(isinstance(p, list) for p in polys):
        raise ParseError(f"{path}: {key!r} must be a list of index rings")
    try:
        coords = [[float(x) for x in v] for v in verts]
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: vertex coordinates must be numbers") from exc
    if not all(math.isfinite(x) for v in coords for x in v):
        raise ParseError(f"{path}: vertex coordinates must be finite")
    rings = [[as_index(i, path) for i in ring] for ring in polys]
    return coords, rings


def _parse_geometry(
    path: str | Path, face_keys: tuple[str, ...] = ("polygons",)
) -> tuple[list[list[float]], list[list[int]]]:
    """Vertices and faces from OBJ, or from JSON with faces under `face_keys`."""
    p = Path(path)
    suffix = p.suffix.lower()
    if suffix == ".obj":
        return _parse_obj(p)
    if suffix == ".json":
        return _parse_surface_json(p, face_keys)
    raise ParseError(f"{p}: unsupported file extension {suffix!r} (expected .obj or .json)")


# ---------------------------------------------------------------------------
# geometry helpers
# ---------------------------------------------------------------------------

def _weld(verts: np.ndarray, polys: list[list[int]], eps: float):
    """Merge vertices closer than eps; remap rings and drop repeats.

    Each cluster of vertices linked by pairs closer than eps becomes one
    vertex at the position of its lowest index; clusters keep index order.
    """
    # imported here: csgraph is only needed when welding is on
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    n = len(verts)
    pairs = cKDTree(verts).query_pairs(eps, output_type="ndarray")
    links = coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(n, n))
    labels = connected_components(links, directed=False)[1]
    # components are labelled in order of their lowest vertex index
    first = np.unique(labels, return_index=True)[1]
    labels = labels.tolist()
    new_verts = verts[first]
    new_polys = []
    for ring in polys:
        mapped = [labels[i] for i in ring]
        new_polys.append(
            [v for k, v in enumerate(mapped) if v != mapped[(k - 1) % len(mapped)]]
        )
    return new_verts, new_polys


# ---------------------------------------------------------------------------
# construction / validation
# ---------------------------------------------------------------------------

def _check_extent(verts: np.ndarray, what: str) -> None:
    """ValidationError when the diagonal of the vertices' bounding box is not
    a finite float: lengths and sample counts derived from it would overflow."""
    if not len(verts):
        return
    with np.errstate(over="ignore"):
        diagonal = np.linalg.norm(verts.max(axis=0) - verts.min(axis=0))
    if not math.isfinite(diagonal):
        raise ValidationError(f"{what} coordinates span more than the float range")


def build_walkable_surface(
    vertices, polygons, *, plane_eps: float = PLANE_EPS, weld_eps: float = 0.0
) -> WalkableSurface:
    """Validate raw vertices/rings and assemble the full surface structure;
    vertices closer than `weld_eps` are merged first (0 disables welding).

    Raises ValidationError naming the offending polygon or edge when a ring is
    degenerate, non-planar, non-convex, or when an edge is shared by more than
    two polygons.  The polygon named is the lowest id that fails a check, and
    the message is its first failing check in the order: ring size, index
    range, repeated vertex, zero-length edge, zero area, planarity,
    convexity.  Edges are checked once every polygon passes.
    """
    verts = np.asarray(vertices, dtype=float)
    if verts.ndim != 2 or verts.shape[1] != 3:
        raise ValidationError("vertices must be an (N, 3) array")
    _check_extent(verts, "surface vertex")
    polys = [list(map(int, ring)) for ring in polygons]

    if weld_eps > 0.0 and len(verts):
        verts, polys = _weld(verts, polys, weld_eps)

    if not polys:
        raise ValidationError("surface has no polygons")

    # every ring corner in one flat array: polygon `pid` holds corners
    # starts[pid] .. starts[pid] + sizes[pid] - 1
    sizes = np.fromiter(map(len, polys), dtype=np.intp, count=len(polys))
    starts = np.cumsum(sizes) - sizes
    corners = _corner_ids(polys, len(verts))
    owner = np.repeat(np.arange(len(polys)), sizes)

    # the rings before the first one that is too short, leaves the vertex
    # range or repeats a vertex can be measured
    ring_fault = _first_fault(_ring_checks(corners, owner, sizes))
    sound = ring_fault[0] if ring_fault else len(polys)
    normals, centers, offsets, axes, reach, shape_checks = _ring_geometry(
        verts, corners, sizes[:sound], starts[:sound], plane_eps
    )
    fault = _first_fault(shape_checks) or ring_fault
    if fault:
        raise ValidationError("polygon {}: {}".format(*fault))
    edge_polygons, boundary = _edge_owners(polys, corners, owner, sizes, starts)

    # a ring's shoelace sum projected along axis k is its Newell n[k], negated
    # for k = 1 (kept axes x, z run against the cyclic order); zero counts as CCW
    winding = np.where(normals * [1.0, -1.0, 1.0] >= 0.0, 1.0, -1.0)
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
        edge_polygons=edge_polygons,
    )


def _corner_ids(polys: list[list[int]], nverts: int) -> np.ndarray:
    """Every ring's vertex ids, ring after ring, as one intp array; an id
    outside 0 .. nverts - 1 reads -1."""
    count = sum(map(len, polys))
    try:
        ids = np.fromiter(itertools.chain.from_iterable(polys), dtype=np.intp, count=count)
    except OverflowError:  # an id beyond the intp range, so out of range too
        ids = np.fromiter(
            (i if 0 <= i < nverts else -1 for i in itertools.chain.from_iterable(polys)),
            dtype=np.intp, count=count,
        )
    ids[(ids < 0) | (ids >= nverts)] = -1
    return ids


def _ring_checks(corners: np.ndarray, owner: np.ndarray, sizes: np.ndarray) -> list:
    """The checks on a ring's vertex ids, as (flags per polygon, message)."""
    out_of_range = np.zeros(len(sizes), dtype=bool)
    out_of_range[owner[corners < 0]] = True
    # sorted by polygon, then by vertex id: a repeat sits next to its twin
    by_ring = np.lexsort((corners, owner))
    ring_owner, ids = owner[by_ring], corners[by_ring]
    twin = (ring_owner[1:] == ring_owner[:-1]) & (ids[1:] == ids[:-1])
    repeats = np.zeros(len(sizes), dtype=bool)
    repeats[ring_owner[1:][twin]] = True
    return [
        (sizes < 3, "ring has fewer than 3 vertices"),
        (out_of_range, "vertex index out of range"),
        (repeats, "ring repeats a vertex"),
    ]


def _first_fault(checks: list) -> tuple[int, str] | None:
    """(polygon id, message) for the lowest id that a check flags, with the
    first check in `checks` that flags it, or None.  A message is text or a
    function of the polygon id."""
    flagged = np.flatnonzero(np.logical_or.reduce([flags for flags, _ in checks]))
    if not len(flagged):
        return None
    pid = int(flagged[0])
    message = next(message for flags, message in checks if flags[pid])
    return pid, message(pid) if callable(message) else message


def _ring_positions(corners: np.ndarray, sizes: np.ndarray, starts: np.ndarray):
    """For each ring position i, (i, m, a, b, c): the first m rings, which
    are those with more than i corners as `sizes` runs largest first, and
    the vertex ids at their positions i, i + 1 and i + 2 around the ring."""
    more = len(sizes) - np.cumsum(np.bincount(sizes, minlength=1))
    for i, m in enumerate(more[:-1].tolist()):
        size, start = sizes[:m], starts[:m]
        a, b, c = (corners[start + (i + k) % size] for k in range(3))
        yield i, m, a, b, c


def _lengths(v: np.ndarray) -> np.ndarray:
    """Row lengths of an (n, 3) array, summed as np.linalg.norm(v, axis=1)
    and (v * v).sum(axis=1) sum three columns."""
    return np.sqrt((v[:, 0] * v[:, 0] + v[:, 1] * v[:, 1]) + v[:, 2] * v[:, 2])


def _row_dots(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """np.dot of each row pair of two (n, 3) arrays: the stacked (1, 3) @
    (3, 1) products make the same BLAS dot call per row as np.dot and
    np.linalg.norm make for one 3-vector, so the sums round alike."""
    return np.matmul(u[:, None, :], v[:, :, None])[:, 0, 0]


def _ring_geometry(verts, corners, sizes, starts, plane_eps: float):
    """Normals, centres, plane offsets and projection axes of the rings
    (sizes, starts) into `corners`, locate_point's reach over them, and the
    geometric checks as (flags per polygon, message).

    The work runs in passes over ring position, each step on corner i of
    every ring with more than i corners.  So each per-ring sum adds in ring
    order, as the per-polygon reference adds it, and every stored float
    matches it bit for bit.
    """
    count = len(sizes)
    # rings largest first: those with more than i corners are a prefix
    by_size = np.argsort(-sizes, kind="stable")
    sizes, starts = sizes[by_size], starts[by_size]
    steps = (corners, sizes, starts)

    # pass 1: edge lengths, Newell normal terms and centre sums
    short_edge = np.zeros(count, dtype=bool)
    newell = np.zeros((count, 3))
    total = np.zeros((count, 3))
    for _, m, a, b, _ in _ring_positions(*steps):
        p, q = verts[a], verts[b]
        short_edge[:m] |= _lengths(q - p) < 1e-12
        (px, py, pz), (qx, qy, qz) = p.T, q.T
        newell[:m, 0] += (py - qy) * (pz + qz)
        newell[:m, 1] += (pz - qz) * (px + qx)
        newell[:m, 2] += (px - qx) * (py + qy)
        total[:m] += p
    norm = np.sqrt(_row_dots(newell, newell))
    zero_area = norm < 1e-12
    normals = newell / np.where(zero_area, 1.0, norm)[:, None]
    centers = total / sizes[:, None]
    # the two axes kept when projecting along each normal's dominant axis
    axes = np.array([[1, 2], [0, 2], [0, 1]])[np.argmax(np.abs(normals), axis=1)]

    # pass 2: planarity, convexity and reach, against the normal and centre.
    # A corner lies within plane_eps of its polygon's plane, so within
    # sqrt(3) * plane_eps of it along the dominant axis.  The clip's GEOM_EPS
    # grows the projected ring about its centre by a factor of at most
    # 1 + GEOM_EPS / (twice the smallest projected area of a centre-edge
    # triangle).
    maybe_bent = np.zeros(count, dtype=bool)
    flip_at = np.full(count, -1)
    far = np.zeros(count)
    thin = np.full(count, np.inf)
    for i, m, a, b, c in _ring_positions(*steps):
        p, q, r = verts[a], verts[b], verts[c]
        n, rel, rel_next = normals[:m], p - centers[:m], q - centers[:m]
        # |(p - centre) . n| > plane_eps, with room for the rounding of the
        # per-polygon rule's BLAS product, whose order and fused steps may
        # differ (within 1e-15 * sum |terms|); flagged rings are measured
        # again below
        terms = rel * n
        dev = np.abs((terms[:, 0] + terms[:, 1]) + terms[:, 2])
        maybe_bent[:m] |= dev + 1e-15 * np.abs(terms).sum(axis=1) > plane_eps
        # the turn from edge p-q into q-r must not flip against the normal;
        # the cross product is written out with np.cross's own expressions
        e, f = q - p, r - q
        (ex, ey, ez), (fx, fy, fz), (nx, ny, nz) = e.T, f.T, n.T
        turn = (ey * fz - ez * fy) * nx + (ez * fx - ex * fz) * ny + (ex * fy - ey * fx) * nz
        flipped = (turn < -plane_eps * (_lengths(e) * _lengths(f))) & (flip_at[:m] < 0)
        flip_at[:m][flipped] = i
        far[:m] = np.maximum(far[:m], _lengths(rel))
        keep = axes[:m]
        (u0, u1), (v0, v1) = (np.take_along_axis(x, keep, axis=1).T for x in (rel, rel_next))
        thin[:m] = np.minimum(thin[:m], np.abs(u0 * v1 - u1 * v0))
    # the planarity rule itself: one (k, 3) @ (3,) product per flagged ring
    deviation = np.zeros(count)
    for s in np.flatnonzero(maybe_bent).tolist():
        ring = corners[starts[s]:starts[s] + sizes[s]]
        deviation[s] = np.abs((verts[ring] - centers[s]) @ normals[s]).max()
    # an exactly zero area (far-off corners round it away) bounds nothing
    grow = np.divide(GEOM_EPS, thin, out=np.full(count, np.inf), where=thin > 0.0)
    reach = (far + math.sqrt(3.0) * plane_eps) * (1.0 + grow)

    # back to polygon id order
    order = np.empty_like(by_size)
    order[by_size] = np.arange(count)
    deviation, flip_at = deviation[order], flip_at[order]
    checks = [
        (short_edge[order], "zero-length edge"),
        (zero_area[order], "degenerate (zero area)"),
        (
            deviation > plane_eps,
            lambda pid: f"non-planar (deviation {deviation[pid]:.3e} > {plane_eps:.3e})",
        ),
        (flip_at >= 0, lambda pid: f"non-convex at ring position {flip_at[pid]}"),
    ]
    normals, centers = normals[order], centers[order]
    offsets = _row_dots(normals, centers)
    return normals, centers, offsets, axes[order], float(reach.max(initial=0.0)), checks


def _edge_owners(polys, corners, owner, sizes, starts):
    """edge_polygons and the boundary edges, each in the direction of its
    owning ring, both in the order a walk over the ring corners meets them.

    An edge is the sorted (min, max) vertex pair of a corner and the next.
    Raises ValidationError for the edge whose third corner the walk meets
    first.
    """
    succ = np.arange(1, len(corners) + 1)  # the next corner around the ring
    succ[starts + sizes - 1] = starts
    a, b = corners, corners[succ]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    # grouped by edge; lexsort is stable, so each group runs in corner order
    by_edge = np.lexsort((hi, lo))
    lo_sorted, hi_sorted = lo[by_edge], hi[by_edge]
    new = np.ones(len(corners), dtype=bool)
    new[1:] = (lo_sorted[1:] != lo_sorted[:-1]) | (hi_sorted[1:] != hi_sorted[:-1])
    heads = np.flatnonzero(new)
    counts = np.diff(heads, append=len(corners))
    if counts.max() > 2:
        c = by_edge[heads[counts > 2] + 2].min()
        raise ValidationError(
            f"edge {(int(lo[c]), int(hi[c]))}: shared by more than two polygons (non-manifold)"
        )
    met = np.argsort(by_edge[heads])
    first, second = by_edge[heads[met]], by_edge[np.minimum(heads + 1, len(corners) - 1)[met]]
    shared = (counts[met] == 2).tolist()
    # ids as the rings' own int objects, and one int per polygon id, so the
    # surface holds no new int per edge
    ring_id = list(itertools.chain.from_iterable(polys)).__getitem__
    pid = list(range(len(polys))).__getitem__
    nxt = succ[first]
    low_first = a[first] < b[first]
    keys = zip(
        map(ring_id, np.where(low_first, first, nxt).tolist()),
        map(ring_id, np.where(low_first, nxt, first).tolist()),
    )
    owners = zip(map(pid, owner[first].tolist()), map(pid, owner[second].tolist()), shared)
    edge_polygons = {key: [p, q] if two else [p] for key, (p, q, two) in zip(keys, owners)}
    ends = zip(map(ring_id, first.tolist()), map(ring_id, nxt.tolist()), shared)
    boundary = [(x, y) for x, y, two in ends if not two]
    return edge_polygons, boundary


def _stitch_boundary_loops(directed: list[tuple[int, int]]) -> list[list[tuple[int, int]]]:
    """Chain directed boundary edges into closed loops.

    Loops start at their smallest vertex id and are ordered by that id, which
    keeps downstream sampling deterministic.
    """
    outgoing: dict[int, list[tuple[int, int]]] = {}
    for e in directed:
        outgoing.setdefault(e[0], []).append(e)
    for lst in outgoing.values():
        lst.sort()

    unused = set(directed)
    loops = []
    for start_vertex in sorted(outgoing):
        for first in outgoing[start_vertex]:
            if first not in unused:
                continue
            loop = [first]
            unused.discard(first)
            cur = first
            while True:
                nxt = None
                for cand in outgoing.get(cur[1], ()):
                    if cand in unused:
                        nxt = cand
                        break
                if nxt is None:
                    break
                loop.append(nxt)
                unused.discard(nxt)
                cur = nxt
            if loop[-1][1] != loop[0][0]:
                raise ValidationError(
                    f"boundary chain starting at vertex {loop[0][0]} does not close"
                )
            loops.append(loop)
    # canonical rotation: begin each loop on its smallest vertex
    canonical = []
    for loop in loops:
        k = min(range(len(loop)), key=lambda i: loop[i][0])
        canonical.append(loop[k:] + loop[:k])
    canonical.sort(key=lambda lp: lp[0][0])
    return canonical


def load_walkable_surface(
    path: str | Path, *, plane_eps: float = PLANE_EPS, weld_eps: float = 0.0
) -> WalkableSurface:
    """Load and validate a walkable surface from an OBJ or JSON file.

    Args:
        path: ``.obj`` (v/f records) or ``.json`` with ``vertices``/``polygons``.
        plane_eps: planarity/convexity tolerance.
        weld_eps: merge vertices closer than this (0 disables welding).

    Raises:
        ParseError: malformed file.
        ValidationError: parsed geometry violates surface requirements.
        OSError: unreadable path.
    """
    verts, polys = _parse_geometry(path)
    return build_walkable_surface(verts, polys, plane_eps=plane_eps, weld_eps=weld_eps)


def build_blocker_mesh(vertices, triangles) -> BlockerMesh:
    verts = np.asarray(vertices, dtype=float)
    try:
        tris = np.asarray(triangles, dtype=int)
    except OverflowError as exc:
        raise ValidationError("blocker triangle index out of range") from exc
    if tris.size == 0:
        tris = tris.reshape(0, 3)
    if verts.ndim != 2 or verts.shape[1] != 3:
        raise ValidationError("blocker vertices must be an (N, 3) array")
    _check_extent(verts, "blocker vertex")
    if tris.ndim != 2 or tris.shape[1] != 3:
        raise ValidationError("blocker triangles must be an (M, 3) index array")
    if tris.size and (tris.min() < 0 or tris.max() >= len(verts)):
        raise ValidationError("blocker triangle index out of range")
    corners = verts[tris]
    v0 = corners[:, 0]
    e1, e2 = corners[:, 1] - v0, corners[:, 2] - v0
    degenerate = np.flatnonzero(np.linalg.norm(np.cross(e1, e2), axis=1) < 1e-12)
    if len(degenerate):
        raise ValidationError(f"blocker triangle {degenerate[0]}: degenerate (zero area)")
    centroids = corners.mean(axis=1)
    reach = float(np.linalg.norm(corners - centroids[:, None], axis=2).max(initial=0.0))
    tree = cKDTree(centroids)
    return BlockerMesh(
        vertices=verts, triangles=tris,
        corner_edges=list(map(tuple, np.hstack([v0, e1, e2]).tolist())),
        triangle_tree=tree, reach=reach,
        box_center=tuple((0.5 * (tree.mins + tree.maxes)).tolist()),
        box_spread=0.5 * math.dist(tree.mins, tree.maxes),
        max_edge=2.0 * reach,
    )


def load_blocker_mesh(path: str | Path) -> BlockerMesh:
    """Load a triangles-only blocker mesh from OBJ, or from JSON with the
    faces under ``triangles`` (``polygons`` is accepted too)."""
    verts, faces = _parse_geometry(path, ("triangles", "polygons"))
    for f in faces:
        if len(f) != 3:
            raise ParseError(f"{path}: blocker faces must be triangles")
    return build_blocker_mesh(verts, faces)
