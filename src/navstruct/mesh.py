"""Walkable surfaces and blocker meshes: parsing, validation and per-mesh indexes.

A walkable surface is a set of convex, planar rings joined on shared vertex
ids (vertices closer than `weld_eps` are merged first).  An edge is an
unordered vertex pair, owned by two rings (an interior edge) or one (a
boundary edge), never more.  `across` gives each ring corner the polygon
beyond its edge to the next corner, or -1 on the boundary; boundary edges
chain into closed loops.
A polygon's normal follows its ring's winding, so each ring runs
counter-clockwise seen from its normal's side, and the walkable interior lies
to the LEFT of each directed boundary edge.  A blocker mesh is a triangle soup
used only as a raycast target.

`build_walkable_surface` checks and measures the rings in array passes over
all ring corners; `oracles.build_walkable_surface_per_polygon` does the same one
polygon at a time and is the reference it must match, field for field and
error for error.

An OBJ input has two readers.  `_plain_obj` reads a text in the plain layout
with numpy's C parser; every other text, sound or faulty, goes to
`parse_obj_per_line`, which reads one line at a time and whose vertices,
faces or error stand as the answer.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np
from scipy.spatial import cKDTree

from .errors import ParseError, ValidationError

# default tolerance for planarity / convexity checks, in world units
PLANE_EPS = 1e-4

# tolerance of the convex clip and of the line-of-sight walk, in world units
GEOM_EPS = 1e-9

# default distance a point may sit off a polygon's plane and still be on it
DEFAULT_HEIGHT_TOL = 0.5

# largest coordinate magnitude an input may have: the builds and queries
# multiply up to four coordinates (Newell's normal squared, a blocker
# triangle's cross product squared), and 1e50 keeps every such product and
# its sums far inside the float range
MAX_COORDINATE = 1e50

# largest coordinate magnitude the pipeline writes: a terminal within
# +-MAX_COORDINATE pushed along a unit direction by an exit_offset of at most
# MAX_COORDINATE, with room for the push's rounding
MAX_WRITTEN_COORDINATE = 2.0 * MAX_COORDINATE * (1.0 + 1e-9)

# most cells per axis of a blocker mesh's triangle grid, so that a cell's
# flat index fits an int64; a mesh wider than this many cell edges shares
# the last cell of the axis among its far triangles
GRID_AXIS_CELLS = 2**20


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
    # loops of directed boundary edges (a, b, owning polygon id); interior
    # lies to the left of each edge
    boundary_edges: list[list[tuple[int, int, int]]]
    # KD-tree over polygon_centers; and over all polygons, the farthest from
    # its polygon's centre that a point contains_point accepts can project
    # along the normal's dominant axis.  The reach is inf when a centre-edge
    # area rounds to exactly zero (a corner far from the rest): a sound
    # bound, under which locate_point tests every polygon
    polygon_tree: cKDTree = field(repr=False)
    polygon_reach: float
    # aligned with polygons: across[p][k] is the polygon beyond the edge from
    # corner k to corner k + 1 of ring p, or -1 on the boundary
    across: list[list[int]] = field(repr=False)
    # polygon id -> walk_row(polygon id), for the polygons walks have read
    walk_rows: dict[int, tuple] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def polygon_plane(self, poly_id: int) -> tuple[np.ndarray, float]:
        """Return (unit normal n, offset d) with n.p = d for points on the plane."""
        return self.polygon_normals[poly_id], float(self.polygon_offsets[poly_id])

    def walk_row(self, poly_id: int) -> tuple[tuple, tuple, tuple]:
        """The polygon's plane as four Python floats (n x, y, z, d), its
        projection axes as two ints and its winding along each axis as three
        floats, for the line-of-sight walk.  Each row is read from the arrays
        when a walk first asks for it, so a surface holds rows only for the
        polygons its walks touch."""
        row = self.walk_rows.get(poly_id)
        if row is None:
            plane = (*self.polygon_normals[poly_id].tolist(), float(self.polygon_offsets[poly_id]))
            row = self.walk_rows[poly_id] = (
                plane,
                tuple(self.polygon_axes[poly_id].tolist()),
                tuple(self.polygon_winding[poly_id].tolist()),
            )
        return row

    def clip_line(self, poly_id: int, keep, origin, direction) -> tuple[float, float, list]:
        """Clip the 2D line origin + t*direction, on the axes `keep`, against
        the polygon's convex ring projected there.  Returns (t_in, t_out,
        exits), with t_in > t_out when the line misses; `exits` are the ring
        positions k whose edge, from corner k to k + 1, bounds t_out.  A zero
        direction gives (-inf, inf, []) for a point inside or on the ring."""
        ring = self.polygons[poly_id]
        kx, ky = int(keep[0]), int(keep[1])
        sign = float(self.polygon_winding[poly_id, 3 - kx - ky])
        xs, ys = self.axis_coords[kx], self.axis_coords[ky]
        ox, oy = float(origin[0]), float(origin[1])
        dx, dy = float(direction[0]), float(direction[1])
        t_in = -math.inf
        t_out = math.inf
        exits: list[int] = []
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
                exits = [i]
            elif bound <= t_out + GEOM_EPS:
                exits.append(i)
        return t_in, t_out, exits

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
    # (v0x, v0y, v0z, e1x, ..., e2z): as a (T, 9) array for the batched
    # raycast, and as one tuple of 9 Python floats for the scalar one
    corner_table: np.ndarray = field(repr=False)
    corner_edges: list[tuple[float, ...]] = field(repr=False)
    # KD-tree over the triangle centroids, and the largest centroid-corner distance
    triangle_tree: cKDTree = field(repr=False)
    reach: float
    # the centre and half-diagonal of the tree's centroid box
    box_center: tuple[float, float, float] = field(repr=False)
    box_spread: float = field(repr=False)
    # the segment queries' grid of triangle boxes, built by the first one
    grid: TriangleGrid | None = field(init=False, repr=False, compare=False, default=None)

    def triangle_grid(self) -> TriangleGrid:
        """The mesh's `TriangleGrid`, built on the first call."""
        if self.grid is None:
            self.grid = _triangle_grid(self.vertices, self.triangles, self.reach)
        return self.grid


class TriangleGrid(NamedTuple):
    """A uniform grid over a blocker mesh's triangle boxes.

    Cells are cubes of edge 2 * reach from `low`, the least corner
    coordinates.  On each axis, coordinate x lies in cell
    floor((x - low) * scale), clamped to 0 .. count - 1 (on a mesh wider
    than GRID_AXIS_CELLS cells, the far triangles share the last one).  That
    index is monotone in x, so a box that meets a triangle's box covers a
    cell the triangle is listed in.  A triangle's box is no wider than its
    longest edge, at most 2 * reach, so it spans at most two cells per
    axis."""

    low: tuple[float, float, float]
    scale: float                     # 1 / cell edge
    shape: tuple[int, int, int]      # cells per axis
    # flat cell index (ix * ny + iy) * nz + iz -> the ascending ids of the
    # triangles whose box meets the cell; only cells that hold one
    cells: dict[int, tuple[int, ...]]
    # per triangle, (min x, y, z, max x, y, z) of its corners
    boxes: list[tuple[float, ...]]
    # the largest coordinate magnitude of any vertex
    magnitude: float


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def read_text(path: Path) -> str:
    """The text of an input file, which must be UTF-8; a leading byte-order
    mark is skipped.

    Raises:
        ParseError: the bytes are not UTF-8.
        OSError: unreadable path.
    """
    try:
        return path.read_text(encoding="utf-8-sig")
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


def as_number(value, where: str | Path) -> float:
    """A number read from JSON, as a float: an int or a float (2 or 2.5, not
    "2.5" or true); ParseError after `where`, the file's path or a field in
    it, otherwise.  An integer past the float range reads as infinite, as
    json reads a float literal past it (1e400)."""
    if isinstance(value, float):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            return math.inf if value > 0 else -math.inf
    raise ParseError(f"{where}: {value!r} is not a number")


_OBJ_IGNORED = {"vn", "vt", "vp", "o", "g", "s", "mtllib", "usemtl"}


def _parse_obj(path: Path) -> tuple[np.ndarray, np.ndarray | list[list[int]]]:
    """Vertices as a (V, 3) array and faces as 0-based index rings, read
    from the `v` and `f` records of an OBJ file.  A text in the plain layout
    is read by numpy's C parser (`_plain_obj`), and its faces come as one
    (F, k) int64 table.  Any other text, sound or faulty, is read one line
    at a time by `parse_obj_per_line`, whose answer stands: its vertex rows
    as an array and its faces as lists, or its ParseError naming the first
    faulty line.  A file with no vertex reads as np.empty(0) of shape (0,):
    build_walkable_surface refuses it as not (N, 3), and load_blocker_mesh
    reads it as an empty mesh."""
    lines = read_text(path).splitlines()
    plain = _plain_obj(lines)
    if plain is not None:
        return plain
    verts, faces = parse_obj_per_line(path, lines)
    return (np.array(verts) if verts else np.empty(0)), faces


def parse_obj_per_line(
    path, lines: list[str] | None = None
) -> tuple[list[list[float]], list[list[int]]]:
    """The `v` and `f` records of an OBJ file read one line at a time:
    vertex rows and face rings as lists, each token converted on its own.
    `lines` are the file's lines when the caller has read them already.
    ParseError names the first faulty line."""
    if lines is None:
        lines = read_text(Path(path)).splitlines()
    verts: list[list[float]] = []
    faces: list[list[int]] = []
    for lineno, raw in enumerate(lines, start=1):
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


def _plain_obj(lines: list[str]) -> tuple[np.ndarray, np.ndarray] | None:
    """Vertices as a (V, 3) array and faces as one (F, k) int64 array of
    0-based ids, read by numpy's C parser, when the OBJ lines are in the
    plain layout; None for any other text, which `parse_obj_per_line` then
    reads.

    The plain layout: every line is empty, a `#` comment, `v x y z` or
    `f i j k...` with one space after the tag; every face has the same
    k >= 3 ids; every coordinate is finite and every id positive.  On these
    rows np.loadtxt reads what float() and int() read, bit for bit: it
    splits on the same whitespace and parses a float as float() does, and
    every token the two read apart (`1_0`, a non-ASCII digit, an id past
    int64, `3/1`, a `#` after `comments=None`) makes it raise ValueError
    (pinned in tests/test_mesh.py)."""
    vrows = [line[2:] for line in lines if line[:2] == "v "]
    frows = [line[2:] for line in lines if line[:2] == "f "]
    others = len(lines) - len(vrows) - len(frows) - lines.count("")
    if others and others != sum(line[:1] == "#" for line in lines):
        return None
    try:
        verts = _loadtxt(vrows, float)
        faces = _loadtxt(frows, np.int64)
    except ValueError:
        return None
    if verts.shape[1] != 3 or not np.isfinite(verts).all():
        return None
    if faces.shape[1] < 3 or faces.size and faces.min() < 1:
        return None
    return (verts if len(verts) else np.empty(0)), faces - 1


def _loadtxt(rows: list[str], dtype) -> np.ndarray:
    """np.loadtxt of the rows as a 2-D array, or (0, 3) for no rows;
    ValueError when a row is blank, which loadtxt would skip."""
    if not rows:
        return np.empty((0, 3), dtype=dtype)
    if not any(map(str.strip, rows)):  # loadtxt warns on no data
        raise ValueError("blank rows")
    table = np.loadtxt(rows, dtype=dtype, comments=None, ndmin=2)
    if len(table) != len(rows):
        raise ValueError("blank row")
    return table


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
    coords = [[as_number(x, path) for x in v] for v in verts]
    if not all(math.isfinite(x) for v in coords for x in v):
        raise ParseError(f"{path}: vertex coordinates must be finite")
    rings = [[as_index(i, path) for i in ring] for ring in polys]
    return coords, rings


def _parse_geometry(
    path: str | Path, face_keys: tuple[str, ...] = ("polygons",)
) -> tuple[np.ndarray | list[list[float]], np.ndarray | list[list[int]]]:
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

def _check_coordinates(verts: np.ndarray, what: str, limit: float = MAX_COORDINATE) -> None:
    """ValidationError unless every coordinate is a number of magnitude at
    most `limit`."""
    if len(verts) and not np.abs(verts).max() <= limit:
        raise ValidationError(f"{what} coordinates must lie within +/-{limit:g}")


def build_walkable_surface(
    vertices, polygons, *, plane_eps: float = PLANE_EPS, weld_eps: float = 0.0
) -> WalkableSurface:
    """Validate raw vertices/rings and assemble the full surface structure;
    vertices closer than `weld_eps` are merged first (0 disables welding).
    The rings are index sequences, or one 2-D integer array with a ring per
    row, which is read without a pass per ring.

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
    _check_coordinates(verts, "surface vertex")
    # an (F, k) integer table, as the OBJ reader gives, keeps its one array
    table = polygons if _is_index_table(polygons) else None
    polys = table.tolist() if table is not None else [list(map(int, ring)) for ring in polygons]

    if weld_eps > 0.0 and len(verts):
        verts, polys = _weld(verts, polys, weld_eps)
        table = None  # welding drops repeated corners: rings may differ in size now

    if not polys:
        raise ValidationError("surface has no polygons")

    # every ring corner in one flat array: polygon `pid` holds corners
    # starts[pid] .. starts[pid] + sizes[pid] - 1
    if table is None:
        sizes = np.fromiter(map(len, polys), dtype=np.intp, count=len(polys))
    else:
        sizes = np.full(len(polys), table.shape[1], dtype=np.intp)
    starts = np.cumsum(sizes) - sizes
    corners = _corner_ids(polys if table is None else table, len(verts))
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
    across, boundary = _edge_owners(corners, owner, sizes, starts)

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
        across=across,
    )


def _is_index_table(polygons) -> bool:
    """Whether `polygons` is a 2-D integer array: one ring per row."""
    return isinstance(polygons, np.ndarray) and polygons.ndim == 2 and polygons.dtype.kind in "iu"


def _corner_ids(polys: list[list[int]] | np.ndarray, nverts: int) -> np.ndarray:
    """Every ring's vertex ids, ring after ring, as one intp array, from
    index rings or an index table; an id outside 0 .. nverts - 1 reads -1."""
    if isinstance(polys, np.ndarray):
        # an unsigned id past the intp range wraps negative, so reads -1 too
        ids = polys.astype(np.intp).ravel()
    else:
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


def shorter_than(v, eps: float) -> bool:
    """np.linalg.norm(v) < eps, for two or three Python floats.  norm is the
    square root of a BLAS dot, whose sum of squares differs from an exact
    one by at most 3u of it (any order, fused or not), and math.hypot is
    within one ulp of the exact length: so a length within 1e-9 of eps
    (relative) asks norm itself, and every other one falls on norm's side."""
    length = math.hypot(*v)
    if abs(length - eps) <= 1e-9 * eps:
        return float(np.linalg.norm(v)) < eps
    return length < eps


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

    Each pass computes its terms for every ring corner at once, then folds
    them per ring.  Sums fold by np.bincount, which adds its weights one
    after another in input order: corner order, so ring order, as the
    per-polygon reference adds them.  So every stored float matches it bit
    for bit.
    """
    count = len(sizes)
    ring = np.repeat(np.arange(count), sizes)  # the ring of each corner
    # the next corner around its ring: the last one wraps to the first
    nxt = np.arange(1, len(ring) + 1)
    nxt[starts + sizes - 1] = starts

    def ring_sum(terms):
        return np.bincount(ring, weights=terms, minlength=count)

    def rows(x, ids):  # x[ids]: np.take gathers rows faster than indexing
        return np.take(x, ids, axis=0)

    # pass 1: edge lengths, Newell normal terms and centre sums; edge e runs
    # from corner p to the next one, q
    p = rows(verts, corners[:len(ring)])
    q = rows(p, nxt)
    e = q - p
    short_edge = ring_sum(_lengths(e) < 1e-12) > 0
    (px, py, pz), (qx, qy, qz) = p.T, q.T
    newell = np.column_stack([
        ring_sum((py - qy) * (pz + qz)),
        ring_sum((pz - qz) * (px + qx)),
        ring_sum((px - qx) * (py + qy)),
    ])
    norm = np.sqrt(_row_dots(newell, newell))
    zero_area = norm < 1e-12
    normals = newell / np.where(zero_area, 1.0, norm)[:, None]
    centers = np.column_stack([ring_sum(x) for x in (px, py, pz)]) / sizes[:, None]
    # the two axes kept when projecting along each normal's dominant axis
    axes = np.array([[1, 2], [0, 2], [0, 1]])[np.argmax(np.abs(normals), axis=1)]

    # pass 2: planarity, convexity and reach, against the normal and centre.
    # A corner lies within plane_eps of its polygon's plane, so within
    # sqrt(3) * plane_eps of it along the dominant axis.  The clip's GEOM_EPS
    # grows the projected ring about its centre by a factor of at most
    # 1 + GEOM_EPS / (twice the smallest projected area of a centre-edge
    # triangle).
    n = rows(normals, ring)
    rel = p - rows(centers, ring)
    # |(p - centre) . n| > plane_eps, with room for the rounding of the
    # per-polygon rule's BLAS product, whose order and fused steps may differ
    # (within 1e-15 * sum |terms|); flagged rings are measured again below
    terms = rel * n
    dev = np.abs((terms[:, 0] + terms[:, 1]) + terms[:, 2])
    maybe_bent = ring_sum(dev + 1e-15 * np.abs(terms).sum(axis=1) > plane_eps) > 0
    # the turn from edge e into the next edge f must not flip against the
    # normal; the cross product is written out with np.cross's own expressions
    f = rows(e, nxt)
    (ex, ey, ez), (fx, fy, fz), (nx, ny, nz) = e.T, f.T, n.T
    turn = (ey * fz - ez * fy) * nx + (ez * fx - ex * fz) * ny + (ex * fy - ey * fx) * nz
    flipped = np.flatnonzero(turn < -plane_eps * (_lengths(e) * _lengths(f)))
    flip_at = np.full(count, -1)
    flip_rings, first_flip = np.unique(ring[flipped], return_index=True)
    flip_at[flip_rings] = flipped[first_flip] - starts[flip_rings]
    far = np.zeros(count)
    np.maximum.at(far, ring, _lengths(rel))
    # the centre-edge triangles projected along the dominant axis
    u = np.take_along_axis(rel, rows(axes, ring), axis=1)
    v = rows(u, nxt)
    thin = np.full(count, np.inf)
    np.minimum.at(thin, ring, np.abs(u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]))
    # the planarity rule itself: one (k, 3) @ (3,) product per flagged ring
    deviation = np.zeros(count)
    for s in np.flatnonzero(maybe_bent).tolist():
        corner_ids = corners[starts[s]:starts[s] + sizes[s]]
        deviation[s] = np.abs((verts[corner_ids] - centers[s]) @ normals[s]).max()
    # an exactly zero area (far-off corners round it away) bounds nothing, and
    # neither does one so small (subnormal) that the quotient overflows to inf
    with np.errstate(over="ignore"):
        grow = np.divide(GEOM_EPS, thin, out=np.full(count, np.inf), where=thin > 0.0)
    reach = (far + math.sqrt(3.0) * plane_eps) * (1.0 + grow)

    checks = [
        (short_edge, "zero-length edge"),
        (zero_area, "degenerate (zero area)"),
        (
            deviation > plane_eps,
            lambda pid: f"non-planar (deviation {deviation[pid]:.3e} > {plane_eps:.3e})",
        ),
        (flip_at >= 0, lambda pid: f"non-convex at ring position {flip_at[pid]}"),
    ]
    offsets = _row_dots(normals, centers)
    return normals, centers, offsets, axes, float(reach.max(initial=0.0)), checks


def _edge_owners(corners, owner, sizes, starts):
    """`across` and the boundary edges (a, b, owner), each in the direction
    of its owning ring and in corner order.

    An edge is the sorted (min, max) vertex pair of a corner and the next.
    Raises ValidationError for the edge whose third corner the walk over the
    ring corners meets first.
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
    # the two corners of a shared edge each see the other's polygon
    shared = heads[counts == 2]
    first, second = by_edge[shared], by_edge[shared + 1]
    across = np.full(len(corners), -1, dtype=np.intp)
    across[first], across[second] = owner[second], owner[first]
    if (sizes == sizes[0]).all():  # rings of one width: one row each
        rings = across.reshape(-1, int(sizes[0])).tolist()
    else:
        flat = across.tolist()
        rings = [flat[s:s + n] for s, n in zip(starts.tolist(), sizes.tolist())]
    edge = np.flatnonzero(across < 0)
    boundary = list(zip(a[edge].tolist(), b[edge].tolist(), owner[edge].tolist()))
    return rings, boundary


def _stitch_boundary_loops(
    directed: list[tuple[int, int, int]],
) -> list[list[tuple[int, int, int]]]:
    """Chain directed boundary edges (a, b, owner) into closed loops.

    Loops start at their smallest vertex id and are ordered by that id, which
    keeps downstream sampling deterministic.
    """
    outgoing: dict[int, list[tuple[int, int, int]]] = {}
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
    _check_coordinates(verts, "blocker vertex")
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
    table = np.hstack([v0, e1, e2])
    return BlockerMesh(
        vertices=verts, triangles=tris,
        corner_table=table, corner_edges=list(map(tuple, table.tolist())),
        triangle_tree=tree, reach=reach,
        box_center=tuple((0.5 * (tree.mins + tree.maxes)).tolist()),
        box_spread=0.5 * math.dist(tree.mins, tree.maxes),
    )


def _triangle_grid(verts: np.ndarray, tris: np.ndarray, reach: float) -> TriangleGrid:
    """The grid of a blocker mesh's triangle boxes, in numpy passes.  The
    per-axis arrays are freed as soon as they are used, so the build's
    peak memory stays near what the grid keeps."""
    n = len(tris)
    if not n:
        return TriangleGrid((0.0, 0.0, 0.0), 1.0, (1, 1, 1), {}, [], 0.0)
    scale = 1.0 / (2.0 * reach)
    low, shape, spans, columns = zip(*(_axis_cells(verts[:, k][tris], scale) for k in range(3)))
    xs, ys, zs = columns
    highs = (itertools.islice(column, n, None) for column in columns)
    # one tuple per distinct box: a wall quad's two triangles share theirs
    distinct: dict = {}
    boxes = [distinct.setdefault(box, box) for box in zip(xs, ys, zs, *highs)]
    del columns, xs, ys, zs, distinct
    (x0, x1), (y0, y1), (z0, z1) = ((span[:n], span[n:]) for span in spans)
    _, ny, nz = shape
    keys, owners = [], []
    # every cell of each triangle's range: its first cell plus each offset
    # up to the widest span, where the triangle reaches that far
    for dx, dy, dz in itertools.product(*(range(int((s[n:] - s[:n]).max()) + 1) for s in spans)):
        cx, cy, cz = x0 + dx, y0 + dy, z0 + dz
        fits = np.flatnonzero((cx <= x1) & (cy <= y1) & (cz <= z1))
        keys.append((cx[fits] * ny + cy[fits]) * nz + cz[fits])
        owners.append(fits)
    del spans, x0, x1, y0, y1, z0, z1, cx, cy, cz, fits
    keys, owners = np.concatenate(keys), np.concatenate(owners)
    order = np.lexsort((owners, keys))
    keys, owners = keys[order], owners[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1)).tolist()
    # one shared int object per triangle, not one per entry
    owners = list(map(list(range(n)).__getitem__, owners))
    cells = dict(zip(
        keys[starts].tolist(),
        map(tuple, map(owners.__getitem__, map(slice, starts, [*starts[1:], len(owners)]))),
    ))
    return TriangleGrid(low, scale, shape, cells, boxes, float(np.abs(verts).max()))


def _axis_cells(x: np.ndarray, scale: float):
    """One axis of the grid, from the (T, 3) corner coordinates `x`: the
    grid's low end, its cell count, the cells of every triangle's low end
    then of every high end, and those ends as Python floats in the same
    order.  A cell is floor((x - low) * scale) clamped to the count, as
    `raycast._cell_ids` computes it: the same float operations, and
    truncation equals floor on these non-negative values."""
    n = len(x)
    ends = np.concatenate([x.min(axis=1), x.max(axis=1)])
    start = ends[:n].min()
    top = int(min((ends[n:].max() - start) * scale, GRID_AXIS_CELLS - 1))
    spans = np.minimum((ends - start) * scale, top).astype(np.int64)
    # one float object per distinct coordinate: wall meshes repeat a few
    values, at = np.unique(ends, return_inverse=True)
    return float(start), top + 1, spans, list(map(values.tolist().__getitem__, at.tolist()))


def load_blocker_mesh(path: str | Path) -> BlockerMesh:
    """Load a triangles-only blocker mesh from OBJ, or from JSON with the
    faces under ``triangles`` (``polygons`` is accepted too).  A file with
    no vertex is an empty mesh, which blocks nothing."""
    verts, faces = _parse_geometry(path, ("triangles", "polygons"))
    if not len(verts):
        verts = np.zeros((0, 3))
    if _is_index_table(faces):
        widths = np.full(len(faces), faces.shape[1])
    else:
        widths = np.fromiter(map(len, faces), dtype=np.intp, count=len(faces))
    wrong = np.flatnonzero(widths != 3)
    if len(wrong):
        k = wrong[0]
        raise ParseError(
            f"{path}: blocker face {k} has {widths[k]} vertices; blocker faces must be triangles"
        )
    return build_blocker_mesh(verts, faces)
