"""Ray/segment queries against blocker triangle meshes (Moller-Trumbore).

`first_hit` casts a batch of rays, m from each of n origins and the m
negated ones, in numpy array passes that answer each direction and its
negation from one Moller-Trumbore evaluation, and agrees bit for bit with
`oracles.first_hit_all_triangles` on every one of the 2m.  `segment_clear`
tests one segment in a scalar any-hit loop in Python floats, which stops at
the first triangle it accepts, so it answers only whether that oracle finds a
hit.  `first_hit` finds the candidate triangles of all its origins in one
pair query between a tree of the origins and the mesh's centroid tree,
`segment_clear` in the cells of the mesh's grid of triangle boxes that the
segment's box covers.
"""
from __future__ import annotations

import math
from itertools import chain
from typing import Iterable

import numpy as np
from scipy.spatial import cKDTree

from .mesh import BlockerMesh, TriangleGrid, shorter_than

EPS = 1e-9

# float64 machine epsilon
_ROUNDOFF = float(np.finfo(float).eps)

# most (forward ray, triangle) pairs one array pass of first_hit tests, each
# answering its ray and the negated one: a pass holds about a dozen float
# arrays of this many entries (about 400 KB), so memory stays bounded when
# every ball is the whole mesh
PAIR_BUDGET = 4096


def first_hit(blockers: BlockerMesh | None, origins, directions, max_t: float) -> np.ndarray:
    """(n, 2m) array of first-hit distances of the rays from each of n
    origins along its m directions and their negations: entry (i, j) is the
    smallest t in (EPS, max_t] at which origins[i] + t*directions[i, j] hits
    a blocker triangle, entry (i, m + j) the same along -directions[i, j],
    and inf where a ray hits none.  `origins` is (n, 3), `directions`
    (n, m, 3); a direction need not be unit length, and `max_t` is in
    multiples of it.  A missing or empty blocker mesh never hits.  Boundary
    hits (on a triangle edge) count as hits.

    Each origin's candidates are the triangles whose centroid lies in a
    ball around it that holds every triangle any of its 2m rays can hit
    (`_origin_balls`; -d has d's length); `_candidates` finds those of all
    n balls in one pair query, and the origins whose ball is the whole mesh
    share one block of every id.  The (candidate, ray) pairs then go
    through Moller-Trumbore as numpy elementwise operations, at most
    max(PAIR_BUDGET, m) pairs of a forward ray at a time (see
    `_slice_hits`); fans have m <= terminals.MAX_RAY_COUNT < PAIR_BUDGET.
    The expressions are np.cross's, and each dot product adds x, z, then y,
    as `oracles.first_hit_all_triangles` does, so every t equals the
    oracle's bit for bit.

    One pass answers both directions, exactly.  IEEE rounding is symmetric:
    (-a) b = -(a b), a sum of negated terms is the negated sum and
    1/(-det) = -(1/det).  So for -d, d x e2 and det come out negated, and
    u, v and t, each a sum of products over det, as u, v and -t, with one
    exception: a product difference or sum that is exactly 0 is +0 for d
    and -d alike (x - x = +0), which can flip the sign of a zero u, v or t
    (and inf or NaN operands give inf or NaN on both sides).  No test reads
    the sign of a zero, and t = +-0 is never accepted, so -d's flags are
    d's, and it accepts -t where t lies in [-limit, -EPS)."""
    directions = np.asarray(directions, dtype=float)
    n, m = directions.shape[:2]
    origins = np.asarray(origins, dtype=float).reshape(n, 3)
    best = np.full((n, 2 * m), math.inf)
    if blockers is None or not len(blockers.triangles) or not best.size:
        return best
    radius, whole = _origin_balls(blockers, origins, directions, max_t)
    rows, ids = _candidates(blockers, origins, radius, whole)
    far = np.flatnonzero(whole)
    count = len(blockers.triangles)
    paired = len(rows)
    total = paired + len(far) * count
    table = blockers.corner_table
    limit = max_t + EPS
    flat = best.reshape(-1)
    step = max(1, PAIR_BUDGET // m)  # candidates per pass, each with all m rays of its origin
    with np.errstate(over="ignore", invalid="ignore"):  # Python floats' inf and NaN, unflagged
        for c0 in range(0, total, step):
            c1 = min(c0 + step, total)
            row, tri = rows[c0:c1], ids[c0:c1]
            if c1 > paired:  # whole-mesh origins share one block of every id
                k = np.arange(max(c0, paired) - paired, c1 - paired)
                row = np.concatenate([row, far[k // count]])
                tri = np.concatenate([tri, k % count])
            t, ahead, behind = _slice_hits(table[tri], origins[row], directions[row], limit)
            hit_c, hit_j = np.nonzero(ahead)
            np.minimum.at(flat, row[hit_c] * (2 * m) + hit_j, t[hit_c, hit_j])
            hit_c, hit_j = np.nonzero(behind)
            np.minimum.at(flat, row[hit_c] * (2 * m) + (m + hit_j), -t[hit_c, hit_j])
    return best


def _candidates(blockers: BlockerMesh, origins: np.ndarray, radius: np.ndarray, whole: np.ndarray):
    """The (origin row, triangle id) pairs of every origin not in `whole`,
    as two arrays sorted by origin: a superset of the triangles whose
    centroid lies within that origin's `radius`, found by one pair query
    out to the largest radius.  A pair is kept where its distance is within
    a few ulps of its own origin's radius, so rounding the query's squared
    distances cannot drop one; an extra candidate only adds a test, and
    never changes a minimum."""
    local = np.flatnonzero(~whole)
    if not len(local):
        return local, local
    pairs = blockers.triangle_tree.sparse_distance_matrix(
        cKDTree(origins[local]), radius[local].max(), output_type="ndarray")
    ids, near, dist = pairs["i"], pairs["j"], pairs["v"]
    keep = np.flatnonzero(dist <= radius[local][near] * (1.0 + 4.0 * _ROUNDOFF))
    keep = keep[np.argsort(near[keep])]
    return local[near[keep]], ids[keep]


def _slice_hits(table: np.ndarray, o: np.ndarray, d: np.ndarray, limit: float):
    """Moller-Trumbore for k candidates against w rays each and their
    negations: `table` (k, 9) holds each triangle's corner and edges, `o`
    (k, 3) the origin and `d` (k, w, 3) the rays.  Returns (t, ahead,
    behind), all (k, w): ahead marks the pairs first_hit accepts along d,
    with t in (EPS, limit], and behind those it accepts along -d, at
    distance -t in (EPS, limit] (see first_hit)."""
    ax, ay, az, e1x, e1y, e1z, e2x, e2y, e2z = table.T[:, :, None]
    ox, oy, oz = o.T[:, :, None]
    dx, dy, dz = d[..., 0], d[..., 1], d[..., 2]
    px = dy * e2z - dz * e2y  # d x e2
    py = dz * e2x - dx * e2z
    pz = dx * e2y - dy * e2x
    det = e1x * px + e1z * pz + e1y * py
    ok = np.abs(det) > EPS
    inv_det = 1.0 / np.where(ok, det, 1.0)
    tx, ty, tz = ox - ax, oy - ay, oz - az
    u = (tx * px + tz * pz + ty * py) * inv_det
    ok &= (u >= -EPS) & (u <= 1.0 + EPS)
    qx = ty * e1z - tz * e1y  # (o - v0) x e1
    qy = tz * e1x - tx * e1z
    qz = tx * e1y - ty * e1x
    v = (dx * qx + dz * qz + dy * qy) * inv_det
    ok &= (v >= -EPS) & (u + v <= 1.0 + EPS)
    t = (e2x * qx + e2z * qz + e2y * qy) * inv_det
    # -t > EPS and -t <= limit, spelled without negating t
    return t, ok & (t > EPS) & (t <= limit), ok & (t < -EPS) & (t >= -limit)


def _rounding(blockers: BlockerMesh, length, near, segment):
    """How far apart rounding can move the two points that Moller-Trumbore
    equates, for a ray o + t*d whose triangle test accepts (u, v, t):
    o + t*d on the ray and v0 + u*e1 + v*e2 on the triangle.  They agree in
    exact arithmetic; rounding moves them apart by less than
    64 eps |d| L^2 (|o - v0| + L + segment) / EPS, with |det| > EPS, an edge
    length L <= 2 * reach, eps the machine epsilon and `segment` the ray's
    length (max_t + EPS) |d|.  `length` is |d| and `near` is |o - mid|, mid
    the centre of the box of all centroids, so near + spread + reach bounds
    |o - v0|.  Python floats or numpy arrays alike."""
    reach = blockers.reach
    edge = 2.0 * reach
    far = near + blockers.box_spread + reach
    return 64.0 * _ROUNDOFF / EPS * length * edge * edge * (far + edge + segment)


def _origin_balls(blockers: BlockerMesh, origins: np.ndarray, directions: np.ndarray, max_t: float):
    """Per origin, the radius of a ball around it that holds the centroid of
    every triangle first_hit accepts for any of its rays, and whether that
    ball is taken as the whole mesh.

    A ray o + t*d meets a triangle at t <= max_t + EPS, no farther from o
    than (max_t + EPS) * max|d| over the origin's rays; the accepted point
    v0 + u*e1 + v*e2 is within (1 + 3 EPS) * reach of the centroid, and
    `_rounding` bounds how far apart the two lie, with |d| at most that
    largest length.  A ball that is not finite (an infinite max_t, a NaN
    direction) or holds every centroid is the whole mesh."""
    mid = np.array(blockers.box_center)
    spread = blockers.box_spread  # every centroid is this close to mid
    with np.errstate(over="ignore", invalid="ignore"):  # inf * 0 is NaN, unflagged
        length = np.linalg.norm(directions, axis=2).max(axis=1)  # NaN when any is
        segment = (max_t + EPS) * length
        near = np.linalg.norm(origins - mid, axis=1)
        rounding = _rounding(blockers, length, near, segment)
        radius = segment + (1.0 + 3.0 * EPS) * blockers.reach + rounding
        whole = ~(radius < near + spread)
    return radius, whole


def _segment_box(blockers: BlockerMesh, grid: TriangleGrid, o: list[float], d: list[float],
                 limit: float) -> tuple[float, ...]:
    """(min x, y, z, max x, y, z) of a box that meets, on every axis, the
    box of each triangle that _segment_hit's test accepts for o + t*d with
    t in (EPS, limit], limit = max_t + EPS; all of space when it is not
    finite.

    An accepted (u, v, t) puts s = o + t*d between o and the exact end
    o + limit*d, and v0 + u*e1 + v*e2 within R of s (`_rounding`).  Its
    weights 1 - u - v, u and v are at least -EPS, up to rounding, and e1, e2
    are rounded corner differences, so on each axis that point is within
    3 EPS L of the triangle's box, L = 2 * reach >= the triangle's extent
    (2 EPS L for the weights, a few eps L, eps the machine epsilon, for the
    rest).  The computed end e = o + limit*d lies at most
    eps (segment + |s|) / 2 short of s, with segment = limit |d| and
    |s| <= M + R + 3 EPS L near the triangle, M the largest vertex
    coordinate magnitude; adding pad to a coordinate rounds by at most
    eps |s + pad| / 2.  So widening the box of o and e by
        pad = (R + 3 EPS L + 4 eps (segment + M)) (1 + 8 eps)
    covers every term; the last factor absorbs the eps-relative rounding of
    pad and of R's inputs.  A NaN or infinite pad (a NaN end, or an
    infinite max_t, whose product with a zero component is NaN) gives all
    of space, where every triangle is a candidate."""
    ox, oy, oz = o
    dx, dy, dz = d
    length = math.hypot(dx, dy, dz)
    segment = limit * length
    near = math.dist(o, blockers.box_center)
    pad = (_rounding(blockers, length, near, segment) + 6.0 * EPS * blockers.reach
           + 4.0 * _ROUNDOFF * (segment + grid.magnitude)) * (1.0 + 8.0 * _ROUNDOFF)
    if not pad < math.inf:
        return (-math.inf,) * 3 + (math.inf,) * 3
    ex, ey, ez = ox + limit * dx, oy + limit * dy, oz + limit * dz
    return (min(ox, ex) - pad, min(oy, ey) - pad, min(oz, ez) - pad,
            max(ox, ex) + pad, max(oy, ey) + pad, max(oz, ez) + pad)


def _cell_ids(grid: TriangleGrid, box) -> Iterable[int]:
    """The ids of the triangles in the grid cells that `box` covers, one
    cell after another, so an id can repeat; every triangle once when the
    box covers more cells than the grid holds.  Each cell range is the
    grid's clamped floor (see `TriangleGrid`), spelled out in comparisons."""
    gx, gy, gz = grid.low
    nx, ny, nz = grid.shape
    scale, cells = grid.scale, grid.cells
    lx, ly, lz, hx, hy, hz = box
    x0, y0, z0 = (lx - gx) * scale, (ly - gy) * scale, (lz - gz) * scale
    x1, y1, z1 = (hx - gx) * scale, (hy - gy) * scale, (hz - gz) * scale
    x0 = (int(x0) if x0 < nx else nx - 1) if x0 > 0.0 else 0
    y0 = (int(y0) if y0 < ny else ny - 1) if y0 > 0.0 else 0
    z0 = (int(z0) if z0 < nz else nz - 1) if z0 > 0.0 else 0
    x1 = (int(x1) + 1 if x1 < nx else nx) if x1 > 0.0 else 1
    y1 = (int(y1) + 1 if y1 < ny else ny) if y1 > 0.0 else 1
    z1 = (int(z1) + 1 if z1 < nz else nz) if z1 > 0.0 else 1
    if (x1 - x0) * (y1 - y0) * (z1 - z0) > len(cells):
        return range(len(grid.boxes))
    get = cells.get
    return chain.from_iterable([
        get((ix * ny + iy) * nz + iz, ())
        for ix in range(x0, x1) for iy in range(y0, y1) for iz in range(z0, z1)
    ])


def _segment_hit(blockers: BlockerMesh, o: list[float], d: list[float], max_t: float) -> bool:
    """Whether o + t*d hits a blocker triangle at some t in (EPS, max_t]:
    first_hit's test for one ray, as an any-hit loop in Python floats.  `o`
    and `d` are three Python floats each.  The candidates are the triangles
    in the cells of the mesh's grid that the segment's box covers (see
    `_segment_box`); the loop skips each one whose own box misses the
    segment's, reads the rest's corner and edges from the mesh's table and
    returns at the first triangle it accepts, so the order of candidates
    and their repeats do not change the answer.  A single segment costs
    less this way than as a numpy pass; the expressions are first_hit's, so
    the answer is whether first_hit's t is finite."""
    ox, oy, oz = o
    dx, dy, dz = d
    limit = max_t + EPS
    table = blockers.corner_edges
    grid = blockers.triangle_grid()
    boxes = grid.boxes
    box = lx, ly, lz, hx, hy, hz = _segment_box(blockers, grid, o, d, limit)
    for i in _cell_ids(grid, box):
        x0, y0, z0, x1, y1, z1 = boxes[i]
        if not (x0 <= hx and lx <= x1 and y0 <= hy and ly <= y1 and z0 <= hz and lz <= z1):
            continue
        ax, ay, az, e1x, e1y, e1z, e2x, e2y, e2z = table[i]
        px = dy * e2z - dz * e2y  # d x e2
        py = dz * e2x - dx * e2z
        pz = dx * e2y - dy * e2x
        det = e1x * px + e1z * pz + e1y * py
        if not abs(det) > EPS:
            continue
        inv_det = 1.0 / det
        tx, ty, tz = ox - ax, oy - ay, oz - az
        u = (tx * px + tz * pz + ty * py) * inv_det
        if not (u >= -EPS and u <= 1.0 + EPS):
            continue
        qx = ty * e1z - tz * e1y  # (o - v0) x e1
        qy = tz * e1x - tx * e1z
        qz = tx * e1y - ty * e1x
        v = (dx * qx + dz * qz + dy * qy) * inv_det
        if not (v >= -EPS and u + v <= 1.0 + EPS):
            continue
        t = (e2x * qx + e2z * qz + e2y * qy) * inv_det
        if t > EPS and t <= limit:
            return True
    return False


def segment_clear(blockers: BlockerMesh | None, a, c) -> bool:
    """True when the straight segment a->c crosses no blocker triangle.  A
    segment shorter than EPS (np.linalg.norm(c - a) < EPS) crosses none."""
    if blockers is None:
        return True
    # as Python floats: tolist() reads a numpy row four times faster than
    # float() on each of its elements
    o = ax, ay, az = np.asarray(a, dtype=float).tolist()
    cx, cy, cz = np.asarray(c, dtype=float).tolist()
    d = [cx - ax, cy - ay, cz - az]
    return shorter_than(d, EPS) or not _segment_hit(blockers, o, d, 1.0)
