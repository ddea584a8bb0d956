"""Ray/segment queries against blocker triangle meshes (Moller-Trumbore)."""
from __future__ import annotations

import math

import numpy as np

from .mesh import BlockerMesh

EPS = 1e-9

# float64 machine epsilon
_ROUNDOFF = float(np.finfo(float).eps)


def first_hit(
    blockers: BlockerMesh | None, origin, direction, max_t: float
) -> float | None:
    """Smallest t in (EPS, max_t] at which the ray origin + t*direction hits a
    blocker triangle, or None.  `direction` need not be unit length; `max_t`
    is in multiples of it.  A missing/empty blocker mesh never hits.
    One ball query on the mesh's centroid tree (see `_query_ball`) picks the
    triangles near the segment, and one loop in Python floats tests them,
    reading each triangle's corner and edges from the mesh's table; boundary
    hits (on a triangle edge) count as hits.  The cross products are
    np.cross's expressions and each dot product adds x, z, then y, as
    `oracles.first_hit_all_triangles` does, so the two agree bit for bit.
    A ball that holds every centroid (an infinite `max_t`, a NaN direction,
    a segment as long as the mesh) tests the whole mesh in the loop."""
    if blockers is None:
        return None
    o = ox, oy, oz = [float(a) for a in origin]
    d = dx, dy, dz = [float(a) for a in direction]
    limit = max_t + EPS
    table = blockers.corner_edges
    best = None
    for i in blockers.triangle_tree.query_ball_point(*_query_ball(blockers, o, d, max_t)):
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
        if t > EPS and t <= limit and (best is None or t < best):
            best = t
    return best


def _query_ball(blockers: BlockerMesh, o: list[float], d: list[float], max_t: float):
    """Centre and radius of a ball that holds the centroid of every triangle
    first_hit's test accepts for the segment o + t*d, t in [0, max_t + EPS].

    An accepted (u, v, t) puts o + t*d on the segment, and v0 + u*e1 + v*e2
    within (1 + 3 EPS) * reach of the centroid.  The two points agree in
    exact arithmetic.  Rounding moves them apart by less than
    64 eps |d| L^2 (|o - v0| + L + segment length) / EPS, with |det| > EPS,
    an edge length L <= 2 * reach and eps the machine epsilon; |o - v0| is
    bounded through the box of all centroids.  So grazing and near-parallel
    hits are never dropped.  The box's centre and spread are stored on the
    mesh; only the per-ray arithmetic is done here."""
    mid = blockers.box_center
    spread = blockers.box_spread  # every centroid is this close to mid
    reach = blockers.reach
    edge = 2.0 * reach
    length = math.hypot(*d)
    segment = (max_t + EPS) * length
    # in Python floats, where an infinite max_t times a zero component is NaN
    # without a warning
    center = [a + 0.5 * (max_t + EPS) * b for a, b in zip(o, d)]
    far = math.dist(o, mid) + spread + reach
    rounding = 64.0 * _ROUNDOFF / EPS * length * edge * edge * (far + edge + segment)
    radius = 0.5 * segment + (1.0 + 3.0 * EPS) * reach + rounding
    # a ball that holds every centroid, or has an infinite or NaN size, is
    # queried as an infinite one: the tree squares a huge finite radius to inf
    if not radius < math.dist(center, mid) + spread:
        return mid, math.inf
    return center, radius


def segment_clear(blockers: BlockerMesh | None, a, c) -> bool:
    """True when the straight segment a->c crosses no blocker triangle."""
    a = np.asarray(a, dtype=float)
    c = np.asarray(c, dtype=float)
    d = c - a
    length = float(np.linalg.norm(d))
    if length < EPS:
        return True
    return first_hit(blockers, a, d, 1.0) is None
