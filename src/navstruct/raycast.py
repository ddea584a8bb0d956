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
    Vectorized over the triangles the mesh's centroid tree finds near the
    segment (see `_query_ball`), reading the edge arrays the mesh holds;
    boundary hits (on a triangle edge) count as hits.  The two cross products
    are written out with the expressions np.cross evaluates, so the results
    match it bit for bit without its per-call argument handling."""
    if blockers is None:
        return None
    o = np.asarray(origin, dtype=float)
    d = np.asarray(direction, dtype=float)
    dx, dy, dz = d
    ids = blockers.triangle_tree.query_ball_point(*_query_ball(blockers, o, d, max_t))
    if not ids:
        return None
    rows = np.asarray(ids)
    e1, e2 = blockers.e1[rows], blockers.e2[rows]
    pvec = np.empty_like(e2)  # d x e2
    pvec[:, 0] = dy * e2[:, 2] - dz * e2[:, 1]
    pvec[:, 1] = dz * e2[:, 0] - dx * e2[:, 2]
    pvec[:, 2] = dx * e2[:, 1] - dy * e2[:, 0]
    det = np.einsum("ij,ij->i", e1, pvec)
    ok = np.abs(det) > EPS
    inv_det = np.where(ok, 1.0 / np.where(ok, det, 1.0), 0.0)
    tvec = o[None, :] - blockers.v0[rows]
    u = np.einsum("ij,ij->i", tvec, pvec) * inv_det
    ok &= (u >= -EPS) & (u <= 1.0 + EPS)
    qvec = np.empty_like(e1)  # tvec x e1
    qvec[:, 0] = tvec[:, 1] * e1[:, 2] - tvec[:, 2] * e1[:, 1]
    qvec[:, 1] = tvec[:, 2] * e1[:, 0] - tvec[:, 0] * e1[:, 2]
    qvec[:, 2] = tvec[:, 0] * e1[:, 1] - tvec[:, 1] * e1[:, 0]
    v = np.einsum("j,ij->i", d, qvec) * inv_det
    ok &= (v >= -EPS) & (u + v <= 1.0 + EPS)
    t = np.einsum("ij,ij->i", e2, qvec) * inv_det
    ok &= (t > EPS) & (t <= max_t + EPS)
    if not ok.any():
        return None
    return float(t[ok].min())


def _query_ball(blockers: BlockerMesh, o: np.ndarray, d: np.ndarray, max_t: float):
    """Centre and radius of a ball that holds the centroid of every triangle
    first_hit's test accepts for the segment o + t*d, t in [0, max_t + EPS].

    An accepted (u, v, t) puts o + t*d on the segment, and v0 + u*e1 + v*e2
    within (1 + 3 EPS) * reach of the centroid.  The two points agree in
    exact arithmetic.  Rounding moves them apart by less than
    64 eps |d| L^2 (|o - v0| + L + segment length) / EPS, with |det| > EPS,
    an edge length L <= 2 * reach and eps the machine epsilon; |o - v0| is
    bounded through the box of all centroids.  So grazing and near-parallel
    hits are never dropped."""
    tree = blockers.triangle_tree
    mid = 0.5 * (tree.mins + tree.maxes)
    spread = 0.5 * math.dist(tree.mins, tree.maxes)  # every centroid is this close to mid
    reach = blockers.reach
    edge = 2.0 * reach
    length = math.hypot(*d)
    segment = (max_t + EPS) * length
    # in Python floats, where an infinite max_t times a zero component is NaN
    # without a warning
    center = [a + 0.5 * (max_t + EPS) * b for a, b in zip(o.tolist(), d.tolist())]
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
