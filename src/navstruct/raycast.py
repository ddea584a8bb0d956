"""Ray/segment queries against blocker triangle meshes (Moller-Trumbore)."""
from __future__ import annotations

import numpy as np

from .mesh import BlockerMesh

EPS = 1e-9


def first_hit(
    blockers: BlockerMesh | None, origin, direction, max_t: float
) -> float | None:
    """Smallest t in (EPS, max_t] at which the ray origin + t*direction hits a
    blocker triangle, or None.  `direction` need not be unit length; `max_t`
    is in multiples of it.  A missing/empty blocker mesh never hits.
    Vectorized over all triangles, reading the edge arrays the mesh holds;
    boundary hits (on a triangle edge) count as hits."""
    if blockers is None or len(blockers.triangles) == 0:
        return None
    o = np.asarray(origin, dtype=float)
    d = np.asarray(direction, dtype=float)
    e1, e2 = blockers.e1, blockers.e2
    pvec = np.cross(d[None, :], e2)
    det = np.einsum("ij,ij->i", e1, pvec)
    ok = np.abs(det) > EPS
    inv_det = np.where(ok, 1.0 / np.where(ok, det, 1.0), 0.0)
    tvec = o[None, :] - blockers.v0
    u = np.einsum("ij,ij->i", tvec, pvec) * inv_det
    ok &= (u >= -EPS) & (u <= 1.0 + EPS)
    qvec = np.cross(tvec, e1)
    v = np.einsum("j,ij->i", d, qvec) * inv_det
    ok &= (v >= -EPS) & (u + v <= 1.0 + EPS)
    t = np.einsum("ij,ij->i", e2, qvec) * inv_det
    ok &= (t > EPS) & (t <= max_t + EPS)
    if not ok.any():
        return None
    return float(t[ok].min())


def segment_clear(blockers: BlockerMesh | None, a, c) -> bool:
    """True when the straight segment a->c crosses no blocker triangle."""
    a = np.asarray(a, dtype=float)
    c = np.asarray(c, dtype=float)
    d = c - a
    length = float(np.linalg.norm(d))
    if length < EPS:
        return True
    return first_hit(blockers, a, d, 1.0) is None
