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
    boundary hits (on a triangle edge) count as hits.  The two cross products
    are written out with the expressions np.cross evaluates, so the results
    match it bit for bit without its per-call argument handling."""
    if blockers is None or len(blockers.triangles) == 0:
        return None
    o = np.asarray(origin, dtype=float)
    d = np.asarray(direction, dtype=float)
    dx, dy, dz = d
    e1, e2 = blockers.e1, blockers.e2
    pvec = np.empty_like(e2)  # d x e2
    pvec[:, 0] = dy * e2[:, 2] - dz * e2[:, 1]
    pvec[:, 1] = dz * e2[:, 0] - dx * e2[:, 2]
    pvec[:, 2] = dx * e2[:, 1] - dy * e2[:, 0]
    det = np.einsum("ij,ij->i", e1, pvec)
    ok = np.abs(det) > EPS
    inv_det = np.where(ok, 1.0 / np.where(ok, det, 1.0), 0.0)
    tvec = o[None, :] - blockers.v0
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


def segment_clear(blockers: BlockerMesh | None, a, c) -> bool:
    """True when the straight segment a->c crosses no blocker triangle."""
    a = np.asarray(a, dtype=float)
    c = np.asarray(c, dtype=float)
    d = c - a
    length = float(np.linalg.norm(d))
    if length < EPS:
        return True
    return first_hit(blockers, a, d, 1.0) is None
