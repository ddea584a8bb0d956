import numpy as np

from navstruct import raycast
from navstruct.mesh import build_blocker_mesh


def first_hit_with_np_cross(blockers, origin, direction, max_t):
    """Moller-Trumbore over all triangles with np.cross as the reference for
    the written-out cross products in raycast.first_hit."""
    eps = raycast.EPS
    o = np.asarray(origin, dtype=float)
    d = np.asarray(direction, dtype=float)
    e1, e2 = blockers.e1, blockers.e2
    pvec = np.cross(d[None, :], e2)
    det = np.einsum("ij,ij->i", e1, pvec)
    ok = np.abs(det) > eps
    inv_det = np.where(ok, 1.0 / np.where(ok, det, 1.0), 0.0)
    tvec = o[None, :] - blockers.v0
    u = np.einsum("ij,ij->i", tvec, pvec) * inv_det
    ok &= (u >= -eps) & (u <= 1.0 + eps)
    qvec = np.cross(tvec, e1)
    v = np.einsum("j,ij->i", d, qvec) * inv_det
    ok &= (v >= -eps) & (u + v <= 1.0 + eps)
    t = np.einsum("ij,ij->i", e2, qvec) * inv_det
    ok &= (t > eps) & (t <= max_t + eps)
    if not ok.any():
        return None
    return float(t[ok].min())


def test_first_hit_equals_np_cross_reference_exactly():
    rng = np.random.default_rng(11)
    verts = rng.uniform(-5.0, 5.0, size=(300, 3))
    tris = rng.integers(0, len(verts), size=(120, 3))
    tris = tris[(tris[:, 0] != tris[:, 1]) & (tris[:, 1] != tris[:, 2])
                & (tris[:, 0] != tris[:, 2])]
    blockers = build_blocker_mesh(verts.tolist(), tris.tolist())
    hits = 0
    for _ in range(400):
        origin = rng.uniform(-6.0, 6.0, size=3)
        direction = rng.normal(size=3)
        max_t = float(rng.uniform(0.5, 4.0))
        got = raycast.first_hit(blockers, origin, direction, max_t)
        want = first_hit_with_np_cross(blockers, origin, direction, max_t)
        assert got == want
        hits += got is not None
    assert 50 < hits < 400
