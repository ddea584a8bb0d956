import numpy as np

from navstruct import raycast
from navstruct.mesh import build_blocker_mesh
from navstruct.oracles import first_hit_all_triangles


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
        want = first_hit_all_triangles(blockers, origin, direction, max_t)
        assert got == want
        hits += got is not None
    assert 50 < hits < 400
