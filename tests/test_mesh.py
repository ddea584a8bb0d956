import numpy as np
import pytest

from navstruct.errors import ParseError, ValidationError
from navstruct.fixtures import (
    grid_surface,
    ramp_corridor,
    ring_surface,
    stacked_floors,
    surface_from_squares,
    vertical_strip,
)
from navstruct.mesh import (
    build_blocker_mesh,
    build_walkable_surface,
    load_blocker_mesh,
    load_walkable_surface,
)
from navstruct.oracles import locate_point_linear

UNIT_SQUARE = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0, 1.0, 0.0), (0.0, 1.0, 0.0)]


def interior_edge_count(surface):
    return sum(len(owners) == 2 for owners in surface.edge_polygons.values())


def square_pair():
    """Two unit squares sharing the x=1 edge."""
    verts = UNIT_SQUARE + [(2.0, 0.0, 0.0), (2.0, 1.0, 0.0)]
    polys = [[0, 1, 2, 3], [1, 4, 5, 2]]
    return verts, polys


# --- parsing ----------------------------------------------------------------

def test_obj_parse_ignores_metadata_records(tmp_path):
    text = "\n".join(
        [
            "# comment",
            "mtllib scene.mtl",
            "o floor",
            "v 0 0 0",
            "v 1 0 0",
            "v 1 1 0",
            "v 0 1 0",
            "vn 0 0 1",
            "vt 0 0",
            "s off",
            "usemtl grey",
            "f 1/1/1 2/1/1 3/1/1 4/1/1",
            "",
        ]
    )
    path = tmp_path / "floor.obj"
    path.write_text(text)
    surface = load_walkable_surface(path)
    assert len(surface.polygons) == 1
    assert surface.polygons[0] == [0, 1, 2, 3]
    assert np.allclose(surface.polygon_normals[0], [0.0, 0.0, 1.0])


def test_obj_parse_rejects_bad_records(tmp_path):
    cases = [
        ("v 0 0\nf 1 2 3\n", "vertex record"),
        ("v a b c\n", "bad vertex coordinate"),
        ("v 0 0 0\nv 1 0 0\nv 1 1 0\nf 1 2 x\n", "bad face index"),
        ("v 0 0 0\nv 1 0 0\nv 1 1 0\nf -1 2 3\n", "must be positive"),
        ("v 0 0 0\nv 1 0 0\nf 1 2\n", "at least 3"),
        ("curve 1 2 3\n", "unsupported OBJ record"),
    ]
    for text, needle in cases:
        path = tmp_path / "bad.obj"
        path.write_text(text)
        with pytest.raises(ParseError, match=needle):
            load_walkable_surface(path)


def test_json_surface_roundtrip(tmp_path):
    verts, polys = square_pair()
    path = tmp_path / "surface.json"
    path.write_text(
        '{"vertices": %s, "polygons": %s}'
        % (str([list(v) for v in verts]), str(polys))
    )
    surface = load_walkable_surface(path)
    assert len(surface.polygons) == 2
    assert interior_edge_count(surface) == 1


def test_json_surface_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ParseError, match="invalid JSON"):
        load_walkable_surface(path)
    path.write_text('{"vertices": []}')
    with pytest.raises(ParseError, match="'vertices' and 'polygons'"):
        load_walkable_surface(path)


def test_unknown_extension_rejected(tmp_path):
    path = tmp_path / "surface.stl"
    path.write_text("")
    with pytest.raises(ParseError, match="unsupported file extension"):
        load_walkable_surface(path)


# --- validation -------------------------------------------------------------

def test_validation_rejects_degenerate_rings():
    with pytest.raises(ValidationError, match="fewer than 3"):
        build_walkable_surface(UNIT_SQUARE, [[0, 1]])
    with pytest.raises(ValidationError, match="out of range"):
        build_walkable_surface(UNIT_SQUARE, [[0, 1, 7]])
    with pytest.raises(ValidationError, match="repeats a vertex"):
        build_walkable_surface(UNIT_SQUARE, [[0, 1, 1, 2]])
    collinear = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (2.0, 0.0, 0.0)]
    with pytest.raises(ValidationError, match="zero area"):
        build_walkable_surface(collinear, [[0, 1, 2]])
    with pytest.raises(ValidationError, match="no polygons"):
        build_walkable_surface(UNIT_SQUARE, [])


def test_validation_rejects_nonplanar_ring():
    verts = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0, 1.0, 0.01), (0.0, 1.0, 0.0)]
    with pytest.raises(ValidationError, match="non-planar"):
        build_walkable_surface(verts, [[0, 1, 2, 3]])
    # a looser tolerance admits the same ring
    surface = build_walkable_surface(verts, [[0, 1, 2, 3]], plane_eps=0.1)
    assert len(surface.polygons) == 1


def test_validation_rejects_nonconvex_ring():
    verts = [
        (0.0, 0.0, 0.0), (2.0, 0.0, 0.0), (2.0, 1.0, 0.0),
        (1.0, 1.0, 0.0), (1.0, 2.0, 0.0), (0.0, 2.0, 0.0),
    ]
    with pytest.raises(ValidationError, match="non-convex"):
        build_walkable_surface(verts, [[0, 1, 2, 3, 4, 5]])


def _ring_fault_per_vertex(pts, plane_eps=1e-4):
    """Reference: the first ring fault, found one vertex at a time."""
    k = len(pts)
    for i in range(k):
        if np.linalg.norm(pts[(i + 1) % k] - pts[i]) < 1e-12:
            return "zero-length edge"
    n = sum(np.cross(pts[i], pts[(i + 1) % k]) for i in range(k))
    n = n / np.linalg.norm(n)
    for i in range(k):
        e0 = pts[(i + 1) % k] - pts[i]
        e1 = pts[(i + 2) % k] - pts[(i + 1) % k]
        if np.dot(np.cross(e0, e1), n) < -plane_eps * np.linalg.norm(e0) * np.linalg.norm(e1):
            return f"non-convex at ring position {i}"
    return None


CONVEX_PENTAGON = [
    (0.0, 0.0, 0.0), (2.0, 0.0, 0.0), (3.0, 1.0, 0.0), (2.0, 2.0, 0.0), (0.0, 2.0, 0.0),
]


@pytest.mark.parametrize("verts, fault", [
    # one reflex vertex, at ring position 5
    (CONVEX_PENTAGON + [(0.5, 1.0, 0.0)], "non-convex at ring position"),
    # reflex vertices at ring positions 1 and 4: the first flipped turn is named
    (
        [(0.0, 0.0, 0.0), (1.0, 0.5, 0.0), (2.0, 0.0, 0.0),
         (2.0, 2.0, 0.0), (1.0, 1.5, 0.0), (0.0, 2.0, 0.0)],
        "non-convex at ring position",
    ),
    # ring positions 5 and 0 sit on the same point
    (CONVEX_PENTAGON + [(0.0, 0.0, 0.0)], "zero-length edge"),
])
def test_validation_names_the_first_faulty_ring_position(verts, fault):
    for start in range(6):
        ring = [(start + i) % 6 for i in range(6)]
        expected = _ring_fault_per_vertex(np.array(verts)[ring])
        assert expected.startswith(fault)
        with pytest.raises(ValidationError) as info:
            build_walkable_surface(verts, [ring])
        assert str(info.value) == f"polygon 0: {expected}"


def test_validation_rejects_nonmanifold_edge():
    verts = [
        (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0, 1.0, 0.0), (0.0, 1.0, 0.0),
        (0.0, -1.0, 0.0), (1.0, -1.0, 0.0),
        (1.0, 0.0, -1.0), (0.0, 0.0, -1.0),
    ]
    polys = [
        [0, 1, 2, 3],      # square above the shared edge
        [1, 0, 4, 5],      # square below it
        [0, 1, 6, 7],      # vertical square hanging off the same edge
    ]
    with pytest.raises(ValidationError, match="non-manifold"):
        build_walkable_surface(verts, polys)


# --- adjacency and boundary -------------------------------------------------

def test_adjacency_and_edge_counts():
    verts, polys = square_pair()
    surface = build_walkable_surface(verts, polys)
    assert surface.adjacency[0] == [(1, (1, 2))]
    assert surface.adjacency[1] == [(0, (1, 2))]
    assert interior_edge_count(surface) == 1
    assert sum(map(len, surface.boundary_edges)) == 6
    assert surface.edge_polygons[(1, 2)] == [0, 1]


def test_grid_adjacency_symmetric():
    surface = grid_surface(3, 3)
    assert len(surface.polygons) == 9
    assert interior_edge_count(surface) == 12
    assert sum(map(len, surface.boundary_edges)) == 12
    for pid, nbrs in enumerate(surface.adjacency):
        for qid, edge in nbrs:
            assert (pid, edge) in surface.adjacency[qid]
        assert nbrs == sorted(nbrs)


def test_single_square_boundary_loop():
    surface = surface_from_squares([(0, 0)])
    assert len(surface.boundary_edges) == 1
    loop = surface.boundary_edges[0]
    assert loop[0][0] == 0  # canonical start at the smallest vertex id
    assert [a for a, _b in loop] == [0, 1, 2, 3]
    assert loop[-1][1] == loop[0][0]
    assert [[a for a, _b in lp] for lp in surface.boundary_edges] == [[0, 1, 2, 3]]


def test_ring_surface_has_two_boundary_loops():
    surface = ring_surface()
    assert len(surface.polygons) == 8
    lengths = sorted(len(loop) for loop in surface.boundary_edges)
    assert lengths == [4, 12]
    for loop in surface.boundary_edges:
        for (a, b), (c, _d) in zip(loop, loop[1:] + loop[:1]):
            assert b == c  # consecutive edges chain head-to-tail


def test_boundary_interior_on_the_left():
    surface = surface_from_squares([(0, 0)])
    for a, b in surface.boundary_edges[0]:
        fwd = surface.vertices[b] - surface.vertices[a]
        left = np.cross(surface.polygon_normals[0], fwd)
        midpoint = (surface.vertices[a] + surface.vertices[b]) / 2.0
        probe = midpoint + 0.25 * left / np.linalg.norm(left)
        assert surface.contains_point(0, probe)


def test_open_boundary_chain_rejected():
    # two squares sharing only a corner vertex: their boundary chains still
    # close (each loop passes through the shared vertex), so use a directly
    # broken case instead: duplicate polygon sharing all edges leaves nothing
    verts, polys = square_pair()
    surface = build_walkable_surface(verts, polys)
    assert len(surface.boundary_edges) == 1
    assert sum(map(len, surface.boundary_edges)) == 6


# --- welding ----------------------------------------------------------------

def test_weld_merges_duplicate_vertices():
    verts = [
        (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0, 1.0, 0.0), (0.0, 1.0, 0.0),
        (1.0 + 1e-6, 0.0, 0.0), (2.0, 0.0, 0.0), (2.0, 1.0, 0.0), (1.0, 1.0 + 1e-6, 0.0),
    ]
    polys = [[0, 1, 2, 3], [4, 5, 6, 7]]
    unwelded = build_walkable_surface(verts, polys)
    assert interior_edge_count(unwelded) == 0
    assert len(unwelded.boundary_edges) == 2

    welded = build_walkable_surface(verts, polys, weld_eps=1e-3)
    assert len(welded.vertices) == 6
    assert interior_edge_count(welded) == 1
    assert len(welded.boundary_edges) == 1


def test_weld_collapses_repeated_ring_vertices():
    verts = [
        (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0 + 1e-7, 1e-7, 0.0),
        (1.0, 1.0, 0.0), (0.0, 1.0, 0.0),
    ]
    surface = build_walkable_surface(verts, [[0, 1, 2, 3, 4]], weld_eps=1e-3)
    assert len(surface.polygons[0]) == 4


# --- point queries ----------------------------------------------------------

def test_contains_point_inside_and_height():
    surface = surface_from_squares([(0, 0)])
    assert surface.contains_point(0, (0.5, 0.5, 0.0))
    assert surface.contains_point(0, (0.0, 0.5, 0.0))  # edge points included
    assert surface.contains_point(0, (0.5, 0.5, 0.4))
    assert not surface.contains_point(0, (0.5, 0.5, 0.6))
    assert not surface.contains_point(0, (1.5, 0.5, 0.0))
    assert surface.contains_point(0, (0.5, 0.5, 0.8), height_tol=1.0)


def test_locate_point_prefers_lowest_polygon_id():
    verts = UNIT_SQUARE + [(v[0], v[1], 0.3) for v in UNIT_SQUARE]
    polys = [[0, 1, 2, 3], [4, 5, 6, 7]]
    surface = build_walkable_surface(verts, polys)
    assert surface.locate_point((0.5, 0.5, 0.1)) == 0
    assert surface.locate_point((0.5, 0.5, 0.29), height_tol=0.05) == 1
    assert surface.locate_point((5.0, 5.0, 0.0)) is None


def test_stacked_floors_overlap_within_the_default_height_tolerance():
    surface = stacked_floors()
    assert len(surface.polygons) == 9
    # over the upper floor's gap only the lower floor holds the point
    assert surface.locate_point((2.5, 0.5, 0.3)) == 2
    # on the upper floor the lowest id still wins: polygon 0 below it
    assert surface.locate_point((0.5, 0.5, 0.3)) == 0
    assert surface.locate_point((0.5, 0.5, 0.3), height_tol=0.1) == 5


@pytest.mark.parametrize("reverse", [False, True], ids=["as-built", "reversed"])
def test_vertical_strip_fixture_equals_the_geometry_test_copy(reverse):
    # tests/test_geometry.py keeps its own copy of the fixture
    from test_geometry import vertical_strip as pinned_copy

    for nx, nz in ((4, 2), (1, 1), (3, 5)):
        want = pinned_copy(nx, nz, reverse=reverse)
        got = vertical_strip(nx, nz, reverse=reverse)
        assert np.array_equal(got.vertices, want.vertices)
        assert got.polygons == want.polygons


@pytest.mark.parametrize("make", [
    stacked_floors,
    lambda: ramp_corridor(30.0),
    lambda: ramp_corridor(60.0),
    lambda: ramp_corridor(80.0),
    vertical_strip,
    # more polygons than a KD-tree leaf holds, up to four sharing a corner
    lambda: grid_surface(8, 8),
], ids=["stacked", "ramp30", "ramp60", "ramp80", "strip", "grid8x8"])
def test_indexed_locate_point_equals_a_linear_scan(make):
    surface = make()
    verts = surface.vertices
    points = [*surface.polygon_centers, *verts]
    points += [(verts[a] + verts[b]) / 2.0 for a, b in surface.edge_polygons]
    rng = np.random.default_rng(5)
    # the same points moved off their polygon's plane, near and past each tolerance
    points += [p + rng.uniform(-0.7, 0.7, size=3) for p in points]
    found = 0
    for p in points:
        for tol in (0.05, 0.3, 0.5, 1.0):
            want = locate_point_linear(surface, p, tol)
            assert surface.locate_point(p, tol) == want
            found += want is not None
    assert 0 < found < 4 * len(points)


def test_polygon_plane_and_centers():
    surface = surface_from_squares([(2, 3)])
    n, d = surface.polygon_plane(0)
    assert np.allclose(n, [0.0, 0.0, 1.0])
    assert d == pytest.approx(0.0)
    assert np.allclose(surface.polygon_centers[0], [2.5, 3.5, 0.0])


# --- blockers ---------------------------------------------------------------

def test_blocker_mesh_build_and_validation():
    verts = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)]
    mesh = build_blocker_mesh(verts, [(0, 1, 2)])
    assert mesh.triangles.shape == (1, 3)
    empty = build_blocker_mesh(verts, [])
    assert empty.triangles.shape == (0, 3)
    with pytest.raises(ValidationError, match="index out of range"):
        build_blocker_mesh(verts, [(0, 1, 5)])
    with pytest.raises(ValidationError, match="degenerate"):
        build_blocker_mesh(verts, [(0, 1, 1)])


def test_blocker_load_requires_triangles(tmp_path):
    path = tmp_path / "walls.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
    with pytest.raises(ParseError, match="must be triangles"):
        load_blocker_mesh(path)
    path.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nf 1 2 3\n")
    mesh = load_blocker_mesh(path)
    assert len(mesh.triangles) == 1


def test_blocker_load_json(tmp_path):
    path = tmp_path / "walls.json"
    path.write_text(
        '{"vertices": [[0,0,0],[1,0,0],[1,1,0]], "triangles": [[0,1,2]]}'
    )
    mesh = load_blocker_mesh(path)
    assert len(mesh.triangles) == 1
    # an integral float is an index; "polygons" is read when "triangles" is absent
    path.write_text('{"vertices": [[0,0,0],[1,0,0],[1,1,0]], "polygons": [[0,1,2.0]]}')
    assert load_blocker_mesh(path).triangles.tolist() == [[0, 1, 2]]
    path.write_text('{"vertices": [[0,0,0]]}')
    with pytest.raises(ParseError, match="'vertices' and 'triangles'"):
        load_blocker_mesh(path)


# --- fixture sanity ---------------------------------------------------------

def test_corridor_fixture_shape(corridor):
    surface, blockers = corridor
    assert len(surface.polygons) == 12
    assert interior_edge_count(surface) == 11
    assert len(surface.boundary_edges) == 1
    assert len(blockers.triangles) > 0


def test_hub_fixture_shape(hub):
    surface, blockers = hub
    assert len(surface.polygons) == 9
    assert interior_edge_count(surface) == 8
    assert len(blockers.triangles) > 0
