import json
import warnings

import numpy as np
import pytest

from navstruct.errors import ParseError, ValidationError
from navstruct.fixtures import (
    coincident_centers,
    double_shared_edge,
    grid_surface,
    ramp_corridor,
    ring_surface,
    stacked_floors,
    surface_from_squares,
    vertical_strip,
)
from navstruct.mesh import (
    _parse_obj,
    build_blocker_mesh,
    build_walkable_surface,
    load_blocker_mesh,
    load_walkable_surface,
)
from navstruct.oracles import (
    edge_polygons,
    locate_point_linear,
    obj_parse_differences,
    parse_obj_per_line,
)

UNIT_SQUARE = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0, 1.0, 0.0), (0.0, 1.0, 0.0)]


def neighbour_pairs(surface):
    """(p, q), p < q, once for each edge that polygons p and q share."""
    return sorted((p, q) for p, row in enumerate(surface.across) for q in row if q > p)


def interior_edge_count(surface):
    return len(neighbour_pairs(surface))


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
    # two faults of different kinds: the earlier line is the one named, with
    # its path and line number, whichever kind it is
    quad = "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\n"
    for text, where, message in [
        (quad + "f 1 2 x 4\nv nan 0 0\n", 5, "bad face index 'x'"),
        (quad + "v nan 0 0\nf 1 2 x 4\n", 5, "vertex coordinates must be finite"),
        ("curve 1\n" + quad + "f 0 1 2\n", 1, "unsupported OBJ record 'curve'"),
        (quad + "f 1 2\nv 1 2\n", 5, "face needs at least 3 vertices"),
        (quad + "v 1 2\nf 1 2\n", 5, "vertex record needs 3 coordinates"),
        (quad + "f 1 -2 3\nf 1 2 y\n", 5, "face indices must be positive (1-based)"),
        (quad + "f 1 2 3\r\nv 0 0\r\n", 6, "vertex record needs 3 coordinates"),
        (quad + "f 1 2 3\x0cf 1 2\n", 6, "face needs at least 3 vertices"),
        (quad + "v 1 2 1e400\n", 5, "vertex coordinates must be finite"),
        (quad + "f 1 2 3/\n#\nf 1 2 3.0\n", 7, "bad face index '3.0'"),
    ]:
        path = tmp_path / "bad.obj"
        path.write_text(text, newline="")
        with pytest.raises(ParseError) as info:
            load_walkable_surface(path)
        assert str(info.value) == f"{path}:{where}: {message}"
        want = _per_line_outcome(path)
        assert (type(info.value), str(info.value)) == (type(want), str(want))


def _per_line_outcome(path):
    try:
        return parse_obj_per_line(path)
    except ParseError as exc:
        return exc


def test_obj_parse_reads_separators_and_token_forms_like_the_per_line_reader(tmp_path):
    # CRLF, CR, tab and form-feed separators; v/vt/vn face tokens; the number
    # forms float() and int() accept
    text = (
        "v 0 0 0\r\nv\t+3 0 0\rv 3 1_0 0\x0cv 0 10 0 1.0\n"
        "vn 0 0 1\r\n\t\n   \nf 1/2/3 2//3 3/4\nf +1 3 4\r\nf 01 2/ 3/1\n# done"
    )
    path = tmp_path / "forms.obj"
    path.write_text(text, newline="")
    verts, faces = _parse_obj(path)
    want_verts, want_faces = parse_obj_per_line(path)
    assert verts.dtype == float and verts.shape == (4, 3)
    assert verts.tobytes() == np.array(want_verts).tobytes()
    assert verts.tolist() == [[0.0, 0.0, 0.0], [3.0, 0.0, 0.0], [3.0, 10.0, 0.0], [0.0, 10.0, 0.0]]
    assert faces == want_faces == [[0, 1, 2], [0, 2, 3], [0, 1, 2]]
    assert all(type(i) is int for ring in faces for i in ring)
    assert not obj_parse_differences(path)
    # the first of three numbers is used; an OBJ with no vertex keeps the
    # per-line reader's empty list shape
    path.write_text("# nothing\n")
    assert _parse_obj(path)[0].shape == np.array(parse_obj_per_line(path)[0]).shape == (0,)


def test_obj_parse_reads_long_files_plain_and_line_by_line(tmp_path):
    # 3,000 vertex lines, then faces over them, in the plain layout and with
    # a tab after each tag, which the per-line reader reads
    rng = np.random.default_rng(2)
    points = rng.normal(size=(3000, 3)) * 100.0
    lines = ["v " + " ".join(map(repr, p)) for p in points.tolist()]
    lines += ["f %d %d %d" % tuple(rng.integers(1, 3001, size=3)) for _ in range(1500)]
    path = tmp_path / "long.obj"
    path.write_text("\n".join(lines))
    verts, faces = _parse_obj(path)
    assert verts.tobytes() == points.tobytes()
    assert faces.dtype == np.int64 and faces.tolist() == parse_obj_per_line(path)[1]
    tabbed = [line.replace(" ", "\t", 1) for line in lines]
    path.write_text("\n".join(tabbed))
    verts, faces = _parse_obj(path)
    assert verts.shape == (3000, 3) and verts.tobytes() == points.tobytes()
    assert faces == parse_obj_per_line(path)[1]
    assert all(type(i) is int for ring in faces for i in ring)
    # a fault late in a long file is named by its line, behind sound lines
    for text in (lines, tabbed):
        for where, bad in ((2500, "v 1 2 nan"), (4000, "f 1 2 0"), (1025, "vx 0 0 0")):
            path.write_text("\n".join(text[:where - 1] + [bad] + text[where - 1:]))
            with pytest.raises(ParseError) as info:
                _parse_obj(path)
            assert str(info.value).startswith(f"{path}:{where}: ")
            assert (type(info.value), str(info.value)) == (
                type(_per_line_outcome(path)), str(_per_line_outcome(path)))


def test_obj_parse_returns_the_per_line_answer_when_numpy_leaves_a_text(
    tmp_path, monkeypatch, capsys
):
    """With numpy's path leaving every text, a plain text's vertices, faces
    and errors come from the per-line reader, and the CLI runs on it."""
    from navstruct import mesh
    from navstruct.cli import main

    quads = "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nv 2 0 0\nv 2 1 0\n"
    surface = tmp_path / "surface.obj"
    surface.write_text(quads + "f 1 2 3 4\nf 2 5 6 3\n")
    want_verts, want_table = _parse_obj(surface)
    monkeypatch.setattr(mesh, "_plain_obj", lambda lines: None)
    verts, faces = _parse_obj(surface)
    assert verts.shape == (6, 3) and verts.tobytes() == want_verts.tobytes()
    assert faces == want_table.tolist() == [[0, 1, 2, 3], [1, 4, 5, 2]]
    out = tmp_path / "out"
    assert main(["extract", "--surface", str(surface), "--out", str(out)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    assert (out / "structure.json").exists()
    surface.write_text(quads + "f 1 2 3 4\nf 2 5 6 0\n")
    with pytest.raises(ParseError) as info:
        _parse_obj(surface)
    assert str(info.value) == f"{surface}:8: face indices must be positive (1-based)"
    surface.write_text("")
    verts, faces = _parse_obj(surface)
    assert verts.shape == (0,) and faces == []


def test_obj_parse_leaves_numpy_on_a_token_only_python_reads(tmp_path, plain_obj_reads):
    rng = np.random.default_rng(3)
    points = rng.normal(size=(3000, 3)) * 100.0
    lines = ["v " + " ".join(map(repr, p)) for p in points.tolist()]
    lines += ["f %d %d %d" % tuple(rng.integers(1, 3001, size=3)) for _ in range(1500)]
    lines[2990] = "v 1 1_0 2"  # float() reads 10.0; numpy refuses it
    path = tmp_path / "long.obj"
    path.write_text("\n".join(lines))
    verts, faces = _parse_obj(path)
    assert plain_obj_reads == [False]
    want_verts, want_faces = parse_obj_per_line(path)
    assert verts.shape == (3000, 3) and verts.tobytes() == np.array(want_verts).tobytes()
    assert verts[2990].tolist() == [1.0, 10.0, 2.0]
    assert faces == want_faces and all(type(i) is int for ring in faces for i in ring)
    # without the token the same text is read by numpy, to the same rows
    lines[2990] = "v 1 10 2"
    path.write_text("\n".join(lines))
    verts, table = _parse_obj(path)
    assert plain_obj_reads == [False, True]
    assert verts.tobytes() == np.array(parse_obj_per_line(path)[0]).tobytes()
    assert table.dtype == np.int64 and table.tolist() == want_faces


def test_obj_parse_refuses_a_comment_after_a_face_both_ways(tmp_path, plain_obj_reads):
    quad = "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\n"
    path = tmp_path / "tail.obj"
    path.write_text(quad + "f 1 2 3 # x\n")
    with pytest.raises(ParseError) as info:
        _parse_obj(path)
    assert str(info.value) == f"{path}:5: bad face index '#'"
    assert str(info.value) == str(_per_line_outcome(path))
    # a comment after a vertex's three numbers is read past, by both
    path.write_text("v 1 2 3 # tail\nv 4 5 6\nv 7 8 10\nf 1 2 3\n")
    verts, faces = _parse_obj(path)
    want_verts, want_faces = parse_obj_per_line(path)
    assert verts.tolist() == want_verts == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 10.0]]
    assert faces == want_faces == [[0, 1, 2]]
    assert plain_obj_reads == [False, False]
    # a tag with nothing after it, which loadtxt would skip as blank, and
    # only such rows, on which it would warn
    for text, where in [
        (quad + "f 1 2 3\nf \n", 6), (quad + "f  \n", 5), ("v 1 2 3\nv \t\n", 2),
    ]:
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParseError) as info:
                _parse_obj(path)
        assert str(info.value).startswith(f"{path}:{where}: ")
        assert str(info.value) == str(_per_line_outcome(path))
    assert plain_obj_reads == [False] * 5


def test_obj_inputs_off_the_numpy_reader_keep_their_outcomes(tmp_path, capsys):
    """A surface of triangles and quads, a -1 index and a 20-digit index:
    the per-line reader reads them, and the CLI ends each as before."""
    from navstruct.cli import main

    quads = "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nv 2 0 0\n"
    surface, out = tmp_path / "surface.obj", tmp_path / "out"
    argv = ["extract", "--surface", str(surface), "--out", str(out)]
    big = "1" * 20
    cases = [
        (quads + "f 1 2 3 4\nf 2 5 3\n", 0, None),
        (quads + "f 1 2 3 4\nf -1 5 3\n", 2,
         f"error: {surface}:7: face indices must be positive (1-based)"),
        (quads + f"f 1 2 3 4\nf 2 5 {big}\n", 2,
         "error: polygon 1: vertex index out of range"),
    ]
    for text, code, message in cases:
        surface.write_text(text)
        assert main(argv) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if message:
            assert message in err.splitlines()
    surface.write_text(cases[0][0])
    loaded = load_walkable_surface(surface)
    assert loaded.polygons == [[0, 1, 2, 3], [1, 4, 2]]
    # the 20-digit index in a blocker triangle
    walls = tmp_path / "walls.obj"
    walls.write_text(quads + f"f 1 2 {big}\n")
    with pytest.raises(ValidationError, match="blocker triangle index out of range"):
        load_blocker_mesh(walls)


def test_numpy_loadtxt_refuses_what_the_obj_fast_path_relies_on():
    """np.loadtxt behaviour that `mesh._plain_obj` counts on to leave a text
    to the per-line reader; a numpy that changes any of it fails here."""
    def load(rows, dtype):
        return np.loadtxt(rows, dtype=dtype, comments=None, ndmin=2)

    for token in ("1_0", "\u0661", "0x1", "3/1", "1.0", "1e1"):
        with pytest.raises(ValueError):
            load([f"1 {token} 2"], np.int64)
    for token in ("1_0", "\u0661", "0x1", "1d3"):
        with pytest.raises(ValueError):
            load([f"1 {token} 2"], float)
    with pytest.raises(ValueError):  # past int64
        load(["1 2 " + "1" * 20], np.int64)
    with pytest.raises(ValueError):
        load(["1 2 9223372036854775808"], np.int64)
    for dtype in (float, np.int64):
        with pytest.raises(ValueError):  # ragged rows
            load(["1 2 3", "1 2 3 4"], dtype)
        with pytest.raises(ValueError):  # `#` is a token, not a comment
            load(["1 2 3 #"], dtype)
    # and what it reads, it reads as float() does, bit for bit
    tokens = ["+3", ".5", "2.", "1E-3", "-1e-320", "-0.0", "0.1", "1e400"]
    got = load([" ".join(tokens)], float)[0]
    assert got.tobytes() == np.array([float(t) for t in tokens]).tobytes()


def test_obj_and_json_inputs_skip_a_utf8_byte_order_mark(tmp_path):
    text = "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n"
    plain, marked = tmp_path / "plain.obj", tmp_path / "marked.obj"
    plain.write_text(text, encoding="utf-8")
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert load_walkable_surface(marked).polygons == load_walkable_surface(plain).polygons
    walls = tmp_path / "walls.json"
    walls.write_bytes(
        b"\xef\xbb\xbf" + b'{"vertices": [[0,0,0],[1,0,0],[1,1,0]], "triangles": [[0,1,2]]}'
    )
    assert load_blocker_mesh(walls).triangles.tolist() == [[0, 1, 2]]


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
    # a coordinate is an int or a float; an integer past the float range
    # reads as json reads 1e400
    square = {"vertices": [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], "polygons": [[0, 1, 2, 3]]}
    for value, message in [
        (10**400, "vertex coordinates must be finite"),
        (-(10**400), "vertex coordinates must be finite"),
        (True, "True is not a number"),
        ("2.5", "'2.5' is not a number"),
    ]:
        square["vertices"][2][0] = value
        path.write_text(json.dumps(square))
        with pytest.raises(ParseError, match=message):
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
    # the shared edge (1, 2) is polygon 0's second and polygon 1's last
    assert surface.across == [[-1, 1, -1, -1], [-1, -1, -1, 0]]
    assert interior_edge_count(surface) == 1
    assert sum(map(len, surface.boundary_edges)) == 6


def test_grid_adjacency_symmetric():
    surface = grid_surface(3, 3)
    assert len(surface.polygons) == 9
    assert interior_edge_count(surface) == 12
    assert sum(map(len, surface.boundary_edges)) == 12
    # squares are numbered row by row; each one neighbours the next in its
    # row and the one above it
    assert neighbour_pairs(surface) == sorted(
        [(p, p + 1) for p in range(9) if p % 3 < 2] + [(p, p + 3) for p in range(6)]
    )


def ring_edges(ring):
    """(k, a, b) for the edge from corner k to corner k + 1 of a ring."""
    return [(k, a, b) for k, (a, b) in enumerate(zip(ring, ring[1:] + ring[:1]))]


@pytest.mark.parametrize("make", [
    lambda: build_walkable_surface(*square_pair()),
    lambda: grid_surface(3, 3),
    ring_surface,
    stacked_floors,
    double_shared_edge,
    coincident_centers,
    lambda: vertical_strip(reverse=True),
], ids=["square-pair", "grid3x3", "ring", "stacked", "double-shared", "coincident",
        "strip-reversed"])
def test_across_is_symmetric_and_marks_the_boundary(make):
    surface = make()
    assert list(map(len, surface.across)) == list(map(len, surface.polygons))
    boundary = []
    for p, ring in enumerate(surface.polygons):
        for k, a, b in ring_edges(ring):
            q = surface.across[p][k]
            if q < 0:
                boundary.append((a, b, p))
                continue
            # q holds the same edge once, and its corner there sees p
            (j,) = [j for j, c, d in ring_edges(surface.polygons[q]) if {c, d} == {a, b}]
            assert surface.across[q][j] == p
    # -1 marks exactly the boundary triples, and each triple's owner holds
    # (a, b) as an edge of its ring, in that direction
    triples = [edge for loop in surface.boundary_edges for edge in loop]
    assert sorted(triples) == sorted(boundary)


def test_single_square_boundary_loop():
    surface = surface_from_squares([(0, 0)])
    assert len(surface.boundary_edges) == 1
    loop = surface.boundary_edges[0]
    assert loop[0][0] == 0  # canonical start at the smallest vertex id
    assert loop == [(0, 1, 0), (1, 2, 0), (2, 3, 0), (3, 0, 0)]
    assert loop[-1][1] == loop[0][0]


def test_ring_surface_has_two_boundary_loops():
    surface = ring_surface()
    assert len(surface.polygons) == 8
    lengths = sorted(len(loop) for loop in surface.boundary_edges)
    assert lengths == [4, 12]
    for loop in surface.boundary_edges:
        for (_a, b, _p), (c, _d, _q) in zip(loop, loop[1:] + loop[:1]):
            assert b == c  # consecutive edges chain head-to-tail


def test_boundary_interior_on_the_left():
    surface = surface_from_squares([(0, 0)])
    for a, b, _owner in surface.boundary_edges[0]:
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
    points += [(verts[a] + verts[b]) / 2.0 for a, b in edge_polygons(surface.polygons)]
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
    with pytest.raises(ParseError) as info:
        load_blocker_mesh(path)
    assert str(info.value) == (
        f"{path}: blocker face 0 has 4 vertices; blocker faces must be triangles"
    )
    # the first face that is not a triangle is named, by index and size
    path.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3\nf 1 2 3 4\nf 1 2 3 4 1\n")
    with pytest.raises(ParseError) as info:
        load_blocker_mesh(path)
    assert str(info.value) == (
        f"{path}: blocker face 1 has 4 vertices; blocker faces must be triangles"
    )
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
