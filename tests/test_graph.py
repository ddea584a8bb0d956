import json
import math
import random

import numpy as np
import pytest

from navstruct.errors import DegenerateEdge, ParseError, ValidationError
from navstruct.fixtures import (
    coincident_centers,
    double_shared_edge,
    graph_from_edges,
    grid_surface,
    random_connected_graph,
    ramp_corridor,
    stacked_floors,
    turned_grid,
)
from navstruct.graph import (
    SOURCE_POLYGON,
    SOURCE_SAMPLE,
    GraphNode,
    SurfaceGraph,
    graph_from_navmesh,
    load_graph_json,
)
from navstruct.mesh import build_walkable_surface
from navstruct.oracles import (
    adjacency,
    edge_polygons,
    graph_from_navmesh_per_edge,
    graph_load_differences,
    load_graph_json_per_node,
)


def test_navmesh_graph_from_corridor(corridor):
    surface, _blockers = corridor
    g = graph_from_navmesh(surface)
    assert len(g) == 12
    assert len(g.edges) == 11
    for node in g.nodes:
        assert node.source == SOURCE_POLYGON
        assert node.on_navmesh
        assert np.allclose(node.normal, [0.0, 0.0, 1.0])
    # unit squares in a row: every center-to-center distance is 1
    assert all(w == pytest.approx(1.0) for _i, _j, w in g.edges)


def test_navmesh_graph_matches_adjacency():
    surface = grid_surface(3, 3)
    g = graph_from_navmesh(surface)
    assert len(g) == 9
    assert len(g.edges) == 12
    edge_set = {(i, j) for i, j, _w in g.edges}
    for owners in edge_polygons(surface.polygons).values():
        if len(owners) == 2:
            assert tuple(owners) in edge_set


@pytest.mark.parametrize("surface", [
    grid_surface(45, 45), turned_grid(), stacked_floors(),
    *(ramp_corridor(angle) for angle in (30.0, 60.0, 80.0)),
], ids=["grid45", "turned-grid", "stacked-floors", "ramp30", "ramp60", "ramp80"])
def test_navmesh_graph_equals_the_per_edge_build_bit_for_bit(surface):
    fast, ref = graph_from_navmesh(surface), graph_from_navmesh_per_edge(surface)
    assert [(i, j, w.hex()) for i, j, w in fast.edges] == [
        (i, j, w.hex()) for i, j, w in ref.edges
    ]
    for got, want in zip(fast.nodes, ref.nodes, strict=True):
        assert got.position.tobytes() == want.position.tobytes()
        assert got.normal.tobytes() == want.normal.tobytes()
        assert (got.polygon, got.source) == (want.polygon, want.source)


def test_navmesh_graph_rejects_a_pair_sharing_two_edges():
    surface = double_shared_edge()
    assert surface.across == [[1, 1, -1, -1], [0, 0, -1]]
    with pytest.raises(ValidationError, match=r"^duplicate edge \(0, 1\)$"):
        graph_from_navmesh(surface)


def test_navmesh_graph_names_the_lowest_coincident_pair():
    surface = coincident_centers()
    # polygon 0's ring meets the pair (0, 2) first; the error names (0, 1)
    assert surface.across[0] == [2, -1, -1, 1]
    with pytest.raises(
        DegenerateEdge, match=r"^polygon centers 0 and 1 coincide \(zero-weight edge\)$"
    ):
        graph_from_navmesh(surface)


def test_navmesh_graph_refuses_centres_closer_than_1e_12():
    def moved_copy(shift):
        # the square wound the other way on edge (0, 1), its far corners
        # moved by `shift` along x: the centres lie shift / 2 apart
        verts = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0), (shift, 1, 0), (1 + shift, 1, 0)]
        return build_walkable_surface(verts, [[0, 1, 2, 3], [1, 0, 4, 5]])

    for build in (graph_from_navmesh, graph_from_navmesh_per_edge):
        with pytest.raises(DegenerateEdge, match="^polygon centers 0 and 1 coincide"):
            build(moved_copy(1e-12))
    (edge,) = graph_from_navmesh(moved_copy(4e-12)).edges
    assert edge == graph_from_navmesh_per_edge(moved_copy(4e-12)).edges[0]
    assert 1e-12 <= edge[2] < 1e-11


def test_canonical_edges_sorted_and_simple():
    three = [(0, 0, 0), (1, 0, 0), (2, 0, 0)]
    g = graph_from_edges(three, [(2, 1, 1.0), (1, 0, 1)])
    assert g.edges == [(0, 1, 1.0), (1, 2, 1.0)]
    assert [tuple(map(type, e)) for e in g.edges] == [(int, int, float)] * 2
    # an (E, 3) array gives the same tuples
    rows = SurfaceGraph(g.nodes, np.array([[2.0, 1.0, 1.0], [1.0, 0.0, 1.0]]))
    assert [tuple(map(type, e)) for e in rows.edges] == [(int, int, float)] * 2
    assert rows.edges == g.edges
    for edges, message in [
        ([(0, 1, 1.0), (2, 2, 1.0)], r"^self-loop on node 2$"),
        ([(0, 1, 1.0), (0, 1, 2.0)], r"^duplicate edge \(0, 1\)$"),
        ([(1, 2, 1.0), (0, 1, 1.0), (2, 1, 2.0)], r"^duplicate edge \(1, 2\)$"),
        ([(0, 1, 1.0), (1, 2, math.nan)], "^edge weights sum past the float range$"),
        ([(0, 1, 1e308), (1, 2, 1e308)], "^edge weights sum past the float range$"),
        # with several faults, the first self-loop listed, else the lowest
        # repeated pair
        ([(0, 1, 1.0), (1, 0, 1.0), (2, 2, 1.0)], r"^self-loop on node 2$"),
        ([(1, 2, 1.0), (2, 1, 1.0), (0, 1, 1.0), (1, 0, 1.0)], r"^duplicate edge \(0, 1\)$"),
    ]:
        with pytest.raises(ValidationError, match=message):
            graph_from_edges(three, edges)


def test_adjacency_neighbors_ascending():
    g = graph_from_edges(
        [(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)],
        [(0, 3, 1.0), (0, 1, 1.0), (0, 2, 1.0)],
    )
    adj = adjacency(g)
    assert [v for v, _w in adj[0]] == [1, 2, 3]
    assert adj[3] == [(0, 1.0)]
    # adjacency reads the rows of the arcs, which are ordered by (tail, head)
    arcs = g.arcs
    assert list(zip(arcs.tail.tolist(), arcs.head.tolist())) == [
        (0, 1), (0, 2), (0, 3), (1, 0), (2, 0), (3, 0)
    ]
    assert adj == [list(zip(row.indices.tolist(), row.data.tolist())) for row in arcs.matrix]


def test_extending_a_graph_leaves_the_original_untouched():
    g = graph_from_edges([(0, 0, 0), (1, 0, 0)], [(0, 1, 1.0)])
    extra = GraphNode(
        position=np.array([2.0, 0.0, 0.0]),
        normal=np.array([0.0, 0.0, 1.0]), source=SOURCE_SAMPLE,
    )
    g2 = SurfaceGraph(g.nodes + [extra], g.edges + [(2, 1, 1.0)])
    assert len(g) == 2 and g.edges == [(0, 1, 1.0)] and g.arcs.matrix.shape == (2, 2)
    assert len(g2) == 3 and g2.edges == [(0, 1, 1.0), (1, 2, 1.0)]
    assert g2.arcs.matrix.shape == (3, 3)


def _new_nodes(count: int) -> list[GraphNode]:
    return [GraphNode(position=np.array([float(k), 0.0, 9.0]), normal=np.array([0.0, 0.0, 1.0]))
            for k in range(count)]


def _edge_bits(edges) -> list:
    return [(type(i), i, type(j), j, type(w), w.hex()) for i, j, w in edges]


def test_edges_reads_the_sorted_rows_out_of_the_arcs():
    rng = random.Random(7)
    for case in range(60):
        g = random_connected_graph(rng, rng.randint(1, 12), rng.uniform(0.2, 0.8))
        rows = [(j, i, w) if rng.random() < 0.5 else (i, j, w) for i, j, w in g.edges]
        rng.shuffle(rows)
        want = sorted((min(i, j), max(i, j), float(w)) for i, j, w in rows)
        given = np.array(rows, dtype=float).reshape(-1, 3)
        if case % 2:
            given[:, :2] = given[:, 1::-1]  # every row turned the other way
        for edges in (rows, given):
            built = SurfaceGraph(g.nodes, edges)
            assert _edge_bits(built.edges) == _edge_bits(want)
            # each read is a new list: editing one leaves the graph as it was
            read = built.edges
            assert read is not built.edges
            read.append((0, 1, 1.0))
            read[:1] = []
            assert _edge_bits(built.edges) == _edge_bits(want)


def test_constructor_refuses_faulty_links_added_to_a_graph():
    three = [(0, 0, 0), (1, 0, 0), (2, 0, 0)]
    for edges, links, message in [
        ([(0, 1, 1e308)], [(2, 3, 1e308)], "^edge weights sum past the float range$"),
        ([(0, 1, 1.0)], [(1, 3, math.inf)], "^edge weights sum past the float range$"),
        # summed in sorted order, 1e308 + 1e308 - 1e308 overflows on the way;
        # in list order, 1e308 - 1e308 + 1e308 would not
        ([(0, 1, 1e308), (1, 2, -1e308)], [(0, 3, 1e308)],
         "^edge weights sum past the float range$"),
        ([(0, 1, 1.0)], [(3, 3, 1.0)], r"^self-loop on node 3$"),
        ([(0, 1, 1.0)], [(3, 2, 1.0), (2, 3, 1.0)], r"^duplicate edge \(2, 3\)$"),
    ]:
        g = graph_from_edges(three, edges)
        with pytest.raises(ValidationError, match=message):
            SurfaceGraph(g.nodes + _new_nodes(1), g.edges + links)


@pytest.mark.parametrize("end, shown", [(5, "5"), (2, "2"), (-1, "-1"), (1.5, "1.5")],
                         ids=["past-the-ids", "at-the-count", "negative", "not-integral"])
def test_constructor_refuses_an_end_that_is_not_a_node_id(end, shown):
    """The first such row is named, before any self-loop, in either
    orientation and from a tuple list or an array."""
    nodes = _new_nodes(2)
    message = rf"^edge 2 \(0, {shown}\) has an end outside the 2 node ids$"
    for edges in ([(0, 1, 1.0), (1, 1, 1.0), (0, end, 1.0), (end, 1, 1.0)],
                  np.array([(0, 1, 1.0), (1, 1, 1.0), (0, end, 1.0), (end, 1, 1.0)])):
        with pytest.raises(ValidationError, match=message):
            SurfaceGraph(nodes, edges)
    with pytest.raises(ValidationError, match=rf"^edge 0 \({shown}, 0\) has an end outside"):
        SurfaceGraph(nodes, [(end, 0, 1.0)])


def test_centroid():
    g = graph_from_edges([(0, 0, 0), (2, 0, 0), (1, 3, 0)], [(0, 1, 1.0)])
    assert np.allclose(g.centroid(), [1.0, 1.0, 0.0])


# --- JSON I/O ---------------------------------------------------------------

def test_load_graph_json(tmp_path):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({
        "nodes": [
            {"pos": [0, 0, 0]},
            {"pos": [3, 4, 0], "normal": [0, 1, 0]},
            {"pos": [6, 4, 0], "normal": [0, 3, 4]},
        ],
        "edges": [[0, 1], [1, 2, 7.5]],
    }))
    g = load_graph_json(path)
    assert len(g) == 3
    assert g.edges[0] == (0, 1, pytest.approx(5.0))  # Euclidean default
    assert g.edges[1] == (1, 2, 7.5)                 # explicit weight kept
    assert np.allclose(g.nodes[0].normal, [0, 0, 1])
    assert np.allclose(g.nodes[1].normal, [0, 1, 0])
    assert g.nodes[2].normal.tolist() == [0.0, 0.6, 0.8]  # scaled to unit length


def test_load_graph_json_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    cases = [
        ("{oops", ParseError, "invalid JSON"),
        ('{"nodes": []}', ParseError, "'nodes' and 'edges'"),
        ('{"nodes": [{"q": 1}], "edges": []}', ParseError, "'pos'"),
        ('{"nodes": [{"pos": [0, 0]}], "edges": []}', ParseError, "3 components"),
        ('{"nodes": [{"pos": [0,0,0], "normal": [0,0,0]}], "edges": []}', ParseError, "nonzero"),
        ('{"nodes": [{"pos": [0,0,0], "normal": [1.5e308,1.5e308,0]}], "edges": []}',
         ParseError, "finite length"),
        ('{"nodes": [{"pos": [1e308,0,0]}, {"pos": [-1e308,0,0]}], "edges": []}',
         ValidationError, r"within \+/-1e\+50"),
        ('{"nodes": [{"pos": [0,0,0]}], "edges": [[0]]}', ParseError, r"\[i, j\]"),
        ('{"nodes": [{"pos": [0,0,0]}], "edges": [[0, 4]]}', ParseError, "out of range"),
        (
            '{"nodes": [{"pos": [0,0,0]}, {"pos": [1,0,0]}], "edges": [[0, 1, -2]]}',
            DegenerateEdge, "non-positive",
        ),
    ]
    for text, exc, needle in cases:
        path.write_text(text)
        with pytest.raises(exc, match=needle):
            load_graph_json(path)


def _load_outcome(load, path):
    try:
        return load(path)
    except (ParseError, ValidationError) as exc:
        return type(exc), str(exc)


def test_load_graph_json_names_the_first_fault_in_file_order(tmp_path):
    path = tmp_path / "bad.json"
    three = [{"pos": [0, 0, 0]}, {"pos": [1, 0, 0]}, {"pos": [0, 2, 0]}]
    cases = [
        # node faults of different kinds: the lower node is named, a node's
        # pos before its normal
        ([{"pos": [0, 0, 0], "normal": [0, 0, 0]}, {"pos": [0, True, 0]}], [],
         ParseError, f"{path}: node 0 'normal' must have a nonzero finite length"),
        ([{"pos": [0, 0, 0]}, {"pos": [0, 0]}, {"q": 1}], [],
         ParseError, f"{path}: node 1 'pos' must have 3 components"),
        ([{"pos": ["1", 0, 0], "normal": None}], [],
         ParseError, f"{path}: node 0 'pos': '1' is not a number"),
        ([{"pos": [0, 0, 10**400]}], [], ParseError, f"{path}: node 0 'pos' must be finite"),
        # every node is read before the coordinate range and the edges
        ([{"pos": [1e60, 0, 0]}, {"pos": [0, 0, 0]}], [[0, 5]],
         ValidationError, r"graph node coordinates must lie within +/-1e+50"),
        # edge faults of different kinds: the earlier record is named
        (three, [[0, 1], [0, 2, -1.0], [True, 1]],
         DegenerateEdge, "edge (0, 2) has non-positive weight -1.0"),
        (three, [[0, 1, 1.5], [0, True], [0, 2, -1]],
         ParseError, f"{path}: index True is not an integer"),
        (three, [[0, 2.0], [0, 1, "2"], [0, 7]], ParseError, f"{path}: '2' is not a number"),
        (three, [[0, 2.0], [1, 2.5]], ParseError, f"{path}: index 2.5 is not an integer"),
        (three, [[2.0, 1], [0, 10**30], [0, 2.5]],
         ParseError, f"{path}: edge (0, {10**30}) out of range"),
        (three, [[0, 1, 10**400], [0, 2, 0]],
         ParseError, f"{path}: edge (0, 1) has non-finite weight"),
        ([{"pos": [0, 0, 0]}, {"pos": [0, 0, 0]}], [[1, 0]],
         DegenerateEdge, "edge (1, 0) has non-positive weight 0.0"),
        (three, [[0, 1], [1, 2], [2, 1, 3]], ValidationError, "duplicate edge (1, 2)"),
        (three, [[0, 1], [2, 2.0, 1]], ValidationError, "self-loop on node 2"),
    ]
    for nodes, edges, exc, message in cases:
        path.write_text(json.dumps({"nodes": nodes, "edges": edges}))
        got = _load_outcome(load_graph_json, path)
        assert got == (exc, message), (nodes, edges)
        assert got == _load_outcome(load_graph_json_per_node, path)


@pytest.mark.parametrize("name, error", [("_edge_rows", ValueError), ("_node_arrays", OverflowError)])
def test_load_graph_json_returns_the_per_record_answer_when_an_array_pass_raises(
    tmp_path, monkeypatch, capsys, name, error
):
    """An array pass that raises on a sound document hands it to the
    per-record reader, whose graph stands, and the CLI runs on it."""
    from navstruct import graph
    from navstruct.cli import main

    path = tmp_path / "graph.json"
    nodes = [{"pos": [0, 0, 0]}, {"pos": [1, 0, 0], "normal": [0, 0, 2]},
             {"pos": [1, 2, 0]}, {"pos": [3, 2, 0]}]
    path.write_text(json.dumps({"nodes": nodes, "edges": [[0, 1], [1, 2, 2.5], [2, 3]]}))
    want = load_graph_json(path)
    calls = []

    def refuse(*args):
        calls.append(args)
        raise error("refused")

    monkeypatch.setattr(graph, name, refuse)
    got = load_graph_json(path)
    assert len(calls) == 1
    assert got.edges == want.edges == [(0, 1, 1.0), (1, 2, 2.5), (2, 3, 2.0)]
    for a, b in zip(got.nodes, want.nodes, strict=True):
        assert a.position.tobytes() == b.position.tobytes()
        assert a.normal.tobytes() == b.normal.tobytes()
        assert (a.polygon, a.source, a.terminal) == (b.polygon, b.source, b.terminal)
    out = tmp_path / "out"
    assert main(["extract", "--graph", str(path), "--terminals", "leaves", "--out", str(out)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    assert len(calls) == 2 and (out / "structure.json").exists()


def test_load_graph_json_reads_integral_float_indices_and_refuses_bools(tmp_path):
    path = tmp_path / "graph.json"
    nodes = [{"pos": [0, 0, 0]}, {"pos": [3, 4, 0]}, {"pos": [3, 4, 12]}]
    path.write_text(json.dumps({"nodes": nodes, "edges": [[0, 1.0], [2.0, 1, 7]]}))
    g = load_graph_json(path)
    assert g.edges == [(0, 1, 5.0), (1, 2, 7.0)]
    assert all(type(i) is int and type(j) is int and type(w) is float for i, j, w in g.edges)
    assert not graph_load_differences(path)
    for edges in ([[0, True]], [[True, 1, 2.0]]):
        path.write_text(json.dumps({"nodes": nodes, "edges": edges}))
        with pytest.raises(ParseError, match="index True is not an integer"):
            load_graph_json(path)


def test_load_graph_json_gives_two_element_edges_the_norm_bits(tmp_path):
    rng = np.random.default_rng(5)
    points = rng.uniform(-1e3, 1e3, size=(60, 3)) * rng.choice((1e-6, 1.0, 1e6), size=(60, 1))
    pairs = [(int(i), int(j)) for i, j in rng.integers(0, 60, size=(300, 2)) if i < j]
    pairs = sorted(set(pairs))
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({
        "nodes": [{"pos": p, "normal": [1, 2, 2]} for p in points.tolist()],
        "edges": [list(pair) for pair in pairs],
    }))
    g = load_graph_json(path)
    want = [float(np.linalg.norm(points[i] - points[j])).hex() for i, j in pairs]
    assert [w.hex() for _, _, w in g.edges] == want
    assert [(i, j) for i, j, _ in g.edges] == pairs
    for node, p in zip(g.nodes, points):
        assert node.position.tobytes() == p.tobytes()
        assert node.normal.tolist() == (np.array([1.0, 2.0, 2.0]) / 3.0).tolist()
        assert (node.polygon, node.source, node.terminal) == (None, SOURCE_SAMPLE, False)
    assert not graph_load_differences(path)


def test_load_graph_json_skips_a_utf8_byte_order_mark(tmp_path):
    path = tmp_path / "graph.json"
    text = '{"nodes": [{"pos": [0, 0, 0]}, {"pos": [1, 0, 0]}], "edges": [[0, 1]]}'
    path.write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert load_graph_json(path).edges == [(0, 1, 1.0)]
