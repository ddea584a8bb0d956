import json
import math

import numpy as np
import pytest

from navstruct.errors import DegenerateEdge, ParseError, ValidationError
from navstruct.fixtures import (
    coincident_centers,
    double_shared_edge,
    graph_from_edges,
    grid_surface,
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
from navstruct.oracles import graph_from_navmesh_per_edge


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
    for owners in surface.edge_polygons.values():
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
    assert [o for o in surface.edge_polygons.values() if len(o) == 2] == [[0, 1], [0, 1]]
    with pytest.raises(ValidationError, match=r"^duplicate edge \(0, 1\)$"):
        graph_from_navmesh(surface)


def test_navmesh_graph_names_the_lowest_coincident_pair():
    surface = coincident_centers()
    # the walk meets the pair (0, 2) first; the error names (0, 1)
    assert [o for o in surface.edge_polygons.values() if len(o) == 2] == [[0, 2], [0, 1]]
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
    adj = g.adjacency()
    assert [v for v, _w in adj[0]] == [1, 2, 3]
    assert adj[3] == [(0, 1.0)]
    # adjacency() reads the rows of arcs(), which are ordered by (tail, head)
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
