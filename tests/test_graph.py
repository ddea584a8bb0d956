import json

import numpy as np
import pytest

from navstruct.errors import DegenerateEdge, ParseError, ValidationError
from navstruct.fixtures import graph_from_edges, grid_surface
from navstruct.graph import (
    SOURCE_POLYGON,
    SOURCE_SAMPLE,
    GraphNode,
    graph_from_navmesh,
    load_graph_json,
)


def test_navmesh_graph_from_corridor(corridor):
    surface, _blockers = corridor
    g = graph_from_navmesh(surface)
    assert len(g) == 12
    assert len(g.edges) == 11
    for k, node in enumerate(g.nodes):
        assert node.id == k
        assert node.source == SOURCE_POLYGON
        assert node.on_navmesh
        assert np.allclose(node.normal, [0.0, 0.0, 1.0])
    # unit squares in a row: every center-to-center distance is 1
    assert all(w == pytest.approx(1.0) for _i, _j, w in g.edges)
    assert g.node_index == {k: k for k in range(12)}


def test_navmesh_graph_matches_adjacency():
    surface = grid_surface(3, 3)
    g = graph_from_navmesh(surface)
    assert len(g) == 9
    assert len(g.edges) == 12
    edge_set = {(i, j) for i, j, _w in g.edges}
    for pid, nbrs in enumerate(surface.adjacency):
        for qid, _edge in nbrs:
            assert (min(pid, qid), max(pid, qid)) in edge_set


def test_canonical_edges_sorted_and_simple():
    g = graph_from_edges(
        [(0, 0, 0), (1, 0, 0), (2, 0, 0)], [(2, 1, 1.0), (1, 0, 1.0)]
    )
    assert g.edges == [(0, 1, 1.0), (1, 2, 1.0)]
    with pytest.raises(ValidationError, match="self-loop"):
        graph_from_edges([(0, 0, 0), (1, 0, 0)], [(0, 0, 1.0)])
    with pytest.raises(ValidationError, match="duplicate edge"):
        graph_from_edges([(0, 0, 0), (1, 0, 0)], [(0, 1, 1.0), (1, 0, 2.0)])


def test_adjacency_neighbors_ascending():
    g = graph_from_edges(
        [(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)],
        [(0, 3, 1.0), (0, 1, 1.0), (0, 2, 1.0)],
    )
    adj = g.adjacency()
    assert [v for v, _w in adj[0]] == [1, 2, 3]
    assert adj[3] == [(0, 1.0)]


def test_with_extra_nodes_leaves_original_untouched():
    g = graph_from_edges([(0, 0, 0), (1, 0, 0)], [(0, 1, 1.0)])
    extra = GraphNode(
        id=2, position=np.array([2.0, 0.0, 0.0]),
        normal=np.array([0.0, 0.0, 1.0]), source=SOURCE_SAMPLE,
    )
    g2 = g.with_extra_nodes([extra], [(1, 2, 1.0)])
    assert len(g) == 2 and len(g.edges) == 1
    assert len(g2) == 3 and len(g2.edges) == 2
    assert g2.edges[-1] == (1, 2, 1.0)


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
         ValidationError, "float range"),
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
