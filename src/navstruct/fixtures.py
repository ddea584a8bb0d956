"""Synthetic fixtures: corridor/hub/ramp surfaces, grid mazes, random graphs.

Shared by the test-suite and the oracle subcommand.  Everything is
deterministic for a given seed.
"""
from __future__ import annotations

import math
import random

import numpy as np

from .algorithms import kruskal_edges
from .graph import GraphNode, SOURCE_SAMPLE, SurfaceGraph
from .mesh import (
    BlockerMesh,
    WalkableSurface,
    build_blocker_mesh,
    build_walkable_surface,
)

WALL_OFFSET = 0.01
WALL_Z = (-0.5, 1.0)


class _VertexPool:
    """Dedupes vertices so fixture polygons share welded indices."""

    def __init__(self):
        self.verts: list[tuple[float, float, float]] = []
        self.index: dict[tuple[float, float, float], int] = {}

    def add(self, p) -> int:
        key = (round(float(p[0]), 9), round(float(p[1]), 9), round(float(p[2]), 9))
        if key not in self.index:
            self.index[key] = len(self.verts)
            self.verts.append(key)
        return self.index[key]


def surface_from_squares(cells: list[tuple[float, float]], z: float = 0.0) -> WalkableSurface:
    """Unit squares (given by their min corner) in the z plane, CCW from +Z."""
    pool = _VertexPool()
    polys = []
    for x, y in cells:
        ring = [
            pool.add((x, y, z)),
            pool.add((x + 1.0, y, z)),
            pool.add((x + 1.0, y + 1.0, z)),
            pool.add((x, y + 1.0, z)),
        ]
        polys.append(ring)
    return build_walkable_surface(pool.verts, polys)


def boundary_walls(
    surface: WalkableSurface,
    open_midpoints: list[tuple[float, float, float]] = (),
    offset: float = WALL_OFFSET,
    z_range: tuple[float, float] = WALL_Z,
) -> BlockerMesh:
    """Vertical wall quads along every boundary edge, pushed `offset` outward,
    except edges whose midpoint matches an entry in `open_midpoints`."""
    verts: list[list[float]] = []
    tris: list[list[int]] = []
    z_lo, z_hi = z_range
    opens = [np.asarray(m, dtype=float) for m in open_midpoints]
    for loop in surface.boundary_edges:
        for a, b, owner in loop:
            pa = surface.vertices[a]
            pb = surface.vertices[b]
            mid = (pa + pb) / 2.0
            if any(float(np.linalg.norm(mid - m)) < 1e-6 for m in opens):
                continue
            normal = surface.polygon_normals[owner]
            fwd = (pb - pa) / np.linalg.norm(pb - pa)
            outward = np.cross(fwd, normal)
            base = len(verts)
            for corner in (
                pa + outward * offset + np.array([0, 0, z_lo]),
                pb + outward * offset + np.array([0, 0, z_lo]),
                pb + outward * offset + np.array([0, 0, z_hi]),
                pa + outward * offset + np.array([0, 0, z_hi]),
            ):
                verts.append([float(x) for x in corner])
            tris.append([base, base + 1, base + 2])
            tris.append([base, base + 2, base + 3])
    return build_blocker_mesh(verts, tris)


def straight_corridor(n: int = 12) -> tuple[WalkableSurface, BlockerMesh]:
    """n collinear unit squares with both short ends open and side walls."""
    surface = surface_from_squares([(float(i), 0.0) for i in range(n)])
    open_mids = [(0.0, 0.5, 0.0), (float(n), 0.5, 0.0)]
    return surface, boundary_walls(surface, open_mids)


def plus_hub(arm: int = 2) -> tuple[WalkableSurface, BlockerMesh]:
    """Plus-shaped hub: central square with four arms of `arm` squares, the
    four arm ends open, everything else walled."""
    c = float(arm)
    cells = [(c, c)]
    for i in range(1, arm + 1):
        cells += [(c, c + i), (c, c - i), (c - i, c), (c + i, c)]
    surface = surface_from_squares(cells)
    far = 2.0 * arm + 1.0
    open_mids = [
        (c + 0.5, far, 0.0),   # north end
        (c + 0.5, 0.0, 0.0),   # south end
        (0.0, c + 0.5, 0.0),   # west end
        (far, c + 0.5, 0.0),   # east end
    ]
    return surface, boundary_walls(surface, open_mids)


def l_corridor() -> WalkableSurface:
    """Three squares east then one square north of the last: line of sight
    from the first to the last square is broken by the corner."""
    return surface_from_squares([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (2.0, 1.0)])


def ring_surface() -> WalkableSurface:
    """3x3 block of squares with the middle missing: two boundary loops."""
    cells = [
        (float(i), float(j)) for j in range(3) for i in range(3) if not (i == 1 and j == 1)
    ]
    return surface_from_squares(cells)


def grid_surface(nx: int, ny: int) -> WalkableSurface:
    return surface_from_squares(
        [(float(i), float(j)) for j in range(ny) for i in range(nx)]
    )


def turned_grid() -> WalkableSurface:
    """`grid_surface(6, 6)` turned so that its normal is (1, 1, 1) /
    sqrt(3): the most a point may sit off its projection along the
    dominant axis."""
    grid = grid_surface(6, 6)
    turn = np.array([[1.0, -1.0, 0.0], [1.0, 1.0, -2.0], [1.0, 1.0, 1.0]])
    turn /= np.linalg.norm(turn, axis=1)[:, None]
    return build_walkable_surface(grid.vertices @ turn, grid.polygons)


def ramp_corridor(angle_deg: float = 30.0) -> WalkableSurface:
    """Flat square, a ramp rising at `angle_deg`, then two flat squares at the
    top height.  The ramp's normal differs from its neighbors by the angle."""
    h = math.tan(math.radians(angle_deg))
    pool = _VertexPool()
    quads = [
        [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)],
        [(1, 0, 0), (2, 0, h), (2, 1, h), (1, 1, 0)],
        [(2, 0, h), (3, 0, h), (3, 1, h), (2, 1, h)],
        [(3, 0, h), (4, 0, h), (4, 1, h), (3, 1, h)],
    ]
    polys = [[pool.add(p) for p in quad] for quad in quads]
    return build_walkable_surface(pool.verts, polys)


def stacked_floors() -> WalkableSurface:
    """A strip of 5 unit squares at z = 0 (polygons 0-4) under a strip at
    z = 0.3 whose middle square is missing (polygons 5-8).  The floors are
    closer than the default height tolerance, so a point of either floor
    lies within it of both."""
    pool = _VertexPool()
    polys = []
    for z, columns in ((0.0, range(5)), (0.3, (0, 1, 3, 4))):
        for x in columns:
            corners = [(x, 0.0, z), (x + 1, 0.0, z), (x + 1, 1.0, z), (x, 1.0, z)]
            polys.append([pool.add(c) for c in corners])
    return build_walkable_surface(pool.verts, polys)


def regular_polygon(corners: int) -> WalkableSurface:
    """One flat regular ring of `corners` corners on the unit circle."""
    turn = 2.0 * math.pi * np.arange(corners) / corners
    verts = np.column_stack([np.cos(turn), np.sin(turn), np.zeros(corners)])
    return build_walkable_surface(verts, [list(range(corners))])


def vertical_strip(nx: int = 4, nz: int = 2, reverse: bool = False) -> WalkableSurface:
    """nx*nz unit squares in the y=0 plane; `reverse` flips every ring."""
    verts = [(float(x), 0.0, float(z)) for z in range(nz + 1) for x in range(nx + 1)]
    polys = []
    for z in range(nz):
        for x in range(nx):
            lo = z * (nx + 1) + x
            hi = lo + nx + 1
            ring = [lo, lo + 1, hi + 1, hi]
            polys.append(ring[::-1] if reverse else ring)
    return build_walkable_surface(verts, polys)


def double_shared_edge() -> WalkableSurface:
    """A unit square (polygon 0) and a triangle (polygon 1) over two of its
    edges, (0, 1) and (1, 2): a valid surface whose polygon pair shares two
    edges, so its polygon-centre graph repeats the edge (0, 1)."""
    verts = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0), (2, 0.5, 0)]
    return build_walkable_surface(verts, [[0, 1, 2, 3], [2, 1, 0]])


def coincident_centers() -> WalkableSurface:
    """Three copies of the unit square, so all three centres coincide.
    Polygons 1 and 2 are wound the other way, each on one edge of polygon 0
    and copies of its other two corners: polygon 0 shares edge (1, 2), met
    first, with polygon 2 and edge (0, 1) with polygon 1."""
    verts = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
             (0, 1, 0), (1, 1, 0), (0, 0, 0), (0, 1, 0)]
    return build_walkable_surface(verts, [[1, 2, 3, 0], [1, 0, 4, 5], [2, 1, 6, 7]])


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------

def graph_from_edges(positions, edges, source: str = SOURCE_SAMPLE) -> SurfaceGraph:
    """Direct graph construction for fixtures: explicit weighted edges."""
    pts = np.asarray(positions, dtype=float)
    nodes = [
        GraphNode(
            position=pts[k].copy(), normal=np.array([0.0, 0.0, 1.0]), source=source,
        )
        for k in range(len(pts))
    ]
    return SurfaceGraph(nodes, edges)


def maze_graph(nx: int, ny: int, seed: int = 0) -> SurfaceGraph:
    """Spanning tree of an nx*ny lattice carved by randomized depth-first
    search; dead ends give the graph plenty of leaves."""
    rng = random.Random(seed)
    pts = [(float(x), float(y), 0.0) for y in range(ny) for x in range(nx)]
    edges = []
    seen = [False] * (nx * ny)
    stack = [0]
    seen[0] = True
    while stack:
        v = stack[-1]
        x, y = v % nx, v // nx
        nbrs = []
        if x + 1 < nx and not seen[v + 1]:
            nbrs.append(v + 1)
        if x > 0 and not seen[v - 1]:
            nbrs.append(v - 1)
        if y + 1 < ny and not seen[v + nx]:
            nbrs.append(v + nx)
        if y > 0 and not seen[v - nx]:
            nbrs.append(v - nx)
        if not nbrs:
            stack.pop()
            continue
        u = rng.choice(nbrs)
        seen[u] = True
        edges.append((v, u, 1.0))
        stack.append(u)
    return graph_from_edges(pts, edges)


# draws random_connected_graph makes before it gives up on (n, p)
_MAX_DRAWS = 1000


def random_connected_graph(
    rng: random.Random, n: int, p: float
) -> SurfaceGraph:
    """Random graph with edge probability p and weights uniform in (0, 1];
    resamples until connected.  Raises ValueError after 1000 disconnected
    draws, as with p well below ln(n) / n."""
    for _ in range(_MAX_DRAWS):
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < p:
                    edges.append((i, j, 1.0 - rng.random()))
        if kruskal_edges(range(n), edges).component_count == 1:
            break
    else:
        raise ValueError(
            f"no connected graph with n={n}, p={p} in {_MAX_DRAWS} draws"
        )
    positions = [(rng.uniform(0, 10), rng.uniform(0, 10), 0.0) for _ in range(n)]
    return graph_from_edges(positions, edges)


def random_tree_graph(rng: random.Random, n: int) -> SurfaceGraph:
    """Uniform-ish random tree: each node attaches to a random earlier node."""
    edges = []
    for v in range(1, n):
        u = rng.randrange(v)
        edges.append((u, v, 1.0 - rng.random()))
    positions = [(rng.uniform(0, 10), rng.uniform(0, 10), 0.0) for _ in range(n)]
    return graph_from_edges(positions, edges)


def random_forest_graph(rng: random.Random, sizes: list[int]) -> SurfaceGraph:
    """Disjoint union of random trees with the given node counts (a size of 1
    is an isolated node); tree k's ids follow tree k-1's."""
    positions: list = []
    edges = []
    for m in sizes:
        tree = random_tree_graph(rng, m)
        base = len(positions)
        positions += [node.position for node in tree.nodes]
        edges += [(base + i, base + j, w) for i, j, w in tree.edges]
    return graph_from_edges(positions, edges)
