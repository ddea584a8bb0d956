"""Seeded input files for the navbench workloads.

Pure Python on purpose: the files must not depend on navstruct or numpy, so
that a change to the program never changes the benchmark's inputs, and the
same seed gives the same bytes on every machine.

Each generator writes into a directory and returns the navstruct
subcommand and the options (flag name -> value) that read the files it
wrote.
"""
from __future__ import annotations

import json
import random
from pathlib import Path

WALL_OFFSET = 0.01         # walls stand just outside the walkable boundary
WALL_Z = (-0.5, 1.0)

MAZE_SIZE = 30
CORRIDOR_LENGTH = 200
LEVEL_SIZE = 24
LEVEL_PILLAR_PITCH = 4     # pillar holes at cells (2 + 4i, 2 + 4j)
LEVEL_DOORWAYS_PER_SIDE = 5
GRID_SIZE = 45


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def write_obj(path: Path, verts, faces, origin=(0, 0)) -> None:
    """OBJ file of the vertices moved by `origin` in x and y, and the faces."""
    ox, oy = origin
    lines = [f"v {_fmt(x + ox)} {_fmt(y + oy)} {_fmt(z)}" for x, y, z in verts]
    lines += ["f " + " ".join(str(i + 1) for i in face) for face in faces]
    path.write_text("\n".join(lines) + "\n")


def _wall_quad(verts, faces, pa, pb) -> None:
    """Vertical quad over the segment pa-pb (z = 0), as two triangles."""
    lo, hi = WALL_Z
    base = len(verts)
    verts += [(pa[0], pa[1], lo), (pb[0], pb[1], lo), (pb[0], pb[1], hi), (pa[0], pa[1], hi)]
    faces += [[base, base + 1, base + 2], [base, base + 2, base + 3]]


# ---------------------------------------------------------------------------
# square-cell surfaces
# ---------------------------------------------------------------------------

def _square_cells(cells):
    """Unit squares (by min corner) in z = 0, counter-clockwise from +Z, on
    shared vertices."""
    index: dict[tuple[int, int], int] = {}
    verts = []

    def vid(x, y):
        if (x, y) not in index:
            index[(x, y)] = len(verts)
            verts.append((float(x), float(y), 0.0))
        return index[(x, y)]

    faces = [[vid(x, y), vid(x + 1, y), vid(x + 1, y + 1), vid(x, y + 1)] for x, y in cells]
    return verts, faces


def _boundary_walls(verts, faces, is_open):
    """Wall quads along every boundary edge, pushed WALL_OFFSET outward,
    except the edges for which is_open(midpoint) is true."""
    count: dict[tuple[int, int], int] = {}
    for ring in faces:
        for a, b in zip(ring, ring[1:] + ring[:1]):
            key = (min(a, b), max(a, b))
            count[key] = count.get(key, 0) + 1
    wall_verts: list = []
    wall_faces: list = []
    for ring in faces:
        for a, b in zip(ring, ring[1:] + ring[:1]):
            if count[(min(a, b), max(a, b))] != 1:
                continue
            (ax, ay, _), (bx, by, _) = verts[a], verts[b]
            if is_open(((ax + bx) / 2.0, (ay + by) / 2.0)):
                continue
            # interior lies left of a->b, so outward is the right-hand normal
            ox, oy = (by - ay) * WALL_OFFSET, -(bx - ax) * WALL_OFFSET
            _wall_quad(wall_verts, wall_faces, (ax + ox, ay + oy), (bx + ox, by + oy))
    return wall_verts, wall_faces


def _surface_files(out: Path, seed: int, cells, is_open=None) -> None:
    """surface.obj and, given is_open(edge midpoint) for the openings,
    walls.obj.  The seed moves the scene by whole units and changes nothing
    else: vertex and face order set which polygon the linear point location
    finds first and how ties fall, so they stay fixed to keep the work the
    same for every seed."""
    rng = random.Random(seed)
    origin = (rng.randrange(1000), rng.randrange(1000))
    verts, faces = _square_cells(cells)
    write_obj(out / "surface.obj", verts, faces, origin)
    if is_open is not None:
        write_obj(out / "walls.obj", *_boundary_walls(verts, faces, is_open), origin)


def corridor_surface(out: Path, seed: int, length: int = CORRIDOR_LENGTH) -> tuple[str, dict]:
    """The straight corridor: `length` unit squares in a row, both short ends
    open, side walls."""
    cells = [(i, 0) for i in range(length)]
    _surface_files(out, seed, cells, lambda m: m[0] in (0.0, float(length)))
    return "extract", {"surface": str(out / "surface.obj"),
                       "blockers": str(out / "walls.obj"), "terminals": "entry-exit"}


def level_surface(out: Path, seed: int, size: int = LEVEL_SIZE,
                  doorways_per_side: int = LEVEL_DOORWAYS_PER_SIDE) -> tuple[str, dict]:
    """A square level with a lattice of walled pillar holes and one-cell
    doorways evenly spaced along each outer wall."""
    pitch = LEVEL_PILLAR_PITCH
    pillars = {(x, y) for x in range(2, size, pitch) for y in range(2, size, pitch)}
    cells = [(x, y) for y in range(size) for x in range(size) if (x, y) not in pillars]
    # doorway cells along each side, never at a corner
    span = size - 4
    offsets = [2 + round(i * span / (doorways_per_side - 1)) for i in range(doorways_per_side)]
    s = float(size)
    mids = set()
    for k in offsets:
        c = k + 0.5
        mids |= {(c, 0.0), (s, c), (c, s), (0.0, c)}
    _surface_files(out, seed, cells, lambda m: m in mids)
    return "analyze", {"surface": str(out / "surface.obj"),
                       "blockers": str(out / "walls.obj"), "terminals": "entry-exit"}


def grid_metric(out: Path, seed: int, size: int = GRID_SIZE) -> tuple[str, dict]:
    """An open size x size grid of unit squares with no blocker mesh."""
    cells = [(x, y) for y in range(size) for x in range(size)]
    _surface_files(out, seed, cells)
    return "extract", {"surface": str(out / "surface.obj"),
                       "terminals": "metric", "metric": "eigenvector", "k": 8}


# ---------------------------------------------------------------------------
# maze graph
# ---------------------------------------------------------------------------

def _maze_links(n: int, rng: random.Random) -> set[tuple[int, int]]:
    """Spanning tree of the n x n lattice carved by randomized depth-first
    search; node id = y * n + x."""
    links = set()
    seen = [False] * (n * n)
    seen[0] = True
    stack = [0]
    while stack:
        v = stack[-1]
        x, y = v % n, v // n
        nbrs = [u for u, ok in ((v + 1, x + 1 < n), (v - 1, x > 0),
                                (v + n, y + 1 < n), (v - n, y > 0)) if ok and not seen[u]]
        if not nbrs:
            stack.pop()
            continue
        u = rng.choice(nbrs)
        seen[u] = True
        links.add((min(u, v), max(u, v)))
        stack.append(u)
    return links


def maze_graph(out: Path, seed: int, size: int = MAZE_SIZE) -> tuple[str, dict]:
    """A size x size lattice maze as graph JSON (unit edge weights) and a
    blocker mesh with one wall quad across every lattice link the maze does
    not use."""
    rng = random.Random(seed)
    n = size
    links = _maze_links(n, rng)
    graph = {
        "nodes": [{"pos": [float(v % n), float(v // n), 0.0]} for v in range(n * n)],
        "edges": [[i, j, 1.0] for i, j in sorted(links)],
    }
    (out / "maze.json").write_text(json.dumps(graph, separators=(",", ":")) + "\n")
    wall_verts: list = []
    wall_faces: list = []
    for v in range(n * n):
        x, y = v % n, v // n
        if x + 1 < n and (v, v + 1) not in links:
            _wall_quad(wall_verts, wall_faces, (x + 0.5, y - 0.5), (x + 0.5, y + 0.5))
        if y + 1 < n and (v, v + n) not in links:
            _wall_quad(wall_verts, wall_faces, (x - 0.5, y + 0.5), (x + 0.5, y + 0.5))
    write_obj(out / "walls.obj", wall_verts, wall_faces)
    return "analyze", {"graph": str(out / "maze.json"),
                       "blockers": str(out / "walls.obj"), "terminals": "leaves"}


WORKLOADS = {
    "maze-graph": maze_graph,
    "corridor-surface": corridor_surface,
    "level-surface": level_surface,
    "grid-metric": grid_metric,
}


def generate(workload: str, seed: int, out: Path) -> tuple[str, dict]:
    """Write the inputs of `workload` for `seed` into `out` and return the
    subcommand and options that read them."""
    out.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[workload](out, seed)
