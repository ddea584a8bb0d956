import random
import signal
from contextlib import contextmanager

import pytest

from navstruct import mesh
from navstruct.fixtures import maze_graph, plus_hub, straight_corridor
from navstruct.mesh import build_blocker_mesh


@pytest.fixture(scope="session")
def corridor():
    """12-square straight corridor with side walls and 2 open ends."""
    return straight_corridor(12)


@pytest.fixture(scope="session")
def hub():
    """Plus-shaped hub with 4 open arm ends."""
    return plus_hub(2)


@pytest.fixture()
def rng():
    return random.Random(20260823)


@pytest.fixture()
def plain_obj_reads(monkeypatch):
    """The outcome of every call of the OBJ reader's numpy path, in call
    order: True when it read the text, False when it left it to the
    per-line reader."""
    outcomes = []
    plain_obj = mesh._plain_obj

    def spy(lines):
        out = plain_obj(lines)
        outcomes.append(out is not None)
        return out

    monkeypatch.setattr(mesh, "_plain_obj", spy)
    return outcomes


@contextmanager
def _time_limit(seconds):
    def expire(_signum, _frame):
        raise TimeoutError(f"took longer than {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture()
def time_limit():
    """`with time_limit(seconds):` fails, rather than hangs, when the block
    runs longer than `seconds` (SIGALRM, main thread only)."""
    return _time_limit


def _maze_walls(nx: int, ny: int, seed: int):
    """`maze_graph(nx, ny, seed)` and a wall quad, as two triangles, across
    each lattice link the maze does not use."""
    g = maze_graph(nx, ny, seed)
    used = {(a, b) for a, b, _ in g.edges}
    verts, tris = [], []
    for y in range(ny):
        for x in range(nx):
            for dx, dy in ((1, 0), (0, 1)):
                a, b = y * nx + x, (y + dy) * nx + x + dx
                if x + dx == nx or y + dy == ny or (a, b) in used:
                    continue
                mx, my = x + 0.5 * dx, y + 0.5 * dy
                hx, hy = 0.5 * dy, 0.5 * dx
                base = len(verts)
                verts += [(mx - hx, my - hy, -0.5), (mx + hx, my + hy, -0.5),
                          (mx + hx, my + hy, 1.0), (mx - hx, my - hy, 1.0)]
                tris += [(base, base + 1, base + 2), (base, base + 2, base + 3)]
    return g, build_blocker_mesh(verts, tris)


@pytest.fixture()
def maze_walls():
    """`maze_walls(nx, ny, seed)` gives the maze graph and its wall mesh."""
    return _maze_walls
