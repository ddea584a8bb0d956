"""The array-pass surface builder against the per-polygon reference: equal
fields on valid surfaces, equal ValidationError texts on faulty ones."""
import importlib.util
import warnings
from pathlib import Path

import numpy as np
import pytest

from navstruct import fixtures
from navstruct.errors import ValidationError
from navstruct.mesh import _parse_geometry, build_walkable_surface
from navstruct.oracles import (
    build_differences,
    build_walkable_surface_per_polygon,
    faulty_ring_surface,
    locate_point_linear,
    random_ring_surface,
)

ROOT = Path(__file__).resolve().parents[1]


def _navbench_gen():
    spec = importlib.util.spec_from_file_location("navbench_gen", ROOT / "navbench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


FIXTURES = {
    "grid": lambda: fixtures.grid_surface(5, 4),
    "corridor": lambda: fixtures.straight_corridor(7)[0],
    "plus-hub": lambda: fixtures.plus_hub(2)[0],
    "l-corridor": fixtures.l_corridor,
    "ring": fixtures.ring_surface,
    "stacked-floors": fixtures.stacked_floors,
    "vertical-strip": fixtures.vertical_strip,
    "vertical-strip-reversed": lambda: fixtures.vertical_strip(reverse=True),
    "ramp-30": lambda: fixtures.ramp_corridor(30.0),
    "ramp-60": lambda: fixtures.ramp_corridor(60.0),
    "ramp-80": lambda: fixtures.ramp_corridor(80.0),
}


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_surfaces_match_the_reference(name):
    surface = FIXTURES[name]()
    assert build_differences(surface.vertices, surface.polygons) == []


def test_random_convex_rings_match_the_reference():
    """Rings of 3 to 12 corners, mixed in one surface, flat, vertical and
    tilted, some reversed, some sharing a chord."""
    nprng = np.random.default_rng(11)
    sizes = set()
    for _ in range(60):
        verts, rings = random_ring_surface(nprng)
        sizes.update(map(len, rings))
        assert build_differences(verts, rings) == []
        assert build_differences(verts, rings, plane_eps=1e-6) == []
    assert sizes == set(range(3, 13))


@pytest.mark.parametrize("workload, size", [
    ("corridor_surface", 10), ("level_surface", 12), ("grid_metric", 8),
])
def test_navbench_surfaces_match_the_reference(tmp_path, workload, size):
    getattr(_navbench_gen(), workload)(tmp_path, 3, size)
    verts, rings = _parse_geometry(tmp_path / "surface.obj")
    assert build_differences(verts, rings) == []


def test_faulty_surfaces_raise_the_reference_error():
    """One to three faults at random polygon ids: the lowest faulty id and
    its first failing check name the error, as in the reference."""
    nprng = np.random.default_rng(12)
    errors = set()
    for case in range(150):
        verts, rings = faulty_ring_surface(nprng, case % 3 + 1)
        assert build_differences(verts, rings) == [], case
        try:
            build_walkable_surface(verts, rings)
        except ValidationError as exc:
            errors.add(str(exc).split(": ", 1)[1].split(" (")[0].split(" at ")[0])
    assert errors == {
        "ring has fewer than 3 vertices", "vertex index out of range", "ring repeats a vertex",
        "zero-length edge", "degenerate", "non-planar", "non-convex",
        "shared by more than two polygons",
    }


def test_the_first_non_manifold_edge_met_is_named():
    """Two edges with a third ring each: the walk over the ring corners
    meets the third ring of the edge whose extra ring comes first."""
    grid = fixtures.grid_surface(3, 1)
    verts = [*grid.vertices, (1.5, 0.5, 1.0), (2.5, 0.5, 1.0)]
    on_left, on_right = [1, 2, 8], [4, 5, 9]  # on the edges x = 1 and x = 2
    for extra, edge in (([on_left, on_right], (1, 2)), ([on_right, on_left], (4, 5))):
        rings = grid.polygons + extra
        assert build_differences(verts, rings) == []
        with pytest.raises(ValidationError, match=rf"^edge \({edge[0]}, {edge[1]}\): shared"):
            build_walkable_surface(verts, rings)


def test_an_exactly_zero_area_gives_an_infinite_reach_without_a_warning():
    """Far enough out, a corner rounds a centre-edge area to exactly zero:
    the reach is then infinite, so locate_point tests every polygon."""
    surface, _walls = fixtures.straight_corridor(6)
    for x, reach in ((-1e16, 7.5e15), (-1e17, np.inf), (-1e20, np.inf)):
        verts = surface.vertices.copy()
        verts[0, 0] = x
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            far = build_walkable_surface(verts, surface.polygons)
            ref = build_walkable_surface_per_polygon(verts, surface.polygons)
        assert far.polygon_reach == pytest.approx(reach, rel=1e-3)
        assert ref.polygon_reach == far.polygon_reach
        points = [*verts, *far.polygon_centers, (-3.0, 0.2, 0.1), (5.9, 0.9, -0.2),
                  (x / 2, 0.5, 0.0)]
        for tol in (0.05, 0.5):
            assert [far.locate_point(p, tol) for p in points] == [
                locate_point_linear(far, p, tol) for p in points
            ]
