"""Winding signs and line-of-sight answers on tilted and vertical surfaces.

The winding test checks the per-polygon signs derived from the Newell normals
against a shoelace oracle.  The line-of-sight test pins the answers for
seeded point pairs on surfaces where the walk clips polygons whose own
dominant normal axis differs from the starting polygon's, on the ramp and on
a vertical strip wound either way.
"""
import hashlib
import random

import numpy as np
import pytest

from navstruct.fixtures import (
    grid_surface, l_corridor, plus_hub, ramp_corridor, ring_surface, straight_corridor,
    vertical_strip,
)
from navstruct.mesh import build_walkable_surface
from navstruct.oracles import shoelace_sign
from navstruct.trees import surface_los


def reversed_surface(surface):
    """The same polygons with every ring wound the other way."""
    return build_walkable_surface(surface.vertices, [ring[::-1] for ring in surface.polygons])


SURFACES = {
    "corridor12": lambda: straight_corridor(12)[0],
    "plus_hub2": lambda: plus_hub(2)[0],
    "l_corridor": l_corridor,
    "ring": ring_surface,
    "grid6x6": lambda: grid_surface(6, 6),
    "ramp30": lambda: ramp_corridor(30.0),
    "ramp60": lambda: ramp_corridor(60.0),
    "ramp80": lambda: ramp_corridor(80.0),
    "strip": vertical_strip,
}


@pytest.mark.parametrize("name", sorted(SURFACES))
@pytest.mark.parametrize("flip", [False, True], ids=["as-built", "reversed"])
def test_winding_signs_match_the_shoelace_oracle(name, flip):
    surface = SURFACES[name]()
    if flip:
        surface = reversed_surface(surface)
    checked = 0
    for pid, ring in enumerate(surface.polygons):
        n = surface.polygon_normals[pid]
        for axis in range(3):
            if 0.0 < abs(n[axis]) <= 1e-6:
                continue  # the projection's area is rounding noise
            # an exactly zero component is an exactly zero shoelace sum here,
            # which counts as counter-clockwise
            keep = [k for k in range(3) if k != axis]
            expected = shoelace_sign(surface.vertices[ring][:, keep])
            assert surface.polygon_winding[pid, axis] == expected, (pid, axis)
            checked += 1
    assert checked >= len(surface.polygons)


def _point_on(surface, pid, rng):
    """A random convex combination of the polygon's corners."""
    weights = [rng.random() + 1e-3 for _ in surface.polygons[pid]]
    total = sum(weights)
    pts = surface.vertices[surface.polygons[pid]]
    return sum(w / total * p for w, p in zip(weights, pts))


def _los_answers(surface, seed: int, pairs: int = 150) -> str:
    """'T' or 'F' for seeded point pairs: both points on random polygons, or
    the second one jittered off its polygon."""
    rng = random.Random(seed)
    count = len(surface.polygons)
    out = []
    for _ in range(pairs):
        a = _point_on(surface, rng.randrange(count), rng)
        c = _point_on(surface, rng.randrange(count), rng)
        if rng.random() < 0.3:
            c = c + np.array([rng.uniform(-0.7, 0.7) for _ in range(3)])
        out.append("T" if surface_los(surface, a, c) else "F")
    return "".join(out)


@pytest.mark.parametrize("name, make, digest", [
    ("ramp60", lambda: ramp_corridor(60.0),
     "3b9bb36540ee6e0c3b771c3973a04438dba8ddf4cc6b4ca268ae9232d0896912"),
    ("ramp80", lambda: ramp_corridor(80.0),
     "6e546ecd9e988caea51655483160f6ab3b79d3013ca34a2e0c248b46478d4e60"),
    ("strip", lambda: vertical_strip(),
     "b76b57cfb4ab7eb5e233191eba6d3ecbc774c205d2845b178c1424c859de0937"),
    ("strip-reversed", lambda: vertical_strip(reverse=True),
     "588038db40b4be6c1fb355fb83f51673cff44a81a7d3943bc40683300b5c833d"),
], ids=["ramp60", "ramp80", "strip", "strip-reversed"])
def test_los_answers_are_pinned(name, make, digest):
    answers = _los_answers(make(), seed=sum(map(ord, name)))
    assert "T" in answers and "F" in answers
    assert hashlib.sha256(answers.encode("ascii")).hexdigest() == digest
