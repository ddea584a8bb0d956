"""The benchmark's tracer patches navstruct names from outside and silently
skips any that no longer exist, which would zero that layer's metrics.  This
test fails instead when a refactor moves or renames a patch point."""
import importlib.util
from pathlib import Path

from navstruct import raycast, steiner
from navstruct.fixtures import maze_graph, straight_corridor
from navstruct.graph import graph_from_navmesh
from navstruct.terminals import TerminalSet, entry_exit_terminals, terminals_from_metric

TRACING = Path(__file__).resolve().parents[1] / "navbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("navbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_patch_point_resolves():
    tracing = _load_tracing()
    points = [(owner, attr) for owner, attr, *_ in tracing.SPANS + tracing.COUNTED]
    assert points
    missing = []
    for owner, attr in points:
        obj = tracing._resolve(owner)
        # the tracer reads class attributes from __dict__, module names with getattr
        found = attr in obj.__dict__ if isinstance(obj, type) else hasattr(obj, attr)
        if not found:
            missing.append(f"{owner}.{attr}")
    assert missing == []


def test_fan_rays_look_up_first_hit_through_the_raycast_module(monkeypatch):
    calls = []
    original = raycast.first_hit

    def counting(*args):
        hits = original(*args)
        calls.append((args, hits))
        return hits

    monkeypatch.setattr(raycast, "first_hit", counting)
    surface, blockers = straight_corridor(4)
    entry_exit_terminals(graph_from_navmesh(surface), surface, blockers, interval=1.0)
    # one batch casts both fans of every boundary sample: 10 samples, 5 rays
    # each way, the backward fan as the negation of the forward one
    assert len(calls) == 1
    (args, hits), = calls
    assert args[2].shape == (10, 5, 3)
    assert hits.shape == (10, 10)


def test_steiner_makes_one_dijkstra_tree_call_from_all_terminals(monkeypatch):
    calls = []
    original = steiner.dijkstra_tree

    def counting(g, sources):
        calls.append(list(sources))
        return original(g, sources)

    monkeypatch.setattr(steiner, "dijkstra_tree", counting)
    g = maze_graph(6, 6)
    leaves = terminals_from_metric(g, "leaves").node_ids
    terminals = TerminalSet(node_ids=leaves[::-1] + leaves[:2])
    steiner.build_steiner_tree(g, terminals)
    assert len(leaves) > 2
    assert calls == [sorted(set(leaves))]
