"""Pinned output bytes: refactors must leave extraction results unchanged.

Each case runs the whole pipeline on a built-in fixture and compares the
SHA-256 of the canonical structure JSON and of the analyze-mode node
analysis against recorded digests.  A change that moves any of them must
say why and update the digest.
"""
import hashlib

import pytest

from navstruct.export import canonical_json, structure_json_bytes
from navstruct.fixtures import grid_surface, maze_graph, plus_hub, straight_corridor
from navstruct.pipeline import PipelineConfig, run_pipeline


def _corridor():
    surface, blockers = straight_corridor(12)
    return PipelineConfig(terminals="entry-exit", interval=1.0, analyze=True), {
        "surface": surface, "blockers": blockers}


def _hub():
    surface, blockers = plus_hub(2)
    return PipelineConfig(terminals="entry-exit", analyze=True), {
        "surface": surface, "blockers": blockers}


def _maze():
    return PipelineConfig(terminals="leaves", analyze=True), {
        "graph": maze_graph(12, 12, seed=3)}


def _grid():
    return PipelineConfig(terminals="metric", metric="eigenvector", k=4, analyze=True), {
        "surface": grid_surface(10, 10)}


@pytest.mark.parametrize("case, structure_sha, analysis_sha", [
    (_corridor,
     "765ab71a07a4af30193fec0f8bd56e27d1ba3e581e9644633312e150105b11f7",
     "39da0159d8a6797b0e0ba7e4fb79ca113a72759b20495dbccbd6a9b69311e620"),
    (_hub,
     "dddb9b2fe6ffa1460224d7c1eca5818c78728476f3ca8b457d5afa29c04ceec1",
     "0d4c04a528598aa8c053fdc81f194cd8579fbc5d98086b39992decee4ffe46a6"),
    (_maze,
     "e4b2afdfb33c3ab42508b8d34575ac7dc193bb3b1f99d229590746bcddecb3ba",
     "389c3c423a61019b21eb3f70f75ec035bb7bf22cc7544b88bb4882b87fd53ea8"),
    (_grid,
     "fa2dcb543236199b9f48709ee58a98915b2579c8212ed414c3d82064b04b4c8a",
     "868ca1dbda098bc81ddbd6168891335623cd7cd537110d41e4dcd2db81389d15"),
], ids=["corridor12", "plus_hub2", "maze12", "grid10-eigenvector"])
def test_pipeline_output_bytes_are_pinned(case, structure_sha, analysis_sha):
    cfg, inputs = case()
    result = run_pipeline(cfg, **inputs)
    structure = hashlib.sha256(structure_json_bytes(result.forest)).hexdigest()
    analysis = hashlib.sha256(
        canonical_json(result.report.node_analysis).encode("utf-8")
    ).hexdigest()
    assert structure == structure_sha
    assert analysis == analysis_sha
