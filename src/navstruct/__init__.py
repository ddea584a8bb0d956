"""Extract simplified hierarchical tree structures from walkable-surface
geometry.

The pipeline builds a surface graph from a polygon mesh (or a sampled /
pre-built graph), selects terminal nodes, connects them with an approximate
Steiner tree, roots the tree at its most central node, and collapses interior
nodes that are redundant under line-of-sight and surface-normal constraints.

The package exports the pipeline and its stages; every other name lives in
its module (`navstruct.mesh`, `navstruct.graph`, `navstruct.errors`, ...).
"""
from .graph import graph_from_navmesh
from .pipeline import PipelineConfig, run_pipeline
from .steiner import build_steiner_tree
from .terminals import entry_exit_terminals, terminals_from_metric
from .trees import find_rooted_trees, simplify_tree, verify_removals

__version__ = "0.1.0"

__all__ = [
    "PipelineConfig",
    "build_steiner_tree",
    "entry_exit_terminals",
    "find_rooted_trees",
    "graph_from_navmesh",
    "run_pipeline",
    "simplify_tree",
    "terminals_from_metric",
    "verify_removals",
]
