"""End-to-end extraction pipeline with per-stage instrumentation.

Stages: build the surface graph, pick terminals, connect them with an
approximate Steiner tree, root the result by centrality, simplify under
visibility constraints, and (in analysis mode) recolor the final structure
with betweenness and density classes.
"""
from __future__ import annotations

import logging
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields

from .algorithms import compute_centrality, CentralityScores, CENTRALITY_METRICS
from .analysis import AnalysisReport, StageRecord, density_classes, forest_to_graph
from .errors import ValidationError
from .graph import SurfaceGraph, graph_from_navmesh, load_graph_json, relabel_dense
from .mesh import (
    PLANE_EPS, BlockerMesh, WalkableSurface, load_blocker_mesh, load_walkable_surface,
)
from .raycast import segment_clear
from .steiner import SteinerTree, build_steiner_tree
from .terminals import (
    DEFAULT_HEIGHT_TOL, DEFAULT_INTERVAL, DEFAULT_RADIUS, DEFAULT_RAY_COUNT, DEFAULT_SHARPNESS_DEG,
    TerminalSet, entry_exit_terminals, terminals_from_metric,
)
from .trees import (
    DEFAULT_NORMAL_TOL_DEG, RootedTree, SimplifyConfig, find_rooted_trees, simplify_tree,
)

log = logging.getLogger("navstruct")

TERMINAL_METHODS = ("entry-exit", "leaves", "metric")
CENTRALITY_WEIGHTS = ("euclidean", "unit")

STAGE_INITIAL = "initial-graph"
STAGE_TERMINALS = "terminals"
STAGE_STEINER = "steiner"
STAGE_ROOTING = "rooting"
STAGE_SIMPLIFY = "simplify"
STAGE_POST = "post-process"


def _option(default, help_text: str, choices: tuple[str, ...] | None = None):
    """A tuning field; the CLI makes one flag of it with this help text."""
    return field(default=default, metadata={"help": help_text, "choices": choices})


@dataclass
class PipelineConfig:
    surface_path: str | None = None
    blockers_path: str | None = None
    graph_path: str | None = None
    weld_eps: float = _option(0.0, "merge surface vertices closer than this (0 disables)")
    plane_eps: float = _option(PLANE_EPS, "planarity/convexity tolerance")
    terminals: str = _option("entry-exit", "terminal selection method", TERMINAL_METHODS)
    metric: str = _option("degree", "centrality for --terminals metric", CENTRALITY_METRICS)
    k: int = _option(4, "terminal count for --terminals metric")
    interval: float = _option(DEFAULT_INTERVAL, "boundary sampling interval (world units)")
    radius: float = _option(DEFAULT_RADIUS, "classification ray length")
    ray_count: int = _option(DEFAULT_RAY_COUNT, "rays per classification fan")
    sharpness_deg: float = _option(DEFAULT_SHARPNESS_DEG, "segment-breaking turn angle")
    exit_offset: float = _option(0.0, "push entry/exit nodes outward by this distance")
    normal_tol_deg: float = _option(DEFAULT_NORMAL_TOL_DEG, "collapse normal-angle tolerance")
    los_height_tol: float = _option(DEFAULT_HEIGHT_TOL, "line-of-sight height tolerance")
    root_metric: str = _option(
        "betweenness", "centrality used to pick roots", CENTRALITY_METRICS
    )
    centrality_weights: str = _option(
        "euclidean",
        "betweenness edge weights; read only on a graph with a cycle (Steiner always "
        "uses edge weights, and on a forest betweenness does not depend on them)",
        CENTRALITY_WEIGHTS,
    )
    katz_alpha: float | None = _option(
        None, "attenuation for katz centrality (default 0.9/spectral-radius)"
    )
    density_buckets: int = _option(3, "density class count for analyze mode")
    analyze: bool = False
    experiment: str = "run"

    def validate(self, *, loaded: bool = False) -> None:
        if not loaded:
            if (self.surface_path is None) == (self.graph_path is None):
                raise ValidationError(
                    "exactly one of surface or graph input must be supplied"
                )
            if self.terminals == "entry-exit" and self.surface_path is None:
                raise ValidationError("entry-exit terminals require a surface input")
        if self.terminals not in TERMINAL_METHODS:
            raise ValidationError(f"unknown terminal method {self.terminals!r}")
        if self.metric not in CENTRALITY_METRICS:
            raise ValidationError(f"unknown terminal metric {self.metric!r}")
        if self.root_metric not in CENTRALITY_METRICS:
            raise ValidationError(f"unknown root metric {self.root_metric!r}")
        if self.centrality_weights not in CENTRALITY_WEIGHTS:
            raise ValidationError(
                f"centrality weights must be 'euclidean' or 'unit', got {self.centrality_weights!r}"
            )
        for name in ("interval", "radius", "sharpness_deg", "los_height_tol", "plane_eps"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValidationError(f"{name} must be positive and finite")
        for name in ("weld_eps", "exit_offset"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValidationError(f"{name} must be >= 0 and finite")
        if self.ray_count < 1:
            raise ValidationError("ray_count must be >= 1")
        if self.k < 1:
            raise ValidationError("k must be >= 1")
        if not (0.0 < self.normal_tol_deg < 90.0):
            raise ValidationError("normal_tol_deg must be in (0, 90)")
        if self.density_buckets < 2:
            raise ValidationError("density_buckets must be >= 2")

    def simplify_config(self) -> SimplifyConfig:
        return SimplifyConfig(
            normal_tolerance_deg=self.normal_tol_deg,
            los_height_tolerance=self.los_height_tol,
        )


# the options a user tunes, one CLI flag each, in flag order
TUNING_FIELDS = tuple(f for f in fields(PipelineConfig) if "help" in f.metadata)


@dataclass
class PipelineResult:
    forest: list[RootedTree]
    report: AnalysisReport
    graph: SurfaceGraph
    steiner: SteinerTree
    terminal_set: TerminalSet
    analysis_graph: SurfaceGraph | None = None


def _root_scores(g: SurfaceGraph, tree: SteinerTree, cfg: PipelineConfig) -> CentralityScores:
    """Centrality of the Steiner tree's own nodes, scattered into an array
    indexed by the full graph's node ids."""
    sub = relabel_dense({v: g.nodes[v] for v in tree.nodes}, tree.edges)
    weighted = cfg.centrality_weights == "euclidean"
    sub_scores = compute_centrality(
        sub, cfg.root_metric, weighted=weighted, alpha=cfg.katz_alpha
    )
    values = [0.0] * len(g.nodes)
    for orig, dense in sub.node_index.items():
        values[orig] = sub_scores.values[dense]
    return CentralityScores(
        metric=sub_scores.metric, values=values, params=sub_scores.params
    )


@contextmanager
def _stage(stages: list[StageRecord], name: str):
    """Time the block as stage `name`; the block may fill in the record's
    node, edge and terminal counts.  The record is appended on success."""
    record = StageRecord(name=name, millis=0.0)
    t0 = time.perf_counter_ns()
    yield record
    record.millis = (time.perf_counter_ns() - t0) / 1e6
    stages.append(record)


def run_pipeline(
    cfg: PipelineConfig,
    surface: WalkableSurface | None = None,
    blockers: BlockerMesh | None = None,
    graph: SurfaceGraph | None = None,
) -> PipelineResult:
    """Run the extraction stages on already-loaded inputs."""
    cfg.validate(loaded=True)
    if (surface is None) == (graph is None):
        raise ValidationError("exactly one of surface or graph must be supplied")
    if cfg.terminals == "entry-exit" and surface is None:
        raise ValidationError("entry-exit terminals require a surface input")

    stages: list[StageRecord] = []

    with _stage(stages, STAGE_INITIAL) as rec:
        g = graph_from_navmesh(surface) if surface is not None else graph
        rec.nodes, rec.edges = len(g.nodes), len(g.edges)

    with _stage(stages, STAGE_TERMINALS) as rec:
        if cfg.terminals == "entry-exit":
            g, term_set = entry_exit_terminals(
                g, surface, blockers,
                interval=cfg.interval, radius=cfg.radius, ray_count=cfg.ray_count,
                sharpness_deg=cfg.sharpness_deg, exit_offset=cfg.exit_offset,
                height_tol=cfg.los_height_tol,
            )
        else:
            term_set = terminals_from_metric(
                g, cfg.terminals, metric=cfg.metric, k=cfg.k,
                weighted=cfg.centrality_weights == "euclidean", alpha=cfg.katz_alpha,
            )
        rec.nodes, rec.edges = len(g.nodes), len(g.edges)
        rec.terminals = len(term_set.node_ids)

    with _stage(stages, STAGE_STEINER) as rec:
        stree = build_steiner_tree(g, term_set)
        rec.nodes, rec.edges = len(stree.nodes), len(stree.edges)

    with _stage(stages, STAGE_ROOTING):
        scores = _root_scores(g, stree, cfg)
        forest = find_rooted_trees(stree, g, scores, centroid=g.centroid())

    with _stage(stages, STAGE_SIMPLIFY) as rec:
        simplify_cfg = cfg.simplify_config()
        if surface is not None:
            forest = [simplify_tree(t, surface, simplify_cfg) for t in forest]
        elif blockers is not None:
            los = lambda a, c: segment_clear(blockers, a, c)  # noqa: E731
            forest = [simplify_tree(t, None, simplify_cfg, los=los) for t in forest]
        else:
            log.warning("no surface or blocker mesh: simplification skipped")
        rec.nodes = sum(t.size() for t in forest)
        rec.edges = rec.nodes - len(forest)

    node_analysis = None
    thresholds = None
    analysis_graph = None
    with _stage(stages, STAGE_POST):
        if cfg.analyze:
            analysis_graph = forest_to_graph(forest)
            between = compute_centrality(
                analysis_graph, "betweenness",
                weighted=cfg.centrality_weights == "euclidean",
            )
            classes = density_classes(between.values, cfg.density_buckets)
            thresholds = classes.thresholds
            reverse = {dense: orig for orig, dense in analysis_graph.node_index.items()}
            node_analysis = [
                {
                    "id": reverse[k],
                    "position": [float(x) for x in analysis_graph.nodes[k].position],
                    "betweenness": between.values[k],
                    "density": classes.labels[k],
                }
                for k in range(len(analysis_graph.nodes))
            ]

    report = AnalysisReport(
        experiment=cfg.experiment,
        stages=stages,
        total_millis=sum(s.millis for s in stages),
        node_analysis=node_analysis,
        density_thresholds=thresholds,
    )
    return PipelineResult(
        forest=forest, report=report, graph=g, steiner=stree,
        terminal_set=term_set, analysis_graph=analysis_graph,
    )


def run_extract(cfg: PipelineConfig) -> PipelineResult:
    """Load configured inputs from disk and run the pipeline."""
    cfg.validate()
    surface = None
    blockers = None
    graph = None
    if cfg.surface_path is not None:
        surface = load_walkable_surface(
            cfg.surface_path, plane_eps=cfg.plane_eps, weld_eps=cfg.weld_eps
        )
    if cfg.blockers_path is not None:
        blockers = load_blocker_mesh(cfg.blockers_path)
    if cfg.graph_path is not None:
        graph = load_graph_json(cfg.graph_path)
    return run_pipeline(cfg, surface=surface, blockers=blockers, graph=graph)
