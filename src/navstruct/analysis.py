"""Map-analysis helpers: forest-to-graph conversion, density classes, and
per-stage run reports."""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateEdge, ValidationError
from .graph import GraphNode, SurfaceGraph
from .mesh import _row_dots
from .trees import RootedTree

# most density classes one run may ask for
MAX_DENSITY_BUCKETS = 1000


def forest_to_graph(forest: list[RootedTree]) -> SurfaceGraph:
    """Rebuild a dense graph from rooted trees: one node per tree node, one
    edge per parent-child pair, weighted by Euclidean distance, each as
    np.linalg.norm gives it (see mesh._row_dots).

    Dense id k is the k-th smallest node id in the forest; the payload
    objects are shared.  The first fault in tree order raises: a node that
    an earlier tree holds (ValidationError) or a zero-length edge
    (DegenerateEdge), a tree's nodes checked before its edges.
    """
    payloads: dict[int, GraphNode] = {}
    edges: list[tuple[int, int]] = []
    for tree in forest:
        for v in tree.node_ids():
            if v in payloads:
                _dense_edges(payloads, edges)  # an earlier tree's fault comes first
                raise ValidationError(f"node {v} appears in more than one tree")
            payloads[v] = tree.payloads[v]
        edges += tree.edge_list()
    return SurfaceGraph(*_dense_edges(payloads, edges))


def _dense_edges(
    payloads: dict[int, GraphNode], edges: list[tuple[int, int]]
) -> tuple[list[GraphNode], np.ndarray]:
    """The payloads in ascending id order, and the (p, c) edges as (E, 3)
    rows of dense ids and length; DegenerateEdge names the first edge
    shorter than 1e-12.  Every edge end must be a key of `payloads`."""
    ids = sorted(payloads)
    nodes = [payloads[v] for v in ids]
    ends = np.searchsorted(ids, np.array(edges, dtype=np.intp).reshape(-1, 2))
    positions = np.array([node.position for node in nodes], dtype=float).reshape(-1, 3)
    d = positions[ends[:, 0]] - positions[ends[:, 1]]
    lengths = np.sqrt(_row_dots(d, d))
    short = np.flatnonzero(lengths < 1e-12)
    if len(short):
        p, c = edges[short[0]]
        raise DegenerateEdge(f"tree edge ({p}, {c}) has zero length")
    return nodes, np.column_stack((ends, lengths))


@dataclass
class DensityClasses:
    labels: list[str]       # per node
    thresholds: list[float]


_TERCILE_NAMES = ("low", "medium", "high")


def density_classes(values: list[float], buckets: int = 3) -> DensityClasses:
    """Rank-based density buckets (terciles by default).

    Thresholds sit at the rank-ceil(i*n/buckets) values of the sorted scores;
    a node's class is the first bucket whose threshold its value does not
    exceed.  Equal values therefore always share a class, and with all values
    equal every node lands in the lowest bucket.
    """
    if not 2 <= buckets <= MAX_DENSITY_BUCKETS:
        raise ValidationError(
            f"density bucket count must be >= 2 and <= {MAX_DENSITY_BUCKETS}, got {buckets}"
        )
    n = len(values)
    if n == 0:
        return DensityClasses(labels=[], thresholds=[])
    order = sorted(range(n), key=lambda v: (values[v], v))
    thresholds = []
    for i in range(1, buckets):
        rank = -(-i * n // buckets) - 1  # ceil(i*n/buckets) - 1
        thresholds.append(float(values[order[rank]]))
    names = (
        _TERCILE_NAMES if buckets == 3 else tuple(f"b{k}" for k in range(buckets))
    )
    # the first threshold >= the value; past the last, the top bucket
    labels = [names[bisect_left(thresholds, x)] for x in values]
    return DensityClasses(labels=labels, thresholds=thresholds)


@dataclass
class StageRecord:
    name: str
    millis: float
    nodes: int | None = None
    edges: int | None = None
    terminals: int | None = None


@dataclass
class AnalysisReport:
    experiment: str
    stages: list[StageRecord]
    total_millis: float
    node_analysis: list[dict] | None = None
    density_thresholds: list[float] | None = None

    def stage(self, name: str) -> StageRecord:
        for s in self.stages:
            if s.name == name:
                return s
        raise KeyError(name)


def render_report_text(report: AnalysisReport) -> str:
    """Human-readable stage table (integer milliseconds)."""
    header = f"{'stage':<16} {'ms':>8} {'nodes':>7} {'edges':>7} {'terminals':>9}"
    lines = [f"experiment: {report.experiment}", header, "-" * len(header)]
    for s in report.stages:
        lines.append(
            f"{s.name:<16} {round(s.millis):>8d} "
            f"{s.nodes if s.nodes is not None else '-':>7} "
            f"{s.edges if s.edges is not None else '-':>7} "
            f"{s.terminals if s.terminals is not None else '-':>9}"
        )
    lines.append("-" * len(header))
    lines.append(f"{'total':<16} {round(report.total_millis):>8d}")
    if report.density_thresholds is not None:
        pretty = ", ".join(f"{t:.6g}" for t in report.density_thresholds)
        lines.append(f"density thresholds: [{pretty}]")
    return "\n".join(lines) + "\n"


def report_to_dict(report: AnalysisReport) -> dict:
    out: dict = {
        "experiment": report.experiment,
        "stages": [
            {
                "name": s.name,
                "millis": round(s.millis, 3),
                **({"nodes": s.nodes} if s.nodes is not None else {}),
                **({"edges": s.edges} if s.edges is not None else {}),
                **({"terminals": s.terminals} if s.terminals is not None else {}),
            }
            for s in report.stages
        ],
        "total_millis": round(report.total_millis, 3),
    }
    if report.node_analysis is not None:
        out["node_analysis"] = report.node_analysis
    if report.density_thresholds is not None:
        out["density_thresholds"] = report.density_thresholds
    return out
