"""Terminal selection: boundary entry/exit detection and graph-metric picks.

Entry/exit detection walks each boundary loop at fixed arc-length intervals,
casts a small ray fan forward and backward along the boundary, and flags
samples whose fan never hits blocker geometry; the fans are cast in batches
of whole samples under a fixed ray budget.  Runs of flagged samples become
segments whose endpoints are registered as new entry/exit graph nodes.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np
from scipy.spatial import cKDTree

from .algorithms import compute_centrality, degree_centrality
from .errors import EmptyTerminalSet, ValidationError
from .graph import SOURCE_ENTRY_EXIT, GraphNode, SurfaceGraph
from .mesh import (
    DEFAULT_HEIGHT_TOL,
    MAX_WRITTEN_COORDINATE,
    BlockerMesh,
    WalkableSurface,
    _check_coordinates,
    _row_dots,
)
from . import raycast

log = logging.getLogger("navstruct")

DEFAULT_INTERVAL = 0.5
DEFAULT_RADIUS = 1.0
DEFAULT_RAY_COUNT = 5
DEFAULT_SHARPNESS_DEG = 45.0

# most boundary samples one surface may take; each one casts two ray fans
MAX_BOUNDARY_SAMPLES = 1_000_000
# most rays one classification fan may cast
MAX_RAY_COUNT = 1000
# most fan rays, both ways, one raycast.first_hit call casts: about 13 MB of
# forward directions and 8 MB of hit distances, where all samples at the caps
# would take 40 GB; it holds at least one whole sample's 2 * MAX_RAY_COUNT rays
FAN_RAY_BUDGET = 1 << 20


@dataclass
class BoundarySamples:
    """The boundary samples as one table: row k is sample k.  Rows run loop
    after loop, each loop in arc order from its first vertex."""

    positions: np.ndarray  # (S, 3)
    tangents: np.ndarray   # (S, 3) unit tangent of the edge the sample lies on
    normals: np.ndarray    # (S, 3) normal of that edge's owning polygon
    loops: np.ndarray      # (S,) boundary loop index

    def __len__(self) -> int:
        return len(self.loops)


@dataclass
class TerminalSet:
    node_ids: list[int]


def sample_boundary(
    surface: WalkableSurface, interval: float = DEFAULT_INTERVAL
) -> BoundarySamples:
    """Samples spaced `interval` apart along each boundary loop.

    A loop of perimeter P yields max(1, floor(P / interval)) samples starting
    at the loop's first vertex.  Each sample carries the tangent of the edge
    it lies on and the normal of that edge's owning polygon.  ValidationError
    when all loops together need more than MAX_BOUNDARY_SAMPLES samples; they
    are counted before any is made.

    Each edge's length is the np.linalg.norm of its vector (the same BLAS
    dot, see `_row_dots`), and a sample is the edge's first vertex plus its
    unit vector times the arc length left on it, so every float is that of
    the written-out per-sample expression.
    """
    if interval <= 0.0:
        raise ValidationError(f"sampling interval must be positive, got {interval}")
    edges = [edge for loop in surface.boundary_edges for edge in loop]
    tails, heads, owners = np.array(edges, dtype=np.intp).reshape(-1, 3).T
    vecs = surface.vertices[heads] - surface.vertices[tails]
    lengths = np.sqrt(_row_dots(vecs, vecs))
    lens = lengths.tolist()
    sizes = [len(loop) for loop in surface.boundary_edges]
    counts = []
    first = 0
    for size in sizes:
        steps = float(sum(lens[first:first + size])) / interval + 1e-9
        # steps past the cap, inf among them, count as inf
        counts.append(max(1, math.floor(steps)) if steps <= MAX_BOUNDARY_SAMPLES else math.inf)
        first += size
    if sum(counts) > MAX_BOUNDARY_SAMPLES:
        raise ValidationError(
            f"boundary sampling at interval {interval:g} needs more than "
            f"{MAX_BOUNDARY_SAMPLES} samples"
        )
    rows: list[int] = []  # per sample, the edge it lies on
    offsets: list[float] = []  # per sample, its arc length along that edge
    first = 0
    for size, count in zip(sizes, counts):
        edge, edge_start_arc = first, 0.0
        for k in range(count):
            arc = k * interval
            while arc - edge_start_arc > lens[edge] - 1e-9 and edge + 1 < first + size:
                edge_start_arc += lens[edge]
                edge += 1
            rows.append(edge)
            offsets.append(arc - edge_start_arc)
        first += size
    on_edge = np.array(rows, dtype=np.intp)
    units = (vecs / lengths[:, None])[on_edge]
    return BoundarySamples(
        positions=surface.vertices[tails[on_edge]] + units * np.array(offsets)[:, None],
        tangents=units,
        normals=surface.polygon_normals[owners[on_edge]],
        loops=np.repeat(np.arange(len(counts)), counts),
    )


def fan_directions(
    samples: BoundarySamples, ray_count: int, rows: slice = slice(None)
) -> np.ndarray:
    """(n, ray_count, 3) directions: for each of the table's `rows`, the
    sample's forward fan, its tangent rotated about its normal through
    ray_count angles spread evenly over +/-45 degrees (the tangent itself for
    one ray).  The backward fan is its exact negation, which is what
    rotating the reversed tangent gives, bit for bit; `raycast.first_hit`
    casts it from the forward fan.

    Rodrigues' rotation, v c + (axis x v) s + axis (axis . v) (1 - c), is
    evaluated in that order with np.cross's expressions for axis x v.  The
    dot products are `_row_dots`, the rounding of one np.dot per sample,
    which a written-out sum does not always match, and the sines and cosines
    are math's."""
    if ray_count == 1:
        angles = [0.0]
    else:
        spread = math.pi / 4.0
        angles = [
            -spread + 2.0 * spread * k / (ray_count - 1) for k in range(ray_count)
        ]
    c = np.array([math.cos(a) for a in angles])
    s = np.array([math.sin(a) for a in angles])
    w = 1.0 - c
    axes, tangents = samples.normals[rows], samples.tangents[rows]
    dots = _row_dots(axes, tangents)[:, None]
    (ax, ay, az), (vx, vy, vz) = axes.T[:, :, None], tangents.T[:, :, None]
    fans = np.empty((len(axes), ray_count, 3))
    fans[..., 0] = vx * c + (ay * vz - az * vy) * s + ax * dots * w
    fans[..., 1] = vy * c + (az * vx - ax * vz) * s + ay * dots * w
    fans[..., 2] = vz * c + (ax * vy - ay * vx) * s + az * dots * w
    return fans


def classify_samples(
    samples: BoundarySamples,
    blockers: BlockerMesh | None,
    radius: float = DEFAULT_RADIUS,
    ray_count: int = DEFAULT_RAY_COUNT,
) -> tuple[np.ndarray, np.ndarray]:
    """(open_ahead, open_behind): per sample, whether its forward (backward)
    ray fan is unobstructed within `radius`, which makes it a potential
    segment start (end).  The forward fans go to `raycast.first_hit`, which
    casts each one and its negation, the backward fan, in runs of whole
    samples, at most FAN_RAY_BUDGET rays per call; each sample's hits
    depend on its own rays alone, so the flags are those of one call over
    every sample.  The table is not changed.  With no blocker mesh every
    sample is open both ways."""
    if radius <= 0.0:
        raise ValidationError(f"classification radius must be positive, got {radius}")
    if not 1 <= ray_count <= MAX_RAY_COUNT:
        raise ValidationError(f"ray count must be >= 1 and <= {MAX_RAY_COUNT}, got {ray_count}")
    if blockers is None or len(blockers.triangles) == 0:
        log.warning("no blocker mesh supplied; every boundary sample is flagged open")
    open_ahead = np.empty(len(samples), dtype=bool)
    open_behind = np.empty(len(samples), dtype=bool)
    step = FAN_RAY_BUDGET // (2 * ray_count)
    for lo in range(0, len(samples), step):
        run = slice(lo, lo + step)
        fans = fan_directions(samples, ray_count, run)
        hit = raycast.first_hit(blockers, samples.positions[run], fans, radius) < math.inf
        open_ahead[run] = ~hit[:, :ray_count].any(axis=1)
        open_behind[run] = ~hit[:, ray_count:].any(axis=1)
    return open_ahead, open_behind


def extract_segments(
    samples: BoundarySamples,
    open_ahead: np.ndarray,
    open_behind: np.ndarray,
    sharpness_deg: float = DEFAULT_SHARPNESS_DEG,
) -> list[tuple[int, int]]:
    """Group classified samples into entry/exit segments, each returned as
    the (first, last) rows of its samples.

    A segment opens at a sample open ahead and extends along its loop; it
    closes after a sample open behind whose successor is not, just before
    the turning angle between consecutive samples exceeds `sharpness_deg`,
    or at the loop's last sample.  The closing sample is included.
    """
    if not (0.0 < sharpness_deg < 180.0):
        raise ValidationError(f"sharpness threshold out of range: {sharpness_deg}")
    cos_limit = math.cos(math.radians(sharpness_deg))
    t = samples.tangents
    # links[k]: sample k + 1 continues a segment through sample k
    links = (
        (samples.loops[1:] == samples.loops[:-1])
        & ~(_row_dots(t[:-1], t[1:]) < cos_limit)  # a NaN turn does not break
        & ~(open_behind[:-1] & ~open_behind[1:])
    ).tolist()
    segments: list[tuple[int, int]] = []
    last = -1
    for first in np.flatnonzero(open_ahead).tolist():
        if first <= last:
            continue  # inside the segment before
        last = first
        while last < len(links) and links[last]:
            last += 1
        segments.append((first, last))
    return segments


def register_terminals(
    g: SurfaceGraph,
    samples: BoundarySamples,
    segments: list[tuple[int, int]],
    surface: WalkableSurface,
    exit_offset: float = 0.0,
    height_tol: float = DEFAULT_HEIGHT_TOL,
) -> tuple[SurfaceGraph, TerminalSet]:
    """Add one graph node per entry/exit position and link it to the nearest
    existing node.

    Each segment (first, last) gives a node at each end sample; its last end
    is dropped when it lies within 1e-9 of its first.  Positions are pushed
    `exit_offset` world units along the boundary's outward direction
    (tangent x surface normal), and a position within 1e-9 of one already
    registered is registered once.  Each new node's polygon is the
    lowest-id walkable polygon its final position lies on within
    `height_tol`, -1 for none.  Returns a new graph of `g`'s edges, read from
    its arcs, and the new links; `g` is untouched.  ValidationError when a
    pushed position or a node lies beyond MAX_WRITTEN_COORDINATE, or when a
    position coincides with its nearest node (within 1e-12).

    Both searches take candidates from a k-d tree and decide on them with
    the expressions of `oracles.register_terminals_per_terminal`, which
    compares each position with every kept one and every node, so the
    answers are its answers, bit for bit.  Within the coordinate limit no
    squared distance overflows, and the tree's distance and numpy's are
    each within a few ulps of the exact norm of the same coordinate
    differences (squares rounded below the normal float range aside):

    - Duplicates: every pair whose np.dot gap norm is below 1e-9 lies
      within 2e-9 by the tree.  A row is dropped when its gap norm to an
      earlier row that was kept is below 1e-9.
    - Nearest node: with d0 the tree's nearest distance from p, the node
      numpy puts nearest, and every node tied with it, lies within
      d0 (1 + 10 eps) by the tree, so within d0 (1 + 1e-9) + 1e-100 (the
      1e-100 covers the squares below the normal range).  Those nodes get
      their np.linalg.norm distances; the least wins, the lowest id first.
    """
    pushed, normals = _end_positions(samples, segments, exit_offset)
    positions = g.positions()
    _check_coordinates(pushed, "entry/exit", MAX_WRITTEN_COORDINATE)
    _check_coordinates(positions, "graph node", MAX_WRITTEN_COORDINATE)
    pairs = cKDTree(pushed).query_pairs(2e-9, output_type="ndarray")
    gaps = pushed[pairs[:, 0]] - pushed[pairs[:, 1]]
    close = pairs[np.sqrt(_row_dots(gaps, gaps)) < 1e-9]  # rows i < j
    keep = [True] * len(pushed)
    for j, i in sorted(close[:, ::-1].tolist()):  # by j, so keep[i] is final
        if keep[i]:
            keep[j] = False  # segments may share endpoints; register once
    rows = np.flatnonzero(keep)
    points = pushed[rows]
    # sliding-midpoint splits build faster than median ones; the answers are the same
    tree = cKDTree(positions, balanced_tree=False, compact_nodes=False)
    d0 = tree.query(points)[0]
    balls = tree.query_ball_point(points, d0 * (1.0 + 1e-9) + 1e-100, return_sorted=True)
    sizes = np.fromiter(map(len, balls), np.intp, len(balls))
    ids = np.fromiter(chain.from_iterable(balls), np.intp, sizes.sum())
    owner = np.repeat(np.arange(len(points)), sizes)
    dists = np.linalg.norm(positions[ids] - points[owner], axis=1)
    # per position its least distance; lexsort is stable and each ball's ids
    # ascend, so ties resolve to the lowest id
    best = np.lexsort((dists, owner))[np.cumsum(sizes) - sizes]
    new_nodes: list[GraphNode] = []
    new_edges: list[tuple[int, int, float]] = []
    for pos, normal, nearest, w in zip(
        points, normals[rows], ids[best].tolist(), dists[best].tolist()
    ):
        if w < 1e-12:
            raise ValidationError(f"entry/exit position coincides with node {nearest}")
        pid = surface.locate_point(pos, height_tol)
        new_edges.append((nearest, len(g.nodes) + len(new_nodes), w))
        new_nodes.append(GraphNode(
            position=pos, normal=normal, polygon=-1 if pid is None else pid,
            source=SOURCE_ENTRY_EXIT,
        ))
    added = list(range(len(g.nodes), len(g.nodes) + len(new_nodes)))
    rows = np.vstack((np.column_stack(g.arcs.ascending()), np.reshape(new_edges, (-1, 3))))
    return SurfaceGraph(g.nodes + new_nodes, rows), TerminalSet(added)


def _end_positions(
    samples: BoundarySamples, segments: list[tuple[int, int]], exit_offset: float
) -> tuple[np.ndarray, np.ndarray]:
    """The position and normal of every segment end, in segment order: each
    end sample pushed `exit_offset` along tangent x normal, with a segment's
    last end left out when it lies within 1e-9 of its first."""
    firsts, lasts = np.array(segments, dtype=np.intp).reshape(-1, 2).T
    gaps = samples.positions[lasts] - samples.positions[firsts]
    far = (np.sqrt(_row_dots(gaps, gaps)) > 1e-9).tolist()
    ends = np.array(
        [row for pair, two in zip(segments, far) for row in pair[: 1 + two]], dtype=np.intp
    )
    outward = np.cross(samples.tangents[ends], samples.normals[ends])
    return samples.positions[ends] + outward * exit_offset, samples.normals[ends]


def entry_exit_terminals(
    g: SurfaceGraph,
    surface: WalkableSurface,
    blockers: BlockerMesh | None,
    interval: float = DEFAULT_INTERVAL,
    radius: float = DEFAULT_RADIUS,
    ray_count: int = DEFAULT_RAY_COUNT,
    sharpness_deg: float = DEFAULT_SHARPNESS_DEG,
    exit_offset: float = 0.0,
    height_tol: float = DEFAULT_HEIGHT_TOL,
) -> tuple[SurfaceGraph, TerminalSet]:
    """Full entry/exit pipeline: sample, classify, segment, register."""
    samples = sample_boundary(surface, interval)
    open_ahead, open_behind = classify_samples(samples, blockers, radius, ray_count)
    segments = extract_segments(samples, open_ahead, open_behind, sharpness_deg)
    graph, terminals = register_terminals(g, samples, segments, surface, exit_offset, height_tol)
    if not terminals.node_ids:
        raise EmptyTerminalSet("entry/exit detection found no openings")
    return graph, terminals


def terminals_from_metric(
    g: SurfaceGraph,
    method: str,
    metric: str = "degree",
    k: int = 1,
    weighted: bool = True,
    alpha: float | None = None,
) -> TerminalSet:
    """Terminal selection without boundary geometry.

    method "leaves": every node of degree 1.  method "metric": the k nodes
    with the highest centrality scores, each score divided by the largest
    magnitude and rounded to 9 decimals, so that rounding noise in the last
    bits does not pick among equal nodes; ties prefer the lower id.
    `weighted` and `alpha` are passed to `compute_centrality`.
    """
    if method == "leaves":
        degs = degree_centrality(g)
        ids = [v for v, d in enumerate(degs) if d == 1.0]
        if not ids:
            raise EmptyTerminalSet("graph has no degree-1 nodes")
        return TerminalSet(ids)
    if method == "metric":
        if k < 1:
            raise ValidationError(f"k must be >= 1, got {k}")
        values = compute_centrality(g, metric, weighted=weighted, alpha=alpha)
        scale = max(map(abs, values), default=0.0) or 1.0  # all zero: rank by id
        ranked = sorted(range(len(g.nodes)), key=lambda v: (-round(values[v] / scale, 9), v))
        ids = sorted(ranked[: min(k, len(ranked))])
        if not ids:
            raise EmptyTerminalSet("metric selection produced no terminals")
        return TerminalSet(ids)
    raise ValidationError(f"unknown terminal method {method!r}")
