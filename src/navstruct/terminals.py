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
from dataclasses import dataclass, field

import numpy as np

from .algorithms import compute_centrality, degree_centrality
from .errors import EmptyTerminalSet, ValidationError
from .graph import SOURCE_ENTRY_EXIT, GraphNode, SurfaceGraph
from .mesh import DEFAULT_HEIGHT_TOL, BlockerMesh, WalkableSurface
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
# most fan rays one raycast.first_hit call casts: about 25 MB of directions
# and 8 MB of hit distances, where all samples at the caps would take 66 GB;
# it holds at least one whole sample's 2 * MAX_RAY_COUNT rays
FAN_RAY_BUDGET = 1 << 20


@dataclass
class BoundarySample:
    position: np.ndarray      # (3,)
    loop: int                 # boundary loop index
    arc_param: float          # arc length from loop start
    forward_dir: np.ndarray   # unit tangent along the loop
    normal: np.ndarray        # surface normal of the owning polygon
    potential_start: bool = False
    potential_end: bool = False


@dataclass
class EntryExitSegment:
    start: BoundarySample
    end: BoundarySample
    matched_points: list[np.ndarray] = field(default_factory=list)


@dataclass
class TerminalSet:
    node_ids: list[int]


def sample_boundary(
    surface: WalkableSurface, interval: float = DEFAULT_INTERVAL
) -> list[BoundarySample]:
    """Samples spaced `interval` apart along each boundary loop.

    A loop of perimeter P yields max(1, floor(P / interval)) samples starting
    at the loop's first vertex.  Each sample carries the tangent of the edge
    it lies on and the normal of that edge's owning polygon.  ValidationError
    when all loops together need more than MAX_BOUNDARY_SAMPLES samples; they
    are counted before any is made.
    """
    if interval <= 0.0:
        raise ValidationError(f"sampling interval must be positive, got {interval}")
    loops = []
    total = 0
    for loop in surface.boundary_edges:
        seg_vecs = []
        seg_lens = []
        seg_normals = []
        for a, b in loop:
            pa = surface.vertices[a]
            pb = surface.vertices[b]
            vec = pb - pa
            length = float(np.linalg.norm(vec))
            owner = surface.edge_polygons[(a, b) if a < b else (b, a)][0]
            seg_vecs.append(vec / length)
            seg_lens.append(length)
            seg_normals.append(surface.polygon_normals[owner])
        steps = float(sum(seg_lens)) / interval + 1e-9
        # steps past the cap, inf among them, count as inf
        count = max(1, math.floor(steps)) if steps <= MAX_BOUNDARY_SAMPLES else math.inf
        total += count
        loops.append((loop, seg_vecs, seg_lens, seg_normals, count))
    if total > MAX_BOUNDARY_SAMPLES:
        raise ValidationError(
            f"boundary sampling at interval {interval:g} needs more than "
            f"{MAX_BOUNDARY_SAMPLES} samples"
        )
    samples: list[BoundarySample] = []
    for loop_id, (loop, seg_vecs, seg_lens, seg_normals, count) in enumerate(loops):
        edge_idx = 0
        edge_start_arc = 0.0
        for k in range(count):
            arc = k * interval
            while arc - edge_start_arc > seg_lens[edge_idx] - 1e-9 and edge_idx + 1 < len(loop):
                edge_start_arc += seg_lens[edge_idx]
                edge_idx += 1
            local = arc - edge_start_arc
            a, _b = loop[edge_idx]
            pos = surface.vertices[a] + seg_vecs[edge_idx] * local
            fwd = seg_vecs[edge_idx]
            samples.append(
                BoundarySample(
                    position=pos,
                    loop=loop_id,
                    arc_param=arc,
                    forward_dir=fwd.copy(),
                    normal=seg_normals[edge_idx].copy(),
                )
            )
    return samples


def fan_directions(samples: list[BoundarySample], ray_count: int) -> np.ndarray:
    """(n, 2 * ray_count, 3) directions: per sample its forward fan, then its
    backward fan.  The forward fan is the sample's tangent rotated about its
    normal through ray_count angles spread evenly over +/-45 degrees (the
    tangent itself for one ray); the backward fan is its exact negation,
    which is what rotating the reversed tangent gives, bit for bit.

    Rodrigues' rotation, v c + (axis x v) s + axis (axis . v) (1 - c), is
    evaluated in that order with np.cross's expressions for axis x v.  The
    dot product is one np.dot per sample, whose rounding a written-out sum
    does not always match, and the sines and cosines are math's."""
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
    axes = np.array([p.normal for p in samples], dtype=float).reshape(-1, 3)
    tangents = np.array([p.forward_dir for p in samples], dtype=float).reshape(-1, 3)
    dots = np.array([float(np.dot(p.normal, p.forward_dir)) for p in samples])[:, None]
    (ax, ay, az), (vx, vy, vz) = axes.T[:, :, None], tangents.T[:, :, None]
    fans = np.empty((len(samples), 2 * ray_count, 3))
    forward = fans[:, :ray_count]
    forward[..., 0] = vx * c + (ay * vz - az * vy) * s + ax * dots * w
    forward[..., 1] = vy * c + (az * vx - ax * vz) * s + ay * dots * w
    forward[..., 2] = vz * c + (ax * vy - ay * vx) * s + az * dots * w
    np.negative(forward, out=fans[:, ray_count:])
    return fans


def classify_samples(
    samples: list[BoundarySample],
    blockers: BlockerMesh | None,
    radius: float = DEFAULT_RADIUS,
    ray_count: int = DEFAULT_RAY_COUNT,
) -> list[BoundarySample]:
    """Flag samples whose forward (backward) ray fan is unobstructed within
    `radius` as potential segment starts (ends).  The fans go to
    `raycast.first_hit` in runs of whole samples, at most FAN_RAY_BUDGET
    rays per call; each sample's hits depend on its own rays alone, so the
    flags are those of one call over every sample.  Returns the same sample
    objects with flags set.  With no blocker mesh every sample gets both
    flags."""
    if radius <= 0.0:
        raise ValidationError(f"classification radius must be positive, got {radius}")
    if not 1 <= ray_count <= MAX_RAY_COUNT:
        raise ValidationError(f"ray count must be >= 1 and <= {MAX_RAY_COUNT}, got {ray_count}")
    if blockers is None or len(blockers.triangles) == 0:
        log.warning("no blocker mesh supplied; every boundary sample is flagged open")
    step = FAN_RAY_BUDGET // (2 * ray_count)
    for lo in range(0, len(samples), step):
        run = samples[lo:lo + step]
        origins = np.array([s.position for s in run], dtype=float).reshape(-1, 3)
        hit = raycast.first_hit(blockers, origins, fan_directions(run, ray_count), radius) < math.inf
        forward = hit[:, :ray_count].any(axis=1).tolist()
        backward = hit[:, ray_count:].any(axis=1).tolist()
        for s, ahead, behind in zip(run, forward, backward):
            s.potential_start = not ahead
            s.potential_end = not behind
    return samples


def extract_segments(
    samples: list[BoundarySample],
    sharpness_deg: float = DEFAULT_SHARPNESS_DEG,
) -> list[EntryExitSegment]:
    """Group classified samples into entry/exit segments.

    A segment opens at a potential-start sample and extends along the loop; it
    closes after a potential-end sample whose successor is not flagged as an
    end, or just before the turning angle between consecutive samples exceeds
    `sharpness_deg`.  The closing end sample is included.
    """
    if not (0.0 < sharpness_deg < 180.0):
        raise ValidationError(f"sharpness threshold out of range: {sharpness_deg}")
    cos_limit = math.cos(math.radians(sharpness_deg))
    by_loop: dict[int, list[BoundarySample]] = {}
    for s in samples:
        by_loop.setdefault(s.loop, []).append(s)
    segments: list[EntryExitSegment] = []
    for loop_id in sorted(by_loop):
        loop_samples = sorted(by_loop[loop_id], key=lambda s: s.arc_param)
        n = len(loop_samples)
        k = 0
        while k < n:
            s = loop_samples[k]
            if not s.potential_start:
                k += 1
                continue
            j = k
            while j + 1 < n:
                last, nxt = loop_samples[j], loop_samples[j + 1]
                turn_cos = float(np.dot(last.forward_dir, nxt.forward_dir))
                if turn_cos < cos_limit:
                    break  # boundary turns too sharply
                if last.potential_end and not nxt.potential_end:
                    break  # an end sample followed by a non-end sample
                j += 1
            segments.append(_make_segment(s, loop_samples[j]))
            k = j + 1
    return segments


def _make_segment(start: BoundarySample, end: BoundarySample) -> EntryExitSegment:
    points = [start.position.copy()]
    if float(np.linalg.norm(end.position - start.position)) > 1e-9:
        points.append(end.position.copy())
    return EntryExitSegment(start=start, end=end, matched_points=points)


def register_terminals(
    g: SurfaceGraph,
    segments: list[EntryExitSegment],
    surface: WalkableSurface,
    exit_offset: float = 0.0,
    height_tol: float = DEFAULT_HEIGHT_TOL,
) -> tuple[SurfaceGraph, TerminalSet]:
    """Add one graph node per entry/exit position and link it to the nearest
    existing node.

    Positions are pushed `exit_offset` world units along the boundary's
    outward direction (tangent x surface normal).  Each new node's polygon is
    the lowest-id walkable polygon its final position lies on within
    `height_tol`, -1 for none.  Returns a new graph; the input graph is
    untouched.
    """
    positions = g.positions()
    new_nodes: list[GraphNode] = []
    new_edges: list[tuple[int, int, float]] = []
    ids: list[int] = []
    next_id = len(g.nodes)
    seen: list[np.ndarray] = []
    for seg in segments:
        for base, sample in zip(
            seg.matched_points, [seg.start, seg.end][: len(seg.matched_points)]
        ):
            outward = np.cross(sample.forward_dir, sample.normal)
            pos = base + outward * exit_offset
            if any(float(np.linalg.norm(pos - q)) < 1e-9 for q in seen):
                continue  # segments may share endpoints; register once
            seen.append(pos)
            dists = np.linalg.norm(positions - pos, axis=1)
            nearest = int(np.argmin(dists))  # ties resolve to the lowest id
            w = float(dists[nearest])
            if w < 1e-12:
                raise ValidationError(
                    f"entry/exit position coincides with node {nearest}"
                )
            pid = surface.locate_point(pos, height_tol)
            new_nodes.append(
                GraphNode(
                    position=pos,
                    normal=sample.normal.copy(),
                    polygon=-1 if pid is None else pid,
                    source=SOURCE_ENTRY_EXIT,
                )
            )
            new_edges.append((nearest, next_id, w))
            ids.append(next_id)
            next_id += 1
    return g.with_extra_nodes(new_nodes, new_edges), TerminalSet(ids)


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
    classify_samples(samples, blockers, radius, ray_count)
    segments = extract_segments(samples, sharpness_deg)
    graph, terminals = register_terminals(g, segments, surface, exit_offset, height_tol)
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
