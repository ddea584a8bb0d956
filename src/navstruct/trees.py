"""Rooted-tree extraction and constraint-driven simplification.

Roots are chosen by centrality (ties: nearest the graph centroid, then lowest
id).  Simplification repeatedly collapses an interior node into its parent
when (a) none of its children is an off-mesh leaf, (b) parent and node
normals agree within an angular tolerance, and (c) the parent has line of
sight to every child under the run's one visibility test (`walkable_los` on
a surface, or any `LosFn`).  Every removal is logged so the whole run can be
re-audited afterwards.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from .errors import PointOffMesh, ValidationError
from .graph import GraphNode, SurfaceGraph
from .mesh import DEFAULT_HEIGHT_TOL, GEOM_EPS, WalkableSurface, shorter_than
from .steiner import SteinerTree

# a visibility test between two node payloads: does the first see the second
LosFn = Callable[[GraphNode, GraphNode], bool]

# default largest angle between the normals of a collapsed node and its parent
DEFAULT_NORMAL_TOL_DEG = 15.0


@dataclass
class SimplifyConfig:
    normal_tolerance_deg: float = DEFAULT_NORMAL_TOL_DEG
    los_height_tolerance: float = DEFAULT_HEIGHT_TOL

    def __post_init__(self):
        if not (0.0 < self.normal_tolerance_deg < 90.0):
            raise ValidationError(
                f"normal tolerance must be in (0, 90) degrees, got {self.normal_tolerance_deg}"
            )
        if not (0.0 < self.los_height_tolerance < math.inf):
            raise ValidationError(
                "line-of-sight height tolerance must be positive and finite, "
                f"got {self.los_height_tolerance}"
            )


@dataclass
class RemovalRecord:
    parent: int
    removed: int
    children: tuple[int, ...]


@dataclass
class RootedTree:
    """A tree stored as its `children` lists; `parent` and `depth` are
    derived from them on each read, so read each once per tree."""

    root: int
    children: dict[int, list[int]]      # every node -> ascending child ids
    payloads: dict[int, GraphNode]
    removals: list[RemovalRecord] = field(default_factory=list)

    @property
    def parent(self) -> dict[int, int | None]:
        """Each node's parent, None for the root.  The child lists are read
        after the root, so one that names the root overrides its None."""
        parent: dict[int, int | None] = {self.root: None}
        for v, kids in self.children.items():
            for c in kids:
                parent[c] = v
        return parent

    @property
    def depth(self) -> dict[int, int]:
        """Edge count from the root to each node it reaches."""
        depth = {self.root: 0}
        stack = [self.root]
        while stack:
            v = stack.pop()
            for c in self.children[v]:
                depth[c] = depth[v] + 1
                stack.append(c)
        return depth

    def node_ids(self) -> list[int]:
        return sorted(self.children)

    def edge_list(self) -> list[tuple[int, int]]:
        return [(p, c) for p in sorted(self.children) for c in self.children[p]]

    def size(self) -> int:
        return len(self.children)

    def clone(self) -> "RootedTree":
        return RootedTree(
            root=self.root,
            children={v: list(cs) for v, cs in self.children.items()},
            payloads=dict(self.payloads),
        )


# ---------------------------------------------------------------------------
# rooting
# ---------------------------------------------------------------------------

def find_rooted_trees(
    tree: SteinerTree,
    graph: SurfaceGraph,
    scores: list[float],
) -> list[RootedTree]:
    """Orient an (unrooted, possibly multi-component) tree into rooted trees.

    `scores` is indexed by graph node id.  While unvisited nodes remain: pick
    the one with the highest score (ties fall to the node nearest the graph
    centroid, then the lowest id), then walk its component depth-first, ordering
    children by ascending id along the rows of `tree.dense_graph`.  The
    returned forest partitions the tree's node set.  ValidationError when a
    tree node's score is NaN, which no order ranks.

    A payload's `terminal` flag is membership in the tree's terminal set.
    Where the graph's node already carries that flag, the payload is the
    graph's own node object; only the nodes whose flag flips are copied.
    """
    node_ids = tree.nodes
    if not node_ids:
        return []
    if len(scores) < max(node_ids) + 1:
        raise ValidationError("centrality scores do not cover all tree nodes")
    score = [scores[v] for v in node_ids]
    if any(map(math.isnan, score)):
        raise ValidationError("centrality scores must not be NaN")
    arcs = tree.dense_graph(graph).arcs
    ptr, head = arcs.matrix.indptr.tolist(), arcs.head.tolist()
    nodes = graph.nodes
    term_set = set(tree.terminals.node_ids)
    cen = None  # the graph centroid, computed at the first tie

    unvisited = set(range(len(node_ids)))  # dense ids: node k is node_ids[k]
    forest: list[RootedTree] = []
    while unvisited:
        # the key is (-score, centroid distance, id): only the nodes tied at
        # the top score need a distance
        top = max(score[k] for k in unvisited)
        tied = [k for k in unvisited if score[k] == top]
        if len(tied) == 1:
            (root,) = tied
        else:
            if cen is None:
                cen = graph.centroid()
            root = min(tied, key=lambda k: (
                float(np.linalg.norm(nodes[node_ids[k]].position - cen)), k))
        children: dict[int, list[int]] = {}
        payloads: dict[int, GraphNode] = {}
        stack = [root]
        unvisited.discard(root)
        while stack:
            k = stack.pop()
            v = node_ids[k]
            node = nodes[v]
            terminal = v in term_set
            payloads[v] = node if node.terminal is terminal else replace(node, terminal=terminal)
            kids = [u for u in head[ptr[k]:ptr[k + 1]] if u in unvisited]
            children[v] = [node_ids[u] for u in kids]
            for u in reversed(kids):
                unvisited.discard(u)
                stack.append(u)
        forest.append(RootedTree(root=node_ids[root], children=children, payloads=payloads))
    return forest


# ---------------------------------------------------------------------------
# surface line of sight
# ---------------------------------------------------------------------------

# unit roundoff of a float64
_U = 2.0 ** -53


def _off_plane(surface: WalkableSurface, poly: int, p, limit: float) -> bool:
    """Whether the point p, three Python floats, lies more than `limit` from
    `poly`'s plane, as abs(float(np.dot(n, p)) - d) > limit decides it.

    The sum n.p is written out, x, y then z.  It and BLAS's dot, whose order
    and fused steps vary, each lie within 3u sum|n_i p_i| <= 3.01u sum|p_i|
    of the exact n.p (|n_i| <= 1 + 2u), and subtracting d rounds each by u
    of its result.  So the two values of |n.p - d| differ by less than
    6.02u sum|p_i| + 2.01u limit wherever either lies near `limit`, and one
    within 8u (sum|p_i| + limit) of it asks np.dot itself; every other one
    falls on np.dot's side."""
    (nx, ny, nz, d), _, _ = surface.walk_row(poly)
    px, py, pz = p
    off = abs(nx * px + ny * py + nz * pz - d)
    if abs(off - limit) <= 8.0 * _U * (abs(px) + abs(py) + abs(pz) + limit):
        off = abs(float(np.dot(surface.polygon_normals[poly], np.array(p))) - d)
    return off > limit


class _Step(NamedTuple):
    """One clean step of an anchor's last successful walk: it left `polygon`
    through the shared edge `edge`, whose ends lie at `right` and `left` from
    the anchor in the projection, with cross(right, left) > 0.  The last four
    fields cover the trail up to and including this step: the wedge of
    directions through every portal as two unit vectors (right x, y, left
    x, y), the least portal gap, the farthest corner from the anchor and the
    shortest portal."""

    polygon: int
    edge: tuple[int, int]
    right: tuple[float, float]
    left: tuple[float, float]
    wedge: tuple[float, float, float, float]
    gap: float
    reach: float
    width: float


def _cross(ux: float, uy: float, vx: float, vy: float) -> float:
    return ux * vy - uy * vx


def _ring_edge(surface, poly: int, k: int) -> tuple[int, int]:
    """The vertex pair of `poly`'s edge from corner k to corner k + 1."""
    ring = surface.polygons[poly]
    return ring[k], ring[(k + 1) % len(ring)]


def _portal_gap(surface, poly, keep, ax, ay, step: _Step) -> float:
    """The gap Q of `step`'s portal in `poly`: min(|right|, |left|) / |portal|
    times the least, over the other edges g of `poly`, of dist(right, g) +
    dist(left, g).  A crossing of the portal that lies at least mu |U| from
    each end U lies at least mu Q from every other edge line of `poly`.
    Zero when an end lies outside another edge (a ring convex only within
    the plane tolerance) or on its line (two edges in a row)."""
    kx, ky = keep
    sign = surface.walk_row(poly)[2][3 - kx - ky]
    xs, ys = surface.axis_coords[kx], surface.axis_coords[ky]
    ring = surface.polygons[poly]
    (rx, ry), (lx, ly) = step.right, step.left
    ea, eb = step.edge
    least = math.inf
    for va, vb in zip(ring, ring[1:] + ring[:1]):
        if (va == ea and vb == eb) or (va == eb and vb == ea):
            continue
        ex, ey = xs[vb] - xs[va], ys[vb] - ys[va]
        ox, oy = xs[va] - ax, ys[va] - ay
        d_right = sign * _cross(ex, ey, rx - ox, ry - oy)
        d_left = sign * _cross(ex, ey, lx - ox, ly - oy)
        both = d_right + d_left if min(d_right, d_left) >= 0.0 else 0.0
        least = min(least, both / math.hypot(ex, ey))
    near = min(math.hypot(rx, ry), math.hypot(lx, ly))
    return near / math.hypot(lx - rx, ly - ry) * least


@dataclass
class LosFunnel:
    """What one anchor's walks have shown, so that `surface_los` can skip the
    validated start of the next walk from the same anchor.

    `start` is the anchor's start polygon (-1 off the surface); None until
    the first walk locates it.
    `steps` is the clean prefix of the anchor's last successful walk: each
    step left a polygon whose plane (normal and offset) equals the start
    polygon's, through exactly one exit edge with exactly one neighbour
    beyond it (a portal), and the first step did so at t_out >= 0.

    With k >= 2 steps, a new segment a -> c of projected direction d skips
    steps 0..k-2 and enters step k-1's polygon with its own t_in for t, when
    (u is the unit roundoff, E is GEOM_EPS, W the trail's reach, sigma its
    width, Q its gap):

    - mu = min(cross(R, d/|d|), cross(d/|d|, L)) > 0 for the wedge R, L: d
      points strictly through every portal, and each portal end U lies at
      least mu |U| from the crossing.  So |cross(portal, d)| >= mu |d|
      |portal|, and a portal's clip bound rounds by at most
      err = 5u (1 + W/|d|) / mu;
    - 20u (|d| + W) <= E mu |d|, so err <= E/4: the two clips that compute a
      portal bound (leaving one polygon, entering the next) agree within E;
    - mu |d| sigma >= 2E: no portal is taken for parallel to d;
    - mu Q >= 2E |d| + 8u (W + |d|): every other edge line of a trail
      polygon lies at least mu Q from the crossings of its two portals (the
      distance to an edge line is affine along a portal), so each other
      edge's bound sits beyond E + err of the portal's, after the rounding
      of f0 and fd (4u |edge| (W + |d|) each);
    - c lies past the line of the last portal, so no skipped step ends the
      walk: each portal crossing precedes the next one by more than 2E;
    - |n.a - d| and |n.(a + seg) - d| are at most tol / 2, and so is
      24u (max|a| + max|seg| + |d|), which bounds how far the walk's plane
      test at any parameter in [0, 1] rounds beyond the linear value.

    The last bound, with M = max|a| + max|seg|: the walk forms each
    coordinate a_i + seg_i t within 2.01u M, which moves n.p by at most
    3.49u M (sum|n_i| <= sqrt 3); the sum n.p rounds by at most 3u sum|n_i
    p_i| <= 5.22u M in either of `_off_plane`'s two sums (Python's, or
    np.dot's near the limit, whose order and fused steps vary); and
    subtracting d rounds by at most u (1.74 M + |d|).  So the walk's value
    lies within 10.45u M + 1.01u |d| of the exact one.  The two values this
    test reads round by the same dot and subtraction terms, 6.96u M +
    u |d|, and the end's by 1.74u M more for forming a + seg; so the exact
    linear value at both ends, hence at every t in [0, 1], lies within
    8.7u M + u |d| of the larger of them, and the walk's value within
    19.2u M + 2.01u |d| <= 24u (M + |d|) of that.  Each of the two values
    is compared with tol / 2 by `_off_plane`, as np.dot decides, so the
    test skips exactly when it did on numpy vectors.

    Then each skipped step passes its checks, has the portal as its one
    exit edge and takes the one neighbour, exactly as the full walk does;
    step k-1 passes its two first checks for its t_in as for the true t,
    and from its clip on the resumed walk holds the full walk's exact state.
    """

    start: int | None = None
    steps: list[_Step] = field(default_factory=list)

    def resume(self, surface, a, seg, d2, tol) -> int:
        """The number of first steps the walk a -> a + seg may skip, 0 for
        none (see the class).  `a`, `seg` and `d2` are Python floats."""
        if len(self.steps) < 2:
            return 0
        last = self.steps[-1]
        dx, dy = d2
        length = math.hypot(dx, dy)
        rx, ry, lx, ly = last.wedge
        mu = min(_cross(rx, ry, dx, dy), _cross(dx, dy, lx, ly)) / length
        (px, py), (qx, qy) = last.right, last.left
        if not (
            _cross(qx - px, qy - py, dx - px, dy - py) < 0.0  # past the last portal
            and 20.0 * _U * (length + last.reach) <= GEOM_EPS * mu * length
            and mu * length * last.width >= 2.0 * GEOM_EPS
            and mu * last.gap >= 2.0 * GEOM_EPS * length + 8.0 * _U * (last.reach + length)
        ):
            return 0
        d_plane = surface.walk_row(self.start)[0][3]
        end = (a[0] + seg[0], a[1] + seg[1], a[2] + seg[2])
        size = max(map(abs, a)) + max(map(abs, seg)) + abs(d_plane)
        if (
            _off_plane(surface, self.start, a, 0.5 * tol)
            or _off_plane(surface, self.start, end, 0.5 * tol)
            or 24.0 * _U * size > 0.5 * tol
        ):
            return 0
        return len(self.steps) - 1

    def record(self, surface, keep, a2, kept: int, path) -> None:
        """Keep the first `kept` steps, then make the rest the clean prefix
        of `path`: the (polygon, exit ring positions, candidates, t_out) of
        each step the successful walk took after them.  A step depends only
        on the anchor, its polygon and its exit edge, so a stored step that
        matches is kept as it is."""
        for j, (poly, exits, candidates, t_out) in enumerate(path, kept):
            if j < len(self.steps):
                old = self.steps[j]
                if old.polygon == poly and len(exits) == 1 and _ring_edge(
                    surface, poly, exits[0]
                ) in (old.edge, old.edge[::-1]):
                    continue
                del self.steps[j:]
            step = self._step(surface, keep, a2, poly, exits, candidates, t_out)
            if step is None:
                return
            self.steps.append(step)
        del self.steps[kept + len(path):]

    def _step(self, surface, keep, a2, poly, exits, candidates, t_out) -> _Step | None:
        """The step that follows `steps`, or None when it is not clean."""
        if (
            len(exits) != 1 or len(candidates) != 1
            or surface.walk_row(poly)[0] != surface.walk_row(self.start)[0]
            or (not self.steps and t_out < 0.0)
        ):
            return None
        xs, ys = surface.axis_coords[keep[0]], surface.axis_coords[keep[1]]
        ax, ay = a2
        va, vb = _ring_edge(surface, poly, exits[0])
        right = (xs[va] - ax, ys[va] - ay)
        left = (xs[vb] - ax, ys[vb] - ay)
        if _cross(*right, *left) < 0.0:
            va, vb, right, left = vb, va, left, right
        if not _cross(*right, *left) > 0.0:
            return None  # the anchor lies on the portal's line
        r_len, l_len = math.hypot(*right), math.hypot(*left)
        wedge = (right[0] / r_len, right[1] / r_len, left[0] / l_len, left[1] / l_len)
        step = _Step(poly, (va, vb), right, left, wedge, 0.0, 0.0, 0.0)
        gap = _portal_gap(surface, poly, keep, ax, ay, step)
        reach = max(math.hypot(xs[v] - ax, ys[v] - ay) for v in surface.polygons[poly])
        width = math.hypot(left[0] - right[0], left[1] - right[1])
        if self.steps:
            prev = self.steps[-1]
            pr, pl = prev.wedge[:2], prev.wedge[2:]
            if _cross(*wedge[:2], *pr) >= 0.0:
                wedge = pr + wedge[2:]
            if _cross(*pl, *wedge[2:]) >= 0.0:
                wedge = wedge[:2] + pl
            gap = min(gap, prev.gap, _portal_gap(surface, poly, keep, ax, ay, prev))
            reach = max(reach, prev.reach)
            width = min(width, prev.width)
        if not _cross(*wedge[:2], *wedge[2:]) > 0.0:
            return None  # the portals leave no direction through all of them
        return step._replace(wedge=wedge, gap=gap, reach=reach, width=width)


def surface_los(
    surface: WalkableSurface,
    a,
    c,
    cfg: SimplifyConfig | None = None,
    funnel: LosFunnel | None = None,
) -> bool:
    """Walkable line of sight between two points.

    The straight segment a->c, projected onto the dominant-axis plane of the
    starting polygon's normal, is walked polygon-to-polygon; every crossing
    must pass through a shared edge, and the 3D segment must stay within the
    height tolerance of each traversed polygon's plane.  Raises PointOffMesh
    when `a` is not on the surface.

    The walk runs in Python floats: it reads each point once, and each
    polygon's plane, axes and winding once per surface
    (`WalkableSurface.walk_row`).  Its differences and products are numpy's
    elementwise ones, bit for bit.  Its lengths and plane offsets may round
    apart from np.linalg.norm's and np.dot's; near GEOM_EPS or the height
    tolerance they ask numpy (`mesh.shorter_than`, `_off_plane`), so every
    answer is that of the walk on numpy vectors, `oracles.surface_los_numpy`.

    `funnel`, when given, belongs to the anchor `a` (and to `cfg`): the walk
    takes its start polygon from it, skips the steps it proves the walk
    would take alike (see LosFunnel), and a walk that succeeds records its
    steps in it.  The answer is the one the walk gives without a funnel.
    """
    cfg = cfg or SimplifyConfig()
    tol = cfg.los_height_tolerance
    a = np.asarray(a, dtype=float).tolist()
    c = np.asarray(c, dtype=float).tolist()
    start = None if funnel is None else funnel.start
    if start is None:
        start = surface.locate_point(a, tol)
        start = -1 if start is None else start
        if funnel is not None:
            funnel.start = start
    if start < 0:
        raise PointOffMesh(f"point {a} lies on no walkable polygon")
    ax, ay, az = a
    seg = sx, sy, sz = (c[0] - ax, c[1] - ay, c[2] - az)
    if shorter_than(seg, GEOM_EPS):
        return True

    keep = surface.walk_row(start)[1]
    a2 = (a[keep[0]], a[keep[1]])
    d2 = (seg[keep[0]], seg[keep[1]])
    if shorter_than(d2, GEOM_EPS):
        # segment is vertical in this projection; only a same-polygon hop works
        return surface.contains_point(start, c, tol)

    max_steps = 4 * len(surface.polygons) + 8
    skipped = 0 if funnel is None else funnel.resume(surface, a, seg, d2, tol)
    current = funnel.steps[skipped].polygon if skipped else start
    clip = surface.clip_line(current, keep, a2, d2)
    t = clip[0] if skipped else 0.0
    path = []  # (polygon, exit positions, candidates, t_out) of each step taken
    for _ in range(max_steps - skipped):
        t_in, t_out, exits = clip
        if t_out < t - GEOM_EPS or t_in > t_out + GEOM_EPS:
            return False  # projection misses this polygon: walk broke down
        for param in (max(t, t_in), min(1.0, t_out)):
            p = (ax + sx * param, ay + sy * param, az + sz * param)
            if _off_plane(surface, current, p, tol):
                return False  # segment strays too far above/below the surface
        if t_out >= 1.0 - GEOM_EPS:
            if funnel is not None:
                funnel.record(surface, keep, a2, skipped, path)
            return True
        row = surface.across[current]
        candidates = {row[k] for k in exits} - {-1}  # crossing needs a shared edge
        if not candidates:
            return False  # exits through a boundary edge
        nxt = None
        best_out = t_out
        for q in sorted(candidates):
            q_clip = surface.clip_line(q, keep, a2, d2)
            q_in, q_out, _ = q_clip
            if q_in <= t_out + GEOM_EPS and q_out > best_out + GEOM_EPS:
                nxt, clip, best_out = q, q_clip, q_out  # nxt's clip serves the next step
        if nxt is None:
            return False  # no neighbor continues the segment
        path.append((current, exits, candidates, t_out))
        current = nxt
        t = t_out
    return False  # step guard exhausted (degenerate geometry)


def walkable_los(surface: WalkableSurface, cfg: SimplifyConfig | None = None) -> LosFn:
    """`surface_los` on `surface` as a visibility test for `can_simplify`:
    node `a` sees node `c` when the walk from `a`'s polygon reaches `c`'s
    position; a node off the surface has no line of sight.  A node whose
    polygon is None is located on its first walk.  The test keeps one
    LosFunnel per anchor (polygon, position) for its lifetime, so each walk
    from an anchor resumes past the portals its last successful walk
    validated; the answers are those of the plain walk."""
    funnels: dict[tuple[int | None, bytes], LosFunnel] = {}

    def los(a: GraphNode, c: GraphNode) -> bool:
        pos = np.asarray(a.position, dtype=float)
        key = (a.polygon, pos.tobytes())
        funnel = funnels.get(key)
        if funnel is None:
            funnel = funnels[key] = LosFunnel(start=a.polygon)
        try:
            return surface_los(surface, pos, c.position, cfg, funnel)
        except PointOffMesh:
            return False

    return los


# ---------------------------------------------------------------------------
# collapse predicate and simplification
# ---------------------------------------------------------------------------

def normal_angle_deg(n1, n2) -> float:
    """Angle between two unit normals, in degrees."""
    return math.degrees(math.acos(max(-1.0, min(1.0, float(np.dot(n1, n2))))))


def can_simplify(
    a: GraphNode,
    b: GraphNode,
    c: GraphNode,
    los: LosFn,
    cfg: SimplifyConfig | None = None,
    c_is_leaf: bool = True,
) -> bool:
    """Whether child `b` of `a` may collapse with respect to grandchild `c`.

    All of the following must hold: `c` is not an off-mesh leaf; the normals
    of `a` and `b` agree within the angular tolerance; `los` sees `c` from
    `a`; and `b` itself is not a terminal (terminals must survive into the
    final structure).
    """
    cfg = cfg or SimplifyConfig()
    if b.terminal:
        return False
    if c_is_leaf and not c.on_navmesh:
        return False
    if normal_angle_deg(a.normal, b.normal) > cfg.normal_tolerance_deg:
        return False
    return bool(los(a, c))


def simplify_tree(
    tree: RootedTree, los: LosFn, cfg: SimplifyConfig | None = None
) -> RootedTree:
    """Collapse interior nodes under the visibility/normal constraints.

    Each pass scans nodes depth-first; at node A it repeatedly removes the
    first child B (ascending id) whose every child C satisfies can_simplify,
    reparenting B's children under A and restarting A's scan.  Passes repeat
    until none removes a node, so the result is a fixed point.  The input tree
    is not modified; the result carries the removal log.

    Each (A, B, C) triple is decided once per run: the predicate reads only
    the three payloads, which the run never edits, C's leaf status, which no
    removal changes (only interior nodes are removed), and the run's fixed
    visibility test and config.
    """
    cfg = cfg or SimplifyConfig()
    out = tree.clone()
    removals: list[RemovalRecord] = []
    decided: dict[tuple[int, int, int], bool] = {}
    while _simplify_pass(out, los, cfg, removals, decided):
        pass
    out.removals = removals
    return out


def _simplify_pass(t, los, cfg, removals, decided) -> bool:
    def collapses(a: int, b: int, c: int) -> bool:
        ok = decided.get((a, b, c))
        if ok is None:
            ok = decided[a, b, c] = can_simplify(
                t.payloads[a], t.payloads[b], t.payloads[c],
                los, cfg, c_is_leaf=not t.children[c],
            )
        return ok

    any_removed = False
    stack = [t.root]
    while stack:
        a = stack.pop()
        changed = True
        while changed:
            changed = False
            for b in list(t.children[a]):
                b_kids = t.children[b]
                if not b_kids:
                    continue
                if all(collapses(a, b, c) for c in b_kids):
                    kids = list(b_kids)
                    t.children[a] = sorted(
                        [x for x in t.children[a] if x != b] + kids
                    )
                    del t.children[b]
                    del t.payloads[b]
                    removals.append(
                        RemovalRecord(parent=a, removed=b, children=tuple(kids))
                    )
                    any_removed = True
                    changed = True
                    break
        for child in reversed(t.children[a]):
            stack.append(child)
    return any_removed


def verify_removals(
    original: RootedTree,
    simplified: RootedTree,
    los: LosFn,
    cfg: SimplifyConfig | None = None,
) -> bool:
    """Post-hoc soundness audit of a simplification run.

    Replays the removal log against the original tree's payloads: every
    removed node must satisfy the collapse predicate for each child it had at
    removal time.  Leaf status never changes during simplification (only
    interior nodes are removed), so the original tree supplies it.
    """
    cfg = cfg or SimplifyConfig()
    for rec in simplified.removals:
        a = original.payloads.get(rec.parent)
        b = original.payloads.get(rec.removed)
        if a is None or b is None:
            return False
        for cid in rec.children:
            c = original.payloads.get(cid)
            if c is None:
                return False
            if not can_simplify(a, b, c, los, cfg, c_is_leaf=not original.children[cid]):
                return False
    return True
