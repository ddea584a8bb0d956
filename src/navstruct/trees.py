"""Rooted-tree extraction and constraint-driven simplification.

Roots are chosen by centrality (ties: nearest the graph centroid, then lowest
id).  Simplification repeatedly collapses an interior node into its parent
when (a) none of its children is an off-mesh leaf, (b) parent and node
normals agree within an angular tolerance, and (c) the parent has walkable
line-of-sight to every child.  Every removal is logged so the whole run can
be re-audited afterwards.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import PointOffMesh, ValidationError
from .graph import GraphNode, SurfaceGraph
from .mesh import DEFAULT_HEIGHT_TOL, GEOM_EPS, WalkableSurface
from .steiner import SteinerTree
from .algorithms import CentralityScores

LosFn = Callable[[np.ndarray, np.ndarray], bool]

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
        if self.los_height_tolerance <= 0.0:
            raise ValidationError(
                f"line-of-sight height tolerance must be positive, got {self.los_height_tolerance}"
            )


@dataclass
class RemovalRecord:
    parent: int
    removed: int
    children: tuple[int, ...]


@dataclass
class RootedTree:
    root: int
    children: dict[int, list[int]]      # ascending child ids
    depth: dict[int, int]
    payloads: dict[int, GraphNode]
    parent: dict[int, int | None]
    removals: list[RemovalRecord] = field(default_factory=list)

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
            depth=dict(self.depth),
            payloads=dict(self.payloads),
            parent=dict(self.parent),
            removals=[],
        )

    def recompute_depths(self) -> None:
        depth = {self.root: 0}
        stack = [self.root]
        while stack:
            v = stack.pop()
            for c in self.children[v]:
                depth[c] = depth[v] + 1
                stack.append(c)
        self.depth = depth


# ---------------------------------------------------------------------------
# rooting
# ---------------------------------------------------------------------------

def find_rooted_trees(
    tree: SteinerTree,
    graph: SurfaceGraph,
    scores: CentralityScores,
    centroid=None,
) -> list[RootedTree]:
    """Orient an (unrooted, possibly multi-component) tree into rooted trees.

    While unvisited nodes remain: pick the one with the highest score (ties
    fall to the node nearest `centroid`, then the lowest id), then walk its
    component depth-first, ordering children by ascending id.  The returned
    forest partitions the tree's node set.
    """
    node_ids = list(tree.nodes)
    if not node_ids:
        return []
    if len(scores.values) < max(node_ids) + 1:
        raise ValidationError("centrality scores do not cover all tree nodes")
    cen = np.asarray(
        centroid if centroid is not None else graph.centroid(), dtype=float
    )
    term_set = set(tree.terminals.node_ids)
    adj = tree.adjacency()

    def centroid_dist(v: int) -> float:
        return float(np.linalg.norm(graph.nodes[v].position - cen))

    unvisited = set(node_ids)
    forest: list[RootedTree] = []
    while unvisited:
        root = min(unvisited, key=lambda v: (-scores.values[v], centroid_dist(v), v))
        children: dict[int, list[int]] = {}
        parent: dict[int, int | None] = {root: None}
        depth = {root: 0}
        payloads: dict[int, GraphNode] = {}
        stack = [root]
        unvisited.discard(root)
        while stack:
            v = stack.pop()
            payloads[v] = replace(graph.nodes[v], id=v, terminal=v in term_set)
            kids = sorted(u for u, _w in adj[v] if u in unvisited)
            children[v] = kids
            for u in reversed(kids):
                unvisited.discard(u)
                parent[u] = v
                depth[u] = depth[v] + 1
                stack.append(u)
        forest.append(
            RootedTree(
                root=root, children=children, depth=depth,
                payloads=payloads, parent=parent,
            )
        )
    return forest


# ---------------------------------------------------------------------------
# surface line of sight
# ---------------------------------------------------------------------------

def surface_los(
    surface: WalkableSurface, a, c, cfg: SimplifyConfig | None = None
) -> bool:
    """Walkable line of sight between two points.

    The straight segment a->c, projected onto the dominant-axis plane of the
    starting polygon's normal, is walked polygon-to-polygon; every crossing
    must pass through a shared edge, and the 3D segment must stay within the
    height tolerance of each traversed polygon's plane.  Raises PointOffMesh
    when `a` is not on the surface.
    """
    cfg = cfg or SimplifyConfig()
    tol = cfg.los_height_tolerance
    a = np.asarray(a, dtype=float)
    c = np.asarray(c, dtype=float)
    start = surface.locate_point(a, tol)
    if start is None:
        raise PointOffMesh(f"point {a.tolist()} lies on no walkable polygon")
    if float(np.linalg.norm(c - a)) < GEOM_EPS:
        return True

    keep = surface.polygon_axes[start]
    a2 = a[keep]
    d2 = (c - a)[keep]
    if float(np.linalg.norm(d2)) < GEOM_EPS:
        # segment is vertical in this projection; only a same-polygon hop works
        return surface.contains_point(start, c, tol)

    max_steps = 4 * len(surface.polygons) + 8
    seg = c - a
    current = start
    clip = surface.clip_line(current, keep, a2, d2)
    t = 0.0
    for _ in range(max_steps):
        t_in, t_out, exit_edges = clip
        if t_out < t - GEOM_EPS or t_in > t_out + GEOM_EPS:
            return False  # projection misses this polygon: walk broke down
        lo = max(t, t_in)
        hi = min(1.0, t_out)
        n, d_plane = surface.polygon_plane(current)
        for param in (lo, hi):
            p = a + seg * param
            if abs(float(np.dot(n, p)) - d_plane) > tol:
                return False  # segment strays too far above/below the surface
        if t_out >= 1.0 - GEOM_EPS:
            return True
        candidates = {  # crossing needs a shared edge
            q for va, vb in exit_edges
            for q in surface.edge_polygons.get((min(va, vb), max(va, vb)), ()) if q != current
        }
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
        current = nxt
        t = t_out
    return False  # step guard exhausted (degenerate geometry)


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
    surface: WalkableSurface | None,
    cfg: SimplifyConfig | None = None,
    c_is_leaf: bool = True,
    los: LosFn | None = None,
) -> bool:
    """Whether child `b` of `a` may collapse with respect to grandchild `c`.

    All of the following must hold: `c` is not an off-mesh leaf; the normals
    of `a` and `b` agree within the angular tolerance; `a` has walkable line
    of sight to `c`; and `b` itself is not a terminal (terminals must survive
    into the final structure).  `los` substitutes a custom visibility test
    (used when no walkable surface is available); an off-mesh `a` counts as
    having no line of sight.
    """
    cfg = cfg or SimplifyConfig()
    if b.terminal:
        return False
    if c_is_leaf and not c.on_navmesh:
        return False
    if normal_angle_deg(a.normal, b.normal) > cfg.normal_tolerance_deg:
        return False
    if los is not None:
        return bool(los(a.position, c.position))
    if surface is None:
        raise ValidationError("can_simplify needs a surface or an explicit los test")
    try:
        return surface_los(surface, a.position, c.position, cfg)
    except PointOffMesh:
        return False


def simplify_tree(
    tree: RootedTree,
    surface: WalkableSurface | None,
    cfg: SimplifyConfig | None = None,
    los: LosFn | None = None,
) -> RootedTree:
    """Collapse interior nodes under the visibility/normal constraints.

    Each pass scans nodes depth-first; at node A it repeatedly removes the
    first child B (ascending id) whose every child C satisfies can_simplify,
    reparenting B's children under A and restarting A's scan.  Passes repeat
    until none removes a node, so the result is a fixed point.  The input tree
    is not modified; the result carries the removal log and recomputed depths.
    """
    cfg = cfg or SimplifyConfig()
    out = tree.clone()
    removals: list[RemovalRecord] = []
    while _simplify_pass(out, surface, cfg, los, removals):
        pass
    out.recompute_depths()
    out.removals = removals
    return out


def _simplify_pass(t, surface, cfg, los, removals) -> bool:
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
                if all(
                    can_simplify(
                        t.payloads[a], t.payloads[b], t.payloads[c],
                        surface, cfg,
                        c_is_leaf=not t.children[c], los=los,
                    )
                    for c in b_kids
                ):
                    kids = list(b_kids)
                    t.children[a] = sorted(
                        [x for x in t.children[a] if x != b] + kids
                    )
                    for c in kids:
                        t.parent[c] = a
                    del t.children[b]
                    del t.parent[b]
                    del t.payloads[b]
                    t.depth.pop(b, None)
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
    surface: WalkableSurface | None,
    cfg: SimplifyConfig | None = None,
    los: LosFn | None = None,
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
            if not can_simplify(
                a, b, c, surface, cfg,
                c_is_leaf=not original.children[cid], los=los,
            ):
                return False
    return True
