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
from typing import Callable

import numpy as np

from .errors import PointOffMesh, ValidationError
from .graph import GraphNode, SurfaceGraph
from .mesh import DEFAULT_HEIGHT_TOL, GEOM_EPS, WalkableSurface
from .steiner import SteinerTree

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
    centroid=None,
) -> list[RootedTree]:
    """Orient an (unrooted, possibly multi-component) tree into rooted trees.

    `scores` is indexed by graph node id.  While unvisited nodes remain: pick
    the one with the highest score (ties fall to the node nearest `centroid`,
    then the lowest id), then walk its component depth-first, ordering
    children by ascending id.  The returned forest partitions the tree's node
    set.
    """
    node_ids = list(tree.nodes)
    if not node_ids:
        return []
    if len(scores) < max(node_ids) + 1:
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
        # the key is (-score, centroid distance, id): only the nodes tied at
        # the top score need a distance
        top = max(scores[v] for v in unvisited)
        root = min(
            (v for v in unvisited if scores[v] == top),
            key=lambda v: (centroid_dist(v), v),
        )
        children: dict[int, list[int]] = {}
        payloads: dict[int, GraphNode] = {}
        stack = [root]
        unvisited.discard(root)
        while stack:
            v = stack.pop()
            payloads[v] = replace(graph.nodes[v], terminal=v in term_set)
            kids = sorted(u for u, _w in adj[v] if u in unvisited)
            children[v] = kids
            for u in reversed(kids):
                unvisited.discard(u)
                stack.append(u)
        forest.append(RootedTree(root=root, children=children, payloads=payloads))
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


def walkable_los(surface: WalkableSurface, cfg: SimplifyConfig | None = None) -> LosFn:
    """`surface_los` on `surface` as a visibility test for `can_simplify`; a
    point off the surface has no line of sight."""
    def los(a, c) -> bool:
        try:
            return surface_los(surface, a, c, cfg)
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
    return bool(los(a.position, c.position))


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
