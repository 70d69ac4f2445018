"""Communication graph construction and structure analysis.

Nodes are trajectory indices.  Each edge carries the undirected line angle
beta in [0, pi) and the two link positions (angles in circle mode, arc
lengths in path mode).  The link distance only decides whether an edge
exists, so it is not kept.

Every structural fact derives from one BFS (`CommGraph.forest`, built once
per graph and cached) or one DFS (`dfs_forest`).  The BFS starts at node 0
and the DFS at its root; both then start at each node not yet reached in
ascending order, and visit neighbours in ascending order.  That order fixes
the 2-colouring and its odd-cycle witness, the spanning forest, the
components, the fundamental cycle basis, the reflection-propagated start
angles (`reflection_starts`), which decide the chords the synchronization
filter keeps and are the opposite-direction starts, the general scheduler's
epoch tree, and the `dfs` strategy tree.
Schedules, traces and summaries are compared byte for byte, so they depend
on it: changing the order changes artifacts.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import cached_property
from itertools import chain
from typing import NamedTuple

from .errors import InvalidInstanceError, NotSynchronizableError
from .geometry import (ANGLE_TOL, Circle, ClosedPath, _hypot, line_angle_points,
                       link_positions, min_distance, norm_angle, norm_line_angle)


def edge_key(i: int, j: int) -> tuple[int, int]:
    return (i, j) if i < j else (j, i)


class EdgeData(NamedTuple):
    beta: float          # undirected line angle, [0, pi)
    phi: dict            # node -> link position on that node's trajectory


class CommGraph:
    def __init__(self, n: int, edges: dict | None = None, lengths: list | None = None):
        self.n = n
        self.edges = {} if edges is None else edges  # (i, j) i<j -> EdgeData
        self.lengths = lengths                        # trajectory lengths, None on circles
        # per node: neighbours in ascending order; it and the cached forest are facts
        # of edges, which is never mutated after construction (subgraph builds anew)
        adj = [[] for _ in range(n)]
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        self._adj = [tuple(sorted(nbs)) for nbs in adj]

    def has_edge(self, i: int, j: int) -> bool:
        return edge_key(i, j) in self.edges

    def edge(self, i: int, j: int) -> EdgeData:
        return self.edges[edge_key(i, j)]

    def beta(self, i: int, j: int) -> float:
        return self.edge(i, j).beta

    def phi(self, i: int, j: int) -> float:
        """Link position of i with respect to j."""
        return self.edge(i, j).phi[i]

    def neighbors(self, i: int) -> tuple[int, ...]:
        return self._adj[i]

    def edge_list(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def subgraph(self, keep_edges) -> "CommGraph":
        keep = {edge_key(*e) for e in keep_edges}
        return CommGraph(self.n, {k: v for k, v in self.edges.items() if k in keep},
                         self.lengths)

    @cached_property
    def forest(self) -> "Forest":
        """Breadth-first forest from each unreached node in ascending order."""
        parent = [None] * self.n
        depth = [0] * self.n
        seen = [False] * self.n
        order, head = [], 0          # order[head:] is the BFS queue
        for start in range(self.n):
            if seen[start]:
                continue
            seen[start] = True
            order.append(start)
            while head < len(order):
                u = order[head]
                head += 1
                for v in self._adj[u]:
                    if not seen[v]:
                        seen[v] = True
                        parent[v] = u
                        depth[v] = depth[u] + 1
                        order.append(v)
        return Forest(order, parent, depth)

    def components(self) -> list[list[int]]:
        """Sorted node lists of the BFS forest's trees, ordered by least node."""
        return self.forest.components()


class Forest(NamedTuple):
    """A traversal forest: nodes in discovery order, parent (None at a root) and depth."""
    order: list
    parent: list
    depth: list

    def tree_edges(self) -> list[tuple[int, int]]:
        """Tree edges in discovery order."""
        return [edge_key(self.parent[v], v) for v in self.order
                if self.parent[v] is not None]

    def components(self) -> list[list[int]]:
        """Sorted node lists of the trees, in the order of their roots."""
        comps = []
        for v in self.order:
            if self.parent[v] is None:
                comps.append([])
            comps[-1].append(v)
        return [sorted(c) for c in comps]


def dfs_forest(g: CommGraph, root: int) -> Forest:
    """Depth-first forest (preorder) from root, then from each unreached node
    ascending; iterative so long chains cannot overflow."""
    if g.n and not 0 <= root < g.n:
        raise ValueError(f"root {root} is not a node of a {g.n}-node graph")
    parent = [None] * g.n
    depth = [0] * g.n
    seen = [False] * g.n
    order = []
    for start in (root, *range(g.n)) if g.n else ():
        if seen[start]:
            continue
        seen[start] = True
        order.append(start)
        stack = [(start, iter(g.neighbors(start)))]
        while stack:
            u, pending = stack[-1]
            for v in pending:
                if not seen[v]:
                    seen[v] = True
                    parent[v] = u
                    depth[v] = depth[u] + 1
                    order.append(v)
                    stack.append((v, iter(g.neighbors(v))))
                    break
            else:
                stack.pop()
    return Forest(order, parent, depth)


# Relative slack on the path build's prefilter.  It only picks candidate
# pairs; each candidate is decided by the exact scalar code, so the slack
# must cover the rounding gap between the two and may not hide a pair.
_PREFILTER_SLACK = 1e-9

# Relative slack on the circle build's cell side, and the most cells across
# the coordinate span.  A cell key is floor((x - min x) / side); with at most
# 2**20 cells across, rounding moves a key difference by under 1e-9, far
# inside the 1e-6 slack, so two circles at most the reach apart always have
# keys at most one apart and every key stays finite.
_CELL_SLACK = 1e-6
_MAX_CELLS = 2**20


def _cell_blocks(xs: list, ys: list, reach: float) -> list:
    """Per point, the ascending points of the 3x3 block of grid cells around
    its own; the cell side is reach with slack, so every pair of points at
    most reach apart shares a block (Hockney & Eastwood, "Computer Simulation
    Using Particles", 1988)."""
    if not xs:
        return []
    x0, y0 = min(xs), min(ys)
    side = max(reach, max(max(xs) - x0, max(ys) - y0) / _MAX_CELLS) * (1.0 + _CELL_SLACK)
    if not side < math.inf:         # r = inf, or a span past the float range
        return [list(range(len(xs)))] * len(xs)
    keys = [(math.floor((x - x0) / side), math.floor((y - y0) / side))
            for x, y in zip(xs, ys)]
    cells = {}
    for k, key in enumerate(keys):
        cells.setdefault(key, []).append(k)
    blocks = {(cx, cy): sorted(chain.from_iterable(
        cells.get((cx + dx, cy + dy), ()) for dx in (-1, 0, 1) for dy in (-1, 0, 1)))
        for cx, cy in cells}
    return [blocks[key] for key in keys]


def build_circle_graph(circles: list[Circle], r: float) -> CommGraph:
    """Proximity graph of unit circles: edge iff center distance <= 2 + r.

    Candidates j > i come from i's block of grid cells whose side is the
    largest reach, 2 * max radius + max(r, 0).  Each candidate's math.hypot
    center distance decides it, in (i, j) order, so the first overlapping
    pair raises as the all-pairs loop would.
    """
    xs = [c.center.x for c in circles]
    ys = [c.center.y for c in circles]
    radii = [c.radius for c in circles]
    blocks = _cell_blocks(xs, ys, 2.0 * max(radii, default=0.0) + (r if r > 0 else 0.0))
    edges = {}
    for i, ci in enumerate(circles):
        xi, yi, ri = xs[i], ys[i], radii[i]
        block = blocks[i]
        for j in block[bisect_right(block, i):]:
            d = math.hypot(xs[j] - xi, ys[j] - yi)
            if d <= ri + radii[j]:
                raise InvalidInstanceError(f"circles {i} and {j} overlap")
            if d <= ri + radii[j] + r:
                phi_ij, phi_ji = link_positions(ci, circles[j])
                edges[(i, j)] = EdgeData(beta=line_angle_points(ci.center, circles[j].center),
                                         phi={i: phi_ij, j: phi_ji})
    return CommGraph(n=len(circles), edges=edges)


def build_path_graph(paths: list[ClosedPath], ranges: list[float]) -> CommGraph:
    """Proximity graph of closed paths: edge iff min distance <= min of the two ranges.

    A pair whose bounding boxes are farther apart than min(range_i, range_j)
    (at least 0, with slack) can neither link nor intersect and is skipped;
    every other pair runs the exact `min_distance` in (i, j) order.  The
    absolute slack scales with the coordinates, because `min_distance`
    rounds at their magnitude.  Candidates j > i come from the cell blocks of
    the boxes' centers, with the widest box diagonal plus the largest reach
    as the cell side, so every pair within reach shares a block.
    """
    boxes = []
    for p in paths:
        xs, ys = zip(*p.vertices)
        boxes.append((min(xs), min(ys), max(xs), max(ys)))
    tol = _PREFILTER_SLACK * (1.0 + max((abs(c) for box in boxes for c in box), default=0.0))
    reach = [r if r > 0 else 0.0 for r in ranges]
    blocks = _cell_blocks(
        [0.5 * x0 + 0.5 * x1 for x0, _, x1, _ in boxes],
        [0.5 * y0 + 0.5 * y1 for _, y0, _, y1 in boxes],
        max((_hypot(x1 - x0, y1 - y0) for x0, y0, x1, y1 in boxes), default=0.0)
        + max(reach, default=0.0) * (1.0 + _PREFILTER_SLACK) + tol)
    edges = {}
    for i, (lxi, lyi, hxi, hyi) in enumerate(boxes):
        block = blocks[i]
        for j in block[bisect_right(block, i):]:
            lxj, lyj, hxj, hyj = boxes[j]
            gap = _hypot(max(lxj - hxi, lxi - hxj, 0.0), max(lyj - hyi, lyi - hyj, 0.0))
            if gap > min(reach[i], reach[j]) * (1.0 + _PREFILTER_SLACK) + tol:
                continue
            d, si, sj = min_distance(paths[i], paths[j])
            if d <= min(ranges[i], ranges[j]):
                pi = paths[i].position_at(si)
                pj = paths[j].position_at(sj)
                edges[(i, j)] = EdgeData(beta=line_angle_points(pi, pj),
                                         phi={i: si, j: sj})
    return CommGraph(n=len(paths), edges=edges, lengths=[p.length for p in paths])


def two_color(g: CommGraph):
    """2-color the graph by BFS depth parity from node 0.

    Returns (colors, None) on success, colors[i] in {0, 1} with node 0 and
    every component's least node on 0, or (None, witness) where witness is
    the odd cycle that the first same-parity edge in BFS order closes.
    """
    f = g.forest
    for u in f.order:
        for v in g.neighbors(u):
            if f.depth[u] % 2 == f.depth[v] % 2:
                return None, fundamental_cycle(f.parent, f.depth, (u, v))
    return [d % 2 for d in f.depth], None


def _bipartite_colors(g: CommGraph) -> list:
    """two_color's colors; raises NotSynchronizableError with the odd-cycle witness."""
    colors, witness = two_color(g)
    if colors is None:
        raise NotSynchronizableError(
            f"graph is not bipartite; odd cycle {witness}", witness=witness)
    return colors


# Exhaustive max-cut search enumerates the 2^(m-1) side assignments of an
# m-node non-bipartite component.  It runs while no such component has more
# than this many nodes; beyond, the local-move heuristic runs instead.
EXACT_MAXCUT_NODE_LIMIT = 24


def max_bipartite_subgraph(g: CommGraph) -> CommGraph:
    """Edge-maximum bipartite subgraph, decided per component of the BFS forest.

    A bipartite component keeps its BFS depth parity and all its edges.  An
    odd component of at most EXACT_MAXCUT_NODE_LIMIT nodes gets its exact
    maximum cut; a larger one a local optimum of the greedy moves.
    """
    f = g.forest
    sides = [d % 2 for d in f.depth]
    for comp in f.components():
        # an edge joining equal BFS depth parities closes an odd cycle
        if all(sides[u] != sides[v] for u in comp for v in g.neighbors(u)):
            continue
        if len(comp) <= EXACT_MAXCUT_NODE_LIMIT:
            _exact_max_cut(g, comp, sides)
        else:
            _greedy_max_cut(g, comp, sides)
    keep = [e for e in g.edges if sides[e[0]] != sides[e[1]]]
    return g if len(keep) == len(g.edges) else g.subgraph(keep)


def _exact_max_cut(g: CommGraph, comp: list[int], sides: list) -> None:
    """Set sides on comp to its first maximum cut in mask order (comp[0] on side 0)."""
    import numpy as np
    index = {node: k for k, node in enumerate(comp)}
    pairs = [(index[a], index[b]) for a in comp for b in g.neighbors(a) if a < b]
    best_count, best_mask = -1, 0
    total = 1 << (len(comp) - 1)
    chunk = 1 << 16
    for lo in range(0, total, chunk):
        masks = np.arange(lo, min(lo + chunk, total), dtype=np.uint64) << np.uint64(1)
        bits = [((masks >> np.uint64(k)) & np.uint64(1)).astype(np.uint8)
                for k in range(len(comp))]
        counts = np.zeros(len(masks), dtype=np.int32)
        for i, j in pairs:
            counts += bits[i] ^ bits[j]
        k = int(np.argmax(counts))
        if counts[k] > best_count:
            best_count = int(counts[k])
            best_mask = int(masks[k])
    for node in comp:
        sides[node] = (best_mask >> index[node]) & 1


def _greedy_max_cut(g: CommGraph, comp: list[int], sides: list) -> None:
    """Set sides on comp to a local optimum: from sides u & 1, move any node,
    ascending, whose own side holds a strict majority of its edges."""
    for u in comp:
        sides[u] = u & 1
    improved = True
    while improved:
        improved = False
        for u in comp:
            nbs = g.neighbors(u)
            same = sum(1 for v in nbs if sides[v] == sides[u])
            if same > len(nbs) - same:
                sides[u] = 1 - sides[u]
                improved = True


def _pi_residue(x: float) -> float:
    """Distance of x from the nearest multiple of pi."""
    r = norm_line_angle(x)
    return min(r, math.pi - r)


def fundamental_cycle(parent, depth, chord):
    """Node sequence of the cycle that a chord closes in a rooted tree."""
    u, v = chord
    pu, pv = [u], [v]
    while depth[pu[-1]] > depth[pv[-1]]:
        pu.append(parent[pu[-1]])
    while depth[pv[-1]] > depth[pu[-1]]:
        pv.append(parent[pv[-1]])
    while pu[-1] != pv[-1]:
        pu.append(parent[pu[-1]])
        pv.append(parent[pv[-1]])
    return pu + pv[-2::-1]


def cycle_basis(g: CommGraph):
    """Fundamental cycles of the BFS forest from node 0, one per chord in edge order."""
    f = g.forest
    return [fundamental_cycle(f.parent, f.depth, (u, v)) for u, v in g.edge_list()
            if f.parent[u] != v and f.parent[v] != u]


def reflection_starts(g: CommGraph) -> list[float]:
    """Start angle per node by BFS propagation of alpha_a = 2*beta - alpha_w - pi.

    Every root of the BFS forest from node 0 starts at 0, and each other node
    reflects its parent's angle across the line of their edge.
    """
    f = g.forest
    starts = [None] * g.n
    for a in f.order:
        w = f.parent[a]
        starts[a] = (0.0 if w is None else
                     norm_angle(2.0 * g.beta(w, a) - starts[w] - math.pi))
    return starts


def max_synch_subgraph(g: CommGraph) -> CommGraph:
    """Keep the spanning tree and every chord whose fundamental cycle is feasible.

    Over the reflection_starts alpha, the cycle a chord (u, v) closes has the
    residue of (alpha_u + alpha_v + pi - 2*beta_uv)/2, O(1) per chord; tree
    edges have residue 0 by construction.  Requires a bipartite input; an odd
    cycle raises NotSynchronizableError with its witness.  Every simple cycle
    of the result has an alternating beta sum within ANGLE_TOL of a multiple
    of pi (alternating beta sums add over symmetric differences).
    """
    _bipartite_colors(g)
    alpha = reflection_starts(g)
    return g.subgraph(
        (u, v) for (u, v), e in g.edges.items()
        if _pi_residue((alpha[u] + alpha[v] + math.pi - 2.0 * e.beta) / 2.0) <= ANGLE_TOL)
