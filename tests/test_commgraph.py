import itertools
import math
import time

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ringsync as rs
from ringsync.commgraph import (EXACT_MAXCUT_NODE_LIMIT, CommGraph, EdgeData, dfs_forest,
                                edge_key, reflection_starts)
from ringsync.errors import InvalidInstanceError, NotSynchronizableError
from ringsync.geometry import Circle, ClosedPath, Point2

from conftest import (cycle_alternating_beta_sum, cycle_feasible_opposite, cycle_residue,
                      path_grid)
from test_acceptance import _random_bipartite_beta_graph


def test_circle_graph_threshold_inclusive():
    c0 = Circle(Point2(0.0, 0.0))
    for d, expect in ((2.5, 1), (2.5000001, 0), (2.1, 1)):
        g = rs.build_circle_graph([c0, Circle(Point2(d, 0.0))], 0.5)
        assert len(g.edges) == expect


def test_circle_graph_rejects_overlap():
    with pytest.raises(InvalidInstanceError):
        rs.build_circle_graph([Circle(Point2(0, 0)), Circle(Point2(1.5, 0))], 0.5)


def test_grid_edge_counts(grid33_graph):
    assert grid33_graph.n == 9
    assert len(grid33_graph.edges) == 12  # diagonals excluded


def square_paths(k, gap=0.4, side=2.0):
    """k unit-perimeter... squares in a row, facing edges `gap` apart."""
    paths = []
    for i in range(k):
        x0 = i * (side + gap)
        paths.append(ClosedPath(np.array([[x0, 0.0], [x0 + side, 0.0],
                                          [x0 + side, side], [x0, side]])))
    return paths


def test_path_graph_chain_and_coloring():
    g = rs.build_path_graph(square_paths(3), [0.5, 0.5, 0.5])
    assert sorted(g.edges) == [(0, 1), (1, 2)]
    coloring, witness = rs.two_color(g)
    assert witness is None
    assert coloring == [0, 1, 0]


def test_path_graph_range_is_minimum():
    # edge requires the gap to fit the smaller of the two ranges
    g = rs.build_path_graph(square_paths(2), [0.5, 0.3])
    assert len(g.edges) == 0
    g = rs.build_path_graph(square_paths(2), [0.5, 0.4])
    assert len(g.edges) == 1


def test_two_color_triangle_witness(triangle):
    g = triangle.graph()
    coloring, witness = rs.two_color(g)
    assert coloring is None
    assert len(witness) == 3
    for a, b in zip(witness, witness[1:] + witness[:1]):
        assert g.has_edge(a, b)


def is_bipartite(g):
    return rs.two_color(g)[0] is not None


def test_is_bipartite(grid33_graph, triangle):
    assert is_bipartite(grid33_graph)
    assert not is_bipartite(triangle.graph())


def test_max_bipartite_subgraph_triangle(triangle):
    sub = rs.max_bipartite_subgraph(triangle.graph())
    assert len(sub.edges) == 2
    assert is_bipartite(sub)


def test_max_synch_subgraph_rejects_odd_cycle(triangle):
    with pytest.raises(NotSynchronizableError) as exc:
        rs.max_synch_subgraph(triangle.graph())
    assert sorted(exc.value.witness) == [0, 1, 2]


def test_max_bipartite_subgraph_greedy_on_random_400():
    """n=400 has a non-bipartite component beyond EXACT_MAXCUT_NODE_LIMIT,
    so the local-move heuristic cuts it: a local optimum, where every node
    has at least half of its edges cut."""
    g = rs.random_connected(400, seed=0).graph()
    sub = rs.max_bipartite_subgraph(g)
    assert (len(g.edges), len(sub.edges)) == (580, 448)
    colors, _ = rs.two_color(sub)
    assert colors is not None
    for u in range(g.n):
        cut = sum(1 for v in g.neighbors(u) if colors[u] != colors[v])
        assert 2 * cut >= len(g.neighbors(u))


def _random_circle_graph(rng, n):
    """Random geometric layout; may be any graph shape."""
    while True:
        centers = [np.zeros(2)]
        for _ in range(n - 1):
            for _ in range(100):
                anchor = centers[int(rng.integers(len(centers)))]
                th = rng.uniform(0, 2 * math.pi)
                cand = anchor + rng.uniform(2.05, 2.5) * np.array([math.cos(th), math.sin(th)])
                if all(np.hypot(*(cand - c)) > 2.0 for c in centers):
                    centers.append(cand)
                    break
        if len(centers) == n:
            return rs.build_circle_graph(
                [Circle(Point2(*map(float, c))) for c in centers], 0.5)


def _brute_max_cut(g):
    best = 0
    nodes = list(range(g.n))
    for bits in itertools.product([0, 1], repeat=g.n - 1):
        side = {0: 0, **dict(zip(nodes[1:], bits))}
        best = max(best, sum(1 for (i, j) in g.edge_list() if side[i] != side[j]))
    return best


def test_max_bipartite_subgraph_matches_brute_force():
    rng = np.random.default_rng(11)
    for _ in range(10):
        g = _random_circle_graph(rng, int(rng.integers(4, 8)))
        assert g.n <= EXACT_MAXCUT_NODE_LIMIT
        sub = rs.max_bipartite_subgraph(g)
        assert is_bipartite(sub)
        assert len(sub.edges) == _brute_max_cut(g)


def test_exact_max_cut_skips_bipartite_components():
    # a triangle beside a 21-edge path: 25 nodes and 24 edges, but only the
    # triangle needs a search; enumerating the path took 2^21 masks
    def edge(i, j):
        return EdgeData(beta=0.0, phi={i: 0.0, j: math.pi})
    edges = {(0, 1): edge(0, 1), (1, 2): edge(1, 2), (0, 2): edge(0, 2)}
    edges.update({(i, i + 1): edge(i, i + 1) for i in range(3, 24)})
    g = CommGraph(n=25, edges=edges)
    start = time.perf_counter()
    sub = rs.max_bipartite_subgraph(g)
    assert time.perf_counter() - start < 0.1
    assert is_bipartite(sub) and len(sub.edges) == 23


def test_max_cut_leaves_bipartite_component_beside_large_odd_one(two_rings):
    # the 25-ring is an odd component past EXACT_MAXCUT_NODE_LIMIT, so it
    # gets the local moves; the hexagon beside it keeps all its links
    g = two_rings.graph()
    sub = rs.max_bipartite_subgraph(g)
    assert (len(g.edges), len(sub.edges)) == (31, 30)
    assert sum(1 for _, b in sub.edges if b < 6) == 6
    assert is_bipartite(sub)


def _beside_odd_ring(g, m=25):
    """g with an m-cycle on the m nodes after its own."""
    ring = [edge_key(g.n + k, g.n + (k + 1) % m) for k in range(m)]
    return CommGraph(n=g.n + m, edges={**g.edges, **{
        (i, j): EdgeData(beta=0.0, phi={i: 0.0, j: 0.0}) for i, j in ring}})


def test_small_odd_components_stay_exact_beside_large_one():
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 8:
        g = _random_circle_graph(rng, int(rng.integers(4, 9)))
        if is_bipartite(g):
            continue
        sub = rs.max_bipartite_subgraph(_beside_odd_ring(g))
        assert sum(1 for _, b in sub.edges if b < g.n) == _brute_max_cut(g)
        assert sum(1 for a, _ in sub.edges if a >= g.n) == 24
        checked += 1


def test_forest_is_cached_per_graph(grid33_graph):
    f = grid33_graph.forest
    assert grid33_graph.forest is f
    sub = grid33_graph.subgraph(f.tree_edges()[:4])
    assert sub.forest is not f
    assert sub.forest.tree_edges() == f.tree_edges()[:4]
    assert len(sub.components()) == 5


def test_grid_cycle_residues(grid33_graph):
    basis = rs.cycle_basis(grid33_graph)
    assert len(basis) == 12 - 9 + 1
    for cyc in basis:
        assert cycle_residue(cyc, grid33_graph) < 1e-9
        assert cycle_feasible_opposite(cyc, grid33_graph)


def test_spanning_tree_and_fundamental_cycles(grid33_graph):
    forest = grid33_graph.forest
    tree = forest.tree_edges()
    assert len(tree) == 8
    chords = [e for e in grid33_graph.edge_list() if edge_key(*e) not in set(tree)]
    assert len(chords) == 4
    for chord in chords:
        cyc = rs.fundamental_cycle(forest.parent, forest.depth, chord)
        assert len(cyc) >= 3
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            assert grid33_graph.has_edge(a, b)


def _nx_mirror(g):
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edge_list())
    return G


def _all_simple_cycles(g):
    return [c for c in nx.simple_cycles(_nx_mirror(g)) if len(c) >= 3]


def test_max_synch_subgraph_no_infeasible_cycles_remain():
    """Basis filtering removes every infeasible simple cycle (oracle check)."""
    rng = np.random.default_rng(5)
    for _ in range(15):
        g = _random_circle_graph(rng, int(rng.integers(4, 9)))
        gb = rs.max_bipartite_subgraph(g)
        gs = rs.max_synch_subgraph(gb)
        for cyc in _all_simple_cycles(gs):
            assert cycle_feasible_opposite(cyc, gs), \
                f"infeasible cycle {cyc} survived filtering"


def test_max_synch_subgraph_keeps_feasible_grid(grid33_graph):
    gs = rs.max_synch_subgraph(grid33_graph)
    assert len(gs.edges) == len(grid33_graph.edges)


def test_alternating_beta_sum_additivity():
    # two fundamental cycles sharing a path: sums add over the symmetric
    # difference, so pairwise feasibility transfers to the composed cycle
    g = rs.grid(2, 3).graph()
    basis = rs.cycle_basis(g)
    assert len(basis) == 2
    outer = [0, 1, 2, 5, 4, 3]
    s_outer = cycle_alternating_beta_sum(outer, g)
    assert math.fmod(abs(s_outer), math.pi) < 1e-9 or \
        math.pi - math.fmod(abs(s_outer), math.pi) < 1e-9


def test_dfs_tree_path_is_path():
    g = rs.build_circle_graph(
        [Circle(Point2(2.4 * i, 0.0)) for i in range(4)], 0.5)
    edges = dfs_forest(g, 3).tree_edges()
    assert edges == [(2, 3), (1, 2), (0, 1)]


def test_dfs_tree_grid_topleft_hamiltonian(grid33_graph):
    edges = dfs_forest(grid33_graph, 0).tree_edges()
    assert len(edges) == 8
    deg = {}
    for (a, b) in edges:
        deg[a] = deg.get(a, 0) + 1
        deg[b] = deg.get(b, 0) + 1
    assert sorted(deg.values()).count(1) == 2
    assert max(deg.values()) == 2  # a Hamiltonian path of the grid


def test_components_and_subgraph(grid33_graph):
    assert len(grid33_graph.components()) == 1
    sub = grid33_graph.subgraph([edge_key(0, 1)])
    comps = sub.components()
    assert sorted(len(c) for c in comps) == [1] * 7 + [2]


def _random_traversal_graph(rng):
    """Seeded random graph on range(n); sparse ones are often disconnected."""
    n = int(rng.integers(1, 16))
    p = float(rng.uniform(0.05, 0.6))
    edges = {(i, j): EdgeData(beta=0.0, phi={i: 0.0, j: 0.0})
             for i in range(n) for j in range(i + 1, n) if rng.random() < p}
    return CommGraph(n=n, edges=edges)


def _nx_forest_edges(G, root, traverse):
    """Edges of traverse(G, start) from root, then from each other component's least node."""
    starts = [root] + sorted(min(c) for c in nx.connected_components(G) if root not in c)
    return [edge_key(u, v) for s in starts for u, v in traverse(G, s)]


def test_traversal_order_matches_networkx():
    """The BFS/DFS ordering contract that byte-exact artifacts depend on."""
    rng = np.random.default_rng(2024)
    odd = disconnected = 0
    for _ in range(200):
        g = _random_traversal_graph(rng)
        G = _nx_mirror(g)   # edges inserted in sorted order: ascending adjacency
        root = int(rng.integers(g.n))
        assert g.forest.tree_edges() == _nx_forest_edges(G, 0, nx.bfs_edges)
        assert dfs_forest(g, root).tree_edges() == _nx_forest_edges(G, root, nx.dfs_edges)
        assert g.components() == sorted(sorted(c) for c in nx.connected_components(G))
        assert sorted(dfs_forest(g, root).components()) == g.components()
        disconnected += len(g.components()) > 1
        colors, witness = rs.two_color(g)
        if nx.is_bipartite(G):
            assert witness is None
            assert all(colors[a] != colors[b] for a, b in g.edges)
        else:
            odd += 1
            assert colors is None
            assert len(witness) % 2 == 1 and len(set(witness)) == len(witness)
            for a, b in zip(witness, witness[1:] + witness[:1]):
                assert g.has_edge(a, b)
    assert odd > 20 and disconnected > 20


def test_traversal_rejects_unknown_root(grid33_graph):
    for root in (-1, 9):
        with pytest.raises(ValueError):
            dfs_forest(grid33_graph, root)


# ---------------------------------------------------------------------------
# Graph builds against the all-pairs loops they replaced

def _circle_graph_reference(circles, r):
    """All-pairs circle build: the exact test on every pair in (i, j) order."""
    from ringsync.geometry import line_angle_points, link_positions
    edges = {}
    for i, j in itertools.combinations(range(len(circles)), 2):
        ci, cj = circles[i], circles[j]
        d = math.hypot(cj.center.x - ci.center.x, cj.center.y - ci.center.y)
        if d <= ci.radius + cj.radius:
            raise InvalidInstanceError(f"circles {i} and {j} overlap")
        if d <= ci.radius + cj.radius + r:
            phi_ij, phi_ji = link_positions(ci, cj)
            edges[(i, j)] = EdgeData(beta=line_angle_points(ci.center, cj.center),
                                     phi={i: phi_ij, j: phi_ji})
    return edges


def _path_graph_reference(paths, ranges):
    """All-pairs path build: min_distance on every pair in (i, j) order."""
    from ringsync.geometry import line_angle_points, min_distance
    edges = {}
    for i, j in itertools.combinations(range(len(paths)), 2):
        d, si, sj = min_distance(paths[i], paths[j])
        if d <= min(ranges[i], ranges[j]):
            edges[(i, j)] = EdgeData(
                beta=line_angle_points(paths[i].position_at(si),
                                       paths[j].position_at(sj)),
                phi={i: si, j: sj})
    return edges


def _outcome(build, *args):
    """Edges in insertion order, or the type and message of the error raised."""
    try:
        edges = build(*args)
    except rs.RingsyncError as exc:
        return f"{type(exc).__name__}: {exc}"
    return list((edges if isinstance(edges, dict) else edges.edges).items())


def _assert_circle_build_matches(circles, r):
    expect = _outcome(_circle_graph_reference, circles, r)
    assert _outcome(rs.build_circle_graph, circles, r) == expect
    return expect


def _prefilter_pairs_np(paths, ranges):
    """The pairs the numpy bounding-box prefilter handed to min_distance, in
    (i, j) order: the code build_path_graph ran before its cell blocks."""
    from ringsync.commgraph import _PREFILTER_SLACK
    n = len(paths)
    vertices = [np.asarray(p.vertices, dtype=float) for p in paths]
    lo = np.array([v.min(axis=0) for v in vertices]).reshape(n, 2)
    hi = np.array([v.max(axis=0) for v in vertices]).reshape(n, 2)
    rng = np.array(ranges, dtype=float)
    tol = _PREFILTER_SLACK * (1.0 + np.abs(np.concatenate((lo, hi))).max(initial=0.0))
    pairs = []
    for i in range(n - 1):
        gap = np.maximum(np.maximum(lo[i + 1:] - hi[i], lo[i] - hi[i + 1:]), 0.0)
        reach = np.minimum(rng[i], rng[i + 1:])
        reach = np.where(reach > 0, reach, 0.0)
        far = np.hypot(gap[:, 0], gap[:, 1]) > reach * (1.0 + _PREFILTER_SLACK) + tol
        pairs += [(i, j) for j in (np.flatnonzero(~far) + (i + 1)).tolist()]
    return pairs


def _measured_pairs(paths, ranges):
    """The pairs build_path_graph runs min_distance on, in order, up to the
    one that raises, and whether one raised."""
    import ringsync.commgraph as commgraph
    index = {id(p): k for k, p in enumerate(paths)}
    pairs, real = [], commgraph.min_distance

    def spy(p, q):
        pairs.append((index[id(p)], index[id(q)]))
        return real(p, q)

    commgraph.min_distance = spy
    try:
        commgraph.build_path_graph(paths, ranges)
    except rs.RingsyncError:
        return pairs, True
    finally:
        commgraph.min_distance = real
    return pairs, False


def _assert_path_build_matches(paths, ranges):
    expect = _outcome(_path_graph_reference, paths, ranges)
    assert _outcome(rs.build_path_graph, paths, ranges) == expect
    measured, raised = _measured_pairs(paths, ranges)
    oracle = _prefilter_pairs_np(paths, ranges)
    assert measured == (oracle[:len(measured)] if raised else oracle)
    return expect


@st.composite
def circle_layouts(draw):
    """Circles with mixed radii; some placed at exactly ri + rj + r (or
    ri + rj, an overlap) from an earlier circle, the rest anywhere."""
    r = draw(st.one_of(st.sampled_from([0.5, 0.0, -0.3, 1.2]),
                       st.floats(-1.0, 2.0, allow_nan=False)))
    circles = []
    for _ in range(draw(st.integers(1, 14))):
        radius = draw(st.sampled_from([1.0, 1.0, 0.5, 1.7, 0.25]))
        if circles and draw(st.booleans()):
            base = circles[draw(st.integers(0, len(circles) - 1))]
            gap = draw(st.sampled_from([r, r, 0.0, abs(r) + 0.1]))
            theta = draw(st.floats(0.0, 2.0 * math.pi))
            dist = base.radius + radius + gap
            center = Point2(base.center.x + dist * math.cos(theta),
                            base.center.y + dist * math.sin(theta))
        else:
            center = Point2(draw(st.floats(-9.0, 9.0)), draw(st.floats(-9.0, 9.0)))
        circles.append(Circle(center, radius))
    return circles, r


@settings(max_examples=300, deadline=None)
@given(circle_layouts())
def test_circle_graph_matches_all_pairs_loop(layout):
    _assert_circle_build_matches(*layout)


def test_circle_graph_matches_all_pairs_on_generated_layouts(grid33):
    _assert_circle_build_matches(grid33.circles, grid33.comm_range)
    for name in ("fig9a", "fig9b", "fig11", "fig7-starve", "fig10a"):
        inst = rs.preset(name)
        _assert_circle_build_matches(inst.circles, inst.comm_range)
    inst = rs.random_connected(200, seed=3)
    assert _assert_circle_build_matches(inst.circles, inst.comm_range)


def test_circle_graph_keeps_pairs_numpy_rounds_past_threshold():
    # np.hypot and math.hypot differ in the last bit on some inputs.  Pairs
    # whose math.hypot distance is at the threshold but whose numpy distance
    # is one ulp beyond it must still link: the build decides on math.hypot.
    c0 = Circle(Point2(0.0, 0.0))
    found = 0
    for k in range(20000):
        theta = 2.0 * math.pi * k / 20000
        c1 = Circle(Point2(2.5 * math.cos(theta), 2.5 * math.sin(theta)))
        dx, dy = c1.center.x, c1.center.y
        if math.hypot(dx, dy) <= 2.5 < float(np.hypot(dx, dy)):
            found += 1
            assert len(_assert_circle_build_matches([c0, c1], 0.5)) == 1
    assert found > 0


def test_circle_graph_negative_range_still_rejects_overlap():
    # With r < 0 no pair links, but an overlap must still raise.
    circles = [Circle(Point2(0.0, 0.0)), Circle(Point2(5.0, 0.0)), Circle(Point2(1.9, 0.0))]
    assert _assert_circle_build_matches(circles, -0.5) == \
        "InvalidInstanceError: circles 0 and 2 overlap"


def _grid_circles(rows, cols, x0=0.0, y0=0.0, spacing=2.4, radius=1.0):
    return [Circle(Point2(x0 + c * spacing, y0 - k * spacing), radius)
            for k in range(rows) for c in range(cols)]


# (circles, r) layouts at the edges of the circle build's cell grid.
_MIXED = [Circle(Point2(0.0, 0.0), 1.7), Circle(Point2(2.45, 0.0), 0.25),
          Circle(Point2(0.0, -3.2), 1.0), Circle(Point2(2.45, -1.5), 0.5),
          Circle(Point2(5.0, 5.0), 0.25), Circle(Point2(5.0, 7.2), 1.7)]
CELL_GRID_LAYOUTS = {
    "mixed-radii": (_MIXED, 0.5),
    "mixed-radii-overlap": (_MIXED + [Circle(Point2(3.3, -1.5), 0.4)], 0.5),
    "negative-coordinates": (_grid_circles(4, 5, x0=-1003.7, y0=-2.5e4), 0.5),
    "negative-overlap": (_grid_circles(3, 3, x0=-50.0, y0=-50.0, spacing=1.99), 0.5),
    "r-zero": (_grid_circles(4, 4, spacing=2.0 + 1e-12), 0.0),
    "r-negative": (_grid_circles(4, 4, spacing=2.2), -0.3),
    "r-negative-overlap": (_grid_circles(4, 4, spacing=1.9), -0.3),
    "r-nan": (_grid_circles(4, 4, spacing=2.2), math.nan),
    "r-inf": (_grid_circles(3, 4, spacing=7.0), math.inf),
    "far-clusters": (_grid_circles(3, 3) + _grid_circles(2, 3, x0=1e6, y0=-3e6)
                     + _grid_circles(2, 2, x0=-4e9), 0.5),
    "far-clusters-overlap": (_grid_circles(3, 3) + _grid_circles(2, 2, x0=7e8)
                             + [Circle(Point2(7e8 + 1.0, -1.0))], 0.5),
    "empty": ([], 0.5),
    "one": ([Circle(Point2(-3.0, 8.0))], 0.5),
    "tiny-radius-large-coordinate": ([Circle(Point2(1e10, 0.0), 1e-300),
                                      Circle(Point2(1e10, 5.0), 1e-300)], 0.0),
    "tiny-radius-far-apart": ([Circle(Point2(1e10, 0.0), 1e-300),
                               Circle(Point2(-1e10, 0.0), 1e-300)], 0.0),
    "tiny-radius-linked": ([Circle(Point2(1e10, 0.0), 1e-300),
                            Circle(Point2(1e10, 1e-6), 1e-300)], 1e-6),
    "span-past-float-range": ([Circle(Point2(-1.5e308, 0.0)), Circle(Point2(1.5e308, 0.0)),
                               Circle(Point2(1.5e308, 2.4))], 0.5),
}


@pytest.mark.parametrize("name", CELL_GRID_LAYOUTS)
def test_circle_graph_cell_grid_matches_all_pairs_loop(name):
    circles, r = CELL_GRID_LAYOUTS[name]
    expect = _assert_circle_build_matches(circles, r)
    # each layout raises, has no edge (no pair is close, or r <= 0) or links
    assert isinstance(expect, str) == name.endswith("overlap")
    if name in ("empty", "one", "tiny-radius-large-coordinate", "tiny-radius-far-apart",
                "r-zero", "r-negative", "r-nan"):
        assert expect == []
    elif not name.endswith("overlap"):
        assert expect


def test_cell_blocks_hold_only_neighbouring_cells():
    """On the 30x30 grid every block is its 3x3 cells, at most 16 circles,
    and holds every circle within reach."""
    from ringsync.commgraph import _cell_blocks
    circles = _grid_circles(30, 30)
    xs = [c.center.x for c in circles]
    ys = [c.center.y for c in circles]
    blocks = _cell_blocks(xs, ys, 2.5)
    assert max(map(len, blocks)) <= 16
    assert all(block == sorted(block) for block in blocks)
    for i, j in itertools.combinations(range(len(circles)), 2):
        if math.hypot(xs[j] - xs[i], ys[j] - ys[i]) <= 2.5:
            assert j in blocks[i] and i in blocks[j]


@st.composite
def scattered_circle_layouts(draw):
    """Small clusters of circles far apart, at any scale of coordinates and radii."""
    scale = draw(st.sampled_from([1e-9, 1.0, 1e3, 1e9]))
    radius = draw(st.sampled_from([1e-300, 1e-6, 1.0, 40.0]))
    r = draw(st.sampled_from([0.0, -1.0, 0.5 * radius, 3.0 * radius, math.inf]))
    circles = []
    for _ in range(draw(st.integers(0, 4))):
        cx, cy = draw(st.floats(-1e3, 1e3)) * scale, draw(st.floats(-1e3, 1e3)) * scale
        for _ in range(draw(st.integers(1, 4))):
            circles.append(Circle(Point2(cx + draw(st.floats(-6.0, 6.0)) * radius,
                                         cy + draw(st.floats(-6.0, 6.0)) * radius), radius))
    return circles, r


@settings(max_examples=200, deadline=None)
@given(scattered_circle_layouts())
def test_circle_graph_matches_all_pairs_loop_at_any_scale(layout):
    _assert_circle_build_matches(*layout)


def _rect(x0, y0, w, h):
    return ClosedPath(np.array([[x0, y0], [x0 + w, y0], [x0 + w, y0 + h], [x0, y0 + h]]))


@pytest.mark.parametrize("rows,cols,staggered", [
    (2, 2, True), (3, 3, True), (3, 4, True), (4, 4, True),
    (2, 2, False), (3, 3, False), (3, 4, False)])
def test_path_graph_matches_all_pairs_on_grids(rows, cols, staggered):
    inst = path_grid(rows, cols, staggered=staggered)
    expect = _assert_path_build_matches(inst.paths, inst.ranges)
    assert len(expect) == rows * (cols - 1) + cols * (rows - 1)


def test_path_graph_matches_all_pairs_on_presets():
    inst = rs.preset("case-study")
    _assert_path_build_matches(inst.paths, inst.ranges)
    for ranges in ([0.4] * 7, [0.0] * 7, [-0.5] * 7, [10.0] * 7):
        _assert_path_build_matches(inst.paths, ranges)
    _assert_path_build_matches(square_paths(4), [0.4, 0.5, 0.3, 0.4])


@st.composite
def rectangle_layouts(draw):
    """Rectangles, one per 3x3 cell (disjoint) unless `loose` lets them
    roam and intersect; ranges include each path's exact distance to the
    next one, 0 and negatives."""
    from ringsync.geometry import min_distance
    loose = draw(st.booleans())
    cols = draw(st.integers(1, 4))
    paths = []
    for k in range(draw(st.integers(1, 10))):
        w, h = draw(st.floats(0.2, 2.6)), draw(st.floats(0.2, 2.6))
        cx, cy = 3.0 * (k % cols), -3.0 * (k // cols)
        x0 = cx + draw(st.floats(-2.0, 2.0) if loose else st.floats(0.0, 2.8 - w))
        y0 = cy + draw(st.floats(-2.0, 2.0) if loose else st.floats(0.0, 2.8 - h))
        paths.append(_rect(x0, y0, w, h))
    ranges = []
    for k, p in enumerate(paths):
        kind = draw(st.sampled_from(["exact", "exact", "draw", "zero", "negative"]))
        if kind == "exact" and k + 1 < len(paths):
            try:
                ranges.append(min_distance(p, paths[k + 1])[0])
            except rs.RingsyncError:
                ranges.append(0.5)
        elif kind == "zero":
            ranges.append(0.0)
        elif kind == "negative":
            ranges.append(-draw(st.floats(0.01, 2.0)))
        else:
            ranges.append(draw(st.floats(0.0, 4.0)))
    return paths, ranges


@settings(max_examples=200, deadline=None)
@given(rectangle_layouts())
def test_path_graph_matches_all_pairs_on_rectangles(layout):
    _assert_path_build_matches(*layout)


def test_path_graph_prune_slack_scales_with_coordinates():
    # At 1e16 the bounding boxes and the paths are both 2.0 apart: the pair
    # links at range 2.0 and not at 1.5, as the all-pairs reference finds.
    a = ClosedPath(np.array([[-1e16, 0.0], [3.0, 0.0], [-1e16, 1.0]]))
    b = _rect(5.0, 0.0, 1.0, 1.0)
    assert len(_assert_path_build_matches([a, b], [2.0, 2.0])) == 1
    assert len(_assert_path_build_matches([a, b], [1.5, 1.5])) == 0


def test_path_graph_skips_pairs_with_distant_bounding_boxes(monkeypatch):
    import ringsync.commgraph as commgraph
    calls = []
    real = commgraph.min_distance
    monkeypatch.setattr(commgraph, "min_distance",
                        lambda p, q: calls.append(1) or real(p, q))
    inst = path_grid(4, 4)
    g = rs.build_path_graph(inst.paths, inst.ranges)
    # of the 120 pairs, only the 24 grid neighbours have bounding boxes
    # within range 0.5 of each other (diagonal ones are about 0.57 apart)
    assert len(g.edges) == 24 and len(calls) == 24


def _cycle_walk_filter(g):
    """The chord filter as a walk: keep each BFS tree edge, and each chord
    whose fundamental cycle passes cycle_feasible_opposite."""
    f = g.forest
    tree = set(f.tree_edges())
    return [e for e in g.edges if e in tree or cycle_feasible_opposite(
        rs.fundamental_cycle(f.parent, f.depth, e), g)]


def _assert_filter_matches_cycle_walk(g, geometric=True):
    """max_synch_subgraph keeps exactly the cycle walk's edges of g's maximum
    bipartite subgraph.  On a geometric g the scheduler's starts on the
    result are also that subgraph's reflection starts, the potentials the
    filter read.  Returns the number of chords dropped."""
    gb = rs.max_bipartite_subgraph(g)
    gs = rs.max_synch_subgraph(gb)
    assert list(gs.edges) == _cycle_walk_filter(gb)
    if geometric:
        assert rs.schedule_opposite_directions(gs).starts == reflection_starts(gb)
    return len(gb.edges) - len(gs.edges)


@pytest.mark.parametrize("name", ["surveillance-3x3", "fig9a", "fig9b", "fig11",
                                  "fig7-starve", "fig10a"])
def test_chord_filter_matches_cycle_walk_on_presets(name):
    _assert_filter_matches_cycle_walk(rs.preset(name).graph())


@pytest.mark.parametrize("k", [10, 30, 100])
def test_chord_filter_matches_cycle_walk_on_grids(k):
    assert _assert_filter_matches_cycle_walk(rs.grid(k, k).graph()) == 0


def test_chord_filter_matches_cycle_walk_on_random_400():
    # the benchmark's random layout: 132 odd-cycle and 58 infeasible-cycle drops
    g = rs.random_connected(400, seed=0).graph()
    assert _assert_filter_matches_cycle_walk(g) == 58


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 80), seed=st.integers(0, 2**32 - 1),
       r=st.one_of(st.sampled_from([0.5, 0.01, 2.0]), st.floats(0.001, 3.0)))
def test_chord_filter_matches_cycle_walk_on_random_layouts(n, seed, r):
    _assert_filter_matches_cycle_walk(rs.random_connected(n, r=r, seed=seed).graph())


@settings(max_examples=150, deadline=None)
@given(circle_layouts())
def test_chord_filter_matches_cycle_walk_on_mixed_radii(layout):
    try:
        g = rs.build_circle_graph(*layout)
    except InvalidInstanceError:
        return                       # an overlapping layout has no graph
    _assert_filter_matches_cycle_walk(g)


def test_chord_filter_matches_cycle_walk_on_axis_aligned_betas():
    # half of these graphs take every beta from {0, pi/2}, so each chord's
    # residue is 0 or pi/2 up to rounding; their link positions are not
    # geometric, so no schedule closes on them
    rng = np.random.default_rng(16)
    for _ in range(200):
        _assert_filter_matches_cycle_walk(_random_bipartite_beta_graph(rng),
                                          geometric=False)
