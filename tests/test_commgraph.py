import itertools
import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ringsync as rs
from ringsync.commgraph import (EXACT_MAXCUT_EDGE_LIMIT, CommGraph, EdgeData,
                                bfs_forest, cycle_alternating_beta_sum,
                                dfs_forest, edge_key)
from ringsync.errors import DisconnectedGraphError, InvalidInstanceError
from ringsync.geometry import Circle, ClosedPath, Point2


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


def test_is_bipartite(grid33_graph, triangle):
    assert rs.is_bipartite(grid33_graph)
    assert not rs.is_bipartite(triangle.graph())


def test_max_bipartite_subgraph_triangle(triangle):
    sub = rs.max_bipartite_subgraph(triangle.graph())
    assert len(sub.edges) == 2
    assert rs.is_bipartite(sub)


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
        if len(g.edges) > EXACT_MAXCUT_EDGE_LIMIT:
            continue
        sub = rs.max_bipartite_subgraph(g)
        assert rs.is_bipartite(sub)
        assert len(sub.edges) == _brute_max_cut(g)


def test_grid_cycle_residues(grid33_graph):
    basis = rs.cycle_basis(grid33_graph)
    assert len(basis) == 12 - 9 + 1
    for cyc in basis:
        assert rs.cycle_residue(cyc, grid33_graph) < 1e-9
        assert rs.cycle_feasible_opposite(cyc, grid33_graph)


def test_spanning_tree_and_fundamental_cycles(grid33_graph):
    tree = rs.spanning_tree(grid33_graph)
    assert len(tree) == 8
    chords = [e for e in grid33_graph.edge_list() if edge_key(*e) not in set(tree)]
    assert len(chords) == 4
    forest = bfs_forest(grid33_graph, 0)
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
            assert rs.cycle_feasible_opposite(cyc, gs), \
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
    edges = rs.dfs_tree(g, 3)
    assert sorted(edges) == [(0, 1), (1, 2), (2, 3)]


def test_dfs_tree_grid_topleft_hamiltonian(grid33_graph):
    edges = rs.dfs_tree(grid33_graph, 0)
    assert len(edges) == 8
    deg = {}
    for (a, b) in edges:
        deg[a] = deg.get(a, 0) + 1
        deg[b] = deg.get(b, 0) + 1
    assert sorted(deg.values()).count(1) == 2
    assert max(deg.values()) == 2  # a Hamiltonian path of the grid


def test_dfs_tree_disconnected_raises():
    c = [Circle(Point2(0, 0)), Circle(Point2(10, 0))]
    g = rs.build_circle_graph(c, 0.5)
    with pytest.raises(DisconnectedGraphError):
        rs.dfs_tree(g, 0)


def test_components_and_subgraph(grid33_graph):
    assert grid33_graph.is_connected()
    sub = grid33_graph.subgraph([edge_key(0, 1)])
    comps = sub.components()
    assert sorted(len(c) for c in comps) == [1] * 7 + [2]


def _random_traversal_graph(rng):
    """Seeded random graph on range(n); sparse ones are often disconnected."""
    n = int(rng.integers(1, 16))
    p = float(rng.uniform(0.05, 0.6))
    edges = {(i, j): EdgeData(beta=0.0, phi={i: 0.0, j: 0.0}, distance=0.0)
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
        assert rs.spanning_tree(g, root) == _nx_forest_edges(G, root, nx.bfs_edges)
        assert dfs_forest(g, root).tree_edges() == _nx_forest_edges(G, root, nx.dfs_edges)
        assert g.components() == sorted(sorted(c) for c in nx.connected_components(G))
        if g.is_connected():
            assert rs.dfs_tree(g, root) == [edge_key(*e) for e in nx.dfs_edges(G, root)]
        else:
            disconnected += 1
            with pytest.raises(DisconnectedGraphError):
                rs.dfs_tree(g, root)
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
    for walk in (bfs_forest, dfs_forest):
        for root in (-1, 9):
            with pytest.raises(ValueError):
                walk(grid33_graph, root)
