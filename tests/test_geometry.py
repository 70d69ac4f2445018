import hashlib
import itertools
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ringsync.errors import DegenerateGeometryError, OverlappingTrajectoriesError
from ringsync.geometry import (Circle, ClosedPath, Point2, _seg_seg_closest,
                               line_angle_points, link_positions, min_distance,
                               norm_angle, norm_line_angle)

TWO_PI = 2.0 * math.pi


@given(st.floats(-50.0, 50.0))
def test_norm_angle_range_and_periodicity(a):
    x = norm_angle(a)
    assert 0.0 <= x < TWO_PI
    assert abs(norm_angle(a + TWO_PI) - x) < 1e-9


@given(st.floats(-50.0, 50.0))
def test_norm_line_angle_range(a):
    x = norm_line_angle(a)
    assert 0.0 <= x < math.pi
    assert abs(norm_line_angle(a + math.pi) - x) < 1e-9 or \
        abs(abs(norm_line_angle(a + math.pi) - x) - math.pi) < 1e-9


def test_norm_angles_keep_nan():
    # a NaN start angle must not read as angle 0
    assert math.isnan(norm_angle(math.nan)) and math.isnan(norm_line_angle(math.nan))


def test_link_positions_collinear():
    ci = Circle(Point2(0.0, 0.0))
    cj = Circle(Point2(2.4, 0.0))
    phi_ij, phi_ji = link_positions(ci, cj)
    assert phi_ij == pytest.approx(0.0, abs=1e-12)
    assert phi_ji == pytest.approx(math.pi, abs=1e-12)


@given(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0))
def test_link_positions_antipodal(dx, dy):
    if math.hypot(dx, dy) < 2.05:
        return
    ci = Circle(Point2(0.0, 0.0))
    cj = Circle(Point2(dx, dy))
    phi_ij, phi_ji = link_positions(ci, cj)
    assert norm_angle(phi_ji - phi_ij - math.pi) == pytest.approx(0.0, abs=1e-9) or \
        norm_angle(phi_ji - phi_ij - math.pi) == pytest.approx(TWO_PI, abs=1e-9)


def test_line_angle_symmetric_and_bounded():
    p, q = Point2(0.0, 0.0), Point2(2.2, 2.2)
    b = line_angle_points(p, q)
    assert 0.0 <= b < math.pi
    assert line_angle_points(q, p) == pytest.approx(b, abs=1e-12)
    assert b == pytest.approx(math.pi / 4.0, abs=1e-12)


def test_line_angle_points_vertical():
    assert line_angle_points(Point2(1.0, 0.0), Point2(1.0, 3.0)) == \
        pytest.approx(math.pi / 2.0, abs=1e-12)


def unit_square(x0=0.0, y0=0.0, side=1.0):
    return ClosedPath(np.array([[x0, y0], [x0 + side, y0],
                                [x0 + side, y0 + side], [x0, y0 + side]]))


def test_closed_path_length_and_position():
    sq = unit_square()
    assert sq.length == pytest.approx(4.0)
    p = sq.position_at(0.5)
    assert (p.x, p.y) == (pytest.approx(0.5), pytest.approx(0.0))
    p = sq.position_at(2.5)
    assert (p.x, p.y) == (pytest.approx(0.5), pytest.approx(1.0))


@given(st.floats(-20.0, 20.0))
def test_position_at_periodic(s):
    sq = unit_square()
    p = sq.position_at(s)
    q = sq.position_at(s + sq.length)
    assert (p.x, p.y) == (pytest.approx(q.x, abs=1e-9), pytest.approx(q.y, abs=1e-9))


def test_self_intersecting_path_rejected():
    bowtie = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(Exception):
        ClosedPath(bowtie)


def test_min_distance_parallel_squares():
    a = unit_square(0.0, 0.0)
    b = unit_square(1.4, 0.0)
    d, si, sj = min_distance(a, b)
    assert d == pytest.approx(0.4, abs=1e-12)
    # closest points sit on the facing edges
    pa, pb = a.position_at(si), b.position_at(sj)
    assert pa.x == pytest.approx(1.0, abs=1e-9)
    assert pb.x == pytest.approx(1.4, abs=1e-9)


def test_min_distance_symmetry():
    a = unit_square(0.0, 0.0)
    b = unit_square(2.0, 1.5)
    d1, _, _ = min_distance(a, b)
    d2, _, _ = min_distance(b, a)
    assert d1 == pytest.approx(d2, abs=1e-12)


def test_min_distance_brute_force_agreement():
    rng = np.random.default_rng(3)
    a = unit_square(0.0, 0.0)
    for _ in range(20):
        dx, dy = rng.uniform(1.5, 4.0), rng.uniform(-2.0, 2.0)
        b = unit_square(dx, dy)
        d, _, _ = min_distance(a, b)
        ss = np.linspace(0.0, 4.0, 400, endpoint=False)
        pa = np.array([[a.position_at(s).x, a.position_at(s).y] for s in ss])
        pb = np.array([[b.position_at(s).x, b.position_at(s).y] for s in ss])
        brute = np.min(np.hypot(pa[:, None, 0] - pb[None, :, 0],
                                pa[:, None, 1] - pb[None, :, 1]))
        assert d <= brute + 1e-9
        assert brute - d < 0.05  # sampling resolution bound


def test_min_distance_clamps_to_the_endpoint_itself():
    # At 1e16, a + 1.0 * (b - a) is not b: the clamped closest point on the
    # triangle's edge must be its vertex (3, 0), 2.0 from the square.
    a = ClosedPath(np.array([[-1e16, 0.0], [3.0, 0.0], [-1e16, 1.0]]))
    b = unit_square(5.0, 0.0)
    assert min_distance(a, b)[0] == 2.0
    assert min_distance(b, a)[0] == 2.0


def test_intersecting_paths_rejected():
    a = unit_square(0.0, 0.0)
    b = unit_square(0.5, 0.5)
    with pytest.raises(OverlappingTrajectoriesError):
        min_distance(a, b)


def test_circle_point_at():
    c = Circle(Point2(1.0, 2.0))
    p = c.point_at(math.pi / 2.0)
    assert (p.x, p.y) == (pytest.approx(1.0), pytest.approx(3.0))


# ---------------------------------------------------------------------------
# The standard-library path arithmetic against the numpy code it replaced

# Both compute each quantity with the same formulas.  They differ only where
# numpy's 2-vector dot fuses a multiply-add, which rounds once where two
# products and a sum round three times, and where np.hypot and math.hypot,
# each within one ulp, round to neighbouring doubles.  Each such difference
# is at most a few ulps of the largest coordinate magnitude, and the
# formulas scale it by a small constant: a projection's parameter by one
# division and its point by one product.  64 ulps of that magnitude covers
# both with room: over the corpus below and 200,000 random segment pairs
# drawn as `_coordinate` draws, no distance moved by more than 4.1 of them.
# Products of coordinate differences below 2**-511 are subnormal and round
# by 2**-1074 absolutely; the points and distances they shift move by less
# than 2**-500, which the tolerance adds.
_ULPS = 64


def _tolerance(points) -> float:
    """64 ulps of the largest coordinate magnitude among points, plus 2**-500."""
    return (_ULPS * sys.float_info.epsilon * max(abs(c) for p in points for c in p)
            + 2.0**-500)


def _seg_seg_closest_np(p1, p2, q1, q2):
    """The numpy segment distance path graphs were built with, on (2,) arrays."""
    best = None
    for (a, b, p, swap) in ((p1, p2, q1, True), (p1, p2, q2, True),
                            (q1, q2, p1, False), (q1, q2, p2, False)):
        ab = b - a
        ab2 = float(ab @ ab)
        t = 0.0 if ab2 == 0.0 else min(max(float((p - a) @ ab), 0.0), ab2) / ab2
        closest = a if t == 0.0 else b if t == 1.0 else a + t * ab
        d = float(np.hypot(*(p - closest)))
        seg_len = math.sqrt(ab2)
        if swap:
            off_q = 0.0 if p is q1 else float(np.hypot(*(p - q1)))
            cand = (d, t * seg_len, off_q)
        else:
            off_p = 0.0 if p is p1 else float(np.hypot(*(p - p1)))
            cand = (d, off_p, t * seg_len)
        if best is None or cand[0] < best[0] or (cand[0] == best[0] and cand[1:] < best[1:]):
            best = cand
    return best


def _lengths_np(vertices):
    """ClosedPath's segment and cumulative lengths as numpy computed them."""
    v = np.asarray(vertices, dtype=float)
    diffs = np.roll(v, -1, axis=0) - v
    seg = np.hypot(diffs[:, 0], diffs[:, 1])
    return seg, np.concatenate([[0.0], np.cumsum(seg)])


def _position_at_np(vertices, s):
    """ClosedPath.position_at as numpy computed it."""
    v = np.asarray(vertices, dtype=float)
    seg, cum = _lengths_np(v)
    length = float(cum[-1])
    s = math.fmod(s, length)
    if s < 0:
        s += length
    idx = min(int(np.searchsorted(cum, s, side="right") - 1), len(seg) - 1)
    t = (s - cum[idx]) / seg[idx]
    p = v[idx] + t * (v[(idx + 1) % len(v)] - v[idx])
    return float(p[0]), float(p[1])


def _point_at(a, b, offset):
    """The point offset along segment ab from a."""
    length = math.dist(a, b)
    return a if length == 0.0 else tuple(ai + offset / length * (bi - ai)
                                          for ai, bi in zip(a, b))


def assert_segments_match_numpy(p1, p2, q1, q2):
    """The distance equals numpy's within the tolerance, and so does the
    distance of the two points the offsets name: where two candidates tie,
    either side may name the other pair of closest points."""
    points = [(float(x), float(y)) for x, y in (p1, p2, q1, q2)]
    d, t, u = _seg_seg_closest(*points)
    d_np = _seg_seg_closest_np(*[np.array(p) for p in points])[0]
    tol = _tolerance(points)
    assert abs(d - d_np) <= tol, (points, d, d_np)
    named = math.dist(_point_at(*points[:2], t), _point_at(*points[2:], u))
    assert abs(named - d_np) <= tol, (points, named, d_np)


def assert_path_matches_numpy(path: ClosedPath):
    """Lengths within one ulp, as math.hypot and np.hypot each round to
    within one; running sums and positions within the tolerance."""
    seg, cum = _lengths_np(path.vertices)
    assert all(abs(a - b) <= math.ulp(b) for a, b in zip(path.seg_lengths, seg.tolist()))
    tol = _tolerance(path.vertices + [(path.length, 0.0)])
    assert all(abs(a - b) <= tol for a, b in zip(path.cum_lengths, cum.tolist()))
    assert abs(path.length - cum[-1]) <= tol
    for s in np.linspace(-1.5 * path.length, 2.5 * path.length, 61).tolist() + path.cum_lengths:
        q = path.position_at(s)
        x, y = _position_at_np(path.vertices, s)
        assert abs(q.x - x) <= tol and abs(q.y - y) <= tol, s


# Coordinates: small reals, integers (parallel, collinear, touching and
# degenerate segments) and points near 1e16, where a + 1.0 * (b - a) is not b.
_coordinate = st.one_of(st.floats(-4.0, 4.0), st.integers(-3, 3).map(float),
                        st.floats(-4.0, 4.0).map(lambda x: 1e16 + 4.0 * round(x)),
                        st.floats(-1e16, 1e16))
_point = st.tuples(_coordinate, _coordinate)


@settings(max_examples=600, deadline=None)
@given(_point, _point, _point, _point)
@example((-1e16, 0.0), (3.0, 0.0), (5.0, 0.0), (5.0, 1.0))        # clamped endpoint
@example((5.0, 0.0), (5.0, 1.0), (-1e16, 1.0), (-1e16, 0.0))
@example((0.0, 0.0), (0.0, 0.0), (1.0, 1.0), (2.0, 1.0))           # a point segment
@example((0.0, 0.0), (1.0, 0.0), (1.0, 0.4), (2.0, 0.4))           # parallel
def test_seg_seg_closest_matches_numpy(p1, p2, q1, q2):
    assert_segments_match_numpy(p1, p2, q1, q2)


def _path_corpus():
    """Case-study, staggered 2x2-8x8 grids, the aligned 2x2 grid and the
    jittered layouts of test_sections at seeds 1-40."""
    from conftest import path_grid
    from test_sections import jittered_path_layout
    from ringsync import preset
    layouts = [pytest.param(preset("case-study"), id="case-study"),
               pytest.param(path_grid(2, 2, staggered=False), id="aligned-2x2")]
    layouts += [pytest.param(path_grid(k, k), id=f"grid-{k}x{k}") for k in range(2, 9)]
    layouts += [pytest.param(jittered_path_layout(s), id=f"jittered-{s}") for s in range(1, 41)]
    return layouts


@pytest.mark.parametrize("inst", _path_corpus())
def test_path_corpus_matches_numpy(inst):
    """Lengths, positions and the segment distance of every pair the graph
    build measures equal the numpy code's within the tolerance."""
    for path in inst.paths:
        assert_path_matches_numpy(path)
    boxes = [[*np.min(p.vertices, axis=0), *np.max(p.vertices, axis=0)] for p in inst.paths]
    for i, j in itertools.combinations(range(inst.n), 2):
        (lxi, lyi, hxi, hyi), (lxj, lyj, hxj, hyj) = boxes[i], boxes[j]
        if max(lxj - hxi, lxi - hxj, lyj - hyi, lyi - hyj) > 1.0:
            continue                     # farther apart than any range: never measured
        for _, a1, a2 in inst.paths[i].segments():
            for _, b1, b2 in inst.paths[j].segments():
                assert_segments_match_numpy(a1, a2, b1, b2)


# sha256 of `graph_bits` of each layout's graph, as the numpy arithmetic
# built it: these graphs came out bit for bit the same on the standard
# library's, and must stay so.
GRAPH_DIGESTS = {
    "case-study": "448fc112c22141986964451f164597ee57e1e474dfe936516d56b868460d7637",
    "aligned-2x2": "d41ad198b7b25a1718a7570aa2648369a641e686810e85b4f8b6f94f9dc055fb",
    "grid-2x2": "e91a37cfc1f27930c82600fad6a8409dec8498ccba93c41cf3cebff7ce7d889b",
    "grid-3x3": "b8cbc990e3016847eecfd7fc702e7e3b953ac1efa392031a65b0f297c8b1eb62",
    "grid-4x4": "0e909b35aafe5c539a89821b4c90dba9257c5b35f7918808ccc7ea221e6e6eb0",
    "grid-5x5": "e3fe5859e470bc6fc16e7e5dff7bf68709a8552c02f23ca770cb09d3a5794005",
    "grid-6x6": "4868386fd0f9c0d3e228b34bc048340d216fe012eb802ccccc477baa56d034cb",
    "grid-7x7": "4a36746543a541ef5a2133f1f86172e885cbc050584f0a9f6fde4dd045232c59",
    "grid-8x8": "49a8d01202679ed7f77c8e6ef9e1ab120b5423928cb0db5bde36693e9bb204d8",
}


def graph_bits(g) -> bytes:
    """Each edge with its beta and two link positions, and each trajectory
    length, as hex floats."""
    return json.dumps({"edges": [[i, j, e.beta.hex(), e.phi[i].hex(), e.phi[j].hex()]
                                 for (i, j), e in sorted(g.edges.items())],
                       "lengths": [length.hex() for length in g.lengths]}).encode()


@pytest.mark.parametrize("name", GRAPH_DIGESTS)
def test_path_graph_bits_are_pinned(name):
    from conftest import path_grid
    from ringsync import preset
    inst = (preset(name) if name == "case-study" else
            path_grid(2, 2, staggered=False) if name == "aligned-2x2" else
            path_grid(int(name[-1]), int(name[-1])))
    assert hashlib.sha256(graph_bits(inst.graph())).hexdigest() == GRAPH_DIGESTS[name]


def test_closed_path_accepts_arrays_and_int_lists():
    square = [[0, 0], [1, 0], [1, 1], [0, 1]]
    for vertices in (square, np.array(square), np.array(square, dtype=float),
                     [[0, 0.0], [1.0, 0], (1, 1), [0.0, 1]]):
        path = ClosedPath(vertices)
        assert path.vertices == [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
        assert all(type(c) is float for v in path.vertices for c in v)
        assert path.cum_lengths == [0.0, 1.0, 2.0, 3.0, 4.0] and path.length == 4.0


@pytest.mark.parametrize("vertices,message", [
    ([[0.0, 0.0], [1.0, 0.0]], "at least 3 vertices"),
    ([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0]], "at least 3 vertices"),
    ([0.0, 1.0, 2.0], "at least 3 vertices"),
    (np.zeros((3, 3)), "at least 3 vertices"),
    ([[0.0, 0.0], [1.0, math.inf], [1.0, 1.0]], "non-finite"),
    ([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]], "zero-length"),
    ([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]], "self-intersecting")])
def test_closed_path_rejects_degenerate_vertices(vertices, message):
    with pytest.raises(DegenerateGeometryError, match=message):
        ClosedPath(vertices)
