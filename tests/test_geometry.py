import functools
import itertools
import math
import random
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ringsync.errors import DegenerateGeometryError, OverlappingTrajectoriesError
from ringsync.geometry import (Circle, ClosedPath, Point2, _c_hypot, _dot2, _hypot,
                               _seg_seg_closest, line_angle_points, link_positions,
                               min_distance, norm_angle, norm_line_angle)

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
# The standard-library path arithmetic against exact rationals and against
# the numpy code it replaced

_HALF_ABOVE_MAX = Fraction(2**1024 - 2**970)   # halfway from the largest double to 2**1024


def fma_oracle(a: float, b: float, c: float) -> float:
    """fma(a, b, c) for finite a and b: the double nearest the exact a*b + c,
    ties to even (IEEE 754).  The rounding of the rational is checked
    against both neighbouring doubles, not trusted."""
    if not math.isfinite(c):
        return c
    exact = Fraction(a) * Fraction(b) + Fraction(c)
    if exact == 0:
        return a * b + c         # then a*b is exact, and IEEE's zero sign rules apply
    if abs(exact) >= _HALF_ABOVE_MAX:
        return math.inf if exact > 0 else -math.inf
    r = float(exact)
    err = abs(Fraction(r) - exact)
    for nb in (math.nextafter(r, math.inf), math.nextafter(r, -math.inf)):
        if math.isfinite(nb):
            other = abs(Fraction(nb) - exact)
            even = struct.unpack("<q", struct.pack("<d", r))[0] % 2 == 0
            assert err < other or (err == other and even), (a, b, c)
    return r


def dot2_oracle(a0: float, a1: float, b0: float, b1: float) -> float:
    """numpy's 2-vector dot with an FMA kernel: the kernel's fma(a1, b1, a0*b0)
    added to numpy's zero sum, which turns -0.0 into 0.0."""
    return 0.0 + fma_oracle(a1, b1, a0 * b0)


def bits(*values) -> list:
    return [float(x).hex() for x in values]


@functools.cache
def _numpy_dot_is_fma() -> bool:
    rnd = random.Random(0)
    for _ in range(5000):
        a0, a1, b0, b1 = (rnd.uniform(-10.0, 10.0) for _ in range(4))
        if bits(np.array([a0, a1]) @ np.array([b0, b1])) != bits(dot2_oracle(a0, a1, b0, b1)):
            return False
    return True


def require_numpy_dot_is_fma():
    """The numpy oracles below are the reference only where numpy's 2-vector
    `@` is `dot2_oracle`, as with an FMA kernel; elsewhere the test skips."""
    if not _numpy_dot_is_fma():
        pytest.skip("numpy's 2-vector @ is not 0.0 + fma(a1, b1, a0*b0) with this numpy")


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


def assert_segments_match_numpy(p1, p2, q1, q2):
    new = _seg_seg_closest(*[(float(x), float(y)) for x, y in (p1, p2, q1, q2)])
    old = _seg_seg_closest_np(*[np.array(p, dtype=float) for p in (p1, p2, q1, q2)])
    assert bits(*new) == bits(*old), (p1, p2, q1, q2)


def assert_path_matches_numpy(path: ClosedPath):
    seg, cum = _lengths_np(path.vertices)
    assert bits(*path.seg_lengths) == bits(*seg)
    assert bits(*path.cum_lengths) == bits(*cum)
    assert bits(path.length) == bits(cum[-1])
    for s in np.linspace(-1.5 * path.length, 2.5 * path.length, 61).tolist() + path.cum_lengths:
        q = path.position_at(s)
        assert bits(q.x, q.y) == bits(*_position_at_np(path.vertices, s)), s


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
    require_numpy_dot_is_fma()
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
    build measures equal the numpy code's, bit for bit."""
    require_numpy_dot_is_fma()
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


def test_hypot_is_np_hypot():
    rnd = random.Random(1)
    pairs = [(rnd.uniform(-3.0, 3.0), rnd.uniform(-3.0, 3.0)) for _ in range(20000)]
    pairs += [(2.0 * math.cos(a), 2.0 * math.sin(a))
              for a in (rnd.uniform(0.0, 2.0 * math.pi) for _ in range(20000))]
    pairs += [(1e300, 1e300), (5e-324, 5e-324), (0.0, -0.0), (math.inf, math.nan)]
    assert bits(*(_hypot(x, y) for x, y in pairs)) == bits(*(np.hypot(x, y) for x, y in pairs))
    # and not math.hypot, which rounds the other way on some of these
    assert any(_hypot(x, y) != math.hypot(x, y) for x, y in pairs)


def test_hypot_falls_back_to_numpy_without_ctypes(monkeypatch):
    import ctypes
    _c_hypot.cache_clear()
    monkeypatch.setattr(ctypes, "CDLL", lambda name: (_ for _ in ()).throw(OSError(name)))
    try:
        assert _hypot(3.0, 4.0) == 5.0 and type(_hypot(3.0, 4.0)) is float
        assert _c_hypot()(1.1, 2.3) == float(np.hypot(1.1, 2.3))
    finally:
        _c_hypot.cache_clear()


_finite = st.floats(allow_nan=False, allow_infinity=False)


def _magnitudes(lo: int, hi: int):
    """Signed doubles with binary exponents in [lo, hi)."""
    return st.builds(lambda m, e, s: s * math.ldexp(m, e), st.floats(1.0, 2.0, exclude_max=True),
                     st.integers(lo, hi - 1), st.sampled_from([1.0, -1.0]))


@settings(max_examples=1500, deadline=None)
@given(st.one_of(
    st.tuples(_finite, _finite, _finite, _finite),
    st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3), st.floats(-1e3, 1e3),
              st.floats(-1e3, 1e3)),
    # near overflow: the split's 2**27 + 1 times a1 or b1 overflows above
    # about 2**996, and a1*b1 may overflow where the sum does not
    st.tuples(_magnitudes(1000, 1024), _magnitudes(470, 1024), _finite, _magnitudes(-30, 30)),
    st.tuples(_magnitudes(990, 1024), _magnitudes(470, 560), st.just(1.0),
              _magnitudes(470, 560)),
    # near underflow and on subnormals: a1*b1 or its error term below 2**-1022
    st.tuples(_magnitudes(-1074, -1000), _magnitudes(-560, -470), _magnitudes(-600, -400),
              _magnitudes(-560, -470)),
    st.tuples(_magnitudes(-540, -500), _magnitudes(-1074, -1022), st.just(1.0),
              _magnitudes(-60, 60))))
@example((-1.7976931348623157e308, 1.5 * 2.0**1000, 1.0, 2.0**24))  # a1*b1 overflows only
@example((1.0, 2.0**480, 1.0, 2.0**480))
@example((1.0, 2.0**-480, 1.0, 2.0**-480))
@example((1.0, 3.0, -9.0, 3.0))                                      # an exact zero
@example((-0.0, 0.0, 1.0, 5.0))
def test_dot2_is_the_exact_fma(args):
    a0, a1, b0, b1 = args
    assert bits(_dot2(a0, a1, b0, b1)) == bits(dot2_oracle(a0, a1, b0, b1))
