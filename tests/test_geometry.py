import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ringsync.errors import OverlappingTrajectoriesError
from ringsync.geometry import (Circle, ClosedPath, Point2, line_angle_points,
                               link_positions, min_distance, norm_angle, norm_line_angle)

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
