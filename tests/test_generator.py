import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ringsync as rs
import ringsync.rng
from ringsync.errors import GenerationFailureError, InvalidInstanceError, RingsyncError
from ringsync.generator import _clear


def test_grid_counts():
    assert len(rs.grid(3, 3).graph().edges) == 12
    assert len(rs.grid(1, 2).graph().edges) == 1
    g = rs.grid(5, 3).graph()
    assert g.n == 15 and len(g.edges) == 22


def test_grid_spacing_validation():
    with pytest.raises(InvalidInstanceError):
        rs.grid(2, 2, spacing=2.0)    # circles touch
    with pytest.raises(InvalidInstanceError):
        rs.grid(2, 2, spacing=2.6)    # beyond connection distance
    with pytest.raises(InvalidInstanceError):
        rs.grid(0, 3)


def test_grid_node_zero_top_left():
    inst = rs.grid(2, 2)
    ys = [c.center.y for c in inst.circles]
    xs = [c.center.x for c in inst.circles]
    assert ys[0] == max(ys) and xs[0] == min(xs)


def test_random_connected_valid_and_deterministic():
    for seed in range(5):
        inst = rs.random_connected(10, seed=seed)
        g = inst.graph()
        assert g.n == 10 and len(g.components()) == 1
        centers = [(c.center.x, c.center.y) for c in inst.circles]
        for i, a in enumerate(centers):
            for b in centers[i + 1:]:
                assert math.dist(a, b) > 2.0
        again = rs.random_connected(10, seed=seed)
        assert [(c.center.x, c.center.y) for c in again.circles] == centers


def test_random_connected_single():
    inst = rs.random_connected(1)
    assert inst.n == 1
    assert rs.validate_instance(inst).n == 1


def test_unknown_preset():
    with pytest.raises(InvalidInstanceError):
        rs.preset("nope")


@pytest.mark.parametrize("name", ["fig9a", "fig9b", "fig11", "fig7-starve"])
def test_starvation_presets_are_bipartite_and_marked(name):
    inst = rs.preset(name)
    rs.validate_instance(inst)
    g = inst.graph()
    assert rs.two_color(g)[0] is not None
    whites = set(inst.meta["whites"])
    survivors = set(inst.meta["survivors"])
    assert whites.isdisjoint(survivors)
    assert whites | survivors == set(range(g.n))
    assert inst.meta["period"] == 80.0 and inst.meta["horizon"] == 4000.0


def test_surveillance_preset():
    inst = rs.preset("surveillance-3x3")
    assert inst.meta["period"] == 300.0
    assert inst.graph().n == 9


def test_case_study_preset_edges():
    inst = rs.preset("case-study")
    g = inst.graph()
    assert sorted(g.edges) == [(0, 1), (0, 3), (0, 5), (1, 2), (2, 4),
                               (3, 6), (4, 6), (5, 6)]
    for cyc in inst.meta["cycles"]:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            assert g.has_edge(a, b)


def test_validate_instance_rejects_disconnected():
    from ringsync.geometry import Circle, Point2
    inst = rs.Instance(mode="circle",
                       circles=[Circle(Point2(0, 0)), Circle(Point2(10, 0))],
                       comm_range=0.5)
    with pytest.raises(InvalidInstanceError):
        rs.validate_instance(inst)


def _random_connected_reference(n, r, seed):
    """The per-center placement loop that random_connected replaced: one
    math.hypot call per placed center on each attempt."""
    from ringsync.errors import GenerationFailureError
    from ringsync.geometry import Circle, Point2
    rng = np.random.default_rng(seed)
    centers = [np.array([0.0, 0.0])]
    for _ in range(1, n):
        for _attempt in range(1000):
            anchor = centers[int(rng.integers(len(centers)))]
            theta = rng.uniform(0.0, 2.0 * math.pi)
            d = rng.uniform(2.0, 2.0 + r)
            if d <= 2.0:
                continue
            cand = anchor + d * np.array([math.cos(theta), math.sin(theta)])
            if all(math.hypot(*(cand - c)) > 2.0 for c in centers):
                centers.append(cand)
                break
        else:
            raise GenerationFailureError(
                f"could not place circle {len(centers)} after 1000 tries")
    circles = [Circle(Point2(float(c[0]), float(c[1]))) for c in centers]
    return rs.Instance(mode="circle", circles=circles, comm_range=r,
                       label=f"random-{n}-seed{seed}", meta={"seed": seed})


def _instance_bytes(make, n, r, seed):
    """Instance JSON of make(n, r, seed), or the type and message it raised."""
    from ringsync.cli import _dumps, instance_to_json
    try:
        return _dumps(instance_to_json(make(n, r, seed)))
    except (RingsyncError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _validated_random(n, r, seed):
    """random_connected(n, r, seed), which must pass validate_instance:
    connectivity is by construction, and validate_instance is its check."""
    inst = rs.random_connected(n, r=r, seed=seed)
    rs.validate_instance(inst)
    return inst


def _assert_matches_reference(n, r, seed):
    new = _instance_bytes(_validated_random, n, r, seed)
    assert new == _instance_bytes(_random_connected_reference, n, r, seed)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 60), seed=st.integers(0, 2**32 - 1),
       r=st.one_of(st.sampled_from([0.5, 0.01, 2.0]), st.floats(0.001, 3.0)))
def test_random_connected_matches_per_center_loop(n, seed, r):
    _assert_matches_reference(n, r, seed)


def _no_rng(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("random_connected drew from an RNG")
    monkeypatch.setattr(np.random, "default_rng", refuse)
    monkeypatch.setattr(ringsync.rng, "Rng", refuse)


@pytest.mark.parametrize("n", [1, 5])
@pytest.mark.parametrize("r", [-0.2, -1e-300, float("nan")])
def test_random_connected_rejects_negative_range(monkeypatch, n, r):
    _no_rng(monkeypatch)
    with pytest.raises(InvalidInstanceError, match="non-negative"):
        rs.random_connected(n, r=r)


def test_random_connected_zero_range(monkeypatch):
    assert rs.random_connected(1, r=0.0).n == 1
    _no_rng(monkeypatch)
    with pytest.raises(GenerationFailureError, match="range 0"):
        rs.random_connected(2, r=0.0)


def test_random_connected_n400_matches_per_center_loop():
    _assert_matches_reference(400, 0.5, 0)


# Ranges that put centers past the placement cells' _CELL_LIMIT, the last
# past the float range (a non-finite coordinate, which Point2 rejects).
@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@pytest.mark.parametrize("n,r,seed", [(30, 1e9, 1), (20, 1e300, 3), (10, 1.7e308, 0)])
def test_random_connected_far_centers_match_per_center_loop(n, r, seed):
    _assert_matches_reference(n, r, seed)


# sha256 of the instance JSON that numpy's vectorized np.hypot placement test
# wrote for these (n, r, seed): the cell-grid placement must write the same.
LARGE_LAYOUT_DIGESTS = {
    (2000, 0.5, 0): "69b5f862e6fa21b067e20c915e8ffad2ed54dffd1604a2106404f7a3fe9fd520",
    (2000, 0.1, 5): "83b164f5d5e2e795feab2cd2d19429639181c6e6feac4f89cb12f285147dc4b7",
}


@pytest.mark.parametrize("n,r,seed", sorted(LARGE_LAYOUT_DIGESTS))
def test_random_connected_n2000_matches_numpy_placement(n, r, seed):
    text = _instance_bytes(_validated_random, n, r, seed)
    assert hashlib.sha256(text.encode()).hexdigest() == LARGE_LAYOUT_DIGESTS[(n, r, seed)]


@pytest.mark.parametrize("dx,dy,clear", [
    (3.0, 0.0, True), (2.0 + 1e-9, 0.0, True), (2.0, 0.0, False), (1.0, 1.0, False),
    (float("nan"), 0.0, False), (float("inf"), float("nan"), True)])
def test_placement_decision_examples(dx, dy, clear):
    assert _clear(dx, dy, [0.0], [0.0], [0]) is clear
