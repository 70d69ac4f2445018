"""The published seven-trajectory section-time table, loaded verbatim, and the
z search of assign_section_times checked against full enumeration."""

import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import linprog

import ringsync as rs
import ringsync.scheduler as sch
from conftest import (CASE_STUDY_CYCLES, paper_section_plan, path_grid,
                      section_time_between as between)
from ringsync.errors import (InfeasibleSectionTimesError, InvalidInstanceError,
                             SectionSearchBudgetError)


def test_period_sums_exact():
    T = 1.0
    plan = paper_section_plan(T)
    for traj, times in plan.times.items():
        assert abs(math.fsum(times) - T) <= 1e-12 * T


def test_both_cycles_close_with_z_two():
    plan = paper_section_plan(1.0)
    zs = rs.validate_section_plan(plan, CASE_STUDY_CYCLES)
    assert zs == [2, 2]


def test_cycle_sums_exact_values():
    T = 1.0
    plan = paper_section_plan(T)
    # 4-cycle: t2(7->5) + t7(8->2) + t8(5->7) + t5(2->8)
    s1 = (between(plan, 2, 7, 5) + between(plan, 7, 8, 2)
          + between(plan, 8, 5, 7) + between(plan, 5, 2, 8))
    assert abs(s1 - 2.0 * T) <= 1e-12 * T
    # 6-cycle: t2(5->3) + t5(8->2) + t8(6->5) + t6(4->8) + t4(3->6) + t3(2->4)
    s2 = (between(plan, 2, 5, 3) + between(plan, 5, 8, 2)
          + between(plan, 8, 6, 5) + between(plan, 6, 4, 8)
          + between(plan, 4, 3, 6) + between(plan, 3, 2, 4))
    assert abs(s2 - 2.0 * T) <= 1e-12 * T


def test_complement_equations():
    # the reverse-direction sums must close with (k - z) periods
    T = 1.0
    plan = paper_section_plan(T)
    s1c = (between(plan, 2, 5, 7) + between(plan, 7, 2, 8)
           + between(plan, 8, 7, 5) + between(plan, 5, 8, 2))
    assert abs(s1c - (4 - 2) * T) <= 1e-12 * T
    s2c = (between(plan, 2, 3, 5) + between(plan, 5, 2, 8)
           + between(plan, 8, 5, 6) + between(plan, 6, 8, 4)
           + between(plan, 4, 6, 3) + between(plan, 3, 4, 2))
    assert abs(s2c - (6 - 2) * T) <= 1e-12 * T


def test_validator_rejects_broken_period():
    plan = paper_section_plan(1.0)
    plan.times[3][0] += 0.05
    with pytest.raises(InfeasibleSectionTimesError):
        rs.validate_section_plan(plan, CASE_STUDY_CYCLES)


def test_validator_rejects_broken_cycle():
    plan = paper_section_plan(1.0)
    # shuffle time between sections of trajectory 2: period sum is kept but
    # the 4-cycle equation breaks
    plan.times[2][0] += 0.05
    plan.times[2][1] -= 0.05
    with pytest.raises(InfeasibleSectionTimesError) as exc:
        rs.validate_section_plan(plan, CASE_STUDY_CYCLES)
    assert exc.value.cycles == [CASE_STUDY_CYCLES[0]]


@pytest.mark.parametrize("tau", [0.0, -0.01])
def test_validator_rejects_non_positive_section_time(tau):
    plan = paper_section_plan(1.0)
    # the period sum is kept, so only the sign check can reject it
    plan.times[2][1] += plan.times[2][0] - tau
    plan.times[2][0] = tau
    with pytest.raises(InfeasibleSectionTimesError, match="non-positive section time on 2"):
        rs.validate_section_plan(plan, CASE_STUDY_CYCLES)


def test_cycle_off_the_trajectories_raises_typed_error():
    # edge 4-0 is missing from the case study, so trajectory 0 has no link
    # with 4: the cycle walk, which builds the section LP's rows too, used
    # to loop forever
    g = rs.preset("case-study").graph()
    assert 4 not in g.neighbors(0)
    plan = rs.assign_section_times(g)
    with pytest.raises(InvalidInstanceError):
        rs.validate_section_plan(plan, [[0, 5, 6, 4]])
    with pytest.raises(InvalidInstanceError):
        between(plan, 0, 4, 5)
    with pytest.raises(InvalidInstanceError):
        between(plan, 0, 5, 4)


def test_validator_rejects_mismatched_plan_shape():
    plan = paper_section_plan(1.0)
    plan.times[3] = plan.times[3][:1]
    with pytest.raises(InvalidInstanceError):
        rs.validate_section_plan(plan, CASE_STUDY_CYCLES)
    plan = paper_section_plan(1.0)
    plan.times[9] = [1.0]
    with pytest.raises(InvalidInstanceError):
        rs.validate_section_plan(plan, CASE_STUDY_CYCLES)
    plan = paper_section_plan(1.0)
    del plan.times[6]
    with pytest.raises(InvalidInstanceError):
        rs.validate_section_plan(plan, CASE_STUDY_CYCLES)


def test_period_scales_linearly():
    plan = paper_section_plan(250.0)
    zs = rs.validate_section_plan(plan, CASE_STUDY_CYCLES)
    assert zs == [2, 2]


# ---------------------------------------------------------------------------
# The z search against full enumeration

def enumerated_section_times(g, period=1.0, min_fraction=0.01):
    """assign_section_times by trying every z-vector: the reference oracle.

    Same LP, bisection and projection as the library, but each z in
    itertools.product order is solved in full, with no pruning.  Every LP
    that HiGHS calls feasible must also pass the library's interval cut.
    """
    dirs = sch._directions(g)
    order = sch._travel_orders(g, dirs)
    sec_len = sch._section_lengths(g, order, dirs)
    cycles = rs.cycle_basis(g)
    nominal = {i: [L * period / g.lengths[i] for L in sec_len[i]] for i in order}
    if not cycles:
        return rs.SectionPlan(period, order, nominal, sec_len)
    var_index = {}
    for i in order:
        for k in range(len(order[i])):
            var_index[(i, k)] = len(var_index)
    nvars = len(var_index)
    A_period = np.zeros((len(order), nvars))
    for row, i in enumerate(order):
        for k in range(len(order[i])):
            A_period[row, var_index[(i, k)]] = 1.0
    cycle_rows = []
    for cyc in cycles:
        row = np.zeros(nvars)
        for idx, node in enumerate(cyc):
            prev, nxt = cyc[(idx - 1) % len(cyc)], cyc[(idx + 1) % len(cyc)]
            nbs = order[node]
            k = nbs.index(nxt)
            while nbs[k] != prev:
                row[var_index[(node, k)]] += 1.0
                k = (k + 1) % len(nbs)
        cycle_rows.append(row)
    A_eq = np.vstack([A_period] + cycle_rows)
    nom_vec = np.zeros(nvars)
    for (i, k), vi in var_index.items():
        nom_vec[vi] = nominal[i][k]

    def feasible(lam, zs):
        lower = np.maximum(nom_vec / (1.0 + lam), min_fraction * period)
        upper = np.minimum(nom_vec / (1.0 - lam), period)
        if np.any(lower > upper):
            return None
        b_eq = np.concatenate([np.full(len(order), period), [z * period for z in zs]])
        res = linprog(np.zeros(nvars), A_eq=A_eq, b_eq=b_eq,
                      bounds=list(zip(lower, upper)), method="highs")
        if res.status == 0:
            assert not sch._interval_infeasible(A_eq @ lower, A_eq @ upper, b_eq,
                                                np.count_nonzero(A_eq, axis=1))
        return res.x if res.status == 0 else None

    best = None
    for zs in itertools.product(*[range(1, len(cyc)) for cyc in cycles]):
        if feasible(0.999999, zs) is None:
            continue
        lo_l, hi_l = 0.0, 0.999999
        x_best = feasible(hi_l, zs)
        for _ in range(40):
            mid = 0.5 * (lo_l + hi_l)
            x = feasible(mid, zs)
            if x is not None:
                hi_l, x_best = mid, x
            else:
                lo_l = mid
        if best is None or hi_l < best[0]:
            best = (hi_l, zs, x_best)
    if best is None:
        raise InfeasibleSectionTimesError("no z", cycles=cycles)
    _, zs, x = best
    b_eq = np.concatenate([np.full(len(order), period), [z * period for z in zs]])
    corr, *_ = np.linalg.lstsq(A_eq, A_eq @ x - b_eq, rcond=None)
    x = x - corr
    times = {i: [float(x[var_index[(i, k)]]) for k in range(len(order[i]))]
             for i in order}
    for i in times:
        scale = period / math.fsum(times[i])
        times[i] = [t * scale for t in times[i]]
    return rs.SectionPlan(period, order, times, sec_len)


def jittered_path_layout(seed):
    """Up to a 3x3 grid of unit squares, some cells left out, corners jittered."""
    rng = np.random.default_rng(seed)
    rows, cols = (2, 3, 3)[rng.integers(3)], (2, 3)[rng.integers(2)]
    cells = [(r, c) for r in range(rows) for c in range(cols)]
    drop = set(rng.choice(len(cells), size=rng.integers(0, 3), replace=False).tolist())
    paths = []
    for idx, (r, c) in enumerate(cells):
        if idx in drop:
            continue
        square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        square += [1.4 * c, -1.4 * r]
        paths.append(rs.ClosedPath(square + rng.uniform(-0.05, 0.05, (4, 2))))
    return rs.Instance(mode="path", paths=paths, ranges=[0.5] * len(paths))


def _layouts_with_cycles(count, lo=1, hi=4):
    out, seed = [], 0
    while len(out) < count:
        inst = jittered_path_layout(seed)
        if lo <= len(rs.cycle_basis(rs.max_bipartite_subgraph(inst.graph()))) <= hi:
            out.append(pytest.param(inst, id=f"jittered-{seed}"))
        seed += 1
    return out


def _oracle_cases():
    """Each layout at T = 100, and the case study, the 3x3 grid and the
    jittered layouts also at T = 1 and T = 1e4, where the interval cut's
    absolute slack is largest and smallest against the period."""
    layouts = [
        pytest.param(rs.preset("case-study"), id="case-study"),
        pytest.param(path_grid(2, 2), id="grid-2x2"),
        pytest.param(path_grid(3, 3), id="grid-3x3"),
        pytest.param(path_grid(3, 4), id="grid-3x4"),
    ] + _layouts_with_cycles(20)
    cases = [pytest.param(*p.values, 100.0, id=p.id) for p in layouts]
    for p in layouts:
        if p.id in ("case-study", "grid-3x3") or p.id.startswith("jittered-"):
            cases += [pytest.param(*p.values, 1.0, id=f"{p.id}-T1"),
                      pytest.param(*p.values, 1e4, id=f"{p.id}-T1e4")]
    return cases


@pytest.mark.parametrize("inst,period", _oracle_cases())
def test_section_times_match_full_enumeration(inst, period):
    g = rs.max_bipartite_subgraph(inst.graph())
    try:
        expected = enumerated_section_times(g, period=period)
    except InfeasibleSectionTimesError:
        with pytest.raises(InfeasibleSectionTimesError):
            rs.assign_section_times(g, period=period)
        return
    plan = rs.assign_section_times(g, period=period)
    assert plan.times == expected.times
    assert plan.link_order == expected.link_order
    assert plan.section_lengths == expected.section_lengths
    cycles = rs.cycle_basis(g)
    assert len(rs.validate_section_plan(plan, cycles)) == len(cycles)


def _counted_linprog(monkeypatch):
    """Route the scheduler's LP solves through a counter; returns its list."""
    calls = []

    def counting_linprog(*args, **kwargs):
        calls.append(1)
        return linprog(*args, **kwargs)

    monkeypatch.setattr(sch, "linprog", counting_linprog)
    return calls


def _solves_to_schedule(monkeypatch, inst):
    """LP solves assign_section_times runs on inst; the schedule must verify."""
    calls = _counted_linprog(monkeypatch)
    g = rs.max_bipartite_subgraph(inst.graph())
    sched = rs.schedule_general(g, rs.assign_section_times(g, period=100.0))
    assert rs.verify_schedule(g, sched).all_synchronized
    return len(calls)


def test_path_grid_4x4_schedules_within_solve_budget(monkeypatch):
    assert len(rs.cycle_basis(rs.max_bipartite_subgraph(path_grid(4, 4).graph()))) == 9
    assert 0 < _solves_to_schedule(monkeypatch, path_grid(4, 4)) <= 45


@pytest.mark.parametrize("inst,n_cycles", [
    pytest.param(rs.preset("case-study"), 2, id="case-study"),
    pytest.param(path_grid(10, 10), 81, id="grid-10x10"),
])
def test_nominal_first_search_needs_one_bisection(monkeypatch, inst, n_cycles):
    # one 40-step bisection plus its first LP, and at most a few more
    assert len(rs.cycle_basis(rs.max_bipartite_subgraph(inst.graph()))) == n_cycles
    assert 0 < _solves_to_schedule(monkeypatch, inst) <= 45


def test_equal_bounds_go_to_the_lexicographically_first_z(monkeypatch):
    """Two z-vectors bisect to the same bound; the first in lexicographic
    order wins although the search tries the other first.

    A fake linprog calls every prefix feasible, and a full z-vector feasible
    only if it is one of the two and the speed-deviation bound, read back
    from the variable bounds, is at least 0.6.  Both pass the interval cut
    there, so both bisect to the same dyadic bound.
    """
    T = 100.0
    g = rs.max_bipartite_subgraph(rs.preset("case-study").graph())
    cycles = rs.cycle_basis(g)
    n_period = sum(1 for i in range(g.n) if g.neighbors(i))
    tied = {(4, 2), (3, 2)}
    leaves = []

    def fake_linprog(c, A_eq, b_eq, bounds):
        zs = tuple(int(round(b / T)) for b in b_eq[n_period:])
        lower, upper = np.array(bounds).T
        # (u - l) / (u + l) is lam for every section neither bound clips
        lam = np.max((upper - lower) / (upper + lower))
        if len(zs) == len(cycles) and zs not in leaves:
            leaves.append(zs)
        ok = len(zs) < len(cycles) or (zs in tied and lam >= 0.6)
        return SimpleNamespace(status=0 if ok else 2, x=0.5 * (lower + upper))

    monkeypatch.setattr(sch, "linprog", fake_linprog)
    plan = rs.assign_section_times(g, period=T)
    assert leaves.index((4, 2)) < leaves.index((3, 2))
    assert rs.validate_section_plan(plan, cycles) == [3, 2]


def test_solve_budget_raises_typed_error(monkeypatch):
    calls = _counted_linprog(monkeypatch)
    monkeypatch.setattr(sch, "SECTION_LP_BUDGET", 10)
    g = rs.max_bipartite_subgraph(path_grid(3, 3).graph())
    with pytest.raises(SectionSearchBudgetError, match="4 cycles .* 10 LP solves"):
        rs.assign_section_times(g, period=100.0)
    assert len(calls) == 10


def _solver_oracle_cases():
    layouts = [pytest.param(rs.preset("case-study"), id="case-study")] + [
        pytest.param(path_grid(k, k), id=f"grid-{k}x{k}") for k in range(2, 6)] + [
        pytest.param(p.values[0], id=p.id) for p in _layouts_with_cycles(20)]
    return [pytest.param(*p.values, period, id=f"{p.id}-T{period:g}")
            for p in layouts for period in (1.0, 100.0, 1e4)]


@pytest.mark.parametrize("inst,period", _solver_oracle_cases())
def test_solver_matches_scipy_linprog(monkeypatch, inst, period):
    """Every LP the search issues gets the same decision and the same x from
    the scheduler's direct HiGHS call as from scipy.optimize.linprog."""
    solve, lps = sch.linprog, []

    def capturing(*args, **kwargs):
        lps.append((args, kwargs))
        return solve(*args, **kwargs)

    monkeypatch.setattr(sch, "linprog", capturing)
    g = rs.max_bipartite_subgraph(inst.graph())
    try:
        rs.assign_section_times(g, period=period)
        assert lps      # each layout has a cycle, so a plan takes an LP
    except InfeasibleSectionTimesError:
        pass            # a failing search may end at the interval cut, with no LP
    for args, kwargs in lps:
        ours, ref = solve(*args, **kwargs), linprog(*args, **kwargs)
        assert type(ours.status) is int
        assert ours.x is None or isinstance(ours.x, np.ndarray)
        assert (ours.status == 0) == (ref.status == 0)
        assert (ours.x is None) == (ref.x is None)
        assert ours.x is None or np.array_equal(ours.x, ref.x)


def test_solver_matches_scipy_linprog_on_random_lps():
    """Signed, badly scaled and partly empty matrices, feasible or not."""
    rng = np.random.default_rng(5)
    decisions = set()
    for _ in range(300):
        n = int(rng.integers(2, 8))
        A_eq = rng.uniform(-1, 1, (int(rng.integers(1, n)), n))
        A_eq *= 10.0 ** rng.uniform(-6, 12, A_eq.shape) * (rng.random(A_eq.shape) < 0.7)
        x0 = rng.uniform(0, 1, n) * 10.0 ** rng.uniform(-6, 6, n)
        b_eq = A_eq @ x0 + (rng.normal(0, 1, len(A_eq)) if rng.random() < 0.3 else 0)
        bounds = list(zip(np.zeros(n), x0 * rng.uniform(1, 3, n)))
        ours = sch.linprog(np.zeros(n), A_eq=A_eq, b_eq=b_eq, bounds=bounds)
        ref = linprog(np.zeros(n), A_eq=A_eq, b_eq=b_eq, bounds=bounds, method="highs")
        assert (ours.status == 0) == (ref.status == 0)
        assert (ours.x is None) == (ref.x is None)
        assert ours.x is None or np.array_equal(ours.x, ref.x)
        decisions.add(ours.status == 0)
    assert decisions == {True, False}


# ---------------------------------------------------------------------------
# General-mode start positions

def _co_located_links(g):
    """Whether some trajectory has two links at the same arc length."""
    for i in range(g.n):
        phis = sorted(g.phi(i, j) for j in g.neighbors(i))
        if any(b - a <= 1e-9 * g.lengths[i] for a, b in zip(phis, phis[1:])):
            return True
    return False


def _first_arrivals(g, plan, sched, i):
    """Neighbor -> first time agent i, leaving sched.starts[i] at the plan's
    section speeds, reaches its link with that neighbor."""
    order, L = plan.link_order[i], g.lengths[i]
    s, m = sched.starts[i], len(order)
    ahead = [math.fmod((g.phi(i, j) - s) if sched.dirs[i] == sch.CCW
                       else (s - g.phi(i, j)), L) % L for j in order]
    k0 = int(np.argmin(ahead))
    # the start lies on the section that ends at the first link reached
    sec = (k0 - 1) % m
    t = ahead[k0] * plan.times[i][sec] / plan.section_lengths[i][sec]
    out = {}
    for step in range(m):
        out[order[(k0 + step) % m]] = t
        t += plan.times[i][(k0 + step) % m]
    return out


@pytest.mark.parametrize("inst", [
    pytest.param(rs.preset("case-study"), id="case-study"),
    pytest.param(path_grid(2, 2), id="grid-2x2"),
    pytest.param(path_grid(3, 3), id="grid-3x3"),
    pytest.param(path_grid(4, 4), id="grid-4x4"),
] + [pytest.param(p.values[0], id=p.id) for p in _layouts_with_cycles(20)])
def test_general_starts_reach_links_at_their_epochs(inst):
    T = 100.0
    g = rs.max_bipartite_subgraph(inst.graph())
    try:
        plan = rs.assign_section_times(g, period=T)
    except InfeasibleSectionTimesError:
        # the known co-located-links defect, and nothing else
        assert _co_located_links(g)
        return
    sched = rs.schedule_general(g, plan)
    for i in plan.link_order:
        for j, t in _first_arrivals(g, plan, sched, i).items():
            err = math.fmod(abs(t - sched.epochs[i][j]), T)
            assert min(err, T - err) <= 1e-9 * T, (i, j)
