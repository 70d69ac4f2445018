"""Flight schedules: start positions, directions, and section travel times.

Circle mode works with start angles (Lemma-style reflection propagation);
general mode assigns per-section travel times on closed paths and propagates
time offsets so that every neighbor pair reaches its link locations
simultaneously.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING

from .commgraph import CommGraph, _bipartite_colors, cycle_basis, reflection_starts
from .errors import (ClosureViolationError, InfeasibleSectionTimesError,
                     InvalidInstanceError, SectionSearchBudgetError,
                     check_positive)
from .geometry import TWO_PI, norm_angle

if TYPE_CHECKING:
    import numpy as np

CCW = "CCW"
CW = "CW"

# Phase tolerance (fraction of the period) of verify_schedule.
PHASE_TOL = 1e-9

# Smallest section time the section-time LP admits, as a fraction of the
# period; tree layouts get constant speed instead, which may go below it.
MIN_SECTION_FRACTION = 0.01

# Slack of the interval cut (_interval_infeasible) per row nonzero, plus one.
# It is absolute, as the primal feasibility tolerance (default 1e-7) of the
# HiGHS solve in linprog is, and ten times that tolerance: HiGHS reports
# case-study LPs feasible whose bound sums miss a row by up to 9.999e-8, which
# at T = 1 is far beyond a slack of 1e-9 * T.
INTERVAL_SLACK = 1e-6

# Most LP solves one assign_section_times call may run.
SECTION_LP_BUDGET = 5000

# The HiGHS bindings scipy bundles since 1.15; their canonical module name.
_HIGHS_CORE = "scipy.optimize._highspy._core"


def _highs_core():
    """scipy's HiGHS extension module, loaded from its file in scipy's
    directory without running scipy's own package code.

    It is registered under its canonical name before it runs, so a later
    import of scipy.optimize reuses it: pybind11 refuses to register the
    module's types a second time.  scipy itself is imported only to name
    its version when the extension is missing.
    """
    core = sys.modules.get(_HIGHS_CORE)
    if core is None:
        package = importlib.util.find_spec("scipy")
        spec = package and importlib.machinery.PathFinder.find_spec(_HIGHS_CORE, [
            os.path.join(package.submodule_search_locations[0], "optimize", "_highspy")])
        if spec is None:
            import scipy
            raise ImportError(f"path-mode scheduling needs scipy>=1.15, whose HiGHS "
                              f"bindings it calls; scipy {scipy.__version__} lacks them")
        core = importlib.util.module_from_spec(spec)
        sys.modules[_HIGHS_CORE] = core
        spec.loader.exec_module(core)
    return core


def linprog(c, A_eq, b_eq, bounds):
    """Solve min c @ x subject to A_eq @ x == b_eq within bounds with HiGHS.

    HiGHS is called directly, through scipy's bundled extension, on the
    problem and with the options scipy.optimize.linprog(..., method="highs")
    passes it: presolve on, dual simplex, no output, and a fresh solver per
    call.  A solution is accepted by linprog's check too: the model status
    is optimal, and x lies within its bounds and meets the equalities to
    10 * sqrt(1e-9); NaN fails both comparisons.  The arguments are
    scipy.optimize.linprog's, whose default method is HiGHS.

    Returns .status, 0 if the solution is accepted and 2 (linprog's code for
    an infeasible problem) if not, and .x, HiGHS's solution when the model
    status is optimal, else None.
    """
    import numpy as np
    core = _highs_core()
    A_eq = np.asarray(A_eq, dtype=float)
    b_eq = np.asarray(b_eq, dtype=float)
    lower, upper = np.array(bounds, dtype=float).T
    nrows, ncols = A_eq.shape
    cols, rows = np.nonzero(A_eq.T)     # column-wise, rows ascending per column
    lp = core.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = ncols
    lp.num_row_ = lp.a_matrix_.num_row_ = nrows
    lp.a_matrix_.format_ = core.MatrixFormat.kColwise
    lp.a_matrix_.start_ = np.concatenate(
        ([0], np.cumsum(np.bincount(cols, minlength=ncols)))).astype(np.int32)
    lp.a_matrix_.index_ = rows.astype(np.int32)
    lp.a_matrix_.value_ = A_eq[rows, cols]
    lp.col_cost_ = np.asarray(c, dtype=float)
    lp.col_lower_, lp.col_upper_ = lower, upper
    lp.row_lower_ = lp.row_upper_ = b_eq
    options = core.HighsOptions()
    options.presolve = "on"
    options.simplex_strategy = core.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    options.highs_debug_level = core.HighsDebugLevel.kHighsDebugLevelNone
    options.output_flag = options.log_to_console = False
    highs = core._Highs()
    highs.passOptions(options)
    error = core.HighsStatus.kError
    if (highs.passModel(lp) == error or highs.run() == error
            or highs.getModelStatus() != core.HighsModelStatus.kOptimal):
        return SimpleNamespace(status=2, x=None)
    solution = highs.getSolution()
    x = np.array(solution.col_value)
    tol = 10 * math.sqrt(1e-9)
    accepted = (np.all((x >= lower - tol) & (x <= upper + tol))
                and np.all(np.abs(b_eq - np.array(solution.row_value)) <= tol))
    return SimpleNamespace(status=0 if accepted else 2, x=x)


class Schedule:
    def __init__(self, mode: str, period: float, starts: list, dirs: list,
                 epochs: list | None = None):
        self.mode = mode          # "same-direction" | "opposite-directions" | "general"
        self.period = period
        self.starts = starts      # per agent: start angle (circle) or arc length (general)
        self.dirs = dirs          # per agent: CCW | CW
        # general mode only: per trajectory, neighbor -> link arrival epoch in [0, T)
        self.epochs = epochs
        if mode not in ("same-direction", "opposite-directions", "general"):
            raise InvalidInstanceError(f"unknown schedule mode {mode!r}")
        if not all(isinstance(seq, (list, tuple)) for seq in (starts, dirs)):
            raise InvalidInstanceError("schedule starts and dirs must be lists")
        for d in dirs:
            if d not in (CCW, CW):
                raise InvalidInstanceError(f"schedule direction {d!r} is not CCW or CW")
        for a in starts:
            if not (isinstance(a, (int, float)) and math.isfinite(a)):
                raise InvalidInstanceError(f"schedule start {a!r} is not a finite number")
        n = len(starts)
        if mode == "general" and not (
                isinstance(epochs, list) and len(epochs) == n
                and all(type(ep) is dict and all(
                    type(nb) is int and 0 <= nb < n
                    and isinstance(t, (int, float)) and math.isfinite(t)
                    for nb, t in ep.items()) for ep in epochs)):
            raise InvalidInstanceError(
                "general schedule epochs must be one map of neighbour ids (agents "
                f"0..{n - 1}) to finite times for each of its {n} starts")


def arrival_time(alpha: float, direction: str, phi: float, period: float) -> float:
    """First time an agent starting at alpha reaches angle phi."""
    if direction == CCW:
        delta = norm_angle(phi - alpha)
    else:
        delta = norm_angle(alpha - phi)
    return delta * period / TWO_PI


def _directions(g: CommGraph) -> list:
    """Color 0 flies CCW, color 1 CW; raises NotSynchronizableError off a bipartite g."""
    return [CW if c else CCW for c in _bipartite_colors(g)]


def schedule_same_direction(g: CommGraph, period: float = 1.0) -> Schedule:
    """All agents CCW; color 0 starts at angle 0 and color 1 antipodally at pi.
    Returned verified at PHASE_TOL, as every scheduler's schedule is."""
    check_positive("period", period)
    starts = [math.pi if c else 0.0 for c in _bipartite_colors(g)]
    return _verified(g, Schedule(mode="same-direction", period=period,
                                 starts=starts, dirs=[CCW] * g.n))


def schedule_opposite_directions(g: CommGraph, period: float = 1.0) -> Schedule:
    """Start angles by reflection_starts, alpha_a = 2*beta - alpha_w - pi over the BFS.

    Adjacent agents get opposite directions (two_color's colors), and every
    root of the BFS forest from node 0 starts at angle 0.  The reflection
    identity makes either +-pi branch acceptable at a non-tree edge, so the
    schedule is returned verified at PHASE_TOL.
    """
    check_positive("period", period)
    dirs = _directions(g)
    return _verified(g, Schedule(mode="opposite-directions", period=period,
                                 starts=reflection_starts(g), dirs=dirs))


def _arrival_pair(g: CommGraph, s: Schedule, i: int, j: int) -> tuple:
    """First arrivals of agents i and j at their link locations for edge (i, j);
    InvalidInstanceError if a general schedule lacks either epoch."""
    if s.mode == "general":
        try:
            return s.epochs[i][j], s.epochs[j][i]
        except KeyError:
            raise InvalidInstanceError(
                f"general schedule has no epoch for link ({i}, {j})") from None
    return (arrival_time(s.starts[i], s.dirs[i], g.phi(i, j), s.period),
            arrival_time(s.starts[j], s.dirs[j], g.phi(j, i), s.period))


def verify_schedule(g: CommGraph, s: Schedule) -> dict:
    """The common link epoch of every edge (i, j) of g, in edge_list order:
    math.fmod(t_i, T), where t_i and t_j are the first arrivals of agents i
    and j at their link positions.

    Raises ClosureViolationError, naming every edge whose two arrivals
    differ mod T by more than PHASE_TOL * T, with .edge the first of them.
    """
    T = s.period
    epochs, bad = {}, []
    for (i, j) in g.edge_list():
        ti, tj = _arrival_pair(g, s, i, j)
        diff = math.fmod(abs(ti - tj), T)
        if not min(diff, T - diff) <= PHASE_TOL * T:
            bad.append((i, j))
        epochs[i, j] = math.fmod(ti, T)
    if bad:
        raise ClosureViolationError(f"cycle closure violated on edges {bad}", edge=bad[0])
    return epochs


def _verified(g: CommGraph, s: Schedule) -> Schedule:
    """s, once verify_schedule accepts it on g."""
    verify_schedule(g, s)
    return s


# ---------------------------------------------------------------------------
# Section plans (general mode)
# ---------------------------------------------------------------------------

class SectionPlan:
    """Per-trajectory section times between consecutive link locations.

    link_order[i] lists trajectory i's neighbors in travel order; times[i][k]
    is the travel time from the link with link_order[i][k] to the link with
    link_order[i][(k+1) % m].  Single-link trajectories hold one full-loop
    section.  section_lengths mirrors times when geometry is known.
    """

    def __init__(self, period: float, link_order: dict, times: dict,
                 section_lengths: dict | None = None):
        self.period = period
        self.link_order = link_order    # traj -> list of neighbor ids
        self.times = times              # traj -> list of section times
        self.section_lengths = section_lengths


def _sections_between(link_order_i, from_nb, to_nb) -> list:
    """Section indices one trajectory crosses, in travel order, from its link
    with from_nb to its link with to_nb; link_order_i is its link order."""
    for nb in (from_nb, to_nb):
        if nb not in link_order_i:
            raise InvalidInstanceError(
                f"{nb} is not a neighbor on the trajectory with links {link_order_i}")
    k, m = link_order_i.index(from_nb), len(link_order_i)
    return [(k + step) % m for step in range((link_order_i.index(to_nb) - k) % m)]


def _cycle_rows(order, cycles) -> np.ndarray:
    """The cycle equations over the section times flattened in order's order.

    Row r counts each section in cycle r's closure sum: every cycle node
    contributes its sections from the link with the next cycle node to the
    link with the previous one, and the sum must be z*T for an integer z.
    """
    import numpy as np
    offset, nvars = {}, 0
    for i, nbs in order.items():
        offset[i], nvars = nvars, nvars + len(nbs)
    rows = np.zeros((len(cycles), nvars))
    for r, cyc in enumerate(cycles):
        for idx, node in enumerate(cyc):
            for k in _sections_between(order.get(node, []),
                                       cyc[(idx + 1) % len(cyc)], cyc[idx - 1]):
                rows[r, offset[node] + k] += 1.0
    return rows


def check_plan_shape(plan: SectionPlan, infeasible=InvalidInstanceError):
    """Raise InvalidInstanceError unless times and link_order have the same
    trajectories and each time list is as long as its link list and holds
    finite numbers, then `infeasible` if a time is 0 or less or a
    trajectory's times miss the period by more than 1e-12 * T."""
    order, times = plan.link_order, plan.times
    if times.keys() != order.keys() or not all(
            type(times[i]) is list and type(nbs) is list and len(times[i]) == len(nbs)
            and all(isinstance(t, (int, float)) and math.isfinite(t) for t in times[i])
            for i, nbs in order.items()):
        raise InvalidInstanceError("section plan times must be one list of finite numbers "
                                   "per trajectory of its link order, of the same length")
    for traj, ts in times.items():
        if any(t <= 0 for t in ts):
            raise infeasible(f"non-positive section time on {traj}")
    T = plan.period
    for traj, ts in times.items():
        if abs(sum(ts) - T) > 1e-12 * T:
            raise infeasible(f"section times on {traj} sum to {sum(ts)}, expected {T}")


def validate_section_plan(plan: SectionPlan, cycles):
    """Check period sums and the opposite-direction cycle equations.

    The cycle sums are the rows of _cycle_rows, the equations the section-time
    LP solves, applied to the plan's times.  Returns the list of feasible z
    values, one per cycle, or raises InfeasibleSectionTimesError, also where
    check_plan_shape raises `infeasible`: for a section time of 0 or less or
    a period sum that misses.  Raises InvalidInstanceError where
    check_plan_shape does for the plan's shape, or if a cycle steps between
    trajectories the plan does not link.  Each sum may miss by 1e-12 * T
    (times k for a k-cycle).
    """
    import numpy as np
    T = plan.period
    tol = 1e-12 * T
    check_plan_shape(plan, InfeasibleSectionTimesError)
    x = np.array([t for i in plan.link_order for t in plan.times[i]])
    zs = []
    for cyc, total in zip(cycles, (_cycle_rows(plan.link_order, cycles) @ x).tolist()):
        k = len(cyc)
        z = round(total / T)
        if not (0 < z < k) or abs(total - z * T) > tol * k:
            raise InfeasibleSectionTimesError(
                f"cycle {cyc} sums to {total / T:.6f} T, not an admissible multiple",
                cycles=[cyc])
        zs.append(z)
    return zs


def _travel_orders(g: CommGraph, dirs):
    """Neighbor visit order on each trajectory under the assigned direction.

    CCW visits link locations by increasing arc length; CW by decreasing.
    """
    order = {}
    for i in range(g.n):
        nbs = g.neighbors(i)
        if not nbs:
            continue
        nbs = sorted(nbs, key=lambda j: (g.phi(i, j), j))
        if dirs[i] == CW:
            nbs = nbs[::-1]
        order[i] = nbs
    return order


def _section_lengths(g: CommGraph, order, dirs):
    lengths = {}
    for i, nbs in order.items():
        li = g.lengths[i]
        m = len(nbs)
        if m == 1:
            lengths[i] = [li]
            continue
        secs = []
        for k in range(m):
            s0 = g.phi(i, nbs[k])
            s1 = g.phi(i, nbs[(k + 1) % m])
            d = math.fmod(s1 - s0, li) if dirs[i] == CCW else math.fmod(s0 - s1, li)
            if d < 0:
                d += li
            if d == 0:
                d = li
            secs.append(d)
        lengths[i] = secs
    return lengths


def _interval_infeasible(row_min, row_max, b_eq, nnz) -> bool:
    """Whether some equality row cannot meet its right-hand side: the least
    value it can take within the bounds (row_min) exceeds it, or the greatest
    (row_max) falls short of it, by more than INTERVAL_SLACK times one plus
    the row's nonzero count nnz; all four are numpy arrays."""
    tol = INTERVAL_SLACK * (1 + nnz)
    return bool((row_min - b_eq > tol).any() or (b_eq - row_max > tol).any())


def assign_section_times(g: CommGraph, period: float = 1.0) -> SectionPlan:
    """Assign section times satisfying the period and cycle constraints.

    The objective minimizes the maximum relative deviation of section speed
    from the trajectory's mean speed length/T, via bisection on the deviation
    bound with an LP feasibility check per step.  The cycle multiples z come
    from an exact branch-and-bound over z-prefixes.  Each cycle's z nearest
    its nominal (constant-speed) closure is tried first, so the first
    bisection usually finds the least bound and later ones are cut early.
    Equality rows whose section-bound sums cannot reach their right-hand
    side are rejected without an LP; until the first leaf is reached, that
    check is the only one prefixes get.  The result is the lexicographically
    first z with the least bound, as full enumeration returns.  The worst
    case is still exponential in the number of cycles: past
    SECTION_LP_BUDGET LP solves, SectionSearchBudgetError is raised.  Where
    there are cycles, no section time is below MIN_SECTION_FRACTION * T.
    Trees get constant speed exactly, so a section between two close links
    keeps its share of the loop, however small.  The cycles are
    cycle_basis(g), the fundamental cycles of the BFS forest from node 0.
    A plan for cycles that fails validate_section_plan (the LP's absolute
    tolerances can admit one at a tiny period) raises
    InfeasibleSectionTimesError.
    """
    check_positive("period", period)
    if g.lengths is None:
        raise InvalidInstanceError(
            "assign_section_times requires trajectory lengths (path mode)")
    dirs = _directions(g)
    order = _travel_orders(g, dirs)
    sec_len = _section_lengths(g, order, dirs)
    cycles = cycle_basis(g)

    nominal = {i: [L * period / g.lengths[i] for L in sec_len[i]] for i in order}
    if not cycles:
        return SectionPlan(period=period, link_order=order, times=nominal,
                           section_lengths=sec_len)

    import numpy as np

    # One variable per section, flattened in link order: each trajectory's
    # sections are contiguous, so its period row is one repeated unit column.
    sizes = [len(order[i]) for i in order]
    nom_vec = np.array([t for i in order for t in nominal[i]])
    nvars = len(nom_vec)
    A_period = np.repeat(np.eye(len(order)), sizes, axis=1)
    b_period = np.full(len(order), period)
    A_all = np.vstack([A_period, _cycle_rows(order, cycles)])
    nnz = np.count_nonzero(A_all, axis=1)
    nominal_closure = A_all[len(order):] @ nom_vec / period

    def equalities(zs):
        """Period rows plus the first len(zs) cycle rows, closing on z*T."""
        return (A_all[:len(order) + len(zs)],
                np.concatenate([b_period, [z * period for z in zs]]))

    def bounds(lam):
        # speed dev <= lam  <=>  nominal/(1+lam) <= tau <= nominal/(1-lam)
        return (np.maximum(nom_vec / (1.0 + lam), MIN_SECTION_FRACTION * period),
                np.minimum(nom_vec / (1.0 - lam), period))

    @functools.lru_cache(maxsize=2)
    def row_ranges(lam):
        """Each equality row's least and greatest value within the bounds at
        lam (the coefficients are all 0 or 1), or None if a bound is empty.
        The search cuts many siblings at one lam, so the last two are kept."""
        lower, upper = bounds(lam)
        if np.any(lower > upper):
            return None
        return A_all @ lower, A_all @ upper

    def cut(lam, zs):
        """Whether the bounds at lam rule the z choices out without an LP."""
        ranges = row_ranges(lam)
        if ranges is None:
            return True
        _, b_eq = equalities(zs)
        m = len(b_eq)
        return _interval_infeasible(ranges[0][:m], ranges[1][:m], b_eq, nnz[:m])

    solves = 0

    def solve(lam, zs):
        """LP feasibility at speed-deviation bound lam for the z choices."""
        nonlocal solves
        if solves >= SECTION_LP_BUDGET:
            raise SectionSearchBudgetError(
                f"section-time search on {len(cycles)} cycles gave up after "
                f"{solves} LP solves")
        solves += 1
        A_eq, b_eq = equalities(zs)
        res = linprog(np.zeros(nvars), A_eq=A_eq, b_eq=b_eq,
                      bounds=list(zip(*bounds(lam))))
        return res.x if res.status == 0 else None

    def children(zs):
        """The prefix extended by each z of the next cycle; the z nearest the
        cycle's nominal closure last (popped first), ties to the smaller z."""
        c = len(zs)
        near_first = sorted(range(1, len(cycles[c])),
                            key=lambda z: (abs(z - nominal_closure[c]), z))
        return [zs + (z,) for z in reversed(near_first)]

    # Depth-first over z-prefixes.  A prefix LP drops the later cycle rows, so
    # it relaxes every completion; feasibility is monotone in lam.  A prefix
    # infeasible at the best lam so far therefore has no completion that
    # bisects as low, and its subtree is cut.  Until the first leaf is
    # reached there is no best lam to cut with, so the first descent checks
    # prefixes by their bounds alone.
    best = None
    leaf_reached = False
    stack = children(())
    while stack:
        zs = stack.pop()
        lam = 0.999999 if best is None else best[0]
        if cut(lam, zs):
            continue
        if len(zs) < len(cycles):
            if not leaf_reached or solve(lam, zs) is not None:
                stack += children(zs)
            continue
        leaf_reached = True
        x = solve(lam, zs)
        if x is None:
            continue
        # x solves lam=0.999999 when best is None; otherwise this z can only
        # win (hi_l <= best lam) after a feasible mid has replaced it, or when
        # best lam is 0.999999 itself.
        lo_l, hi_l, x_best = 0.0, 0.999999, x
        for _ in range(40):
            mid = 0.5 * (lo_l + hi_l)
            x = None if cut(mid, zs) else solve(mid, zs)
            if x is not None:
                hi_l, x_best = mid, x
            else:
                lo_l = mid
        if best is None or hi_l < best[0] or (hi_l == best[0] and zs < best[1]):
            best = (hi_l, zs, x_best)
    if best is None:
        raise InfeasibleSectionTimesError(
            "no z combination admits positive section times", cycles=cycles)

    _, zs, x = best
    # LP solutions satisfy the equalities only to ~1e-8; project onto the
    # exact equality manifold (minimum-norm correction, well within bounds).
    A_eq, b_eq = equalities(zs)
    corr, *_ = np.linalg.lstsq(A_eq, A_eq @ x - b_eq, rcond=None)
    x = x - corr
    parts = np.split(x, np.cumsum(sizes)[:-1])
    times = {i: part.tolist() for i, part in zip(order, parts)}
    # Snap each trajectory's sum to exactly T against rounding in the sums
    for i in times:
        scale = period / math.fsum(times[i])
        times[i] = [t * scale for t in times[i]]
    plan = SectionPlan(period=period, link_order=order, times=times,
                       section_lengths=sec_len)
    validate_section_plan(plan, cycles)
    return plan


def schedule_general(g: CommGraph, plan: SectionPlan) -> Schedule:
    """Propagate link arrival epochs over the BFS forest from node 0.

    Each forest root is colored 0, flies CCW from arc length 0, and reaches
    its first link at the trajectory's mean speed.  Returned verified at
    PHASE_TOL; tree edges close exactly, so only a non-tree edge can fail.
    """
    dirs = _directions(g)
    T = plan.period
    epochs = [dict() for _ in range(g.n)]

    def fill_from(traj, anchor_nb, anchor_epoch):
        nbs = plan.link_order[traj]
        k = nbs.index(anchor_nb)
        t = anchor_epoch
        epochs[traj][anchor_nb] = math.fmod(anchor_epoch, T)
        for step in range(1, len(nbs)):
            t += plan.times[traj][(k + step - 1) % len(nbs)]
            epochs[traj][nbs[(k + step) % len(nbs)]] = math.fmod(t, T)

    f = g.forest
    for a in f.order:
        w = f.parent[a]
        if w is not None:
            fill_from(a, w, epochs[w][a])
        elif g.neighbors(a):
            first = plan.link_order[a][0]
            fill_from(a, first, g.phi(a, first) * T / g.lengths[a])

    starts = [_start_position(g, plan, i, epochs[i], dirs[i]) for i in range(g.n)]
    return _verified(g, Schedule(mode="general", period=T, starts=starts, dirs=dirs,
                                 epochs=epochs))


def _start_position(g, plan, traj, traj_epochs, direction):
    """Arc length occupied at t=0, walked back from the first link arrival."""
    if not traj_epochs:
        return 0.0
    nb = plan.link_order[traj][0]
    s_link = g.phi(traj, nb)
    t_arr = traj_epochs[nb]
    # walk back t_arr units of time through the sections preceding the link
    nbs = plan.link_order[traj]
    li = g.lengths[traj]
    if len(nbs) == 1:
        frac = math.fmod(t_arr, plan.period) / plan.period
        delta = frac * li
    else:
        k = nbs.index(nb)
        t = math.fmod(t_arr, plan.period)
        delta = 0.0
        kk = (k - 1) % len(nbs)
        while t > 0:
            tau = plan.times[traj][kk]
            L = plan.section_lengths[traj][kk] if plan.section_lengths else li * tau / plan.period
            if t >= tau:
                delta += L
                t -= tau
            else:
                delta += L * t / tau
                t = 0.0
            kk = (kk - 1) % len(nbs)
    if direction == CCW:
        s = s_link - delta
    else:
        s = s_link + delta
    s = math.fmod(s, li)
    return s + li if s < 0 else s
