"""The benchmark's workloads: set-up commands and pipeline steps per seed.

Each workload is a fixed layout and failure set (so graph, filter and
schedule outputs do not depend on the seed) plus the seeded simulation
inputs: the simulation seeds, which draw the message emission times and the
rand:p switch decisions.  Drawing the layout or the failed agents from the
seed as well moved trace size and wall time by 20-50% between seeds, far
more than a regression bound can absorb.

Every step is one `ringsync` CLI invocation, written as the argument list
after the program name.  File names are relative to the run's work
directory; instance files live in `setup/`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

GRID_ROWS = GRID_COLS = 10
GRID_PERIOD = 300.0
GRID_HORIZON = 25 * GRID_PERIOD

PATH_PERIOD = 100.0
PATH_HORIZON = 20 * PATH_PERIOD
# Layouts written by write_layouts.py: name -> (rows, cols, staggered).
PATH_GRIDS = {"pgrid-3x3": (3, 3, True), "pgrid-3x4": (3, 4, True),
              "pgrid-2x2-aligned": (2, 2, False)}

RANDOM_N = 400
RANDOM_LAYOUT_SEED = 0
RANDOM_FAILED = RANDOM_N // 5
RANDOM_FAIL_SEED = 0
RANDOM_PERIOD = 300.0
RANDOM_HORIZON = 20 * RANDOM_PERIOD
RANDOM_RAND_SEEDS = 3


@dataclass
class Step:
    """One CLI command of a pipeline and what its output must satisfy."""
    kind: str                 # "schedule" | "simulate" | "report"
    layout: str               # instance the step works on
    argv: list
    output: str               # file or directory the step writes
    sim_seeds: list = field(default_factory=list)   # simulate/report
    failed_agents: int = 0                          # simulate/report
    sim: str = ""             # simulate output this report reads
    # Error name of a recorded known defect; the step may also succeed.
    expected_error: str | None = None


@dataclass
class Workload:
    name: str
    setup: list               # CLI argument lists run in setup/
    write_layouts: list       # PATH_GRIDS names written by write_layouts.py
    steps: list


def _chain(layout: str, instance: str, period: float, sim_args: list,
           sim_seeds: list, failed: int = 0, tag: str = "") -> list:
    """schedule -> simulate -> report for one instance."""
    sched = f"{layout}.schedule.json"
    traces = f"{layout}{tag}.traces"
    sim = Step("simulate", layout,
               ["simulate", "-i", instance, "-s", sched, *sim_args,
                "--seed-list", ",".join(map(str, sim_seeds)), "-o", traces],
               traces, sim_seeds=sim_seeds, failed_agents=failed)
    rep = Step("report", layout,
               ["report", "-t", traces, "--label", f"{layout}{tag}",
                "-o", f"{layout}{tag}.summary.json"],
               f"{layout}{tag}.summary.json", sim_seeds=sim_seeds,
               failed_agents=failed, sim=traces)
    steps = [] if tag else [
        Step("schedule", layout,
             ["schedule", "-i", instance, "--period", repr(period), "-o", sched],
             sched)]
    return steps + [sim, rep]


def grid_gossip(seed: int) -> Workload:
    inst = "setup/grid.json"
    return Workload(
        "grid-gossip",
        setup=[["generate", "--grid", f"{GRID_ROWS}x{GRID_COLS}", "-o", inst]],
        write_layouts=[],
        steps=_chain("grid", inst, GRID_PERIOD,
                     ["--horizon", repr(GRID_HORIZON), "--strategy", "alw"],
                     [seed]))


def path_sections(seed: int) -> Workload:
    steps = _chain("case-study", "setup/case-study.json", PATH_PERIOD,
                   ["--horizon", repr(PATH_HORIZON), "--strategy", "alw"], [seed])
    for name, (_, _, staggered) in PATH_GRIDS.items():
        inst = f"setup/{name}.json"
        if staggered:
            steps += _chain(name, inst, PATH_PERIOD,
                            ["--horizon", repr(PATH_HORIZON), "--strategy", "alw"],
                            [seed])
        else:
            # Co-located links make section-time synthesis infeasible today.
            steps.append(Step("schedule", name,
                              ["schedule", "-i", inst, "--period", repr(PATH_PERIOD),
                               "-o", f"{name}.schedule.json"],
                              f"{name}.schedule.json",
                              expected_error="InfeasibleSectionTimesError"))
    return Workload(
        "path-sections",
        setup=[["generate", "--preset", "case-study", "-o", "setup/case-study.json"]],
        write_layouts=list(PATH_GRIDS),
        steps=steps)


def random_failover(seed: int) -> Workload:
    inst = "setup/random.json"
    sim = ["--horizon", repr(RANDOM_HORIZON), "--emission-period", repr(RANDOM_HORIZON),
           "--fail", str(RANDOM_FAILED), "--fail-seed", str(RANDOM_FAIL_SEED)]
    rand_seeds = [RANDOM_RAND_SEEDS * seed + k for k in range(RANDOM_RAND_SEEDS)]
    steps = _chain("random", inst, RANDOM_PERIOD, sim + ["--strategy", "rand:0.5"],
                   rand_seeds, RANDOM_FAILED)
    steps += _chain("random", inst, RANDOM_PERIOD, sim + ["--strategy", "alw"],
                    [seed], RANDOM_FAILED, tag="-alw")
    return Workload(
        "random-failover",
        setup=[["generate", "--random", str(RANDOM_N), "--seed", str(RANDOM_LAYOUT_SEED),
                "-o", inst]],
        write_layouts=[],
        steps=steps)


WORKLOADS = {"grid-gossip": grid_gossip, "path-sections": path_sections,
             "random-failover": random_failover}
