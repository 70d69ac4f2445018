"""Survivor starvation under different trajectory-switch strategies.

On tree-shaped layouts, killing the marked "white" agents at t = 0 can trap
the survivors under the always-switch strategy: they chase each other's
last known positions forever, never meeting and never finishing a tour.
Switching with probability 1/2 breaks the trap in essentially every run,
and restricting switches to a DFS tree trades liveness for throughput.
"""

import ringsync as rs
from ringsync.simulator import SimConfig, resolve_root, run
from ringsync.trace import Strategy

PRESETS = ["fig9a", "fig9b", "fig11", "fig7-starve"]
SEEDS = range(10)


def evaluate(inst, sched, strategy, failures, horizon, seeds):
    reports = []
    for seed in seeds:
        trace = run(inst, sched, SimConfig(horizon=horizon, strategy=strategy,
                                           seed=seed, failures=failures))
        reports.append(rs.report(trace))
    return rs.aggregate(reports)


def main():
    for name in PRESETS:
        inst = rs.preset(name)
        g = inst.graph()
        T, horizon = inst.meta["period"], inst.meta["horizon"]
        sched = rs.schedule_opposite_directions(g, period=T)
        failures = [(w, 0.0) for w in inst.meta["whites"]]

        rows = []
        alw = evaluate(inst, sched, Strategy("alw"), failures, horizon, [0])
        rows.append(("alw", alw))
        rows.append(("rand(1/2)", evaluate(inst, sched, Strategy("rand", p=0.5),
                                           failures, horizon, SEEDS)))
        root = resolve_root(Strategy("dfs", root="topleft"), inst)
        rows.append((f"dfs({root})", evaluate(inst, sched, Strategy("dfs", root=root),
                                              failures, horizon, [0])))

        print(f"== {name}: {g.n} trajectories, whites {inst.meta['whites']} "
              f"fail at t=0, horizon {horizon:.0f} s ==")
        print(rs.render_table(rows))
        if alw.starvation_proven:
            print("always-switch starvation is proven: the occupancy pattern "
                  "repeats with zero meetings between repeats")
        print()


if __name__ == "__main__":
    main()
