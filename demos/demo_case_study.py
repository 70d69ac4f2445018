"""Synchronize seven irregular closed paths with per-section speed control.

The layout's communication graph has two even cycles sharing a chord, so a
single constant speed per trajectory cannot synchronize every link.  The
section-time assigner splits each trajectory at its link positions and
solves a small minimax linear program: every trajectory still takes exactly
one period T per tour, each cycle equation closes on an integer multiple of
T, and the spread of section speeds is minimized.
"""

import ringsync as rs
from ringsync.simulator import SimConfig, run

PERIOD = 100.0


def main():
    inst = rs.preset("case-study")
    g = inst.graph()
    print(f"instance: {g.n} closed paths, {len(g.edges)} links, "
          f"cycles {inst.meta['cycles']}")

    plan = rs.assign_section_times(g, period=PERIOD)
    zs = rs.validate_section_plan(plan, inst.meta["cycles"])
    print(f"section plan valid; cycle equations close with z = {zs}")
    for traj in sorted(plan.times):
        parts = ", ".join(f"->{nb}: {t:5.1f}s"
                          for nb, t in zip(plan.link_order[traj], plan.times[traj]))
        print(f"  path {traj}: {parts}")

    sched = rs.schedule_general(g, plan)
    print(f"schedule: all {len(rs.verify_schedule(g, sched))} links synchronized")

    trace = run(inst, sched, SimConfig(horizon=PERIOD))
    met = sorted({tuple(sorted(trace.trajs[2 * r:2 * r + 2]))
                  for r in trace.rows_of("meeting")})
    print(f"one simulated period: meetings on {len(met)}/{len(g.edges)} links: {met}")


if __name__ == "__main__":
    main()
