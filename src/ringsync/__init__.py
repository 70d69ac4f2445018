"""Synchronizing periodic agents on disjoint closed trajectories.

Subpackages: geometry primitives, communication graphs, schedulers,
deterministic simulation, instance generation, metrics, and a CLI.
"""

from .commgraph import (CommGraph, build_circle_graph, build_path_graph,
                        cycle_basis, cycle_feasible_opposite, cycle_residue,
                        dfs_tree, fundamental_cycle, is_bipartite,
                        max_bipartite_subgraph, max_synch_subgraph,
                        spanning_tree, two_color)
from .errors import (ClosureViolationError, DisconnectedGraphError,
                     GenerationFailureError, InfeasibleSectionTimesError,
                     InvalidInstanceError, NotSynchronizableError,
                     OverlappingTrajectoriesError, RingsyncError,
                     SectionSearchBudgetError)
from .generator import grid, preset, random_connected, validate_instance
from .geometry import Circle, ClosedPath, Point2, link_positions, line_angle, min_distance
from .instance import Instance
from .metrics import (MetricsReport, abandoned_time, aggregate, arrival_times,
                      broadcast_time, completed_tours, prove_starvation,
                      render_table, report, starvation_time)
from .scheduler import (Schedule, SectionPlan, assign_section_times,
                        schedule_general, schedule_opposite_directions,
                        schedule_same_direction, validate_section_plan,
                        verify_schedule)
from .simulator import (SimConfig, Strategy, Trace, TraceEvent, occupancy_check,
                        parse_strategy, run, strategy_decide)

__version__ = "0.1.0"
