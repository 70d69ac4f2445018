"""Synchronizing periodic agents on disjoint closed trajectories.

Subpackages: geometry primitives, communication graphs, schedulers,
deterministic simulation, instance generation, metrics, and a CLI.

The names below load their submodule on first access (PEP 562), so that
`import ringsync` and each CLI command load only the layers they use.
"""

_SUBMODULE_NAMES = {
    "commgraph": ("CommGraph", "build_circle_graph", "build_path_graph", "cycle_basis",
                  "fundamental_cycle", "max_bipartite_subgraph", "max_synch_subgraph",
                  "two_color"),
    "errors": ("ClosureViolationError", "GenerationFailureError",
               "InfeasibleSectionTimesError", "InvalidInstanceError",
               "NotSynchronizableError", "OverlappingTrajectoriesError", "RingsyncError",
               "SectionSearchBudgetError"),
    "generator": ("grid", "preset", "random_connected", "validate_instance"),
    "geometry": ("Circle", "ClosedPath", "Point2", "link_positions", "min_distance"),
    "instance": ("Instance",),
    "metrics": ("MetricsReport", "abandoned_time", "aggregate", "broadcast_time",
                "completed_tours", "prove_starvation", "render_table", "report",
                "starvation_time"),
    "scheduler": ("Schedule", "SectionPlan", "assign_section_times", "schedule_general",
                  "schedule_opposite_directions", "schedule_same_direction",
                  "validate_section_plan", "verify_schedule"),
    "simulator": ("SimConfig", "run"),
    "trace": ("Strategy", "Trace", "occupancy_replay", "parse_strategy"),
}
_SUBMODULE = {name: module for module, names in _SUBMODULE_NAMES.items() for name in names}
__all__ = sorted(_SUBMODULE)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, the import statement's own path, which `-X importtime`
    # reports; importlib.import_module loads without a report.
    module = __import__(f"{__name__}.{_SUBMODULE[name]}", fromlist=[name])
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_SUBMODULE))
