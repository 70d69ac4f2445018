"""Problem instances: trajectory layouts plus communication ranges."""

from __future__ import annotations

import math

from .commgraph import CommGraph, build_circle_graph, build_path_graph
from .errors import InvalidInstanceError
from .geometry import Circle, ClosedPath

# The default of meta: a new dict per instance.  A marker, not None, so that
# a file's null meta is rejected as the non-object it is.
_NEW_META = object()


class Instance:
    def __init__(self, mode: str, circles: list[Circle] | None = None,
                 paths: list[ClosedPath] | None = None, comm_range: float | None = None,
                 ranges: list[float] | None = None, label: str = "",
                 meta: dict = _NEW_META):
        """Reject a mode, meta or range that no generator writes."""
        self.mode = mode                # "circle" | "path"
        self.circles = circles
        self.paths = paths
        self.comm_range = comm_range    # circle mode: shared normalized range
        self.ranges = ranges            # path mode: per-trajectory range
        self.label = label
        self.meta = {} if meta is _NEW_META else meta  # period, white agents, dfs root, ...
        if self.mode not in ("circle", "path"):
            raise InvalidInstanceError(f"unknown instance mode {self.mode!r}")
        if type(self.meta) is not dict:
            raise InvalidInstanceError(f"instance meta {self.meta!r} is not an object")
        ranges = [self.comm_range] if self.mode == "circle" else self.ranges
        if self.mode == "path" and (type(ranges) is not list or len(ranges) != self.n):
            raise InvalidInstanceError(f"instance ranges {ranges!r} are not one per path")
        for r in ranges:
            if not (isinstance(r, (int, float)) and 0 <= r < math.inf):
                raise InvalidInstanceError(f"range {r!r} must be finite and non-negative")

    @property
    def n(self) -> int:
        return len(self.circles) if self.mode == "circle" else len(self.paths)

    def graph(self) -> CommGraph:
        if self.mode == "circle":
            return build_circle_graph(self.circles, self.comm_range)
        return build_path_graph(self.paths, self.ranges)
