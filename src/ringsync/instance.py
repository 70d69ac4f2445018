"""Problem instances: trajectory layouts plus communication ranges."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .commgraph import CommGraph, build_circle_graph, build_path_graph
from .errors import InvalidInstanceError
from .geometry import Circle, ClosedPath


@dataclass
class Instance:
    mode: str                       # "circle" | "path"
    circles: list[Circle] | None = None
    paths: list[ClosedPath] | None = None
    comm_range: float | None = None        # circle mode: shared normalized range
    ranges: list[float] | None = None      # path mode: per-trajectory range
    label: str = ""
    meta: dict = field(default_factory=dict)  # period, white agents, dfs root, ...

    def __post_init__(self):
        """Reject a mode, meta or range that no generator writes."""
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
