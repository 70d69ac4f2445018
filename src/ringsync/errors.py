"""Exception types shared across the library, and the input check they share."""

import math


class RingsyncError(Exception):
    """Base class for all library errors."""


class DegenerateGeometryError(RingsyncError):
    """Raised when a geometric construction is undefined (e.g. coincident centers)."""


class OverlappingTrajectoriesError(RingsyncError):
    """Raised when trajectories that must be disjoint intersect or overlap."""


class InvalidInstanceError(RingsyncError):
    """Raised when an instance violates basic validity (overlap, disconnection, bad params)."""


def check_positive(name: str, value) -> None:
    """Raise InvalidInstanceError unless value is a finite number > 0."""
    try:
        ok = math.isfinite(value) and value > 0
    except (TypeError, OverflowError):  # not a number, or an int beyond the floats
        ok = False
    if not ok:
        raise InvalidInstanceError(f"{name} must be finite and positive, got {value!r}")


class NotSynchronizableError(RingsyncError):
    """Raised when no synchronized schedule exists; carries an odd-cycle witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class ClosureViolationError(RingsyncError):
    """Raised when propagating a schedule around a cycle fails to close."""

    def __init__(self, message, edge=None):
        super().__init__(message)
        self.edge = edge


class InfeasibleSectionTimesError(RingsyncError):
    """Raised when no section-time assignment satisfies the cycle constraints."""

    def __init__(self, message, cycles=None):
        super().__init__(message)
        self.cycles = cycles


class SectionSearchBudgetError(RingsyncError):
    """Raised when the section-time search exceeds its LP solve budget."""


class GenerationFailureError(RingsyncError):
    """Raised when random instance generation exhausts its retry budget."""

