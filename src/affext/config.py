"""Shared knobs: operation budgets and float tolerance.

Every enumeration in this package is bounded by an explicit operation budget
and raises BudgetExceededError *before* doing any work when the bound would
be crossed.  Nothing silently truncates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Absolute tolerance for every floating-point comparison in bound checks.
DEFAULT_TOLERANCE = 1e-6

# Default operation budgets (scalar field operations, or items enumerated).
DEFAULT_POINT_BUDGET = 10**8
DEFAULT_SUBSPACE_BUDGET = 10**8
DEFAULT_MINOR_BUDGET = 10**8  # verify_mds only; no sweep reads it


class BudgetExceededError(RuntimeError):
    """The requested enumeration would exceed its budget; nothing was run."""


@dataclass(frozen=True)
class Budgets:
    """Operation budgets for one run."""

    points: int = DEFAULT_POINT_BUDGET
    subspaces: int = DEFAULT_SUBSPACE_BUDGET

    def __post_init__(self) -> None:
        if self.points <= 0 or self.subspaces <= 0:
            raise ValueError("budgets must be positive")


def check_tolerance(tolerance: float) -> None:
    """Bound checks test quantity <= bound + tolerance, where NaN would fail
    every row and inf pass every row untested: only a finite tolerance >= 0
    is accepted."""
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise ValueError(f"tolerance must be finite and >= 0, got {tolerance!r}")
