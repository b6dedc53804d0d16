"""Shared knobs, and the rules that refuse outside input before any work.

Every enumeration is bounded by an operation budget, and check_budget raises
BudgetExceededError *before* any work when it would be crossed; nothing
silently truncates.  parse_ints reads every comma-separated integer line of
outside input, and check_tolerance every tolerance.
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


def check_budget(needed: int, budget: int, what: str) -> None:
    """Refuse work that needs more than budget items; what names the need."""
    if needed > budget:
        raise BudgetExceededError(f"{what}, budget is {budget}")


def parse_ints(
    text: str, where: str, n: int | None = None, q: int | None = None
) -> tuple[int, ...]:
    """The integers of a comma-separated ASCII line, n of them if n is given
    and each in [0, q) if q is given; every error starts with where."""
    try:
        if not text.isascii():  # int() also reads other scripts' digits, as U+0663 or U+FF13
            raise ValueError
        values = tuple(map(int, text.split(",")))
    except ValueError:
        raise ValueError(f"{where}: not a comma-separated integer list: {text!a}") from None
    if n is not None and len(values) != n:
        raise ValueError(f"{where}: expected {n} entries, got {len(values)}")
    if q is not None:
        for v in values:
            if not 0 <= v < q:
                raise ValueError(f"{where}: {v} is not a canonical residue mod {q}")
    return values
