"""The budget scope: one lattice budget and one deadline per block of work.

budget(lattice, seconds) holds both for a block, check_deadline(phase)
raises once the deadline has passed, and lattice_budget() and
_require_budget read the budget. Outside every scope the budget is
DEFAULT_LATTICE_BUDGET, with no deadline. This module needs no field and
no lattice, so a command that only counts (qbinom, altsum, zsigmondy) can
open its scope without loading gfspace.
"""

from __future__ import annotations

import contextvars
import math
import time
from contextlib import contextmanager
from typing import Optional

from .errors import DomainError, ResourceLimitError

DEFAULT_LATTICE_BUDGET = 10 ** 6


# (lattice budget, time.monotonic() deadline) of the innermost budget().
_SCOPE = contextvars.ContextVar("qlattice_budget", default=(DEFAULT_LATTICE_BUDGET, math.inf))


@contextmanager
def budget(lattice: Optional[int] = None, seconds: Optional[float] = None):
    """Run a block under a lattice budget and a deadline seconds from now.

    None keeps the enclosing scope's value, inf sets no deadline, and a
    nested deadline can only be sooner.
    """
    if lattice is not None and lattice < 1:
        raise DomainError("lattice budget must be positive")
    if seconds is not None and not seconds > 0:
        raise DomainError(f"time_budget must be positive, got {seconds}")
    outer, deadline = _SCOPE.get()
    if seconds is not None:
        deadline = min(deadline, time.monotonic() + seconds)
    token = _SCOPE.set((outer if lattice is None else lattice, deadline))
    try:
        yield
    finally:
        _SCOPE.reset(token)


def current_deadline() -> Optional[float]:
    """The time.monotonic() value the current scope ends at, or None."""
    deadline = _SCOPE.get()[1]
    return deadline if deadline < math.inf else None


def check_deadline(phase: str, **progress) -> None:
    """ResourceLimitError, partial {"phase": phase, **progress}, past the deadline."""
    if time.monotonic() > _SCOPE.get()[1]:
        raise ResourceLimitError(
            f"time budget ran out in {phase}", partial={"phase": phase, **progress}
        )


def lattice_budget() -> int:
    """Max subspaces materialized per ambient: the scope's, else DEFAULT_LATTICE_BUDGET."""
    return _SCOPE.get()[0]


def _require_budget(count: int, what: str, key: str = "count") -> None:
    """Raise ResourceLimitError when count objects exceed the lattice budget.

    A count over 256 bits is named by its bit length, never in decimal: such
    a count may have more digits than Python converts to a string. The
    partial data keep the exact count.
    """
    budget = lattice_budget()
    if count > budget:
        size = count if count.bit_length() <= 256 else f"at least 2^{count.bit_length() - 1}"
        raise ResourceLimitError(
            f"{size} {what} exceed the lattice budget {budget}", partial={key: count}
        )
