"""Size guards for the operations with exponential worst cases.

Each guarded operation has its own default cap on the grid size n; the
environment variable SCHUBERT_MAX_N overrides every default, so big one-off
runs (or stricter CI limits) need no code changes.
"""

from __future__ import annotations

import os

ENV_VAR = "SCHUBERT_MAX_N"


class SizeGuardError(ValueError):
    """Raised when an input exceeds an operation's size cap, or when
    SCHUBERT_MAX_N is set to something other than an integer."""


class InvariantError(Exception):
    """Raised when a property the theory guarantees fails to hold.

    That is a defect in the library, not bad input, so it is deliberately
    not a ValueError.
    """


def size_guard(n: int, default_cap: int, operation: str) -> None:
    cap = default_cap
    env = os.environ.get(ENV_VAR)
    if env is not None:
        try:
            cap = int(env)
        except ValueError:
            raise SizeGuardError(f"{ENV_VAR}={env!r} is not an integer") from None
    if n > cap:
        raise SizeGuardError(
            f"{operation}: n={n} exceeds cap {cap} (set {ENV_VAR} to override)"
        )
