"""Global numerical configuration.

The reduced Planck constant is 1 (natural units). Functions accept an
``hbar`` keyword that overrides it for that call.
"""

from __future__ import annotations

import os

#: Hermiticity is asserted relative to the largest matrix entry.
TOL_HERM = 1e-12

#: Relative gap floor: gaps below EPS_GAP_REL * max|E| count as degenerate.
EPS_GAP_REL = 1e-10

#: Nested-commutator norms beyond this abort with a scaling hint.
NORM_OVERFLOW = 1e150


def hbar(override: float | None = None) -> float:
    """Return the effective hbar: the override if given, else 1.0."""
    return 1.0 if override is None else float(override)


def thread_cap() -> int:
    """Parallelism cap for scenario sweeps, from SHORTCUT_FORGE_THREADS (default 1)."""
    raw = os.environ.get("SHORTCUT_FORGE_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        return 1
    return max(1, n)
