"""Every name the benchmark tracer wraps must exist in the package, and every
argument its hooks read by position must be the parameter they expect.

``perfbench/tracer.py`` lists the traced layer functions by dotted name;
``perfbench/run.py --trace 1`` stops with "no binding" when one of them is
renamed or removed. Its hooks read some arguments by position, so a reordered
signature would silently skew the per-layer counts instead. This check keeps
both contracts in the fast test suite.
"""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

import shortcut_forge.cli  # noqa: F401  (loads every package module)
from shortcut_forge import algebraic_system, krylov_chain, krylov_system, pauli_basis, solve_cd
from shortcut_forge.models import SX, SZ

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
try:
    import tracer
finally:
    sys.path.pop(0)

#: (traced name, position, parameter) of each positional read of a hook
HOOK_READS = [
    ("spectral.eigenpath", 1, "grid"),
    ("dynamics.evolve", 2, "grid"),
    ("dynamics.evolve", 3, "steps_per_interval"),
    ("agp.solve_cd", 0, "system"),
]


def _resolve(name):
    module, attr = name.split(".", 1)
    obj = importlib.import_module(f"shortcut_forge.{module}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


@pytest.mark.parametrize("name", tracer.SPANS + tracer.COUNTERS)
def test_traced_name_resolves(name):
    assert callable(_resolve(name))


def test_every_hook_is_guarded():
    assert set(tracer._HOOKS) == {name for name, _, _ in HOOK_READS}


@pytest.mark.parametrize("name, position, parameter", HOOK_READS)
def test_hook_reads_the_named_parameter(name, position, parameter):
    assert list(inspect.signature(_resolve(name)).parameters)[position] == parameter


@pytest.mark.parametrize("deficient", [True, False])
def test_solve_hook_counts_a_rank_deficient_solve(deficient):
    """``_solve_hook`` counts a rank-deficient solve by the ``rank_deficiency``
    key that ``solve_cd`` leaves in the system's metadata. The full Pauli trial
    basis holds the commutant of H, so its system is rank deficient; a
    Krylov system of the same pair is not."""
    H, dH = SZ + 0.5 * SX, 3.0 * SZ
    system = algebraic_system(H, dH, pauli_basis(1)) if deficient else krylov_system(krylov_chain(H, dH))
    solve_cd(system)
    assert ("rank_deficiency" in system.metadata) is deficient
    stat = tracer.Stat()
    tracer._solve_hook(stat, 0, (system,), {})
    assert stat.extra == {"rank_deficient": int(deficient)}
    assert isinstance(system.metadata.get("rank_deficiency", 0), int)   # one time: an int
