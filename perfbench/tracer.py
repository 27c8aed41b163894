"""Per-layer tracing from outside the package.

``install()`` replaces the public functions of each ``shortcut_forge`` layer
with timing wrappers. A function imported by name into another module (``cli``
does ``from .spectral import eigenpath``, ``digitized`` holds its own
``step_unitary``, ``agp`` its own ``frobenius_inner``) is a separate binding,
so every binding in every ``shortcut_forge`` module that refers to the
original object is replaced, not only the one in the defining module.

A span records calls, total time and self time (total minus the time of the
traced spans it encloses). Functions called hundreds of thousands of times get
a call counter only, because a span would cost more than the call.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

#: traced names; a name is "<module>.<function>" or "<module>.<Class>.<method>"
SPANS = [
    "spectral.eigenpath",
    "spectral.counterdiabatic_term",
    "spectral.adiabatic_state",
    "dynamics.evolve",
    "dynamics.step_unitary",
    "agp.algebraic_system",
    "agp.odd_commutator_support",
    "agp.krylov_chain",
    "agp.krylov_cd",
    "agp.variational_cd",
    "agp.algebraic_cd",
    "agp.solve_cd",
    "agp.assemble_cd",
    "digitized.trotter_step_unitaries",
    "digitized.trotter_cd_evolve",
    "digitized.digitization_error",
    "qsl.qsl_discrete",
    "qsl.qsl_continuous",
    "fastforward.ff_of_cd",
    "invariants.invariant_residual",
    "invariants.DynamicalInvariant.from_modes",
    "cli.run_scenario",
    "cli.write_csv",
    "cli.write_summary",
]

#: names that only count calls
COUNTERS = [
    "operators.frobenius_inner",
    "operators.commutator",
    "models.DrivenSystem.hamiltonian",
    "models.DrivenSystem.dhamiltonian",
]

#: spans whose individual durations are kept for percentiles
SAMPLED = {"spectral.counterdiabatic_term"}


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    samples: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def add(self, key: str, value) -> None:
        self.extra[key] = self.extra.get(key, 0) + value


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        # one accumulator per open span: time covered by its traced children
        self._child_time = [0.0]

    def stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    def span(self, name: str, fn, hook=None):
        """Wrap ``fn`` in a span; ``hook(stat, eigh_calls_during, args, kwargs)``
        runs after each call."""
        st = self.stat(name)
        eigh = self.stat("numpy.eigh")
        keep = name in SAMPLED
        clock = time.perf_counter
        child_time = self._child_time

        def wrapper(*args, **kwargs):
            child_time.append(0.0)
            eigh_before = eigh.calls
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                covered = child_time.pop()
                child_time[-1] += dt
                st.calls += 1
                st.total_s += dt
                st.self_s += dt - covered
                if keep:
                    st.samples.append(dt)
                if hook:
                    hook(st, eigh.calls - eigh_before, args, kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn):
        st = self.stat(name)

        def wrapper(*args, **kwargs):
            st.calls += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def report(self) -> dict:
        return {name: {"calls": s.calls, "total_s": s.total_s, "self_s": s.self_s,
                       "samples": s.samples, **s.extra}
                for name, s in self.stats.items()}


def _eigenpath_hook(st, eigh_calls, args, kwargs):
    """Grid points and eigh calls, whose difference is the bisection retries."""
    grid = args[1] if len(args) > 1 else kwargs["grid"]
    st.add("grid_points", len(grid))
    st.add("eigh", eigh_calls)


def _evolve_hook(st, eigh_calls, args, kwargs):
    """Propagation sub-steps: intervals times steps_per_interval."""
    grid = args[2] if len(args) > 2 else kwargs["grid"]
    per = args[3] if len(args) > 3 else kwargs.get("steps_per_interval", 1)
    st.add("steps", (len(grid) - 1) * per)


def _solve_hook(st, eigh_calls, args, kwargs):
    """Solves whose system came back rank deficient."""
    system = args[0] if args else kwargs["system"]
    st.add("rank_deficient", int("rank_deficiency" in system.metadata))


_HOOKS = {
    "spectral.eigenpath": _eigenpath_hook,
    "dynamics.evolve": _evolve_hook,
    "agp.solve_cd": _solve_hook,
}


def _rebind(original, replacement) -> int:
    """Replace every module-level binding of ``original`` in the package."""
    n = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "shortcut_forge" or mod_name.startswith("shortcut_forge.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                n += 1
    return n


def _install_one(name: str, make) -> None:
    module, attr = name.split(".", 1)
    mod = sys.modules[f"shortcut_forge.{module}"]
    if "." in attr:
        # a method: patch the class, which every instance looks up at call time
        cls_name, meth = attr.split(".")
        cls = getattr(mod, cls_name)
        raw = cls.__dict__[meth]
        if isinstance(raw, classmethod):
            setattr(cls, meth, classmethod(make(name, raw.__func__)))
        else:
            setattr(cls, meth, make(name, raw))
        return
    original = getattr(mod, attr)
    if _rebind(original, make(name, original)) == 0:
        raise RuntimeError(f"no binding of {name} found")


def install() -> Tracer:
    """Wrap every traced layer function and numpy's eigh; return the tracer.

    Call after ``shortcut_forge.cli`` is imported, so that every package
    module and every name it imported already exists.
    """
    import numpy.linalg

    tracer = Tracer()
    numpy.linalg.eigh = tracer.span("numpy.eigh", numpy.linalg.eigh)
    for name in SPANS:
        _install_one(name, lambda name, fn: tracer.span(name, fn, _HOOKS.get(name)))
    for name in COUNTERS:
        _install_one(name, tracer.counter)
    return tracer
