"""Reproducible scenario runner and data emitter.

Subcommands::

    shortcut-forge run <config.json> [--out DIR]
    shortcut-forge compare <run_a_dir> <run_b_dir> [--tol-default X]
    shortcut-forge sweep <config.json> --param <name> --values <v1,v2,...> [--out DIR]

A config names a ``system`` and a ``method``. The key tables below
(``_COMMON``, ``_PARAMETERS``, ``_METHOD_KEYS``, ``_UNREAD`` and ``_RULES``)
are the config reference: ``validate_config`` rejects every key, type or value
they do not allow and fills in the defaults. Runs write one CSV time series and
one JSON summary per scenario, byte-for-byte reproducible for a fixed config,
seed and version on one platform.

Exit codes: 0 success, 1 compare mismatch, 2 config error (the message names
the key), 3 numerical failure, 4 internal error (any other exception; its
traceback goes to stderr). SHORTCUT_FORGE_THREADS caps sweep parallelism.
"""

from __future__ import annotations

import argparse
import copy
import fnmatch
import hashlib
import json
import os
import sys
import traceback
from functools import cached_property
from pathlib import Path

import numpy as np

from . import __version__
from .agp import algebraic_cd, frame_krylov_cd, frame_odd_commutator_support
from .digitized import digitization_error, fit_spans, trotter_baseline_error
from .dynamics import StateTrajectory, adiabatic_populations, stack_at
from .errors import ConfigError, NonFiniteError, ShortcutForgeError
from .fastforward import TimeRescaling
from .gridff import GridSystem1D, ff_potential, split_step_evolve
from .invariants import DynamicalInvariant, invariant_residual
from .models import GaussianWidthRamp, landau_zener, random_hermitian_ramp, tfim_chain
from .operators import gell_mann_basis, gram_matrix, pauli_basis
from .qsl import qsl_from_integrand, stddev_in_state
from .schedule import SHAPES
from .spectral import cd_walk, counterdiabatic_term, eigenpath, frame_cd

#: Every config key maps to its default, whose type is the key's type, or to a
#: bare type when it has no default; a nested dict is a section of keys.
_COMMON = {
    "system": str,
    "method": str,
    "grid_points": 1001,
    "compare_tolerances": dict,     # column glob (or "default") -> tolerance
    "output": {"csv": "timeseries.csv", "summary": "summary.json"},
}
#: the ``parameters`` section of each system; ``seed`` is accepted by every
#: system because seeded batches pass their seed to every scenario, though
#: only random_hermitian reads it (and requires it)
_PARAMETERS = {
    "landau_zener": {"delta": 1.0, "lambda_start": -5.0, "lambda_stop": 5.0, "duration": 1.0,
                     "schedule_shape": "linear", "seed": int},
    "tfim_chain": {"n_sites": 4, "coupling": 1.0, "field": 1.0, "lambda_start": 0.0, "lambda_stop": 1.0,
                   "duration": 1.0, "schedule_shape": "smoothstep", "seed": int},
    "random_hermitian": {"dim": 4, "seed": int, "duration": 1.0, "schedule_shape": "smoothstep"},
    "grid_1d": {"width_start": 1.0, "width_stop": 2.0, "duration": 4.0, "mass": 1.0, "x_extent": 40.0,
                "x_points": 1024, "seed": int},
}
#: the keys each method reads on top of its system's
_METHOD_KEYS = {
    "exact_cd": {},
    "variational": {"order": 1},
    "algebraic": {"order": 1},
    "krylov": {"order": 1},
    "trotter": {"trotter": {"M_list": [8, 16, 32, 64, 128, 256]}},
    "ff": {"ff": {"rate": 2.0, "n_steps": 4000}},
    "qsl": {"order": 1},
    "invariant": {},
}
#: keys that the tables give a pair but its runner does not read: no Trotter
#: run reads a grid (the random_hermitian baseline powers the constant pair
#: (H0, H1), so it reads no schedule either; the other Trotter runs read their
#: eigenpath at the slice ends), and the 1-D grid steps its own x grid and
#: time steps
_UNREAD = {
    ("random_hermitian", "trotter"): ("grid_points", "parameters.schedule_shape"),
    ("landau_zener", "trotter"): ("grid_points",),
    ("tfim_chain", "trotter"): ("grid_points",),
    ("landau_zener", "ff"): ("ff.n_steps",),
    ("grid_1d", "ff"): ("grid_points",),
}
#: the 1-D grid ff run checks the density at the ends of this many equal time segments
_FF_SEGMENTS = 8
#: value rules by dotted key: (predicate, what it requires)
_RULES = {
    "grid_points": (lambda v: v >= 3, "at least 3"),
    "order": (lambda v: v >= 1, "at least 1"),
    "compare_tolerances": (lambda v: all(_has_type(t, 0.0) for t in v.values()), "a map to finite numbers"),
    "parameters.duration": (lambda v: v > 0, "positive"),
    "parameters.dim": (lambda v: 2 <= v <= 1024, "between 2 and 1024"),
    "parameters.n_sites": (lambda v: 2 <= v <= 10, "between 2 and 10"),
    "parameters.schedule_shape": (lambda v: v in SHAPES, f"one of {tuple(SHAPES)}"),
    # the 1-D grid: the second-difference stencil needs three points
    "parameters.x_points": (lambda v: v >= 3, "at least 3"),
    "parameters.x_extent": (lambda v: v > 0, "positive"),
    "parameters.mass": (lambda v: v > 0, "positive"),
    "parameters.width_start": (lambda v: v > 0, "positive"),
    "parameters.width_stop": (lambda v: v > 0, "positive"),
    "trotter.M_list": (fit_spans, "at least 4 distinct positive slice counts spanning at least two octaves"),
    "ff.rate": (lambda v: v > 0, "positive"),
    "ff.n_steps": (lambda v: v >= _FF_SEGMENTS, f"at least {_FF_SEGMENTS}, one step per density check"),
    "output.csv": (lambda v: v not in ("", ".", "..") and os.path.basename(v) == v, "a plain file name"),
    # compare finds the summary among the run's *.json files
    "output.summary": (lambda v: os.path.basename(v) == v and v.endswith(".json"), "a plain file name ending in .json"),
}

#: the algebraic trial basis holds D^2 - 1 operators of size D x D, so one CD
#: evaluation grows as D^6: a default run takes about 6 s at D = 16 (seed 0,
#: one AMD EPYC core, 1-thread OpenBLAS)
ALGEBRAIC_MAX_DIM = 16

SYSTEMS = tuple(_PARAMETERS)
METHODS = tuple(_METHOD_KEYS)

_VALID_COMBOS = {
    "landau_zener": set(METHODS),
    "tfim_chain": {"exact_cd", "variational", "krylov", "qsl", "trotter", "invariant"},
    "random_hermitian": {"exact_cd", "variational", "algebraic", "krylov", "trotter", "qsl"},
    "grid_1d": {"ff"},
}


def load_config(path: str | Path) -> dict:
    try:
        return validate_config(json.loads(Path(path).read_text()))
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc


def validate_config(data: dict) -> dict:
    """Check a config against the key tables; return it with every default filled in."""
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    for key, choices in (("system", SYSTEMS), ("method", METHODS)):
        if key not in data:
            raise ConfigError(f"missing required key {key!r}")
        if data[key] not in choices:
            raise ConfigError(f"unknown {key} {data[key]!r}; choose from {choices}")
    system, method = data["system"], data["method"]
    if method not in _VALID_COMBOS[system]:
        raise ConfigError(f"method {method!r} is not supported for system {system!r}")
    schema = {**_COMMON, "parameters": _PARAMETERS[system], **_METHOD_KEYS[method]}
    out = _check_section(data, schema, "", set(_UNREAD.get((system, method), ())),
                         f"system {system!r} with method {method!r}")
    if system == "random_hermitian" and "seed" not in out["parameters"]:
        raise ConfigError("random_hermitian scenarios require an explicit 'parameters.seed'")
    if method == "algebraic" and out["parameters"].get("dim", 0) > ALGEBRAIC_MAX_DIM:
        raise ConfigError(f"config key 'parameters.dim' must be at most {ALGEBRAIC_MAX_DIM} for method "
                          f"'algebraic', got {out['parameters']['dim']!r}")
    if out["output"]["csv"] == out["output"]["summary"]:
        raise ConfigError(f"config key 'output.summary' must differ from 'output.csv', got {out['output']['csv']!r}")
    return out


def _check_section(data: dict, schema: dict, prefix: str, unread: set, pair: str) -> dict:
    schema = {k: spec for k, spec in schema.items() if prefix + k not in unread}
    unknown = sorted(prefix + k for k in set(data) - set(schema))
    if unknown:
        raise ConfigError(f"config keys {unknown} are not read by {pair}")
    out = {}
    for key, spec in schema.items():
        name = prefix + key
        if isinstance(spec, dict):
            section = data.get(key, {})
            if not isinstance(section, dict):
                raise ConfigError(f"config key {name!r} must be an object")
            out[key] = _check_section(section, spec, name + ".", unread, pair)
        elif key in data:
            value = data[key]
            if not _has_type(value, spec):
                typ = spec if isinstance(spec, type) else type(spec)
                what = "a finite number" if typ is float else typ.__name__
                raise ConfigError(f"config key {name!r} must be {what}, got {value!r}")
            rule = _RULES.get(name)
            if rule and not rule[0](value):
                raise ConfigError(f"config key {name!r} must be {rule[1]}, got {value!r}")
            out[key] = value
        elif not isinstance(spec, type):
            out[key] = copy.deepcopy(spec)
    return out


def _has_type(value, spec) -> bool:
    """Whether ``value`` has the type of ``spec`` (a default or a bare type): an
    int passes for a float, a float must be finite (``json`` reads NaN,
    Infinity and 1e309), a bool is never a number, and list items must have
    the type of the default's items."""
    typ = spec if isinstance(spec, type) else type(spec)
    if isinstance(value, bool) and typ is not bool:
        return False
    if typ is float:
        # False for NaN, the infinities and an int beyond the float range
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    if typ is list:
        return isinstance(value, list) and all(_has_type(v, spec[0]) for v in value)
    return isinstance(value, typ)


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(conf: dict) -> str:
    return hashlib.sha256(_canonical_json(conf).encode()).hexdigest()


def scenario_hash(conf: dict) -> str:
    """Hash of the scenario identity only (system, parameters, grid):
    runs of different methods on the same scenario stay comparable."""
    ident = {k: conf[k] for k in ("system", "parameters", "grid_points") if k in conf}
    return hashlib.sha256(_canonical_json(ident).encode()).hexdigest()


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def write_csv(path: Path, columns: list[str], rows: np.ndarray) -> None:
    """Write a header and one line per row, each value as ``_fmt`` gives it:
    one ``%`` of a line format per row."""
    line = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in np.asarray(rows, dtype=float).tolist():
            fh.write(line % tuple(row))


def write_summary(path: Path, summary: dict) -> None:
    with open(path, "w") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _build_system(conf: dict):
    p = conf["parameters"]
    if conf["system"] == "landau_zener":
        return landau_zener(delta=p["delta"], lam_start=p["lambda_start"], lam_stop=p["lambda_stop"],
                            duration=p["duration"], shape=p["schedule_shape"])
    if conf["system"] == "tfim_chain":
        return tfim_chain(n_sites=p["n_sites"], coupling=p["coupling"], field=p["field"], duration=p["duration"],
                          lam_start=p["lambda_start"], lam_stop=p["lambda_stop"], shape=p["schedule_shape"])
    return random_hermitian_ramp(dim=p["dim"], seed=p["seed"], duration=p["duration"], shape=p["schedule_shape"])


#: the largest D whose runs write one population column per level
_LEVEL_COLUMNS_MAX = 8


def _cd_route(ref, conf: dict, method: str):
    """The ``cd_walk`` route of an approximate method on the system of the
    reference ``ref``, which reads ``order``: route(H, E, V, dH) gives H_cd of
    a time chunk from its stacks and the walk's eigenframes (E, V) of H, and
    no route diagonalizes H again. The variational order-K ansatz is the
    Krylov chain truncated at 2K + 1, and the ``krylov`` method runs that same
    chain, so both are one ``frame_krylov_cd``: a least-squares fit of -1/w
    over the frames' Bohr frequencies. The algebraic route solves over the
    elements of ``ref.basis`` that the odd chain operators up to ``order``
    reach at each time (``frame_odd_commutator_support``)."""
    order = conf["order"]
    if method in ("variational", "krylov"):
        return lambda H, E, V, dH: frame_krylov_cd(E, V, dH, k_max=2 * order + 1)
    basis = ref.basis     # algebraic
    return lambda H, E, V, dH: algebraic_cd(
        H, dH, basis, support=frame_odd_commutator_support(E, V, dH, basis, max_order=order))


class _Reference:
    """The adiabatic reference of a matrix scenario: the system, the
    ``grid_points`` grid on its duration and the grid's eigenpath, and the
    tracked ground mode ``target``. The target carries no adiabatic phase,
    because every reader (the fidelity, ``dynamics.adiabatic_populations``,
    the QSL stddev and |overlap|) drops the phase at each time.

    A ``route`` (``exact_cd`` or a method of ``_cd_route``) runs ``cd_walk``
    in place of the plain ``eigenpath``: the walk drives the target's first
    state with H + H_cd of that route by the fourth-order Magnus step
    (``self.walk``). A walked run reads no mode but the ground mode, except
    for its population columns at D <= 8, so above ``_LEVEL_COLUMNS_MAX`` its
    path tracks mode 0 alone: the tracker's overlap gate and rank guard run
    on that mode, and the path stores (n_t, D, 1) vectors instead of
    (n_t, D, D).
    ``on_chunk`` is ``cd_walk``'s consumer, with this reference first."""

    def __init__(self, conf: dict, route: str | None = None, on_chunk=None):
        self.system = _build_system(conf)
        self.grid = np.linspace(0.0, self.system.duration, conf["grid_points"])
        H, dim = self.system.hamiltonian, self.system.dim
        if route is None:
            self.path = eigenpath(H, self.grid)
        else:
            modes = [0] if dim > _LEVEL_COLUMNS_MAX else None
            self.walk = cd_walk(H, self.system.dhamiltonian, self.grid, modes,
                                route=None if route == "exact_cd" else _cd_route(self, conf, route),
                                on_chunk=None if on_chunk is None else (lambda *chunk: on_chunk(self, *chunk)))
            self.path = self.walk.path
        self.target = StateTrajectory(grid=self.grid, states=self.path.vectors[:, :, self.path.column(0)])

    @cached_property
    def basis(self):
        """The Pauli basis of the system's dimension when it is a power of 2,
        else the Gell-Mann basis: built once per run, for the algebraic route
        and the ``cd_coeff_*`` columns."""
        dim = self.system.dim
        n = int(np.log2(dim))
        return pauli_basis(n) if 2**n == dim else gell_mann_basis(dim)


def _driven_scenario(conf: dict) -> dict:
    """CD-driving scenarios: drive the ground state with H + H_cd of the
    method's route on ``cd_walk`` and track the adiabatic target. At D <= 8
    the ``cd_coeff_*`` columns read the H_cd the walk stepped."""
    cds = []

    def keep(ref, start, H, E, V, kept, cd):
        if ref.system.dim <= _LEVEL_COLUMNS_MAX:
            cds.append(cd.copy())

    ref = _Reference(conf, route=conf["method"], on_chunk=keep)
    traj = ref.walk.trajectory
    fid = np.abs(np.einsum("ti,ti->t", ref.target.states.conj(), traj.states))
    columns = ["time", "fidelity"]
    cols = [ref.grid, fid**2]
    if ref.system.dim <= _LEVEL_COLUMNS_MAX:
        columns += [f"population_{n}" for n in range(ref.system.dim)]
        cols += list(adiabatic_populations(traj, ref.path).T)
        columns += [f"cd_coeff_{lab.lower()}" for lab in ref.basis.labels]
        cols += list(gram_matrix(ref.basis.elements, np.concatenate(cds)).real)
    rows = np.column_stack(cols)
    summary = {
        "final_fidelity": float(fid[-1] ** 2),
        "min_fidelity": float((fid**2).min()),
        "method": conf["method"],
    }
    if "order" in conf:
        summary["order"] = conf["order"]
    return {"columns": columns, "rows": rows, "summary": summary}


def _fit_summary(report) -> dict:
    return {k: getattr(report, k) for k in ("slope", "slope_stderr", "metric", "fit_skipped", "note")}


def _trotter_scenario(conf: dict) -> dict:
    tr = conf["trotter"]
    if conf["system"] == "random_hermitian":
        # conventional first-order baseline: the constant non-commuting pair (H0, H1)
        p = conf["parameters"]
        system = random_hermitian_ramp(dim=p["dim"], seed=p["seed"])
        rng = np.random.default_rng(p["seed"])
        psi0 = rng.standard_normal(system.dim) + 1j * rng.standard_normal(system.dim)
        psi0 /= np.linalg.norm(psi0)
        report = trotter_baseline_error(system.H0, system.H1, p["duration"], tr["M_list"], psi0)
        rows = np.column_stack([report.M_list.astype(float), report.values])
        return {"columns": ["m", "state_error"], "rows": rows, "summary": _fit_summary(report)}

    system = _build_system(conf)
    cd_of_t = lambda t: counterdiabatic_term(system.hamiltonian(t), system.dhamiltonian(t))
    report = digitization_error(system.hamiltonian, cd_of_t, system.duration, tr["M_list"])
    columns = ["m", "infidelity", "qsl_bound"]
    rows = np.column_stack([report.M_list.astype(float), report.values, report.qsl_bound])
    summary = {
        **_fit_summary(report),
        "qsl_certified": bool((np.sqrt(1.0 - report.values) >= report.qsl_bound - 1e-8).all()),
    }
    return {"columns": columns, "rows": rows, "summary": summary}


def _ff_scenario(conf: dict) -> dict:
    if conf["system"] == "grid_1d":
        return _grid_ff_scenario(conf)
    # a uniform fast-forward of CD driving is CD driving on a clock that runs rate times faster
    rate = conf["ff"]["rate"]
    p = conf["parameters"]
    ref = _Reference({**conf, "parameters": {**p, "duration": p["duration"] / rate}}, route="exact_cd")
    pops = adiabatic_populations(ref.walk.trajectory, ref.path)
    dev = np.abs(pops - adiabatic_populations(ref.target, ref.path)).max(axis=1)
    columns = ["time", "population_deviation"]
    cols = [ref.grid, dev]
    if ref.system.dim <= _LEVEL_COLUMNS_MAX:
        columns += [f"population_{n}" for n in range(ref.system.dim)]
        cols += list(pops.T)
    rows = np.column_stack(cols)
    summary = {
        "rate": rate,
        "final_population_deviation": float(dev[-1]),
        "max_population_deviation": float(dev.max()),
    }
    return {"columns": columns, "rows": rows, "summary": summary}


def _grid_ff_scenario(conf: dict) -> dict:
    p = conf["parameters"]
    rate, n_steps = conf["ff"]["rate"], conf["ff"]["n_steps"]
    ramp = GaussianWidthRamp(width_start=p["width_start"], width_stop=p["width_stop"], duration=p["duration"],
                             mass=p["mass"])
    extent = p["x_extent"]
    x = np.linspace(-extent / 2, extent / 2, p["x_points"], endpoint=False)
    grid_sys = GridSystem1D(x=x, mass=ramp.mass, r=lambda t: ramp.amplitude(x, t),
                            drdt=lambda t: ramp.amplitude_rate(x, t))
    T_ff = ramp.duration / rate
    rescale = TimeRescaling.uniform(rate, T_ff)
    psi = grid_sys.r(0.0).astype(complex)
    checks = np.linspace(0.0, T_ff, _FF_SEGMENTS + 1)
    l2 = [0.0]
    for i in range(_FF_SEGMENTS):
        steps = n_steps // _FF_SEGMENTS + (i < n_steps % _FF_SEGMENTS)    # the first segments take the rest
        psi = split_step_evolve(
            x, lambda tau, t0=checks[i]: ff_potential(grid_sys, rescale, t0 + tau),
            psi, checks[i + 1] - checks[i], steps, ramp.mass)
        rho_t = grid_sys.density(rescale.s(checks[i + 1]))
        l2.append(float(np.sqrt(np.sum((np.abs(psi) ** 2 - rho_t) ** 2) * grid_sys.dx)))
    columns = ["time", "density_l2"]
    rows = np.column_stack([checks, l2])
    summary = {"rate": rate, "final_density_l2": l2[-1], "max_density_l2": max(l2)}
    return {"columns": columns, "rows": rows, "summary": summary}


def _qsl_scenario(conf: dict) -> dict:
    L = np.empty(conf["grid_points"])

    def integrand(ref, start, H, E, V, kept, cd):
        """stddev of exact H_cd - the walk's variational H_cd in the tracked ground state."""
        times = ref.grid[start:start + len(H)]
        exact = frame_cd(E, V, stack_at(ref.system.dhamiltonian, times), times)
        L[start:start + len(H)] = stddev_in_state(exact - cd, kept[:, :, 0])

    ref = _Reference(conf, route="variational", on_chunk=integrand)
    report = qsl_from_integrand(L, ref.target, other=ref.walk.trajectory)
    columns = ["time", "angle", "bound", "observed", "margin"]
    rows = np.column_stack([ref.grid, report.angle, report.bound, report.observed, report.margin()])
    summary = {
        "min_margin": float(report.margin().min()),
        "holds": report.holds(),
        "vacuous_fraction": float(report.vacuous.mean()),
        "final_observed": float(report.observed[-1]),
        "final_bound": float(report.bound[-1]),
        "order": conf["order"],
    }
    return {"columns": columns, "rows": rows, "summary": summary}


def _invariant_scenario(conf: dict) -> dict:
    ref = _Reference(conf)
    grid, path = ref.grid, ref.path
    inv = DynamicalInvariant.from_modes(grid, path.vectors)
    H, dH = ref.system.hamiltonian, ref.system.dhamiltonian

    def driven(t):
        """H + H_cd at grid times t, H_cd from the path's own frames there."""
        i = np.searchsorted(grid, t)
        return H(t) + frame_cd(path.energies[i], path.vectors[i], stack_at(dH, t), t)

    res = invariant_residual(driven, inv)
    drift = inv.eigenvalue_drift()
    columns = ["time", "eigenvalue_drift", "von_neumann_residual"]
    rows = np.column_stack([grid, drift, res])
    summary = {
        "max_eigenvalue_drift": float(drift.max()),
        "max_von_neumann_residual": float(res.max()),
    }
    return {"columns": columns, "rows": rows, "summary": summary}


_RUNNERS = {
    **dict.fromkeys(("exact_cd", "variational", "algebraic", "krylov"), _driven_scenario),
    "trotter": _trotter_scenario, "ff": _ff_scenario, "qsl": _qsl_scenario, "invariant": _invariant_scenario,
}

def run_scenario(conf: dict, out_dir: Path) -> dict:
    """Run a validated config into out_dir; a NaN or infinity in the CSV
    rows is a NonFiniteError naming the column, raised before any write."""
    out_dir.mkdir(parents=True, exist_ok=True)
    result = _RUNNERS[conf["method"]](conf)
    rows = np.asarray(result["rows"], dtype=float)
    if not np.isfinite(rows).all():
        i, j = np.argwhere(~np.isfinite(rows))[0]
        raise NonFiniteError(f"CSV column {result['columns'][j]!r} is {rows[i, j]} at row {i}")
    write_csv(out_dir / conf["output"]["csv"], result["columns"], result["rows"])
    summary = {
        "tool": "shortcut-forge",
        "version": __version__,
        "config_hash": config_hash(conf),
        "scenario_hash": scenario_hash(conf),
        "system": conf["system"],
        "config": conf,
        **result["summary"],
    }
    write_summary(out_dir / conf["output"]["summary"], summary)
    return summary


def cmd_run(args) -> int:
    conf = load_config(args.config)
    out_dir = Path(args.out) if args.out else Path(args.config).with_suffix("")
    try:
        summary = run_scenario(conf, out_dir)
    except ShortcutForgeError as exc:
        print(f"numerical failure [{type(exc).__module__}.{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 3
    keys = [k for k in summary if k not in ("config", "tool", "version", "config_hash", "scenario_hash", "system")]
    print(f"run complete: {out_dir}")
    for k in sorted(keys):
        print(f"  {k} = {summary[k]}")
    return 0


def _load_run(d: Path):
    """The run's summary is the one JSON written by this tool; its config
    names the CSV."""
    summaries = []
    for path in sorted(d.glob("*.json")):
        try:
            data = json.loads(path.read_text())
        except ValueError:
            continue
        if isinstance(data, dict) and data.get("tool") == "shortcut-forge":
            summaries.append(data)
    if len(summaries) != 1:
        raise ConfigError(f"expected one shortcut-forge summary JSON in {d}, found {len(summaries)}")
    summary = summaries[0]
    csv_path = d / summary.get("config", {}).get("output", {}).get("csv", "timeseries.csv")
    if not csv_path.exists():
        raise ConfigError(f"no CSV {csv_path.name} in {d}")
    with open(csv_path) as fh:
        header = fh.readline().strip().split(",")
        lines = [line for line in fh if line.strip()]
    if not lines:
        raise ConfigError(f"CSV {csv_path} holds no data rows")
    try:
        data = np.loadtxt(lines, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise ConfigError(f"unreadable CSV {csv_path}: {exc}") from exc
    return summary, header, data


def _tolerance_for(column: str, tols: dict, default: float) -> float:
    for pattern, tol in tols.items():
        if pattern != "default" and fnmatch.fnmatch(column, pattern):
            return float(tol)
    return float(tols.get("default", default))


def cmd_compare(args) -> int:
    sum_a, head_a, data_a = _load_run(Path(args.run_a))
    sum_b, head_b, data_b = _load_run(Path(args.run_b))
    if sum_a.get("scenario_hash") != sum_b.get("scenario_hash"):
        print("mismatch: runs come from different scenarios (scenario_hash differs)", file=sys.stderr)
        return 2
    if head_a != head_b or data_a.shape != data_b.shape:
        print("mismatch: column schema differs between runs", file=sys.stderr)
        return 2
    tols = sum_a.get("config", {}).get("compare_tolerances", {})
    worst = 0
    print(f"comparing {args.run_a} vs {args.run_b}")
    for j, col in enumerate(head_a):
        a, b = data_a[:, j], data_b[:, j]
        # equal entries, equal infinities and NaN against NaN agree; a NaN
        # against a number leaves a NaN difference, which exceeds any tolerance
        same = (a == b) | (np.isnan(a) & np.isnan(b))
        diff = float(np.abs(np.subtract(a, b, out=np.zeros_like(a), where=~same)).max())
        tol = _tolerance_for(col, tols, args.tol_default)
        ok = diff <= tol
        worst = max(worst, int(not ok))
        print(f"  {col}: max |diff| = {_fmt(diff)} (tol {_fmt(tol)}) {'ok' if ok else 'EXCEEDS'}")
    return worst


def _set_by_path(conf: dict, dotted: str, value):
    *parents, leaf = dotted.split(".")
    node = conf
    for k in parents:
        node = node.get(k) if isinstance(node, dict) else None
    if not isinstance(node, dict) or leaf not in node:
        raise ConfigError(f"sweep parameter path {dotted!r} not found in config")
    old = node[leaf]
    if isinstance(old, str):
        value = str(value)
    elif isinstance(old, float) and _has_type(value, old):
        value = float(value)
    node[leaf] = value


def _thread_cap() -> int:
    """Parallelism cap for scenario sweeps, from SHORTCUT_FORGE_THREADS (default 1)."""
    raw = os.environ.get("SHORTCUT_FORGE_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        return 1
    return max(1, n)


def cmd_sweep(args) -> int:
    base = load_config(args.config)
    out_root = Path(args.out) if args.out else Path(args.config).with_suffix("")
    jobs = []
    for v in args.values.split(","):
        conf = copy.deepcopy(base)
        _set_by_path(conf, args.param, _sweep_value(v))
        jobs.append((validate_config(conf), str(out_root / f"{args.param.replace('.', '_')}={v}")))
    workers = min(_thread_cap(), len(jobs))
    failures = 0
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # here, so a plain run never loads multiprocessing
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for job, result in zip(jobs, pool.map(_sweep_one_safe, jobs)):
                failures += _report_sweep(job, result)
    else:
        for job in jobs:
            failures += _report_sweep(job, _sweep_one_safe(job))
    return 3 if failures else 0


def _sweep_value(s: str):
    try:
        return json.loads(s)
    except json.JSONDecodeError:
        return s


def _sweep_one_safe(payload):
    conf, out_dir = payload
    try:
        return run_scenario(conf, Path(out_dir))
    except ShortcutForgeError as exc:
        return f"{type(exc).__name__}: {exc}"


def _report_sweep(job, result) -> int:
    conf, out_dir = job
    if isinstance(result, str):
        print(f"  {out_dir}: FAILED ({result})", file=sys.stderr)
        return 1
    print(f"  {out_dir}: done")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="shortcut-forge",
                                     description="Shortcuts-to-adiabaticity scenario runner")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run one scenario config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None, help="output directory (default: config stem)")
    p_run.set_defaults(func=cmd_run)
    p_cmp = sub.add_parser("compare", help="diff two run artifact directories")
    p_cmp.add_argument("run_a")
    p_cmp.add_argument("run_b")
    p_cmp.add_argument("--tol-default", type=float, default=0.0)
    p_cmp.set_defaults(func=cmd_compare)
    p_swp = sub.add_parser("sweep", help="run a config across parameter values")
    p_swp.add_argument("config")
    p_swp.add_argument("--param", required=True, help="dotted config path, e.g. parameters.duration")
    p_swp.add_argument("--values", required=True, help="comma-separated values")
    p_swp.add_argument("--out", default=None)
    p_swp.set_defaults(func=cmd_sweep)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        print("internal error: stopped on an unexpected exception (traceback above)", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
