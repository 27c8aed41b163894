"""Reproducible scenario runner and data emitter.

Subcommands::

    shortcut-forge run <config.json> [--out DIR]
    shortcut-forge compare <run_a_dir> <run_b_dir> [--tol-default X]
    shortcut-forge sweep <config.json> --param <name> --values <v1,v2,...> [--out DIR]

Runs validate the config strictly (unknown keys rejected), write one CSV time
series and one JSON summary per scenario, and are byte-for-byte reproducible
for a fixed config, seed and version on one platform. Exit codes: 0 success,
1 compare mismatch, 2 config error, 3 numerical failure.
SHORTCUT_FORGE_THREADS caps sweep parallelism.
"""

from __future__ import annotations

import argparse
import fnmatch
import hashlib
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import config as cfg
from . import __version__
from .agp import krylov_cd, variational_cd, algebraic_cd, odd_commutator_support
from .digitized import TrotterPlan, digitization_error, trotter_baseline_error, trotter_step_unitaries
from .dynamics import evolve, step_unitary
from .errors import ConfigError, ShortcutForgeError
from .fastforward import TimeRescaling, ff_of_cd
from .gridff import GridSystem1D, ff_potential, phase_from_continuity, split_step_evolve
from .invariants import DynamicalInvariant, invariant_residual
from .models import GaussianWidthRamp, landau_zener, random_hermitian_ramp, tfim_chain
from .operators import gell_mann_basis, gram_matrix, pauli_basis
from .qsl import qsl_continuous, qsl_discrete
from .spectral import adiabatic_state, counterdiabatic_term, eigenpath

SYSTEMS = ("landau_zener", "tfim_chain", "random_hermitian", "grid_1d")
METHODS = ("exact_cd", "variational", "algebraic", "krylov", "trotter", "ff", "qsl", "invariant")

_SCHEMA = {
    "system": str,
    "method": str,
    "parameters": dict,
    "grid_points": int,
    "order": int,
    "hbar": float,
    "trotter": dict,
    "ff": dict,
    "compare_tolerances": dict,
    "output": dict,
}
_PARAM_KEYS = {
    "delta", "lambda_start", "lambda_stop", "duration", "schedule_shape",
    "n_sites", "coupling", "field", "dim", "seed",
    "width_start", "width_stop", "mass", "x_extent", "x_points",
}
_TROTTER_KEYS = {"M_list", "ordering", "sampling", "total_time"}
_FF_KEYS = {"rate", "n_steps"}
_OUTPUT_KEYS = {"csv", "summary"}


def load_config(path: str | Path) -> dict:
    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return validate_config(data)


def validate_config(data: dict) -> dict:
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(data) - set(_SCHEMA)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key in ("system", "method"):
        if key not in data:
            raise ConfigError(f"missing required key {key!r}")
    if data["system"] not in SYSTEMS:
        raise ConfigError(f"unknown system {data['system']!r}; choose from {SYSTEMS}")
    if data["method"] not in METHODS:
        raise ConfigError(f"unknown method {data['method']!r}; choose from {METHODS}")
    for key, typ in _SCHEMA.items():
        if key in data and not isinstance(data[key], typ) and not (typ is float and isinstance(data[key], int)):
            raise ConfigError(f"config key {key!r} must be {typ.__name__}")
    params = data.get("parameters", {})
    unknown = set(params) - _PARAM_KEYS
    if unknown:
        raise ConfigError(f"unknown parameter keys: {sorted(unknown)}")
    if data["system"] == "random_hermitian" and "seed" not in params:
        raise ConfigError("random_hermitian scenarios require an explicit seed")
    unknown = set(data.get("trotter", {})) - _TROTTER_KEYS
    if unknown:
        raise ConfigError(f"unknown trotter keys: {sorted(unknown)}")
    unknown = set(data.get("ff", {})) - _FF_KEYS
    if unknown:
        raise ConfigError(f"unknown ff keys: {sorted(unknown)}")
    unknown = set(data.get("output", {})) - _OUTPUT_KEYS
    if unknown:
        raise ConfigError(f"unknown output keys: {sorted(unknown)}")
    out = dict(data)
    out.setdefault("parameters", {})
    out.setdefault("grid_points", 1001)
    out.setdefault("order", 1)
    out.setdefault("hbar", 1.0)
    out.setdefault("trotter", {})
    out.setdefault("ff", {})
    out.setdefault("compare_tolerances", {})
    out.setdefault("output", {})
    return out


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(conf: dict) -> str:
    return hashlib.sha256(_canonical_json(conf).encode()).hexdigest()


def scenario_hash(conf: dict) -> str:
    """Hash of the scenario identity only (system, parameters, grid, hbar):
    runs of different methods on the same scenario stay comparable."""
    ident = {k: conf[k] for k in ("system", "parameters", "grid_points", "hbar")}
    return hashlib.sha256(_canonical_json(ident).encode()).hexdigest()


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def write_csv(path: Path, columns: list[str], rows: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_summary(path: Path, summary: dict) -> None:
    with open(path, "w") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _build_system(conf: dict):
    p = conf["parameters"]
    sys_name = conf["system"]
    if sys_name == "landau_zener":
        return landau_zener(
            delta=p.get("delta", 1.0),
            lam_start=p.get("lambda_start", -5.0),
            lam_stop=p.get("lambda_stop", 5.0),
            duration=p.get("duration", 1.0),
            shape=p.get("schedule_shape", "linear"),
        )
    if sys_name == "tfim_chain":
        n = p.get("n_sites", 4)
        if not 2 <= n <= 10:
            raise ConfigError("n_sites must be between 2 and 10")
        return tfim_chain(
            n_sites=n,
            coupling=p.get("coupling", 1.0),
            field=p.get("field", 1.0),
            duration=p.get("duration", 1.0),
            shape=p.get("schedule_shape", "smoothstep"),
        )
    if sys_name == "random_hermitian":
        return random_hermitian_ramp(
            dim=p.get("dim", 4),
            seed=p["seed"],
            duration=p.get("duration", 1.0),
            shape=p.get("schedule_shape", "smoothstep"),
        )
    raise ConfigError(f"system {sys_name!r} has no matrix model")


def _canonical_basis(dim: int):
    n = int(np.log2(dim))
    if 2**n == dim:
        return pauli_basis(n)
    return gell_mann_basis(dim)


def _cd_of_method(system, method: str, order: int, hbar: float):
    """Return cd(t) for the requested construction."""
    if method in ("exact_cd", "trotter", "ff", "invariant"):
        return lambda t: counterdiabatic_term(system.hamiltonian(t), system.dhamiltonian(t), hbar=hbar)
    if method == "variational":
        return lambda t: variational_cd(system.hamiltonian(t), system.dhamiltonian(t), order, hbar=hbar)
    if method == "krylov":
        return lambda t: krylov_cd(system.hamiltonian(t), system.dhamiltonian(t), k_max=2 * order + 1, hbar=hbar)
    if method == "algebraic":
        basis = _canonical_basis(system.dim)

        def cd(t):
            H, dH = system.hamiltonian(t), system.dhamiltonian(t)
            support = odd_commutator_support(H, dH, basis, max_order=order)
            if not support:
                return np.zeros_like(H)
            return algebraic_cd(H, dH, basis.subset(support), hbar=hbar)

        return cd
    raise ConfigError(f"method {method!r} does not define a counterdiabatic construction")


def _driven_scenario(conf: dict, out_dir: Path) -> dict:
    """CD-driving scenarios: evolve under H + H_cd and track the adiabatic target."""
    hbar = conf["hbar"]
    method = conf["method"]
    system = _build_system(conf)
    grid = np.linspace(0.0, system.duration, conf["grid_points"])
    path = eigenpath(system.hamiltonian, grid)
    c0 = np.zeros(system.dim)
    c0[0] = 1.0
    target = adiabatic_state(path, c0, hbar=hbar)
    cd_of_t = _cd_of_method(system, method, conf["order"], hbar)
    H_tot = lambda t: system.hamiltonian(t) + cd_of_t(t)
    traj = evolve(H_tot, path.vectors[0][:, 0], grid, hbar=hbar)
    fid = np.abs(np.einsum("ti,ti->t", target.trajectory.states.conj(), traj.states))
    columns = ["time", "fidelity"]
    cols = [grid, fid**2]
    if system.dim <= 8:
        pops = np.abs(np.einsum("tdn,td->tn", path.vectors.conj(), traj.states)) ** 2
        for n in range(system.dim):
            columns.append(f"population_{n}")
            cols.append(pops[:, n])
        basis = _canonical_basis(system.dim)
        cds = np.array([cd_of_t(t) for t in grid])
        coeff_rows = gram_matrix(basis.elements, cds).real.T
        for j, lab in enumerate(basis.labels):
            columns.append(f"cd_coeff_{lab.lower()}")
            cols.append(coeff_rows[:, j])
    rows = np.column_stack(cols)
    summary = {
        "final_fidelity": float(fid[-1] ** 2),
        "min_fidelity": float((fid**2).min()),
        "method": method,
        "order": conf["order"],
    }
    return {"columns": columns, "rows": rows, "summary": summary}


def _trotter_scenario(conf: dict, out_dir: Path) -> dict:
    hbar = conf["hbar"]
    tr = conf["trotter"]
    M_list = tr.get("M_list", [8, 16, 32, 64, 128, 256])
    ordering = tr.get("ordering", "h-then-cd")
    sampling = tr.get("sampling", "right")
    system = _build_system(conf)
    T = tr.get("total_time", system.duration)
    if conf["system"] == "random_hermitian":
        # conventional first-order baseline: constant non-commuting pair
        rng = np.random.default_rng(conf["parameters"]["seed"])
        psi0 = rng.standard_normal(system.dim) + 1j * rng.standard_normal(system.dim)
        psi0 /= np.linalg.norm(psi0)
        report = trotter_baseline_error(system.H0, system.H_terms[0], T, M_list, psi0,
                                        metric="state_error", hbar=hbar)
        columns = ["m", "state_error"]
        rows = np.column_stack([report.M_list.astype(float), report.values])
        summary = {
            "slope": report.slope,
            "slope_stderr": report.slope_stderr,
            "metric": report.metric,
            "fit_skipped": report.fit_skipped,
            "note": report.note,
        }
        return {"columns": columns, "rows": rows, "summary": summary}

    grid = np.linspace(0.0, T, conf["grid_points"])
    path = eigenpath(system.hamiltonian, grid)
    c0 = np.zeros(system.dim)
    c0[0] = 1.0
    target = adiabatic_state(path, c0, hbar=hbar).trajectory.final()
    cd_of_t = _cd_of_method(system, "exact_cd", conf["order"], hbar)
    psi0 = path.vectors[0][:, 0]
    report = digitization_error(system.hamiltonian, cd_of_t, T, M_list, target,
                                metric="infidelity", ordering=ordering, sampling=sampling,
                                psi0=psi0, hbar=hbar)
    H_tot = lambda t: system.hamiltonian(t) + cd_of_t(t)
    bounds, observed = [], []
    for M in report.M_list:
        plan = TrotterPlan(M=int(M), T=T, ordering=ordering, sampling=sampling)
        steps_dig = trotter_step_unitaries(system.hamiltonian, cd_of_t, plan, hbar=hbar)
        slice_grid = np.linspace(0.0, T, int(M) + 1)
        # each slice: 8 midpoint exponentials of H + H_cd
        exact_states, psi_dig = [psi0], psi0
        steps_exact = []
        for n in range(int(M)):
            sub = np.linspace(slice_grid[n], slice_grid[n + 1], 9)
            U = np.eye(system.dim, dtype=complex)
            for j in range(8):
                tm = 0.5 * (sub[j] + sub[j + 1])
                U = step_unitary(H_tot(tm), sub[j + 1] - sub[j], hbar=hbar) @ U
            steps_exact.append(U)
            exact_states.append(U @ exact_states[-1])
            psi_dig = steps_dig[n] @ psi_dig
        rep = qsl_discrete(steps_exact, steps_dig, np.array(exact_states), grid=slice_grid)
        bounds.append(rep.bound[-1])
        observed.append(abs(np.vdot(exact_states[-1], psi_dig)))
    columns = ["m", "infidelity", "qsl_bound", "observed_overlap"]
    rows = np.column_stack([report.M_list.astype(float), report.values, bounds, observed])
    summary = {
        "slope": report.slope,
        "slope_stderr": report.slope_stderr,
        "metric": report.metric,
        "fit_skipped": report.fit_skipped,
        "note": report.note,
        "qsl_certified": bool(all(o >= b - 1e-8 for o, b in zip(observed, bounds))),
    }
    return {"columns": columns, "rows": rows, "summary": summary}


def _ff_scenario(conf: dict, out_dir: Path) -> dict:
    hbar = conf["hbar"]
    rate = conf["ff"].get("rate", 2.0)
    if conf["system"] == "grid_1d":
        return _grid_ff_scenario(conf, rate)
    system = _build_system(conf)
    T_ref = system.duration
    T_ff = T_ref / rate
    rescale = TimeRescaling.uniform(rate, T_ff)
    grid_ref = np.linspace(0.0, T_ref, conf["grid_points"])
    path = eigenpath(system.hamiltonian, grid_ref)
    c0 = np.zeros(system.dim)
    c0[0] = 1.0
    target = adiabatic_state(path, c0, hbar=hbar)
    cd_of_s = _cd_of_method(system, "exact_cd", conf["order"], hbar)
    H_ff = lambda t: ff_of_cd(system.hamiltonian, cd_of_s, rescale, t)
    grid_ff = grid_ref / rate
    traj = evolve(H_ff, path.vectors[0][:, 0], grid_ff, hbar=hbar)
    # populations in the adiabatic basis at s(t) against the target's
    pops = np.abs(np.einsum("tdn,td->tn", path.vectors.conj(), traj.states)) ** 2
    pops_t = np.abs(np.einsum("tdn,td->tn", path.vectors.conj(), target.trajectory.states)) ** 2
    dev = np.abs(pops - pops_t).max(axis=1)
    columns = ["time", "population_deviation"]
    cols = [grid_ff, dev]
    if system.dim <= 8:
        for n in range(system.dim):
            columns.append(f"population_{n}")
            cols.append(pops[:, n])
    rows = np.column_stack(cols)
    summary = {
        "rate": rate,
        "final_population_deviation": float(dev[-1]),
        "max_population_deviation": float(dev.max()),
    }
    return {"columns": columns, "rows": rows, "summary": summary}


def _grid_ff_scenario(conf: dict, rate: float) -> dict:
    hbar = conf["hbar"]
    p = conf["parameters"]
    ramp = GaussianWidthRamp(
        width_start=p.get("width_start", 1.0),
        width_stop=p.get("width_stop", 2.0),
        duration=p.get("duration", 4.0),
        mass=p.get("mass", 1.0),
    )
    extent = p.get("x_extent", 40.0)
    npts = p.get("x_points", 1024)
    x = np.linspace(-extent / 2, extent / 2, npts, endpoint=False)
    grid_sys = GridSystem1D(x=x, mass=ramp.mass, r=lambda t: ramp.amplitude(x, t))
    theta = lambda t: phase_from_continuity(grid_sys, t, hbar=hbar)
    T_ff = ramp.duration / rate
    rescale = TimeRescaling.uniform(rate, T_ff)
    n_steps = conf["ff"].get("n_steps", 4000)
    psi = grid_sys.r(0.0).astype(complex)
    dx = grid_sys.dx
    n_check = 9
    checks = np.linspace(0.0, T_ff, n_check)
    l2 = [0.0]
    for i in range(n_check - 1):
        seg = checks[i + 1] - checks[i]
        psi = split_step_evolve(
            x, lambda tau, t0=checks[i]: ff_potential(grid_sys, theta, rescale, t0 + tau, hbar=hbar),
            psi, seg, max(n_steps // (n_check - 1), 1), ramp.mass, hbar=hbar)
        rho_t = grid_sys.density(rescale.s(checks[i + 1]))
        l2.append(float(np.sqrt(np.sum((np.abs(psi) ** 2 - rho_t) ** 2) * dx)))
    columns = ["time", "density_l2"]
    rows = np.column_stack([checks, l2])
    summary = {"rate": rate, "final_density_l2": l2[-1], "max_density_l2": max(l2)}
    return {"columns": columns, "rows": rows, "summary": summary}


def _qsl_scenario(conf: dict, out_dir: Path) -> dict:
    hbar = conf["hbar"]
    system = _build_system(conf)
    grid = np.linspace(0.0, system.duration, conf["grid_points"])
    path = eigenpath(system.hamiltonian, grid)
    c0 = np.zeros(system.dim)
    c0[0] = 1.0
    target = adiabatic_state(path, c0, hbar=hbar)
    cd_exact = _cd_of_method(system, "exact_cd", conf["order"], hbar)
    cd_approx = _cd_of_method(system, "variational", conf["order"], hbar)
    H1 = lambda t: system.hamiltonian(t) + cd_exact(t)
    H2 = lambda t: system.hamiltonian(t) + cd_approx(t)
    traj2 = evolve(H2, path.vectors[0][:, 0], grid, hbar=hbar)
    report = qsl_continuous(H1, H2, target.trajectory, other=traj2, hbar=hbar)
    columns = ["time", "angle", "bound", "observed", "margin"]
    rows = np.column_stack([grid, report.angle, report.bound, report.observed, report.margin()])
    summary = {
        "min_margin": float(report.margin().min()),
        "holds": report.holds(),
        "vacuous_fraction": float(report.vacuous.mean()),
        "final_observed": float(report.observed[-1]),
        "final_bound": float(report.bound[-1]),
        "order": conf["order"],
    }
    return {"columns": columns, "rows": rows, "summary": summary}


def _invariant_scenario(conf: dict, out_dir: Path) -> dict:
    hbar = conf["hbar"]
    system = _build_system(conf)
    grid = np.linspace(0.0, system.duration, conf["grid_points"])
    path = eigenpath(system.hamiltonian, grid)
    fbar = np.arange(system.dim, dtype=float)
    inv = DynamicalInvariant.from_modes(grid, path.vectors, fbar)
    tracked = DynamicalInvariant.from_operator(
        grid, lambda t: inv.operators[path.index_of(t)]
    )
    cd = _cd_of_method(system, "exact_cd", conf["order"], hbar)
    H_tot = lambda t: system.hamiltonian(t) + cd(t)
    res = invariant_residual(H_tot, inv, hbar=hbar)
    drift = np.abs(tracked.eigenvalues - tracked.eigenvalues[0]).max(axis=1)
    spread = max(np.abs(fbar).max(), 1e-300)
    columns = ["time", "eigenvalue_drift", "von_neumann_residual"]
    rows = np.column_stack([grid, drift / spread, res])
    summary = {
        "max_eigenvalue_drift": float(drift.max() / spread),
        "max_von_neumann_residual": float(res.max()),
    }
    return {"columns": columns, "rows": rows, "summary": summary}


_RUNNERS = {
    "exact_cd": _driven_scenario,
    "variational": _driven_scenario,
    "algebraic": _driven_scenario,
    "krylov": _driven_scenario,
    "trotter": _trotter_scenario,
    "ff": _ff_scenario,
    "qsl": _qsl_scenario,
    "invariant": _invariant_scenario,
}

_VALID_COMBOS = {
    "landau_zener": set(METHODS),
    "tfim_chain": {"exact_cd", "variational", "krylov", "qsl", "trotter", "invariant"},
    "random_hermitian": {"exact_cd", "variational", "algebraic", "krylov", "trotter", "qsl"},
    "grid_1d": {"ff"},
}


def run_scenario(conf: dict, out_dir: Path) -> dict:
    if conf["method"] not in _VALID_COMBOS[conf["system"]]:
        raise ConfigError(
            f"method {conf['method']!r} is not supported for system {conf['system']!r}"
        )
    out_dir.mkdir(parents=True, exist_ok=True)
    result = _RUNNERS[conf["method"]](conf, out_dir)
    csv_name = conf["output"].get("csv", "timeseries.csv")
    summary_name = conf["output"].get("summary", "summary.json")
    write_csv(out_dir / csv_name, result["columns"], result["rows"])
    summary = {
        "tool": "shortcut-forge",
        "version": __version__,
        "config_hash": config_hash(conf),
        "scenario_hash": scenario_hash(conf),
        "system": conf["system"],
        "config": conf,
        **result["summary"],
    }
    write_summary(out_dir / summary_name, summary)
    return summary


def cmd_run(args) -> int:
    try:
        conf = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(args.out) if args.out else Path(args.config).with_suffix("")
    try:
        summary = run_scenario(conf, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
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
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return summary, header, data


def _tolerance_for(column: str, tols: dict, default: float) -> float:
    for pattern, tol in tols.items():
        if pattern != "default" and fnmatch.fnmatch(column, pattern):
            return float(tol)
    return float(tols.get("default", default))


def cmd_compare(args) -> int:
    try:
        sum_a, head_a, data_a = _load_run(Path(args.run_a))
        sum_b, head_b, data_b = _load_run(Path(args.run_b))
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
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
        diff = float(np.abs(data_a[:, j] - data_b[:, j]).max())
        tol = _tolerance_for(col, tols, args.tol_default)
        status = "ok" if diff <= tol else "EXCEEDS"
        if diff > tol:
            worst = 1
        print(f"  {col}: max |diff| = {_fmt(diff)} (tol {_fmt(tol)}) {status}")
    return worst


def _sweep_one(payload):
    conf, out_dir = payload
    return run_scenario(conf, Path(out_dir))


def _set_by_path(conf: dict, dotted: str, value):
    keys = dotted.split(".")
    node = conf
    for k in keys[:-1]:
        if k not in node or not isinstance(node[k], dict):
            raise ConfigError(f"sweep parameter path {dotted!r} not found in config")
        node = node[k]
    leaf = keys[-1]
    if leaf not in node:
        raise ConfigError(f"sweep parameter path {dotted!r} not found in config")
    old = node[leaf]
    node[leaf] = type(old)(value) if not isinstance(old, str) else str(value)


def cmd_sweep(args) -> int:
    try:
        base = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    values = args.values.split(",")
    out_root = Path(args.out) if args.out else Path(args.config).with_suffix("")
    jobs = []
    try:
        for v in values:
            conf = json.loads(json.dumps(base))
            _set_by_path(conf, args.param, json.loads(v) if _is_number(v) else v)
            conf = validate_config(conf)
            jobs.append((conf, str(out_root / f"{args.param.replace('.', '_')}={v}")))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    workers = min(cfg.thread_cap(), len(jobs))
    failures = 0
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for job, result in zip(jobs, pool.map(_sweep_one_safe, jobs)):
                failures += _report_sweep(job, result)
    else:
        for job in jobs:
            failures += _report_sweep(job, _sweep_one_safe(job))
    return 3 if failures else 0


def _is_number(s: str) -> bool:
    try:
        json.loads(s)
        return True
    except json.JSONDecodeError:
        return False


def _sweep_one_safe(payload):
    try:
        return _sweep_one(payload)
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
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
