"""Benchmark of the shortcut-forge scenario runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --probe [--seed N]

A closed loop from this one process: the workload's scenarios run one at a
time, each in its own child (``perfbench/child.py``, the equivalent of
``shortcut-forge run <config> --out <dir>`` with ``PYTHONPATH=src`` and BLAS
pinned to one thread). A pass runs every scenario once; passes repeat until
``--seconds`` is used up (at least two, so repeat outputs can be compared).
Every run's summary goes through a physics gate. Reference children started
around each child time the machine's speed, and the end-to-end times are
reported in reference-speed seconds (see ``speed()``). ``--trace 1`` alternates
untraced and traced passes and reports per-layer numbers instead of the
end-to-end ones. ``--probe`` runs every advertised (system, method) pair once
at its defaults and records the exit codes in ``known_failures.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. README.md names every
workload and metric.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"
RUNS = BENCH / "_runs"
KNOWN_FAILURES = BENCH / "known_failures.json"

#: the plain single-threaded baseline: BLAS on one thread, no sweep workers
CHILD_ENV = {
    "PYTHONPATH": str(SRC),
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "SHORTCUT_FORGE_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

# Physics gates. Each is a property of the exact answer, not a fit to this
# commit's output.
EXACT_INFIDELITY = 1e-8        # a route that spans the exact CD term
PAIR_AGREEMENT = 1e-8          # Krylov(2K+1) and variational(K) share one optimum
TROTTER_SLOPE = (-2.1, -1.9)   # infidelity of the digitized product ~ M^-2
FF_POPDEV = 1e-8               # fast-forward reproduces adiabatic populations
DIGITS_CAP = 15.0

#: median start-up time of the reference child (child.py reference) on the
#: machine of the baseline in README.md; see speed() for its use
REF_IMPORT_S = 0.55

MIN_PASSES = 2
N_SETUP_PROBES = 3
CHILD_DEADLINE_S = 150.0


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def digits(err: float) -> float:
    """-log10 of an error, capped at DIGITS_CAP (an error of 0 reads as the cap)."""
    return DIGITS_CAP if err <= 0 else min(DIGITS_CAP, -math.log10(err))


# ---------------------------------------------------------------------------
# Workloads


@dataclass
class Scenario:
    name: str
    config: dict
    #: the route spans the exact CD term, so final fidelity must reach 1 - 1e-8
    exact_target: bool = False


@dataclass
class Workload:
    name: str
    why: str
    build: object                     # seed -> list[Scenario]
    #: scenario pairs whose final fidelities must agree within PAIR_AGREEMENT
    agree: list = field(default_factory=list)


_LZ_METHODS = ("exact_cd", "variational", "algebraic", "krylov", "trotter", "ff", "qsl", "invariant")


def _lz_methods(seed: int) -> list[Scenario]:
    # the seed draws the gap parameter; every other key stays at its CLI default
    delta = random.Random(seed).uniform(0.9, 1.1)
    return [
        Scenario(f"lz_{m}",
                 {"system": "landau_zener", "method": m, "parameters": {"delta": delta, "seed": seed}},
                 exact_target=m in ("exact_cd", "variational", "algebraic", "krylov"))
        for m in _LZ_METHODS
    ]


def _dense_exact(seed: int) -> list[Scenario]:
    return [
        Scenario("rh64_exact_cd", {"system": "random_hermitian", "method": "exact_cd",
                                   "parameters": {"dim": 64, "seed": seed}}, exact_target=True),
        Scenario("rh128_exact_cd", {"system": "random_hermitian", "method": "exact_cd", "grid_points": 401,
                                    "parameters": {"dim": 128, "seed": seed}}, exact_target=True),
    ]


def _approx_cd(seed: int) -> list[Scenario]:
    def rh(dim):
        return {"dim": dim, "seed": seed, "schedule_shape": "linear"}

    return [
        # order 1 already supports every Pauli string for a generic pair, so the
        # algebraic route is exact here
        Scenario("rh8_algebraic", {"system": "random_hermitian", "method": "algebraic", "order": 1,
                                   "grid_points": 201, "parameters": rh(8)}, exact_target=True),
        Scenario("rh16_krylov", {"system": "random_hermitian", "method": "krylov", "order": 6,
                                 "parameters": rh(16)}),
        Scenario("rh16_variational", {"system": "random_hermitian", "method": "variational", "order": 6,
                                      "parameters": rh(16)}),
    ]


WORKLOADS = {
    w.name: w for w in [
        Workload("lz_methods", "D=2 Landau-Zener through all 8 methods: start-up, import and per-call "
                 "Python overhead dominate; a large-D kernel change must cost nothing here", _lz_methods),
        Workload("dense_exact", "random Hermitian exact CD at D=64 and D=128: LAPACK eigh is most of the "
                 "compute and the eigenpath arrays set peak memory; agp and operators are never called",
                 _dense_exact),
        Workload("approx_cd", "random Hermitian algebraic (D=8) and Krylov/variational (D=16) CD: "
                 "Python-level operator algebra dominates and eigh is under 1%", _approx_cd,
                 agree=[("rh16_krylov", "rh16_variational")]),
    ]
}


def gate(scn: Scenario, summary: dict) -> list[str]:
    """Physics gate of one run; returns the reasons it failed."""
    bad = []
    method = scn.config["method"]
    if scn.exact_target and not summary["final_fidelity"] >= 1 - EXACT_INFIDELITY:
        bad.append(f"final_fidelity {summary['final_fidelity']!r} < 1 - {EXACT_INFIDELITY}")
    if method == "trotter":
        lo, hi = TROTTER_SLOPE
        if summary["slope"] is None or not lo <= summary["slope"] <= hi:
            bad.append(f"trotter slope {summary['slope']!r} outside [{lo}, {hi}]")
        if not summary["qsl_certified"]:
            bad.append("digitized overlaps break the QSL certificate")
    if method == "qsl" and not summary["holds"]:
        bad.append("QSL bound does not hold")
    if method == "ff" and not summary["max_population_deviation"] <= FF_POPDEV:
        bad.append(f"max_population_deviation {summary['max_population_deviation']!r} > {FF_POPDEV}")
    return bad


# ---------------------------------------------------------------------------
# Children


@dataclass
class Child:
    rc: int
    wall_s: float
    setup_s: float | None
    rss_mb: float
    record: dict


def spawn(args: list[str], log: Path, record: Path) -> Child:
    """Run child.py to completion; time it from spawn to exit on CLOCK_MONOTONIC."""
    env = dict(os.environ, **CHILD_ENV)
    with open(log, "w") as fh:
        t0 = _now()
        proc = subprocess.Popen([sys.executable, str(BENCH / "child.py"), args[0], str(record), *args[1:]],
                                env=env, cwd=ROOT, stdout=fh, stderr=subprocess.STDOUT)
        killer = threading.Timer(CHILD_DEADLINE_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        t1 = _now()
    proc.returncode = os.waitstatus_to_exitcode(status)
    rec = json.loads(record.read_text()) if record.exists() else {}
    setup = rec["imported_at"] - t0 if "imported_at" in rec else None
    return Child(rc=proc.returncode, wall_s=t1 - t0, setup_s=setup, rss_mb=usage.ru_maxrss / 1024.0, record=rec)


@dataclass
class Run:
    scenario: Scenario
    child: Child
    summary: dict | None
    digest: str | None
    csv_bytes: int
    problems: list
    #: index of the reference child started just before this child
    ref: int = 0
    #: reference-speed factor of the child, see speed()
    speed: float = 1.0


def run_scenario(scn: Scenario, config_path: Path, out: Path, trace: bool) -> Run:
    child = spawn(["run", str(config_path), str(out), "1" if trace else "0"],
                  out.with_suffix(".log"), out.with_suffix(".record.json"))
    problems = []
    summary = digest = None
    csv_bytes = 0
    if child.rc != 0:
        problems.append(f"exit code {child.rc}")
    else:
        conf = scn.config.get("output", {})
        csv = out / conf.get("csv", "timeseries.csv")
        summ = out / conf.get("summary", "summary.json")
        raw = summ.read_bytes()
        summary = json.loads(raw)
        digest = hashlib.sha256(csv.read_bytes() + b"\0" + raw).hexdigest()
        csv_bytes = csv.stat().st_size
        problems += gate(scn, summary)
    return Run(scn, child, summary, digest, csv_bytes, problems)


# ---------------------------------------------------------------------------
# Metrics


def _pass_total(passes: list[list[Run]], value) -> float:
    """Sum over the scenarios of a pass of each scenario's median over passes."""
    return sum(median([value(p[i]) for p in passes]) for i in range(len(passes[0])))


def speed(before: float, after: float) -> float:
    """Factor that turns a child's measured times into reference-speed seconds.

    A shared machine's speed can drift by tens of percent within a minute; a
    child and the reference children started just before and just after it
    are slowed alike. A reference child imports a frozen list of
    third-party modules and does no work of the package, so a change to the
    package cannot move it. ``before`` and ``after`` are their start-up times.
    """
    return REF_IMPORT_S / (0.5 * (before + after))


def end_to_end(passes: list[list[Run]], setup_samples: list[tuple[float, float]], scaled: bool = True) -> dict:
    """End-to-end metrics. ``setup_samples`` holds (setup time, speed) pairs;
    with ``scaled`` every time is multiplied by its child's speed factor."""
    runs = [r for p in passes for r in p]
    exact = [r.summary["final_fidelity"] for r in runs if r.scenario.exact_target and r.summary]

    def k(f):
        return f if scaled else 1.0

    return {
        "wall_s": (_pass_total(passes, lambda r: k(r.speed) * r.child.wall_s), "s"),
        "setup_s": (median([k(f) * t for t, f in setup_samples]), "s"),
        "compute_s": (_pass_total(passes, lambda r: k(r.speed) * r.child.record["compute_s"]), "s"),
        "peak_rss_mb": (max(r.child.rss_mb for r in runs), "MB"),
        "fidelity_digits_min": (min(digits(1.0 - f) for f in exact), "digits"),
    }


def printed_only(passes: list[list[Run]], attempted: int, failed: int) -> dict:
    """Metrics printed with the result but kept out of the JSON metrics:
    fail_share is 0 when the program is correct, and the others exist for
    one workload only."""
    out = {"fail_share": (failed / attempted, "ratio")}
    first = {r.scenario.name: r.summary for r in passes[0] if r.summary}
    if "lz_ff" in first:
        out["ff_popdev_digits"] = (digits(first["lz_ff"]["max_population_deviation"]), "digits")
    if "lz_invariant" in first:
        out["invariant_residual_digits"] = (digits(first["lz_invariant"]["max_von_neumann_residual"]), "digits")
    if "rh16_krylov" in first and "rh16_variational" in first:
        fk, fv = first["rh16_krylov"]["final_fidelity"], first["rh16_variational"]["final_fidelity"]
        out["approx_fidelity_digits"] = (digits(1.0 - fk), "digits")
        out["krylov_variational_agreement_digits"] = (digits(abs(fk - fv)), "digits")
    return out


def merge_traces(runs: list[Run]) -> dict:
    merged: dict[str, dict] = {}
    for r in runs:
        for name, st in r.child.record.get("trace", {}).items():
            m = merged.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "samples": []})
            for key, val in st.items():
                m[key] = m.get(key, 0) + val if key != "samples" else m["samples"] + val
    return merged


def per_layer(runs: list[Run]) -> dict:
    """Per-layer numbers of one traced pass."""
    t = merge_traces(runs)
    grid_points = sum(r.scenario.config.get("grid_points", 1001) for r in runs)

    def g(name, key="calls"):
        return t.get(name, {}).get(key, 0)

    def pct(name, q):
        s = t.get(name, {}).get("samples", [])
        return statistics.quantiles(s, n=100)[q - 1] * 1e6 if len(s) >= 1000 else 0.0

    cd_calls = sum(g(n) for n in ("spectral.counterdiabatic_term", "agp.variational_cd",
                                  "agp.krylov_cd", "agp.algebraic_cd"))
    m = {
        "numpy.eigh.calls": (g("numpy.eigh"), "count"),
        "numpy.eigh.s": (g("numpy.eigh", "total_s"), "s"),
        "eigh_per_grid_point": (g("numpy.eigh") / grid_points, "ratio"),
        "spectral.eigenpath.calls": (g("spectral.eigenpath"), "count"),
        "spectral.eigenpath.self_s": (g("spectral.eigenpath", "self_s"), "s"),
        "spectral.eigenpath.extra_eigh": (g("spectral.eigenpath", "eigh") - g("spectral.eigenpath", "grid_points"),
                                          "count"),
        "spectral.counterdiabatic_term.calls": (g("spectral.counterdiabatic_term"), "count"),
        "spectral.counterdiabatic_term.self_s": (g("spectral.counterdiabatic_term", "self_s"), "s"),
        "spectral.counterdiabatic_term.p50_us": (pct("spectral.counterdiabatic_term", 50), "us"),
        "spectral.counterdiabatic_term.p99_us": (pct("spectral.counterdiabatic_term", 99), "us"),
        "spectral.adiabatic_state.self_s": (g("spectral.adiabatic_state", "self_s"), "s"),
        "dynamics.evolve.calls": (g("dynamics.evolve"), "count"),
        "dynamics.evolve.steps": (g("dynamics.evolve", "steps"), "count"),
        "dynamics.evolve.self_s": (g("dynamics.evolve", "self_s"), "s"),
        "dynamics.step_unitary.calls": (g("dynamics.step_unitary"), "count"),
        "dynamics.step_unitary.self_s": (g("dynamics.step_unitary", "self_s"), "s"),
        "operators.frobenius_inner.calls": (g("operators.frobenius_inner"), "count"),
        "operators.commutator.calls": (g("operators.commutator"), "count"),
    }
    for fn in ("algebraic_system", "odd_commutator_support", "krylov_chain", "krylov_cd",
               "variational_cd", "solve_cd", "assemble_cd"):
        m[f"agp.{fn}.calls"] = (g(f"agp.{fn}"), "count")
        m[f"agp.{fn}.self_s"] = (g(f"agp.{fn}", "self_s"), "s")
    m["agp.solve_cd.rank_deficient"] = (g("agp.solve_cd", "rank_deficient"), "count")
    m["models.hamiltonian.calls"] = (g("models.DrivenSystem.hamiltonian"), "count")
    m["models.dhamiltonian.calls"] = (g("models.DrivenSystem.dhamiltonian"), "count")
    m["cd_calls_per_grid_point"] = (cd_calls / grid_points, "ratio")
    for name in ("digitized.trotter_step_unitaries", "digitized.trotter_cd_evolve",
                 "digitized.digitization_error", "qsl.qsl_discrete", "qsl.qsl_continuous",
                 "fastforward.ff_of_cd"):
        m[f"{name}.calls"] = (g(name), "count")
        m[f"{name}.self_s"] = (g(name, "self_s"), "s")
    m["invariants.invariant_residual.self_s"] = (g("invariants.invariant_residual", "self_s"), "s")
    m["invariants.DynamicalInvariant.from_modes.self_s"] = (
        g("invariants.DynamicalInvariant.from_modes", "self_s"), "s")
    m["cli.run_scenario.self_s"] = (g("cli.run_scenario", "self_s"), "s")
    m["cli.write.self_s"] = (g("cli.write_csv", "self_s") + g("cli.write_summary", "self_s"), "s")
    m["cli.csv_bytes"] = (sum(r.csv_bytes for r in runs), "bytes")
    return m


# ---------------------------------------------------------------------------
# Environment


def environment(args) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = res.stdout.strip() or None
    src = hashlib.sha256()
    for f in sorted((SRC / "shortcut_forge").rglob("*.py")):
        src.update(f.relative_to(SRC).as_posix().encode() + b"\0" + f.read_bytes())
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "commit": commit, "source_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"), "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(CHILD_ENV["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# Driver


def run_workload(args) -> int:
    wl = WORKLOADS[args.workload]
    scenarios = wl.build(args.seed)
    work = RUNS / f"{wl.name}-s{args.seed}-t{args.trace}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    configs = {}
    for scn in scenarios:
        configs[scn.name] = work / f"{scn.name}.json"
        configs[scn.name].write_text(json.dumps(scn.config, sort_keys=True))
    try:
        return _measure(args, wl, scenarios, configs, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(args, wl: Workload, scenarios, configs, work: Path) -> int:
    # untimed warm-up: byte-compiles the package and fills the page cache
    spawn(["import"], work / "warmup.log", work / "warmup.record.json")
    # every child is bracketed by reference children: refs[j] before it and
    # refs[j + 1] after it
    refs: list[float] = []

    def reference() -> int:
        c = spawn(["reference"], work / "reference.log", work / "reference.record.json")
        if c.rc != 0 or c.setup_s is None:
            raise RuntimeError(f"reference child failed: {(work / 'reference.log').read_text()}")
        refs.append(c.setup_s)
        return len(refs) - 1

    start = _now()
    probes = []
    for i in range(N_SETUP_PROBES):
        j = reference()
        c = spawn(["import"], work / f"setup{i}.log", work / f"setup{i}.record.json")
        if c.rc == 0 and c.setup_s is not None:
            probes.append((c.setup_s, j))
    passes: list[tuple[bool, list[Run]]] = []
    durations = []
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        t0 = _now()
        runs = []
        for scn in scenarios:
            out = work / f"p{len(passes)}" / scn.name
            out.parent.mkdir(exist_ok=True)
            j = reference()
            runs.append(run_scenario(scn, configs[scn.name], out, traced))
            runs[-1].ref = j
        shutil.rmtree(work / f"p{len(passes)}", ignore_errors=True)
        passes.append((traced, runs))
        durations.append(_now() - t0)
        if any(r.child.rc != 0 for r in runs):
            break
        if len(passes) >= MIN_PASSES and _now() - start + median(durations) > args.seconds:
            break

    reference()
    for _, runs in passes:
        for r in runs:
            r.speed = speed(refs[r.ref], refs[r.ref + 1])
    setup_samples = [(t, speed(refs[j], refs[j + 1])) for t, j in probes]

    # correctness: gates, agreement of paired routes, identical repeat outputs
    first = {r.scenario.name: r for r in passes[0][1]}
    for a, b in wl.agree:
        for _, runs in passes:
            by = {r.scenario.name: r for r in runs}
            if by[a].summary and by[b].summary:
                diff = abs(by[a].summary["final_fidelity"] - by[b].summary["final_fidelity"])
                if not diff <= PAIR_AGREEMENT:
                    by[b].problems.append(f"final fidelity differs from {a} by {diff:.3e}")
    for _, runs in passes[1:]:
        for r in runs:
            if r.digest is not None and r.digest != first[r.scenario.name].digest:
                r.problems.append("outputs differ from the first pass")
    all_runs = [r for _, runs in passes for r in runs]
    setup_samples += [(r.child.setup_s, r.speed) for r in all_runs if r.child.setup_s is not None]
    attempted = len(all_runs)
    failed = sum(1 for r in all_runs if r.problems)

    plain = [runs for traced, runs in passes if not traced]
    traced_passes = [runs for traced, runs in passes if traced]
    report = {}
    if not failed:
        if args.trace:
            layers = [per_layer(p) for p in traced_passes]
            report = {k: (median([lay[k][0] for lay in layers]), unit) for k, (_, unit) in layers[0].items()}
            compute = lambda r: r.speed * r.child.record["compute_s"]  # noqa: E731
            report["trace_overhead_frac"] = (
                _pass_total(traced_passes, compute) / _pass_total(plain, compute) - 1.0, "ratio")
        else:
            report = end_to_end(plain, setup_samples)

    env = environment(args)
    extra = printed_only([p for _, p in passes], attempted, failed)
    extra["reference_import_s"] = (median(refs), "s")
    if report and not args.trace:
        raw = end_to_end(plain, setup_samples, scaled=False)
        extra.update({f"raw_{k}": raw[k] for k in ("wall_s", "setup_s", "compute_s")})
    _print_report(wl, passes, report, extra, env)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report.items()},
    }
    RUNS.mkdir(exist_ok=True)
    (RUNS / f"{wl.name}-s{args.seed}-t{args.trace}.json").write_text(json.dumps(
        {"environment": env, "result": result, "printed": extra, "reference_samples": refs,
         "passes": [
            {"traced": traced, "runs": [_run_record(r) for r in runs]} for traced, runs in passes]},
        indent=1))
    print(json.dumps(result))
    return 0


def _run_record(r: Run) -> dict:
    rec = {"scenario": r.scenario.name, "rc": r.child.rc, "wall_s": r.child.wall_s, "setup_s": r.child.setup_s,
           "compute_s": r.child.record.get("compute_s"), "rss_mb": r.child.rss_mb, "problems": r.problems,
           "digest": r.digest, "speed": r.speed}
    if r.summary:
        rec["summary"] = {k: v for k, v in r.summary.items() if k != "config"}
    return rec


def _print_report(wl: Workload, passes, report: dict, extra: dict, env: dict) -> None:
    n_runs = sum(len(runs) for _, runs in passes)
    print(f"workload {wl.name}: {len(passes)} passes, {n_runs} runs, seed {env['seed']}")
    print(f"  why: {wl.why}")
    print(f"  {'scenario':<20} {'pass':>4} {'trace':>5} {'rc':>3} {'wall_s':>8} {'compute_s':>9} "
          f"{'setup_s':>8} {'rss_mb':>7}  problems")
    for i, (traced, runs) in enumerate(passes):
        for r in runs:
            c = r.child
            print(f"  {r.scenario.name:<20} {i:>4} {int(traced):>5} {c.rc:>3} {c.wall_s:>8.3f} "
                  f"{c.record.get('compute_s', float('nan')):>9.3f} "
                  f"{c.setup_s if c.setup_s is not None else float('nan'):>8.3f} {c.rss_mb:>7.1f}  "
                  f"{'; '.join(r.problems) or '-'}")
    for name, (value, unit) in {**report, **extra}.items():
        print(f"{name} = {value!r} {unit}")
    print("environment " + json.dumps(env, sort_keys=True))


# ---------------------------------------------------------------------------
# Known-failure probe


def probe(seed: int, work: Path) -> list[dict]:
    """Run every advertised (system, method) pair once at its defaults."""
    sys.path.insert(0, str(SRC))
    from shortcut_forge import cli

    out = []
    for system in cli.SYSTEMS:
        for method in cli.METHODS:
            if method not in cli._VALID_COMBOS[system]:
                continue
            conf = {"system": system, "method": method}
            if system == "random_hermitian":
                conf["parameters"] = {"seed": seed}
            name = f"{system}-{method}"
            path = work / f"{name}.json"
            path.write_text(json.dumps(conf))
            child = spawn(["run", str(path), str(work / name), "0"], work / f"{name}.log",
                          work / f"{name}.record.json")
            log = (work / f"{name}.log").read_text().strip().splitlines()
            out.append({"system": system, "method": method, "exit_code": child.rc,
                        "error": _error_class(log[-1]) if child.rc else None})
    return out


def _error_class(line: str) -> str:
    """The exception class named by the CLI's failure line or a traceback's last line."""
    if line.startswith("numerical failure ["):
        return line.split("[", 1)[1].split("]", 1)[0].rsplit(".", 1)[-1]
    if line.startswith("config error"):
        return "ConfigError"
    return line.split(":", 1)[0]


def run_probe(args) -> int:
    work = RUNS / f"probe-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        pairs = probe(args.seed, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for p in pairs:
        print(f"{p['system']:<17} {p['method']:<12} exit {p['exit_code']}  {p['error'] or ''}")
    KNOWN_FAILURES.write_text(json.dumps(
        {"seed": args.seed, "known_failures": [p for p in pairs if p["exit_code"] != 0],
         "passing": [f"{p['system']}/{p['method']}" for p in pairs if p["exit_code"] == 0]},
        indent=1) + "\n")
    print(f"wrote {KNOWN_FAILURES.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help="record which advertised pairs fail at defaults")
    args = ap.parse_args(argv)
    if not (SRC / "shortcut_forge" / "cli.py").is_file():
        print(f"error: no shortcut_forge sources under {SRC}", file=sys.stderr)
        return 2
    if args.probe:
        return run_probe(args)
    if args.workload is None:
        ap.error("--workload is required unless --probe is given")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
