import ast
import concurrent.futures
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from shortcut_forge import NonFiniteError, cd_walk, cli, counterdiabatic_term, eigenpath
from shortcut_forge.agp import algebraic_cd, odd_commutator_support, variational_cd
from shortcut_forge import digitized
from shortcut_forge.digitized import trotter_cd_evolve
from shortcut_forge.dynamics import fidelity, sample
from shortcut_forge.models import landau_zener, random_hermitian_ramp, tfim_chain
from shortcut_forge.operators import gram_matrix, pauli_basis
from shortcut_forge.qsl import qsl_continuous
from shortcut_forge.schedule import SHAPES

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("method", ["variational", "krylov", "algebraic", "qsl"])
def test_smoothstep_endpoints_run(tmp_path, method):
    """The smoothstep ramp has dH = 0 at both ends, where every approximate
    counterdiabatic route must give a zero term instead of failing."""
    conf = {"system": "random_hermitian", "method": method, "grid_points": 21,
            "parameters": {"dim": 4, "seed": 0, "schedule_shape": "smoothstep"}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(conf))
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "summary.json").exists()


def _lz_run(tmp_path, name, delta, csv="timeseries.csv"):
    conf = {"system": "landau_zener", "method": "exact_cd", "grid_points": 21,
            "parameters": {"delta": delta}, "output": {"csv": csv}}
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(conf))
    out = tmp_path / name
    assert cli.main(["run", str(path), "--out", str(out)]) == 0
    return out


def test_compare_reads_the_summary_among_other_json(tmp_path, capsys):
    """A stray JSON that sorts ahead of summary.json must not stand in for it."""
    run_a = _lz_run(tmp_path, "a", 1.0)
    run_b = _lz_run(tmp_path, "b", 1.1)
    for d in (run_a, run_b):
        (d / "a.json").write_text('{"note": "not a summary"}')
    assert cli.main(["compare", str(run_a), str(run_b)]) == 2
    assert "scenario_hash differs" in capsys.readouterr().err


def test_compare_reads_the_configured_csv(tmp_path):
    run_a = _lz_run(tmp_path, "a", 1.0, csv="series.csv")
    run_b = _lz_run(tmp_path, "b", 1.0, csv="series.csv")
    (run_b / "a.csv").write_text("time\n1\n")
    assert cli.main(["compare", str(run_a), str(run_b)]) == 0
    (run_b / "copy.json").write_text((run_b / "summary.json").read_text())
    assert cli.main(["compare", str(run_a), str(run_b)]) == 2


def _set_csv_entry(run, column, row, value):
    path = run / "timeseries.csv"
    header, *lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    cells[header.split(",").index(column)] = value
    lines[row] = ",".join(cells)
    path.write_text("\n".join([header, *lines]) + "\n")


def test_compare_exits_1_when_a_nan_exceeds(tmp_path, capsys):
    """One comparison sets both the printed status and the exit code: NaN or
    an infinity at the same place in both runs agrees, and a NaN against a
    number exceeds."""
    run_a = _lz_run(tmp_path, "a", 1.0)
    run_b = _lz_run(tmp_path, "b", 1.0)
    _set_csv_entry(run_a, "fidelity", 5, "nan")
    _set_csv_entry(run_a, "fidelity", 6, "inf")
    _set_csv_entry(run_b, "fidelity", 6, "inf")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["compare", str(run_a), str(run_a)]) == 0
    assert "EXCEEDS" not in capsys.readouterr().out
    assert cli.main(["compare", str(run_a), str(run_b)]) == 1
    assert "fidelity: max |diff| = nan (tol 0) EXCEEDS" in capsys.readouterr().out
    assert cli.main(["compare", str(run_b), str(run_a)]) == 1


def test_compare_rejects_a_csv_without_data_rows(tmp_path, capsys):
    """A header-only CSV is a config error naming the file, not a traceback."""
    run_a = _lz_run(tmp_path, "a", 1.0)
    run_b = _lz_run(tmp_path, "b", 1.0)
    path = run_b / "timeseries.csv"
    path.write_text(path.read_text().splitlines()[0] + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["compare", str(run_a), str(run_b)]) == 2
    assert f"CSV {path} holds no data rows" in capsys.readouterr().err


_IMPORT_BUDGET_RUNS = [
    {"system": "landau_zener", "method": m, "grid_points": 21} for m in ("exact_cd", "qsl", "ff")
] + [{"system": "landau_zener", "method": "trotter"}] + [{"system": "random_hermitian", "method": "algebraic", "grid_points": 21,
      "parameters": {"dim": 4, "seed": 0}}]

#: packages a plain run must not load: scipy costs more start-up than numpy and
#: the whole package together, and only a parallel sweep needs the process pool
_IMPORT_BUDGET_BANNED = ["scipy", "concurrent.futures", "multiprocessing"]

_IMPORT_BUDGET_SCRIPT = """
import json, sys
from shortcut_forge import cli
for i, conf in enumerate(json.loads(sys.argv[1])):
    with open(f"c{i}.json", "w") as fh:
        json.dump(conf, fh)
    assert cli.main(["run", f"c{i}.json", "--out", f"out{i}"]) == 0
banned = json.loads(sys.argv[2])
print(json.dumps(sorted(m for m in sys.modules if any(m == b or m.startswith(b + ".") for b in banned))))
"""


def test_write_csv_formats_each_value_as_the_per_value_formatter(tmp_path):
    """One line format per row writes the bytes of "%.17g" per value, on the
    values whose text is easy to get wrong."""
    rows = np.array([[np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e16, 0.1],
                     [1.0, -2.5, 1 / 3, 2.0**-1074, 1e-300, 123456789012345678.0, 0.0]])
    columns = [f"c{j}" for j in range(rows.shape[1])]
    cli.write_csv(tmp_path / "out.csv", columns, rows)
    expected = ",".join(columns) + "\n" + "".join(",".join("%.17g" % float(v) for v in row) + "\n" for row in rows)
    assert (tmp_path / "out.csv").read_text() == expected
    assert expected.splitlines()[1] == "nan,inf,-inf,-0,4.9406564584124654e-324,10000000000000000,0.10000000000000001"


def test_runs_import_no_scipy_or_process_pool(tmp_path):
    """A plain run loads neither scipy nor the process pool."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_BUDGET_SCRIPT, json.dumps(_IMPORT_BUDGET_RUNS),
                           json.dumps(_IMPORT_BUDGET_BANNED)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


def test_package_source_imports_no_scipy():
    """The package needs numpy alone: no module under src/shortcut_forge
    imports scipy, at module level or inside a function."""
    found = []
    for path in sorted((SRC / "shortcut_forge").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for m in modules if m.split(".")[0] == "scipy"]
    assert found == []


def test_package_source_has_no_hbar_parameter():
    """hbar is 1 throughout: no function or method under src/shortcut_forge
    takes an ``hbar`` parameter."""
    found = []
    for path in sorted((SRC / "shortcut_forge").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                names = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if x]
                found += [f"{path.name}:{node.lineno}" for n in names if n == "hbar"]
    assert found == []


def test_package_modules_import_no_private_names():
    """A module imports only public names from the other package modules: a
    leading-underscore name is private to the module that defines it."""
    found = []
    for path in sorted((SRC / "shortcut_forge").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("shortcut_forge")):
                found += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                          if alias.name.startswith("_") and not alias.name.endswith("__")]
    assert found == []


def test_tfim_range_keys_take_effect():
    conf = cli.validate_config({"system": "tfim_chain", "method": "exact_cd",
                                "parameters": {"n_sites": 3, "lambda_start": 0.2, "lambda_stop": 0.8}})
    system = cli._build_system(conf)
    model = tfim_chain(n_sites=3)
    assert np.abs(system.hamiltonian(0.0) - model.H_of_lambda(0.2)).max() < 1e-14
    assert np.abs(system.hamiltonian(system.duration) - model.H_of_lambda(0.8)).max() < 1e-14


def _run(tmp_path, conf):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(conf))
    return cli.main(["run", str(path), "--out", str(tmp_path / "out")])


def test_unexpected_exception_exits_4_with_its_traceback(tmp_path, capsys, monkeypatch):
    """Exit 1 means a compare mismatch; a crash inside a run must not look like one."""
    def crash(conf):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._RUNNERS, "exact_cd", crash)
    assert _run(tmp_path, {"system": "landau_zener", "method": "exact_cd", "grid_points": 21}) == 4
    err = capsys.readouterr().err
    assert "Traceback" in err and "RuntimeError: boom" in err and "internal error" in err
    # a sweep run in this process stops the same way
    assert cli.main(["sweep", str(tmp_path / "config.json"), "--param", "parameters.duration",
                     "--values", "1,2", "--out", str(tmp_path / "sweep")]) == 4
    assert "RuntimeError: boom" in capsys.readouterr().err


def test_large_dim_exact_cd_makes_one_eigh_per_point_and_step(tmp_path, monkeypatch):
    """At D = 64 a time chunk holds one point, and one D x D eigh per point
    serves the eigenpath, the CD term and the propagator: 101 calls for 101
    points. The 100 Magnus steps are Lanczos steps that each diagonalize one
    m x m tridiagonal, m < D. (On this seed no eigenpath interval of the
    101-point grid is bisected; on coarser grids the random ramp bisects,
    which would add calls.)"""
    calls = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    conf = {"system": "random_hermitian", "method": "exact_cd", "grid_points": 101,
            "parameters": {"dim": 64, "seed": 0}}
    assert _run(tmp_path, conf) == 0
    dense = [c for c in calls if c == (1, 64, 64)]
    tridiagonal = [c for c in calls if len(c) == 2 and c[0] == c[1] < 64]
    assert len(dense) == 101 and len(tridiagonal) == 100 and len(calls) == 201


@pytest.mark.parametrize("system, method, dense, small", [
    ("landau_zener", "exact_cd", 2, 0),
    ("landau_zener", "ff", 2, 0),
    ("landau_zener", "qsl", 2, 1),
    ("landau_zener", "invariant", 1, 0),
    ("random_hermitian", "qsl", 2, 1),
    ("random_hermitian", "variational", 2, 1),
    ("landau_zener", "krylov", 2, 1),
])
def test_each_matrix_scenario_diagonalizes_once_per_grid_point(tmp_path, monkeypatch, system, method, dense, small):
    """At defaults (1001 points) a scenario's one walk or path serves every
    reader: D x D eigh matrices are one per grid point for the path plus one
    per interval for the Magnus step of a walk, and the small ``solve_cd``
    eigh of a variational or krylov route, the qsl run's too, is one per grid
    point (none at the smoothstep ends of random_hermitian, where dH = 0):
    those routes read the walk's frames and diagonalize nothing. The
    fast-forward run walks CD on the faster clock, and qsl and invariant form
    the exact term from the walk's or the path's own frames, never by
    ``counterdiabatic_term``."""
    shapes, cd_calls = [], []
    eigh, counterdiabatic_term = np.linalg.eigh, cli.counterdiabatic_term

    def counting(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    monkeypatch.setattr(cli, "counterdiabatic_term", lambda *a, **k: cd_calls.append(1) or counterdiabatic_term(*a, **k))
    assert _run(tmp_path, _pair_conf(system, method)) == 0
    n, D = 1001, 2 if system == "landau_zener" else 4
    count = lambda big: sum(int(np.prod(s[:-2])) for s in shapes if (s[-1] == D) == big)
    assert count(True) == n + (dense - 1) * (n - 1)
    assert small * (n - 2) <= count(False) <= small * n
    assert cd_calls == []


def test_large_dim_exact_cd_allocates_less_than_one_full_eigenpath(tmp_path):
    """A D = 64 driven run reads the ground mode alone, so its eigenpath keeps
    one column: the traced peak of the whole run stays below the size of one
    (n_t, D, D) complex path, which a path of every mode would take."""
    conf = cli.validate_config({"system": "random_hermitian", "method": "exact_cd", "grid_points": 201,
                                "parameters": {"dim": 64, "seed": 0}})
    full_path = 201 * 64 * 64 * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        cli.run_scenario(conf, tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < full_path


def test_key_the_system_does_not_read_is_rejected(tmp_path, capsys):
    conf = {"system": "random_hermitian", "method": "exact_cd", "grid_points": 21,
            "parameters": {"dim": 4, "seed": 0, "lambda_start": 0.5}}
    assert _run(tmp_path, conf) == 2
    assert "lambda_start" in capsys.readouterr().err


def test_seed_is_accepted_by_every_system(tmp_path):
    conf = {"system": "landau_zener", "method": "exact_cd", "grid_points": 21, "parameters": {"seed": 3}}
    assert _run(tmp_path, conf) == 0


# ---------------------------------------------------------------------------
# The scenario matrix: every advertised (system, method) pair at its defaults


def _run_conf(tmp_path, conf, name="run"):
    """Run ``conf`` through the CLI; return the exit code and the summary."""
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(conf))
    out = tmp_path / name
    rc = cli.main(["run", str(path), "--out", str(out)])
    summary = json.loads((out / "summary.json").read_text()) if rc == 0 else None
    return rc, summary


def _pair_conf(system, method, grid_points=None):
    conf = {"system": system, "method": method}
    if grid_points is not None and "grid_points" not in cli._UNREAD.get((system, method), ()):
        conf["grid_points"] = grid_points
    if system == "random_hermitian":
        conf["parameters"] = {"seed": 0}
    return conf


#: finite configs whose arithmetic overflows: a rate of 2e308 makes lambda(0)
#: NaN, and a duration of 1e-300 overflows the Magnus commutator
_OVERFLOWING = [
    ("exact_cd", {"lambda_start": -1e308, "lambda_stop": 1e308}, "non-finite entries at t = 0.0"),
    ("invariant", {"lambda_start": -1e308, "lambda_stop": 1e308}, "non-finite entries at t = 0.0"),
    ("trotter", {"lambda_start": -1e308, "lambda_stop": 1e308}, "non-finite entries at t = 0.0"),
    ("exact_cd", {"duration": 1e-300}, "the Magnus step between t = 0.0 and t = 5e-302 is not finite"),
    ("qsl", {"duration": 1e-300}, "CSV column 'angle' is inf"),
]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("method, parameters, message", _OVERFLOWING,
                         ids=[f"{m}-{'duration' if 'duration' in p else 'rate'}" for m, p, _ in _OVERFLOWING])
def test_overflowing_config_exits_3_and_writes_nothing(tmp_path, capsys, method, parameters, message):
    conf = {**_pair_conf("landau_zener", method, grid_points=21), "parameters": parameters}
    rc, _ = _run_conf(tmp_path, conf)
    err = capsys.readouterr().err
    assert rc == 3 and "NonFiniteError" in err and message in err
    assert list((tmp_path / "run").iterdir()) == []


@pytest.mark.parametrize("conf", [
    {"system": "landau_zener", "grid_points": 21, "parameters": {"duration": 1e-300}},
    {"system": "random_hermitian", "grid_points": 5, "parameters": {"dim": 64, "seed": 0, "duration": 1e-300}},
], ids=["stacked-D2", "held-D64"])
def test_magnus_overflow_exits_3_naming_the_step_without_a_warning(tmp_path, capsys, conf):
    """A duration of 1e-300 overflows the Magnus commutator product of the
    first interval, on both step kernels: the walk stops there with a
    NonFiniteError naming the step, and no numpy warning (which the test run
    makes an error, exit 4) comes first."""
    rc, _ = _run_conf(tmp_path, {**conf, "method": "exact_cd"})
    err = capsys.readouterr().err
    assert rc == 3 and "NonFiniteError" in err and "the Magnus step between t = 0.0 and t = " in err
    assert list((tmp_path / "run").iterdir()) == []


def test_run_rejects_a_nonfinite_csv_row_naming_the_column(tmp_path, monkeypatch):
    rows = np.array([[0.0, 1.0], [1.0, -np.inf]])
    monkeypatch.setitem(cli._RUNNERS, "exact_cd", lambda conf: {"columns": ["time", "fidelity"], "rows": rows,
                                                               "summary": {}})
    conf = cli.validate_config({"system": "landau_zener", "method": "exact_cd", "grid_points": 21})
    with pytest.raises(NonFiniteError, match="CSV column 'fidelity' is -inf at row 1"):
        cli.run_scenario(conf, tmp_path / "run")
    assert list((tmp_path / "run").iterdir()) == []


#: pairs that stop with a numerical failure at their defaults, by error class
_FAILING_AT_DEFAULTS = {("tfim_chain", m): "GridTooCoarseError" for m in cli._VALID_COMBOS["tfim_chain"]}


def _pairs():
    for system in cli.SYSTEMS:
        for method in cli.METHODS:
            if method not in cli._VALID_COMBOS[system]:
                continue
            error = _FAILING_AT_DEFAULTS.get((system, method))
            marks = [pytest.mark.xfail(reason=error)] if error else []
            yield pytest.param(system, method, marks=marks, id=f"{system}-{method}")


#: routes whose span holds the exact counterdiabatic term at the default order
_EXACT_SPAN = {("landau_zener", m) for m in ("variational", "krylov", "algebraic")} | {
    ("random_hermitian", "algebraic")}


@pytest.mark.parametrize("system, method", _pairs())
def test_scenario_matrix(tmp_path, system, method):
    # the Landau-Zener QSL trapezoid bound first holds to 1e-8 between 101 and 201 points
    grid_points = {"trotter": 21, "qsl": 201, "invariant": 201}.get(method, 101)
    rc, summary = _run_conf(tmp_path, _pair_conf(system, method, grid_points))
    assert rc == 0
    if method == "exact_cd" or (system, method) in _EXACT_SPAN:
        assert summary["final_fidelity"] >= 1 - 1e-6
    elif method in ("variational", "krylov"):
        # variational order K is the Krylov route with 2K + 1 chain operators
        other = "krylov" if method == "variational" else "variational"
        _, twin = _run_conf(tmp_path, _pair_conf(system, other, grid_points), "twin")
        assert summary["final_fidelity"] == pytest.approx(twin["final_fidelity"], abs=1e-10)
    elif method == "trotter":
        # infidelity falls as 1/M^2, the first-order state error as 1/M
        expected = {"infidelity": -2.0, "state_error": -1.0}[summary["metric"]]
        assert abs(summary["slope"] - expected) <= 0.1
        assert summary.get("qsl_certified", True)
    elif method == "qsl":
        assert summary["holds"]
    elif method == "ff" and system == "grid_1d":
        assert summary["max_density_l2"] <= 1e-2
    elif method == "ff":
        assert summary["max_population_deviation"] <= 1e-6
    else:
        # nothing is propagated: invariant_residual takes dF/dt by np.gradient's centered
        # differences, second order in the grid step, so doubling the grid quarters it
        _, fine = _run_conf(tmp_path, _pair_conf(system, method, 401), "fine")
        ratio = summary["max_von_neumann_residual"] / fine["max_von_neumann_residual"]
        assert 3.5 <= ratio <= 4.5


def test_invariant_on_the_coarsest_grid_tracks_between_grid_points(tmp_path):
    """On 3 Landau-Zener grid points the modes turn by about 39 degrees a step,
    so the eigenpath the invariant is built on bisects between grid points."""
    rc, summary = _run_conf(tmp_path, {"system": "landau_zener", "method": "invariant", "grid_points": 3})
    assert rc == 0
    assert summary["max_eigenvalue_drift"] < 1e-12


@pytest.mark.parametrize("grid_points", [3, 4])
@pytest.mark.parametrize("system, dim", [("landau_zener", 2), ("random_hermitian", 4), ("random_hermitian", 50)])
def test_exact_cd_runs_on_the_shortest_grids(tmp_path, grid_points, system, dim):
    """3 points take the quadratic stencils, 4 the cubic ones with no
    interior interval; D = 50 steps each interval alone."""
    conf = {"system": system, "method": "exact_cd", "grid_points": grid_points}
    if system == "random_hermitian":
        conf["parameters"] = {"dim": dim, "seed": 0}
    rc, summary = _run_conf(tmp_path, conf)
    assert rc == 0
    assert 0.0 < summary["final_fidelity"] <= 1.0 + 1e-12


def test_tfim_exact_cd_stops_on_a_grid_too_coarse(tmp_path, capsys):
    rc, _ = _run_conf(tmp_path, _pair_conf("tfim_chain", "exact_cd"))
    assert rc == 3
    assert "GridTooCoarseError" in capsys.readouterr().err


@pytest.mark.parametrize("system, shape, method", [("landau_zener", "linear", "exact_cd"),
                                                   ("random_hermitian", "smoothstep", "exact_cd"),
                                                   ("random_hermitian", "smoothstep", "algebraic")])
def test_exact_cd_coefficient_columns_are_the_library_cd_term(tmp_path, system, shape, method):
    """The ``cd_coeff_*`` columns that the walk fills from the H_cd it
    stepped are the Pauli coefficients of the library route at the grid
    points: ``counterdiabatic_term``, or the order-1 algebraic route."""
    conf = {"system": system, "method": method, "grid_points": 101, "parameters": {"schedule_shape": shape}}
    if system == "random_hermitian":
        conf["parameters"].update(dim=4, seed=2)
    rc, _ = _run_conf(tmp_path, conf)
    assert rc == 0
    with open(tmp_path / "run" / "timeseries.csv") as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",")
    model = landau_zener() if system == "landau_zener" else random_hermitian_ramp(4, seed=2, shape=shape)
    basis = pauli_basis(int(np.log2(model.dim)))

    def route(t):
        H, dH = model.hamiltonian(t), model.dhamiltonian(t)
        if method == "exact_cd":
            return counterdiabatic_term(H, dH)
        return algebraic_cd(H, dH, basis, support=odd_commutator_support(H, dH, basis, max_order=1))

    cds = sample(route, data[:, 0])
    columns = [header.index(f"cd_coeff_{lab.lower()}") for lab in basis.labels]
    assert np.abs(data[:, columns] - gram_matrix(basis.elements, cds).real.T).max() <= 1e-14


def test_approximate_route_is_evaluated_once_per_grid_point(tmp_path, monkeypatch):
    """The Krylov route of a 101-point Landau-Zener run is evaluated at the
    101 grid times the walk steps from and the ``cd_coeff_*`` columns read,
    and at no other time: the frame kernel sees 101 frames in all."""
    frames = []
    frame_krylov_cd = cli.frame_krylov_cd

    def counting(E, *args, **kwargs):
        frames.append(len(E))
        return frame_krylov_cd(E, *args, **kwargs)

    monkeypatch.setattr(cli, "frame_krylov_cd", counting)
    rc, _ = _run_conf(tmp_path, {"system": "landau_zener", "method": "krylov", "grid_points": 101})
    assert rc == 0
    assert sum(frames) == 101


def _composed_infidelity(system, M_list):
    """1 - |<g(T)|psi_M>|^2 with psi_M = ``trotter_cd_evolve`` of the ground
    state of H(0) and g(T) the ground state of H(T), both off an eigenpath on
    [0, T] alone: the digitized product composed without the run's driver."""
    path = eigenpath(system.hamiltonian, [0.0, system.duration])
    target, psi0 = path.vectors[-1][:, path.energies[-1].argmin()], path.vectors[0, :, 0]
    cd = lambda t: counterdiabatic_term(system.hamiltonian(t), system.dhamiltonian(t))
    return [1.0 - fidelity(target, trotter_cd_evolve(system.hamiltonian, cd, int(M), system.duration, psi0))
            for M in M_list]


def test_lz_trotter_infidelity_is_the_library_digitization_error(tmp_path):
    """The Trotter run reads ``digitization_error``, whose infidelity column
    is the digitized product composed independently, bit for bit."""
    rc, _ = _run_conf(tmp_path, _LZ_TROTTER)
    assert rc == 0
    data = np.loadtxt(tmp_path / "run" / "timeseries.csv", delimiter=",", skiprows=1)
    assert np.array_equal(data[:, 1], _composed_infidelity(landau_zener(), data[:, 0]))


@pytest.mark.parametrize("system, parameters, final_angle", [("random_hermitian", {"dim": 4, "seed": 3}, 0.46),
                                                               ("landau_zener", {}, 0.0)])
def test_qsl_run_is_the_library_qsl_continuous(tmp_path, system, parameters, final_angle):
    """The qsl run forms its integrand inside the variational walk, from the
    walk's frames. ``qsl_continuous`` of H + H_cd against H + the order-1
    variational H_cd, on the run's target and walked trajectory, gives the
    same angle, bound and observed overlap to 1e-12. Order-1 variational CD
    is exact at D = 2, so the LZ angle is rounding only."""
    conf = {"system": system, "method": "qsl", "grid_points": 101, "parameters": parameters}
    rc, _ = _run_conf(tmp_path, conf)
    assert rc == 0
    data = np.loadtxt(tmp_path / "run" / "timeseries.csv", delimiter=",", skiprows=1)
    ref = cli._Reference(cli.validate_config(conf), route="variational")
    H, dH = ref.system.hamiltonian, ref.system.dhamiltonian
    report = qsl_continuous(lambda t: H(t) + counterdiabatic_term(H(t), dH(t)),
                            lambda t: H(t) + variational_cd(H(t), dH(t), 1), ref.target, other=ref.walk.trajectory)
    assert data[-1, 1] == pytest.approx(final_angle, abs=0.01)
    for j, column in enumerate((report.angle, report.bound, report.observed), 1):
        assert np.abs(data[:, j] - column).max() <= 1e-12


def _trotter_columns(tmp_path, conf):
    rc, summary = _run_conf(tmp_path, conf)
    assert rc == 0
    return np.loadtxt(tmp_path / "run" / "timeseries.csv", delimiter=",", skiprows=1, ndmin=2), summary


@pytest.mark.parametrize("M_list", [None, [3, 5, 7, 13]])
def test_lz_trotter_at_a_protected_crossing_is_exact(tmp_path, M_list):
    """At delta = 0 the levels cross, H_cd = 0 and the digitized product is
    the exact evolution: the tracked mode follows the crossing into the
    state the run ends in, also where no slice end falls on the crossing."""
    trotter = {} if M_list is None else {"M_list": M_list}
    data, summary = _trotter_columns(tmp_path, {**_LZ_TROTTER, "parameters": {"delta": 0.0}, "trotter": trotter})
    assert data[:, 1].max() <= 1e-12
    assert summary["fit_skipped"] and summary["qsl_certified"]


@pytest.mark.parametrize("delta", [0.02, 0.1])
def test_lz_trotter_carries_the_ground_state_past_an_avoided_crossing_between_slice_ends(tmp_path, delta):
    """With every slice count odd, no slice end falls on the avoided crossing
    at T/2, and the levels at the slice ends beside it overlap by more than
    the tracker's gate. The run still carries the ground state: its
    infidelity is the composed product's against the ground state at T."""
    M_list = [3, 5, 7, 13]
    data, summary = _trotter_columns(tmp_path, {**_LZ_TROTTER, "parameters": {"delta": delta},
                                                "trotter": {"M_list": M_list}})
    assert np.array_equal(data[:, 1], _composed_infidelity(landau_zener(delta=delta), M_list))
    assert summary["qsl_certified"]


def test_exact_cd_past_an_avoided_crossing_between_grid_points_reads_the_ground_state(tmp_path):
    """At LZ delta 0.003 on 200 points the crossing at T/2 falls between grid
    points, and the grid misses H_cd's 1/delta peak: the run reports the low
    fidelity of its final state against the ground state of H(T), the
    library's |<g(T)|psi(T)>|^2, not against the diabatic level."""
    rc, summary = _run_conf(tmp_path, {"system": "landau_zener", "method": "exact_cd", "grid_points": 200,
                                       "parameters": {"delta": 0.003}})
    assert rc == 0
    system = landau_zener(delta=0.003)
    final = cd_walk(system.hamiltonian, system.dhamiltonian, np.linspace(0.0, 1.0, 200)).trajectory.final()
    ground = np.linalg.eigh(system.hamiltonian(np.array([1.0])))[1][0, :, 0]
    assert summary["final_fidelity"] == pytest.approx(abs(np.vdot(ground, final)) ** 2, abs=1e-14)
    assert summary["final_fidelity"] < 0.5


@pytest.mark.parametrize("method", ["ff", "qsl", "invariant"])
def test_reference_ground_mode_ends_on_the_lowest_level(tmp_path, monkeypatch, method):
    """The reference of every ff, qsl and invariant run: at LZ delta 0.005 on
    200 points the crossing at T/2 falls between grid points, and mode 0
    must still end on the ground level of H(T)."""
    refs = []

    class Recorded(cli._Reference):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            refs.append(self)

    monkeypatch.setattr(cli, "_Reference", Recorded)
    rc, _ = _run_conf(tmp_path, {"system": "landau_zener", "method": method, "grid_points": 200,
                                 "parameters": {"delta": 0.005}})
    assert rc == 0 and len(refs) == 1
    energies = refs[0].path.energies[-1]
    assert energies[0] == energies.min() < energies[1]


def test_lz_trotter_reads_one_eigenpath_on_the_slice_ends(tmp_path, monkeypatch):
    """psi0, every exact reference and the target come off one eigenpath on
    the sorted union of the slice ends."""
    grids = []

    def recording(H_of_t, grid, *args, **kwargs):
        grids.append(np.array(grid))
        return eigenpath(H_of_t, grid, *args, **kwargs)

    monkeypatch.setattr(digitized, "eigenpath", recording)
    M_list = [3, 5, 7, 12, 30]
    _trotter_columns(tmp_path, {**_LZ_TROTTER, "trotter": {"M_list": M_list}})
    ends = np.unique(np.concatenate([np.linspace(0.0, 1.0, M + 1) for M in M_list]))
    assert len(grids) == 1 and np.array_equal(grids[0], ends)


def test_grid_ff_takes_every_step(tmp_path):
    """The steps are split over the density checks, the first segments taking
    the remainder, so one step more changes the run."""
    finals = []
    for n_steps in (8, 9):
        rc, summary = _run_conf(tmp_path, {"system": "grid_1d", "method": "ff", "ff": {"n_steps": n_steps}},
                                f"n{n_steps}")
        assert rc == 0
        finals.append(summary["final_density_l2"])
    assert finals[0] != finals[1]


# ---------------------------------------------------------------------------
# Every accepted key takes effect


_CHOICES = {"schedule_shape": tuple(SHAPES)}

#: (system, method, key) -> why the key cannot move that pair's output beyond
#: rounding; None matches every system or method
_NO_EFFECT = {
    ("landau_zener", None, "parameters.seed"): "accepted for seeded batches; only random_hermitian reads it",
    ("landau_zener", None, "order"): "at D = 2 the Krylov chain is complete at order 1",
    (None, "algebraic", "order"): "the order-1 odd-commutator support of a generic pair spans the whole algebra",
}


def _changed(key, default, current):
    """A value of ``key`` other than its current one (its default when unset)."""
    value = default if current is None else current
    if isinstance(value, type):
        return value(1) / 2
    if isinstance(value, str):
        return next(c for c in _CHOICES[key] if c != value)
    if isinstance(value, list):
        return value + [2 * value[-1]]
    return value + 1 if isinstance(value, int) else value + 0.5


def _key_cases():
    """Every key of each pair that runs at its defaults, except output names
    and compare tolerances, which are not run inputs."""
    for system in ("landau_zener", "random_hermitian"):
        for method in sorted(cli._VALID_COMBOS[system]):
            methods = cli._METHOD_KEYS[method]
            sections = {"": {"grid_points": cli._COMMON["grid_points"],
                             **{k: v for k, v in methods.items() if not isinstance(v, dict)}},
                        "parameters": cli._PARAMETERS[system],
                        **{k: v for k, v in methods.items() if isinstance(v, dict)}}
            for section, keys in sections.items():
                for key, default in keys.items():
                    dotted = f"{section}.{key}" if section else key
                    if dotted in cli._UNREAD.get((system, method), ()) or any(
                            k == dotted and s in (None, system) and m in (None, method) for s, m, k in _NO_EFFECT):
                        continue
                    yield pytest.param(system, method, section, key, default, id=f"{system}-{method}-{dotted}")


def _small_conf(system, method):
    """A pair at 21 grid points and four Trotter slice counts, for the key-by-key runs."""
    conf = _pair_conf(system, method, grid_points=21)
    if method == "trotter":
        conf["trotter"] = {"M_list": [4, 8, 16, 32]}
    return conf


def _outputs(tmp_path, conf, name):
    rc, summary = _run_conf(tmp_path, conf, name)
    assert rc == 0
    with open(tmp_path / name / "timeseries.csv") as fh:
        header = fh.readline()
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    # keep what the run computed, not what it echoes of its config
    for key in ("config", "config_hash", "scenario_hash", "method", "order", "rate"):
        summary.pop(key, None)
    return header, data, summary


def _same(a, b) -> bool:
    """Equal up to rounding: same columns and summary keys, every number within 1e-9 relative or 1e-12."""
    (head_a, data_a, sum_a), (head_b, data_b, sum_b) = a, b
    if head_a != head_b or data_a.shape != data_b.shape or sum_a.keys() != sum_b.keys():
        return False
    close = lambda x, y: np.allclose(x, y, rtol=1e-9, atol=1e-12, equal_nan=True)
    numbers = [k for k, v in sum_a.items() if isinstance(v, float)]
    return close(data_a, data_b) and all(close(sum_a[k], sum_b[k]) for k in numbers) and \
        all(sum_a[k] == sum_b[k] for k in sum_a.keys() - set(numbers))


@pytest.fixture(scope="module")
def default_outputs(tmp_path_factory):
    """Outputs of each pair's small config, run once per module."""
    cache = {}

    def outputs(system, method):
        if (system, method) not in cache:
            cache[system, method] = _outputs(tmp_path_factory.mktemp("default"), _small_conf(system, method), "run")
        return cache[system, method]

    return outputs


@pytest.mark.parametrize("system, method, section, key, default", _key_cases())
def test_every_key_takes_effect(tmp_path, default_outputs, system, method, section, key, default):
    changed = _small_conf(system, method)
    node = changed.setdefault(section, {}) if section else changed
    node[key] = _changed(key, default, node.get(key))
    assert not _same(default_outputs(system, method), _outputs(tmp_path, changed, "changed"))


def test_sweep_materializes_defaults(tmp_path):
    """A swept key need not be written out: the defaults are part of the config."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"system": "landau_zener", "method": "exact_cd", "grid_points": 21}))
    assert cli.main(["sweep", str(path), "--param", "parameters.duration", "--values", "1,2",
                     "--out", str(tmp_path / "sweep")]) == 0
    runs = [json.loads((tmp_path / "sweep" / f"parameters_duration={v}" / "summary.json").read_text())
            for v in (1, 2)]
    assert [r["config"]["parameters"]["duration"] for r in runs] == [1.0, 2.0]
    assert runs[0]["final_fidelity"] != runs[1]["final_fidelity"]


def _sweep_outputs(tmp_path, name):
    """Every file a three-value Landau-Zener sweep writes, by relative path."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"system": "landau_zener", "method": "exact_cd", "grid_points": 21}))
    out = tmp_path / name
    assert cli.main(["sweep", str(path), "--param", "parameters.delta", "--values", "0.9,1.0,1.1",
                     "--out", str(out)]) == 0
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


@pytest.fixture
def pools(monkeypatch):
    """The worker counts of the process pools the CLI opens."""
    opened = []

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            opened.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    return opened


def test_parallel_sweep_writes_the_serial_bytes(tmp_path, monkeypatch, pools):
    monkeypatch.setenv("SHORTCUT_FORGE_THREADS", "1")
    serial = _sweep_outputs(tmp_path, "serial")
    monkeypatch.setenv("SHORTCUT_FORGE_THREADS", "2")
    parallel = _sweep_outputs(tmp_path, "parallel")
    assert pools == [2]
    assert len(serial) == 6 and parallel == serial


def test_non_integer_thread_cap_runs_one_worker(tmp_path, monkeypatch, pools):
    monkeypatch.setenv("SHORTCUT_FORGE_THREADS", "two")
    assert len(_sweep_outputs(tmp_path, "sweep")) == 6
    assert pools == []


# ---------------------------------------------------------------------------
# Bad input exits 2 and names the key


_LZ = {"system": "landau_zener", "grid_points": 21}
#: the Landau-Zener Trotter run reads no grid
_LZ_TROTTER = {"system": "landau_zener", "method": "trotter"}


@pytest.mark.parametrize("conf, key", [
    ({**_LZ, "method": "exact_cd", "parameters": {"delta": "x"}}, "parameters.delta"),
    ({**_LZ, "method": "exact_cd", "parameters": {"schedule_shape": "cubic"}}, "parameters.schedule_shape"),
    ({**_LZ, "method": "exact_cd", "grid_points": True}, "grid_points"),
    # the digitized product has one operator order and one sampling, on the
    # schedule's duration: any ordering, sampling or total_time is an unread key
    ({**_LZ_TROTTER, "trotter": {"ordering": "bogus"}}, "trotter.ordering"),
    ({**_LZ_TROTTER, "trotter": {"sampling": "left"}}, "trotter.sampling"),
    ({**_LZ_TROTTER, "trotter": {"M_list": [8, 16]}}, "trotter.M_list"),
    ({**_LZ_TROTTER, "trotter": {"M_list": [8, 10, 12, 16]}}, "trotter.M_list"),
    ({**_LZ_TROTTER, "trotter": {"M_list": [0, 8, 16, 32]}}, "trotter.M_list"),
    ({**_LZ_TROTTER, "trotter": {"total_time": 0}}, "trotter.total_time"),
    ({**_LZ, "method": "ff", "ff": {"rate": -1}}, "ff.rate"),
    ({**_LZ, "method": "ff", "ff": {"rate": 0}}, "ff.rate"),
    ({**_LZ, "method": "exact_cd", "grid_points": 0}, "grid_points"),
    ({**_LZ, "method": "invariant", "grid_points": 2}, "grid_points"),
    # hbar is 1 and no key sets it: any hbar value is an unread key
    ({**_LZ, "method": "exact_cd", "hbar": 0}, "hbar"),
    ({**_LZ, "method": "exact_cd", "parameters": {"duration": 0}}, "parameters.duration"),
    ({**_LZ, "method": "variational", "order": 0}, "order"),
    ({**_LZ, "method": "exact_cd", "compare_tolerances": {"fidelity": "tight"}}, "compare_tolerances"),
    # json reads NaN, Infinity and 1e309; a float key must be finite
    ({**_LZ, "method": "exact_cd", "parameters": {"delta": float("nan")}}, "parameters.delta"),
    ({**_LZ, "method": "exact_cd", "parameters": {"delta": float("inf")}}, "parameters.delta"),
    ({**_LZ, "method": "exact_cd", "parameters": {"duration": float("inf")}}, "parameters.duration"),
    ({**_LZ, "method": "exact_cd", "parameters": {"lambda_stop": float("-inf")}}, "parameters.lambda_stop"),
    ({**_LZ, "method": "exact_cd", "hbar": float("inf")}, "hbar"),
    ({**_LZ, "method": "exact_cd", "compare_tolerances": {"fidelity": float("nan")}}, "compare_tolerances"),
    ({**_LZ, "method": "exact_cd", "compare_tolerances": {"default": float("inf")}}, "compare_tolerances"),
    ({**_LZ_TROTTER, "trotter": {"total_time": float("inf")}}, "trotter.total_time"),
    ({"system": "random_hermitian", "method": "exact_cd", "parameters": {"dim": 1, "seed": 0}}, "parameters.dim"),
    ({"system": "random_hermitian", "method": "exact_cd", "parameters": {"dim": 1025, "seed": 0}}, "parameters.dim"),
    ({"system": "random_hermitian", "method": "exact_cd", "parameters": {"dim": 4}}, "parameters.seed"),
    # the algebraic trial basis grows as D^2 operators of size D x D; validation stops it before any run
    ({"system": "random_hermitian", "method": "algebraic", "parameters": {"dim": 17, "seed": 0}}, "parameters.dim"),
    ({"system": "random_hermitian", "method": "algebraic", "parameters": {"dim": 1024, "seed": 0}},
     "parameters.dim"),
    ({"system": "tfim_chain", "method": "exact_cd", "parameters": {"n_sites": 11}}, "parameters.n_sites"),
    ({**_LZ, "method": "exact_cd", "order": 5}, "order"),
    ({**_LZ, "method": "exact_cd", "trotter": {"M_list": [8]}}, "trotter"),
    ({**_LZ, "method": "exact_cd", "ff": {"rate": 3}}, "ff"),
    ({**_LZ, "method": "ff", "ff": {"n_steps": 100}}, "ff.n_steps"),
    ({"system": "random_hermitian", "method": "trotter", "grid_points": 21, "parameters": {"seed": 0}},
     "grid_points"),
    ({"system": "random_hermitian", "method": "trotter", "parameters": {"seed": 0, "schedule_shape": "linear"}},
     "parameters.schedule_shape"),
    ({"system": "grid_1d", "method": "ff", "grid_points": 21}, "grid_points"),
    ({**_LZ, "method": "algebraic", "parameters": {"dim": 4}}, "parameters.dim"),
    ({"system": "grid_1d", "method": "exact_cd"}, "exact_cd"),
    ({"system": "grid_1d", "method": "ff", "parameters": {"x_points": 0}}, "parameters.x_points"),
    ({"system": "grid_1d", "method": "ff", "parameters": {"x_points": 2}}, "parameters.x_points"),
    ({"system": "grid_1d", "method": "ff", "parameters": {"mass": 0}}, "parameters.mass"),
    ({"system": "grid_1d", "method": "ff", "parameters": {"x_extent": 0}}, "parameters.x_extent"),
    ({"system": "grid_1d", "method": "ff", "parameters": {"width_start": 0}}, "parameters.width_start"),
    ({"system": "grid_1d", "method": "ff", "parameters": {"width_stop": -1.0}}, "parameters.width_stop"),
    ({**_LZ, "method": "trotter"}, "grid_points"),
    ({"system": "tfim_chain", "method": "trotter", "grid_points": 101}, "grid_points"),
    # one split-step per density check at least
    ({"system": "grid_1d", "method": "ff", "ff": {"n_steps": 0}}, "ff.n_steps"),
    ({"system": "grid_1d", "method": "ff", "ff": {"n_steps": 7}}, "ff.n_steps"),
    # output names are files in the output directory, and compare finds the summary among its *.json
    ({**_LZ, "method": "exact_cd", "output": {"csv": ""}}, "output.csv"),
    ({**_LZ, "method": "exact_cd", "output": {"csv": "sub/x.csv"}}, "output.csv"),
    ({**_LZ, "method": "exact_cd", "output": {"csv": ".."}}, "output.csv"),
    ({**_LZ, "method": "exact_cd", "output": {"summary": "sub/s.json"}}, "output.summary"),
    ({**_LZ, "method": "exact_cd", "output": {"summary": "summary.txt"}}, "output.summary"),
    ({**_LZ, "method": "exact_cd", "output": {"csv": "summary.json"}}, "output.summary"),
    # the values these keys used to take are unread keys too
    ({**_LZ_TROTTER, "trotter": {"ordering": "cd-then-h"}}, "trotter.ordering"),
    ({**_LZ_TROTTER, "trotter": {"sampling": "midpoint"}}, "trotter.sampling"),
    ({**_LZ_TROTTER, "trotter": {"total_time": 2.0}}, "trotter.total_time"),
    # four slice counts, but only two distinct ones
    ({**_LZ_TROTTER, "trotter": {"M_list": [8, 8, 8, 32]}}, "trotter.M_list"),
])
def test_bad_config_exits_2_naming_the_key(tmp_path, capsys, conf, key):
    rc, _ = _run_conf(tmp_path, conf)
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith("config error") and f"'{key}'" in err
    assert not (tmp_path / "run").exists()
