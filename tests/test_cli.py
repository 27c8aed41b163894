import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from shortcut_forge import cli
from shortcut_forge.models import tfim_chain

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


_IMPORT_BUDGET_RUNS = [
    {"system": "landau_zener", "method": m, "grid_points": 21} for m in ("exact_cd", "trotter", "qsl", "ff")
] + [{"system": "random_hermitian", "method": "algebraic", "grid_points": 21,
      "parameters": {"dim": 4, "seed": 0}}]

_IMPORT_BUDGET_SCRIPT = """
import json, sys
from shortcut_forge import cli
for i, conf in enumerate(json.loads(sys.argv[1])):
    with open(f"c{i}.json", "w") as fh:
        json.dump(conf, fh)
    assert cli.main(["run", f"c{i}.json", "--out", f"out{i}"]) == 0
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def test_runs_import_no_scipy(tmp_path):
    """scipy costs more start-up than numpy and the whole package together;
    a plain run must not load it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_BUDGET_SCRIPT, json.dumps(_IMPORT_BUDGET_RUNS)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


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


def test_key_the_system_does_not_read_is_rejected(tmp_path, capsys):
    conf = {"system": "random_hermitian", "method": "exact_cd", "grid_points": 21,
            "parameters": {"dim": 4, "seed": 0, "lambda_start": 0.5}}
    assert _run(tmp_path, conf) == 2
    assert "lambda_start" in capsys.readouterr().err


def test_seed_is_accepted_by_every_system(tmp_path):
    conf = {"system": "landau_zener", "method": "exact_cd", "grid_points": 21, "parameters": {"seed": 3}}
    assert _run(tmp_path, conf) == 0
