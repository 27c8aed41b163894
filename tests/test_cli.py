import json

import pytest

from shortcut_forge import cli


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
