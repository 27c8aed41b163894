"""Checks of the benchmark itself: trace fidelity, gates, the probe record.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402


def _exact(dim, grid_points):
    conf = {"system": "random_hermitian", "method": "exact_cd", "grid_points": grid_points,
            "parameters": {"dim": dim, "seed": 1}}
    return run.Scenario(f"rh{dim}", conf, exact_target=True)


@pytest.mark.parametrize("dim, grid_points, eigh_calls", [
    # eigenpath: one per grid point (no bisections); evolve: one per step;
    # exact CD: one per step midpoint; the CSV loop is skipped for D > 8
    (64, 1001, 1001 + 1000 + 1000),
    (128, 401, 401 + 400 + 400),
])
def test_traced_eigh_count_and_identical_outputs(tmp_path, dim, grid_points, eigh_calls):
    scn = _exact(dim, grid_points)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(scn.config))
    plain = run.run_scenario(scn, config, tmp_path / "plain", trace=False)
    traced = run.run_scenario(scn, config, tmp_path / "traced", trace=True)
    assert plain.problems == [] and traced.problems == []
    trace = traced.child.record["trace"]
    assert trace["numpy.eigh"]["calls"] == eigh_calls
    assert trace["spectral.eigenpath"]["eigh"] == grid_points
    assert trace["spectral.counterdiabatic_term"]["calls"] == grid_points - 1
    assert traced.digest == plain.digest


def test_every_binding_is_wrapped():
    # cli, digitized and agp hold their own bindings of functions defined elsewhere
    code = """
import tracer
from shortcut_forge import agp, cli, digitized, dynamics, operators, spectral
tracer.install()
for fn in (cli.eigenpath, spectral.eigenpath, cli.evolve, dynamics.step_unitary,
           digitized.step_unitary, agp.frobenius_inner, cli.frobenius_inner,
           operators.frobenius_inner, cli.run_scenario):
    assert hasattr(fn, "__wrapped__"), fn
assert digitized.step_unitary is dynamics.step_unitary
assert agp.frobenius_inner is operators.frobenius_inner
"""
    env = dict(run.CHILD_ENV, PYTHONPATH=f"{run.SRC}:{BENCH}")
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_gates():
    lz = {s.name: s for s in run._lz_methods(0)}
    assert run.gate(lz["lz_exact_cd"], {"final_fidelity": 1 - 1e-10}) == []
    assert run.gate(lz["lz_exact_cd"], {"final_fidelity": 1 - 1e-7})
    ok = {"slope": -2.0, "qsl_certified": True}
    assert run.gate(lz["lz_trotter"], ok) == []
    assert run.gate(lz["lz_trotter"], dict(ok, slope=-1.0))
    assert run.gate(lz["lz_trotter"], dict(ok, slope=None))
    assert run.gate(lz["lz_trotter"], dict(ok, qsl_certified=False))
    assert run.gate(lz["lz_qsl"], {"holds": False})
    assert run.gate(lz["lz_ff"], {"max_population_deviation": 1e-6})
    assert run.gate(lz["lz_ff"], {"max_population_deviation": 1e-12}) == []


def test_seed_makes_inputs():
    for build in (run._lz_methods, run._dense_exact, run._approx_cd):
        assert [s.config for s in build(3)] == [s.config for s in build(3)]
        assert [s.config for s in build(3)] != [s.config for s in build(4)]


def test_refuses_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    res = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "lz_methods", "--seed", "1",
                          "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                         timeout=60)
    assert res.returncode != 0
    assert res.stdout.strip() == ""


def test_known_failures_record_is_current(tmp_path):
    recorded = json.loads(run.KNOWN_FAILURES.read_text())
    pairs = run.probe(recorded["seed"], tmp_path)
    assert [p for p in pairs if p["exit_code"] != 0] == recorded["known_failures"]


def test_benchmark_json_matches_the_code():
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in bench["workloads"]} == {w.name: w.why for w in run.WORKLOADS.values()}
    scn = _exact(64, 1001)
    fake = run.Run(scn, run.Child(rc=0, wall_s=1.0, setup_s=0.5, rss_mb=80.0, record={"compute_s": 0.4}),
                   summary={"final_fidelity": 1 - 1e-10}, digest="", csv_bytes=1, problems=[])
    assert [m["name"] for m in bench["end_to_end"]] == list(run.end_to_end([[fake]], [(0.5, 1.0)]))
    layer_names = list(run.per_layer([fake])) + ["trace_overhead_frac"]
    assert [m["name"] for m in bench["per_layer"]] == layer_names
