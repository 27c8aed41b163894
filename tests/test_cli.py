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
