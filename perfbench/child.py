"""One benchmark child: import the CLI, optionally trace, run one scenario.

    python child.py import <record.json>
    python child.py reference <record.json>
    python child.py run <record.json> <config.json> <out_dir> <trace 0|1>

The record holds the CLOCK_MONOTONIC time at which the imports finished (the
parent holds the spawn time on the same clock), the time spent inside
``main(["run", ...])`` and, when traced, the per-layer trace. The exit code is
the CLI's. ``reference`` imports REFERENCE_IMPORTS instead of the CLI.
"""

import importlib
import json
import sys
import time

#: the third-party modules the package imports at start-up, frozen here so
#: that the reference child does the same work whatever the package does
REFERENCE_IMPORTS = ("numpy", "scipy.linalg", "scipy.integrate", "scipy.optimize")


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main(argv) -> int:
    mode, record_path = argv[0], argv[1]
    if mode == "reference":
        for name in REFERENCE_IMPORTS:
            importlib.import_module(name)
    else:
        from shortcut_forge import cli
    record = {"imported_at": _now()}
    rc = 0
    if mode == "run":
        config, out_dir, trace = argv[2], argv[3], argv[4] == "1"
        tracer = None
        if trace:
            import tracer as tracing

            tracer = tracing.install()
        t0 = _now()
        rc = cli.main(["run", config, "--out", out_dir])
        record["compute_s"] = _now() - t0
        if tracer is not None:
            record["trace"] = tracer.report()
    record["rc"] = rc
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
