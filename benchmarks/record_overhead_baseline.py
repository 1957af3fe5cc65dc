"""Record the framework-overhead baseline for regression comparison.

Writes ``benchmarks/BENCH_framework_overhead.json``: per-workload
framework-overhead fractions (default config, the Section V-A metric)
plus the plan-vs-legacy dispatch measurements from
``bench_plan_compile`` (tiny config). ``bench_framework_overhead.py``
and ``bench_plan_compile.py`` compare fresh runs against this file.

Run from the repository root::

    PYTHONPATH=src python benchmarks/record_overhead_baseline.py
"""

import json
import pathlib
import platform
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from bench_framework_overhead import _measure_overheads  # noqa: E402
from bench_plan_compile import BASELINE_PATH, _measure_workload  # noqa: E402

from repro.workloads import WORKLOAD_NAMES  # noqa: E402


def main() -> None:
    overheads = _measure_overheads()
    dispatch = {name: _measure_workload(name) for name in WORKLOAD_NAMES}
    payload = {
        "metadata": {
            "recorded": time.strftime("%Y-%m-%d"),
            "python": platform.python_version(),
            "machine": platform.machine(),
            "note": ("framework overhead: default config; dispatch: "
                     "tiny config, training fetches, best-of-3"),
        },
        "overhead_fraction": overheads,
        "workloads": dispatch,
    }
    BASELINE_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {BASELINE_PATH}")
    for name in WORKLOAD_NAMES:
        r = dispatch[name]
        print(f"  {name:>10s}  overhead {overheads[name]:6.2%}  "
              f"plan {r['plan_seconds_per_step']:.6f}s/step  "
              f"legacy {r['legacy_seconds_per_step']:.6f}s/step  "
              f"({r['dispatch_speedup']:.2f}x)")


if __name__ == "__main__":
    main()
