"""Section V-A's framework-overhead claim.

The paper reports that TensorFlow spends "typically less than 1-2% of
the total runtime outside of operations". This benchmark measures the
same quantity for our executor on the heavyweight workloads (where ops
are large enough that scheduling cost should disappear) and prints it
for every workload, comparing against the committed baseline in
``BENCH_framework_overhead.json`` (regenerate with
``python benchmarks/record_overhead_baseline.py``).
"""

import json
import pathlib

from repro.profiling.tracer import Tracer
from repro.workloads import WORKLOAD_NAMES, create

BASELINE_PATH = (pathlib.Path(__file__).parent
                 / "BENCH_framework_overhead.json")


def _measure_overheads():
    overheads = {}
    for name in WORKLOAD_NAMES:
        model = create(name, config="default")
        model.run_training(1)
        # Best of three: scheduler preemption on a shared machine shows
        # up as *extra* apparent overhead, so the minimum is the honest
        # estimate of the executor's own cost.
        best = 1.0
        for _ in range(3):
            tracer = Tracer()
            model.run_training(2, tracer=tracer)
            best = min(best, tracer.framework_overhead_fraction())
        overheads[name] = best
    return overheads


def test_framework_overhead(benchmark):
    overheads = benchmark.pedantic(_measure_overheads, rounds=1,
                                   iterations=1)
    baseline = (json.loads(BASELINE_PATH.read_text())
                if BASELINE_PATH.exists() else None)
    print("\nFraction of wall time outside operations (training, default "
          "config):")
    for name, fraction in overheads.items():
        line = f"  {name:>10s}  {fraction:6.2%}"
        if baseline and name in baseline.get("overhead_fraction", {}):
            line += (f"  (baseline "
                     f"{baseline['overhead_fraction'][name]:6.2%})")
        print(line)

    # Big-op workloads should be within shouting distance of the paper's
    # 1-2% (pure-Python scheduling is heavier than TF's C++ executor, so
    # the bound is looser, but the *claim shape* — overhead is a small
    # fraction when kernels are coarse — must hold). Fine-grained graphs
    # (seq2seq's thousands of tiny unrolled ops) pay more; the deviation
    # is recorded in EXPERIMENTS.md.
    for name in ("vgg", "alexnet", "autoenc"):
        assert overheads[name] < 0.3, (name, overheads[name])
    # Time spent inside operations dominates everywhere. (The measured
    # "overhead" also absorbs scheduler preemption on shared machines,
    # hence the generous bound.)
    assert all(f < 0.85 for f in overheads.values())

    if baseline:
        # Steady-state dispatch must not regress against the recorded
        # baseline: allow generous absolute slack for machine noise, but
        # a wholesale regression (a fatter interpreter loop) must fail.
        for name, fraction in overheads.items():
            recorded = baseline["overhead_fraction"].get(name)
            if recorded is not None:
                assert fraction <= recorded + 0.15, (name, fraction,
                                                     recorded)
