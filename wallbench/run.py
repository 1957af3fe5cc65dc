#!/usr/bin/env python3
"""Wall-clock benchmark for training, checkpointing and serving.

Run from the root of a checkout::

    python3 wallbench/run.py --workload train-fine --seed 1 --seconds 40
    python3 wallbench/run.py --workload serve-memnet --seed 1 --trace 1

With ``--trace 0`` it prints every end-to-end metric (the gated ones
in the JSON result, the medians that are only reported beside them);
with ``--trace 1`` every per-layer metric, from spans recorded around
the calls into each layer. The last line of standard output is one JSON object; the lines
above it are the human-readable report. Every result is also appended
to ``--history`` (a JSON-lines trajectory) with the host fingerprint,
clock domain, seed and source commit. See wallbench/README.md.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("train-fine", "train-dense", "serve-memnet")
#: one BLAS thread: a two-thread GEMM stalls whenever either thread is
#: preempted, which on a shared 2-core host widened run-to-run spread
BLAS_THREADS = 1
BLAS_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                  "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--config", default="default",
                        help="model config (tiny for the self-test)")
    parser.add_argument("--history",
                        default=os.path.join(HERE, "trajectory.jsonl"),
                        help="JSON-lines trajectory to append the result to "
                             "('' to skip)")
    return parser.parse_args(argv)


def tree_digest(directory: str) -> str:
    """SHA-256 over every Python file under ``directory``."""
    digest = hashlib.sha256()
    for path, subdirs, files in os.walk(directory):
        subdirs[:] = sorted(d for d in subdirs if d != "__pycache__")
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            full = os.path.join(path, name)
            digest.update(os.path.relpath(full, directory).encode())
            with open(full, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout's own repository, if it is one."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def host_fingerprint() -> dict:
    import numpy
    uname = os.uname()
    host = {
        "machine": uname.machine, "kernel": uname.release,
        "cpus": os.cpu_count(),
        "memory_gib": round(os.sysconf("SC_PAGE_SIZE")
                            * os.sysconf("SC_PHYS_PAGES") / 2 ** 30, 1),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas_threads": BLAS_THREADS,
    }
    host["id"] = hashlib.sha256(
        json.dumps(host, sort_keys=True).encode()).hexdigest()[:12]
    return host


def report(args, result, metrics, units, reported) -> None:
    tally = result["tally"]
    print(f"wallbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} "
          f"config={args.config} clock=wall rounds={result['rounds']}")
    samples = result["end_to_end"]
    for name, value in [*metrics.items(), *reported.items()]:
        line = f"  {name:<32s} {value:14.4f} {units[name]}"
        if name in samples:
            line += f"  n={samples[name][1]}"
        if name in result["aliases"]:
            line += f"  ({result['aliases'][name]})"
        if name in reported:
            line += "  [reported, not gated]"
        print(line)
    for kind, share in sorted(result["shares"].items()):
        print(f"  attributed share of {kind:<12s} {share:.4f}")
    rate = tally.failed / tally.attempted
    print(f"  error_rate {rate:.6f} ({tally.failed}/{tally.attempted} "
          f"failed)")
    for reason, count in tally.reasons.most_common():
        print(f"    {count} x {reason}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro package under {SRC}; run this from the "
              f"root of a checkout of the repository", file=sys.stderr)
        return 2
    for variable in BLAS_VARIABLES:
        os.environ[variable] = str(BLAS_THREADS)
    sys.path.insert(0, SRC)
    import measure
    import serve
    import train

    state = os.path.join(ROOT, ".wallbench")
    workdir = os.path.join(state, f"run-{os.getpid()}")
    spans_path = os.path.join(state, f"spans-{args.workload}.jsonl")
    os.makedirs(state, exist_ok=True)
    module = serve if args.workload == "serve-memnet" else train
    try:
        result = module.run(args.workload, args.config, args.seed,
                            args.seconds, bool(args.trace), workdir,
                            spans_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    reported = {}
    if args.trace:
        metrics = {name: float(result["per_layer"].get(name, 0.0))
                   for name, _, _ in measure.PER_LAYER}
        units = {name: unit for name, unit, _ in measure.PER_LAYER}
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["end_to_end"]["peak_rss_mb"] = (peak_mb, 1)
        measured = result["end_to_end"]
        metrics = {name: float(measured[name][0])
                   for name, _, _, _ in measure.END_TO_END}
        reported = {name: float(measured[name][0])
                    for name, _ in measure.REPORTED}
        units = {name: unit for name, unit, _, _ in measure.END_TO_END}
        units.update(measure.REPORTED)
    tally = result["tally"]
    correct = tally.wrong == 0
    if args.trace and metrics["attributed_share"] \
            < measure.MIN_ATTRIBUTED_SHARE:
        print(f"attribution check failed: attributed share "
              f"{metrics['attributed_share']:.4f} < "
              f"{measure.MIN_ATTRIBUTED_SHARE}", file=sys.stderr)
        correct = False
    report(args, result, metrics, units, reported)

    line = {"correct": correct, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}
    if args.history:
        record = {
            "time": datetime.datetime.now(datetime.timezone.utc)
                    .isoformat(timespec="seconds"),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "config": args.config, "clock": "wall",
            "host": host_fingerprint(), "git_commit": git_commit(),
            "source_sha256": tree_digest(SRC),
            "bench_sha256": tree_digest(HERE),
            "samples": {name: n for name, (_, n)
                        in result["end_to_end"].items()},
            "reported": reported, **line}
        with open(args.history, "a") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
