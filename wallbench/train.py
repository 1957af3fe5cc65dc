"""The ``train-fine`` and ``train-dense`` workloads.

Four Fathom models run round-robin in a closed loop. A round is one
training step of each model through a :class:`ResilientRunner` (nan
guard on) plus one inference step of each. Every ``PROFILE_EVERY``
rounds a profile round trains each model once more with a fresh per-op
:class:`Tracer` attached, as ``FathomModel.profile`` does; every
``CHECKPOINT_EVERY`` rounds each model's state is quorum-committed to
its own 3-replica store and restored into a ``Session.fork``.
"""

from __future__ import annotations

import gc
import math
import os
import shutil
import time

from repro import workloads
from repro.framework.resilience import ResilienceConfig, ResilientRunner
from repro.profiling.tracer import Tracer
from repro.storage import open_local_store

from measure import (Breakdown, CheckpointCycle, ProfileStats, Tally, Units,
                     settle,
                     finite, median, percentile)
from spans import SpanRecorder

MODELS = {
    "train-fine": ("seq2seq", "memnet", "speech", "deepq"),
    "train-dense": ("alexnet", "vgg", "residual", "autoenc"),
}

PROFILE_EVERY = 10
#: rounds between checkpoint commits: train-fine's small commits are
#: disk-latency bound and need more samples; train-dense's take ~0.7 s
#: with their checks, and more would leave fewer rounds than its tail
#: percentile needs
CHECKPOINT_EVERY = {"train-fine": 5, "train-dense": 20}
SETUPS = 3
REPLICAS = 3
#: the tail percentile: the highest with at least ten of the 110-170
#: rounds a run holds beyond it
TAIL = 90

#: end-to-end metric -> the path it times on these workloads
ALIASES = {
    "loop_ms.p50": "train_round_ms.p50",
    "loop_ms.tail": f"train_round_ms.p{TAIL}",
    "forward_ms.p50": "infer_round_ms.p50",
    "forward_ms.tail": f"infer_round_ms.p{TAIL}",
    "profile_ms.p50": "profile_round_ms.p50",
    "commit_ms.p50": "ckpt_commit_ms.p50",
    "restore_ms.p50": "ckpt_restore_ms.p50",
}


class TrainSet:
    """One set-up: models built and compiled, stores, one warm-up round."""

    def __init__(self, names, config: str, seed: int, root: str):
        start = time.perf_counter()
        self.models = [workloads.create(name, config=config, seed=seed)
                       for name in names]
        self.compile_s = 0.0
        for model in self.models:
            began = time.perf_counter()
            model.session.compile([model.loss, model.train_step])
            model.session.compile([model.inference_output])
            self.compile_s += time.perf_counter() - began
        self.stores = [open_local_store(os.path.join(root, model.name),
                                        replicas=REPLICAS, keep_last=1)
                       for model in self.models]
        self.runners = [ResilientRunner(model,
                                        ResilienceConfig(nan_guard=True))
                        for model in self.models]
        self.first_losses = [runner.run(1)[0] for runner in self.runners]
        for model in self.models:
            model.run_inference(1)
        self.setup_s = time.perf_counter() - start

    def instrument(self, spans: SpanRecorder) -> None:
        for model, runner, store in zip(self.models, self.runners,
                                        self.stores):
            spans.wrap(model, "sample_feed", "data.sample_feed")
            spans.wrap(model.session, "run", "session.run")
            spans.wrap(model.session, "state_snapshot",
                       "resilience.snapshot")
            spans.wrap(runner, "run", "resilience.runner")
            spans.wrap(store, "save_payload", "storage.quorum_write")
            spans.wrap(store, "fetch", "storage.fetch")

    def plan_cache(self) -> tuple[int, int]:
        return (sum(m.session.plan_cache_hits for m in self.models),
                sum(m.session.plan_compiles for m in self.models))


def check_first_round(bench: TrainSet, config: str, seed: int,
                      tally: Tally) -> None:
    """Each first-round loss equals a plain run_training(1), bit for bit."""
    for model, loss in zip(bench.models, bench.first_losses):
        fresh = workloads.create(model.name, config=config, seed=seed)
        expected = fresh.run_training(1)[0]
        tally.op(math.isfinite(loss)
                 and float(loss).hex() == float(expected).hex(),
                 f"{model.name}: first-round loss differs from a plain "
                 f"run_training(1)")


def run(workload: str, config: str, seed: int, seconds: float,
        trace: bool, workdir: str, spans_path: str) -> dict:
    setup_s, compile_s = [], []
    bench = None
    for _ in range(SETUPS):
        bench = None
        gc.collect()
        shutil.rmtree(workdir, ignore_errors=True)
        bench = TrainSet(MODELS[workload], config, seed, workdir)
        setup_s.append(bench.setup_s)
        compile_s.append(bench.compile_s)
    tally = Tally()
    check_first_round(bench, config, seed, tally)

    spans = SpanRecorder()
    if trace:
        bench.instrument(spans)
    models, runners = bench.models, bench.runners
    units = Units(spans)
    profile = ProfileStats()
    checkpoints = CheckpointCycle(models, bench.stores, spans)
    hits0, compiles0 = bench.plan_cache()

    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds == 0 or time.perf_counter() < deadline:
        # In the traced run, rounds alternate traced / untraced so the
        # span-tracing overhead is measured within one process; profile
        # and checkpoint rounds fall on even (traced) rounds.
        traced = trace and rounds % 2 == 0
        settle()
        losses = units.timed("train", traced,
                             lambda: [r.run(1)[0] for r in runners])
        for model, loss in zip(models, losses):
            tally.op(math.isfinite(loss), f"{model.name}: non-finite loss")
        outputs = units.timed("infer", traced,
                              lambda: [m.run_inference(1) for m in models])
        for model, output in zip(models, outputs):
            tally.op(finite(output), f"{model.name}: non-finite inference")
        if rounds % PROFILE_EVERY == 0:
            tracers = [Tracer() for _ in models]
            losses = units.timed("profile", traced, lambda: [
                m.run_training(1, tracer=t)[0]
                for m, t in zip(models, tracers)])
            profile.units += 1
            for model, tracer, loss in zip(models, tracers, losses):
                tally.op(math.isfinite(loss),
                         f"{model.name}: non-finite profiled loss")
                profile.add(model, tracer)
        if rounds % CHECKPOINT_EVERY[workload] == 0:
            checkpoints.run(units, traced, rounds, seed, tally)
        rounds += 1
    hits1, compiles1 = bench.plan_cache()
    write_failures, failovers = checkpoints.storage_failures(tally)
    result = {"tally": tally, "aliases": ALIASES, "rounds": rounds,
              "end_to_end": {}, "per_layer": {}, "shares": {}}
    if not trace:
        train, infer = units.untraced("train"), units.untraced("infer")
        result["end_to_end"] = {
            "setup_s": (median(setup_s), len(setup_s)),
            "loop_ms.p50": (median(train) * 1e3, len(train)),
            "loop_ms.tail": (percentile(train, TAIL) * 1e3, len(train)),
            "forward_ms.p50": (median(infer) * 1e3, len(infer)),
            "forward_ms.tail": (percentile(infer, TAIL) * 1e3, len(infer)),
            **{name: (median(units.untraced(kind)) * 1e3,
                      len(units.untraced(kind)))
               for name, kind in (("profile_ms.p50", "profile"),
                                  ("commit_ms.p50", "commit"),
                                  ("restore_ms.p50", "restore"))},
        }
        return result
    split = Breakdown(spans.breakdown())
    train_run = split.per_unit_ms("train", "session.run")
    profile_run = split.per_unit_ms("profile", "session.run")
    hits, compiles = hits1 - hits0, compiles1 - compiles0
    result["per_layer"] = {
        "data.sample_feed_ms": split.per_unit_ms("train", "data.sample_feed"),
        "resilience.snapshot_ms": split.per_unit_ms(
            "train", "resilience.snapshot"),
        "resilience.runner_self_ms": split.per_unit_ms(
            "train", "resilience.runner"),
        "session.train_run_ms": train_run,
        "session.infer_run_ms": split.per_unit_ms("infer", "session.run"),
        **profile.metrics(profile_run / 1e3 * profile.units),
        "compiler.compile_ms": median(compile_s) * 1e3,
        "compiler.plan_cache_hit_rate": hits / max(hits + compiles, 1),
        **checkpoints.layer_metrics(split),
        "storage.replica_write_failures": write_failures,
        "storage.failovers": failovers,
        "profiling.tracer_overhead": (profile_run / train_run - 1.0
                                      if train_run else 0.0),
        "unattributed_ms": split.unattributed_ms("train"),
        "attributed_share": split.attributed_share(),
        "trace.span_overhead": units.overhead("train"),
    }
    result["shares"] = split.shares()
    spans.dump(spans_path)
    return result
