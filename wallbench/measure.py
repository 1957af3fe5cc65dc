"""Metric names, output checks, and the per-op profile summary.

Every workload prints every metric named here, so one set of names,
units and bounds serves all of them. End-to-end names are shared
across workloads and mean that workload's path of the same kind; the
``ALIASES`` tables in ``train.py`` and ``serve.py`` give the
per-workload meaning, and the README lists both.
"""

from __future__ import annotations

import gc
import time
from collections import Counter, defaultdict

import numpy as np

from repro.framework import checkpoint
from repro.framework.checkpoint import CheckpointError
from repro.analysis.phases import PHASES
from repro.framework.errors import StorageError
from repro.framework.graph import OpClass
from repro.profiling.taxonomy import GROUP_ORDER, figure_group
from repro.storage import state_digests

#: (name, unit, better, bound): the gated end-to-end metrics. ``bound``
#: is the share of the parent's median by which the metric may worsen
#: before a change is refused; the timings sit at the 0.25 maximum
#: because the host's speed drifts (see README.md, "Run-to-run spread").
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("loop_ms.tail", "ms", "lower", 0.25),
    ("forward_ms.tail", "ms", "lower", 0.25),
    ("commit_ms.p50", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

#: (name, unit): end-to-end medians every run prints and records but
#: nothing gates. The host this was sized on switches for minutes at a
#: time between two speeds ~25% apart, and a run's median lands on
#: whichever held most of the run: over ten seeds train-fine's round
#: median spread by 26% where its p90, pinned to the slow speed every
#: run contains, spread by 15%.
REPORTED = [
    ("loop_ms.p50", "ms"),
    ("forward_ms.p50", "ms"),
    ("profile_ms.p50", "ms"),
    ("restore_ms.p50", "ms"),
]

#: (name, unit, better); a layer a workload does not exercise reports 0
PER_LAYER = [
    ("data.sample_feed_ms", "ms", "lower"),
    ("resilience.snapshot_ms", "ms", "lower"),
    ("resilience.runner_self_ms", "ms", "lower"),
    ("session.train_run_ms", "ms", "lower"),
    ("session.infer_run_ms", "ms", "lower"),
    ("session.kernel_ms", "ms", "lower"),
    ("session.dispatch_ms", "ms", "lower"),
    *[(f"session.kernel_ms.{g}", "ms", "lower") for g in GROUP_ORDER],
    *[(f"session.phase_ms.{p}", "ms", "lower") for p in PHASES],
    ("session.ops_per_round", "count", "lower"),
    ("compiler.compile_ms", "ms", "lower"),
    ("compiler.plan_cache_hit_rate", "ratio", "higher"),
    ("checkpoint.serialize_ms", "ms", "lower"),
    ("checkpoint.bytes", "bytes", "lower"),
    ("storage.quorum_write_ms", "ms", "lower"),
    ("storage.fetch_ms", "ms", "lower"),
    ("checkpoint.apply_ms", "ms", "lower"),
    ("storage.replica_write_failures", "count", "lower"),
    ("storage.failovers", "count", "lower"),
    ("profiling.tracer_overhead", "ratio", "lower"),
    ("profiling.records_per_round", "count", "lower"),
    ("serving.submit_us", "us", "lower"),
    ("serving.run_batch_ms", "ms", "lower"),
    ("serving.assemble_us", "us", "lower"),
    ("serving.extract_us", "us", "lower"),
    ("serving.server_self_ms", "ms", "lower"),
    ("serving.batch_fill", "ratio", "higher"),
    ("serving.shed", "count", "lower"),
    ("serving.deadline", "count", "lower"),
    ("serving.error", "count", "lower"),
    ("serving.hedges", "count", "lower"),
    ("generator.lateness_ms.p99", "ms", "lower"),
    ("generator.lateness_ms.max", "ms", "lower"),
    ("unattributed_ms", "ms", "lower"),
    ("attributed_share", "ratio", "higher"),
    ("trace.span_overhead", "ratio", "lower"),
]

#: the traced run fails its attribution check below this share
MIN_ATTRIBUTED_SHARE = 0.95


def settle() -> None:
    """Collect garbage and freeze the survivors, between timed units.

    Objects that outlive a unit (the server's reply and event history,
    the runners' event logs) make each full collection longer than the
    last; left alone, one lands inside whichever timed unit it happens
    to fall in, and the tail measures where it fell. Collecting here,
    untimed, and freezing what survives keeps later collections small.
    """
    gc.collect()
    gc.freeze()


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values) -> float:
    return percentile(values, 50)


def bitwise_equal(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


def finite(value) -> bool:
    return bool(np.isfinite(np.asarray(value, dtype=float)).all())


class Tally:
    """Attempted and failed operations, and which output checks broke.

    ``failed`` counts every failed operation (the error rate's
    numerator); ``wrong`` counts only failed *output checks* — a wrong
    value, where a shed request or a missed quorum is merely a failure.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.reasons: Counter = Counter()

    def op(self, ok: bool, reason: str, output_check: bool = True) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons[reason] += 1
            if output_check:
                self.wrong += 1

    def failures(self, count: int, reason: str) -> None:
        """Record ``count`` failed sub-operations reported by a counter."""
        if count:
            self.attempted += count
            self.failed += count
            self.reasons[reason] += count


class ProfileStats:
    """Per-op Tracer records of the profile units, summed by class/phase.

    Phases are classified as in :mod:`repro.analysis.phases`: an op
    also needed for inference is forward, one needed only for the loss
    is loss, an optimizer-class op is optimizer, the rest backward. An
    op the compiler created (a fused LSTM cell, a folded constant) is
    classified by the graph ops it came from (its plan provenance).
    """

    def __init__(self):
        self.units = 0
        self.records = 0
        self.compute_records = 0
        self.kernel_s = 0.0
        self.group_s = dict.fromkeys(GROUP_ORDER, 0.0)
        self.phase_s = dict.fromkeys(PHASES, 0.0)
        self._classifiers: dict[int, tuple] = {}

    def _classifier(self, model) -> tuple:
        key = id(model)
        if key not in self._classifiers:
            origin = {}
            for fetches in ([model.loss, model.train_step],
                            [model.inference_output]):
                for step in model.session.compile(fetches).steps:
                    provenance = getattr(step, "provenance", None)
                    if provenance:
                        origin[id(step.op)] = tuple(provenance)
            graph = model.graph
            inference = {op.name for op in
                         graph.subgraph([model.inference_output])}
            loss = {op.name for op in graph.subgraph([model.loss])}
            self._classifiers[key] = (origin, inference, loss - inference)
        return self._classifiers[key]

    def _phase(self, model, op) -> str:
        origin, inference, loss = self._classifier(model)
        names = origin.get(id(op)) or (op.name,)
        if any(name in inference for name in names):
            return "forward"
        if any(name in loss for name in names):
            return "loss"
        if op.op_class is OpClass.OPTIMIZATION:
            return "optimizer"
        return "backward"

    def add(self, model, tracer) -> None:
        """Fold one model's traced step into the current profile unit."""
        self.records += len(tracer.records)
        self.kernel_s += tracer.total_op_seconds()
        for record in tracer.compute_records():
            self.compute_records += 1
            group = figure_group(record.op)
            if group is not None:
                self.group_s[group] += record.seconds
            self.phase_s[self._phase(model, record.op)] += record.seconds

    def metrics(self, profile_run_s: float) -> dict[str, float]:
        """Per profile unit; ``profile_run_s`` is the units' Session.run
        span time, so dispatch is what the executor spent outside ops."""
        n = max(self.units, 1)
        out = {
            "session.kernel_ms": self.kernel_s / n * 1e3,
            "session.dispatch_ms": (profile_run_s - self.kernel_s) / n * 1e3,
            "session.ops_per_round": self.compute_records / n,
            "profiling.records_per_round": self.records / n,
        }
        for group, seconds in self.group_s.items():
            out[f"session.kernel_ms.{group}"] = seconds / n * 1e3
        for phase, seconds in self.phase_s.items():
            out[f"session.phase_ms.{phase}"] = seconds / n * 1e3
        return out


class Breakdown:
    """Per-unit layer figures from :meth:`SpanRecorder.breakdown`."""

    def __init__(self, kinds: dict):
        self.kinds = kinds

    def per_unit_ms(self, kind: str, layer: str) -> float:
        entry = self.kinds.get(kind)
        if not entry or not entry["count"]:
            return 0.0
        return entry["layers"].get(layer, 0.0) / entry["count"] * 1e3

    def calls(self, layer: str, kinds) -> list[float]:
        out: list[float] = []
        for kind in kinds:
            entry = self.kinds.get(kind)
            if entry:
                out.extend(entry["calls"].get(layer, ()))
        return out

    def self_s(self, layer: str, kinds) -> float:
        """Total self seconds of ``layer`` across units of ``kinds``."""
        return sum(self.kinds[kind]["layers"].get(layer, 0.0)
                   for kind in kinds if kind in self.kinds)

    def unattributed_ms(self, kind: str) -> float:
        entry = self.kinds.get(kind)
        if not entry or not entry["count"]:
            return 0.0
        return entry["unattributed"] / entry["count"] * 1e3

    def shares(self) -> dict[str, float]:
        """Attributed share of each unit kind's total time."""
        return {kind: 1.0 - entry["unattributed"] / entry["total"]
                for kind, entry in self.kinds.items() if entry["total"] > 0}

    def attributed_share(self) -> float:
        """Attributed share of all timed units' total time."""
        total = sum(e["total"] for e in self.kinds.values())
        missing = sum(e["unattributed"] for e in self.kinds.values())
        return 1.0 - missing / total if total else 0.0


class Units:
    """Wall-clock samples of each unit kind, split traced / untraced."""

    def __init__(self, spans):
        self.spans = spans
        self.samples: dict[tuple[str, bool], list[float]] = defaultdict(list)

    def timed(self, kind: str, traced: bool, body):
        """Run ``body`` as one unit of ``kind`` and keep its duration."""
        with self.spans.unit(kind, traced):
            began = time.perf_counter()
            result = body()
            self.samples[kind, traced].append(time.perf_counter() - began)
        return result

    def untraced(self, kind: str) -> list[float]:
        return self.samples[kind, False]

    def overhead(self, kind: str) -> float:
        """Median traced unit over median untraced unit, minus one."""
        traced, plain = self.samples[kind, True], self.samples[kind, False]
        if not traced or not plain:
            return 0.0
        return median(traced) / median(plain) - 1.0


class CheckpointCycle:
    """Quorum-commit models to their stores, restore them into forks.

    ``save_bytes`` + ``save_payload`` is exactly what
    ``ReplicatedCheckpointStore.save`` does, and ``fetch`` +
    ``restore_bytes`` exactly its ``restore``; calling the halves lets
    the traced run time serialization and storage apart.
    """

    def __init__(self, models, stores, spans):
        self.models, self.stores, self.spans = models, stores, spans
        self.commit_bytes: list[int] = []

    def commit(self, step: int) -> list:
        records, nbytes = [], 0
        for model, store in zip(self.models, self.stores):
            with self.spans.span("checkpoint.serialize"):
                data = checkpoint.save_bytes(model.session)
            nbytes += len(data)
            try:
                records.append(store.save_payload(data, step=step))
            except StorageError:
                records.append(None)
        self.commit_bytes.append(nbytes)
        return records

    def restore(self, forks, records) -> list[bool]:
        restored = []
        for fork, store, record in zip(forks, self.stores, records):
            if record is None:
                restored.append(False)
                continue
            try:
                payload = store.fetch(record.checkpoint_id)
                with self.spans.span("checkpoint.apply"):
                    checkpoint.restore_bytes(fork, payload)
                restored.append(True)
            except (StorageError, CheckpointError):
                restored.append(False)
        return restored

    def run(self, units: Units, traced: bool, step: int, seed: int,
            tally: Tally) -> None:
        records = units.timed("commit", traced, lambda: self.commit(step))
        forks = [model.session.fork(seed=seed) for model in self.models]
        restored = units.timed("restore", traced,
                               lambda: self.restore(forks, records))
        for model, fork, record, ok in zip(self.models, forks, records,
                                           restored):
            tally.op(record is not None, f"{model.name}: commit missed quorum",
                     output_check=False)
            tally.op(ok and state_digests(fork) == state_digests(model.session),
                     f"{model.name}: restored state differs")

    def storage_failures(self, tally: Tally) -> tuple[int, int]:
        """Replica write failures and failed-over reads, fed to ``tally``."""
        writes = sum(s.counters["replica_write_failures"] for s in self.stores)
        reads = sum(s.counters["failovers"] + s.counters["corrupt_replicas"]
                    for s in self.stores)
        tally.failures(writes, "replica write failed")
        tally.failures(reads, "replica read failed over")
        return writes, reads

    def layer_metrics(self, split: "Breakdown") -> dict[str, float]:
        return {
            "checkpoint.serialize_ms": split.per_unit_ms(
                "commit", "checkpoint.serialize"),
            "checkpoint.bytes": mean_or_zero(self.commit_bytes),
            "storage.quorum_write_ms": split.per_unit_ms(
                "commit", "storage.quorum_write"),
            "storage.fetch_ms": split.per_unit_ms("restore", "storage.fetch"),
            "checkpoint.apply_ms": split.per_unit_ms(
                "restore", "checkpoint.apply"),
        }


def mean_or_zero(values, scale: float = 1.0) -> float:
    return float(np.mean(values)) * scale if len(values) else 0.0
