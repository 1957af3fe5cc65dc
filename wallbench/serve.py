"""The ``serve-memnet`` workload.

A memnet :class:`InferenceServer` (``ServingConfig`` defaults: 2
replicas, 2 ms max wait, 100 ms deadline, ``SystemClock``) under two
traffic phases that alternate in cycles, so slow host drift lands on
both rather than on whichever ran last:

* **closed** — one client; each request is sent only after the
  previous reply (``submit`` then ``drain``, as a waiting caller does);
* **open** — seeded Poisson arrivals at ``RATE``, sent on schedule
  whatever the server is doing, each timed from when it was due.

Each cycle also profiles one inference batch with the per-op Tracer
and commits the served weights to a 3-replica store and restores them
into a ``Session.fork`` — the deployment path a replica is built from.

The open loop is driven here, not by ``repro.serving.LoadGenerator``:
on a ``SystemClock`` its schedule starts at ``due = 0.0`` against
``time.monotonic()``, so it never sleeps and sends everything at once
(see README.md).
"""

from __future__ import annotations

import gc
import shutil
import time
from collections import deque

import numpy as np

from repro import workloads
from repro.profiling.tracer import Tracer
from repro.storage import open_local_store

from measure import (Breakdown, CheckpointCycle, ProfileStats, Tally, Units,
                     settle,
                     bitwise_equal, mean_or_zero, median, percentile)
from spans import SpanRecorder

#: open-loop arrival rate (req/s): about a third of the rate where
#: shedding began in probes (~9k req/s on a 2-core host)
RATE = 3000.0
#: short phases, many cycles: the host's speed drifts by up to a
#: quarter between 0.3 s windows, so a run's figures settle only as the
#: median over many windows
CLOSED_PER_CYCLE = 200
OPEN_SECONDS = 0.5
POOL_BATCHES = 4
SETUPS = 3
REPLICAS = 3
#: per-cycle tails: the highest percentiles with at least ten of a
#: cycle's 200 closed or ~1500 open requests beyond them
CLOSED_TAIL = 95
OPEN_TAIL = 99

ALIASES = {
    "loop_ms.p50": "closed_ms.p50",
    "loop_ms.tail": f"closed_ms.p{CLOSED_TAIL}, median over cycles",
    "forward_ms.p50": "open_ms.p50",
    "forward_ms.tail": f"open_ms.p{OPEN_TAIL}, median over cycles",
    "profile_ms.p50": "profile_batch_ms.p50",
    "commit_ms.p50": "deploy_commit_ms.p50",
    "restore_ms.p50": "deploy_restore_ms.p50",
}


class ServeSet:
    """One set-up: model, server and store built, one warm-up cycle."""

    def __init__(self, config: str, seed: int, root: str, tally: Tally):
        start = time.perf_counter()
        self.model = model = workloads.create("memnet", config=config,
                                              seed=seed)
        began = time.perf_counter()
        model.session.compile([model.inference_output])
        self.compile_s = time.perf_counter() - began
        self.server = model.serve()
        self.store = open_local_store(root, replicas=REPLICAS, keep_last=1)
        built = time.perf_counter() - start
        # The request pool and its reference outputs are inputs, made
        # outside the set-up time: one direct inference Session.run per
        # pool batch, whose rows every served reply must equal bitwise.
        codec = self.server.codec
        self.batches, self.references, self.pool = [], [], []
        for _ in range(POOL_BATCHES):
            batch = model.sample_feed(training=False)
            reference = model.session.run(model.inference_output,
                                          feed_dict=batch)
            self.batches.append(batch)
            self.references.append(reference)
            for index, feed in enumerate(codec.split_feed(batch)):
                self.pool.append((feed, codec.extract(reference, index)))
        self.rng = np.random.default_rng(seed)
        self.spans = SpanRecorder()
        start = time.perf_counter()
        self.closed(len(self.pool), tally)
        self.open(0.1, tally)
        self.setup_s = built + time.perf_counter() - start

    @property
    def deadline_s(self) -> float:
        return self.server.config.default_deadline_ms / 1000.0

    def instrument(self) -> None:
        server, model, spans = self.server, self.model, self.spans
        spans.wrap(server, "submit", "serving.submit")
        spans.wrap(server, "pump", "serving.pump")
        spans.wrap(server, "drain", "serving.drain")
        spans.wrap(server.codec, "assemble", "serving.assemble")
        spans.wrap(server.codec, "extract", "serving.extract")
        for replica in server.replicas:
            spans.wrap(replica, "run_batch", "serving.run_batch")
            spans.wrap(replica.session, "run", "session.run")
        spans.wrap(model.session, "run", "session.run")
        spans.wrap(self.store, "save_payload", "storage.quorum_write")
        spans.wrap(self.store, "fetch", "storage.fetch")

    def _check(self, request_id: int, pick: int, tally: Tally,
               latency_s: float) -> float:
        """Check one reply; returns its latency, at least the deadline
        when it missed (shed, expired, errored, or late)."""
        reply = self.server.result(request_id)
        served = reply is not None and reply.outcome == "ok"
        if served and latency_s <= self.deadline_s:
            tally.op(bitwise_equal(reply.value, self.pool[pick][1]),
                     "served reply differs from the direct run")
            return latency_s
        outcome = reply.outcome if reply is not None else "missing"
        tally.op(False, f"request {outcome if not served else 'late'}",
                 output_check=False)
        return max(latency_s, self.deadline_s)

    def closed(self, count: int, tally: Tally,
               traced: bool = False) -> list[float]:
        """Send ``count`` requests, each after the previous reply;
        returns their latencies in ms."""
        server = self.server
        latencies = []
        for pick in self.rng.integers(len(self.pool), size=count):
            with self.spans.unit("closed", traced):
                began = time.perf_counter()
                request_id = server.submit(self.pool[pick][0])
                server.drain()
                latency = time.perf_counter() - began
            latencies.append(
                self._check(request_id, pick, tally, latency) * 1e3)
        return latencies

    def open(self, seconds: float, tally: Tally,
             traced: bool = False) -> tuple[list[float], list[float]]:
        """Send Poisson arrivals on schedule for ``seconds``; returns
        the latencies and how late each request was sent, in ms.

        The generator sleeps until the next arrival is due or the oldest
        queued request has waited ``max_wait`` (then pumps, as a server
        loop would), and pumps at once when a full batch is queued.
        Latency runs from each request's due time, so a stall also
        charges the requests scheduled behind it.
        """
        server, clock = self.server, self.server.clock
        max_wait = server.config.max_wait_ms / 1000.0
        max_batch = server.batcher.max_batch
        expected = int(RATE * seconds * 1.5) + 16
        offsets = np.cumsum(self.rng.exponential(1.0 / RATE, size=expected))
        offsets = offsets[offsets < seconds]
        picks = self.rng.integers(len(self.pool), size=len(offsets))
        sent = []       # (request id, submit time, due time, pick)
        queued = deque()  # (request id, submit time) still without a reply
        with self.spans.unit("open", traced):
            origin = clock.now()
            index = 0
            while index < len(offsets):
                now = clock.now()
                due = origin + offsets[index]
                if now >= due:
                    request_id = server.submit(self.pool[picks[index]][0])
                    sent.append((request_id, now, due, picks[index]))
                    queued.append((request_id, now))
                    index += 1
                    if server.queue_depth >= max_batch:
                        server.pump()
                    continue
                while queued and server.result(queued[0][0]) is not None:
                    queued.popleft()
                wake = due
                if queued:
                    ready_at = queued[0][1] + max_wait
                    if ready_at <= now:
                        server.pump()
                        continue
                    wake = min(wake, ready_at)
                with self.spans.span("generator.wait"):
                    time.sleep(wake - now)
            server.drain()
        latencies, lateness = [], []
        for request_id, submitted, due, pick in sent:
            reply = server.result(request_id)
            served_s = reply.latency_ms / 1e3 if reply is not None else 0.0
            latency = self._check(request_id, pick, tally,
                                  submitted - due + served_s)
            latencies.append(latency * 1e3)
            lateness.append((submitted - due) * 1e3)
        return latencies, lateness


def run(workload: str, config: str, seed: int, seconds: float,
        trace: bool, workdir: str, spans_path: str) -> dict:
    tally = Tally()
    setup_s, compile_s = [], []
    bench = None
    for _ in range(SETUPS):
        bench = None
        gc.collect()
        shutil.rmtree(workdir, ignore_errors=True)
        bench = ServeSet(config, seed, workdir, tally)
        setup_s.append(bench.setup_s)
        compile_s.append(bench.compile_s)

    if trace:
        bench.instrument()
    server, model, spans = bench.server, bench.model, bench.spans
    units = Units(spans)
    profile = ProfileStats()
    checkpoints = CheckpointCycle([model], [bench.store], spans)
    counters0 = dict(server.counters)
    batches0 = server.batches_dispatched
    sessions = [model.session] + [r.session for r in server.replicas]
    hits0 = sum(s.plan_cache_hits for s in sessions)
    compiles0 = sum(s.plan_compiles for s in sessions)
    closed: dict[bool, list[float]] = {True: [], False: []}
    closed_tails, open_ms, open_tails, lateness = [], [], [], []

    deadline = time.perf_counter() + seconds
    cycle = 0
    while cycle == 0 or time.perf_counter() < deadline:
        traced = trace and cycle % 2 == 0
        settle()
        latencies = bench.closed(CLOSED_PER_CYCLE, tally, traced)
        closed[traced].extend(latencies)
        closed_tails.append(percentile(latencies, CLOSED_TAIL))
        latencies, late = bench.open(OPEN_SECONDS, tally, traced)
        open_ms.extend(latencies)
        open_tails.append(percentile(latencies, OPEN_TAIL))
        lateness.extend(late)
        index = cycle % POOL_BATCHES
        batch, reference = bench.batches[index], bench.references[index]
        # One untimed run first, so the timed direct and traced runs
        # below both find the same warm caches.
        runs = [model.session.run(model.inference_output, feed_dict=batch)]
        runs.append(units.timed("infer", traced, lambda: model.session.run(
            model.inference_output, feed_dict=batch)))
        tracer = Tracer()
        runs.append(units.timed("profile", traced, lambda: model.session.run(
            model.inference_output, feed_dict=batch, tracer=tracer)))
        profile.units += 1
        profile.add(model, tracer)
        for output in runs:
            tally.op(bitwise_equal(output, reference),
                     "direct inference differs from the reference")
        checkpoints.run(units, traced, cycle, seed, tally)
        cycle += 1
    write_failures, failovers = checkpoints.storage_failures(tally)
    result = {"tally": tally, "aliases": ALIASES, "rounds": cycle,
              "end_to_end": {}, "per_layer": {}, "shares": {}}
    if not trace:
        result["end_to_end"] = {
            "setup_s": (median(setup_s), len(setup_s)),
            "loop_ms.p50": (median(closed[False]), len(closed[False])),
            "loop_ms.tail": (median(closed_tails), len(closed[False])),
            "forward_ms.p50": (median(open_ms), len(open_ms)),
            "forward_ms.tail": (median(open_tails), len(open_ms)),
            **{name: (median(units.untraced(kind)) * 1e3,
                      len(units.untraced(kind)))
               for name, kind in (("profile_ms.p50", "profile"),
                                  ("commit_ms.p50", "commit"),
                                  ("restore_ms.p50", "restore"))},
        }
        return result
    split = Breakdown(spans.breakdown())
    infer_run = split.per_unit_ms("infer", "session.run")
    profile_run = split.per_unit_ms("profile", "session.run")
    requests = ("closed", "open")
    served = sum(server.counters[k] - counters0[k] for k in ("ok", "deadline"))
    batches = server.batches_dispatched - batches0
    server_self = (split.self_s("serving.pump", requests)
                   + split.self_s("serving.drain", requests))
    hits = sum(s.plan_cache_hits for s in sessions) - hits0
    compiles = sum(s.plan_compiles for s in sessions) - compiles0
    traced_requests = len(split.calls("serving.submit", requests))
    result["per_layer"] = {
        "session.infer_run_ms": infer_run,
        **profile.metrics(profile_run / 1e3 * profile.units),
        "compiler.compile_ms": median(compile_s) * 1e3,
        "compiler.plan_cache_hit_rate": hits / max(hits + compiles, 1),
        **checkpoints.layer_metrics(split),
        "storage.replica_write_failures": write_failures,
        "storage.failovers": failovers,
        "profiling.tracer_overhead": (profile_run / infer_run - 1.0
                                      if infer_run else 0.0),
        "serving.submit_us": mean_or_zero(
            split.calls("serving.submit", requests), 1e6),
        "serving.run_batch_ms": mean_or_zero(
            split.calls("serving.run_batch", requests), 1e3),
        "serving.assemble_us": mean_or_zero(
            split.calls("serving.assemble", requests), 1e6),
        "serving.extract_us": mean_or_zero(
            split.calls("serving.extract", requests), 1e6),
        "serving.server_self_ms": server_self / max(traced_requests, 1) * 1e3,
        "serving.batch_fill": served / max(batches * server.batcher.max_batch,
                                           1),
        **{f"serving.{k}": server.counters[k] - counters0[k]
           for k in ("shed", "deadline", "error", "hedges")},
        "generator.lateness_ms.p99": percentile(lateness, 99),
        "generator.lateness_ms.max": max(lateness),
        "unattributed_ms": split.unattributed_ms("closed"),
        "attributed_share": split.attributed_share(),
        "trace.span_overhead": median(closed[True]) / median(closed[False])
        - 1.0,
    }
    result["shares"] = split.shares()
    spans.dump(spans_path)
    return result
