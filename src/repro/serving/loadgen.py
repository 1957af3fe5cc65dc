"""Load generation and the SLO summary report.

:class:`LoadGenerator` drives an
:class:`~repro.serving.server.InferenceServer` with synthetic request
traffic drawn from the workload's own ``sample_feed``:

* **open loop** (``qps > 0``) — requests arrive on a seeded-jitter
  Poisson-ish schedule regardless of how the server is coping. This is
  the honest way to measure a saturated server: a closed loop slows its
  own arrival rate when the server struggles and hides the overload
  (the classic coordinated-omission trap).
* **closed loop** (``qps == 0``) — each request is submitted only after
  the previous one's reply, measuring unloaded service latency.

:class:`ServingReport` condenses a run into SLO numbers: p50/p95/p99
latency over serviced requests, outcome counts, shed/hedge/probe/
restart/breaker counters, and final per-replica tiers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class LoadConfig:
    """Knobs for :class:`LoadGenerator`.

    Args:
        requests: total requests to submit.
        qps: open-loop arrival rate; ``0`` switches to closed loop.
        deadline_ms: per-request deadline (``None`` = server default).
        jitter: +/- fraction of seeded jitter on open-loop inter-arrival
            gaps.
        seed: jitter stream seed.
    """

    requests: int = 64
    qps: float = 0.0
    deadline_ms: float | None = None
    jitter: float = 0.25
    seed: int = 0


class LoadGenerator:
    """Synthetic request traffic for one workload's server."""

    def __init__(self, server, config: LoadConfig | None = None):
        self.server = server
        self.config = config or LoadConfig()
        self._rng = np.random.default_rng(
            np.random.SeedSequence(self.config.seed,
                                   spawn_key=(0x10AD,)))
        self._pool = server.codec.split_feed(
            server.model.sample_feed(training=False))

    def _feed(self, index: int):
        return self._pool[index % len(self._pool)]

    def _gap(self) -> float:
        """One open-loop inter-arrival gap, seeded-jittered."""
        base = 1.0 / self.config.qps
        spread = self.config.jitter * base
        return max(0.0, base + self._rng.uniform(-spread, spread))

    def run(self) -> "ServingReport":
        """Submit every request, drive the server to completion."""
        server, config = self.server, self.config
        if config.qps > 0:
            # True open loop: arrivals follow a precomputed absolute
            # schedule, anchored at the clock's time when the run starts
            # (a virtual clock's 0.0, a real clock's monotonic now). A
            # slow batch does NOT push later arrivals out (the
            # coordinated-omission trap) — requests whose arrival time
            # already passed while the server was busy are submitted
            # immediately as a backlog burst.
            due = server.clock.now()
            for index in range(config.requests):
                now = server.clock.now()
                if now < due:
                    server.clock.sleep(due - now)
                server.submit(self._feed(index),
                              deadline_ms=config.deadline_ms)
                due += self._gap()
                if server.clock.now() < due:
                    # Caught up with the schedule: let the server work
                    # until the next arrival. While behind schedule,
                    # overdue arrivals burst in back-to-back instead —
                    # the backlog lands on the queue, not on the clock.
                    server.pump()
            server.drain()
        else:
            for index in range(config.requests):
                server.submit(self._feed(index),
                              deadline_ms=config.deadline_ms)
                server.drain()
        # Duck-typed: an InferenceServer returns a ServingReport, a
        # ServingFleet a FleetReport — same generator drives both.
        return server.report()


def _percentile(latencies: list[float], q: float) -> float:
    if not latencies:
        return 0.0
    return float(np.percentile(np.asarray(latencies), q))


@dataclass
class ServingReport:
    """SLO summary of one serving run (JSON-serializable)."""

    workload: str
    requests: int = 0
    accepted: int = 0
    ok: int = 0
    shed: int = 0
    deadline: int = 0
    error: int = 0
    hedges: int = 0
    probes: int = 0
    restarts: int = 0
    breaker_opens: int = 0
    breaker_closes: int = 0
    batches: int = 0
    p50_ms: float = 0.0
    p95_ms: float = 0.0
    p99_ms: float = 0.0
    mean_ms: float = 0.0
    replica_tiers: list[str] = field(default_factory=list)

    @classmethod
    def from_server(cls, server) -> "ServingReport":
        counters = server.counters
        latencies = server.latencies_ms
        return cls(
            workload=server.model.name,
            requests=len(server.replies),
            accepted=counters["accepted"],
            ok=counters["ok"],
            shed=counters["shed"],
            deadline=counters["deadline"],
            error=counters["error"],
            hedges=counters["hedges"],
            probes=counters["probes"],
            restarts=sum(r.restarts for r in server.replicas),
            breaker_opens=sum(r.breaker.opens for r in server.replicas),
            breaker_closes=sum(r.breaker.closes
                               for r in server.replicas),
            batches=server.batches_dispatched,
            p50_ms=_percentile(latencies, 50),
            p95_ms=_percentile(latencies, 95),
            p99_ms=_percentile(latencies, 99),
            mean_ms=(float(np.mean(latencies)) if latencies else 0.0),
            replica_tiers=[r.tier for r in server.replicas])

    @property
    def attainment(self) -> float:
        """Fraction of *accepted* requests answered on time."""
        return self.ok / self.accepted if self.accepted else 0.0

    @property
    def shed_rate(self) -> float:
        """Fraction of all requests shed at admission."""
        return self.shed / self.requests if self.requests else 0.0

    def to_json(self) -> dict:
        blob = dict(self.__dict__)
        blob["attainment"] = self.attainment
        blob["shed_rate"] = self.shed_rate
        return blob

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_json(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    def render(self) -> str:
        """A terminal-friendly summary for ``repro serve``."""
        lines = [
            f"serving report: {self.workload}",
            f"  requests   {self.requests:>6}  "
            f"(accepted {self.accepted}, shed {self.shed})",
            f"  outcomes   ok {self.ok}  deadline {self.deadline}  "
            f"error {self.error}",
            f"  latency    p50 {self.p50_ms:.2f} ms  "
            f"p95 {self.p95_ms:.2f} ms  p99 {self.p99_ms:.2f} ms",
            f"  attainment {self.attainment * 100:.1f}%  "
            f"shed rate {self.shed_rate * 100:.1f}%",
            f"  resilience hedges {self.hedges}  probes {self.probes}  "
            f"restarts {self.restarts}  breaker "
            f"{self.breaker_opens}->{self.breaker_closes} open->close",
            f"  replicas   {self.batches} batches; final tiers: "
            + ", ".join(self.replica_tiers),
        ]
        return "\n".join(lines)
