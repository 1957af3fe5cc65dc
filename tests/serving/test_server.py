"""Tests for the serving engine: dispatch, failover, degradation, SLOs."""

import time

import numpy as np
import pytest

from repro import workloads
from repro.framework.errors import (DeadlineExceededError, RequestRejected,
                                    ServingError)
from repro.framework.clock import SystemClock
from repro.framework.faults import ServingFaultPlan, ServingFaultSpec
from repro.profiling.tracer import Tracer
from repro.serving import (InferenceServer, LoadConfig, LoadGenerator,
                           ServingConfig, VirtualClock)


@pytest.fixture(scope="module")
def memnet():
    return workloads.create("memnet", config="tiny", seed=0)


def make_server(model, tracer=None, **kwargs):
    kwargs.setdefault("replicas", 2)
    kwargs.setdefault("default_deadline_ms", 1000.0)
    return InferenceServer(model, ServingConfig(**kwargs), tracer=tracer,
                           clock=VirtualClock())


class TestPlainServing:
    def test_replies_match_direct_inference(self, memnet):
        """A fault-free served batch is bit-identical to Session.run."""
        server = make_server(memnet)
        feed = memnet.sample_feed(training=False)
        reference = memnet.session.run(memnet.inference_output,
                                       feed_dict=feed)
        ids = server.submit_batch(feed)
        server.drain()
        for index, request_id in enumerate(ids):
            reply = server.result(request_id)
            assert reply.outcome == "ok"
            np.testing.assert_array_equal(reply.value,
                                          reference[index])

    def test_partial_batch_serves_with_padding(self, memnet):
        server = make_server(memnet)
        feed = memnet.sample_feed(training=False)
        single = server.codec.split_feed(feed)[0]
        request_id = server.submit(single)
        server.drain()
        reply = server.result(request_id)
        assert reply.outcome == "ok"
        reference = memnet.session.run(memnet.inference_output,
                                       feed_dict=feed)
        np.testing.assert_array_equal(reply.value, reference[0])

    def test_every_submission_reaches_a_terminal_reply(self, memnet):
        server = make_server(memnet)
        feed = memnet.sample_feed(training=False)
        ids = []
        for _ in range(3):
            ids.extend(server.submit_batch(feed))
        server.drain()
        assert sorted(server.replies) == sorted(ids)
        counters = server.counters
        assert (counters["ok"] + counters["shed"] + counters["deadline"]
                + counters["error"]) == len(ids)


class TestAdmissionControl:
    def test_queue_full_sheds_immediately(self, memnet):
        server = make_server(memnet, replicas=1, queue_limit=3)
        single = server.codec.split_feed(
            memnet.sample_feed(training=False))[0]
        ids = [server.submit(single) for _ in range(5)]
        shed = [i for i in ids if server.result(i) is not None]
        assert len(shed) == 2
        for request_id in shed:
            reply = server.result(request_id)
            assert reply.outcome == "shed"
            assert reply.error == "queue_full"
            with pytest.raises(RequestRejected):
                reply.raise_for_outcome()
        server.drain()
        assert server.counters["ok"] == 3

    def test_unmeetable_deadline_sheds_at_submit(self, memnet):
        server = make_server(memnet, replicas=1, est_batch_ms=50.0)
        single = server.codec.split_feed(
            memnet.sample_feed(training=False))[0]
        request_id = server.submit(single, deadline_ms=5.0)
        reply = server.result(request_id)
        assert reply is not None and reply.outcome == "shed"
        assert reply.error == "deadline_unmeetable"

    def test_expired_request_answered_as_deadline_miss(self, memnet):
        server = make_server(memnet, replicas=1)
        single = server.codec.split_feed(
            memnet.sample_feed(training=False))[0]
        request_id = server.submit(single, deadline_ms=10.0)
        server.clock.sleep(0.05)  # deadline passes while queued
        server.drain()
        reply = server.result(request_id)
        assert reply.outcome == "deadline"
        assert reply.value is None
        with pytest.raises(DeadlineExceededError):
            reply.raise_for_outcome()


class TestCrashFailover:
    def test_crash_hedges_to_healthy_replica(self, memnet):
        tracer = Tracer()
        server = make_server(memnet, tracer=tracer)
        server.install_faults(ServingFaultPlan(
            [ServingFaultSpec("replica_crash", replica=0, batch=0)]))
        ids = server.submit_batch(memnet.sample_feed(training=False))
        server.drain()
        assert all(server.result(i).outcome == "ok" for i in ids)
        assert server.replicas[0].restarts == 1
        assert server.replicas[0].breaker.opens == 1
        kinds = {e.kind for e in tracer.serving_events()}
        assert {"replica_restart", "hedge", "breaker_open",
                "reply"} <= kinds

    def test_single_replica_crash_recovers_via_probe(self, memnet):
        """With nowhere to fail over, the server waits out the breaker."""
        server = make_server(memnet, replicas=1,
                             default_deadline_ms=0.0)
        server.install_faults(ServingFaultPlan(
            [ServingFaultSpec("replica_crash", replica=0, batch=0)]))
        ids = server.submit_batch(memnet.sample_feed(training=False))
        server.drain()
        assert all(server.result(i).outcome == "ok" for i in ids)
        assert server.counters["probes"] >= 1

    def test_hedge_budget_bounds_retries(self, memnet):
        """A replica that always crashes cannot hang the server."""
        server = make_server(memnet, replicas=1, max_hedges=2,
                             default_deadline_ms=0.0)
        server.install_faults(ServingFaultPlan(
            [ServingFaultSpec("replica_crash", max_triggers=None)]))
        single = server.codec.split_feed(
            memnet.sample_feed(training=False))[0]
        request_id = server.submit(single)
        server.drain()
        reply = server.result(request_id)
        assert reply.outcome == "error"
        assert reply.hedges == 3  # initial attempt + 2 hedges
        with pytest.raises(ServingError):
            reply.raise_for_outcome()


class TestDegradeDontDie:
    def test_poison_demotes_then_reescalates(self, memnet):
        tracer = Tracer()
        server = make_server(memnet, tracer=tracer, replicas=1,
                             max_hedges=3, default_deadline_ms=0.0)
        server.install_faults(ServingFaultPlan(
            [ServingFaultSpec("poisoned_batch", max_triggers=2)]))
        single = server.codec.split_feed(
            memnet.sample_feed(training=False))[0]
        first = server.submit(single)
        server.drain()
        assert server.result(first).outcome == "ok"
        # the two poisoned attempts cost the replica one tier
        drops = tracer.degradation_events("tier_drop")
        assert [e.tier for e in drops] == ["structural"]
        # clean traffic climbs the ladder back to full
        for _ in range(4):
            server.submit(single)
            server.drain()
        assert server.replicas[0].tier == "full"
        assert tracer.degradation_events("reescalate")
        # the trace interleaves serving and healing events
        assert tracer.serving_events("breaker_open")
        assert tracer.serving_events("breaker_close")

    def test_poisoned_output_never_reaches_a_reply(self, memnet):
        server = make_server(memnet, max_hedges=1,
                             default_deadline_ms=0.0)
        server.install_faults(ServingFaultPlan(
            [ServingFaultSpec("poisoned_batch", max_triggers=None,
                              payload="inf")]))
        ids = server.submit_batch(memnet.sample_feed(training=False))
        server.drain()
        for request_id in ids:
            reply = server.result(request_id)
            assert reply.outcome == "error"
            assert reply.value is None


class TestSlowReplica:
    def test_straggler_trips_breaker_without_demotion(self, memnet):
        server = make_server(memnet, replicas=1, slow_batch_ms=10.0,
                             default_deadline_ms=0.0)
        server.install_faults(ServingFaultPlan(
            [ServingFaultSpec("slow_replica", replica=0,
                              latency_seconds=0.05, max_triggers=4)]))
        single = server.codec.split_feed(
            memnet.sample_feed(training=False))[0]
        for _ in range(6):
            server.submit(single)
            server.drain()
        slow = server.replicas[0]
        assert slow.breaker.opens >= 1
        assert slow.tier == "full"  # slowness is not a plan defect

    def test_injected_stall_advances_virtual_clock(self, memnet):
        server = make_server(memnet, replicas=1)
        server.install_faults(ServingFaultPlan(
            [ServingFaultSpec("slow_replica", latency_seconds=0.2,
                              max_triggers=1)]))
        single = server.codec.split_feed(
            memnet.sample_feed(training=False))[0]
        request_id = server.submit(single, deadline_ms=50.0)
        server.drain()
        reply = server.result(request_id)
        assert reply.outcome == "deadline"
        assert reply.latency_ms >= 200.0


class TestDeterminism:
    def _chaos_run(self, model):
        tracer = Tracer()
        server = make_server(model, replicas=2, slow_batch_ms=20.0,
                             seed=3)
        server.install_faults(ServingFaultPlan([
            ServingFaultSpec("replica_crash", replica=0, batch=1),
            ServingFaultSpec("slow_replica", replica=1,
                             latency_seconds=0.03, max_triggers=2),
        ], seed=11), )
        generator = LoadGenerator(server, LoadConfig(
            requests=16, qps=400.0, seed=5))
        report = generator.run()
        signatures = tuple(e.signature() for e in server.events)
        outcomes = tuple(server.replies[i].outcome
                         for i in sorted(server.replies))
        return report, signatures, outcomes

    def test_identical_chaos_runs_are_identical(self, memnet):
        first = self._chaos_run(memnet)
        second = self._chaos_run(memnet)
        assert first[1] == second[1]
        assert first[2] == second[2]
        assert first[0].to_json() == second[0].to_json()


class TestOpenLoopOnTheSystemClock:
    def test_schedule_is_paced_in_real_time(self, memnet):
        """On a real clock the open loop waits for each arrival time, so
        the run lasts at least the scheduled span and a low rate sheds
        nothing (anchoring the schedule at 0.0 against the monotonic
        clock once made every arrival overdue: one unpaced burst)."""
        requests, qps = 12, 100.0
        server = InferenceServer(memnet, ServingConfig(
            replicas=2, default_deadline_ms=1000.0), clock=SystemClock())
        started = time.monotonic()
        report = LoadGenerator(server, LoadConfig(
            requests=requests, qps=qps, jitter=0.0, seed=1)).run()
        elapsed = time.monotonic() - started
        assert elapsed >= (requests - 1) / qps
        assert report.shed == 0
        assert report.ok == requests


class TestReport:
    def test_report_accounts_for_every_request(self, memnet):
        server = make_server(memnet, replicas=1, queue_limit=4)
        single = server.codec.split_feed(
            memnet.sample_feed(training=False))[0]
        for _ in range(8):
            server.submit(single)
        server.drain()
        report = server.report()
        assert report.requests == 8
        assert report.ok + report.shed + report.deadline \
            + report.error == 8
        assert report.shed > 0 and report.shed_rate > 0
        assert report.p50_ms <= report.p95_ms <= report.p99_ms
        assert report.replica_tiers == ["full"]
        rendered = report.render()
        assert "attainment" in rendered and "memnet" in rendered

    def test_model_serve_entry_point(self, memnet):
        server = memnet.serve(clock=VirtualClock())
        assert isinstance(server, InferenceServer)
        ids = server.submit_batch(memnet.sample_feed(training=False))
        server.drain()
        assert all(server.result(i).ok for i in ids)
