"""Replica fan-out and real I/O failures on the replicated archive.

A quorum commit writes its replicas concurrently — one short-lived
thread per store — but only on the real clock with no fault injector
armed. These tests pin both halves of that rule. Where order is
observable (a fault plan, virtual time) every operation, injection and
event happens as a plain store-order loop makes it happen:
``golden_fault_order.json`` was recorded from that loop. Where the
fan-out runs, outcomes are still tallied on the calling thread, in
store order, after every worker has returned.
"""

import errno
import json
import shutil
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.framework.checkpoint import CheckpointError
from repro.framework.clock import VirtualClock
from repro.framework.errors import StorageError, StorageFullError
from repro.framework.faults import StorageFaultPlan, StorageFaultSpec
from repro.framework.session import Session
from repro.profiling.tracer import Tracer
from repro.storage import (CheckpointQuorumError, MemoryStore,
                           ReplicatedCheckpointStore, open_local_store,
                           state_digests)
from repro.storage import blobstore

from .test_replicated import trained_session

GOLDEN = Path(__file__).with_name("golden_fault_order.json")

#: every storage fault kind, probabilistic where it can be, so the
#: injector's op index and RNG stream both shape the history
ORDER_PLAN = StorageFaultPlan([
    StorageFaultSpec("torn_write", probability=0.3, key_pattern="payload"),
    StorageFaultSpec("bit_rot", probability=0.2),
    StorageFaultSpec("disk_full", store=1, probability=0.5,
                     max_triggers=3),
    StorageFaultSpec("store_down", store=2, probability=0.1,
                     duration_ops=8, max_triggers=2),
    StorageFaultSpec("stale_read", probability=0.25),
    StorageFaultSpec("slow_io", probability=0.3, latency_seconds=0.002),
], seed=7)


def faulted_history() -> dict:
    """Twelve commits (with GC), a fetch of every archive after each,
    and a scrub, on a faulted three-store group on the virtual clock."""
    clock = VirtualClock()
    tracer = Tracer()
    group = ReplicatedCheckpointStore(
        [MemoryStore(store_id=i, clock=clock, op_seconds=0.001)
         for i in range(3)], keep_last=2, clock=clock, tracer=tracer)
    injector = group.install_faults(ORDER_PLAN)
    outcomes = []
    for step in range(12):
        payload = bytes(range(256)) * (step + 3)
        try:
            record = group.save_payload(payload, step=step)
        except CheckpointQuorumError as exc:
            record = exc.record
        outcomes.append([record.checkpoint_id, record.replicas,
                         record.committed, round(record.elapsed, 9)])
        for cid in group.checkpoint_ids():
            try:
                group.fetch(cid)
            except CheckpointError:
                pass
    group.scrub()
    return {"outcomes": outcomes, "op_index": injector.op_index,
            "clock": round(clock.now(), 9),
            "injections": [list(s) for s in injector.signature()],
            "events": [list(e.signature()) + [round(e.seconds_lost, 9)]
                       for e in tracer.storage_events()]}


def record_puts(group) -> list:
    """Log ``(store, blob, on_main_thread)`` for every put, in order."""
    calls = []
    for store in group.stores:
        def put(key, data, store=store, inner=store.put):
            calls.append((store.store_id, key.rsplit("/", 1)[1],
                          threading.current_thread()
                          is threading.main_thread()))
            inner(key, data)
        store.put = put
    return calls


def wrap_put(store, before):
    """Run ``before(key)`` ahead of each of ``store``'s puts."""
    inner = store.put

    def put(key, data):
        before(key)
        inner(key, data)
    store.put = put


class TestOrderWhereObservable:
    def test_faulted_virtual_group_matches_the_golden_history(self):
        """Injections, their op indices, the RNG-drawn outcomes, the
        virtual clock and every StorageEvent equal the store-order
        loop's."""
        assert faulted_history() == json.loads(GOLDEN.read_text())

    def test_armed_faults_keep_store_order_on_the_real_clock(self,
                                                            tmp_path):
        group = open_local_store(tmp_path, replicas=3)
        group.install_faults(StorageFaultPlan([]))
        calls = record_puts(group)
        group.save_payload(b"payload", step=0)
        assert calls == [(0, "payload", True), (0, "manifest", True),
                         (1, "payload", True), (1, "manifest", True),
                         (2, "payload", True), (2, "manifest", True)]

    def test_virtual_clock_keeps_store_order(self, tmp_path):
        group = open_local_store(tmp_path, replicas=3,
                                 clock=VirtualClock())
        calls = record_puts(group)
        group.save_payload(b"payload", step=0)
        assert [call[0] for call in calls] == [0, 0, 1, 1, 2, 2]
        assert all(on_main for _, _, on_main in calls)


class TestFanOut:
    def test_replicas_are_written_concurrently(self, fresh_graph, rng,
                                               tmp_path):
        """Each payload put waits for the other two to start: only a
        concurrent commit gets past the barrier."""
        session = trained_session(fresh_graph, rng)
        group = open_local_store(tmp_path, replicas=3, keep_last=1)
        barrier = threading.Barrier(3, timeout=10)
        for store in group.stores:
            wrap_put(store, lambda key: key.endswith("payload")
                     and barrier.wait())
        calls = record_puts(group)
        group.save(session, step=0)
        record = group.save(session, step=1)
        assert record.committed and record.replicas == 3
        assert not any(on_main for _, _, on_main in calls)
        for store in group.stores:  # the fanned-out GC ran everywhere
            assert store.list() == ["ckpt/00000001/manifest",
                                    "ckpt/00000001/payload"]
        other = Session(fresh_graph, seed=9)
        group.restore(other)
        assert state_digests(other) == state_digests(session)

    def test_foreign_error_surfaces_after_every_worker(self, tmp_path):
        """An exception that is not a StorageError reaches the caller
        only once the other replicas have finished their writes."""
        group = open_local_store(tmp_path, replicas=3)

        def crash(key):
            raise RuntimeError("replica 0 worker crashed")

        wrap_put(group.stores[0], crash)
        for store in group.stores[1:]:
            wrap_put(store, lambda key: time.sleep(0.1))
        with pytest.raises(RuntimeError, match="worker crashed"):
            group.save_payload(b"payload", step=0)
        for store in group.stores[1:]:
            assert store.exists("ckpt/00000000/manifest")
        del group.stores[0].put  # the crash was a one-off
        assert group.save_payload(b"next", step=1).checkpoint_id == 1

    def test_replica_failures_are_tallied_in_store_order(self, tmp_path):
        """Store 0 fails last in time but is reported first."""
        tracer = Tracer()
        group = open_local_store(tmp_path, replicas=3, tracer=tracer)

        def fail_late(key):
            time.sleep(0.1)
            raise StorageError("store 0: late failure")

        def fail_early(key):
            raise StorageError("store 2: early failure")

        wrap_put(group.stores[0], fail_late)
        wrap_put(group.stores[2], fail_early)
        with pytest.raises(CheckpointQuorumError) as excinfo:
            group.save_payload(b"payload", step=0)
        assert excinfo.value.record.replicas == 1
        events = [(e.kind, e.store) for e in tracer.storage_events()]
        assert events == [("replica_write_failed", 0),
                          ("replica_write_failed", 2),
                          ("commit_failed", -1)]
        assert group.counters["replica_write_failures"] == 2

    def test_many_commits_under_frequent_thread_switches(self, tmp_path):
        """More workers than cores, a thread switch every microsecond:
        every commit is acked by every replica, every store counts
        exactly its own puts and deletes, and GC keeps the last two."""
        group = open_local_store(tmp_path, replicas=5, keep_last=2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            records = [group.save_payload(bytes([step]) * 4096, step=step)
                       for step in range(20)]
        finally:
            sys.setswitchinterval(interval)
        assert [r.replicas for r in records] == [5] * 20
        for store in group.stores:
            assert store.counters == {"puts": 40, "gets": 0,
                                      "deletes": 36}
            assert len(store.list()) == 4
        assert group.fetch(19) == bytes([19]) * 4096

    def test_a_failed_digest_releases_the_writers(self, tmp_path,
                                                  monkeypatch):
        """The writers wait for the manifest; if the digest fails they
        are released and the caller sees the error, not a hang."""
        group = open_local_store(tmp_path, replicas=3)

        def broken_sha256(data):
            raise MemoryError("no room for the digest")

        monkeypatch.setattr("repro.storage.replicated.hashlib.sha256",
                            broken_sha256)
        outcome = []

        def commit():
            try:
                group.save_payload(b"payload", step=0)
            except MemoryError as exc:
                outcome.append(exc)

        caller = threading.Thread(target=commit, daemon=True)
        caller.start()
        caller.join(timeout=10)
        assert not caller.is_alive() and len(outcome) == 1
        for store in group.stores:
            assert not store.exists("ckpt/00000000/manifest")


class TestRealIOFailures:
    def test_a_broken_replica_directory_fails_only_that_replica(
            self, fresh_graph, rng, tmp_path):
        tracer = Tracer()
        session = trained_session(fresh_graph, rng)
        group = open_local_store(tmp_path, replicas=3, tracer=tracer)
        broken = tmp_path / "replica-1"
        shutil.rmtree(broken)
        broken.write_bytes(b"not a directory")

        record = group.save(session, step=3)
        assert record.committed and record.replicas == 2
        failed = [e for e in tracer.storage_events()
                  if e.kind == "replica_write_failed"]
        assert [e.store for e in failed] == [1]
        assert "store 1" in failed[0].detail \
            and "ckpt/00000000/payload" in failed[0].detail
        other = Session(fresh_graph, seed=9)
        group.restore(other)
        assert state_digests(other) == state_digests(session)

    def test_a_read_error_on_the_first_replica_fails_over(
            self, fresh_graph, rng, tmp_path, monkeypatch):
        tracer = Tracer()
        session = trained_session(fresh_graph, rng)
        group = open_local_store(tmp_path, replicas=3, tracer=tracer)
        group.save(session, step=0)
        first = str(tmp_path / "replica-0")

        def failing_open(path, *args, **kwargs):
            if str(path).startswith(first):
                raise OSError(errno.EIO, "Input/output error", path)
            return open(path, *args, **kwargs)

        monkeypatch.setattr(blobstore, "open", failing_open,
                            raising=False)
        other = Session(fresh_graph, seed=9)
        group.restore(other)
        assert state_digests(other) == state_digests(session)
        assert [e.store for e in tracer.storage_events()
                if e.kind in ("failover", "corrupt_replica")] == [0]

    def test_a_full_disk_is_storage_full(self, tmp_path, monkeypatch):
        store = blobstore.LocalDirStore(tmp_path, store_id=4)

        def full(path, data):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(blobstore, "atomic_write_bytes", full)
        with pytest.raises(StorageFullError,
                           match="store 4: put 'ckpt/x' failed"):
            store.put("ckpt/x", b"data")
