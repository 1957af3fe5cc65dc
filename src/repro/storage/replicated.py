"""Replicated checkpoint archives: quorum writes, read-repair, scrubbing.

:class:`ReplicatedCheckpointStore` turns N independent blob stores into
one durable checkpoint archive with the recovery semantics the paper's
fault-tolerance story assumes:

* **Quorum commit** — each checkpoint (the ``.npz`` bytes from
  :func:`repro.framework.checkpoint.save_bytes`) is written to every
  store; it *commits* only once a write quorum (majority by default)
  acknowledges both the payload and its manifest. A missed quorum raises
  — the caller knows the checkpoint is not durable.
* **Atomic visibility** — the manifest (carrying the payload's SHA-256
  digest) is written *after* the payload on each store, and restore
  refuses any replica whose payload does not hash to its manifest's
  digest. A torn or interrupted commit therefore never restores
  partially: readers see the previous checkpoint or the new one,
  nothing in between.
* **Failover + read-repair** — restore tries replicas in order,
  digest-verifies each, and rewrites damaged replicas from the first
  intact copy it finds.
* **Scrubbing** — a background pass (driven by the store's clock, so
  virtual-time tests can force it) digest-checks every replica of every
  checkpoint and heals rot before a second fault can make it
  unrecoverable.
* **Retention** — superseded checkpoints beyond ``keep_last`` are
  garbage-collected from all stores after each successful commit.

All of it narrates through :class:`~repro.storage.events.StorageEvent`
records on an optional tracer, and all of it is chaos-testable: arm a
:class:`~repro.framework.faults.StorageFaultPlan` with
:meth:`ReplicatedCheckpointStore.install_faults` and the ``durability``
oracle checks the commit contract under fire.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from concurrent.futures import Future
from dataclasses import dataclass, field

import numpy as np

from ..framework import checkpoint as checkpoint_lib
from ..framework.checkpoint import CheckpointError
from ..framework.clock import Clock, SystemClock
from ..framework.errors import StorageError
from ..framework.faults import StorageFaultInjector, StorageFaultPlan
from .blobstore import BlobStore, LocalDirStore
from .events import StorageEvent

#: manifest JSON kind tag
MANIFEST_KIND = "repro-checkpoint-manifest"

#: key prefix every checkpoint blob lives under
CHECKPOINT_PREFIX = "ckpt/"


class CheckpointQuorumError(StorageError):
    """A checkpoint write missed its quorum and is NOT durable.

    Attributes:
        record: the :class:`CheckpointRecord` of the failed attempt
            (``committed=False``), with however many replica acks it
            did collect.
    """

    def __init__(self, message: str, record: "CheckpointRecord"):
        super().__init__(message)
        self.record = record


@dataclass(frozen=True)
class CheckpointRecord:
    """The outcome of one checkpoint write.

    Attributes:
        checkpoint_id: monotonically increasing archive id.
        digest: SHA-256 hex digest of the payload bytes.
        replicas: how many stores acknowledged both blobs.
        committed: whether the write reached quorum.
        step: the training step the checkpoint captures (-1 if unknown).
        elapsed: clock seconds the write consumed.
    """

    checkpoint_id: int
    digest: str
    replicas: int
    committed: bool
    step: int
    elapsed: float


@dataclass(frozen=True)
class ScrubReport:
    """The outcome of one scrub pass over every replica.

    Attributes:
        checked: replicas digest-verified.
        healed: damaged replicas rewritten from an intact copy.
        unrecoverable: checkpoint ids with no intact replica left.
    """

    checked: int
    healed: int
    unrecoverable: tuple[int, ...] = field(default_factory=tuple)


def state_digests(session) -> dict[str, str]:
    """Per-variable SHA-256 digests of a session's current state.

    The bitwise-identity yardstick durability checks compare against:
    two sessions agree on these exactly iff every variable is
    bit-for-bit identical.
    """
    from ..framework.checkpoint import _graph_variables
    return {
        name: hashlib.sha256(
            np.ascontiguousarray(
                session.variable_value(op.output)).tobytes()).hexdigest()
        for name, op in _graph_variables(session.graph).items()}


def _payload_key(checkpoint_id: int) -> str:
    return f"{CHECKPOINT_PREFIX}{checkpoint_id:08d}/payload"


def _manifest_key(checkpoint_id: int) -> str:
    return f"{CHECKPOINT_PREFIX}{checkpoint_id:08d}/manifest"


def _checkpoint_id_of(key: str) -> int | None:
    """Parse the checkpoint id out of an archive key, if it is one."""
    parts = key.split("/")
    if len(parts) == 3 and parts[0] == CHECKPOINT_PREFIX.rstrip("/") \
            and parts[2] in ("payload", "manifest"):
        try:
            return int(parts[1])
        except ValueError:
            return None
    return None


class ReplicatedCheckpointStore:
    """N-way replicated, digest-verified, self-scrubbing checkpoints.

    Args:
        stores: the blob stores forming the replication group (their
            ``store_id`` should match their index).
        quorum: write quorum; defaults to a majority
            (``len(stores) // 2 + 1``).
        keep_last: retain only this many committed checkpoints
            (``None`` = keep everything).
        scrub_interval: clock seconds between automatic scrub passes
            (``None`` = only scrub when :meth:`scrub` is called).
        clock: the clock scrub scheduling runs on; defaults to the
            first store's clock.
        tracer: optional tracer receiving :class:`StorageEvent`
            narration.
    """

    def __init__(self, stores, quorum: int | None = None,
                 keep_last: int | None = None,
                 scrub_interval: float | None = None,
                 clock: Clock | None = None, tracer=None):
        self.stores: tuple[BlobStore, ...] = tuple(stores)
        if not self.stores:
            raise ValueError("need at least one blob store")
        if quorum is None:
            quorum = len(self.stores) // 2 + 1
        if not 1 <= quorum <= len(self.stores):
            raise ValueError(
                f"quorum must be in [1, {len(self.stores)}], got {quorum}")
        self.quorum = quorum
        if keep_last is not None and keep_last < 1:
            raise ValueError(f"keep_last must be >= 1, got {keep_last}")
        self.keep_last = keep_last
        self.scrub_interval = scrub_interval
        self.clock: Clock = clock if clock is not None \
            else self.stores[0].clock
        self.tracer = tracer
        self.counters = {
            "commits": 0, "commit_failures": 0, "replica_write_failures": 0,
            "failovers": 0, "corrupt_replicas": 0, "read_repairs": 0,
            "scrub_passes": 0, "scrub_heals": 0, "unrecoverable": 0,
            "gc_collected": 0}
        self._next_id = self._recover_next_id()
        self._committed: list[int] = []
        self._last_scrub = self.clock.now()
        self._injector: StorageFaultInjector | None = None

    # -- wiring ------------------------------------------------------------

    def _recover_next_id(self) -> int:
        """Resume the id sequence past anything already archived."""
        highest = -1
        for store in self.stores:
            for key in store.list(CHECKPOINT_PREFIX):
                cid = _checkpoint_id_of(key)
                if cid is not None:
                    highest = max(highest, cid)
        return highest + 1

    def install_faults(self, plan: StorageFaultPlan) -> StorageFaultInjector:
        """Arm one shared injector against every store in the group."""
        injector = plan.injector()
        injector.attach_clock(self.clock)
        for store in self.stores:
            store.attach_faults(injector)
        self._injector = injector
        return injector

    def uninstall_faults(self) -> None:
        for store in self.stores:
            store.detach_faults()
        self._injector = None

    def _emit(self, step: int, kind: str, store: int, key: str,
              seconds_lost: float, detail: str) -> None:
        if self.tracer is not None:
            self.tracer.record_event(StorageEvent(
                step=step, kind=kind, store=store, key=key,
                seconds_lost=seconds_lost, detail=detail))

    # -- fan-out -----------------------------------------------------------

    def _concurrent(self) -> bool:
        """Whether operations on different replicas may overlap.

        Only on the real clock with no fault injector armed: an
        injector's global op index and RNG stream are defined by store
        order, and so is virtual time, so those groups stay in order.
        """
        clocks = [self.clock] + [store.clock for store in self.stores]
        return (len(self.stores) > 1
                and all(isinstance(clock, SystemClock) for clock in clocks)
                and not any(store.faults_armed for store in self.stores))

    def _fan_out(self, task, meanwhile=lambda: None):
        """Run ``task(store)`` for every store; return what they raised.

        Returns ``(meanwhile(), errors)``: ``errors`` holds, in store
        order, the exception each task raised (``None`` for success) for
        the caller to tally on its own thread. When :meth:`_concurrent`,
        every store gets its own thread for the length of the call and
        ``meanwhile`` runs on the calling thread while they work; only
        after every worker has returned does anything come back.
        Otherwise ``meanwhile`` runs first and the tasks run one after
        another, stopping at an exception that is not a
        :class:`StorageError`, exactly as a plain loop would.
        """
        if not self._concurrent():
            result, errors = meanwhile(), []
            for store in self.stores:
                try:
                    task(store)
                except BaseException as exc:  # re-raised by the caller
                    errors.append(exc)
                    if not isinstance(exc, StorageError):
                        break
                else:
                    errors.append(None)
            return result, errors
        errors = [None] * len(self.stores)

        def work(index: int) -> None:
            try:
                task(self.stores[index])
            except BaseException as exc:  # re-raised by the caller
                errors[index] = exc

        workers = [threading.Thread(target=work, args=(index,),
                                    name=f"replica-{index}")
                   for index in range(len(self.stores))]
        for worker in workers:
            worker.start()
        try:
            result = meanwhile()
        finally:
            for worker in workers:
                worker.join()
        return result, errors

    # -- writing -----------------------------------------------------------

    def save(self, session, step: int = -1) -> CheckpointRecord:
        """Checkpoint ``session``'s variables durably; raise if not.

        Serializes through :func:`repro.framework.checkpoint.save_bytes`
        (identical archive format to the file path) and quorum-writes
        via :meth:`save_payload`.
        """
        return self.save_payload(checkpoint_lib.save_bytes(session),
                                 step=step)

    def save_payload(self, data: bytes, step: int = -1) -> CheckpointRecord:
        """Quorum-write pre-serialized checkpoint bytes.

        Raises :class:`CheckpointQuorumError` when fewer than ``quorum``
        stores acknowledge — the checkpoint is then *not committed* and
        restore will never prefer it over an older committed one.

        Replicas are written concurrently when :meth:`_concurrent`
        allows, with the payload digest computed while the payloads land.
        """
        started = self.clock.now()
        checkpoint_id = self._next_id
        self._next_id += 1  # ids advance even on failure: no reuse
        payload_key = _payload_key(checkpoint_id)
        manifest_key = _manifest_key(checkpoint_id)
        manifest = Future()

        def write(store: BlobStore) -> None:
            # Payload first, manifest second: a replica without a
            # manifest is invisible to restore, so an interruption
            # between the two writes can never expose partial state.
            store.put(payload_key, data)
            store.put(manifest_key, manifest.result())

        def seal() -> str:
            try:
                digest = hashlib.sha256(data).hexdigest()
                manifest.set_result(json.dumps(
                    {"kind": MANIFEST_KIND, "id": checkpoint_id,
                     "digest": digest, "size": len(data), "step": step},
                    sort_keys=True).encode("utf-8"))
            except BaseException as exc:
                manifest.set_exception(exc)  # release the writers
                raise
            return digest

        digest, errors = self._fan_out(write, meanwhile=seal)
        acked = 0
        for store, error in zip(self.stores, errors):
            if error is None:
                acked += 1
            elif isinstance(error, StorageError):
                self.counters["replica_write_failures"] += 1
                self._emit(checkpoint_id, "replica_write_failed",
                           store.store_id, payload_key,
                           0.0, f"replica write failed: {error}")
            else:
                raise error
        elapsed = self.clock.now() - started
        record = CheckpointRecord(
            checkpoint_id=checkpoint_id, digest=digest, replicas=acked,
            committed=acked >= self.quorum, step=step, elapsed=elapsed)
        if not record.committed:
            self.counters["commit_failures"] += 1
            self._emit(checkpoint_id, "commit_failed", -1,
                       payload_key, elapsed,
                       f"checkpoint {checkpoint_id} missed quorum: "
                       f"{acked}/{self.quorum} replicas acknowledged")
            raise CheckpointQuorumError(
                f"checkpoint {checkpoint_id} is NOT durable: only {acked} "
                f"of {len(self.stores)} replicas acknowledged "
                f"(quorum {self.quorum})", record=record)
        self.counters["commits"] += 1
        self._committed.append(checkpoint_id)
        self._emit(checkpoint_id, "commit", -1, payload_key, elapsed,
                   f"checkpoint {checkpoint_id} committed on "
                   f"{acked}/{len(self.stores)} replicas "
                   f"(digest {digest[:12]}…)")
        self._gc()
        self.maybe_scrub()
        return record

    # -- reading -----------------------------------------------------------

    def _verify_replica(self, store: BlobStore,
                        checkpoint_id: int) -> tuple[bytes, bytes]:
        """Fetch and digest-verify one replica; raise on any defect."""
        manifest_raw = store.get(_manifest_key(checkpoint_id))
        try:
            manifest = json.loads(manifest_raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise StorageError(
                f"store {store.store_id}: checkpoint {checkpoint_id} "
                f"manifest is unreadable: {exc}") from exc
        if manifest.get("kind") != MANIFEST_KIND \
                or manifest.get("id") != checkpoint_id \
                or "digest" not in manifest:
            raise StorageError(
                f"store {store.store_id}: checkpoint {checkpoint_id} "
                f"manifest is malformed")
        payload = store.get(_payload_key(checkpoint_id))
        actual = hashlib.sha256(payload).hexdigest()
        if actual != manifest["digest"]:
            raise StorageError(
                f"store {store.store_id}: checkpoint {checkpoint_id} "
                f"payload digest mismatch (manifest "
                f"{manifest['digest'][:12]}…, stored {actual[:12]}…)")
        return payload, manifest_raw

    def fetch(self, checkpoint_id: int) -> bytes:
        """Return a checkpoint's verified payload bytes.

        Tries replicas in store order; a replica only counts if its
        payload hashes to its manifest's digest. Damaged or unavailable
        replicas are failed over — and, once an intact copy is found,
        repaired from it in place (best effort). Raises
        :class:`~repro.framework.checkpoint.CheckpointError` when no
        intact replica remains.
        """
        started = self.clock.now()
        bad: list[tuple[BlobStore, str]] = []
        for store in self.stores:
            try:
                payload, manifest_raw = self._verify_replica(
                    store, checkpoint_id)
            except StorageError as exc:
                corrupt = "digest mismatch" in str(exc) \
                    or "manifest" in str(exc)
                kind = "corrupt_replica" if corrupt else "failover"
                counter = "corrupt_replicas" if corrupt else "failovers"
                self.counters[counter] += 1
                self._emit(checkpoint_id, kind, store.store_id,
                           _payload_key(checkpoint_id),
                           self.clock.now() - started, str(exc))
                bad.append((store, str(exc)))
                continue
            self._repair(checkpoint_id, payload, manifest_raw,
                         [store for store, _ in bad])
            return payload
        raise CheckpointError(
            f"checkpoint {checkpoint_id} has no intact replica "
            f"({len(bad)} tried): " + "; ".join(
                reason for _, reason in bad[:3]))

    def _repair(self, checkpoint_id: int, payload: bytes,
                manifest_raw: bytes, targets) -> None:
        """Rewrite damaged replicas from a verified copy (best effort)."""
        for store in targets:
            started = self.clock.now()
            try:
                store.put(_payload_key(checkpoint_id), payload)
                store.put(_manifest_key(checkpoint_id), manifest_raw)
            except StorageError:
                continue  # the scrubber will retry later
            self.counters["read_repairs"] += 1
            self._emit(checkpoint_id, "read_repair", store.store_id,
                       _payload_key(checkpoint_id),
                       self.clock.now() - started,
                       f"replica on store {store.store_id} rewritten "
                       f"from an intact copy")

    def checkpoint_ids(self) -> list[int]:
        """Every checkpoint id any store knows about, ascending."""
        ids: set[int] = set()
        for store in self.stores:
            for key in store.list(CHECKPOINT_PREFIX):
                cid = _checkpoint_id_of(key)
                if cid is not None:
                    ids.add(cid)
        return sorted(ids)

    def latest_committed_id(self) -> int | None:
        """The newest id committed *by this store object*, if any."""
        return self._committed[-1] if self._committed else None

    def restore(self, session, checkpoint_id: int | None = None,
                strict: bool = True) -> CheckpointRecord:
        """Load a checkpoint into ``session``, newest first by default.

        With an explicit ``checkpoint_id`` the restore succeeds from
        that archive or raises. With ``None`` it walks ids newest →
        oldest, skipping archives with no intact replica, and raises
        :class:`~repro.framework.checkpoint.CheckpointError` only when
        nothing restorable remains.
        """
        started = self.clock.now()
        if checkpoint_id is not None:
            candidates = [checkpoint_id]
        else:
            candidates = list(reversed(self.checkpoint_ids()))
            if not candidates:
                raise CheckpointError(
                    "no checkpoints found in any replica store")
        failures = []
        for cid in candidates:
            try:
                payload = self.fetch(cid)
            except (StorageError, CheckpointError) as exc:
                failures.append(f"ckpt {cid}: {exc}")
                continue
            checkpoint_lib.restore_bytes(
                session, payload, strict=strict,
                source=_payload_key(cid))
            return CheckpointRecord(
                checkpoint_id=cid,
                digest=hashlib.sha256(payload).hexdigest(),
                replicas=len(self.stores), committed=True, step=-1,
                elapsed=self.clock.now() - started)
        raise CheckpointError(
            "no restorable checkpoint: " + "; ".join(failures[:3]))

    # -- scrubbing ---------------------------------------------------------

    def maybe_scrub(self) -> ScrubReport | None:
        """Run a scrub pass if the configured interval has elapsed."""
        if self.scrub_interval is None:
            return None
        if self.clock.now() - self._last_scrub < self.scrub_interval:
            return None
        return self.scrub()

    def scrub(self) -> ScrubReport:
        """Digest-verify every replica of every checkpoint; heal rot.

        A damaged replica is rewritten from the first intact copy of the
        same checkpoint. Checkpoints with *no* intact replica are
        reported unrecoverable (and left in place for forensics).
        """
        checked = healed = 0
        unrecoverable: list[int] = []
        for cid in self.checkpoint_ids():
            good: tuple[bytes, bytes] | None = None
            damaged: list[BlobStore] = []
            for store in self.stores:
                if not store.exists(_manifest_key(cid)) \
                        and not store.exists(_payload_key(cid)):
                    # This store never acked this checkpoint (or GC'd
                    # it); absence is not damage.
                    continue
                checked += 1
                try:
                    replica = self._verify_replica(store, cid)
                except StorageError:
                    damaged.append(store)
                    continue
                if good is None:
                    good = replica
            if good is None:
                if damaged:
                    unrecoverable.append(cid)
                    self.counters["unrecoverable"] += 1
                    self._emit(cid, "unrecoverable", -1,
                               _payload_key(cid), 0.0,
                               f"checkpoint {cid}: every replica is "
                               f"damaged; nothing to heal from")
                continue
            payload, manifest_raw = good
            for store in damaged:
                started = self.clock.now()
                try:
                    store.put(_payload_key(cid), payload)
                    store.put(_manifest_key(cid), manifest_raw)
                except StorageError:
                    continue
                healed += 1
                self.counters["scrub_heals"] += 1
                self._emit(cid, "scrub_heal", store.store_id,
                           _payload_key(cid),
                           self.clock.now() - started,
                           f"scrub healed checkpoint {cid} replica on "
                           f"store {store.store_id}")
        self.counters["scrub_passes"] += 1
        self._last_scrub = self.clock.now()
        report = ScrubReport(checked=checked, healed=healed,
                             unrecoverable=tuple(unrecoverable))
        self._emit(-1, "scrub", -1, "", 0.0,
                   f"scrub pass: {checked} replicas checked, "
                   f"{healed} healed, "
                   f"{len(unrecoverable)} unrecoverable")
        return report

    # -- retention ---------------------------------------------------------

    def _gc(self) -> None:
        """Collect committed checkpoints beyond the retention window."""
        if self.keep_last is None or len(self._committed) <= self.keep_last:
            return
        cutoff = self._committed[-self.keep_last]
        collected = 0
        for cid in self.checkpoint_ids():
            if cid >= cutoff:
                continue

            def collect(store: BlobStore, cid: int = cid) -> None:
                for key in (_payload_key(cid), _manifest_key(cid)):
                    try:
                        store.delete(key)
                    except StorageError:
                        pass  # unreachable store: scrub-era leftovers

            _, errors = self._fan_out(collect)
            for error in errors:
                if error is not None:
                    raise error
            collected += 1
        self._committed = [cid for cid in self._committed if cid >= cutoff]
        if collected:
            self.counters["gc_collected"] += collected
            self._emit(-1, "gc", -1, "", 0.0,
                       f"garbage-collected {collected} superseded "
                       f"checkpoint(s) below id {cutoff}")


def open_local_store(root: str | os.PathLike,
                     replicas: int | None = None,
                     clock: Clock | None = None,
                     **kwargs) -> ReplicatedCheckpointStore:
    """Open (or create) a replicated archive rooted at ``root``.

    Layout: ``root/replica-0 … root/replica-{N-1}``, one
    :class:`LocalDirStore` each. With ``replicas=None`` the replica
    count is discovered from the directories already present (raising
    if there are none); pass an explicit count to create a new archive.
    """
    root = os.fspath(root)
    if replicas is None:
        found = sorted(
            name for name in (os.listdir(root) if os.path.isdir(root)
                              else [])
            if name.startswith("replica-"))
        if not found:
            raise CheckpointError(
                f"no replica directories under {root!r}; pass an "
                f"explicit replica count to create a new archive")
        replicas = len(found)
    if replicas < 1:
        raise ValueError(f"replicas must be >= 1, got {replicas}")
    clock = clock if clock is not None else SystemClock()
    stores = [LocalDirStore(os.path.join(root, f"replica-{i}"),
                            store_id=i, clock=clock)
              for i in range(replicas)]
    return ReplicatedCheckpointStore(stores, clock=clock, **kwargs)
