"""Virtual blob stores: the fault-injectable substrate checkpoints live on.

A :class:`BlobStore` is a flat key → bytes namespace with five
operations (put/get/delete/list/exists), an injectable clock charging a
fixed per-operation cost, and hook points for a
:class:`~repro.framework.faults.StorageFaultInjector` — so torn writes,
bit rot, stale reads, full disks, slow I/O, and outages can all be
scheduled deterministically against either backend:

* :class:`MemoryStore` — a dict of bytes; what the chaos campaigns and
  benchmarks run on (no real I/O, virtual clock, exact determinism).
* :class:`LocalDirStore` — one file per blob under a root directory,
  written atomically; what ``--checkpoint-replicas`` uses on disk.

Fault-hook contract (every mutation of visible state goes through it):

1. ``on_op`` gates the operation — outages and full disks raise here,
   slow I/O sleeps on the store's clock;
2. ``corruptions`` returns at-rest bit-rot actions, applied to blobs the
   store already holds *before* the operation proceeds;
3. ``on_put`` may truncate the bytes being written (torn write);
   ``on_get`` may substitute the key's previous version (stale read);
4. ``end_op`` closes the operation's matching window (the injector's
   global op counter advances).

``list`` and ``exists`` are deliberately *not* gated: enumeration is a
metadata operation the durability layer relies on to discover what might
be restorable even while data-path operations are failing.
"""

from __future__ import annotations

import errno
import os

from ..framework.checkpoint import atomic_write_bytes
from ..framework.clock import Clock, SystemClock
from ..framework.errors import (BlobNotFoundError, StorageError,
                                StorageFullError)
from ..framework.faults import StorageFaultInjector


def _check_key(key: str) -> str:
    """Reject keys that could escape a store's namespace."""
    if not key or key.startswith("/") or ".." in key.split("/"):
        raise ValueError(f"invalid blob key {key!r}")
    return key


class BlobStore:
    """Base class: clock accounting, fault hooks, operation counters.

    Subclasses implement the raw byte plumbing (``_write``, ``_read``,
    ``_delete``, ``_keys``, ``_has``, ``_corrupt``); this class owns the
    operation protocol so both backends fault identically.

    Attributes:
        store_id: this store's id within a replication group (targets
            ``StorageFaultSpec.store``).
        counters: operation tallies (``puts``/``gets``/``deletes``).
    """

    def __init__(self, store_id: int = 0, clock: Clock | None = None,
                 op_seconds: float = 0.0):
        self.store_id = store_id
        self.clock = clock if clock is not None else SystemClock()
        self.op_seconds = float(op_seconds)
        self.counters = {"puts": 0, "gets": 0, "deletes": 0}
        self._faults: StorageFaultInjector | None = None
        #: key -> previous bytes, for injected stale reads
        self._history: dict[str, bytes] = {}

    def attach_faults(self, injector: StorageFaultInjector) -> None:
        """Arm an injector against this store (and lend it our clock)."""
        injector.attach_clock(self.clock)
        self._faults = injector

    def detach_faults(self) -> None:
        self._faults = None

    @property
    def faults_armed(self) -> bool:
        """Whether an injector is attached (its op order is global)."""
        return self._faults is not None

    # -- the operation protocol --------------------------------------------

    def _run_op(self, op: str, key: str | None, action):
        if self.op_seconds:
            self.clock.sleep(self.op_seconds)
        injector = self._faults
        if injector is None:
            return action(None)
        try:
            injector.on_op(self.store_id, op, key)
            for rotted, position in injector.corruptions(
                    self.store_id, tuple(self._keys())):
                self._corrupt(rotted, position)
            return action(injector)
        finally:
            injector.end_op()

    def put(self, key: str, data: bytes) -> None:
        """Store ``data`` under ``key``, overwriting any previous blob."""
        _check_key(key)

        def action(injector):
            final = bytes(data)
            if injector is not None:
                final = injector.on_put(self.store_id, key, final)
            if self._has(key):
                self._history[key] = self._read(key)
            self._write(key, final)
            self.counters["puts"] += 1

        return self._run_op("put", key, action)

    def get(self, key: str) -> bytes:
        """Return the blob under ``key``.

        Raises :class:`~repro.framework.errors.BlobNotFoundError` when
        the key does not exist.
        """
        _check_key(key)

        def action(injector):
            if not self._has(key):
                raise BlobNotFoundError(
                    f"store {self.store_id}: no blob {key!r}", key=key)
            blob = self._read(key)
            if injector is not None:
                blob = injector.on_get(self.store_id, key, blob,
                                       self._history.get(key))
            self.counters["gets"] += 1
            return blob

        return self._run_op("get", key, action)

    def delete(self, key: str) -> None:
        """Remove the blob under ``key`` (missing keys are a no-op)."""
        _check_key(key)

        def action(injector):
            if self._has(key):
                self._delete(key)
                self._history.pop(key, None)
                self.counters["deletes"] += 1

        return self._run_op("delete", key, action)

    def list(self, prefix: str = "") -> list[str]:
        """All keys starting with ``prefix``, sorted. Never faulted."""
        return sorted(k for k in self._keys() if k.startswith(prefix))

    def exists(self, key: str) -> bool:
        """Whether ``key`` holds a blob. Never faulted."""
        _check_key(key)
        return self._has(key)

    # -- backend plumbing --------------------------------------------------

    def _write(self, key: str, data: bytes) -> None:
        raise NotImplementedError

    def _read(self, key: str) -> bytes:
        raise NotImplementedError

    def _delete(self, key: str) -> None:
        raise NotImplementedError

    def _keys(self):
        raise NotImplementedError

    def _has(self, key: str) -> bool:
        raise NotImplementedError

    def _corrupt(self, key: str, position_seed: int) -> None:
        """Flip one byte of a blob at rest (injected bit rot)."""
        blob = bytearray(self._read(key))
        if not blob:
            return
        blob[position_seed % len(blob)] ^= 0xFF
        self._write(key, bytes(blob))


class MemoryStore(BlobStore):
    """An in-memory blob store: a dict of bytes on the injectable clock.

    The chaos and benchmark substrate — no real I/O, so a campaign's
    entire storage history is an exact, replayable function of the fault
    schedule and the virtual clock.
    """

    def __init__(self, store_id: int = 0, clock: Clock | None = None,
                 op_seconds: float = 0.0):
        super().__init__(store_id, clock, op_seconds)
        self._blobs: dict[str, bytes] = {}

    def _write(self, key: str, data: bytes) -> None:
        self._blobs[key] = data

    def _read(self, key: str) -> bytes:
        return self._blobs[key]

    def _delete(self, key: str) -> None:
        del self._blobs[key]

    def _keys(self):
        return list(self._blobs)

    def _has(self, key: str) -> bool:
        return key in self._blobs


class LocalDirStore(BlobStore):
    """One file per blob under a root directory, written atomically.

    Key separators (``/``) map to subdirectories; every file write goes
    through :func:`~repro.framework.checkpoint.atomic_write_bytes`, so
    even a *real* crash mid-put leaves either the old blob or the new
    one — injected torn writes model the stores that lack this barrier.

    A real I/O failure is a storage failure like an injected one: an
    ``OSError`` from put/get/delete surfaces as
    :class:`~repro.framework.errors.StorageError` naming the store and
    the key (:class:`~repro.framework.errors.StorageFullError` for
    ``ENOSPC``), so replication masks it instead of crashing on it.
    """

    def __init__(self, root: str | os.PathLike, store_id: int = 0,
                 clock: Clock | None = None, op_seconds: float = 0.0):
        super().__init__(store_id, clock, op_seconds)
        self.root = os.fspath(root)
        os.makedirs(self.root, exist_ok=True)

    def _run_op(self, op: str, key: str | None, action):
        try:
            return super()._run_op(op, key, action)
        except OSError as exc:
            error = StorageFullError if exc.errno == errno.ENOSPC \
                else StorageError
            raise error(f"store {self.store_id}: {op} {key!r} failed: "
                        f"{exc}") from exc

    def _path(self, key: str) -> str:
        return os.path.join(self.root, *key.split("/"))

    def _write(self, key: str, data: bytes) -> None:
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        atomic_write_bytes(path, data)

    def _read(self, key: str) -> bytes:
        with open(self._path(key), "rb") as handle:
            return handle.read()

    def _delete(self, key: str) -> None:
        os.unlink(self._path(key))

    def _keys(self):
        found = []
        for dirpath, _, filenames in os.walk(self.root):
            rel = os.path.relpath(dirpath, self.root)
            parts = [] if rel == "." else rel.split(os.sep)
            for name in filenames:
                found.append("/".join(parts + [name]))
        return found

    def _has(self, key: str) -> bool:
        return os.path.isfile(self._path(key))
