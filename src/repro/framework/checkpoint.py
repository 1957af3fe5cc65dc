"""Variable checkpointing: save and restore session state.

The Fathom workloads are long-running training jobs; checkpointing lets
an experiment pause/resume and lets the examples ship trained weights.
Checkpoints are plain ``.npz`` archives keyed by variable operation name,
so they are portable across sessions over the same graph (and across
graphs that define identically-named, identically-shaped variables).

Integrity: every save records a CRC32 checksum per variable payload
(under a reserved archive key); restore verifies them and raises
:class:`CheckpointCorruptError` naming the offending variable when a
payload was corrupted after save. Checkpoints written before checksums
existed still restore (no checksum table, nothing to verify).

The archive format is available in two transports: files
(:func:`save` / :func:`restore`, atomic temp-and-rename writes) and raw
bytes (:func:`save_bytes` / :func:`restore_bytes`) — the latter is what
:mod:`repro.storage` replicates, digests, and scrubs across blob stores.
"""

from __future__ import annotations

import io
import json
import os
import struct
import tempfile
import zipfile
import zlib

import numpy as np

from .errors import FrameworkError
from .graph import Graph
from .ops.state_ops import VariableOp
from .session import Session

#: reserved archive key holding the JSON {variable: crc32} map
_CHECKSUM_KEY = "__repro_crc32__"

#: ZIP "version needed to extract" for archives with ZIP64 extra fields
_ZIP64_VERSION = 45

#: sizes and offsets above this take ZIP64 fields (``zipfile.ZIP64_LIMIT``)
_ZIP64_LIMIT = (1 << 31) - 1

#: the DOS date :class:`zipfile.ZipInfo` stamps by default: 1980-01-01
_ZIP_EPOCH = (1 << 5) | 1

#: the CRC-32 polynomial, bit-reflected as zlib uses it
_CRC32_POLY = 0xEDB88320

#: arrays at least this large get their member CRC by combination rather
#: than by a second pass over their memory (one combination costs about
#: as much as a CRC pass over 100-300 KB)
_CRC_COMBINE_MIN_BYTES = 1 << 17


class CheckpointError(FrameworkError):
    """Raised when a checkpoint cannot be applied to a graph/session."""


class CheckpointCorruptError(CheckpointError):
    """A checkpoint payload failed its integrity check.

    Raised (chained to the underlying decode error, when there is one)
    with the offending variable's name when a stored array cannot be
    decoded or its CRC32 checksum does not match the value recorded at
    save time — so a bad disk or a truncated copy surfaces as a
    diagnosable checkpoint problem instead of a numpy stack trace.

    Attributes:
        variable: name of the corrupt variable, when localized.
    """

    def __init__(self, message: str, variable: str | None = None):
        super().__init__(message)
        self.variable = variable


def _array_crc32(array: np.ndarray) -> int:
    return zlib.crc32(np.ascontiguousarray(array))


def _gf2_multiply(a: int, b: int) -> int:
    """``a * b`` modulo the CRC-32 polynomial (zlib's ``multmodp``)."""
    mask, product = 1 << 31, 0
    while True:
        if a & mask:
            product ^= b
            if not a & (mask - 1):
                return product
        mask >>= 1
        b = (b >> 1) ^ _CRC32_POLY if b & 1 else b >> 1


#: x^(2^k) modulo the CRC-32 polynomial, k = 0..31
_X2N = [1 << 30]
for _ in range(31):
    _X2N.append(_gf2_multiply(_X2N[-1], _X2N[-1]))


def _crc32_combine(crc1: int, crc2: int, length2: int) -> int:
    """CRC32 of ``A + B`` from ``crc32(A)``, ``crc32(B)`` and ``len(B)``,
    as zlib's ``crc32_combine``: ``crc1`` shifted past ``length2`` zero
    bytes, then XORed with ``crc2``."""
    shift, k = 1 << 31, 3  # x^0; bytes are 2^3 bits
    while length2:
        if length2 & 1:
            shift = _gf2_multiply(_X2N[k & 31], shift)
        length2 >>= 1
        k += 1
    return _gf2_multiply(shift, crc1) ^ crc2


def _graph_variables(graph: Graph) -> dict[str, VariableOp]:
    return {op.name: op for op in graph.operations
            if isinstance(op, VariableOp)}


def atomic_write_bytes(path: str | os.PathLike, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (temp file + ``os.replace``).

    The bytes land in a temporary file in the target directory, are
    fsynced, and are moved into place in one step — so a crash mid-write
    can never leave a truncated or corrupt file behind, and the previous
    contents (if any) survive untouched. The temporary file is removed
    in a ``finally`` whenever the rename did not happen, whatever the
    interrupting exception was.
    """
    final = os.fspath(path)
    directory = os.path.dirname(final) or "."
    fd, tmp = tempfile.mkstemp(dir=directory,
                               prefix=os.path.basename(final) + ".",
                               suffix=".tmp")
    committed = False
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, final)
        committed = True
    finally:
        if not committed:
            try:
                os.unlink(tmp)
            except OSError:
                pass


def _npy_header(array: np.ndarray) -> bytes:
    """The ``.npy`` (format 1.0) header :func:`np.save` writes for
    ``array``."""
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        header, np.lib.format.header_data_from_array_1_0(array))
    return header.getvalue()


def _zip_stored(members) -> bytes:
    """The archive ``np.savez`` writes, byte for byte, in one pass.

    ``members`` holds ``(name, header, data, crc)``: each member's
    bytes are ``header`` followed by ``data`` (any C-contiguous buffer)
    and ``crc`` is their CRC32. The layout is what :mod:`zipfile` writes
    for ``np.savez``: stored members stamped 1980-01-01, ZIP64 local
    headers, and ZIP64 directory fields only where a size or offset
    needs them. The result is one ``bytes.join`` — a single allocation
    of the final size, each array's memory copied once.
    """
    parts, directory, offset = [], [], 0
    for name, header, data, crc in members:
        try:
            encoded, flags = name.encode("ascii"), 0
        except UnicodeEncodeError:
            encoded, flags = name.encode("utf-8"), 0x800
        size = len(header) + data.nbytes
        local = struct.pack(
            "<IHHHHHIIIHH", 0x04034B50, _ZIP64_VERSION, flags, 0, 0,
            _ZIP_EPOCH, crc, 0xFFFFFFFF, 0xFFFFFFFF, len(encoded), 20)
        parts += [local, encoded, struct.pack("<HHQQ", 1, 16, size, size),
                  header, data]
        wide = [size, size] if size > _ZIP64_LIMIT else []
        if offset > _ZIP64_LIMIT:
            wide.append(offset)
        extra = struct.pack(f"<HH{len(wide)}Q", 1, 8 * len(wide), *wide) \
            if wide else b""
        stored = 0xFFFFFFFF if size > _ZIP64_LIMIT else size
        directory += [
            struct.pack("<IBBHHHHHIIIHHHHHII", 0x02014B50, _ZIP64_VERSION,
                        3, _ZIP64_VERSION, flags, 0, 0, _ZIP_EPOCH, crc,
                        stored, stored, len(encoded), len(extra), 0, 0, 0,
                        0o600 << 16,
                        0xFFFFFFFF if offset > _ZIP64_LIMIT else offset),
            encoded, extra]
        offset += len(local) + len(encoded) + 20 + size
    count = len(members)
    directory_size = sum(len(part) for part in directory)
    if count > 0xFFFF or offset > _ZIP64_LIMIT \
            or directory_size > _ZIP64_LIMIT:
        directory.append(struct.pack(
            "<IQHHIIQQQQIIQI", 0x06064B50, 44, _ZIP64_VERSION,
            _ZIP64_VERSION, 0, 0, count, count, directory_size, offset,
            0x07064B50, 0, offset + directory_size, 1))
    directory.append(struct.pack(
        "<IHHHHIIH", 0x06054B50, 0, 0, min(count, 0xFFFF),
        min(count, 0xFFFF), min(directory_size, 0xFFFFFFFF),
        min(offset, 0xFFFFFFFF), 0))
    return b"".join(parts + directory)


def _archive_member(name: str, array: np.ndarray):
    """The ``(member name, header, data, crc)`` ``np.savez`` stores for
    ``array``, and the array's own CRC32 for the checksum table."""
    header = _npy_header(array)
    header_crc = zlib.crc32(header)
    c_order = np.ascontiguousarray(array)
    checksum = zlib.crc32(c_order)
    # np.save writes a Fortran-ordered array in its own memory order and
    # says so in the header; everything else in C order.
    if array.flags.f_contiguous and not array.flags.c_contiguous:
        data, crc = array.T, zlib.crc32(array.T, header_crc)
    elif c_order.nbytes >= _CRC_COMBINE_MIN_BYTES:
        data = c_order
        crc = _crc32_combine(header_crc, checksum, c_order.nbytes)
    else:
        data, crc = c_order, zlib.crc32(c_order, header_crc)
    return (name + ".npy", header, data, crc), checksum


def save_bytes(session: Session) -> bytes:
    """Serialize every variable's current value to ``.npz`` bytes.

    The archive holds the members :func:`np.savez` would write — one
    ``<variable>.npy`` per variable plus the CRC32 checksum table, same
    names, same bytes — but is built in one pass: each checksum is taken
    over the array's own memory and each array is copied once, into the
    final buffer. The bytes restore through :func:`restore_bytes` (or
    :func:`restore`, once written to a file).
    """
    members, checksums = [], {}
    for name, op in _graph_variables(session.graph).items():
        member, checksums[name] = _archive_member(
            name, session.variable_value(op.output))
        members.append(member)
    # Per-variable CRC32 checksums, stored as a reserved JSON payload in
    # the archive and verified on restore (see CheckpointCorruptError).
    table = np.frombuffer(json.dumps(checksums, sort_keys=True)
                          .encode("utf-8"), dtype=np.uint8)
    members.append(_archive_member(_CHECKSUM_KEY, table)[0])
    return _zip_stored(members)


def save(session: Session, path: str | os.PathLike) -> list[str]:
    """Write every variable's current value to ``path`` (.npz).

    Variables that were never touched are saved at their initial values.
    Returns the saved variable names.

    The write is *atomic* (see :func:`atomic_write_bytes`): a crash
    mid-save can never leave a truncated or corrupt checkpoint behind —
    the previous checkpoint (if any) survives untouched, and the
    temporary file is cleaned up.
    """
    final = os.fspath(path)
    if not final.endswith(".npz"):  # np.savez's own suffix convention
        final += ".npz"
    atomic_write_bytes(final, save_bytes(session))
    return sorted(_graph_variables(session.graph))


def _read_archive(source, label: str) -> dict[str, np.ndarray]:
    """Decode an ``.npz`` archive (path or file-like) member by member.

    Localizes a single undecodable member to its variable name instead
    of surfacing the numpy decode error.
    """
    try:
        with np.load(source) as archive:
            names = list(archive.files)
            stored = {}
            for name in names:
                try:
                    stored[name] = archive[name]
                except (OSError, ValueError, zipfile.BadZipFile,
                        EOFError) as exc:
                    raise CheckpointCorruptError(
                        f"checkpoint {label!r}: variable "
                        f"{name!r} cannot be decoded: {exc}",
                        variable=name) from exc
    except CheckpointCorruptError:
        raise
    except (OSError, ValueError, zipfile.BadZipFile, EOFError) as exc:
        raise CheckpointError(
            f"cannot read checkpoint {label!r}: {exc}") from exc
    return stored


def _apply_stored(session: Session, stored: dict[str, np.ndarray],
                  label: str, strict: bool) -> list[str]:
    """Verify checksums and load ``stored`` arrays into ``session``."""
    variables = _graph_variables(session.graph)
    checksums = None
    blob = stored.pop(_CHECKSUM_KEY, None)
    if blob is not None:
        try:
            checksums = json.loads(bytes(blob).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointCorruptError(
                f"checkpoint {label!r}: checksum table is "
                f"corrupt: {exc}", variable=_CHECKSUM_KEY) from exc
    if checksums is not None:
        # Archive self-consistency: the checksum table and the payloads
        # must describe the same variable set. A divergence means the
        # archive was assembled or damaged outside save() — name the
        # offending variable rather than failing on a confusing
        # missing/unexpected set difference against the graph below.
        unbacked = sorted(set(checksums) - set(stored))
        if unbacked:
            raise CheckpointCorruptError(
                f"checkpoint {label!r}: checksum table lists variable "
                f"{unbacked[0]!r} but the archive holds no such payload",
                variable=unbacked[0])
        unlisted = sorted(set(stored) - set(checksums))
        if unlisted:
            raise CheckpointCorruptError(
                f"checkpoint {label!r}: payload {unlisted[0]!r} is "
                f"missing from the checksum table",
                variable=unlisted[0])
    missing = sorted(set(variables) - set(stored))
    unexpected = sorted(set(stored) - set(variables))
    if strict and (missing or unexpected):
        raise CheckpointError(
            f"checkpoint mismatch: missing={missing[:5]} "
            f"unexpected={unexpected[:5]}")
    restored = []
    for name in sorted(set(variables) & set(stored)):
        op = variables[name]
        value = stored[name]
        if checksums is not None and name in checksums:
            actual = _array_crc32(value)
            if actual != checksums[name]:
                raise CheckpointCorruptError(
                    f"checkpoint {label!r}: variable {name!r} "
                    f"failed its CRC32 check (stored "
                    f"{checksums[name]:#010x}, computed {actual:#010x}); "
                    f"the payload was corrupted after save",
                    variable=name)
        if value.shape != op.output.shape:
            raise CheckpointError(
                f"variable {name!r}: checkpoint shape {value.shape} != "
                f"graph shape {op.output.shape}")
        session.set_variable(op.output, value)
        restored.append(name)
    return restored


def restore(session: Session, path: str | os.PathLike,
            strict: bool = True) -> list[str]:
    """Load variable values from ``path`` into ``session``.

    Args:
        strict: if True (default), every graph variable must be present
            in the checkpoint and vice versa; if False, restore the
            intersection.

    Returns the restored variable names.
    """
    label = os.fspath(path)
    stored = _read_archive(path, label)
    return _apply_stored(session, stored, label, strict)


def restore_bytes(session: Session, data: bytes, strict: bool = True,
                  source: str = "<bytes>") -> list[str]:
    """Load variable values from :func:`save_bytes` output.

    Args:
        source: label used in error messages (e.g. a blob key).

    Returns the restored variable names.
    """
    stored = _read_archive(io.BytesIO(data), source)
    return _apply_stored(session, stored, source, strict)
