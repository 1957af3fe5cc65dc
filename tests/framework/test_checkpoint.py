"""Tests for variable checkpointing."""

import io
import json
import zipfile
import zlib

import numpy as np
import pytest

from repro import workloads
from repro.framework import checkpoint, ops
from repro.framework.checkpoint import CheckpointError
from repro.framework.graph import Graph
from repro.framework.optimizers import GradientDescentOptimizer
from repro.framework.session import Session
from repro.storage import state_digests
from repro.workloads import WORKLOAD_NAMES


def small_model():
    w = ops.variable(np.zeros((4, 2), dtype=np.float32), name="w")
    b = ops.variable(np.zeros(2, dtype=np.float32), name="b")
    x = ops.placeholder((3, 4), name="x")
    loss = ops.reduce_sum(ops.square(ops.bias_add(ops.matmul(x, w), b)
                                     - 1.0))
    train = GradientDescentOptimizer(0.05).minimize(loss)
    return x, loss, train, w, b


class TestSaveRestore:
    def test_roundtrip_preserves_training_state(self, fresh_graph, tmp_path,
                                                rng):
        x, loss, train, w, b = small_model()
        session = Session(fresh_graph, seed=0)
        feed = {x: rng.standard_normal((3, 4)).astype(np.float32)}
        for _ in range(5):
            session.run(train, feed_dict=feed)
        trained_loss = session.run(loss, feed_dict=feed)
        path = tmp_path / "model.npz"
        saved = checkpoint.save(session, path)
        assert "w" in saved and "b" in saved

        fresh = Session(fresh_graph, seed=1)
        assert fresh.run(loss, feed_dict=feed) != pytest.approx(
            float(trained_loss))
        checkpoint.restore(fresh, path)
        np.testing.assert_allclose(fresh.run(loss, feed_dict=feed),
                                   trained_loss, rtol=1e-6)

    def test_save_includes_optimizer_slots(self, fresh_graph, tmp_path, rng):
        x, loss, train, w, b = small_model()
        session = Session(fresh_graph, seed=0)
        session.run(train,
                    feed_dict={x: np.ones((3, 4), dtype=np.float32)})
        saved = checkpoint.save(session, tmp_path / "ckpt.npz")
        # SGD has no slots, but the graph's variables are all there.
        assert set(saved) == {"w", "b"}

    def test_untouched_variables_saved_at_initial_value(self, fresh_graph,
                                                        tmp_path):
        ops.variable(np.full(3, 7.0, dtype=np.float32), name="v")
        session = Session(fresh_graph, seed=0)
        checkpoint.save(session, tmp_path / "init.npz")
        with np.load(tmp_path / "init.npz") as archive:
            np.testing.assert_array_equal(archive["v"], [7.0, 7.0, 7.0])

    def test_strict_restore_rejects_missing(self, fresh_graph, tmp_path):
        ops.variable(np.zeros(2, dtype=np.float32), name="a")
        session = Session(fresh_graph, seed=0)
        checkpoint.save(session, tmp_path / "a.npz")
        # New graph with an extra variable.
        other = Graph()
        with other.as_default():
            ops.variable(np.zeros(2, dtype=np.float32), name="a")
            ops.variable(np.zeros(2, dtype=np.float32), name="extra")
        other_session = Session(other, seed=0)
        with pytest.raises(CheckpointError, match="mismatch"):
            checkpoint.restore(other_session, tmp_path / "a.npz")
        restored = checkpoint.restore(other_session, tmp_path / "a.npz",
                                      strict=False)
        assert restored == ["a"]

    def test_shape_mismatch_rejected(self, fresh_graph, tmp_path):
        ops.variable(np.zeros(2, dtype=np.float32), name="v")
        session = Session(fresh_graph, seed=0)
        checkpoint.save(session, tmp_path / "v.npz")
        other = Graph()
        with other.as_default():
            ops.variable(np.zeros(3, dtype=np.float32), name="v")
        with pytest.raises(CheckpointError, match="shape"):
            checkpoint.restore(Session(other, seed=0), tmp_path / "v.npz")

    def test_save_appends_npz_suffix_like_savez(self, fresh_graph,
                                                tmp_path):
        ops.variable(np.zeros(2, dtype=np.float32), name="v")
        session = Session(fresh_graph, seed=0)
        checkpoint.save(session, tmp_path / "bare")
        assert (tmp_path / "bare.npz").exists()

    def test_workload_checkpoint_roundtrip(self, tmp_path):
        from repro import workloads
        model = workloads.create("autoenc", config="tiny", seed=0)
        model.run_training(steps=3)
        images = model.sample_feed(training=False)[model.images]
        reference = model.session.run(model.loss,
                                      feed_dict={model.images: images})
        checkpoint.save(model.session, tmp_path / "autoenc.npz")

        clone = workloads.create("autoenc", config="tiny", seed=99)
        checkpoint.restore(clone.session, tmp_path / "autoenc.npz")
        restored = clone.session.run(clone.loss,
                                     feed_dict={clone.images: images})
        # Same weights, same input; the only difference is the sampling
        # noise stream, so losses are close but not identical.
        assert abs(float(restored) - float(reference)) < \
            0.1 * abs(float(reference))


class TestAtomicSave:
    """checkpoint.save must never leave a corrupt archive behind."""

    def make_session(self, fresh_graph, value):
        ops.variable(np.full(4, value, dtype=np.float32), name="v")
        return Session(fresh_graph, seed=0)

    def test_interrupted_save_preserves_previous_checkpoint(
            self, fresh_graph, tmp_path, monkeypatch):
        """A crash mid-write (simulated: the archive writer dies part-way)
        must leave the previous checkpoint intact and loadable."""
        session = self.make_session(fresh_graph, 1.0)
        path = tmp_path / "model.npz"
        checkpoint.save(session, path)

        real_writer = checkpoint._zip_stored

        def dying_writer(members):
            raise OSError("simulated crash mid-save")

        monkeypatch.setattr(checkpoint, "_zip_stored", dying_writer)
        session.set_variable(
            session.graph.operations[0].output,
            np.full(4, 2.0, dtype=np.float32))
        with pytest.raises(OSError, match="simulated crash"):
            checkpoint.save(session, path)
        monkeypatch.setattr(checkpoint, "_zip_stored", real_writer)

        # The old checkpoint survives, bit-for-bit valid.
        restored = Session(fresh_graph, seed=3)
        checkpoint.restore(restored, path)
        np.testing.assert_array_equal(
            restored.variable_value(fresh_graph.operations[0].output),
            [1.0, 1.0, 1.0, 1.0])

    def test_interrupted_save_leaves_no_temp_litter(
            self, fresh_graph, tmp_path, monkeypatch):
        session = self.make_session(fresh_graph, 1.0)

        def dying_writer(members):
            raise OSError("simulated crash mid-save")

        monkeypatch.setattr(checkpoint, "_zip_stored", dying_writer)
        with pytest.raises(OSError):
            checkpoint.save(session, tmp_path / "model.npz")
        assert list(tmp_path.iterdir()) == []

    def test_write_fault_before_publish_cleans_the_temp_file(
            self, tmp_path, monkeypatch):
        """An injected I/O fault during the write itself (fsync dying,
        e.g. the device going away) must remove the temp file and leave
        the previous contents untouched."""
        from repro.framework.checkpoint import atomic_write_bytes
        target = tmp_path / "blob"
        atomic_write_bytes(target, b"previous contents")

        def dying_fsync(fd):
            raise OSError("simulated I/O error during fsync")

        monkeypatch.setattr(checkpoint.os, "fsync", dying_fsync)
        with pytest.raises(OSError, match="simulated I/O error"):
            atomic_write_bytes(target, b"new contents")
        assert target.read_bytes() == b"previous contents"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blob"]

    def test_write_fault_at_publish_cleans_the_temp_file(
            self, tmp_path, monkeypatch):
        """Same contract when the fault lands on the rename itself."""
        from repro.framework.checkpoint import atomic_write_bytes
        target = tmp_path / "blob"

        def dying_replace(src, dst):
            raise OSError("simulated crash at rename")

        monkeypatch.setattr(checkpoint.os, "replace", dying_replace)
        with pytest.raises(OSError, match="simulated crash"):
            atomic_write_bytes(target, b"data")
        assert list(tmp_path.iterdir()) == []

    def test_save_goes_through_os_replace(self, fresh_graph, tmp_path,
                                          monkeypatch):
        """The final publish step is an atomic rename, not a write."""
        import os as os_module
        session = self.make_session(fresh_graph, 1.0)
        replaced = []
        real_replace = os_module.replace

        def spying_replace(src, dst):
            replaced.append((src, dst))
            return real_replace(src, dst)

        monkeypatch.setattr(checkpoint.os, "replace", spying_replace)
        checkpoint.save(session, tmp_path / "model.npz")
        assert len(replaced) == 1
        src, dst = replaced[0]
        assert dst == str(tmp_path / "model.npz")
        # temp file lived in the same directory (required for atomicity)
        assert os_module.path.dirname(src) == str(tmp_path)


class TestIntegrity:
    """CRC32 verification: corruption after save is localized on restore."""

    def _tamper(self, path, name, mutate):
        """Rewrite one stored array, keeping the original checksum table."""
        with np.load(path) as archive:
            data = {key: archive[key] for key in archive.files}
        data[name] = mutate(data[name])
        np.savez(path, **data)

    def test_tampered_payload_names_the_variable(self, fresh_graph,
                                                 tmp_path):
        from repro.framework.checkpoint import CheckpointCorruptError
        x, loss, train, w, b = small_model()
        session = Session(fresh_graph, seed=0)
        path = tmp_path / "ckpt.npz"
        checkpoint.save(session, path)
        self._tamper(path, "w", lambda value: value + 1.0)
        fresh = Session(fresh_graph, seed=1)
        with pytest.raises(CheckpointCorruptError,
                           match="'w' failed its CRC32") as excinfo:
            checkpoint.restore(fresh, path)
        assert excinfo.value.variable == "w"
        # corruption errors are still CheckpointErrors for callers that
        # catch broadly (the resilient runner's resume path)
        assert isinstance(excinfo.value, CheckpointError)

    def test_untampered_checkpoint_passes_verification(self, fresh_graph,
                                                       tmp_path):
        x, loss, train, w, b = small_model()
        session = Session(fresh_graph, seed=0)
        path = tmp_path / "ckpt.npz"
        checkpoint.save(session, path)
        restored = checkpoint.restore(Session(fresh_graph, seed=1), path)
        assert restored == ["b", "w"]

    def test_corrupt_checksum_table_rejected(self, fresh_graph, tmp_path):
        from repro.framework.checkpoint import (CheckpointCorruptError,
                                                _CHECKSUM_KEY)
        x, loss, train, w, b = small_model()
        session = Session(fresh_graph, seed=0)
        path = tmp_path / "ckpt.npz"
        checkpoint.save(session, path)
        self._tamper(path, _CHECKSUM_KEY,
                     lambda value: np.frombuffer(b"not json",
                                                 dtype=np.uint8).copy())
        with pytest.raises(CheckpointCorruptError, match="checksum table"):
            checkpoint.restore(Session(fresh_graph, seed=1), path)

    def test_legacy_checkpoint_without_checksums_restores(self, fresh_graph,
                                                          tmp_path):
        """Archives written before checksums existed still load."""
        x, loss, train, w, b = small_model()
        session = Session(fresh_graph, seed=0)
        path = tmp_path / "legacy.npz"
        np.savez(path, w=np.ones((4, 2), dtype=np.float32),
                 b=np.ones(2, dtype=np.float32))
        restored = checkpoint.restore(session, path)
        assert restored == ["b", "w"]
        np.testing.assert_array_equal(session.variable_value(w),
                                      np.ones((4, 2), dtype=np.float32))

    def test_truncated_archive_is_a_checkpoint_error(self, fresh_graph,
                                                     tmp_path):
        x, loss, train, w, b = small_model()
        session = Session(fresh_graph, seed=0)
        path = tmp_path / "ckpt.npz"
        checkpoint.save(session, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(CheckpointError):
            checkpoint.restore(Session(fresh_graph, seed=1), path)

    def test_checksum_table_entry_without_payload_is_localized(
            self, fresh_graph, tmp_path):
        """A table/payload divergence names the offending variable
        instead of surfacing as a confusing graph mismatch."""
        from repro.framework.checkpoint import CheckpointCorruptError
        x, loss, train, w, b = small_model()
        session = Session(fresh_graph, seed=0)
        path = tmp_path / "ckpt.npz"
        checkpoint.save(session, path)
        with np.load(path) as archive:
            data = {key: archive[key] for key in archive.files}
        del data["w"]  # payload vanishes; the table still lists it
        np.savez(path, **data)
        with pytest.raises(CheckpointCorruptError,
                           match="lists variable 'w' but the archive "
                                 "holds no such payload") as excinfo:
            checkpoint.restore(Session(fresh_graph, seed=1), path)
        assert excinfo.value.variable == "w"

    def test_payload_missing_from_checksum_table_is_localized(
            self, fresh_graph, tmp_path):
        from repro.framework.checkpoint import (CheckpointCorruptError,
                                                _CHECKSUM_KEY)
        x, loss, train, w, b = small_model()
        session = Session(fresh_graph, seed=0)
        path = tmp_path / "ckpt.npz"
        checkpoint.save(session, path)
        with np.load(path) as archive:
            data = {key: archive[key] for key in archive.files}
        table = json.loads(bytes(data[_CHECKSUM_KEY]).decode("utf-8"))
        del table["b"]  # the table forgets a payload it shipped
        data[_CHECKSUM_KEY] = np.frombuffer(
            json.dumps(table, sort_keys=True).encode("utf-8"),
            dtype=np.uint8).copy()
        np.savez(path, **data)
        with pytest.raises(CheckpointCorruptError,
                           match="payload 'b' is missing from the "
                                 "checksum table") as excinfo:
            checkpoint.restore(Session(fresh_graph, seed=1), path)
        assert excinfo.value.variable == "b"


class TestEdgeCasePayloads:
    """Zero-length arrays and non-default dtypes must round-trip."""

    def test_zero_length_array_roundtrips(self, fresh_graph, tmp_path):
        empty = ops.variable(np.zeros((0, 4), dtype=np.float32),
                             name="empty")
        session = Session(fresh_graph, seed=0)
        checkpoint.save(session, tmp_path / "empty.npz")
        fresh = Session(fresh_graph, seed=1)
        assert checkpoint.restore(fresh, tmp_path / "empty.npz") \
            == ["empty"]
        value = fresh.variable_value(empty)
        assert value.shape == (0, 4) and value.dtype == np.float32

    @pytest.mark.parametrize("dtype", [np.float16, np.int8, np.int64])
    def test_dtype_roundtrips_exactly(self, fresh_graph, tmp_path,
                                      dtype):
        initial = np.array([-3, 0, 7], dtype=dtype)
        var = ops.variable(initial, name="q")
        session = Session(fresh_graph, seed=0)
        checkpoint.save(session, tmp_path / "q.npz")
        fresh = Session(fresh_graph, seed=1)
        checkpoint.restore(fresh, tmp_path / "q.npz")
        value = fresh.variable_value(var)
        assert value.dtype == dtype
        np.testing.assert_array_equal(value, initial)


class TestBytesTransport:
    """save_bytes/restore_bytes: the archive format minus the filesystem
    (what the replicated blob stores carry)."""

    def test_bytes_roundtrip_matches_file_roundtrip(self, fresh_graph,
                                                    tmp_path, rng):
        x, loss, train, w, b = small_model()
        session = Session(fresh_graph, seed=0)
        feed = {x: rng.standard_normal((3, 4)).astype(np.float32)}
        for _ in range(4):
            session.run(train, feed_dict=feed)
        data = checkpoint.save_bytes(session)

        # The byte payload *is* the file format: written out verbatim it
        # restores through the file path, and vice versa.
        (tmp_path / "ckpt.npz").write_bytes(data)
        via_file = Session(fresh_graph, seed=1)
        checkpoint.restore(via_file, tmp_path / "ckpt.npz")
        via_bytes = Session(fresh_graph, seed=2)
        assert checkpoint.restore_bytes(via_bytes, data) == ["b", "w"]
        np.testing.assert_array_equal(via_file.variable_value(w),
                                      via_bytes.variable_value(w))
        np.testing.assert_array_equal(via_file.variable_value(w),
                                      session.variable_value(w))

    def test_restore_bytes_labels_errors_with_the_source(self,
                                                         fresh_graph):
        small_model()
        session = Session(fresh_graph, seed=0)
        data = bytearray(checkpoint.save_bytes(session))
        data[100] ^= 0xFF
        with pytest.raises(CheckpointError,
                           match="ckpt/00000000/payload"):
            checkpoint.restore_bytes(session, bytes(data),
                                     source="ckpt/00000000/payload")


def savez_reference(session) -> bytes:
    """The archive np.savez wrote for ``session`` before the one-pass
    writer: the variables in graph order, then a checksum table of
    CRC32s over ``tobytes()`` copies."""
    arrays = {name: session.variable_value(op.output)
              for name, op in checkpoint._graph_variables(
                  session.graph).items()}
    table = {name: zlib.crc32(np.ascontiguousarray(value).tobytes())
             for name, value in arrays.items()}
    arrays[checkpoint._CHECKSUM_KEY] = np.frombuffer(
        json.dumps(table, sort_keys=True).encode("utf-8"), dtype=np.uint8)
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    return buffer.getvalue()


def archive_members(data: bytes) -> list[tuple[str, bytes]]:
    """``(name, bytes)`` of every member, in archive order; reading each
    member checks its CRC32."""
    with zipfile.ZipFile(io.BytesIO(data)) as archive:
        return [(name, archive.read(name)) for name in archive.namelist()]


def assert_writer_matches_savez(session) -> bytes:
    data = checkpoint.save_bytes(session)
    assert archive_members(data) == archive_members(
        savez_reference(session))
    with np.load(io.BytesIO(data)) as archive:
        for name, op in checkpoint._graph_variables(session.graph).items():
            expected = session.variable_value(op.output)
            assert archive[name].shape == expected.shape
            assert archive[name].dtype == expected.dtype
            np.testing.assert_array_equal(archive[name], expected)
    return data


class TestOnePassWriter:
    """save_bytes writes what np.savez wrote: same members, same bytes,
    same checksum table — built in one pass over the arrays' memory."""

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_every_workload_matches_savez_and_restores_bitwise(self,
                                                              name):
        model = workloads.create(name, config="tiny", seed=0)
        model.run_training(1)  # optimizer slots and step counters move
        data = assert_writer_matches_savez(model.session)
        fork = model.session.fork(seed=1)
        checkpoint.restore_bytes(fork, data)
        assert state_digests(fork) == state_digests(model.session)

    def test_edge_case_values_match_savez(self, fresh_graph):
        scalar = ops.variable(np.float32(3.5), name="adam_t")
        empty = ops.variable(np.zeros((0, 3), dtype=np.float32),
                             name="empty")
        half = ops.variable(np.array([1.5, -2.0], dtype=np.float16),
                            name="half")
        small = ops.variable(np.array([-3, 0, 7], dtype=np.int8),
                             name="small")
        fortran = ops.variable(np.zeros((3, 4), dtype=np.float32),
                               name="fortran")
        strided = ops.variable(np.zeros((3, 4), dtype=np.float32),
                               name="strided")
        big = ops.variable(np.zeros((600, 70), dtype=np.float32),
                           name="big")  # over the CRC-combine size
        session = Session(fresh_graph, seed=0)
        values = np.arange(48, dtype=np.float32).reshape(6, 8)
        session.set_variable(fortran, np.asfortranarray(values[:3, :4]))
        session.set_variable(strided, values[::2, ::2])
        session.set_variable(big, np.random.default_rng(0).standard_normal(
            (600, 70)).astype(np.float32))
        assert not session.variable_value(strided).flags.c_contiguous
        assert session.variable_value(fortran).flags.f_contiguous
        data = assert_writer_matches_savez(session)

        fresh = Session(fresh_graph, seed=1)
        checkpoint.restore_bytes(fresh, data)
        assert state_digests(fresh) == state_digests(session)
        assert fresh.variable_value(scalar).shape == ()
        for var in (empty, half, small):
            assert fresh.variable_value(var).dtype == var.dtype

    def test_zip64_fields_match_savez(self, fresh_graph, monkeypatch):
        """Past the ZIP64 limit (lowered here so it is reachable) the
        directory carries ZIP64 sizes, offsets and end records exactly
        as zipfile writes them for np.savez."""
        ops.variable(np.ones((40, 40), dtype=np.float32), name="w")
        ops.variable(np.zeros(3, dtype=np.int8), name="b")
        session = Session(fresh_graph, seed=0)
        monkeypatch.setattr(zipfile, "ZIP64_LIMIT", 1000)
        monkeypatch.setattr(checkpoint, "_ZIP64_LIMIT", 1000)
        assert checkpoint.save_bytes(session) == savez_reference(session)

    @pytest.mark.parametrize("length", [0, 1, 7, 4096, 1 << 17, 300_001])
    def test_crc32_combine_matches_zlib(self, length):
        rng = np.random.default_rng(length)
        head = rng.integers(0, 256, 61, dtype=np.uint8).tobytes()
        tail = rng.integers(0, 256, length, dtype=np.uint8).tobytes()
        assert checkpoint._crc32_combine(
            zlib.crc32(head), zlib.crc32(tail), length) \
            == zlib.crc32(head + tail)
