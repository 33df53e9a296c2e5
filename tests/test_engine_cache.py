"""Tests for the content-addressed artifact cache and engine cache behaviour."""

from __future__ import annotations

import hashlib
import io
import os
import threading
import unittest.mock
import zipfile

import numpy as np
import pytest

from repro.core.affinity import AffinityFunctionId, AffinityMatrix
from repro.engine import (
    AffinityEngine,
    ArtifactCache,
    EngineConfig,
    FeatureCosineSource,
    PrototypeAffinitySource,
    hash_arrays,
    hash_params,
    logits_source,
    sparsify_affinity,
)
from repro.nn import BACKBONE_KERNEL, Conv2d, MaxPool2d
from repro.nn import functional as F
from repro.utils import load_npz


class TestHashing:
    def test_array_hash_sensitive_to_content(self):
        a = np.arange(12.0).reshape(3, 4)
        b = a.copy()
        assert hash_arrays(a) == hash_arrays(b)
        b[0, 0] += 1e-9
        assert hash_arrays(a) != hash_arrays(b)

    def test_array_hash_sensitive_to_shape_and_dtype(self):
        a = np.arange(12.0)
        assert hash_arrays(a) != hash_arrays(a.reshape(3, 4))
        assert hash_arrays(a) != hash_arrays(a.astype(np.float32))

    def test_param_hash_order_independent(self):
        assert hash_params({"a": 1, "b": 2}) == hash_params({"b": 2, "a": 1})
        assert hash_params({"a": 1}) != hash_params({"a": 2})

    @pytest.mark.parametrize(
        "array",
        [
            np.arange(24.0).reshape(4, 6),
            np.asfortranarray(np.arange(24.0).reshape(4, 6)),
            np.arange(48.0).reshape(6, 8)[::2, 1::3],
            np.array(3.5),
            np.empty((0, 5)),
            np.array([[True, False], [False, True]]),
            np.linspace(0, 1, 10, dtype=np.float32),
        ],
        ids=["c-order", "f-order", "strided", "0-d", "empty", "bool", "float32"],
    )
    def test_byte_view_digest_matches_tobytes(self, array):
        """Cache keys and shard ids must not move: the byte-view digest
        equals the ``tobytes()`` digest it replaced."""
        digest = hashlib.sha256()
        contiguous = np.ascontiguousarray(array)
        digest.update(str(contiguous.dtype).encode())
        digest.update(str(contiguous.shape).encode())
        digest.update(contiguous.tobytes())
        assert hash_arrays(array) == digest.hexdigest()


class TestArtifactCache:
    def test_array_roundtrip(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        key = cache.key("datahash", {"p": 1})
        assert cache.load_arrays("state", key) is None
        cache.save_arrays("state", key, {"x": np.arange(5), "y": np.eye(2)})
        loaded = cache.load_arrays("state", key)
        np.testing.assert_array_equal(loaded["x"], np.arange(5))
        np.testing.assert_array_equal(loaded["y"], np.eye(2))
        assert cache.stats.misses == {"state": 1}
        assert cache.stats.hits == {"state": 1}

    def test_clear(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        cache.save_arrays("a", "0" * 64, {"x": np.arange(3)})
        cache.save_arrays("b", "1" * 64, {"x": np.arange(3)})
        assert cache.clear() == 2
        assert cache.load_arrays("a", "0" * 64) is None

    def test_keys_differ_by_kind_inputs(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        assert cache.key("d", {"p": 1}) != cache.key("d", {"p": 2})
        assert cache.key("d", {"p": 1}) != cache.key("e", {"p": 1})


class TestEngineCaching:
    def test_cold_miss_then_warm_hit(self, tmp_path, vgg, tiny_images):
        source = PrototypeAffinitySource(vgg, top_z=2, layers=(0, 1))
        engine = AffinityEngine(source, EngineConfig(cache_dir=str(tmp_path)))
        first = engine.build(tiny_images, keep_state=False)
        assert engine.cache.stats.misses.get("affinity") == 1
        second = engine.build(tiny_images, keep_state=False)
        assert engine.cache.stats.hits.get("affinity") == 1
        np.testing.assert_array_equal(first.values, second.values)
        assert first.function_ids == second.function_ids

    def test_cache_shared_across_engines(self, tmp_path, vgg, tiny_images):
        source = PrototypeAffinitySource(vgg, top_z=2, layers=(0,))
        config = EngineConfig(cache_dir=str(tmp_path))
        AffinityEngine(source, config).build(tiny_images, keep_state=False)
        other = AffinityEngine(source, config)
        other.build(tiny_images, keep_state=False)
        assert other.cache.stats.total_hits == 1
        assert other.cache.stats.total_misses == 0

    def test_different_images_miss(self, tmp_path, vgg, tiny_images):
        source = PrototypeAffinitySource(vgg, top_z=2, layers=(0,))
        engine = AffinityEngine(source, EngineConfig(cache_dir=str(tmp_path)))
        engine.build(tiny_images, keep_state=False)
        engine.build(tiny_images + 1e-6, keep_state=False)
        assert engine.cache.stats.total_hits == 0
        assert engine.cache.stats.misses.get("affinity") == 2

    def test_different_source_params_miss(self, tmp_path, vgg, tiny_images):
        config = EngineConfig(cache_dir=str(tmp_path))
        AffinityEngine(PrototypeAffinitySource(vgg, top_z=2, layers=(0,)), config).build(
            tiny_images, keep_state=False
        )
        engine = AffinityEngine(PrototypeAffinitySource(vgg, top_z=3, layers=(0,)), config)
        engine.build(tiny_images, keep_state=False)
        assert engine.cache.stats.total_hits == 0

    def test_precision_changes_key(self, tmp_path, vgg, tiny_images):
        source = PrototypeAffinitySource(vgg, top_z=2, layers=(0,))
        AffinityEngine(source, EngineConfig(cache_dir=str(tmp_path))).build(tiny_images, keep_state=False)
        engine32 = AffinityEngine(source, EngineConfig(cache_dir=str(tmp_path), precision="float32"))
        engine32.build(tiny_images, keep_state=False)
        assert engine32.cache.stats.total_hits == 0

    def test_runtime_knobs_do_not_change_key(self, tmp_path, vgg, tiny_images):
        source = PrototypeAffinitySource(vgg, top_z=2, layers=(0,))
        AffinityEngine(
            source, EngineConfig(cache_dir=str(tmp_path), batch_size=2, n_jobs=1)
        ).build(tiny_images, keep_state=False)
        engine = AffinityEngine(
            source, EngineConfig(cache_dir=str(tmp_path), batch_size=None, n_jobs=3, row_tile=2)
        )
        engine.build(tiny_images, keep_state=False)
        assert engine.cache.stats.total_hits == 1

    def test_state_cached_for_incremental(self, tmp_path, vgg, tiny_images):
        source = PrototypeAffinitySource(vgg, top_z=2, layers=(0,))
        config = EngineConfig(cache_dir=str(tmp_path))
        AffinityEngine(source, config).build(tiny_images)  # keep_state default: True
        # A fresh engine restores the corpus state from the cache and can extend.
        engine = AffinityEngine(source, config)
        engine.build(tiny_images)
        assert engine.state is not None
        extended = engine.extend(tiny_images[:2])
        assert extended.n_examples == tiny_images.shape[0] + 2

    def test_corrupt_entry_is_miss_and_evicted(self, tmp_path, vgg, tiny_images):
        """A truncated/garbage artifact must never crash a run."""
        import os

        source = PrototypeAffinitySource(vgg, top_z=2, layers=(0,))
        engine = AffinityEngine(source, EngineConfig(cache_dir=str(tmp_path)))
        first = engine.build(tiny_images, keep_state=False)
        (entry,) = [p for p in os.listdir(tmp_path) if p.startswith("affinity-")]
        path = os.path.join(str(tmp_path), entry)
        with open(path, "wb") as handle:
            handle.write(b"not a zip file")
        rebuilt = engine.build(tiny_images, keep_state=False)
        np.testing.assert_array_equal(rebuilt.values, first.values)
        assert engine.cache.stats.misses.get("affinity") == 2
        # ... and the bad entry was replaced by a good one.
        third = engine.build(tiny_images, keep_state=False)
        assert engine.cache.stats.hits.get("affinity") == 1
        np.testing.assert_array_equal(third.values, first.values)

    def test_extend_is_a_cache_hit_on_rerun(self, tmp_path, vgg, tiny_images):
        """The chained extension artifact is read back, not just written."""
        source = PrototypeAffinitySource(vgg, top_z=2, layers=(0,))
        config = EngineConfig(cache_dir=str(tmp_path))
        first = AffinityEngine(source, config)
        first.build(tiny_images[:3])
        extended = first.extend(tiny_images[3:])
        # Fresh process: corpus build is a hit, and so is the extension.
        second = AffinityEngine(source, config)
        second.build(tiny_images[:3])
        replay = second.extend(tiny_images[3:])
        np.testing.assert_array_equal(replay.values, extended.values)
        assert second.cache.stats.total_misses == 0
        assert second.cache.stats.hits.get("affinity") == 2  # corpus + extension

    def test_state_schema_drift_is_miss(self, tmp_path, vgg, tiny_images):
        """A readable state npz without n_images is evicted, not a crash."""
        import os

        source = PrototypeAffinitySource(vgg, top_z=2, layers=(0,))
        engine = AffinityEngine(source, EngineConfig(cache_dir=str(tmp_path)))
        first = engine.build(tiny_images)
        (entry,) = [p for p in os.listdir(tmp_path) if p.startswith("state-")]
        key = entry[len("state-"):-len(".npz")]
        np.savez_compressed(os.path.join(str(tmp_path), entry), bogus=np.arange(3))
        fresh = AffinityEngine(source, EngineConfig(cache_dir=str(tmp_path)))
        rebuilt = fresh.build(tiny_images)  # rebuilds state instead of crashing
        np.testing.assert_array_equal(rebuilt.values, first.values)
        assert fresh.state is not None
        assert fresh.extend(tiny_images[:1]).n_examples == tiny_images.shape[0] + 1

    def test_no_cache_dir_disables_cache(self, vgg, tiny_images):
        engine = AffinityEngine(PrototypeAffinitySource(vgg, top_z=2, layers=(0,)))
        assert engine.cache is None
        engine.build(tiny_images)  # still works, just uncached

    def test_feature_source_cacheable(self, tmp_path, tiny_images):
        source = FeatureCosineSource(lambda imgs: imgs.reshape(imgs.shape[0], -1), "flat")
        engine = AffinityEngine(source, EngineConfig(cache_dir=str(tmp_path)))
        first = engine.build(tiny_images)
        second = engine.build(tiny_images)
        assert engine.cache.stats.total_hits >= 1
        np.testing.assert_array_equal(first.values, second.values)


def _im2col_conv2d(x, weight, bias, stride, padding):
    """The im2col + matmul convolution the shifted-GEMM kernel replaced:
    one GEMM over ``C_in*k*k`` patch columns."""
    n, c_in, _, _ = x.shape
    c_out, _, k, _ = weight.shape
    windows = np.lib.stride_tricks.sliding_window_view(F.pad2d(x, padding), (k, k), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride]  # (N, C_in, H_out, W_out, k, k)
    h_out, w_out = windows.shape[2:4]
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n, h_out * w_out, c_in * k * k)
    out = cols @ weight.reshape(c_out, -1).T + bias
    return out.transpose(0, 2, 1).reshape(n, c_out, h_out, w_out)


def _im2col_pool_features(model, images, layers, batch_size=None):
    """Pool maps of ``model`` computed with the im2col kernel."""
    x, pools = images, []
    for layer in model.features:
        if isinstance(layer, Conv2d):
            x = _im2col_conv2d(x, layer.weight, layer.bias, layer.stride, layer.padding)
        else:
            x = layer(x)
            if isinstance(layer, MaxPool2d):
                pools.append(x)
    return {layer: pools[layer] for layer in layers}


class _PreBumpSource(PrototypeAffinitySource):
    """The VGG source under its signature from before the backbone tag."""

    def signature(self):
        signature = super().signature()
        signature.pop("backbone", None)
        return signature


class TestBackboneKernelNamespace:
    """Pool features depend on the conv kernel in the last ulp, so an
    artifact cache filled by the im2col backbone must miss."""

    def test_im2col_filled_cache_misses(self, tmp_path, vgg, tiny_images, monkeypatch):
        config = EngineConfig(cache_dir=str(tmp_path))
        with monkeypatch.context() as patch:
            patch.setattr("repro.engine.source.extract_pool_features", _im2col_pool_features)
            old = AffinityEngine(_PreBumpSource(vgg, top_z=2), config).build(tiny_images, keep_state=False)
        engine = AffinityEngine(PrototypeAffinitySource(vgg, top_z=2), config)
        new = engine.build(tiny_images, keep_state=False)
        assert engine.cache.stats.total_hits == 0
        assert engine.cache.stats.misses.get("affinity") == 1
        assert not np.array_equal(new.values, old.values)  # the features did move
        np.testing.assert_allclose(new.values, old.values, rtol=0, atol=1e-12)

    def test_both_vgg_sources_carry_the_tag(self, vgg):
        assert PrototypeAffinitySource(vgg).signature()["backbone"] == BACKBONE_KERNEL
        assert logits_source(vgg).signature()["backbone"] == BACKBONE_KERNEL


class TestSizeBudget:
    """max_bytes: LRU (mtime-based) eviction keeps the cache bounded."""

    @staticmethod
    def _fill(cache: ArtifactCache, count: int, start: int = 0) -> list[str]:
        import os
        import time

        keys = []
        for i in range(start, start + count):
            key = cache.key(f"entry-{i}", {})
            cache.save_arrays("state", key, {"x": np.arange(512) + i})
            # mtime resolution can swallow sub-ms gaps; force an order.
            past = time.time() - (start + count - i)
            os.utime(cache.path("state", key), (past, past))
            keys.append(key)
        return keys

    def test_write_evicts_oldest_first(self, tmp_path):
        cache = ArtifactCache(str(tmp_path), max_bytes=1)  # every write over budget
        keys = self._fill(cache, 3)
        # Only the most recent write survives a 1-byte budget.
        newest = cache.key("fresh", {})
        cache.save_arrays("state", newest, {"x": np.arange(512)})
        assert cache.load_arrays("state", newest) is not None
        assert all(cache.load_arrays("state", key) is None for key in keys)
        assert cache.stats.evictions == 3

    def test_budget_large_enough_keeps_everything(self, tmp_path):
        cache = ArtifactCache(str(tmp_path), max_bytes=10**9)
        keys = self._fill(cache, 4)
        assert all(cache.load_arrays("state", key) is not None for key in keys)
        assert cache.stats.evictions == 0

    def test_read_refreshes_recency(self, tmp_path):
        """A hit refreshes mtime, so hot entries survive eviction."""
        cache = ArtifactCache(str(tmp_path), max_bytes=None)
        old, hot = self._fill(cache, 2)  # `old` is older than `hot`
        assert cache.load_arrays("state", old) is not None  # touch: now newest
        cache.max_bytes = cache.total_bytes() - 1  # force one eviction
        fresh = cache.key("fresh", {})
        cache.save_arrays("state", fresh, {"x": np.arange(4)})
        assert cache.load_arrays("state", old) is not None  # survived (hot)
        assert cache.load_arrays("state", hot) is None  # evicted (LRU)

    def test_just_written_entry_never_evicted(self, tmp_path):
        cache = ArtifactCache(str(tmp_path), max_bytes=1)
        key = cache.key("solo", {})
        cache.save_arrays("state", key, {"x": np.arange(2048)})
        assert cache.load_arrays("state", key) is not None

    def test_affinity_writes_respect_budget(self, tmp_path, vgg, tiny_images):
        source = PrototypeAffinitySource(vgg, top_z=2, layers=(0,))
        engine = AffinityEngine(source, EngineConfig(cache_dir=str(tmp_path), cache_max_bytes=1))
        engine.build(tiny_images, keep_state=False)
        engine.build(tiny_images + 1e-6, keep_state=False)  # different key
        import os

        entries = [p for p in os.listdir(tmp_path) if p.endswith(".npz")]
        assert len(entries) == 1  # first entry evicted by the second write
        assert engine.cache.stats.evictions >= 1

    def test_invalid_budget_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="max_bytes"):
            ArtifactCache(str(tmp_path), max_bytes=0)


class TestEngineConfigValidation:
    def test_bad_precision(self):
        with pytest.raises(ValueError, match="precision"):
            EngineConfig(precision="float16")

    def test_bad_n_jobs(self):
        with pytest.raises(ValueError, match="n_jobs"):
            EngineConfig(n_jobs=0)

    def test_bad_executor(self):
        with pytest.raises(ValueError, match="executor"):
            EngineConfig(executor="gpu")

    def test_executor_and_budget_flow_from_goggles_config(self):
        from repro.core import GogglesConfig

        config = GogglesConfig(executor="process", n_jobs=4, cache_max_bytes=1024)
        engine = config.engine_config()
        assert engine.executor == "process"
        assert engine.cache_max_bytes == 1024


class TestConcurrentWriteEvictionRaces:
    """Cache eviction racing concurrent shard writes (distributed runtime).

    The broker's coordinator thread, its handler threads, and every
    worker process share one cache directory; writes publish by
    atomically renaming a *unique* ``.tmp`` scratch file, so eviction —
    or a reader — can only ever observe a complete entry or a miss.
    """

    def test_scratch_files_invisible_to_entries_and_budget(self, tmp_path):
        cache = ArtifactCache(str(tmp_path), max_bytes=10_000)
        cache.save_arrays("shard", "a" * 64, {"x": np.arange(8)})
        # A crashed writer's orphaned scratch file must not be listed,
        # counted against the budget, or served as anything.
        orphan = tmp_path / "shard-orphan.tmp"
        orphan.write_bytes(b"half-written garbage")
        paths = [path for _, _, path in cache._entries()]
        assert all(".tmp" not in path for path in paths)
        assert cache.total_bytes() == sum(size for _, size, _ in cache._entries())
        # clear() sweeps the orphan alongside real entries.
        assert cache.clear() == 1
        assert not orphan.exists()

    def test_half_written_entry_never_published(self, tmp_path, monkeypatch):
        """A writer that dies mid-write leaves no ``.npz`` behind: the
        half-written bytes live only in its private scratch file, which
        is cleaned up — a later read is a miss, never a corrupt hit."""
        cache = ArtifactCache(str(tmp_path))
        key = "b" * 64

        def exploding_savez(handle, **arrays):
            handle.write(b"PK\x03\x04 partial zip header")
            raise OSError("disk full mid-write")

        monkeypatch.setattr(np, "savez", exploding_savez)
        with pytest.raises(OSError, match="disk full"):
            cache.save_arrays("shard", key, {"x": np.arange(4)})
        monkeypatch.undo()
        assert list(tmp_path.glob("*.npz")) == []
        assert list(tmp_path.glob("*.tmp")) == []
        assert cache.load_arrays("shard", key) is None

    def test_half_written_affinity_entry_never_published(self, tmp_path, monkeypatch):
        """The same guarantee for an ``affinity`` entry, whose bytes come
        from :meth:`AffinityMatrix.save` rather than a bare array bundle."""
        cache = ArtifactCache(str(tmp_path))
        key = "f" * 64
        matrix = AffinityMatrix(values=np.eye(3), function_ids=(AffinityFunctionId(layer=0, z=0),))

        def exploding_savez(handle, **arrays):
            handle.write(b"PK\x03\x04 partial zip header")
            raise OSError("disk full mid-write")

        monkeypatch.setattr(np, "savez", exploding_savez)
        with pytest.raises(OSError, match="disk full"):
            cache.save_affinity(key, matrix)
        monkeypatch.undo()
        assert list(tmp_path.glob("*.npz")) == []
        assert list(tmp_path.glob("*.tmp")) == []
        assert cache.load_affinity(key) is None

    def test_eviction_never_breaks_an_in_flight_affinity_write(self, tmp_path, vgg, tiny_images):
        """Regression: the affinity scratch file used to be named
        ``*.tmp.npz`` — visible to the eviction scan, which could delete
        it mid-write and break the publishing rename.  Scratch files now
        never match the entry pattern, so a concurrent over-budget write
        cannot touch them."""
        from repro.core.affinity import compute_affinity_matrix

        matrix = compute_affinity_matrix(vgg, tiny_images, top_z=2, layers=(1,))
        cache = ArtifactCache(str(tmp_path), max_bytes=1)  # evict everything else
        original_replace = os.replace
        interposed = threading.Event()

        def replace_with_concurrent_eviction(src, dst):
            # Model the race once: while the affinity write sits between
            # its scratch file and the publishing rename, another
            # thread's shard write runs the over-budget eviction scan.
            if not interposed.is_set():
                interposed.set()
                cache.save_arrays("shard", "c" * 64, {"x": np.arange(16)})
            return original_replace(src, dst)

        with unittest.mock.patch.object(os, "replace", side_effect=replace_with_concurrent_eviction):
            cache.save_affinity("d" * 64, matrix)
        assert interposed.is_set()
        loaded = cache.load_affinity("d" * 64)
        assert loaded is not None
        np.testing.assert_array_equal(loaded.values, matrix.values)

    def test_concurrent_same_key_shard_writes_never_serve_partial(self, tmp_path):
        """Two workers racing on a de-duplicated shard key write through
        *separate* scratch files (a shared one interleaves bytes into a
        corrupt zip); readers see a miss or the complete entry only."""
        cache = ArtifactCache(str(tmp_path), max_bytes=4096)
        key = "e" * 64
        expected = {"best": np.arange(64, dtype=np.float64).reshape(8, 8)}
        errors: list[BaseException] = []
        stop = threading.Event()

        def writer():
            try:
                for _ in range(30):
                    cache.save_arrays("shard", key, expected)
            except BaseException as err:  # pragma: no cover - the failure
                errors.append(err)

        def reader():
            try:
                while not stop.is_set():
                    loaded = cache.load_arrays("shard", key)
                    if loaded is not None:
                        assert set(loaded) == {"best"}
                        np.testing.assert_array_equal(loaded["best"], expected["best"])
            except BaseException as err:  # pragma: no cover - the failure
                errors.append(err)

        threads = [threading.Thread(target=writer) for _ in range(3)]
        threads += [threading.Thread(target=reader) for _ in range(2)]
        for thread in threads[:3]:
            thread.start()
        for thread in threads[3:]:
            thread.start()
        for thread in threads[:3]:
            thread.join(timeout=30.0)
        stop.set()
        for thread in threads[3:]:
            thread.join(timeout=30.0)
        assert not errors, errors
        loaded = cache.load_arrays("shard", key)
        assert loaded is not None
        np.testing.assert_array_equal(loaded["best"], expected["best"])


def _npy_member(shape, data: bytes, descr: str = "<f8") -> bytes:
    """An ``.npy`` member: a version-1.0 header claiming ``shape``, then ``data``."""
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(header, {"descr": descr, "fortran_order": False, "shape": shape})
    return header.getvalue() + data


def _write_stored_zip(path, members: dict[str, bytes]) -> None:
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as archive:
        for name, payload in members.items():
            archive.writestr(name, payload)


# Each loader reads its first member before any schema check, so one
# forged member is enough to reach the header validation.
_LOADERS = {
    "state": ("x.npy", lambda cache, key: cache.load_arrays("state", key)),
    "affinity": ("values.npy", lambda cache, key: cache.load_affinity(key)),
    "affinity-csr": ("data.npy", lambda cache, key: cache.load_affinity_csr(key)),
}


class TestForgedEntries:
    """A member whose ``.npy`` header disagrees with the zip directory is
    rejected before allocation: the entry misses and is evicted, and no
    forged shape can turn a cache read into a ``MemoryError``."""

    @pytest.mark.parametrize("kind", sorted(_LOADERS))
    @pytest.mark.parametrize(
        "shape, data",
        [
            ((10**13,), bytes(64)),
            ((2**40, 2**20), bytes(64)),
            ((100,), bytes(50 * 8)),  # truncated: header claims more than stored
            ((10,), bytes(20 * 8)),  # overlong: stored more than header claims
        ],
        ids=["1e13", "2^40x2^20", "truncated", "overlong"],
    )
    def test_forged_member_misses_and_evicts(self, tmp_path, kind, shape, data):
        member, load = _LOADERS[kind]
        cache = ArtifactCache(str(tmp_path))
        key = "a" * 64
        path = cache.path(kind, key)
        _write_stored_zip(path, {member: _npy_member(shape, data)})
        assert load(cache, key) is None
        assert not os.path.exists(path)
        assert cache.stats.misses == {kind: 1}
        assert cache.stats.hits == {}

    def test_object_dtype_member_rejected(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        key = "a" * 64
        _write_stored_zip(cache.path("state", key), {"x.npy": _npy_member((1,), bytes(8), descr="|O")})
        assert cache.load_arrays("state", key) is None
        assert not os.path.exists(cache.path("state", key))

    def test_forged_directory_size_rejected_before_allocation(self, tmp_path):
        """A directory entry that claims more bytes than the archive holds
        (header and directory forged together) is refused up front."""
        path = tmp_path / "forged.npz"
        shape = (2**20,)
        payload = _npy_member(shape, bytes(64))
        claimed = len(payload) - 64 + 8 * 2**20
        _write_stored_zip(path, {"x.npy": payload})
        raw = bytearray(path.read_bytes())
        central = raw.index(b"PK\x01\x02")
        # Central-directory compressed and uncompressed sizes (offsets 20, 24).
        raw[central + 20 : central + 28] = claimed.to_bytes(4, "little") * 2
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="cannot hold"):
            load_npz(str(path))

    def test_crc_mismatch_misses_and_evicts(self, tmp_path):
        """Stored members skip zlib but not the zip CRC-32 check."""
        cache = ArtifactCache(str(tmp_path))
        key = "a" * 64
        path = cache.save_arrays("state", key, {"x": np.arange(64, dtype=np.float64)})
        raw = bytearray(open(path, "rb").read())
        raw[raw.index(np.float64(63.0).tobytes())] ^= 0xFF
        with open(path, "wb") as handle:
            handle.write(bytes(raw))
        assert cache.load_arrays("state", key) is None
        assert not os.path.exists(path)


def _affinity_matrix() -> AffinityMatrix:
    values = np.random.default_rng(5).random((6, 12))
    return AffinityMatrix(
        values=values,
        function_ids=(AffinityFunctionId(layer=0, z=0), AffinityFunctionId(layer=1, z=2)),
    )


def _entry_arrays(save) -> dict[str, np.ndarray]:
    """The members ``save(handle)`` writes, read back."""
    buffer = io.BytesIO()
    save(buffer)
    buffer.seek(0)
    with np.load(buffer) as data:
        return {name: data[name] for name in data.files}


class TestStorageFormat:
    """Entries are written uncompressed; compressed ones still hit."""

    @staticmethod
    def _entries(cache: ArtifactCache):
        matrix = _affinity_matrix()
        sparse = sparsify_affinity(matrix, top_k=3)
        bundle = {"x": np.arange(10.0), "n_images": np.int64(6)}
        return {
            "affinity": (matrix.save, lambda key: cache.load_affinity(key)),
            "affinity-csr": (sparse.save, lambda key: cache.load_affinity_csr(key)),
            "state": (
                lambda handle: np.savez(handle, **bundle),
                lambda key: cache.load_arrays("state", key),
            ),
            "inference": (
                lambda handle: np.savez(handle, **bundle),
                lambda key: cache.load_arrays("inference", key),
            ),
        }

    @pytest.mark.parametrize("kind", ["affinity", "affinity-csr", "state", "inference"])
    def test_compressed_entry_is_a_hit(self, tmp_path, kind):
        """An entry from the earlier deflating writer loads unchanged under
        the same key: no namespace bump, no rebuild."""
        cache = ArtifactCache(str(tmp_path))
        save, load = self._entries(cache)[kind]
        expected = _entry_arrays(save)
        key = "c" * 64
        np.savez_compressed(cache.path(kind, key), **expected)
        with zipfile.ZipFile(cache.path(kind, key)) as archive:
            assert {info.compress_type for info in archive.infolist()} == {zipfile.ZIP_DEFLATED}
        loaded = load(key)
        assert loaded is not None
        assert cache.stats.hits == {kind: 1}
        arrays = loaded if isinstance(loaded, dict) else _entry_arrays(loaded.save)
        assert arrays.keys() == expected.keys()
        assert all(np.array_equal(arrays[name], array) for name, array in expected.items())

    def test_new_entries_are_stored_uncompressed(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        matrix = _affinity_matrix()
        paths = [
            cache.save_affinity("d" * 64, matrix),
            cache.save_affinity_csr("e" * 64, sparsify_affinity(matrix, top_k=3)),
            cache.save_arrays("state", "f" * 64, {"x": np.arange(10.0), "y": np.eye(3)}),
        ]
        for path in paths:
            with zipfile.ZipFile(path) as archive:
                infos = archive.infolist()
                assert infos
                assert all(info.compress_type == zipfile.ZIP_STORED for info in infos), path
