"""Tests for repro.runtime.cache (content-addressed artifact cache)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pytest

from repro.runtime.cache import (
    cache_dir,
    cache_enabled,
    cache_info,
    cached_call,
    clear_cache,
    config_digest,
)
from repro.utils.rng import make_rng


@dataclass(frozen=True)
class _Cfg:
    n_nodes: int = 40_000
    fraction: float = 0.3
    label: str = "fig8"
    ttls: tuple[int, ...] = (1, 2, 3)
    seed: int = 0
    n_workers: int = 1


def memmap_backed(array: np.ndarray) -> bool:
    """A plain read-only ``ndarray`` whose ``.base`` chain reaches a memmap."""
    base = array.base
    while base is not None and not isinstance(base, np.memmap):
        base = getattr(base, "base", None)
    return (
        type(array) is np.ndarray
        and not array.flags.writeable
        and isinstance(base, np.memmap)
    )


@pytest.fixture()
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    return tmp_path


class TestConfigDigest:
    def test_stable_across_calls(self):
        assert config_digest(_Cfg()) == config_digest(_Cfg())

    def test_every_field_matters(self):
        base = config_digest(_Cfg())
        variants = [
            _Cfg(n_nodes=40_001),
            _Cfg(fraction=0.31),
            _Cfg(label="fig9"),
            _Cfg(ttls=(1, 2, 4)),
            _Cfg(seed=1),
            _Cfg(n_workers=2),
        ]
        digests = [config_digest(v) for v in variants]
        assert base not in digests
        assert len(set(digests)) == len(digests)

    def test_exclude_removes_field(self):
        assert config_digest(_Cfg(), exclude=("n_workers",)) == config_digest(
            _Cfg(n_workers=8), exclude=("n_workers",)
        )

    def test_type_distinctions(self):
        # int 1 vs float 1.0 vs str "1" must all differ.
        digests = {config_digest(v) for v in (1, 1.0, "1", True, None)}
        assert len(digests) == 5

    def test_ndarray_content_hashed(self):
        a = config_digest(np.arange(4))
        b = config_digest(np.arange(4))
        c = config_digest(np.arange(5))
        d = config_digest(np.arange(4, dtype=np.float64))
        assert a == b and a != c and a != d

    def test_unhashable_type_rejected(self):
        with pytest.raises(TypeError, match="cache key"):
            config_digest(object())


class TestCachedCall:
    def test_hit_returns_equal_object(self, isolated_cache):
        calls: list[int] = []

        def compute() -> dict[str, np.ndarray]:
            calls.append(1)
            return {"curve": np.linspace(0.0, 1.0, 5)}

        digest = config_digest(_Cfg())
        first = cached_call("unit", 1, digest, compute)
        second = cached_call("unit", 1, digest, compute)
        assert calls == [1]
        assert second is not first
        np.testing.assert_array_equal(first["curve"], second["curve"])

    def test_version_bump_invalidates(self, isolated_cache):
        calls: list[int] = []

        def compute() -> int:
            calls.append(1)
            return 42

        digest = config_digest(_Cfg())
        cached_call("unit", 1, digest, compute)
        cached_call("unit", 2, digest, compute)
        assert calls == [1, 1]

    def test_env_opt_out_bypasses(self, isolated_cache, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "off")
        assert not cache_enabled()
        calls: list[int] = []

        def compute() -> int:
            calls.append(1)
            return 7

        digest = config_digest(_Cfg())
        cached_call("unit", 1, digest, compute)
        cached_call("unit", 1, digest, compute)
        assert calls == [1, 1]

    def test_corrupted_entry_recomputed(self, isolated_cache):
        digest = config_digest(_Cfg())
        cached_call("unit", 1, digest, lambda: 5)
        (entry,) = (isolated_cache / "unit").glob("*.pkl")
        entry.write_bytes(b"not a pickle")
        assert cached_call("unit", 1, digest, lambda: 6) == 6


class TestInfoAndClear:
    def test_info_counts_entries(self, isolated_cache):
        assert cache_info().n_entries == 0
        cached_call("sec-a", 1, config_digest(1), lambda: "x")
        cached_call("sec-b", 1, config_digest(2), lambda: "y")
        info = cache_info()
        assert info.enabled
        assert info.path == str(cache_dir())
        assert info.n_entries == 2
        assert info.total_bytes > 0
        assert info.sections == {"sec-a": 1, "sec-b": 1}

    def test_clear_empties(self, isolated_cache):
        cached_call("sec", 1, config_digest(1), lambda: "x")
        assert clear_cache() == 1
        assert cache_info().n_entries == 0
        assert clear_cache() == 0


class TestMmapBlobCodec:
    """The zero-copy format for array-heavy producers."""

    @staticmethod
    def _payload(seed=0):
        rng = make_rng(seed)
        return {
            "big": rng.integers(0, 1_000, size=50_000, dtype=np.int64),
            "small": np.arange(8),
            "scalar": 7,
        }

    def test_roundtrip_returns_readonly_memmaps(self, isolated_cache):
        digest = config_digest(_Cfg())
        first = cached_call("blob-unit", 1, digest, self._payload, codec="mmap-blob")
        second = cached_call(
            "blob-unit", 1, digest, self._payload, codec="mmap-blob"
        )
        assert memmap_backed(second["big"])
        # Small arrays stay inline in the skeleton.
        assert not memmap_backed(second["small"])
        np.testing.assert_array_equal(first["big"], second["big"])
        np.testing.assert_array_equal(first["small"], second["small"])
        assert second["scalar"] == 7

    def test_blob_dir_layout(self, isolated_cache):
        digest = config_digest(_Cfg())
        cached_call("blob-unit", 3, digest, self._payload, codec="mmap-blob")
        (blob,) = (isolated_cache / "blob-unit").glob("*.blob")
        assert blob.is_dir()
        assert (blob / "skeleton.pkl").is_file()
        assert (blob / "a0.npy").is_file()

    def test_registered_producers_default_to_blob(self, isolated_cache):
        from repro.runtime.cache import BLOB_PRODUCERS

        assert "fig8-topology" in BLOB_PRODUCERS
        assert "content-index" in BLOB_PRODUCERS
        digest = config_digest(_Cfg())
        cached_call("fig8-topology", 1, digest, self._payload)
        entries = (isolated_cache / "fig8-topology").glob("*.blob")
        assert len(list(entries)) == 1

    def test_stale_pickle_entry_is_recomputed_as_blob(self, isolated_cache):
        import pickle

        stale_dir = isolated_cache / "fig8-topology"
        stale_dir.mkdir()
        with (stale_dir / "v1-feed.pkl").open("wb") as handle:
            pickle.dump({"stale": True}, handle)
        calls: list[int] = []

        def compute():
            calls.append(1)
            return self._payload()

        value = cached_call("fig8-topology", 1, "feed", compute)
        assert calls == [1]
        np.testing.assert_array_equal(value["big"], self._payload()["big"])
        assert (stale_dir / "v1-feed.blob").is_dir()
        assert not (stale_dir / "v1-feed.pkl").exists()
        # The rewritten entry is now a blob hit.
        cached_call("fig8-topology", 1, "feed", compute)
        assert calls == [1]

    def test_corrupt_blob_recomputed_and_healed(self, isolated_cache):
        digest = config_digest(_Cfg())
        calls: list[int] = []

        def compute():
            calls.append(1)
            return self._payload()

        cached_call("blob-unit", 1, digest, compute, codec="mmap-blob")
        (blob,) = (isolated_cache / "blob-unit").glob("*.blob")
        (blob / "skeleton.pkl").write_bytes(b"garbage")
        cached_call("blob-unit", 1, digest, compute, codec="mmap-blob")
        assert calls == [1, 1]
        healed = cached_call("blob-unit", 1, digest, compute, codec="mmap-blob")
        assert calls == [1, 1]
        np.testing.assert_array_equal(healed["big"], self._payload()["big"])

    def test_missing_array_file_recomputed(self, isolated_cache):
        digest = config_digest(_Cfg())
        cached_call("blob-unit", 1, digest, self._payload, codec="mmap-blob")
        (blob,) = (isolated_cache / "blob-unit").glob("*.blob")
        (blob / "a0.npy").unlink()
        calls: list[int] = []

        def compute():
            calls.append(1)
            return self._payload()

        cached_call("blob-unit", 1, digest, compute, codec="mmap-blob")
        assert calls == [1]

    def test_version_bump_invalidates_blobs(self, isolated_cache):
        digest = config_digest(_Cfg())
        calls: list[int] = []

        def compute():
            calls.append(1)
            return self._payload()

        cached_call("blob-unit", 1, digest, compute, codec="mmap-blob")
        cached_call("blob-unit", 2, digest, compute, codec="mmap-blob")
        assert calls == [1, 1]

    def test_unknown_codec_rejected(self, isolated_cache):
        with pytest.raises(ValueError, match="codec"):
            cached_call("unit", 1, "d", lambda: 1, codec="json")

    def test_info_reports_formats_and_sizes(self, isolated_cache):
        cached_call("blob-unit", 1, config_digest(1), self._payload, codec="mmap-blob")
        cached_call("plain", 1, config_digest(2), lambda: "x")
        info = cache_info()
        assert info.n_entries == 2
        formats = {e.producer: e.format for e in info.entries}
        assert formats == {"blob-unit": "mmap-blob", "plain": "pickle"}
        blob_entry = next(e for e in info.entries if e.producer == "blob-unit")
        assert blob_entry.n_bytes > 50_000 * 8  # the raw array is on disk
        assert info.total_bytes == sum(e.n_bytes for e in info.entries)

    def test_clear_removes_blobs(self, isolated_cache):
        cached_call("blob-unit", 1, config_digest(1), self._payload, codec="mmap-blob")
        assert clear_cache() == 1
        assert cache_info().n_entries == 0

    def test_topology_roundtrips_through_blobs(self, isolated_cache):
        from repro.overlay.flooding import flood_depths
        from repro.overlay.topology import two_tier_gnutella

        make = lambda: two_tier_gnutella(2_000, seed=5)
        digest = config_digest(2_000, 5)
        built = cached_call("fig8-topology", 1, digest, make)
        loaded = cached_call("fig8-topology", 1, digest, make)
        assert memmap_backed(loaded.neighbors)
        ref = flood_depths(built, 0, 5)
        got = flood_depths(loaded, 0, 5)
        np.testing.assert_array_equal(got[0], ref[0])
        assert got[1] == ref[1]
