"""The cache's durable layer: sharded stores, LRU bounding, sharing."""

import json
import os
import time

import pytest

from repro.service import (
    DirectoryStore,
    Job,
    JobResult,
    NullStore,
    ResultCache,
    open_store,
    run_job,
)

KEY_A = "aa" + "0" * 62
KEY_B = "bb" + "0" * 62
KEY_C = "cc" + "0" * 62

RACY = """
var x = 0;
def main() {
    async { x = 1; }
    print(x);
}
"""


def entry(tag, pad=0):
    return {"tag": tag, "pad": "x" * pad}


class TestDirectoryStoreLayout:
    def test_round_trip(self, tmp_path):
        store = DirectoryStore(str(tmp_path))
        store.write(KEY_A, entry("a"))
        assert store.read(KEY_A) == entry("a")
        assert store.read(KEY_B) is None
        assert store.count() == 1

    def test_entries_are_sharded_by_key_prefix(self, tmp_path):
        store = DirectoryStore(str(tmp_path))
        store.write(KEY_A, entry("a"))
        store.write(KEY_B, entry("b"))
        assert (tmp_path / "aa" / f"{KEY_A}.json").is_file()
        assert (tmp_path / "bb" / f"{KEY_B}.json").is_file()
        assert not (tmp_path / f"{KEY_A}.json").exists()

    def test_stray_root_file_is_neither_read_nor_counted(self, tmp_path):
        # Only <root>/<key[:2]>/<key>.json is an entry: a file at the
        # root under a key's name is ignored, and a write leaves it be.
        stray = tmp_path / f"{KEY_A}.json"
        stray.write_text(json.dumps(entry("stray")))
        store = DirectoryStore(str(tmp_path))
        assert store.read(KEY_A) is None
        assert store.count() == 0
        assert store.size_bytes() == 0
        store.write(KEY_A, entry("new"))
        assert store.read(KEY_A) == entry("new")
        assert store.count() == 1
        assert stray.is_file()

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        store = DirectoryStore(str(tmp_path))
        store.write(KEY_A, entry("a"))
        path = tmp_path / "aa" / f"{KEY_A}.json"
        path.write_text("{ not json")
        assert store.read(KEY_A) is None

    def test_two_instances_share_one_directory(self, tmp_path):
        writer = DirectoryStore(str(tmp_path))
        reader = DirectoryStore(str(tmp_path))
        writer.write(KEY_A, entry("shared"))
        assert reader.read(KEY_A) == entry("shared")


class TestEviction:
    def _aged_write(self, store, key, tag, pad, mtime):
        """Write an entry and pin its mtime (the LRU rank)."""
        store.write(key, entry(tag, pad))
        os.utime(store._shard_file(key), (mtime, mtime))

    def test_oldest_entries_evicted_beyond_budget(self, tmp_path):
        probe = DirectoryStore(str(tmp_path / "probe"))
        probe.write(KEY_A, entry("probe", 200))
        size = probe.size_bytes()
        store = DirectoryStore(str(tmp_path / "store"),
                               max_bytes=int(size * 2.5))
        base = time.time() - 1000
        self._aged_write(store, KEY_A, "a", 200, base)
        self._aged_write(store, KEY_B, "b", 200, base + 10)
        store.write(KEY_C, entry("c", 200))  # newest; pushes over budget
        assert store.read(KEY_A) is None, "oldest entry should be evicted"
        assert store.read(KEY_B) == entry("b", 200)
        assert store.read(KEY_C) == entry("c", 200)
        assert store.evictions == 1
        assert store.size_bytes() <= store.max_bytes

    def test_read_hit_refreshes_recency(self, tmp_path):
        probe = DirectoryStore(str(tmp_path / "probe"))
        probe.write(KEY_A, entry("probe", 200))
        size = probe.size_bytes()
        store = DirectoryStore(str(tmp_path / "store"),
                               max_bytes=int(size * 2.5))
        base = time.time() - 1000
        self._aged_write(store, KEY_A, "a", 200, base)
        self._aged_write(store, KEY_B, "b", 200, base + 10)
        assert store.read(KEY_A) is not None  # touch: A is now newest
        store.write(KEY_C, entry("c", 200))
        assert store.read(KEY_A) == entry("a", 200)
        assert store.read(KEY_B) is None, "the untouched entry goes first"

    def test_unbounded_store_never_evicts(self, tmp_path):
        store = DirectoryStore(str(tmp_path))
        for index in range(20):
            store.write(f"{index:02x}" + "0" * 62, entry("x", 500))
        assert store.evictions == 0
        assert store.count() == 20

    def test_bad_budget_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            DirectoryStore(str(tmp_path), max_bytes=0)


class TestOpenStore:
    def test_no_path_is_memory_only(self):
        assert isinstance(open_store(None), NullStore)

    def test_path_is_directory_store(self, tmp_path):
        store = open_store(str(tmp_path), max_mb=1.0)
        assert isinstance(store, DirectoryStore)
        assert store.max_bytes == 1024 * 1024

    def test_max_mb_without_directory_rejected(self):
        with pytest.raises(ValueError):
            open_store(None, max_mb=1.0)


class TestCacheOverStore:
    def test_cache_max_mb_evicts_and_counts(self, tmp_path):
        job = Job("repair", RACY, source_name="r.hj")
        probe = ResultCache(str(tmp_path / "probe"))
        result = run_job(job)
        probe.put(probe.key_for(job), result)
        size = probe.store.size_bytes()

        cache = ResultCache(str(tmp_path / "cache"),
                            max_mb=(size * 1.5) / (1024 * 1024))
        variants = [RACY.replace("x = 1", f"x = {n}") for n in range(1, 5)]
        for index, source in enumerate(variants):
            vjob = Job("repair", source, source_name=f"v{index}.hj")
            cache.put(cache.key_for(vjob), run_job(vjob))
        stats = cache.stats_dict()
        assert stats["evictions"] >= 1
        assert cache.store.size_bytes() <= cache.store.max_bytes

    def test_nodes_share_hits_through_one_store(self, tmp_path):
        job = Job("repair", RACY, source_name="shared.hj")
        node_a = ResultCache(str(tmp_path / "shared"))
        node_b = ResultCache(str(tmp_path / "shared"))
        node_a.put(node_a.key_for(job), run_job(job))
        hit = node_b.lookup(job)
        assert hit is not None and hit.cached
        assert hit.result["converged"]
