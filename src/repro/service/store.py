"""Cache stores: where content-addressed result entries live on disk.

:class:`~repro.service.cache.ResultCache` owns the *keys* (sha256 of
canonical source + semantic job fields) and the in-process memory layer;
a store owns the shared, durable layer behind it.  The interface is
three methods — :meth:`~CacheStore.read`, :meth:`~CacheStore.write`,
:meth:`~CacheStore.count` — so alternative backends (an object store, a
network cache) slot in without touching the cache logic.

:class:`DirectoryStore` is the production backend:

* **Sharded layout.**  Entries live at ``<root>/<key[:2]>/<key>.json``
  — 256 subdirectories, so a million-entry cache never puts a million
  files in one directory, and per-shard scans keep eviction cheap.
  Nothing else under the root is read or counted.
* **Multi-node sharing.**  Writes are atomic (temp file +
  ``os.replace``), and keys are content addresses, so any number of
  nodes — processes or hosts on a shared filesystem — read and write
  one store concurrently; racing writers of the same key publish
  identical bytes.
* **Bounded size.**  With ``max_bytes`` set, a write that pushes the
  store over budget evicts least-recently-*used* entries (atime is
  refreshed on every read hit) until it fits.  ``evictions`` counts
  removals for the ``/metrics`` endpoint.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from typing import Any, Dict, List, Optional, Tuple


class CacheStore:
    """Interface: durable key → entry-dict storage for the cache."""

    #: total entries removed to stay under the size budget.
    evictions = 0

    def read(self, key: str) -> Optional[Dict[str, Any]]:
        raise NotImplementedError

    def write(self, key: str, entry: Dict[str, Any]) -> None:
        raise NotImplementedError

    def count(self) -> int:
        raise NotImplementedError


class DirectoryStore(CacheStore):
    """One JSON file per key under 256 shard subdirectories, with
    optional LRU size bounding.  See the module docstring."""

    #: shard fan-out: first two hex characters of the key.
    SHARD_CHARS = 2

    def __init__(self, path: str, max_bytes: Optional[int] = None) -> None:
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError("max_bytes must be positive (or None)")
        self.path = path
        self.max_bytes = max_bytes
        self.evictions = 0
        #: approximate store size, maintained incrementally; reconciled
        #: against the filesystem lazily (other nodes write too).
        self._size_bytes: Optional[int] = None
        self._lock = threading.Lock()
        os.makedirs(path, exist_ok=True)

    # -- paths ---------------------------------------------------------

    def _shard_file(self, key: str) -> str:
        return os.path.join(self.path, key[:self.SHARD_CHARS],
                            f"{key}.json")

    # -- CacheStore ----------------------------------------------------

    def read(self, key: str) -> Optional[Dict[str, Any]]:
        path = self._shard_file(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                entry = json.load(handle)
        except (OSError, ValueError):
            return None
        try:
            # Refresh atime *and* mtime: eviction ranks by mtime (atime
            # is unreliable under relatime/noatime mounts), so a read hit
            # counts as recent use.
            os.utime(path, None)
        except OSError:
            pass
        return entry

    def write(self, key: str, entry: Dict[str, Any]) -> None:
        target = self._shard_file(key)
        shard_dir = os.path.dirname(target)
        payload = json.dumps(entry)
        try:
            os.makedirs(shard_dir, exist_ok=True)
            fd, temp = tempfile.mkstemp(dir=shard_dir, suffix=".tmp")
        except OSError:  # pragma: no cover - disk trouble; best-effort
            return
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(payload)
            os.replace(temp, target)
        except OSError:  # pragma: no cover - disk-full etc.
            try:
                os.unlink(temp)
            except OSError:
                pass
            return
        if self.max_bytes is not None:
            with self._lock:
                if self._size_bytes is not None:
                    self._size_bytes += len(payload)
                self._evict_to_budget()

    def count(self) -> int:
        return sum(1 for _ in self._entries())

    # -- size bounding -------------------------------------------------

    def _entries(self):
        """Yield ``(path, size, mtime)`` for every stored entry."""
        try:
            names = os.listdir(self.path)
        except OSError:
            return
        for name in names:
            full = os.path.join(self.path, name)
            if len(name) != self.SHARD_CHARS or not os.path.isdir(full):
                continue
            try:
                inner = os.listdir(full)
            except OSError:
                continue
            for leaf in inner:
                if not leaf.endswith(".json"):
                    continue
                stat = self._stat(os.path.join(full, leaf))
                if stat is not None:
                    yield stat

    @staticmethod
    def _stat(path: str) -> Optional[Tuple[str, int, float]]:
        try:
            info = os.stat(path)
        except OSError:
            return None
        return path, info.st_size, info.st_mtime

    def size_bytes(self) -> int:
        """The store's current payload size (scans the tree)."""
        return sum(size for _path, size, _mtime in self._entries())

    def _evict_to_budget(self) -> None:
        """Drop least-recently-used entries until under ``max_bytes``.
        Caller holds ``self._lock``."""
        assert self.max_bytes is not None
        if self._size_bytes is not None \
                and self._size_bytes <= self.max_bytes:
            return
        entries: List[Tuple[str, int, float]] = list(self._entries())
        total = sum(size for _p, size, _m in entries)
        if total <= self.max_bytes:
            self._size_bytes = total
            return
        entries.sort(key=lambda item: item[2])  # oldest mtime first
        for path, size, _mtime in entries:
            try:
                os.unlink(path)
            except OSError:
                continue
            total -= size
            self.evictions += 1
            if total <= self.max_bytes:
                break
        self._size_bytes = total


class NullStore(CacheStore):
    """No durable layer: the cache is memory-only."""

    def read(self, key: str) -> Optional[Dict[str, Any]]:
        return None

    def write(self, key: str, entry: Dict[str, Any]) -> None:
        return None

    def count(self) -> int:
        return 0


def open_store(path: Optional[str],
               max_mb: Optional[float] = None) -> CacheStore:
    """The store for a cache directory: ``None`` path → memory only;
    ``max_mb`` bounds the on-disk size with LRU eviction."""
    if path is None:
        if max_mb is not None:
            raise ValueError("max_mb requires a cache directory")
        return NullStore()
    max_bytes = None if max_mb is None else int(max_mb * 1024 * 1024)
    return DirectoryStore(path, max_bytes=max_bytes)


__all__ = ["CacheStore", "DirectoryStore", "NullStore", "open_store"]
