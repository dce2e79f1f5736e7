"""Content-addressed result cache for batch jobs.

The classroom workload of the paper's §7.4 — grade 75 homework
submissions — is full of duplicates: most students make one of a handful
of mistakes, and many submissions differ only in whitespace, comments or
formatting.  The cache exploits that by keying each job on the SHA-256 of
its *canonical* source (parse → pretty-print, which normalizes layout and
drops comments) combined with the job's semantic knobs (kind, detector
algorithm, entry arguments, ...; see
:meth:`repro.service.jobs.Job.semantic_fields`).  Two jobs share an entry
exactly when the repair pipeline is guaranteed to treat them identically:

* whitespace / comment / formatting variants of one program **hit**
  (identical ASTs pretty-print identically);
* any semantic edit — an inserted ``finish``, a renamed variable, a
  changed constant — **misses** (the canonical text differs).

Sources that do not even parse fall back to a key over the raw bytes:
their (deterministic) lex/parse error results are still cacheable, but no
normalization is possible.

Entries live in two layers: an in-process memory dict (the L1 — always
on, immutable entries, lives as long as the process) and, when a
directory is given, a durable :class:`~repro.service.store.CacheStore`
(the L2 — sharded one-file-per-key JSON written atomically), so caches
survive across processes *and are shared across nodes*: the keys are
content addresses, so every ``repro serve --queue`` node pointed at the
same store directory serves every other node's hits verbatim.  The L2
can be size-bounded (``max_mb``) with least-recently-used eviction; see
:mod:`repro.service.store`.  Only deterministic results are stored
(``JobResult.is_deterministic``): timeouts, crashes and cancellations
always re-execute.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Optional

from .jobs import Job, JobResult
from .store import CacheStore, NullStore, open_store


def canonical_source(source: str, source_name: str = "<cache>") -> str:
    """The layout-normalized form of a program: parse, then pretty-print.

    Raises the usual lex/parse errors for malformed input — callers fall
    back to the raw text.
    """
    from ..lang import parse, pretty

    return pretty(parse(source, source_name=source_name))


class CacheStats:
    """Counters one cache instance accumulates (in memory only)."""

    __slots__ = ("hits", "misses", "stores", "rejected")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.stores = 0
        #: completed results that were not cacheable (timeout, crash, ...)
        self.rejected = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {"hits": self.hits, "misses": self.misses,
                "stores": self.stores, "rejected": self.rejected,
                "hit_rate": round(self.hit_rate, 4)}


class ResultCache:
    """Content-addressed store of :class:`JobResult` dictionaries.

    ``path=None`` keeps everything in memory; otherwise ``path`` is a
    directory managed by a :class:`~repro.service.store.DirectoryStore`
    (sharded one-file-per-key JSON) that any number of processes and
    nodes share.  ``max_mb`` bounds the directory with LRU eviction.
    A pre-built ``store`` overrides both.
    """

    #: bumped whenever the key derivation or the result payload schema
    #: changes incompatibly; part of every key, so stale stores are
    #: simply never hit rather than misread.  2: the job fields no
    #: longer include ``engine``.
    KEY_SCHEMA = 2

    def __init__(self, path: Optional[str] = None,
                 max_mb: Optional[float] = None,
                 store: Optional[CacheStore] = None) -> None:
        self.path = path
        self.store = store if store is not None \
            else open_store(path, max_mb=max_mb)
        self._memory: Dict[str, Dict[str, Any]] = {}
        self.stats = CacheStats()

    # -- keys ----------------------------------------------------------

    def key_for(self, job: Job) -> str:
        """The content address of a job: canonical source + semantics."""
        try:
            text = canonical_source(job.source, job.source_name)
            basis = "canonical"
        except Exception:
            text = job.source
            basis = "raw"
        material = json.dumps({
            "schema": [self.KEY_SCHEMA, JobResult.SCHEMA],
            "basis": basis,
            "source_sha256": hashlib.sha256(
                text.encode("utf-8")).hexdigest(),
            "job": job.semantic_fields(),
        }, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(material.encode("utf-8")).hexdigest()

    # -- lookups -------------------------------------------------------

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored result dict for ``key``, or ``None`` on a miss."""
        entry = self._memory.get(key)
        if entry is None:
            entry = self.store.read(key)
            if entry is not None and entry.get("schema") != JobResult.SCHEMA:
                entry = None
            if entry is not None:
                self._memory[key] = entry
        if entry is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        # A copy, so callers annotating the result (cached=True, worker
        # pid) never mutate the stored entry.
        return json.loads(json.dumps(entry))

    def put(self, key: str, result: JobResult) -> bool:
        """Store a completed result; returns False (and stores nothing)
        for non-deterministic outcomes."""
        if not result.is_deterministic:
            self.stats.rejected += 1
            return False
        entry = result.to_dict()
        # Strip the execution-instance fields: a cache entry answers
        # "what does this job produce", not "who computed it when".
        entry["cached"] = False
        entry["coalesced"] = False
        entry["worker_pid"] = None
        entry["trace_id"] = None
        self._memory[key] = entry
        self.store.write(key, entry)
        self.stats.stores += 1
        return True

    def lookup(self, job: Job, key: Optional[str] = None
               ) -> Optional[JobResult]:
        """``get`` + rehydration: the result for ``job`` marked as a
        cache hit, or ``None``.  ``key``, when given, must be
        ``key_for(job)``; passing it saves canonicalizing the job again."""
        entry = self.get(self.key_for(job) if key is None else key)
        if entry is None:
            return None
        hit = JobResult.from_dict(entry)
        hit.cached = True
        # The entry may have been computed for a different file with the
        # same canonical content; the result belongs to *this* job.
        hit.source_name = job.source_name
        return hit

    def __len__(self) -> int:
        if isinstance(self.store, NullStore):
            return len(self._memory)
        return self.store.count()

    def stats_dict(self) -> Dict[str, Any]:
        """Counters plus store-level facts (entry count, evictions) —
        the ``/stats`` and ``/metrics`` cache block."""
        data = self.stats.to_dict()
        data["entries"] = len(self)
        data["evictions"] = self.store.evictions
        return data
