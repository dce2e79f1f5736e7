"""Content-addressed result cache: key derivation and the on-disk store.

The key property (a satellite of the batch-service issue): the cache key
must be invariant under *formatting* — whitespace, comments, layout —
and sensitive to *semantics* — any edit that changes the AST, down to a
single inserted ``finish``.  The student corpus is the natural property
source: real submissions differ in exactly these ways.
"""

import json

import pytest

from repro import parse, pretty
from repro.bench.students import population_sources
from repro.lang import count_finishes, insert_finish
from repro.lang.ast import Block, walk
from repro.service import Job, JobResult, ResultCache, run_job
from repro.service.cache import canonical_source

RACY = """
var x = 0;
def main() {
    async { x = 1; }
    print(x);
}
"""


def _format_variants(source: str):
    """Layout/comment mutations that must preserve the program."""
    yield "// a leading comment\n" + source
    yield source.replace("\n", "\n\n")
    yield source.replace("    ", "\t")
    yield "/* block\n   comment */\n" + source + "\n// trailing\n"
    yield "\n".join(line + "   " for line in source.split("\n"))


def _distinct_corpus(limit=None):
    """One source per distinct canonical text in the student corpus."""
    by_canon = {}
    for name, source in population_sources():
        by_canon.setdefault(canonical_source(source), (name, source))
    items = sorted(by_canon.values())
    return items[:limit] if limit else items


class TestCacheKey:
    def test_formatting_variants_hit_same_entry(self):
        # Property over the whole (deduplicated) student corpus: every
        # formatting variant of every submission keys identically.
        cache = ResultCache()
        for name, source in _distinct_corpus():
            job = Job("repair", source, source_name=name, args=(40,))
            key = cache.key_for(job)
            for variant in _format_variants(source):
                variant_job = Job("repair", variant,
                                  source_name="variant-" + name, args=(40,))
                assert cache.key_for(variant_job) == key, name

    def test_semantic_edits_miss(self):
        # Property over the corpus: wrapping any block's statements in a
        # synthetic finish — the smallest semantic edit the repair tool
        # itself makes — must change the key.
        cache = ResultCache()
        for name, source in _distinct_corpus(limit=6):
            job = Job("repair", source, source_name=name, args=(40,))
            key = cache.key_for(job)
            program = parse(source)
            block = next(node for node in walk(program)
                         if isinstance(node, Block) and node.stmts)
            insert_finish(program, block.nid, 0, len(block.stmts) - 1)
            edited = pretty(program)
            assert count_finishes(parse(edited)) == \
                count_finishes(parse(source)) + 1
            edited_job = Job("repair", edited, source_name=name, args=(40,))
            assert cache.key_for(edited_job) != key, name

    def test_distinct_submissions_have_distinct_keys(self):
        cache = ResultCache()
        keys = {cache.key_for(Job("repair", source, args=(40,)))
                for _, source in _distinct_corpus()}
        assert len(keys) == len(_distinct_corpus())

    def test_corpus_dedup_factor(self):
        # The classroom case the cache exists for: 59 submissions
        # collapse to far fewer distinct canonical programs.
        cache = ResultCache()
        sources = population_sources()
        keys = {cache.key_for(Job("repair", source, args=(40,)))
                for _, source in sources}
        assert len(keys) < len(sources) / 2

    def test_key_depends_on_semantics_not_timing(self):
        cache = ResultCache()
        base = Job("repair", RACY, args=(1,))
        assert cache.key_for(Job("repair", RACY, args=(1,),
                                 timeout_s=3.0)) == cache.key_for(base)
        assert cache.key_for(Job("repair", RACY, args=(2,))) != \
            cache.key_for(base)
        assert cache.key_for(Job("detect", RACY, args=(1,))) != \
            cache.key_for(base)
        assert cache.key_for(Job("repair", RACY, args=(1,),
                                 algorithm="srw")) != cache.key_for(base)
        assert cache.key_for(Job("repair", RACY, args=(1,),
                                 strip_finishes=True)) != cache.key_for(base)

    def test_unparseable_source_keys_on_raw_text(self):
        cache = ResultCache()
        a = cache.key_for(Job("detect", "def main( {"))
        b = cache.key_for(Job("detect", "def main( {"))
        c = cache.key_for(Job("detect", "def main(( {"))
        assert a == b != c

    def test_canonical_source_normalizes(self):
        canon = canonical_source(RACY)
        assert canonical_source("// hi\n" + RACY.replace("    ", " ")) \
            == canon


class TestCacheStore:
    def test_memory_roundtrip(self):
        cache = ResultCache()
        job = Job("detect", RACY, source_name="a.hj")
        assert cache.lookup(job) is None
        result = run_job(job)
        assert cache.put(cache.key_for(job), result)
        hit = cache.lookup(job)
        assert hit is not None and hit.cached
        assert hit.result == result.result
        assert len(cache) == 1

    def test_hit_renames_to_requesting_job(self):
        cache = ResultCache()
        job = Job("detect", RACY, source_name="original.hj")
        cache.put(cache.key_for(job), run_job(job))
        twin = Job("detect", "// c\n" + RACY, source_name="twin.hj")
        hit = cache.lookup(twin)
        assert hit is not None
        assert hit.source_name == "twin.hj"

    def test_disk_persistence_across_instances(self, tmp_path):
        store = str(tmp_path / "cache")
        first = ResultCache(store)
        job = Job("repair", RACY, source_name="a.hj")
        first.put(first.key_for(job), run_job(job))
        second = ResultCache(store)
        hit = second.lookup(job)
        assert hit is not None and hit.cached
        assert hit.result["converged"]
        assert second.stats.hits == 1

    def test_nondeterministic_results_rejected(self):
        cache = ResultCache()
        job = Job("detect", RACY)
        key = cache.key_for(job)
        timeout = JobResult.interrupted(job, "timeout", "budget exceeded")
        assert not cache.put(key, timeout)
        assert cache.lookup(job) is None
        assert cache.stats.rejected == 1

    def test_deterministic_errors_are_cached(self):
        cache = ResultCache()
        job = Job("detect", "def main( {", source_name="bad.hj")
        result = run_job(job)
        assert cache.put(cache.key_for(job), result)
        hit = cache.lookup(job)
        assert hit.status == "error"
        assert hit.error["category"] == "parse"

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        store = str(tmp_path / "cache")
        cache = ResultCache(store)
        job = Job("detect", RACY)
        key = cache.key_for(job)
        (tmp_path / "cache" / f"{key}.json").write_text("{ not json")
        assert cache.lookup(job) is None

    def test_stats_counters(self):
        cache = ResultCache()
        job = Job("detect", RACY)
        cache.lookup(job)
        cache.put(cache.key_for(job), run_job(job))
        cache.lookup(job)
        stats = cache.stats.to_dict()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["stores"] == 1
        assert 0 < stats["hit_rate"] < 1
        json.dumps(stats)

    def test_hit_is_isolated_copy(self):
        cache = ResultCache()
        job = Job("detect", RACY)
        cache.put(cache.key_for(job), run_job(job))
        first = cache.lookup(job)
        first.result["races"].append({"fake": True})
        second = cache.lookup(job)
        assert {"fake": True} not in second.result["races"]
