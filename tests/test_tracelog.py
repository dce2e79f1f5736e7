"""Unit tests for the distributed-tracing layer: trace contexts, the
per-node JSONL :class:`TraceLog` (atomic appends, level filtering,
rotation, tolerant reads), session export, the Chrome trace merger, the
per-job tree reconstruction, and the fleet-health metrics (fixed-bucket
histograms + Prometheus text exposition)."""

import json
import math
import os
import threading

import pytest

from repro import telemetry
from repro.telemetry import (
    DEFAULT_BUCKETS_S,
    Histogram,
    TraceContext,
    TraceLog,
    merge_trace_logs,
    parse_prometheus,
    read_records,
    render_prometheus,
    render_trace_tree,
    session_records,
    trace_tree,
)
from repro.telemetry import validate_chrome_trace
from repro.telemetry.tracelog import TRACELOG_SCHEMA


class TestTraceContext:
    def test_mint_shapes(self):
        trace = TraceContext.mint()
        assert len(trace.trace_id) == 32
        assert len(trace.span_id) == 16
        int(trace.trace_id, 16)  # hex

    def test_mint_is_unique(self):
        ids = {TraceContext.mint().trace_id for _ in range(64)}
        assert len(ids) == 64

    def test_child_keeps_trace_id_fresh_span(self):
        trace = TraceContext.mint()
        child = trace.child()
        assert child.trace_id == trace.trace_id
        assert child.span_id != trace.span_id

    def test_round_trip(self):
        trace = TraceContext.mint()
        again = TraceContext.from_dict(trace.to_dict())
        assert (again.trace_id, again.span_id) \
            == (trace.trace_id, trace.span_id)

    @pytest.mark.parametrize("bad", [
        None, "not-a-dict", 7, {}, {"trace_id": "abc"},
        {"trace_id": "", "span_id": "x"},
        {"trace_id": 5, "span_id": "x"},
        {"trace_id": "abc", "span_id": None},
    ])
    def test_from_dict_is_tolerant(self, bad):
        assert TraceContext.from_dict(bad) is None

    def test_from_dict_passes_through_instances(self):
        trace = TraceContext.mint()
        assert TraceContext.from_dict(trace) is trace


class TestTraceLog:
    def test_span_record_shape(self, tmp_path):
        path = str(tmp_path / "node.jsonl")
        log = TraceLog(path, node="alpha")
        span_id = log.span("queue.wait", 10.0, 10.5, "t" * 32,
                           parent_id="p" * 16, queue_id=3, job="a.hj")
        records = read_records(path)
        assert len(records) == 1
        rec = records[0]
        assert rec["schema"] == TRACELOG_SCHEMA
        assert rec["kind"] == "span"
        assert rec["name"] == "queue.wait"
        assert rec["node"] == "alpha"
        assert rec["span_id"] == span_id
        assert rec["parent_id"] == "p" * 16
        assert (rec["ts_s"], rec["end_s"]) == (10.0, 10.5)
        assert rec["args"] == {"queue_id": 3, "job": "a.hj"}

    def test_event_record(self, tmp_path):
        path = str(tmp_path / "node.jsonl")
        TraceLog(path, node="alpha").event("lease.lost", trace_id="t" * 32,
                                           ts_s=5.0, queue_id=9)
        (rec,) = read_records(path)
        assert rec["kind"] == "event"
        assert rec["ts_s"] == 5.0
        assert rec["args"]["queue_id"] == 9

    def test_level_filtering_at_emission(self, tmp_path):
        path = str(tmp_path / "node.jsonl")
        log = TraceLog(path, level="warn")
        assert log.span("quiet", 0.0, 1.0, "t" * 32) is None
        assert log.span("loud", 0.0, 1.0, "t" * 32, level="error")
        records = read_records(path)
        assert [r["name"] for r in records] == ["loud"]

    def test_rejects_unknown_level(self, tmp_path):
        with pytest.raises(ValueError):
            TraceLog(str(tmp_path / "x.jsonl"), level="loudest")

    def test_rotation_keeps_one_generation(self, tmp_path):
        path = str(tmp_path / "node.jsonl")
        log = TraceLog(path, node="alpha", max_bytes=600)
        for i in range(12):
            log.span(f"s{i}", float(i), float(i) + 1, "t" * 32)
        assert os.path.exists(path + ".1")
        names = [r["name"] for r in read_records(path)]
        assert names == sorted(names, key=lambda n: int(n[1:]))
        assert len(names) < 12  # rotated file holds the rest
        assert len(read_records(path, include_rotated=False)) < len(names)

    def test_concurrent_appends_never_tear(self, tmp_path):
        path = str(tmp_path / "node.jsonl")
        log = TraceLog(path, node="alpha")

        def emit(tag):
            for i in range(40):
                log.span(f"{tag}-{i}", 0.0, 0.001, "t" * 32,
                         payload="x" * 200)

        threads = [threading.Thread(target=emit, args=(t,))
                   for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        records = read_records(path)
        assert len(records) == 160  # every line parsed back whole

    def test_read_skips_torn_tail_and_future_schema(self, tmp_path):
        path = str(tmp_path / "node.jsonl")
        log = TraceLog(path)
        log.span("ok", 0.0, 1.0, "t" * 32)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"schema": TRACELOG_SCHEMA + 1,
                                     "kind": "span", "name": "future"})
                         + "\n")
            handle.write('{"kind": "span", "name": "torn')  # SIGKILL tail
        names = [r["name"] for r in read_records(path)]
        assert names == ["ok"]

    def test_read_missing_file_is_empty(self, tmp_path):
        assert read_records(str(tmp_path / "absent.jsonl")) == []


class TestEnvPlumbing:
    def test_get_tracelog_disabled_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACELOG", raising=False)
        assert telemetry.get_tracelog() is None

    def test_get_tracelog_reads_env(self, tmp_path, monkeypatch):
        path = str(tmp_path / "env.jsonl")
        monkeypatch.setenv("REPRO_TRACELOG", path)
        monkeypatch.setenv("REPRO_TRACELOG_LEVEL", "warn")
        log = telemetry.get_tracelog()
        assert log is not None and log.path == path
        assert log.level == "warn"
        assert telemetry.get_tracelog() is log  # cached per (pid, path)

    def test_bad_level_falls_back_to_info(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACELOG", str(tmp_path / "e.jsonl"))
        monkeypatch.setenv("REPRO_TRACELOG_LEVEL", "shouting")
        assert telemetry.get_tracelog().level == "info"

    def test_set_tracelog_round_trip(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_TRACELOG", raising=False)
        monkeypatch.delenv("REPRO_NODE_ID", raising=False)
        path = str(tmp_path / "set.jsonl")
        telemetry.set_tracelog(path, node="beta")
        try:
            assert os.environ["REPRO_TRACELOG"] == path
            assert os.environ["REPRO_NODE_ID"] == "beta"
            assert telemetry.get_tracelog().node == "beta"
        finally:
            telemetry.set_tracelog(None)
        assert "REPRO_TRACELOG" not in os.environ
        assert telemetry.get_tracelog() is None


class TestSessionExport:
    def _session(self):
        tel = telemetry.TelemetrySession("job")
        with tel.span("job", category="job"):
            with tel.span("detect"):
                with tel.span("dpst"):
                    pass
            with tel.span("replay"):
                pass
        return tel

    def test_roots_parent_to_trace_span(self):
        tel = self._session()
        trace = TraceContext.mint()
        records = session_records(tel, trace, node="alpha", job="a.hj")
        assert len(records) == 4
        by_name = {r["name"]: r for r in records}
        assert by_name["job"]["parent_id"] == trace.span_id
        assert by_name["detect"]["parent_id"] == by_name["job"]["span_id"]
        assert by_name["dpst"]["parent_id"] == by_name["detect"]["span_id"]
        assert all(r["trace_id"] == trace.trace_id for r in records)
        assert all(r["args"]["job"] == "a.hj" for r in records)
        assert all("cpu_ms" in r["args"] for r in records)

    def test_epoch_mapping_is_plausible(self):
        import time

        tel = self._session()
        records = session_records(tel, TraceContext.mint())
        now = time.time()
        for rec in records:
            assert now - 60 < rec["ts_s"] <= rec["end_s"] <= now + 60

    def test_error_spans_export_at_error_level(self):
        tel = telemetry.TelemetrySession("job")
        with pytest.raises(RuntimeError):
            with tel.span("job"):
                raise RuntimeError("boom")
        (rec,) = session_records(tel, TraceContext.mint())
        assert rec["level"] == "error"

    def test_log_session_writes_and_counts(self, tmp_path):
        tel = self._session()
        log = TraceLog(str(tmp_path / "s.jsonl"), node="alpha")
        written = log.session(tel, TraceContext.mint(), job="a.hj")
        assert written == 4
        assert len(read_records(log.path)) == 4


class TestMergeAndTree:
    def _two_node_records(self):
        trace = TraceContext.mint()
        submit = {"schema": 1, "kind": "span", "level": "info",
                  "name": "submit", "node": "cli", "worker": 1,
                  "trace_id": trace.trace_id, "span_id": trace.span_id,
                  "parent_id": None, "ts_s": 100.0, "end_s": 100.001,
                  "args": {"job": "a.hj", "job_id": "7"}}
        wait = {"schema": 1, "kind": "span", "level": "info",
                "name": "queue.wait", "node": "node-a", "worker": 2,
                "trace_id": trace.trace_id, "span_id": "b" * 16,
                "parent_id": trace.span_id, "ts_s": 100.0,
                "end_s": 100.2, "args": {"queue_id": 7}}
        job = {"schema": 1, "kind": "span", "level": "info",
               "name": "job", "node": "node-a", "worker": 3,
               "trace_id": trace.trace_id, "span_id": "c" * 16,
               "parent_id": trace.span_id, "ts_s": 100.2,
               "end_s": 100.9, "args": {"job": "a.hj"}}
        mark = {"schema": 1, "kind": "event", "level": "info",
                "name": "lease.renewed", "node": "node-a", "worker": 2,
                "trace_id": trace.trace_id, "span_id": "d" * 16,
                "parent_id": None, "ts_s": 100.5, "args": {}}
        return trace, [submit], [wait, job, mark]

    def test_merge_is_valid_chrome_trace(self, tmp_path):
        _, cli, node = self._two_node_records()
        cli_path = str(tmp_path / "cli.jsonl")
        node_path = str(tmp_path / "node.jsonl")
        for path, records in ((cli_path, cli), (node_path, node)):
            with open(path, "w", encoding="utf-8") as handle:
                for rec in records:
                    handle.write(json.dumps(rec) + "\n")
        doc = merge_trace_logs([cli_path, node_path])
        assert validate_chrome_trace(doc) == []
        assert doc["otherData"]["nodes"] == ["cli", "node-a"]
        assert doc["otherData"]["records"] == 4

    def test_merge_lanes_one_pid_per_node_tid_per_worker(self):
        _, cli, node = self._two_node_records()
        doc = merge_trace_logs([cli, node])
        events = doc["traceEvents"]
        pid_names = {e["pid"]: e["args"]["name"] for e in events
                     if e["name"] == "process_name"}
        assert sorted(pid_names.values()) == ["node cli", "node node-a"]
        node_pid = next(pid for pid, name in pid_names.items()
                        if name == "node node-a")
        node_tids = {e["tid"] for e in events
                     if e["pid"] == node_pid and e.get("ph") in ("X", "i")}
        assert len(node_tids) == 2  # workers 2 and 3

    def test_merge_rebases_to_zero_and_keeps_ids(self):
        trace, cli, node = self._two_node_records()
        doc = merge_trace_logs([cli, node])
        xs = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        assert min(e["ts"] for e in xs) == 0.0
        assert all(e["args"]["trace_id"] == trace.trace_id for e in xs)
        instants = [e for e in doc["traceEvents"] if e.get("ph") == "i"]
        assert [e["name"] for e in instants] == ["lease.renewed"]

    def test_trace_tree_selectors(self):
        trace, cli, node = self._two_node_records()
        records = cli + node
        for selector in (trace.trace_id, trace.trace_id[:8],
                         "a.hj", "7"):
            trace_id, roots = trace_tree(records, selector)
            assert trace_id == trace.trace_id, selector
            assert len(roots) == 1
            root = roots[0]
            assert root["name"] == "submit"
            assert [c["name"] for c in root["children"]] \
                == ["queue.wait", "job"]

    def test_trace_tree_selects_by_basename_of_path(self):
        trace, cli, node = self._two_node_records()
        cli[0]["args"]["job"] = "/corpus/sub/a.hj"
        node[1]["args"]["job"] = "/corpus/sub/a.hj"
        trace_id, roots = trace_tree(cli + node, "a.hj")
        assert trace_id == trace.trace_id
        assert len(roots) == 1

    def test_trace_tree_ambiguous_or_missing_is_none(self):
        _, cli, node = self._two_node_records()
        other = dict(cli[0])
        other["trace_id"] = "f" * 32
        assert trace_tree(cli + node + [other], "a.hj") == (None, [])
        assert trace_tree(cli + node, "no-such-job") == (None, [])

    def test_orphan_spans_surface_as_roots(self):
        trace, _cli, node = self._two_node_records()
        # Drop the submit record: the SIGKILL'd-submitter case.
        trace_id, roots = trace_tree(node, trace.trace_id)
        assert trace_id == trace.trace_id
        assert [r["name"] for r in roots] == ["queue.wait", "job"]

    def test_render_tree_shows_hops_and_gaps(self):
        trace, cli, node = self._two_node_records()
        trace_id, roots = trace_tree(cli + node, "a.hj")
        text = render_trace_tree(trace_id, roots, events=cli + node)
        assert f"trace {trace.trace_id}" in text
        assert "[cli/1]" in text and "[node-a/3]" in text
        assert "after parent" in text
        assert "* lease.renewed" in text


class TestHistogram:
    def test_cumulative_counts(self):
        hist = Histogram(bounds=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 5.0, 50.0):
            hist.observe(value)
        assert hist.counts == [1, 2, 3]
        assert hist.count == 4
        assert hist.sum_s == pytest.approx(55.55)

    def test_default_bounds_are_log_spaced(self):
        assert len(DEFAULT_BUCKETS_S) == 18
        assert DEFAULT_BUCKETS_S[0] == 0.0001
        assert DEFAULT_BUCKETS_S[-1] == 50.0
        assert list(DEFAULT_BUCKETS_S) == sorted(DEFAULT_BUCKETS_S)

    def test_quantile_upper_bound(self):
        hist = Histogram(bounds=(0.1, 1.0, 10.0))
        for _ in range(99):
            hist.observe(0.05)
        assert hist.quantile(0.5) == 0.1
        hist.observe(100.0)
        assert hist.quantile(0.999) == math.inf
        assert Histogram().quantile(0.5) == 0.0

    def test_merge_adds_elementwise(self):
        a, b = Histogram(), Histogram()
        a.observe(0.01)
        b.observe(0.01)
        b.observe(30.0)
        a.merge(b)
        assert a.count == 3
        assert a.quantile(0.5) == 0.01
        with pytest.raises(ValueError):
            a.merge(Histogram(bounds=(1.0,)))

    def test_dict_round_trip_and_merge_from_dict(self):
        hist = Histogram()
        for value in (0.002, 0.2, 2.0):
            hist.observe(value)
        again = Histogram.from_dict(hist.to_dict())
        assert again.counts == hist.counts
        assert again.count == hist.count
        assert again.sum_s == pytest.approx(hist.sum_s)
        merged = Histogram()
        merged.merge(hist.to_dict())
        assert merged.counts == hist.counts

    def test_exact_max_merges_by_max(self):
        a, b = Histogram(), Histogram()
        a.observe(0.003)
        b.observe(0.0012)
        b.observe(0.0011)
        assert a.max_s == 0.003 and b.max_s == 0.0012
        a.merge(b.to_dict())
        assert a.max_s == 0.003
        assert Histogram.from_dict(a.to_dict()).max_s == 0.003
        # Percentiles are bucket bounds capped at the exact maximum.
        summary = b.summary()
        assert summary["max_ms"] == 1.2
        assert summary["p50_ms"] == summary["p95_ms"] == 1.2
        assert Histogram().summary()["count"] == 0

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            Histogram(bounds=())
        with pytest.raises(ValueError):
            Histogram(bounds=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram(bounds=(2.0, 1.0))


class TestPrometheus:
    def _metrics(self):
        hist = Histogram()
        hist.observe(0.01)
        hist.observe(0.2)
        return {
            "histograms": {"detect": hist.to_dict()},
            "jobs": {"completed": 5, "by_status": {"ok": 4, "timeout": 1}},
            "queue": {"queued": 2, "leased": 1, "done": 4, "total": 7},
            "queue_health": {"oldest_lease_age_s": 0.5,
                             "retries_total": 3,
                             "counters": {"dedupe_hits": 2}},
            "counters": {"jobs_submitted": 9},
            "workers": {"truncated_spans": 1},
        }

    def test_render_parses_strictly(self):
        samples = parse_prometheus(render_prometheus(self._metrics()))
        assert samples  # non-empty and no ValueError

    def test_families_and_labels(self):
        samples = parse_prometheus(render_prometheus(self._metrics()))
        by_name = {}
        for name, labels, value in samples:
            by_name.setdefault(name, []).append((labels, value))
        buckets = dict((labels["le"], value) for labels, value
                       in by_name["repro_phase_seconds_bucket"]
                       if labels["phase"] == "detect")
        assert buckets["+Inf"] == 2.0
        assert buckets["0.25"] == 2.0 and buckets["0.1"] == 1.0
        assert ({(labels["status"], value) for labels, value
                 in by_name["repro_jobs_by_status"]}
                == {("ok", 4.0), ("timeout", 1.0)})
        depth = {labels["state"]: value for labels, value
                 in by_name["repro_queue_depth"]}
        assert depth == {"queued": 2.0, "leased": 1.0, "done": 4.0}
        assert by_name["repro_counter_jobs_submitted_total"][0][1] == 9.0
        # Generic flattening picks up nested leaves without renderer edits.
        assert by_name["repro_queue_health_counters_dedupe_hits"][0][1] == 2.0
        assert by_name["repro_workers_truncated_spans"][0][1] == 1.0

    def test_renders_histogram_sum_and_count(self):
        samples = parse_prometheus(render_prometheus(self._metrics()))
        values = {name: value for name, labels, value in samples
                  if labels.get("phase") == "detect"
                  and not name.endswith("_bucket")}
        assert values["repro_phase_seconds_count"] == 2.0
        assert values["repro_phase_seconds_sum"] == pytest.approx(0.21)

    def test_parser_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_prometheus("this is not prometheus\n")
        with pytest.raises(ValueError):
            parse_prometheus('metric{label="unclosed} 1\n')
        with pytest.raises(ValueError):
            parse_prometheus("# TYPE thing flavor\nthing 1\n")

    def test_escapes_label_values(self):
        text = render_prometheus({
            "jobs": {"by_status": {'we"ird\nstatus': 1}}})
        (sample,) = [s for s in parse_prometheus(text)
                     if s[0] == "repro_jobs_by_status"]
        assert sample[1]["status"] == 'we"ird\nstatus'
