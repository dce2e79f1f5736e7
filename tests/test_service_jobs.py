"""The batch service's Job/JobResult model and in-process runner."""

import json
import pickle

import pytest

from repro import parse
from repro.repair import repair_program
from repro.service import Job, JobResult, run_job
from repro.service.jobs import DETERMINISTIC_ERRORS

RACY = """
var x = 0;
def main() {
    async { x = 1; }
    print(x);
}
"""


class TestJobModel:
    def test_roundtrip(self):
        job = Job("repair", RACY, source_name="a.hj", args=(40, "x"),
                  algorithm="srw", strip_finishes=True, max_iterations=7,
                  timeout_s=2.5)
        clone = Job.from_dict(json.loads(json.dumps(job.to_dict())))
        assert clone.to_dict() == job.to_dict()
        assert clone.args == (40, "x")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown job kind"):
            Job("grade", RACY)

    # Malformed knobs fail at construction (a 400 over HTTP), so none
    # reaches run_job to end as an internal error.

    def test_bogus_algorithm_rejected(self):
        with pytest.raises(ValueError, match="unknown algorithm 'bogus'"):
            Job("detect", RACY, algorithm="bogus")

    def test_none_algorithm_rejected(self):
        with pytest.raises(ValueError, match="unknown algorithm None"):
            Job.from_dict({"kind": "repair", "source": RACY,
                           "algorithm": None})

    def test_zero_processors_rejected(self):
        with pytest.raises(ValueError, match="processors must be a "
                                             "positive integer, not 0"):
            Job("measure", RACY, processors=0)

    def test_string_processors_rejected(self):
        with pytest.raises(ValueError, match="processors .* not '4'"):
            Job.from_dict({"kind": "measure", "source": RACY,
                           "processors": "4"})

    def test_string_max_ops_rejected(self):
        with pytest.raises(ValueError, match="max_ops .* not 'x'"):
            Job("detect", RACY, max_ops="x")

    def test_string_max_iterations_rejected(self):
        with pytest.raises(ValueError, match="max_iterations .* not '3'"):
            Job.from_dict({"kind": "repair", "source": RACY,
                           "max_iterations": "3"})

    @pytest.mark.parametrize("field", ["processors", "max_ops",
                                       "max_iterations"])
    @pytest.mark.parametrize("value", [-1, True, 2.0, None])
    def test_counts_must_be_positive_ints(self, field, value):
        with pytest.raises(ValueError, match=field):
            Job("repair", RACY, **{field: value})

    @pytest.mark.parametrize("field", ["strip_finishes", "sequential"])
    @pytest.mark.parametrize("value", [1, "yes", None])
    def test_flags_must_be_bools(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be true or "
                                             "false"):
            Job("measure", RACY, **{field: value})

    def test_from_dict_requires_kind_and_source(self):
        with pytest.raises(ValueError, match="kind"):
            Job.from_dict({"source": RACY})

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown job field"):
            Job.from_dict({"kind": "detect", "source": RACY, "bogus": 1})

    def test_semantic_fields_exclude_timing_knobs(self):
        a = Job("detect", RACY, timeout_s=1.0)
        b = Job("detect", RACY, timeout_s=9.0)
        assert a.semantic_fields() == b.semantic_fields()

    def test_semantic_fields_differ_by_kind_knobs(self):
        assert Job("repair", RACY, max_iterations=3).semantic_fields() != \
            Job("repair", RACY, max_iterations=4).semantic_fields()
        assert Job("detect", RACY, algorithm="mrw").semantic_fields() != \
            Job("detect", RACY, algorithm="srw").semantic_fields()


class TestRunJob:
    def test_detect(self):
        result = run_job(Job("detect", RACY, source_name="r.hj"))
        assert result.status == "ok"
        assert result.kind == "detect"
        assert result.result["race_count"] == 1
        assert not result.result["race_free"]
        assert result.result["races"][0]["kind"] == "W->R"
        assert result.elapsed_s > 0

    def test_repair_matches_library(self):
        result = run_job(Job("repair", RACY, source_name="r.hj"))
        assert result.status == "ok"
        assert result.result["converged"]
        expected = repair_program(parse(RACY))
        assert result.result["repaired_source"] == expected.repaired_source
        assert result.result["iterations"][0]["placements"]

    def test_measure(self):
        result = run_job(Job("measure", RACY, processors=4))
        assert result.status == "ok"
        assert result.result["processors"] == 4
        assert result.result["work"] >= result.result["span"]

    def test_strip_finishes(self):
        clean = ("var x = 0;\n"
                 "def main() { finish { async { x = 1; } } print(x); }")
        kept = run_job(Job("detect", clean))
        stripped = run_job(Job("detect", clean, strip_finishes=True))
        assert kept.result["race_free"]
        assert not stripped.result["race_free"]

    def test_result_payload_is_picklable_and_json(self):
        result = run_job(Job("repair", RACY))
        assert pickle.loads(pickle.dumps(result.result)) == result.result
        json.dumps(result.to_dict())


class TestErrorCapture:
    def test_parse_error(self):
        result = run_job(Job("detect", "def main( {", source_name="bad.hj"))
        assert result.status == "error"
        assert result.error["category"] == "parse"
        assert result.error["line"] == 1
        assert result.error["column"] is not None
        assert result.result is None

    def test_lex_error(self):
        result = run_job(Job("detect", "def main() { var x = `; }"))
        assert result.status == "error"
        assert result.error["category"] == "lex"

    def test_superscript_digit_is_a_lex_error(self):
        # '\u00b2'.isdigit() is true but int() rejects it: the job must
        # report a lex error, never an internal one.
        result = run_job(Job("detect", "def main() { var x = \u00b2; }"))
        assert result.status == "error"
        assert result.error["category"] == "lex"
        assert result.error["message"] == "unexpected character '\u00b2'"
        assert (result.error["line"], result.error["column"]) == (1, 22)
        assert "traceback" not in result.error

    def test_huge_integer_literal_is_a_lex_error(self):
        # int() refuses more than 4300 digits of text.
        source = "def main() {\n    var x = " + "7" * 4400 + ";\n}\n"
        result = run_job(Job("detect", source))
        assert result.status == "error"
        assert result.error["category"] == "lex"
        assert result.error["message"] == \
            "integer literal too long (4400 digits)"
        assert (result.error["line"], result.error["column"]) == (2, 13)
        assert "traceback" not in result.error

    #: Squares 10 thirteen times: ``x`` = 10**8192, 8193 digits, past
    #: the 4300 digits Python converts between int and text.
    HUGE = "var x = 10; for (var i = 0; i < 13; i = i + 1) { x = x * x; }"

    def _huge_fault(self, statement):
        source = f"def main() {{\n    {self.HUGE}\n    {statement}\n}}\n"
        result = run_job(Job("detect", source))
        assert result.status == "error"
        assert result.error["category"] == "runtime"
        assert result.error["line"] == 3
        assert "traceback" not in result.error
        return result.error["message"]

    def test_printing_a_huge_integer_is_a_runtime_error(self):
        assert self._huge_fault("print(x);") == \
            "integer too large to convert to text (27214 bits)"

    def test_concatenating_a_huge_integer_is_a_runtime_error(self):
        assert self._huge_fault('var s = "a" + x;') == \
            "integer too large to convert to text (27214 bits)"

    def test_huge_index_is_a_runtime_error(self):
        assert self._huge_fault("var a = new int[3]; var y = a[x];") == \
            "array index <27214-bit integer> out of bounds for length 3"

    def test_huge_array_length_is_a_runtime_error(self):
        assert self._huge_fault("var a = new int[x];") == \
            "array length <27214-bit integer> is too large"

    def test_array_length_past_the_op_budget_is_a_runtime_error(self):
        # 10**10 fits an index, but allocating it would exhaust memory
        # long before the step limit could stop the run.
        for source, max_ops in (("var a = new int[10000000000];",
                                 200_000_000),
                                ("var a = new int[2][5000];", 4999)):
            result = run_job(Job("detect", f"def main() {{\n    {source}\n}}",
                                 max_ops=max_ops))
            assert result.status == "error"
            assert result.error["category"] == "runtime"
            assert result.error["message"].endswith("is too large")
            assert (result.error["line"], result.error["column"]) == (2, 13)
            assert "traceback" not in result.error

    def test_huge_integer_times_double_is_a_runtime_error(self):
        assert self._huge_fault("var y = 2.5 * x;") == \
            "'*' failed: int too large to convert to float"

    def test_validation_error(self):
        result = run_job(Job("detect", "def f() { }"))  # no main()
        assert result.status == "error"
        assert result.error["category"] == "validate"

    def test_runtime_fault(self):
        source = "def main() { var a = new int[2]; a[5] = 1; }"
        result = run_job(Job("detect", source))
        assert result.status == "error"
        assert result.error["category"] == "runtime"

    def test_step_limit(self):
        result = run_job(Job("detect", RACY, max_ops=3))
        assert result.status == "error"
        assert result.error["category"] == "step-limit"

    def test_repair_error(self, monkeypatch):
        from repro.repair import insertion

        monkeypatch.setattr(insertion.InsertionFinder, "find",
                            lambda self, *a, **k: None)
        result = run_job(Job("repair", RACY))
        assert result.status == "error"
        assert result.error["category"] == "repair"

    def test_internal_error_keeps_traceback(self, monkeypatch):
        import repro.races.detect as detect_mod

        def boom(*args, **kwargs):
            raise RuntimeError("kaboom")

        monkeypatch.setattr(detect_mod, "detect_races", boom)
        monkeypatch.setattr("repro.races.detect_races", boom)
        result = run_job(Job("detect", RACY))
        assert result.status == "error"
        assert result.error["category"] == "internal"
        assert "kaboom" in result.error["traceback"]

    def test_errors_never_raise(self):
        # A sweep of malformed inputs: run_job must always return.
        for source in ("", "}{", "def main() { undefinedcall(); }",
                       "var x = ;", "def main() { return 1 + true; }"):
            result = run_job(Job("detect", source))
            assert result.status == "error", source


class TestJobResult:
    def test_roundtrip(self):
        result = run_job(Job("detect", RACY))
        clone = JobResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert clone.to_dict() == result.to_dict()

    def test_schema_guard(self):
        with pytest.raises(ValueError, match="schema"):
            JobResult.from_dict({"schema": 999, "status": "ok",
                                 "kind": "detect"})

    def test_deterministic_statuses(self):
        ok = run_job(Job("detect", RACY))
        assert ok.is_deterministic
        parse = run_job(Job("detect", "def main( {"))
        assert parse.is_deterministic
        assert parse.error["category"] in DETERMINISTIC_ERRORS
        job = Job("detect", RACY)
        for status in ("timeout", "crashed", "cancelled"):
            assert not JobResult.interrupted(job, status,
                                             "x").is_deterministic

    def test_describe_mentions_origin(self):
        result = run_job(Job("detect", RACY, source_name="d.hj"))
        assert "d.hj" in result.describe()
        assert "run" in result.describe()
        result.cached = True
        assert "cache" in result.describe()
