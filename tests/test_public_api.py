"""The documented public API surface stays importable and coherent."""

import pytest


class TestTopLevel:
    def test_core_entry_points(self):
        import repro

        assert callable(repro.parse)
        assert callable(repro.pretty)
        assert callable(repro.detect_races)
        assert callable(repro.repair_program)      # lazily resolved
        assert isinstance(repro.__version__, str)

    def test_lazy_attribute_error(self):
        import repro

        with pytest.raises(AttributeError):
            repro.not_a_thing

    def test_version_single_source(self):
        import repro
        from repro.version import __version__

        assert repro.__version__ == __version__


class TestSubpackageSurfaces:
    def test_lang(self):
        from repro.lang import (  # noqa: F401
            ast, parse, pretty, serial_elision, strip_finishes,
            insert_finish, validate, ast_equal, tokenize,
        )

    def test_runtime(self):
        import repro.runtime
        from repro.runtime import (  # noqa: F401
            Interpreter, run_program, BUILTIN_NAMES, ArrayValue,
            StructValue, DeterministicRng, ExecutionTrace,
        )

        # The tree walker's environments and the schedule explorer are
        # test oracles (tests/tree_reference.py,
        # tests/schedule_reference.py), not product exports.
        assert sorted(repro.runtime.__all__) == sorted([
            "BUILTIN_NAMES", "BUILTINS", "BuiltinContext",
            "DeterministicRng", "ExecutionObserver", "ExecutionResult",
            "Interpreter", "run_program", "ExecutionTrace", "Address",
            "ArrayValue", "StructValue", "to_display"])
        for name in ("Environment", "Cell", "DeferredScheduleInterpreter",
                     "DeterminismReport", "check_determinism",
                     "run_deferred"):
            assert not hasattr(repro.runtime, name), name

    def test_dpst(self):
        from repro.dpst import (  # noqa: F401
            Dpst, DpstBuilder, DpstNode, prune_race_free,
            ASYNC, FINISH, SCOPE, STEP,
        )

    def test_races(self):
        import repro.races
        from repro.races import (  # noqa: F401
            ALGORITHMS, detect_races, DataRace, RaceReport,
            OracleDetector, ArrayMrwDetector, ArraySrwDetector,
            run_arraycore, replay_detection, DetectionResult,
        )

        assert ALGORITHMS == ("mrw", "srw")
        # One ESP-bags implementation: the array core.  The object
        # detectors live in tests/esp_reference.py, the vector-clock
        # detector in tests/vectorclock_reference.py, and there is no
        # detection-core selector.
        assert sorted(repro.races.__all__) == sorted([
            "ALGORITHMS", "BagManager", "S_BAG", "P_BAG", "DataRace",
            "RaceReport", "addr_to_str", "merge_reports", "OracleDetector",
            "ArrayMrwDetector", "ArraySrwDetector",
            "run_arraycore", "DetectionResult", "detect_races",
            "replay_detection"])
        for name in ("EspBagsDetector", "SrwEspBagsDetector",
                     "MrwEspBagsDetector", "make_detector", "CORES",
                     "VectorClockDetector"):
            assert not hasattr(repro.races, name), name

    def test_graph(self):
        from repro.graph import (  # noqa: F401
            ComputationGraph, greedy_schedule, measure_program, span_parts,
            structure_dpst,
        )

    def test_repair(self):
        from repro.repair import (  # noqa: F401
            repair_program, repair_for_inputs, RepairEngine, RepairResult,
            solve_placement, brute_force_placement, build_dependence_graph,
            InsertionFinder, measure_coverage, contextualize,
        )

    def test_bench(self):
        from repro.bench import (  # noqa: F401
            BENCHMARKS, all_benchmarks, get_benchmark, table1, table2,
            table3, table4, figure16, students, run_all,
        )

    def test_viz(self):
        from repro.viz import (  # noqa: F401
            dpst_to_dot, dependence_graph_to_dot, computation_graph_to_dot,
        )

    def test_all_lists_are_accurate(self):
        import importlib

        for module_name in ("repro.lang", "repro.runtime", "repro.dpst",
                            "repro.races", "repro.graph", "repro.repair",
                            "repro.bench"):
            module = importlib.import_module(module_name)
            for name in module.__all__:
                assert hasattr(module, name), (module_name, name)

    def test_runtime_has_no_engine_selector(self):
        import repro.runtime
        from repro.lang import parse
        from repro.runtime.recorder import TraceBuffer

        # One engine, the generated one: no selector anywhere, and the
        # tree walker (tests/tree_reference.py) is unreachable from src.
        for name in ("ENGINES", "set_default_engine", "get_default_engine"):
            assert not hasattr(repro.runtime, name), name
        assert not hasattr(repro.runtime.interpreter, "_ENGINES")
        with pytest.raises(TypeError):
            repro.runtime.Interpreter(parse("def main() {}"), engine="tree")
        # No walker state on the product's interpreter...
        interp = repro.runtime.Interpreter(parse("def main() {}"))
        for name in ("engine", "globals_env", "_pending_cost",
                     "_call_depth", "_next_check", "_elements", "_obs_at"):
            assert not hasattr(interp, name), name
        # ...and no hooks on the packed recorder or the observer base.
        assert not issubclass(TraceBuffer, repro.runtime.ExecutionObserver)
        for name in ("bind_pending_cost", "_install_hooks", "at_statement",
                     "read", "write", "cost_read", "cost_write"):
            assert not hasattr(TraceBuffer(), name), name
        assert not hasattr(repro.runtime.ExecutionObserver,
                           "bind_pending_cost")


class TestConfigurationSurface:
    def test_repro_environment_names(self):
        """Every ``REPRO_*`` environment name the program and its scripts
        mention: tracing, the node id and the server token.  None of them
        selects an execution path (the pool's start method follows the
        platform)."""
        import os
        import re

        root = os.path.join(os.path.dirname(__file__), os.pardir)
        names = set()
        for top in ("src", "scripts"):
            for dirpath, _dirs, files in os.walk(os.path.join(root, top)):
                for name in files:
                    if name.endswith(".py"):
                        with open(os.path.join(dirpath, name),
                                  encoding="utf-8") as handle:
                            names.update(re.findall(r"\bREPRO_([A-Z_]+)",
                                                    handle.read()))
        assert names == {"NODE_ID", "TRACELOG", "TRACELOG_LEVEL",
                         "AUTH_TOKEN"}

    @pytest.mark.parametrize("verb", [[], ["repair"], ["batch"],
                                      ["queue", "submit"]])
    def test_no_path_selector_options(self, verb, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(verb + ["--help"])
        assert excinfo.value.code == 0
        usage = capsys.readouterr().out
        for option in ("--engine", "--replay", "--no-replay",
                       "--incremental", "--no-incremental"):
            assert option not in usage, (verb, option)
