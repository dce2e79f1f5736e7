"""Per-layer self time and work counts, recorded from outside the program.

The traced run wraps the public calls into ``repro.lang``, ``repro.races``,
``repro.repair`` and ``repro.service`` at the module attributes their
callers look up, so no source file of the program changes.  Each wrapper
is a span: it counts its calls and adds its *self* time, its duration
minus the time spent in wrapped calls nested inside it (VALID inside the
placement DP, parsing inside the cache key).  Some wrappers also add the
exact work counts that the call's result carries.
"""

from __future__ import annotations

import importlib
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (layer name, "module:attribute" to wrap, where callers look it up).
#: A layer may be wrapped at several lookup sites; each site wraps the
#: original function.
LAYERS: List[Tuple[str, str]] = [
    ("races.detect", "repro.repair.engine:detect_races"),
    ("races.detect", "repro.races:detect_races"),
    ("races.replay", "repro.races.replay:replay_detection"),
    ("repair.step_pairs", "repro.repair.engine:RepairEngine._step_pairs"),
    ("repair.nslca", "repro.repair.engine:group_races_by_nslca"),
    ("repair.depgraph", "repro.repair.engine:build_dependence_graph"),
    ("repair.dp", "repro.repair.engine:solve_placement"),
    ("repair.valid", "repro.repair.insertion:InsertionFinder.valid"),
    ("repair.find", "repro.repair.insertion:InsertionFinder.find"),
    ("lang.parse", "repro.lang:parse"),
    ("service.submit", "repro.service.pool:WorkerPool.submit"),
    ("service.cache_key", "repro.service.cache:ResultCache.key_for"),
]

#: calls of a layer made from inside another layer that belong to the
#: outer one: VALID is implemented as ``find(...) is not None``, so its
#: nested find calls are VALID's work, not insertion searches.
ABSORBED = {"repair.find": "repair.valid"}


def _count_detection(tracer: "Tracer", result: Any) -> None:
    tracer.count("runtime.ops", result.execution.ops)
    tracer.count("races.accesses",
                 getattr(result.detector, "monitored_accesses", 0))
    tracer.count("dpst.nodes", result.dpst_node_count)
    tracer.count("races.rows", len(result.report))


def _count_step_pairs(tracer: "Tracer", result: Any) -> None:
    tracer.count("repair.step_pairs", len(result))


def _count_groups(tracer: "Tracer", result: Any) -> None:
    tracer.count("repair.nslca_groups", len(result))


def _count_graph(tracer: "Tracer", result: Any) -> None:
    tracer.count("repair.depgraph_nodes", result.size)
    tracer.count("repair.depgraph_edges", len(result.edges))


#: per-layer result hooks that add the work a call's result reports.
RESULT_COUNTS: Dict[str, Callable[["Tracer", Any], None]] = {
    "races.detect": _count_detection,
    "repair.step_pairs": _count_step_pairs,
    "repair.nslca": _count_groups,
    "repair.depgraph": _count_graph,
}


def _resolve(target: str) -> Tuple[Any, str]:
    module_name, path = target.split(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Wraps the layer calls while installed; accumulates per layer the
    call count and self seconds, plus named work counts."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}
        self._local = threading.local()
        self._sites = []
        for layer, target in LAYERS:
            owner, attr = _resolve(target)
            original = owner.__dict__[attr]
            self._sites.append((owner, attr, original,
                                self._wrap(layer, original)))

    def reset(self) -> None:
        self.calls.clear()
        self.self_s.clear()
        self.counts.clear()

    def install(self) -> None:
        for owner, attr, _original, wrapper in self._sites:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _wrapper in self._sites:
            setattr(owner, attr, original)

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer: str, original: Callable) -> Callable:
        absorbed_by: Optional[str] = ABSORBED.get(layer)
        on_result = RESULT_COUNTS.get(layer)
        perf_counter = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = self._stack()
            if absorbed_by is not None and stack \
                    and stack[-1][0] == absorbed_by:
                return original(*args, **kwargs)
            frame = [layer, 0.0]  # name, seconds spent in nested layers
            stack.append(frame)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                self.calls[layer] = self.calls.get(layer, 0) + 1
                self.self_s[layer] = self.self_s.get(layer, 0.0) \
                    + elapsed - frame[1]
            if on_result is not None:
                on_result(self, result)
            return result

        return wrapper
