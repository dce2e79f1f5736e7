"""One pause of the cyclic garbage collector per pipeline run.

Detection and repair allocate large, long-lived structures at a steady
rate (trace arrays, shadow summaries, race rows, S-DPST nodes).  With the
cyclic collector enabled, each generation-2 pass re-traverses all of
them, and every pass between two phases collects nothing: the
structures are still live.  Nothing in these pipelines needs cycle
collection while it runs, so each entry point (``RepairEngine.repair``,
``detect_races``, ``replay_detection``, ``measure_program``) runs inside
:func:`gc_paused`, and the caller's next natural collection reclaims
what the run left behind.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator

__all__ = ["gc_paused"]


@contextmanager
def gc_paused() -> Iterator[None]:
    """Disable the cyclic GC for the ``with`` body.

    Only the outermost window acts: a window opened while the collector
    is already disabled (by an enclosing window, or by the caller) does
    nothing, so a nested pipeline never re-enables it early, and a
    caller that disabled it finds it still disabled afterwards.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
