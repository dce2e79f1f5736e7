"""Address interning and the packed access encoding (property-based).

The array core's correctness hangs on two recorder invariants:

* **stable interning** — equal address tuples (however aliased: fresh
  tuple objects, permuted arrival orders, interleaved duplicates) map to
  one dense id, assigned in first-seen order;
* **exact round trip** — the packed ``acodes`` stream (``addr_id << 1 |
  is_write``) decodes back to precisely the ``(addr, kind)`` sequence
  the observer saw.

Both are checked on :class:`~repro.runtime.recorder.TraceBuffer`, the
array core's live first-run producer, whose traces also feed replay.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.lang import parse
from repro.races import detect_races
from repro.races.replay import replay_detection
from repro.runtime.recorder import TraceBuffer
from tests.esp_reference import MrwEspBagsDetector

# ----------------------------------------------------------------------
# Synthetic access scripts: the three real address shapes, built fresh
# per use so equal tuples are distinct objects (interning must work by
# value, never identity).
# ----------------------------------------------------------------------


def _make_addr(key: int):
    shape = key % 3
    owner = key // 3
    if shape == 0:
        return ("cell", 1000 + owner)
    if shape == 1:
        return ("elem", 2000 + owner, owner % 5)
    return ("field", 3000 + owner, f"f{owner % 4}")


_accesses = st.lists(
    st.tuples(st.integers(min_value=0, max_value=11),  # address key
              st.booleans(),                           # is_write
              st.booleans()),                          # fused cost hook?
    min_size=1, max_size=60)

_boundaries = st.sets(st.integers(min_value=1, max_value=59))


def _drive(observer, script, boundaries):
    """Feed a synthetic access script, with statement boundaries at the
    given positions (so accesses spread over several segments)."""
    observer.at_statement(1)
    for i, (key, is_write, fused) in enumerate(script):
        if i in boundaries:
            observer.at_statement(100 + i)
        addr = _make_addr(key)  # fresh tuple: aliasing on purpose
        if fused:
            hook = observer.cost_write if is_write else observer.cost_read
            hook(1, addr, None)
        else:
            hook = observer.write if is_write else observer.read
            hook(addr, None)
    return observer.trace()


def _expected_sequence(script):
    return [(_make_addr(key), "write" if is_write else "read")
            for key, is_write, _fused in script]


class TestPackedEncoding:
    @given(script=_accesses, boundaries=_boundaries)
    @settings(max_examples=60, deadline=None)
    def test_decode_is_exact_inverse(self, script, boundaries):
        trace = _drive(TraceBuffer(), script, boundaries)
        assert trace.decode_accesses() == _expected_sequence(script)

    @given(script=_accesses, boundaries=_boundaries)
    @settings(max_examples=60, deadline=None)
    def test_interning_is_stable_and_dense(self, script, boundaries):
        trace = _drive(TraceBuffer(), script, boundaries)
        # One table entry per distinct address value, however many
        # aliased tuple objects carried it ...
        distinct = []
        for key, _w, _f in script:
            addr = _make_addr(key)
            if addr not in distinct:
                distinct.append(addr)
        assert trace.addr_table == distinct  # first-seen order
        # ... and ids are dense indices into the table.
        assert all(0 <= code >> 1 < len(distinct) for code in trace.acodes)

    @given(script=_accesses)
    @settings(max_examples=30, deadline=None)
    def test_permuted_arrival_still_roundtrips(self, script):
        """Reversing the script permutes first-seen id assignment; the
        decode must still be exact for the permuted stream."""
        reverse = list(reversed(script))
        trace = _drive(TraceBuffer(), reverse, set())
        assert trace.decode_accesses() == _expected_sequence(reverse)


class TestLiveAndReplayProducers:
    SOURCE = """
    var x = 0;
    var y = 0;
    def main(n) {
        var a = new int[n];
        async {
            for (var i = 0; i < n; i = i + 1) { a[i] = i; x = x + 1; }
        }
        for (var i = 0; i < n; i = i + 1) { y = y + a[i]; }
        print(y + x);
    }
    """

    def test_live_run_decodes_identically_across_cores(self):
        """The array core's recorded trace decodes to the same
        normalized (addr, kind) sequence the object reference's detector
        is fed inline for one program."""

        class Logging(MrwEspBagsDetector):
            def __init__(self):
                super().__init__()
                self.log = []

            def on_read(self, addr, task, step, node):
                self.log.append((addr, "read"))
                super().on_read(addr, task, step, node)

            def on_write(self, addr, task, step, node):
                self.log.append((addr, "write"))
                super().on_write(addr, task, step, node)

        def normalize(accesses):
            names = {}
            return [(names.setdefault(addr, (addr[0], len(names))), kind)
                    for addr, kind in accesses]

        array = detect_races(parse(self.SOURCE), (8,), record_trace=True)
        logging = Logging()
        detect_races(parse(self.SOURCE), (8,), detector=logging)
        decoded = normalize(array.trace.decode_accesses())
        assert decoded == normalize(logging.log)
        assert decoded  # non-empty

    def test_replay_consumes_the_decoded_stream(self):
        """The replay producer reads the same packed arrays the decode
        helper proves exact — its detection must see every access."""
        program = parse(self.SOURCE)
        recorded = detect_races(program, (8,), record_trace=True)
        decoded = recorded.trace.decode_accesses()
        replayed = replay_detection(recorded.trace, program)
        assert replayed.detector.monitored_accesses == len(decoded)
        assert len(decoded) == recorded.detector.monitored_accesses
