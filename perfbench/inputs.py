"""Seeded inputs of the three benchmark workloads.

Every input is a function of the workload seed, and the seed is chosen so
that it changes the inputs but not the amount of work: it re-seeds the
random data of programs whose work does not depend on their data values,
and, for the classroom batch, picks the corpora, their formatting
variants and the submission order.  The driver
runs each workload under ten different seeds and compares their figures,
so a seed that changed the work would read as noise.
"""

from __future__ import annotations

import random
import re
from typing import Dict, List, NamedTuple, Tuple

SEED_RAND = re.compile(r"seed_rand\((\d+)\)")

#: Table-1 programs whose operation count does not depend on their random
#: data (measured: identical or within 0.1% over eight data seeds).
#: quicksort, spanningtree and the classroom quicksort vary by 7-12%, so
#: their data stays fixed.
DATA_SEEDED = frozenset(("mergesort", "lufact", "crypt", "sor", "series"))

# Multi-iteration repair programs, copied from the repository's
# scripts/bench.py so that the benchmark does not depend on a script.
# The inner async's placement nests inside the outer edit of the same
# round, so each nesting level costs one more repair iteration and one
# more trace replay.
_SWEEP = """
def sweep(a, lo, hi) {
    var s = 1;
    var t = 1;
    for (var i = lo; i < hi; i = i + 1) {
        s = s + a[i] * 3 + a[i] * 5 + a[i] * 7 + a[i] * 11 - a[i] * 2;
        t = t * 3 + s * 7 - t / 2 + s * 5 - t * 9 + s * 13 - t * 4 + s * 2;
        t = t - s * 6 + t / 3 - s * 8 + t * 5 - s * 10 + t / 7 - s * 12;
        a[i] = s + t * 2 + a[i] + a[i] * 4 + a[i] * 6;
        s = s - a[i] * 2 + t * 9 - a[i] * 5 + s / 3 + a[i] * 3 - t * 11;
    }
}
"""

STRESS_SOURCES = {
    # 2 repair iterations.
    "stress-nested": _SWEEP + """
def main(n) {
    var a = new int[3 * n];
    var x = 0;
    var y = 0;
    async {
        async {
            sweep(a, 0, n);
            y = 1;
        }
        sweep(a, n, 2 * n);
        y = y + 1;
        x = 5;
    }
    sweep(a, 2 * n, 3 * n);
    x = x + 1;
}
""",
    # 3 repair iterations.
    "stress-chain": _SWEEP + """
def main(n) {
    var a = new int[4 * n];
    var x = 0;
    var y = 0;
    var z = 0;
    async {
        async {
            async {
                sweep(a, 0, n);
                z = 1;
            }
            sweep(a, n, 2 * n);
            z = z + 1;
            y = 5;
        }
        sweep(a, 2 * n, 3 * n);
        y = y + 1;
        x = 5;
    }
    sweep(a, 3 * n, 4 * n);
    x = x + 1;
}
""",
}

#: (program, entry arguments, detector) of each repair workload.  Sizes
#: are chosen so that a 30-second run holds 25 to 55 rounds, enough for
#: every repair's best time to fall outside the host's slow spells.
REPAIR_CASES: Dict[str, List[Tuple[str, Tuple[int, ...], str]]] = {
    # Recursive programs with one NS-LCA instance per recursive call:
    # finish placement dominates.
    "repair-placement": [
        ("mergesort", (40,), "mrw"),
        ("lufact", (12, 4), "mrw"),
        ("quicksort", (150,), "mrw"),
        ("fibonacci", (12,), "mrw"),
        ("spanningtree", (30, 4, 8), "mrw"),
    ],
    # Loop and array programs with few races per access, plus the
    # multi-iteration stress programs: detection and replay dominate.
    # crypt runs twice (with different data) so that the two longest
    # repairs of a round share the top fifth of the job times and the
    # 90th percentile falls inside it, not on the edge of one job.
    "repair-detect": [
        ("crypt", (240, 8), "mrw"),
        ("mandelbrot", (14, 20), "mrw"),
        ("fannkuch", (5,), "mrw"),
        ("sor", (24, 1, 8), "srw"),
        ("nqueens", (5,), "srw"),
        ("series", (16, 60), "mrw"),
        ("stress-nested", (300,), "mrw"),
        ("stress-chain", (200,), "srw"),
        ("crypt", (240, 8), "mrw"),
    ],
}


def case_key(name: str, args: Tuple[int, ...], algorithm: str) -> str:
    """The name a repair case's digest is recorded under."""
    return f"{name}/{'x'.join(str(a) for a in args)}/{algorithm}"


def reseed(source: str, rng: random.Random) -> str:
    """``source`` with every ``seed_rand`` constant drawn from ``rng``."""
    return SEED_RAND.sub(
        lambda _m: f"seed_rand({rng.randrange(1, 1_000_000)})", source)


def normalize(source: str) -> str:
    """``source`` with its data seeds blanked, for digest comparison: a
    repair never depends on the data seed of these programs."""
    return SEED_RAND.sub("seed_rand(0)", source)


class RepairCase(NamedTuple):
    key: str
    source: str
    args: Tuple[int, ...]
    algorithm: str


def repair_cases(workload: str, seed: int) -> List[RepairCase]:
    """The repair workload's cases for ``seed``.  Sources are
    finish-stripped where the program had finishes.  The order is fixed:
    the heap a repair inherits from the one before it moves its peak
    memory by several percent."""
    from repro.bench.suite import get_benchmark
    from repro.lang import parse, pretty, strip_finishes

    rng = random.Random(f"{workload}:{seed}")
    cases = []
    for name, args, algorithm in REPAIR_CASES[workload]:
        if name in STRESS_SOURCES:
            source = STRESS_SOURCES[name]
        else:
            source = pretty(strip_finishes(parse(get_benchmark(name).source,
                                                 source_name=name)))
            if name in DATA_SEEDED:
                source = reseed(source, rng)
        cases.append(RepairCase(case_key(name, args, algorithm), source,
                                args, algorithm))
    return cases


# ----------------------------------------------------------------------
# Classroom batch (section 7.4 grading traffic)
# ----------------------------------------------------------------------

BATCH_KINDS = ("repair", "detect", "measure")
#: seeded student corpora (59 submissions each) submitted as twins among
#: the distinct jobs of a round.
BATCH_CORPORA = 4
#: submissions per wave.  The benchmark times each wave on its own; a
#: wave of about half a second, unlike a whole five-second round, often
#: runs entirely outside the host's slow spells.
WAVE_SIZE = 32


def templates() -> List[str]:
    """The twelve distinct submission programs of the synthetic class."""
    from repro.bench.students import (
        MATCHED_TEMPLATES,
        OVERSYNC_TEMPLATES,
        RACY_TEMPLATES,
    )

    return [source for _desc, source in
            MATCHED_TEMPLATES + OVERSYNC_TEMPLATES + RACY_TEMPLATES]


def _reformat(source: str, rng: random.Random) -> str:
    """A layout variant of ``source`` that the result cache canonicalizes
    back to the same key: comments, indentation and blank lines."""
    choice = rng.randrange(4)
    if choice == 0:
        return f"// graded copy {rng.randrange(10_000)}\n{source}"
    if choice == 1:
        return source.replace("    ", "  ")
    if choice == 2:
        return source.replace("    ", "\t") + "\n\n"
    return source + f"\n/* late submission {rng.randrange(10_000)} */\n"


class BatchSubmission(NamedTuple):
    #: (template index, kind, grading input): equal keys are twins.
    key: Tuple[int, str, int]
    name: str
    source: str


def batch_submissions(seed: int) -> List[List[BatchSubmission]]:
    """The waves of one batch round, each submitted once every result of
    the wave before has come back.

    The first waves hold, in a seeded order, one submission of every
    distinct (template, kind, input) job plus the seeded corpora as
    layout-varied twins.  The distinct jobs are listed explicitly so that
    every seed executes exactly the same 108 jobs; the seed only decides
    the twins, their layout and the order of submission.  The last waves
    are one more corpus of resubmissions: every one of them is answered
    from the result cache.
    """
    from repro.bench.students import GRADING_INPUTS, population_sources

    rng = random.Random(f"classroom-batch:{seed}")
    sources = templates()
    index = {source: i for i, source in enumerate(sources)}
    inputs = [args[0] for args in GRADING_INPUTS]

    def corpus(label: str) -> List[BatchSubmission]:
        corpus_seed = rng.randrange(1, 1_000_000)
        return [BatchSubmission(
            (index[source], rng.choice(BATCH_KINDS), rng.choice(inputs)),
            f"{label}-{name}", _reformat(source, rng))
            for name, source in population_sources(seed=corpus_seed)]

    first = [BatchSubmission((t, kind, n), f"base-t{t:02d}-{kind}-{n}.hj",
                             sources[t])
             for t in range(len(sources)) for kind in BATCH_KINDS
             for n in inputs]
    for number in range(BATCH_CORPORA):
        first += corpus(f"c{number}")
    rng.shuffle(first)
    again = corpus("again")
    return [wave[i:i + WAVE_SIZE] for wave in (first, again)
            for i in range(0, len(wave), WAVE_SIZE)]
