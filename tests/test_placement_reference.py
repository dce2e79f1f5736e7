"""The production placement DP against the reference copy of the original
kernel (``tests/placement_reference.py``) and the brute-force oracle.

The edge-free-cell shortcut, the VALID memo rows and the column-major
copies in :func:`repro.repair.placement.solve_placement` must not change
a single decision: on seeded random graphs the two kernels must return
the same cost, finish set and trailing EST, and ask VALID about the same
``(i, k)`` pairs.
"""

import random

import pytest

from repro import telemetry
from repro.repair.bruteforce import brute_force_placement
from repro.repair.placement import solve_placement
from tests.placement_reference import reference_solve_placement


def random_graph(rng: random.Random, n: int):
    """A graph shaped like the real ones: asyncs and steps with tied
    times, edges clustered in a few windows so long stretches of the node
    range carry no edge at all."""
    is_async = [rng.random() < 0.6 for _ in range(n)]
    times = [rng.choice((1, 2, 5, 5, 10)) for _ in range(n)]
    edges = set()
    for _ in range(rng.randint(0, 3)):
        lo = rng.randrange(n)
        hi = min(n - 1, lo + rng.randint(1, 8))
        sources = [x for x in range(lo, hi) if is_async[x]]
        for _ in range(rng.randint(1, 4) if sources else 0):
            x = rng.choice(sources)
            edges.add((x, rng.randint(x + 1, hi)))
    return times, is_async, sorted(edges)


def random_valid(rng: random.Random, n: int):
    """A VALID predicate that rejects a random share of the wraps (enough
    to make whole DP cells INF), plus the log of the questions it got."""
    reject = rng.choice((0.0, 0.2, 0.5, 0.9))
    answers = {(i, k): rng.random() >= reject
               for i in range(n) for k in range(i, n)}
    asked = []

    def valid(i, k):
        asked.append((i, k))
        return answers[(i, k)]

    return valid, asked


@pytest.mark.parametrize("seed", range(120))
def test_same_decisions_and_queries_as_reference(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 40)
    times, is_async, edges = random_graph(rng, n)
    valid_seed = rng.random()
    ref_valid, ref_asked = random_valid(random.Random(valid_seed), n)
    new_valid, new_asked = random_valid(random.Random(valid_seed), n)

    ref = reference_solve_placement(times, is_async, edges, ref_valid)
    new = solve_placement(times, is_async, edges, new_valid)

    assert (new is None) == (ref is None)
    if ref is not None:
        assert new.cost == ref.cost
        assert new.finishes == ref.finishes
        assert new.est_after == ref.est_after
    assert len(new_asked) == len(set(new_asked))
    assert set(new_asked) == set(ref_asked)


@pytest.mark.parametrize("seed", range(40))
def test_same_decisions_without_valid(seed):
    rng = random.Random(1000 + seed)
    times, is_async, edges = random_graph(rng, rng.randint(1, 40))
    ref = reference_solve_placement(times, is_async, edges)
    new = solve_placement(times, is_async, edges)
    assert (new.cost, new.finishes, new.est_after) == \
        (ref.cost, ref.finishes, ref.est_after)


# Brute force is exponential: about 1 s per graph at n = 6 and up to
# ~10 s at n = 7, so the largest sizes get one or two seeds each.
BRUTE_CASES = [(seed, 1 + seed % 5) for seed in range(40)] \
    + [(40, 6), (41, 6), (42, 7)]


@pytest.mark.parametrize("seed,n", BRUTE_CASES)
def test_small_graphs_match_bruteforce(seed, n):
    rng = random.Random(2000 + seed)
    times, is_async, edges = random_graph(rng, n)
    valid, _ = random_valid(rng, n)
    solution = solve_placement(times, is_async, edges, valid)
    oracle = brute_force_placement(times, is_async, edges, valid)
    assert (solution is None) == (oracle is None)
    if solution is not None:
        assert solution.cost == oracle[0]


def test_edge_free_graph_needs_no_valid_query():
    asked = []
    solution = solve_placement([3, 1, 4, 1, 5], [True, False] * 2 + [True],
                               [], lambda i, k: asked.append((i, k)))
    assert asked == []
    assert solution.finishes == []


def test_cell_counters_once_per_call():
    # Nodes 0..5 with one edge 3 -> 5: of the 15 cells of length >= 2,
    # the ranges that do not span 3..5 hold no edge (all 10 with j < 5,
    # plus 4..5).
    times = [1] * 6
    is_async = [True] * 6
    with telemetry.session("t") as tel:
        solve_placement(times, is_async, [(3, 5)])
        solve_placement(times, is_async, [])
    assert tel.counters["repair.dp_cells"] == 30
    assert tel.counters["repair.dp_cells_edge_free"] == 11 + 15

