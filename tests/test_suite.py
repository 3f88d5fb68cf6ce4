import random

from densitylab.corpus import random_symbolic_set
from densitylab.nset import blocks_dexp, blocks_explicit, finite, periodic
from densitylab.suite import counterexample_suite, first_domination_violation

from oracles import brute_first_violation


def test_domination_check_at_block_ends_matches_the_brute_loop():
    a = blocks_dexp()
    for b in (periodic(4, [1, 2, 3]), periodic(4, [1]), periodic(2, [0]), periodic(3, [0, 1]),
              finite(1, 2, 3), periodic(8, [1, 2, 3, 5, 6, 7])):
        for horizon in (1, 3, 4, 6, 7, 16, 20, 31, 256, 300, 70_000):
            assert first_domination_violation(a, b, horizon) == brute_first_violation(a, b, horizon), (b, horizon)
    assert first_domination_violation(a, periodic(4, [1]), 10**6) == 6


def test_domination_check_on_random_blocks_and_sets():
    rng = random.Random(79)
    for _ in range(300):
        lo, ivs = rng.randrange(1, 30), []
        for _ in range(rng.randrange(1, 6)):
            hi = lo + rng.randrange(1, 60)
            ivs.append((lo, hi))
            lo = hi + rng.randrange(0, 30)  # adjacent blocks too
        a = blocks_explicit(ivs)
        b = random_symbolic_set(rng, rng.randrange(0, 3))
        horizon = rng.randrange(1, 400)
        assert first_domination_violation(a, b, horizon) == brute_first_violation(a, b, horizon), (a, b, horizon)


def test_suite_domination_holds_up_to_its_horizon():
    item = counterexample_suite().monotonicity_failure
    assert item.domination_horizon == 10**6
    assert item.domination_holds and item.first_violation is None
