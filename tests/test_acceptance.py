"""Acceptance suite: one test per criterion, printed one line per criterion.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
CRITERION lines inline).  Expected values are frozen from independent
oracles; tolerances and runtime bounds are pinned here, not configurable.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from densitylab.asymptotics import DoubleExponential, All, density, full_density_witness
from densitylab.corpus import (
    closed_form_density_corpus,
    disjoint_periodic_pairs,
    random_disjoint_periodic_pair,
    random_symbolic_set,
    standard_permutation_corpus,
)
from densitylab.measure import (
    BlumlingerCombo,
    Mixture,
    SubsequenceLimit,
    check_axioms,
    evaluate,
    find_invariance_violation,
)
from densitylab.nset import blocks_dexp, periodic, scale
from densitylab.perm import (
    Classification,
    QuarterBlockSwap,
    doubling_checkpoints,
    levy_defect_profile,
    levy_witness_set,
    pairing_permutation,
    ratio_stat_report,
    stat_checkpoints,
)

from oracles import brute_defect, brute_image_count, dexp_count_closed, dexp_count_enum


@contextmanager
def criterion(num: int, label: str):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"CRITERION {num:02d} FAIL  {label}")
        raise
    print(f"CRITERION {num:02d} PASS  {label}  ({time.monotonic() - t0:.2f}s)")


def oracle_block_count(n: int) -> int:
    # literal element enumeration at small horizons, independent closed-form
    # summation beyond
    return dexp_count_enum(n) if n <= 1 << 18 else dexp_count_closed(n)


def test_criterion_01_combo_measure_partials_exact():
    with criterion(1, "combo partials on the block set equal (2^(2^i)-1)/2^(2^i)"):
        a = blocks_dexp()
        t0 = time.monotonic()
        rep = evaluate(BlumlingerCombo(DoubleExponential(6)), a, Fraction(1, 1000))
        elapsed = time.monotonic() - t0
        partials = dict(rep.partials)
        for i in range(2, 7):
            n = 1 << (1 << i)
            assert partials[n] == Fraction(n - 1, n)
            assert partials[n] == Fraction(
                oracle_block_count(2 * n) - oracle_block_count(n), n
            )
        final = partials[1 << 64]
        assert abs(final - 1) <= Fraction(1, 2**16)
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_02_doubling_failure_exact():
    with criterion(2, "combo partials on 2A are 1/256, 1/65536 and A(n)=(2A)(2n) on the grid"):
        a = blocks_dexp()
        a2 = scale(a, 2)
        t0 = time.monotonic()
        rep = evaluate(BlumlingerCombo(DoubleExponential(6)), a2, Fraction(1, 1000))
        partials = dict(rep.partials)
        grid = [1 << (1 << i) for i in range(1, 7)]
        identity = all(a.count(n) == a2.count(2 * n) for n in grid)
        elapsed = time.monotonic() - t0
        assert partials[256] == Fraction(1, 256)
        assert partials[65536] == Fraction(1, 65536)
        assert partials[1 << 64] == Fraction(1, 1 << 64)  # trend to 0
        assert identity
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_03_upper_density_window():
    with criterion(3, "upper density estimate over [2^10, 2^20] is exactly 65812/131071"):
        t0 = time.monotonic()
        rep = density(blocks_dexp(), 1 << 20, 1 << 10)
        elapsed = time.monotonic() - t0
        assert rep.upper_estimate == Fraction(65812, 131071)
        assert abs(rep.upper_estimate - Fraction(1, 2)) <= Fraction(3, 1000)
        assert rep.lower_estimate <= Fraction(5, 1000)
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_04_monotonicity_failure():
    with criterion(4, "periodic(4;1,2,3) dominates the block set yet gets the smaller measure"):
        t0 = time.monotonic()
        a = blocks_dexp()
        b = periodic(4, [1, 2, 3])
        blocks = list(a.source.intervals_meeting(1, 10**6))
        ca = cb = 0
        block_iter = iter(blocks + [(None, None)])
        lo, hi = next(block_iter)
        dominated = True
        for n in range(1, 10**6 + 1):
            if lo is not None and n >= hi:
                lo, hi = next(block_iter)
            if lo is not None and lo <= n < hi:
                ca += 1
            if n & 3:
                cb += 1
            if cb < ca:
                dominated = False
                break
        assert dominated
        assert b.exact_density() == Fraction(3, 4)
        mu_b = evaluate(BlumlingerCombo(DoubleExponential(6)), b, Fraction(1, 1000))
        assert mu_b.converged
        assert abs(mu_b.value - Fraction(3, 4)) <= Fraction(1, 1000)
        mu_a = evaluate(BlumlingerCombo(DoubleExponential(6)), a, Fraction(1, 1000))
        assert mu_a.partials[-1][1] >= Fraction(255, 256)
        elapsed = time.monotonic() - t0
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_05_pairing_defect_identity():
    with criterion(5, "pairing defect equals |A'(n) - B'(n)| for all n <= 10^4"):
        t0 = time.monotonic()
        rng = random.Random(20260810)
        pairs = [(periodic(2, [1]), periodic(2, [0]))]
        pairs += [random_disjoint_periodic_pair(rng) for _ in range(5)]
        for a, b in pairs:
            phi = pairing_permutation(a, b)
            ca = cb = defect = 0
            spot = {1, 13, 100, 1024, 9999, 10**4}
            for n in range(1, 10**4 + 1):
                if phi.a_only.contains(n):
                    ca += 1
                if phi.b_only.contains(n):
                    cb += 1
                defect += (1 if phi.apply(n) > n else 0) - (
                    1 if phi.invert(n) < n else 0
                )
                assert defect == abs(ca - cb), (phi.to_expr(), n)
                if n in spot:  # literal re-scan of the defect definition
                    assert defect == brute_defect(phi, n)
        elapsed = time.monotonic() - t0
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_06_witness_identity():
    with criterion(6, "count(A_w, n) - (piA_w)(n) equals the defect for the whole corpus"):
        t0 = time.monotonic()
        for name, pi in standard_permutation_corpus():
            w = levy_witness_set(pi, cap=4 * 10**4)
            in_w = in_img = defect = 0
            spot = {10, 100, 1000, 10**4}
            for n in range(1, 10**4 + 1):
                if w.contains(n):
                    in_w += 1
                if w.contains(pi.invert(n)):
                    in_img += 1
                defect += (1 if pi.apply(n) > n else 0) - (
                    1 if pi.invert(n) < n else 0
                )
                assert in_w - in_img == defect, (name, n)
                if n in spot:
                    assert defect == brute_defect(pi, n), (name, n)
                    assert in_img == brute_image_count(pi, w, n), (name, n)
        elapsed = time.monotonic() - t0
        assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_criterion_07_characterization_agreement():
    with criterion(7, "defect and statistical-ratio classifications agree on the corpus"):
        expected = {
            "id": Classification.LEVY_LIKELY,
            "pair(odds,evens)": Classification.LEVY_LIKELY,
            "pair(3k+1,3k+2)": Classification.LEVY_LIKELY,
            "qswap": Classification.NON_LEVY_LIKELY,
            "table((1 5)(2 3))": Classification.LEVY_LIKELY,
            "comp(qswap,pair)": Classification.NON_LEVY_LIKELY,
        }
        eps_grid = [Fraction(1, 10), Fraction(1, 100)]
        disagreements = []
        for name, pi in standard_permutation_corpus():
            by_defect = levy_defect_profile(
                pi, doubling_checkpoints(10**5)
            ).classification_hint
            by_stat = ratio_stat_report(
                pi, eps_grid, stat_checkpoints(10**5)
            ).classification
            assert by_defect == expected[name], (name, by_defect)
            assert by_stat == expected[name], (name, by_stat)
            if by_defect != by_stat:
                disagreements.append(name)
        assert disagreements == []


def test_criterion_08_violation_certificate():
    with criterion(8, "quarter-swap violation certificate: gap >= 0.49 at {2*4^j-1}"):
        cert = find_invariance_violation(QuarterBlockSwap())
        assert cert.subsequence.values == (127, 511, 2047)
        assert set(cert.subsequence.values) == {2 * 4**j - 1 for j in (3, 4, 5)}
        assert cert.gap_estimate >= Fraction(49, 100)
        assert cert.verify()


def test_criterion_09_axiom_suite():
    with criterion(9, "normalization/additivity exact, extension within 1e-3"):
        corpus = closed_form_density_corpus()
        pairs = disjoint_periodic_pairs(10, seed=11)
        assert len(corpus) == 10 and len(pairs) == 10
        rules = [
            SubsequenceLimit(All(10**5)),
            BlumlingerCombo(DoubleExponential(5)),
            Mixture(
                (
                    (Fraction(1, 2), SubsequenceLimit(All(10**5))),
                    (Fraction(1, 4), BlumlingerCombo(DoubleExponential(5))),
                    (Fraction(1, 4), SubsequenceLimit(DoubleExponential(5))),
                )
            ),
        ]
        for mu in rules:
            rep = check_axioms(mu, corpus, pairs, Fraction(1, 1000))
            assert rep.normalization.deviation == 0, mu.to_expr()
            assert all(r.deviation == 0 for r in rep.additivity), mu.to_expr()
            assert all(
                r.status == "pass" and r.deviation <= Fraction(1, 1000)
                for r in rep.extension
            ), (mu.to_expr(), [(r.label, r.status) for r in rep.extension])
            assert rep.passed


def test_criterion_10_sandwich_property():
    with criterion(10, "count(S,n) <= count(S,2n) <= count(S,n)+n over 1000+ random cases"):
        rng = random.Random(903)
        cases = 0
        for _ in range(20):
            s = random_symbolic_set(rng, depth=2)
            points = [rng.randrange(1, 10**5) for _ in range(40)]
            points += [1 << k for k in range(1, 18, 2)] + [1, 10**5]
            for n in points:
                c1, c2 = s.count(n), s.count(2 * n)
                assert c1 <= c2 <= c1 + n, (s.to_expr(), n)
                cases += 1
        assert cases >= 1000


def test_criterion_11_fridy_witness_extraction():
    with criterion(11, "squares-spike witness ratio >= 0.98, within 0.01 past the last stage"):
        import math

        def spike(n):
            r = math.isqrt(n)
            return Fraction(5) if r * r == n else 1 + Fraction(1, n)

        rep = full_density_witness(
            spike,
            Fraction(1),
            10**4,
            [Fraction(1, 2), Fraction(1, 10), Fraction(1, 20), Fraction(1, 100)],
        )
        assert rep.ratio >= Fraction(98, 100)
        assert rep.stages[-1][2] == Fraction(1, 100)
        assert rep.max_tail_deviation < Fraction(1, 100)
        # re-check the tail bound by direct evaluation
        last_stage_start = rep.stages[-1][0]
        for k in rep.witness.elements:
            if k >= last_stage_start:
                assert abs(spike(k) - 1) < Fraction(1, 100)
