from dataclasses import replace
from fractions import Fraction

import pytest

from densitylab.asymptotics import (
    All,
    DoubleExponential,
    Explicit,
    Geometric,
)
from densitylab.corpus import closed_form_density_corpus, disjoint_periodic_pairs
from densitylab.errors import EnumerationBudgetExceeded, IndexBeyondSet, NoViolationFound
from densitylab.measure import (
    BlumlingerCombo,
    ImageSet,
    Mixture,
    SubsequenceLimit,
    check_axioms,
    check_invariance,
    equal_measure_test,
    evaluate,
    find_invariance_violation,
)
from densitylab.nset import (
    Empty,
    union,
    Full,
    Predicate,
    _metered,
    blocks_dexp,
    blocks_explicit,
    finite,
    periodic,
    scale,
    select,
)
from densitylab.perm import (
    Identity,
    QuarterBlockSwap,
    pairing_permutation,
)

from oracles import brute_image_count, dexp_count_enum

ODDS = periodic(2, [1])
EVENS = periodic(2, [0])


# ---------------------------------------------------------------------------
# rule construction
# ---------------------------------------------------------------------------


def test_mixture_validation():
    s = SubsequenceLimit(DoubleExponential(3))
    with pytest.raises(ValueError):
        Mixture(((Fraction(1, 2), s),))
    with pytest.raises(ValueError):
        Mixture(((Fraction(0), s), (Fraction(1), s)))
    with pytest.raises(ValueError):
        Mixture(((Fraction(1), Mixture(((Fraction(1), s),))),))
    Mixture(((Fraction(1, 3), s), (Fraction(2, 3), BlumlingerCombo(DoubleExponential(3)))))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_combo_partials_on_block_set():
    rep = evaluate(BlumlingerCombo(DoubleExponential(4)), blocks_dexp(), Fraction(1, 100))
    got = dict(rep.partials)
    for i in range(2, 5):
        n = 1 << (1 << i)
        assert got[n] == Fraction(n - 1, n)
        assert got[n] == Fraction(dexp_count_enum(2 * n) - dexp_count_enum(n), n)


def test_combo_partials_on_doubled_block_set():
    rep = evaluate(BlumlingerCombo(DoubleExponential(4)), scale(blocks_dexp(), 2), Fraction(1, 100))
    got = dict(rep.partials)
    assert got[256] == Fraction(1, 256)
    assert got[65536] == Fraction(1, 65536)


def test_every_rule_extends_density_on_evens():
    rules = [
        SubsequenceLimit(All(10**4)),
        SubsequenceLimit(Geometric(10, 3, 8)),
        BlumlingerCombo(DoubleExponential(4)),
        Mixture(
            (
                (Fraction(1, 2), SubsequenceLimit(DoubleExponential(4))),
                (Fraction(1, 2), BlumlingerCombo(DoubleExponential(4))),
            )
        ),
    ]
    for mu in rules:
        rep = evaluate(mu, EVENS, Fraction(1, 100))
        assert rep.converged
        assert abs(rep.value - Fraction(1, 2)) <= Fraction(1, 100)


def test_normalization_and_empty_are_exact():
    for mu in [
        SubsequenceLimit(All(1000)),
        BlumlingerCombo(DoubleExponential(4)),
        Mixture(
            (
                (Fraction(1, 4), SubsequenceLimit(DoubleExponential(4))),
                (Fraction(3, 4), BlumlingerCombo(DoubleExponential(3))),
            )
        ),
    ]:
        assert evaluate(mu, Full(), Fraction(1, 1000)).value == 1
        assert evaluate(mu, Empty(), Fraction(1, 1000)).value == 0


def test_oscillating_input_yields_interval_not_value():
    rep = evaluate(SubsequenceLimit(Geometric(16, 4, 8)), blocks_dexp(), Fraction(1, 1000))
    assert not rep.converged
    assert rep.value is None
    assert rep.lo < rep.hi


def test_combo_partials_stay_in_unit_interval():
    for s in (blocks_dexp(), scale(blocks_dexp(), 2), periodic(7, [2, 3]), finite(5, 6)):
        rep = evaluate(BlumlingerCombo(Geometric(1, 3, 12)), s, Fraction(1, 100))
        for _, v in rep.partials:
            assert 0 <= v <= 1


def test_additivity_is_exact_at_identical_points():
    mu = SubsequenceLimit(Explicit((10, 100, 1000)))
    a, b = periodic(4, [0]), periodic(4, [1])
    ra, rb = evaluate(mu, a, Fraction(1)), evaluate(mu, b, Fraction(1))
    rab = evaluate(mu, periodic(4, [0, 1]), Fraction(1))
    for (n, va), (_, vb), (_, vab) in zip(ra.partials, rb.partials, rab.partials):
        assert vab == va + vb


# ---------------------------------------------------------------------------
# image sets
# ---------------------------------------------------------------------------


def test_image_set_closed_forms_and_scans():
    phi = pairing_permutation(ODDS, EVENS)
    img = ImageSet(phi, ODDS)
    assert img.count(10) == 5
    assert img.count(2**20) == EVENS.count(2**20)  # closed form, no scan
    fixed = ImageSet(phi, Empty())
    assert fixed.count(100) == 0

    q = QuarterBlockSwap()
    lower = blocks_explicit([(4, 8), (16, 32), (64, 128), (256, 512)])
    imgq = ImageSet(q, lower)
    for n in (7, 100, 511, 1000):
        assert imgq.count(n) == brute_image_count(q, lower, n)
    # the quarter-swap image count stays closed-form at huge horizons
    assert ImageSet(q, EVENS).count(2**30) == EVENS.count(2**30)


def test_image_max_element_charges_its_members_to_the_meter_first():
    q, base = QuarterBlockSwap(), finite(*range(1, 2001))
    with _metered(1000):
        with pytest.raises(EnumerationBudgetExceeded):
            ImageSet(q, base).max_element()
    with _metered(2000):
        assert ImageSet(q, base).max_element() == max(map(q.apply, range(1, 2001)))


def test_select_on_an_image_of_a_finite_base():
    assert select(ImageSet(Identity(), finite(3)), 1) == 3
    assert select(ImageSet(QuarterBlockSwap(), finite(5, 9)), 2) == 9
    assert ImageSet(QuarterBlockSwap(), finite(5, 9)).max_element() == 9
    assert ImageSet(QuarterBlockSwap(), Empty()).max_element() == 0
    assert ImageSet(QuarterBlockSwap(), EVENS).max_element() is None
    with pytest.raises(IndexBeyondSet):
        select(ImageSet(QuarterBlockSwap(), finite(5, 9)), 3)


def test_image_set_membership():
    q = QuarterBlockSwap()
    img = ImageSet(q, blocks_explicit([(4, 8)]))
    assert {m for m in range(1, 20) if img.contains(m)} == {8, 9, 10, 11}


def test_image_set_scan_path_for_compositions():
    from densitylab.perm import Compose, Inverse

    q = QuarterBlockSwap()
    phi = pairing_permutation(ODDS, EVENS)
    for pi in (Compose(q, phi), Inverse(q), phi):
        base = periodic(3, [0, 2])
        img = ImageSet(pi, base)
        for n in (17, 211, 1024):
            assert img.count(n) == brute_image_count(pi, base, n)


# ---------------------------------------------------------------------------
# axiom checks
# ---------------------------------------------------------------------------


def test_axiom_report_passes_for_standard_rules():
    corpus = closed_form_density_corpus()
    pairs = disjoint_periodic_pairs(5, seed=7)
    for mu in [SubsequenceLimit(All(10**4)), BlumlingerCombo(DoubleExponential(4))]:
        rep = check_axioms(mu, corpus, pairs, Fraction(1, 100))
        assert rep.passed
        assert rep.normalization.deviation == 0
        assert all(r.deviation == 0 for r in rep.additivity)
        assert all(r.status == "pass" for r in rep.extension)


def test_axiom_extension_inconclusive_without_density():
    rep = check_axioms(SubsequenceLimit(All(10**4)), [blocks_dexp()], [], Fraction(1, 1000))
    assert rep.extension[0].status == "inconclusive"
    assert rep.passed  # inconclusive is not a failure


def test_axiom_check_rejects_non_disjoint_pairs():
    with pytest.raises(ValueError):
        check_axioms(
            SubsequenceLimit(All(100)),
            [],
            [(periodic(2, [0]), periodic(4, [0]))],
            Fraction(1, 100),
        )


# ---------------------------------------------------------------------------
# invariance
# ---------------------------------------------------------------------------


def test_invariance_identity_and_pairing():
    mu = BlumlingerCombo(DoubleExponential(4))
    rep = check_invariance(mu, Identity(), [ODDS, blocks_dexp()], Fraction(1, 100))
    assert rep.passed and rep.max_deviation == 0
    rep2 = check_invariance(mu, pairing_permutation(ODDS, EVENS), [ODDS], Fraction(1, 100))
    assert rep2.passed


def test_invariance_violated_by_quarter_swap():
    # the lower quarter-blocks move wholesale above the diagonal, so the
    # combo measure separates the set from its image
    lower = blocks_explicit(
        [(4 **j, 2 * 4**j) for j in range(1, 9)]
    )
    mu = BlumlingerCombo(DoubleExponential(4))
    ra = evaluate(mu, lower, Fraction(1, 100))
    rimg = evaluate(mu, ImageSet(QuarterBlockSwap(), lower), Fraction(1, 100))
    assert abs(ra.partials[-1][1] - rimg.partials[-1][1]) >= Fraction(1, 2)


# ---------------------------------------------------------------------------
# violation certificates
# ---------------------------------------------------------------------------


def test_violation_certificate_for_quarter_swap():
    cert = find_invariance_violation(QuarterBlockSwap())
    assert cert.subsequence.values == (127, 511, 2047)
    assert cert.gap_estimate >= Fraction(49, 100)
    assert cert.verify()
    # peaks sit just before each upper quarter-block starts
    assert all(n in (2 * 4**j - 1 for j in range(1, 6)) for n in cert.subsequence.values)


def test_violation_certificate_profile_is_self_verifying():
    cert = find_invariance_violation(QuarterBlockSwap(), horizon=2000)
    for n, v in cert.profile:
        w = cert.witness_set
        cw = w.count(n)
        img = ImageSet(cert.permutation, w).count(n)
        assert Fraction(cw - img, n) == v


def test_violation_certificate_rejects_tampered_profile():
    cert = find_invariance_violation(QuarterBlockSwap(), horizon=2000)
    assert cert.verify()
    (n, v), *rest = cert.profile
    moved = replace(cert, profile=((n, v + Fraction(1, n)), *rest))
    assert not moved.verify()
    assert not replace(cert, gap_estimate=cert.gap_estimate / 2).verify()


def test_no_violation_for_levy_like_rules():
    for pi in (Identity(), pairing_permutation(ODDS, EVENS)):
        with pytest.raises(NoViolationFound):
            find_invariance_violation(pi)


# ---------------------------------------------------------------------------
# equal-measure test
# ---------------------------------------------------------------------------


def test_equal_measure_odds_evens():
    rep = equal_measure_test(
        ODDS, EVENS, [DoubleExponential(4), Geometric(1, 10, 5)], Fraction(1, 100), horizon=10**4
    )
    assert rep.equivalent_likely
    assert rep.tail_sup_diff <= Fraction(1, 1000)


def test_equal_measure_budget_bounds_the_work_not_the_horizon():
    # two periodic sets are read at a few points per stretch, so a horizon
    # past the budget is no reason to refuse
    far = equal_measure_test(ODDS, EVENS, [], horizon=2**64)
    assert far.grid == "window-extrema-via-pieces"
    assert far.tail_sup_diff == Fraction(1, 2**64 // 10)
    # coprime moduli near 8000 leave a window shorter than twice their lcm,
    # to be read whole: more points than the budget
    with pytest.raises(EnumerationBudgetExceeded):
        equal_measure_test(periodic(7919, [1]), periodic(7907, [1]), [], horizon=10**6, budget=1000)
    # a set with neither an eventual period nor member runs is scanned, and
    # the scan is refused past the budget
    odd = Predicate(rule=lambda k: k % 2 == 1, enumeration_cap=10**4, label="odd")
    with pytest.raises(EnumerationBudgetExceeded):
        equal_measure_test(odd, EVENS, [], horizon=5000, budget=1000)
    assert equal_measure_test(odd, EVENS, [], horizon=5000).grid == "integer-scan"


def test_equal_measure_blocks_vs_empty():
    rep = equal_measure_test(
        blocks_dexp(), Empty(), [DoubleExponential(4)], Fraction(1, 100), horizon=10**4
    )
    assert not rep.equivalent_likely
    # the window [10^3, 10^4] opens right after the block [256, 512)
    assert rep.tail_sup_diff == Fraction(276, 1000)


def test_equal_measure_reflexive_is_exact_zero():
    rep = equal_measure_test(
        blocks_dexp(), blocks_dexp(), [DoubleExponential(4)], Fraction(1, 1000), horizon=10**4
    )
    assert rep.tail_sup_diff == 0
    assert rep.equivalent_likely


_PROFILE_SETS = [
    blocks_dexp(),
    periodic(5, [0, 2]),
    union(scale(blocks_dexp(), 3), periodic(7, [1, 3])),
    union(finite(3, 40, 41), blocks_explicit([(10, 90), (200, 4000)])),
    # against the empty set its difference peaks at a point that the sampled profile of the last
    # sequence skips, and at the last point before the tail of the geometric one
    finite(15013, 59049),
    Empty(),
]
# the last sequence has more points than a profile keeps, so its values are sampled
_PROFILE_SEQS = [DoubleExponential(5), Geometric(3, 3, 20), Explicit(tuple(range(7, 25000, 6)))]


def test_combo_partials_read_off_the_profiles_equal_a_recount():
    for a in _PROFILE_SETS:
        for seq in _PROFILE_SEQS:
            rep = evaluate(BlumlingerCombo(seq), a)
            want = [(n, Fraction(a.count(2 * n) - a.count(n), n)) for n in seq.points()]
            assert list(rep.partials) == want, (a, seq)
            assert [(n, str(v)) for n, v in rep.partials] == [(n, str(v)) for n, v in want]


def test_equal_rows_read_off_the_profiles_equal_a_recount():
    # each set against the next, and the last against itself
    for a, b in zip(_PROFILE_SETS, _PROFILE_SETS[1:] + _PROFILE_SETS[-1:]):
        rep = equal_measure_test(a, b, _PROFILE_SEQS, horizon=2000)
        for seq, row in zip(_PROFILE_SEQS, rep.seq_rows):
            pts = seq.points()
            dev = max(abs(Fraction(a.count(n), n) - Fraction(b.count(n), n)) for n in pts[len(pts) // 2 :])
            ra, rb = (evaluate(SubsequenceLimit(seq), x) for x in (a, b))
            if ra.converged and rb.converged:
                dev = max(dev, abs(ra.value - rb.value))
            assert row.deviation == dev, (a, b, seq)
