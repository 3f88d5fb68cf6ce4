import io
import json
import random
import sys
import threading
import warnings
from bisect import bisect_left, bisect_right
from contextlib import redirect_stdout
from dataclasses import dataclass, replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from densitylab.asymptotics import Explicit, _stat_table, density, statistical_limit
from densitylab.cli import run_command
from densitylab.corpus import disjoint_periodic_pairs, standard_permutation_corpus
from densitylab.errors import CardinalityMismatch, UnknownInfinitude
from densitylab.measure import ViolationCertificate
from densitylab.parser import parse_expression
from densitylab.nset import (
    _LCM_CAP,
    Empty,
    Periodic,
    SymbolicSet,
    _eventual_period,
    blocks_dexp,
    blocks_explicit,
    compl,
    diff,
    finite,
    inter,
    periodic,
    scale,
    union,
)
from densitylab.perm import (
    Classification,
    Compose,
    FiniteTable,
    Identity,
    InterlacedPairing,
    Inverse,
    PermutationRule,
    QuarterBlockSwap,
    Restricted,
    _checked_pieces,
    _defect_counts,
    _image_counts,
    _inverse_of,
    _moved_up,
    classify_tail,
    displacement_classification,
    displacement_profile,
    doubling_checkpoints,
    exceptional_sets,
    levy_defect_profile,
    levy_witness_set,
    pairing_permutation,
    ratio_stat_report,
    restrict_pairing,
    stat_checkpoints,
    van_douwen_ratio_report,
)

from oracles import brute_defect, brute_image_count

ODDS = periodic(2, [1])
EVENS = periodic(2, [0])

_CORPUS = [pi for _, pi in standard_permutation_corpus()]


def corpus_rules():
    return _CORPUS


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_apply_invert_basics():
    assert Identity().apply(7) == 7
    phi = pairing_permutation(ODDS, EVENS)
    assert phi.apply(5) == 6 and phi.apply(6) == 5
    q = QuarterBlockSwap()
    assert q.apply(5) == 9 and q.apply(9) == 5
    assert Compose(q, phi).apply(4) == q.apply(phi.apply(4))
    assert Inverse(q).apply(9) == q.invert(9) == 5


def test_finite_table():
    t = FiniteTable(((1, 5), (5, 1), (2, 3), (3, 2)))
    assert t.apply(1) == 5 and t.apply(5) == 1 and t.apply(4) == 4
    assert t.invert(3) == 2
    with pytest.raises(ValueError):
        FiniteTable(((1, 5), (2, 5)))
    with pytest.raises(ValueError):
        FiniteTable(((1, 5),))


@given(n=st.integers(1, 10**4))
@settings(max_examples=200, deadline=None)
def test_invert_after_apply_is_identity(n):
    for pi in corpus_rules():
        assert pi.invert(pi.apply(n)) == n
        assert pi.apply(pi.invert(n)) == n


def test_bijectivity_on_initial_segment():
    for pi in corpus_rules():
        image = {pi.apply(n) for n in range(1, 1001)}
        assert len(image) == 1000
        # every value <= 1000 has a preimage under the rule
        for m in range(1, 1001):
            assert pi.apply(pi.invert(m)) == m


def _rank_matching(a_elems, b_elems):
    """Brute pairing oracle: the i-th element of A' <-> the i-th of B'."""
    a_elems, b_elems = list(a_elems), list(b_elems)
    a_set, b_set = set(a_elems), set(b_elems)

    def partner(n):
        if n in a_set:
            return b_elems[bisect_left(a_elems, n)]
        if n in b_set:
            return a_elems[bisect_left(b_elems, n)]
        return n

    return partner


def _periodic_members(s, count):
    """The first ``count`` members of a periodic set, period by period."""
    offs = sorted(r or s.modulus for r in s.residues)
    periods = count // len(offs) + 1
    return [base + o for base in range(0, periods * s.modulus, s.modulus) for o in offs][:count]


def test_pairing_matches_rank_matching_oracle():
    horizon = 300_000
    for a, b in disjoint_periodic_pairs(20, seed=4):
        # ranks up to the larger count at the horizon, on both sides
        need = max(a.count(horizon), b.count(horizon))
        oracle = _rank_matching(_periodic_members(a, need), _periodic_members(b, need))
        phi = InterlacedPairing(a, b)
        points = list(range(1, 4097)) + list(range(4097, horizon + 1, 101))
        assert [phi.apply(n) for n in points] == [oracle(n) for n in points], (a, b)


def test_finite_pairing_matches_rank_matching_oracle():
    a, b = finite(1, 2, 3), blocks_explicit([(10, 13)])
    oracle = _rank_matching([1, 2, 3], [10, 11, 12])
    phi = InterlacedPairing(a, b)
    assert [phi.apply(n) for n in range(1, 300_001)] == [oracle(n) for n in range(1, 300_001)]


def test_pairing_with_a_dexp_part_inside_a_periodic_side_matches_rank_matching():
    # inter(blocks(dexp),periodic(2;1)) lies in periodic(2;1), so A is the odd numbers whichever
    # points of the dexp part are in: its eventual period reads that part as either
    a = union(periodic(2, [1]), inter(blocks_dexp(), periodic(2, [1])))
    phi = pairing_permutation(a, periodic(2, [0]))
    oracle = _rank_matching(range(1, 2002, 2), range(2, 2002, 2))
    assert [phi.apply(n) for n in range(1, 2001)] == [oracle(n) for n in range(1, 2001)]
    assert _checked_pieces(phi, [2**64]) is not None


# scale(...) stays a Scaled node, so a pairing with this side reads its rank
# form; its members are those of periodic(8;2,6)
_SCALED_SIDE = scale(periodic(4, [1, 3]), 2)


def test_scaled_side_pairing_matches_rank_matching():
    phi = pairing_permutation(_SCALED_SIDE, periodic(8, [3]))
    oracle = _rank_matching(_periodic_members(periodic(8, [2, 6]), 40), _periodic_members(periodic(8, [3]), 40))
    points = range(1, 121)
    assert [phi.apply(n) for n in points] == [oracle(n) for n in points]


def test_scaled_side_pairing_is_thread_safe():
    a, b = _SCALED_SIDE, periodic(8, [3])
    n_max = 30_000
    reference = InterlacedPairing(a, b)
    serial = [reference.apply(n) for n in range(1, n_max + 1)]
    phi = InterlacedPairing(a, b)
    results = [None] * 4
    start = threading.Barrier(4)

    def worker(i):
        start.wait(timeout=60)
        results[i] = [phi.apply(n) for n in range(1, n_max + 1)]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert results == [serial] * 4


_CLOSED_FORM_PAIRS = [
    (periodic(8, [1, 6]), periodic(8, [3])),
    (periodic(6, [1, 5]), periodic(4, [0])),
    (periodic(3, [1]), periodic(5, [0, 2])),
    (periodic(6, [1, 3]), periodic(6, [3, 5])),
] + disjoint_periodic_pairs(4, seed=6)


def test_closed_form_pairing_matches_rank_matching_past_the_old_cap():
    rng = random.Random(61)
    for a, b in _CLOSED_FORM_PAIRS:
        phi = InterlacedPairing(a, b)
        # past the old cap of 2^16 pairs, on both sides
        top = 2 * (1 << 16) * max(phi.a_only.modulus, phi.b_only.modulus)
        need = max(phi.a_only.count(top), phi.b_only.count(top))
        oracle = _rank_matching(_periodic_members(phi.a_only, need), _periodic_members(phi.b_only, need))
        points = list(range(1, 2001)) + list(range(top - 2000, top + 1)) + rng.sample(range(1, top + 1), 2000)
        assert [phi.apply(n) for n in points] == [oracle(n) for n in points], (a, b)


def test_closed_form_pairing_near_two_to_the_64():
    for a, b in _CLOSED_FORM_PAIRS:
        phi = InterlacedPairing(a, b)
        ao, bo = phi.a_only, phi.b_only
        for n in range(2**64 - 60, 2**64 + 60):
            m = phi.apply(n)
            assert phi.apply(m) == n
            if ao.contains(n):
                assert bo.contains(m) and ao.count(n) == bo.count(m)
            elif bo.contains(n):
                assert ao.contains(m) and bo.count(n) == ao.count(m)
            else:
                assert m == n


def _departs_last(tree):
    """The last point c <= b, ``_eventual_period``'s b, where ``tree`` departs from its tail, or 0,
    by brute force from b down."""
    b, tail = _eventual_period(tree)
    return next((n for n in range(b, 0, -1) if tree.contains(n) != tail.contains(n)), 0)


def _side_kind(tree):
    """The kind of a pairing side, by its tail and the last point c where it departs from it."""
    tail, c = _eventual_period(tree)[1], _departs_last(tree)
    if not tail.residues:
        return "finite"
    if c:
        return "head-plus-tail"
    return "periodic" if isinstance(tree, Periodic) else "pure-periodic-tree"


def _random_pairing_side(rng, size):
    """A random side: periodic, a finite set of ``size`` points, a scaled
    periodic set (a tree with b = 0), or a periodic set with a finite head
    added or taken out."""
    m = rng.choice((2, 3, 4, 5, 6))
    p = periodic(m, sorted(rng.sample(range(m), rng.randrange(1, m))))
    kind = rng.randrange(5)
    if kind == 0:
        return p
    if kind == 1:
        points = finite(*rng.sample(range(1, 300), size))
        return points if size == 0 or rng.random() < 0.7 else blocks_explicit([(40, 40 + size)])
    if kind == 2:
        return scale(p, rng.randrange(2, 4))
    head = finite(*rng.sample(range(1, 200), rng.randrange(1, 7)))
    return union(p, head) if kind == 3 else diff(rng.choice((p, scale(p, 2))), head)


def _brute_members(s, count_at, top):
    """The members of ``s`` in [1, top], read further for an infinite ``s``
    until there are at least ``count_at`` of them."""
    members = [n for n in range(1, top + 1) if s.contains(n)]
    while len(members) < count_at and s.max_element() is None:
        members += [n for n in range(top + 1, 2 * top + 1) if s.contains(n)]
        top *= 2
    return members


def _rank_form_pairings(seed, count):
    """Seeded pairings of ``_random_pairing_side``s, the kinds of side a rank form (a tail and the
    points where a side departs from it) once held; they now read their trees' segments."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        size = rng.randrange(0, 9)
        try:
            out.append(InterlacedPairing(_random_pairing_side(rng, size), _random_pairing_side(rng, size)))
        except (CardinalityMismatch, UnknownInfinitude):
            continue
    return out


def test_rank_form_pairings_match_rank_matching_past_b_and_b_plus_l():
    kinds, with_pieces = set(), 0
    for phi in _rank_form_pairings(83, 60):
        trees = phi.a_only, phi.b_only
        kinds |= {_side_kind(tree) for tree in trees}
        b = max(_eventual_period(tree)[0] for tree in trees)
        l = max(_eventual_period(tree)[1].modulus for tree in trees)
        top = 3 * (b + l) + 20
        need = max(phi.a_only.count(top), phi.b_only.count(top))
        members = [_brute_members(tree, need, top) for tree in (phi.a_only, phi.b_only)]
        oracle = _rank_matching(*members)
        assert [phi.apply(n) for n in range(1, top + 1)] == [oracle(n) for n in range(1, top + 1)], phi
        for side, elems in zip(trees, members):
            assert [side.count(n) for n in range(top + 1)] == [bisect_right(elems, n) for n in range(top + 1)], phi
        pieces = phi.pieces(top)
        if pieces is not None:
            with_pieces += 1
            image = [(k0 + t * p, d + t * q) for k0, p, d, q, terms in pieces for t in range(terms)]
            assert sorted(image) == [(n, oracle(n)) for n in range(1, top + 1)], phi
    assert kinds == {"periodic", "finite", "pure-periodic-tree", "head-plus-tail"}
    assert with_pieces >= 40


# 2000001 is odd, so A' is the odd numbers, but its tree has b = 2000001;
# it never departs from its tail, so c = 0
_FAR_POINT = pairing_permutation(union(periodic(2, [1]), finite(2000001)), periodic(2, [0]))


def test_pairing_with_a_far_finite_point_has_pieces_near_two_to_the_64():
    assert 2000001 + 1 > _LCM_CAP  # b + l
    oracle = _rank_matching(range(1, 3002, 2), range(2, 3002, 2))
    image = [(k0 + t * p, d + t * q) for k0, p, d, q, terms in _FAR_POINT.pieces(3000) for t in range(terms)]
    assert sorted(image) == [(n, oracle(n)) for n in range(1, 3001)]
    assert _checked_pieces(_FAR_POINT, [2**64]) is not None
    # the ranks of the odd and even numbers in [2^64 - 99, 2^64 + 100] agree
    oracle = _rank_matching(range(2**64 - 99, 2**64 + 100, 2), range(2**64 - 98, 2**64 + 101, 2))
    points = range(2**64 - 99, 2**64 + 101)
    assert [_FAR_POINT.apply(n) for n in points] == [oracle(n) for n in points]


# each side is a block of more than 10^6 points, where it departs from its empty tail: past the
# 10^6-point cap of the rank form that sides once had, which the tests' names recall
_OVER_CAP = pairing_permutation(blocks_explicit([(1, 1000002)]), blocks_explicit([(2000001, 3000002)]))


def test_pairing_past_the_rank_form_cap_answers_through_its_trees():
    def oracle(n):
        if n <= 1000001:
            return n + 2000000
        return n - 2000000 if 2000001 <= n <= 3000001 else n

    # one run of 10^6 ranks: a piece each way, and one per stretch of fixed points
    for horizon in (3000, 2**64):
        pieces = _OVER_CAP.pieces(horizon)
        image = [(k0 + t * p, d + t * q) for k0, p, d, q, terms in pieces
                 for t in range(min(terms, max(0, (3000 - k0) // p + 1)))]  # the terms up to 3000
        assert sorted(image) == [(n, oracle(n)) for n in range(1, 3001)], horizon
    assert len(pieces) == 4
    assert _checked_pieces(_OVER_CAP, [2**64]) is not None
    rng = random.Random(97)
    points = [1, 1000001, 1000002, 2000000, 2000001, 3000001, 3000002] + rng.sample(range(1, 3000100), 60)
    assert [_OVER_CAP.apply(n) for n in points] == [oracle(n) for n in points]


def test_pairing_preconditions():
    with pytest.raises(CardinalityMismatch):
        pairing_permutation(finite(1, 2), finite(5))
    with pytest.raises(CardinalityMismatch):
        pairing_permutation(finite(1, 2), EVENS)
    with pytest.raises(UnknownInfinitude):
        pairing_permutation(inter(blocks_dexp(), periodic(3, [1])), EVENS)


def test_pairing_of_equal_sets_is_identity():
    pid = pairing_permutation(ODDS, ODDS)
    assert all(pid.apply(n) == n for n in range(1, 100))


def test_pairing_swaps_ranked_elements():
    phi = pairing_permutation(periodic(3, [1]), periodic(4, [0]))
    # common elements (4, 16, 28, ...) stay fixed; the remainders pair in
    # rank order: A' = {1, 7, 10, ...}, B' = {8, 12, 20, ...}
    assert phi.apply(4) == 4
    assert phi.apply(1) == 8 and phi.apply(8) == 1
    assert phi.apply(7) == 12 and phi.apply(12) == 7
    assert phi.apply(2) == 2


def test_pairing_disjointification():
    # overlapping sets: the common part stays fixed
    a = periodic(6, [1, 3])
    b = periodic(6, [3, 5])
    phi = pairing_permutation(a, b)
    assert phi.a_only == periodic(6, [1])
    assert phi.b_only == periodic(6, [5])
    assert phi.apply(3) == 3 and phi.apply(9) == 9
    assert phi.apply(1) == 5 and phi.apply(5) == 1


def test_pairing_of_unequal_densities_is_still_an_involution():
    phi = pairing_permutation(periodic(2, [1]), periodic(4, [0]))
    assert all(phi.apply(phi.apply(n)) == n for n in range(1, 2000))
    # it moves mass wholesale, so it is decidedly not Levy-like
    prof = levy_defect_profile(phi, doubling_checkpoints(10**5))
    assert prof.classification_hint == Classification.NON_LEVY_LIKELY


# ---------------------------------------------------------------------------
# defect diagnostics
# ---------------------------------------------------------------------------


def test_defect_identity_is_zero():
    prof = levy_defect_profile(Identity(), doubling_checkpoints(10**5))
    assert all(v == 0 for v in prof.defects)
    assert prof.classification_hint == Classification.LEVY_LIKELY


def test_defect_pairing_is_parity_of_n():
    phi = pairing_permutation(ODDS, EVENS)
    prof = levy_defect_profile(phi, Explicit((7, 10, 1001, 10**4)))
    assert list(prof.defects) == [Fraction(1, 7), 0, Fraction(1, 1001), 0]


def test_defect_qswap_peak():
    prof = levy_defect_profile(QuarterBlockSwap(), Explicit((7,)))
    assert prof.defects[0] == Fraction(4, 7)


def test_defect_matches_brute_force():
    for pi in corpus_rules():
        for n in (10, 100, 537, 2048):
            prof = levy_defect_profile(pi, Explicit((n,)))
            assert prof.defects[0] == Fraction(brute_defect(pi, n), n)


def test_downward_defect_equals_upward():
    for pi in corpus_rules():
        up = levy_defect_profile(pi, doubling_checkpoints(10**4))
        down = levy_defect_profile(pi, doubling_checkpoints(10**4), mode="downward")
        assert up.defects == down.defects


def _checkpoint_grids(rng, horizon):
    grids = [Explicit((1,)), Explicit((horizon,)), Explicit(tuple(range(1, horizon + 1)))]
    for _ in range(4):
        grids.append(Explicit(tuple(sorted(rng.sample(range(1, horizon + 1), rng.randrange(1, 12))))))
    grids.append(Explicit((rng.randrange(1, horizon + 1),)))
    # a scan's blocks at their edges: one that holds only 1, one that holds only p + 1, and the horizon
    p = rng.randrange(2, horizon - 1)
    grids.append(Explicit((1, p, p + 1, horizon)))
    return grids


def test_upward_downward_and_brute_defects_agree_on_random_grids():
    rng = random.Random(23)
    pairings = [pairing_permutation(a, b) for a, b in disjoint_periodic_pairs(10, seed=9)]
    rules = corpus_rules() + pairings
    # the same bijections without pieces or sides take the upward scan
    for pi in rules + [Scanned(pi) for pi in rules]:
        for grid in _checkpoint_grids(rng, 300):
            up = levy_defect_profile(pi, grid)
            down = levy_defect_profile(pi, grid, mode="downward")
            brute = tuple(Fraction(brute_defect(pi, n), n) for n in grid.points())
            assert up.defects == down.defects == brute, (pi, grid)


def test_scans_match_brute_force_at_their_block_edges():
    """The scan fallbacks of the displacement, the moved-up count and the violation certificate
    against brute force, on the grids above: their blocks hold only 1, only p + 1, or end at the
    horizon."""
    rng = random.Random(31)
    horizon = 300
    pairings = [pairing_permutation(a, b) for a, b in disjoint_periodic_pairs(4, seed=9)]
    targets = [ODDS, finite(1, 2, 150, 299, 300), blocks_explicit([(4, 8), (30, 70)])]
    for pi in [Scanned(pi) for pi in corpus_rules() + pairings]:
        images = [pi.apply(k) for k in range(1, horizon + 1)]
        up = [k for k, v in enumerate(images, 1) if v > k]
        w = levy_witness_set(pi, 4 * horizon)
        for grid in _checkpoint_grids(rng, horizon):
            pts = grid.points()
            smallest = up[:min(20, bisect_right(up, pts[-1]))]
            assert _moved_up(pi, pts) == (smallest, [bisect_right(up, n) for n in pts]), (pi, pts)
            a = rng.choice(targets)
            want = [(n, Fraction(a.count(n) - brute_image_count(pi, a, n), n)) for n in pts]
            assert displacement_profile(pi, a, grid) == want, (pi, a, pts)
            defects = tuple((n, Fraction(sum(v > n for v in images[:n]), n)) for n in pts)
            gap = min(d for _, d in defects)
            cert = ViolationCertificate(pi, w, grid, gap, defects)
            assert cert.verify(), (pi, pts)
            assert not replace(cert, profile=defects[:-1] + ((pts[-1], defects[-1][1] + 1),)).verify()


def test_exceptional_set_ratios_match_brute_force():
    rng = random.Random(5)
    horizon = 300
    for pi in corpus_rules():
        for eps in (Fraction(1, 2), Fraction(1, 10)):
            for grid in _checkpoint_grids(rng, horizon + 40):
                ex = exceptional_sets(pi, eps, horizon, checkpoints=grid)
                moved = [k for k in range(1, horizon + 1) if abs(pi.apply(k) - k) > eps * k]
                want = tuple(
                    (p, Fraction(sum(1 for k in moved if k <= p), p))
                    for p in grid.points()
                    if p <= horizon
                )
                assert ex.union_ratios == want, (pi, eps, grid)


def test_defect_of_pi_composed_with_inverse_is_zero():
    for pi in corpus_rules():
        prof = levy_defect_profile(Compose(pi, Inverse(pi)), doubling_checkpoints(2000))
        assert all(v == 0 for v in prof.defects)


def test_classification_thresholds():
    q = levy_defect_profile(QuarterBlockSwap(), doubling_checkpoints(10**5))
    assert q.classification_hint == Classification.NON_LEVY_LIKELY
    # short horizons refuse to certify either way for a borderline profile
    short = levy_defect_profile(pairing_permutation(ODDS, EVENS), Explicit((11, 101, 1001)))
    assert short.classification_hint == Classification.INCONCLUSIVE


def test_classify_tail_slack_and_horizon_boundaries():
    # a tail max of exactly 1/100 is Lévy-likely, but only at a horizon of 10^4
    ones = (Fraction(1, 2), Fraction(1, 100), Fraction(1, 100))
    assert classify_tail((10, 100, 10**4), ones) == Classification.LEVY_LIKELY
    assert classify_tail((10, 100, 10**4 - 1), ones) == Classification.INCONCLUSIVE
    over = (Fraction(1, 2), Fraction(1, 100), Fraction(101, 10**4))
    assert classify_tail((10, 100, 10**4), over) == Classification.INCONCLUSIVE


def test_classify_tail_recurrence_boundaries():
    pts = (1, 10, 100, 10**3, 10**4, 10**5)
    tenth = Fraction(1, 10)
    assert classify_tail(pts, (0, 0, 0, tenth, tenth, tenth)) == Classification.NON_LEVY_LIKELY
    assert classify_tail(pts, (0, 0, 0, 0, tenth, tenth)) == Classification.INCONCLUSIVE
    below = tenth - Fraction(1, 10**6)
    assert classify_tail(pts, (0, 0, 0, below, tenth, tenth)) == Classification.INCONCLUSIVE


def test_classify_tail_reads_the_last_ceil_half_of_the_points():
    pts = (1, 10, 100, 10**3, 10**4)
    # with 5 points the tail is the last 3: a spike at the 2nd point is
    # outside it, and one at the 3rd inside
    assert classify_tail(pts, (0, 1, 0, 0, 0)) == Classification.LEVY_LIKELY
    assert classify_tail(pts, (0, 0, 1, 0, 0)) == Classification.INCONCLUSIVE
    assert classify_tail(pts, (1, 1, 1, 0, 0)) == Classification.INCONCLUSIVE
    assert classify_tail(pts, (0, 1, 1, 1, 1)) == Classification.NON_LEVY_LIKELY


# ---------------------------------------------------------------------------
# displacement
# ---------------------------------------------------------------------------


def test_displacement_full_set_is_zero():
    for pi in corpus_rules():
        prof = displacement_profile(pi, periodic(1, [0]), Explicit((5, 50, 500)))
        assert all(v == 0 for _, v in prof)


def test_displacement_qswap_lower_blocks():
    lower = blocks_explicit([(4, 8), (16, 32)])
    prof = displacement_profile(QuarterBlockSwap(), lower, Explicit((7,)))
    assert prof[0] == (7, Fraction(4, 7))
    a7 = lower.count(7)
    img7 = brute_image_count(QuarterBlockSwap(), lower, 7)
    assert prof[0][1] == Fraction(a7 - img7, 7)


def test_displacement_pairing_odds():
    phi = pairing_permutation(ODDS, EVENS)
    prof = displacement_profile(phi, ODDS, Explicit((10,)))
    assert prof[0] == (10, Fraction(0))


def test_pairing_defect_equals_count_difference():
    phi = pairing_permutation(periodic(3, [1]), periodic(5, [0]))
    for n in (10, 100, 999):
        d = brute_defect(phi, n)
        diff = abs(phi.a_only.count(n) - phi.b_only.count(n))
        assert d == diff


def test_three_characterizations_agree_on_corpus():
    # agreement holds at the default working horizon; shorter horizons may
    # legitimately downgrade a verdict to inconclusive
    horizon = 10**5
    grid = doubling_checkpoints(horizon)
    eps = [Fraction(1, 10), Fraction(1, 100)]
    for name, pi in standard_permutation_corpus():
        by_defect = levy_defect_profile(pi, grid).classification_hint
        by_stat = ratio_stat_report(pi, eps, stat_checkpoints(horizon)).classification
        sets = [levy_witness_set(pi, cap=4 * horizon), ODDS, blocks_dexp()]
        by_displacement = displacement_classification(pi, sets, grid)
        assert by_defect == by_stat == by_displacement, (
            name,
            by_defect,
            by_stat,
            by_displacement,
        )


# ---------------------------------------------------------------------------
# statistical-ratio diagnostics
# ---------------------------------------------------------------------------


def test_ratio_stat_identity():
    rep = ratio_stat_report(Identity(), [Fraction(1, 10)], stat_checkpoints(10**4))
    assert rep.classification == Classification.LEVY_LIKELY
    assert all(v == 0 for row in rep.stat.rows for _, v in row.densities)


def test_ratio_stat_qswap_exceptions():
    rep = ratio_stat_report(
        QuarterBlockSwap(), [Fraction(1, 5)], Explicit((127,))
    )
    # the moved blocks push pi(k) >= 1.2k throughout most of [64, 128)
    count = sum(
        1
        for k in range(1, 128)
        if abs(Fraction(QuarterBlockSwap().apply(k), k) - 1) >= Fraction(1, 5)
    )
    assert rep.stat.rows[0].densities[0][1] == Fraction(count, 127)
    assert count >= 64 - 22  # block [64, 128) contributes at least its bulk


def test_ratio_stat_pairing_scales_like_two_over_eps():
    phi = pairing_permutation(ODDS, EVENS)
    eps = Fraction(1, 100)
    rep = ratio_stat_report(phi, [eps], Explicit((10**4,)))
    # |phi(k)/k - 1| = 1/k, so exceptions stop at k = 1/eps
    assert rep.stat.rows[0].densities[0][1] == Fraction(100, 10**4)


def _fraction_stat_densities(x, target, eps_list, pts):
    """Reference exception densities, one Fraction per term."""
    counts = [0] * len(eps_list)
    rows = [[] for _ in eps_list]
    for k in range(1, pts[-1] + 1):
        dev = abs(Fraction(x(k)) - target)
        for j, e in enumerate(eps_list):
            counts[j] += dev >= e
        if k in pts:
            for j in range(len(eps_list)):
                rows[j].append((k, Fraction(counts[j], k)))
    return rows


def test_statistical_limit_matches_fraction_reference_on_ties():
    rng = random.Random(7)
    q = QuarterBlockSwap()
    # qswap: |q(k)/k - 1| is exactly 1 at k = 4^j and exactly 1/2 at k = 2*4^j
    ties = [Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(3, 2)]
    values = [Fraction(rng.randrange(-6, 7), rng.randrange(1, 5)) for _ in range(5000)]
    cases = [
        (lambda k: Fraction(q.apply(k), k), Fraction(1)),
        (lambda k: values[k - 1], Fraction(1, 2)),
        (lambda k: values[k - 1].numerator // values[k - 1].denominator, Fraction(-1)),
        (lambda k: float(values[k - 1]), Fraction(1, 4)),
    ]
    for x, target in cases:
        for _ in range(3):
            eps = sorted(rng.sample(ties, 2))
            pts = sorted(rng.sample(range(1, 5001), 4))
            got = statistical_limit(x, target, eps, Explicit(tuple(pts)))
            want = _fraction_stat_densities(x, target, eps, pts)
            assert [list(row.densities) for row in got.rows] == want
    for eps in (Fraction(1), Fraction(1, 2)):
        pts = (4**5, 2 * 4**5, 3 * 4**5, 4**6)
        rep = ratio_stat_report(q, [eps], Explicit(pts))
        want = _fraction_stat_densities(lambda k: Fraction(q.apply(k), k), 1, [eps], pts)
        assert list(rep.stat.rows[0].densities) == want[0]


def test_budget_below_one_is_rejected():
    with pytest.raises(ValueError):
        ODDS.count(10, budget=0)
    with pytest.raises(ValueError):
        levy_defect_profile(QuarterBlockSwap(), Explicit((16,)), budget=0)
    with pytest.raises(ValueError):
        density(ODDS, 100, 10, budget=0)
    # None still means the default budget
    assert ODDS.count(10, budget=None) == 5


# ---------------------------------------------------------------------------
# exceptional sets
# ---------------------------------------------------------------------------


def test_exceptional_sets_identity_empty():
    ex = exceptional_sets(Identity(), Fraction(1, 2), 100)
    assert ex.above.elements == () and ex.below.elements == ()


def test_exceptional_sets_match_brute_force():
    for pi in corpus_rules():
        for eps in (Fraction(1, 2), Fraction(3, 10)):
            ex = exceptional_sets(pi, eps, 200)
            above = tuple(
                k for k in range(1, 201) if pi.apply(k) - k > eps * k
            )
            below = tuple(
                k for k in range(1, 201) if k - pi.apply(k) > eps * k
            )
            assert ex.above.elements == above
            assert ex.below.elements == below


def test_exceptional_sets_qswap_contains_first_block():
    ex = exceptional_sets(QuarterBlockSwap(), Fraction(1, 2), 100)
    assert set((4, 5, 6, 7)) <= set(ex.above.elements)
    # at eps below 1/2 the down-shifted block shows up too
    ex2 = exceptional_sets(QuarterBlockSwap(), Fraction(3, 10), 100)
    assert set((8, 9, 10, 11)) <= set(ex2.below.elements)


def test_exceptional_sets_pairing():
    ex = exceptional_sets(pairing_permutation(ODDS, EVENS), Fraction(1, 2), 100)
    assert ex.above.elements == (1,)
    assert ex.below.elements == ()


# ---------------------------------------------------------------------------
# van Douwen ratio check
# ---------------------------------------------------------------------------


def test_van_douwen_reports():
    assert van_douwen_ratio_report(Identity(), 10**4, Fraction(1, 100)).sup_deviation == 0
    phi = pairing_permutation(ODDS, EVENS)
    rep = van_douwen_ratio_report(phi, 10**4, Fraction(1, 100))
    assert rep.holds and rep.sup_deviation <= Fraction(1, 1000)
    q = van_douwen_ratio_report(QuarterBlockSwap(), 10**4, Fraction(1, 100))
    assert not q.holds and q.sup_deviation >= Fraction(1, 2)


# ---------------------------------------------------------------------------
# witness sets and restricted pairings
# ---------------------------------------------------------------------------


def test_witness_sets():
    phi = pairing_permutation(ODDS, EVENS)
    w = levy_witness_set(phi, 1000)
    assert [k for k in range(1, 12) if w.contains(k)] == [1, 3, 5, 7, 9, 11]
    wq = levy_witness_set(QuarterBlockSwap(), 1000)
    assert [k for k in range(1, 20) if wq.contains(k)] == [4, 5, 6, 7, 16, 17, 18, 19]
    wid = levy_witness_set(Identity(), 500)
    assert wid.count(500) == 0


def test_restrict_pairing_single_point():
    phi = pairing_permutation(ODDS, EVENS)
    psi = restrict_pairing(phi, finite(1), horizon=1000)
    assert psi.apply(1) == 1 and psi.apply(2) == 2
    for k in range(2, 300):
        assert psi.apply(2 * k - 1) == 2 * k
        assert psi.apply(2 * k) == 2 * k - 1
    # still a bijection / involution
    assert all(psi.apply(psi.apply(n)) == n for n in range(1, 500))


def test_restrict_pairing_empty_behaves_as_base():
    phi = pairing_permutation(ODDS, EVENS)
    psi = restrict_pairing(phi, Empty())
    assert all(psi.apply(n) == phi.apply(n) for n in range(1, 500))


def test_restrict_pairing_ratio_near_one():
    phi = pairing_permutation(ODDS, EVENS)
    psi = restrict_pairing(phi, finite(1), horizon=10**4)
    rep = van_douwen_ratio_report(psi, 10**4, Fraction(1, 1000))
    assert rep.holds


def test_restrict_pairing_warns_on_dense_exceptional_set():
    phi = pairing_permutation(ODDS, EVENS)
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        psi = restrict_pairing(phi, EVENS, horizon=1000)
    assert rec and "counting ratio" in str(rec[0].message)
    # the orbit of the evens under this pairing is everything, so the
    # restriction degenerates to the identity but stays a bijection
    assert all(psi.apply(n) == n for n in range(1, 500))


def test_restricted_maps_remaining_a_part_onto_remaining_b_part():
    phi = pairing_permutation(ODDS, EVENS)
    f = finite(1, 7)
    psi = restrict_pairing(phi, f, horizon=1000)
    excluded = {1, 2, 7, 8}
    for n in range(1, 300):
        if n in excluded:
            assert psi.apply(n) == n
        else:
            assert psi.apply(n) == phi.apply(n)


# ---------------------------------------------------------------------------
# affine pieces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Scanned(PermutationRule):
    """The same bijection with no pieces, so every diagnostic scans."""

    inner: PermutationRule

    def apply(self, n):
        return self.inner.apply(n)

    def invert(self, m):
        return self.inner.invert(m)

    def to_expr(self):
        return self.inner.to_expr()


# mixed moduli (6 and 4, 3 and 5) and unequal densities
_MIXED_PAIRINGS = [
    pairing_permutation(periodic(6, [1, 5]), periodic(4, [0])),
    pairing_permutation(periodic(3, [1]), periodic(5, [0, 2])),
    pairing_permutation(periodic(2, [1]), periodic(4, [0])),
]
# sides with a head below b, a finite side, a side that stays a tree, and a
# finite side with a part that has no eventual period (blocks(dexp))
_RANK_FORM_PAIRINGS = [
    pairing_permutation(scale(periodic(4, [1, 3]), 2), periodic(8, [3])),
    pairing_permutation(union(periodic(2, [1]), finite(4)), periodic(2, [0])),
    pairing_permutation(diff(periodic(3, [1]), finite(4, 7)), periodic(3, [2])),
    pairing_permutation(finite(1, 2, 3), blocks_explicit([(10, 13)])),
    pairing_permutation(inter(blocks_explicit([(4, 8)]), blocks_dexp()), finite(1, 2, 3, 100)),
]
_PIECE_RULES = (
    _CORPUS
    + [FiniteTable(((1, 2), (2, 3), (3, 1)))]
    + _MIXED_PAIRINGS
    + _RANK_FORM_PAIRINGS
    + [pairing_permutation(a, b) for a, b in disjoint_periodic_pairs(6, seed=3)]
)


def _random_rule(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(_PIECE_RULES)
    if rng.random() < 0.3:
        return Inverse(_random_rule(rng, depth - 1))
    return Compose(_random_rule(rng, depth - 1), _random_rule(rng, depth - 1))


def test_pieces_partition_the_horizon_and_agree_with_apply():
    rng = random.Random(41)
    cases = [(pi, n) for pi in _PIECE_RULES for n in (1, 2, 3, 4, 5, 17, 64, 3000)]
    cases += [(_random_rule(rng, 3), rng.choice((1, 2, rng.randrange(1, 3001)))) for _ in range(300)]
    assert all(pi.pieces(3000) is not None for pi in _PIECE_RULES)
    with_pieces = 0
    for pi, n in cases:
        pieces = pi.pieces(n)
        if pieces is None:  # more pieces than the horizon: the scan is cheaper
            continue
        with_pieces += 1
        image = {}
        for k0, p, d, q, terms in pieces:
            assert terms >= 1 and p >= 1 and q >= 1
            assert terms > 1 or p == q == 1
            for t in range(terms):
                assert k0 + t * p not in image, (pi, n)
                image[k0 + t * p] = d + t * q
        assert sorted(image) == list(range(1, n + 1)), (pi, n)
        assert all(pi.apply(k) == v for k, v in image.items()), (pi, n)
    assert with_pieces >= 150


def test_rules_without_affine_structure_have_no_pieces():
    phi = pairing_permutation(ODDS, EVENS)
    assert restrict_pairing(phi, periodic(1000003, [1])).pieces(100) is None  # F is wider than the cap: opaque
    assert Compose(QuarterBlockSwap(), Scanned(phi)).pieces(100) is None
    assert Inverse(Scanned(phi)).pieces(100) is None


def _random_rules_with_pieces(rng, count):
    rules = []
    while len(rules) < count:
        pi = _random_rule(rng, 2)
        if pi.pieces(3000) is not None:
            rules.append(pi)
    return rules


def _piece_grids(rng, pi, horizon):
    """Up to four random grids on which ``pi`` takes the piece path."""
    grids = []
    for _ in range(100):
        pts = tuple(sorted(rng.sample(range(1, horizon + 1), rng.randrange(1, 8))))
        if _checked_pieces(pi, pts) is not None:
            grids.append(Explicit(pts))
            if len(grids) == 4:
                break
    assert grids, pi
    return grids


def test_piece_defects_match_the_downward_scan():
    rng = random.Random(43)
    for pi in _PIECE_RULES + _random_rules_with_pieces(rng, 20):
        for grid in _piece_grids(rng, pi, 3000):
            up = levy_defect_profile(pi, grid)
            assert up.defects == levy_defect_profile(pi, grid, mode="downward").defects, (pi, grid)


def test_piece_ratio_tables_match_the_scan_on_exact_ties():
    rng = random.Random(47)
    # pair(odds,evens) has |phi(k)/k - 1| = 1/k, which ties 1/7 at k = 7;
    # qswap ties 1 and 1/2 at 4^j and 2*4^j
    ties = [Fraction(1, 7), Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(1, 16)]
    for pi in _PIECE_RULES + _random_rules_with_pieces(rng, 20):
        for grid in _piece_grids(rng, pi, 3000):
            eps = rng.sample(ties, 2)
            got = ratio_stat_report(pi, eps, grid).stat
            want = _stat_table(lambda k: (pi.apply(k), k), 1, eps, grid, got.slack)
            assert got == want, (pi, grid, eps)


def test_piece_displacement_matches_the_scan():
    rng = random.Random(53)
    # the inverses of these have only pieces of step 1, which count any set
    unit_steps = [QuarterBlockSwap(), Identity(), FiniteTable(((1, 5), (5, 1), (2, 3), (3, 2))),
                  Compose(QuarterBlockSwap(), Inverse(FiniteTable(((1, 2), (2, 3), (3, 1)))))]
    # _PIECE_RULES also has inverses with pieces of step q > 1, whose values d, d + q, ... are
    # counted in A ∩ periodic(q; d mod q), for any target, dexp included
    targets = [
        scale(periodic(3, [1, 2]), 2),
        compl(periodic(8, [0])),
        compl(finite(2, 3, 40)),
        finite(1, 6, 7, 100, 2999),
        blocks_explicit([(4, 8), (30, 70), (500, 900)]),
        union(finite(5, 9, 1001), periodic(4, [1])),
        blocks_dexp(),
        scale(blocks_dexp(), 3),
    ]
    cases = [(pi, blocks_dexp()) for pi in unit_steps]
    cases += [(pi, a) for pi in _PIECE_RULES for a in targets]
    taken = 0
    for pi, a in cases:
        for grid in _piece_grids(rng, pi, 3000):
            got = displacement_profile(pi, a, grid)
            assert got == displacement_profile(Scanned(pi), a, grid), (pi, a, grid)
            taken += _image_counts(pi, a, grid.points()) is not None
    assert taken >= len(cases) * 3


def test_piece_witness_matches_the_predicate_scan():
    rng = random.Random(59)
    for pi in _PIECE_RULES + _random_rules_with_pieces(rng, 20):
        for grid in _piece_grids(rng, pi, 3000):
            pts = grid.points()
            w = levy_witness_set(pi, pts[-1])
            members = [k for k in range(1, pts[-1] + 1) if w.contains(k)]
            want = (members[:20], [sum(1 for k in members if k <= n) for n in pts])
            assert _moved_up(pi, pts) == _moved_up(Scanned(pi), pts) == want, (pi, grid)


def test_a_tampered_piece_fails_its_check(monkeypatch):
    honest = QuarterBlockSwap.pieces

    def tampered(self, horizon):
        pieces = honest(self, horizon)
        k0, p, d, q, terms = pieces[2]
        pieces[2] = (k0, p, d, q + 1, terms)  # right at t = 0, wrong from t = 1
        return pieces

    monkeypatch.setattr(QuarterBlockSwap, "pieces", tampered)
    q = QuarterBlockSwap()
    grid = doubling_checkpoints(4096)
    with pytest.raises(AssertionError):
        levy_defect_profile(q, grid)
    with pytest.raises(AssertionError):
        ratio_stat_report(q, [Fraction(1, 10)], grid)
    with pytest.raises(AssertionError):
        displacement_profile(q, ODDS, grid)
    with pytest.raises(AssertionError):
        _moved_up(q, grid.points())


_RESTRICTION_BASES = [pairing_permutation(ODDS, EVENS)] + _MIXED_PAIRINGS
_RESTRICTION_BASES += [pairing_permutation(a, b) for a, b in disjoint_periodic_pairs(8, seed=67)]


def _restrictions(rng):
    """Seeded periodic pairings restricted by random finite sets F, some of
    whose points are the first or last terms of the base's pieces on
    [1, 3000]."""
    horizon = 3000
    rules = []
    for phi in _RESTRICTION_BASES:
        ends = sorted({k0 + t * p for k0, p, _, _, terms in phi.pieces(horizon) for t in (0, terms - 1)})
        f = rng.sample(range(1, horizon + 40), rng.randrange(0, 5)) + rng.sample(ends, 3)
        psi = Restricted(phi, finite(*sorted(set(f))))
        rules += [psi, Inverse(psi), Compose(QuarterBlockSwap(), psi)]
    return rules


def test_restricted_pieces_partition_the_horizon_and_fix_the_orbit():
    rng = random.Random(71)
    rules = _restrictions(rng)[::3]
    cut = 0
    for horizon in (1, 2, 7, 40, 3000):
        for psi in rules:
            pieces = psi.pieces(horizon)
            if pieces is None:  # cutting would cost more than a scan
                assert horizon < 3000
                continue
            cut += 1
            image = {}
            for k0, p, d, q, terms in pieces:
                assert terms >= 1 and p >= 1 and q >= 1 and (terms > 1 or p == q == 1)
                for t in range(terms):
                    assert k0 + t * p not in image, (psi, horizon)
                    image[k0 + t * p] = d + t * q
            assert sorted(image) == list(range(1, horizon + 1)), (psi, horizon)
            assert all(psi.apply(k) == v for k, v in image.items()), (psi, horizon)
            moved = {k for k in range(1, horizon + 1) if psi.base.apply(k) != k}
            # the orbit of the class docstring: F' = A' ∩ (F ∪ φF) and E = F' ∪ φF', φ an involution
            phi, f, a = psi.base.apply, psi.exceptional.contains, psi.base.a_only.contains

            def in_f1(k):
                return a(k) and (f(k) or f(phi(k)))

            assert {k for k in moved if image[k] == k} == {k for k in moved if in_f1(k) or in_f1(phi(k))}
    assert cut > len(rules)


def test_restricted_piece_diagnostics_match_the_scan():
    rng = random.Random(73)
    targets = [scale(periodic(3, [1, 2]), 2), finite(1, 6, 7, 100, 2999), union(finite(5, 9, 1001), periodic(4, [1]))]
    taken = 0
    for pi in _restrictions(rng):
        assert pi.pieces(3000) is not None, pi
        for grid in _piece_grids(rng, pi, 3000)[:2]:
            pts = grid.points()
            assert levy_defect_profile(pi, grid).defects == tuple(Fraction(brute_defect(pi, n), n) for n in pts), pi
            eps = rng.sample([Fraction(1, 7), Fraction(1), Fraction(1, 2), Fraction(1, 3)], 2)
            got = ratio_stat_report(pi, eps, grid).stat
            assert got == _stat_table(lambda k: (pi.apply(k), k), 1, eps, grid, got.slack), (pi, grid, eps)
            a = rng.choice(targets)
            want = [brute_image_count(pi, a, n) for n in pts]
            assert _image_counts(pi, a, pts) == want, (pi, a, grid)
            taken += 1
            assert displacement_profile(pi, a, grid) == [(n, Fraction(a.count(n) - c, n)) for n, c in zip(pts, want)]
    assert taken >= 50


def test_a_tampered_restricted_piece_fails_its_check(monkeypatch):
    honest = Restricted.pieces
    psi = Restricted(pairing_permutation(ODDS, EVENS), finite(3, 5))
    assert (3, 2, 3, 2, 2) in honest(psi, 1000) and (7, 2, 8, 2, 497) in honest(psi, 1000)
    for wrong, right in (((3, 2, 4, 2, 2), (3, 2, 3, 2, 2)), ((7, 2, 6, 2, 497), (7, 2, 8, 2, 497))):
        monkeypatch.setattr(Restricted, "pieces", lambda self, h, w=wrong, r=right: [
            w if pc == r else pc for pc in honest(self, h)])
        with pytest.raises(AssertionError):
            _checked_pieces(psi, [10, 1000])


def test_a_pairing_piece_wrong_only_in_its_mirror_direction_fails_its_check(monkeypatch):
    """A pairing's check skips the point v -> k of a piece once k -> v has passed, since for an
    involution the two points read the same two facts; a mirror piece that claims anything else
    is still read, and fails."""
    honest = InterlacedPairing.pieces
    phi = pairing_permutation(ODDS, EVENS)
    grid = doubling_checkpoints(1000)
    # the odds map up and the evens map back: the second piece is the mirror of the first
    assert honest(phi, 1000) == [(1, 2, 2, 2, 500), (2, 2, 1, 2, 500)]
    for wrong in ((2, 2, 1, 3, 500), (2, 2, 3, 2, 500)):  # wrong from t = 1, and at t = 0
        monkeypatch.setattr(InterlacedPairing, "pieces", lambda self, h, w=wrong: [honest(self, h)[0], w])
        with pytest.raises(AssertionError):
            _checked_pieces(phi, grid.points())
        with pytest.raises(AssertionError):
            ratio_stat_report(phi, [Fraction(1, 10)], grid)
        with pytest.raises(AssertionError):
            _moved_up(Inverse(phi), grid.points())
    # a rule that is not an involution reads 2 -> 1 although 1 -> 2 has passed: π(2) is 3
    cycle = FiniteTable(((1, 2), (2, 3), (3, 1)))
    assert FiniteTable.pieces(cycle, 1000)[:2] == [(1, 1, 2, 1, 1), (2, 1, 3, 1, 1)]
    claimed = [(1, 1, 2, 1, 1), (2, 1, 1, 1, 1), (3, 1, 1, 1, 1)]
    monkeypatch.setattr(FiniteTable, "pieces", lambda self, h: claimed + [(4, 1, 4, 1, h - 3)])
    with pytest.raises(AssertionError):
        _checked_pieces(cycle, grid.points())


def test_an_involution_check_reads_each_fact_once(monkeypatch):
    """On an involution, π(x) is read once for each x that the points of the pieces at t = 0 and
    t = 1 name, as a k or as a v; a fixed point is read twice, by ``apply`` and by ``invert``,
    so that both stay checked.  A rule that is not an involution reads every point both ways."""
    wide = pairing_permutation(
        periodic(32, [1, 2, 4, 9, 15, 21, 29]), periodic(32, [5, 8, 11, 14, 16, 19, 26, 27, 28]))
    rules = [Identity(), QuarterBlockSwap(), wide, Restricted(pairing_permutation(ODDS, EVENS), finite(3, 5))]
    rules += [FiniteTable(((1, 2), (2, 3), (3, 1)))]
    pts = doubling_checkpoints(16384).points()
    for pi in rules:
        points = [pt for k0, p, d, q, terms in pi.pieces(pts[-1]) for pt in ((k0, d), (k0 + p, d + q))[:terms]]
        named = {x for pt in points for x in pt}
        fixed = {k for k, v in points if k == v}
        reads = []
        cls = type(pi)
        for name in ("apply", "invert"):
            honest = getattr(cls, name)
            monkeypatch.setattr(cls, name, lambda self, x, f=honest, name=name: reads.append((name, x)) or f(self, x))
        assert _checked_pieces(pi, pts) is not None
        monkeypatch.undo()
        by_method = {name: [x for n, x in reads if n == name] for name in ("apply", "invert")}
        assert by_method["apply"] and by_method["invert"], pi  # the traced counters of both stay above 0
        if _inverse_of(pi) is not pi:
            assert sorted(by_method["apply"]) == sorted(k for k, _ in points), pi
            assert sorted(by_method["invert"]) == sorted(v for _, v in points), pi
            continue
        assert sorted(x for _, x in reads if x not in fixed) == sorted(named - fixed), pi
        assert sorted(x for _, x in reads if x in fixed) == sorted(2 * list(fixed)), pi
        if named - fixed:  # fewer reads than two per point, where points have mirrors
            assert len(reads) < 2 * len(points), pi


# infinite F: periodic with a short and a long period, periodic with finite points added or
# taken away, and with a dexp part, whose segments grow without end
_INFINITE_F = [
    periodic(5, [1]),
    periodic(1000, [1]),
    union(finite(7, 40, 41), periodic(9, [2])),
    diff(periodic(4, [1, 2]), finite(5, 6, 9)),
    inter(blocks_dexp(), periodic(3, [1])),
]


def test_restrictions_by_infinite_sets_match_the_rule_and_the_scans():
    rng = random.Random(97)
    headed = pairing_permutation(union(blocks_explicit([(1, 30)]), periodic(3, [1])), periodic(3, [2]))
    rules = [Restricted(phi, f) for phi in _RESTRICTION_BASES + [headed] for f in _INFINITE_F]
    built = {}
    for psi in rules:
        phi, f = psi.base.apply, psi.exceptional.contains
        for pi in (psi, Inverse(psi), Compose(QuarterBlockSwap(), psi)):
            for horizon in (1, 7, 40, 3000):
                pieces = pi.pieces(horizon)
                if pieces is None:  # they could number more than the horizon
                    continue
                built[pi, horizon] = pieces
                image = {}
                for k0, p, d, q, terms in pieces:
                    assert terms >= 1 and p >= 1 and q >= 1 and (terms > 1 or p == q == 1)
                    for t in range(terms):
                        assert k0 + t * p not in image, (pi, horizon)
                        image[k0 + t * p] = d + t * q
                assert sorted(image) == list(range(1, horizon + 1)), (pi, horizon)
                assert all(pi.apply(k) == v for k, v in image.items()), (pi, horizon)
                if pi is psi:  # E: the k that φ moves with k or φ(k) in F
                    assert all((v == k) == (phi(k) == k or f(k) or f(phi(k))) for k, v in image.items())
    # every F of period at most 9 has pieces at 3000; periodic(1000;1) on odds and evens has one
    # per class of t mod 500 on each of the two moved pieces
    assert all((psi, 3000) in built for psi in rules if psi.exceptional.to_expr() != "periodic(1000;1)")
    assert len(built[Restricted(_RESTRICTION_BASES[0], periodic(1000, [1])), 3000]) == 1000
    assert sum(h < 3000 for _, h in built) >= 50

    targets = [scale(periodic(3, [1, 2]), 2), finite(1, 6, 7, 100, 2999), union(finite(5, 9, 1001), periodic(4, [1]))]
    taken = 0
    for psi in rules:
        if (psi, 3000) not in built:
            continue
        for grid in _piece_grids(rng, psi, 3000)[:2]:
            pts = grid.points()
            defects = levy_defect_profile(psi, grid).defects
            assert defects == levy_defect_profile(psi, grid, mode="downward").defects, (psi, grid)
            assert defects == tuple(Fraction(brute_defect(psi, n), n) for n in pts), (psi, grid)
            eps = rng.sample([Fraction(1, 7), Fraction(1), Fraction(1, 2), Fraction(1, 3)], 2)
            got = ratio_stat_report(psi, eps, grid).stat
            assert got == _stat_table(lambda k: (psi.apply(k), k), 1, eps, grid, got.slack), (psi, grid, eps)
            a = rng.choice(targets)
            assert _image_counts(psi, a, pts) == [brute_image_count(psi, a, n) for n in pts], (psi, a)
            assert _moved_up(psi, pts) == _moved_up(Scanned(psi), pts), (psi, grid)
            taken += 1
    assert taken >= 100

    # at 2^64: φ moves odd k up to k + 1, and E = {k : k or its partner is 1 mod 5}
    expr = "restrict(pair(periodic(2;1),periodic(2;0)),periodic(5;1))"
    witness = _far(["witness", expr])
    assert witness["first_elements"] == [k for k in range(1, 70, 2) if k % 5 in (2, 3, 4)][:20]
    for e in witness["ratio_profile"]:
        n = e["n"]
        count = 3 * (n // 10) + sum(r <= n % 10 for r in (3, 7, 9))
        assert Fraction(e["value"]["num"], e["value"]["den"]) == Fraction(count, n)
    assert all(e["value"]["num"] == 0 for e in _far(["levy", expr])["defects"])


def _boundary_grids(rng, pi, top, count):
    """Up to ``count`` grids ending at ``top`` on which ``pi`` takes the piece path.  Their other
    points are drawn from the first and last terms of every piece and of its image, each ±1, and a
    point below every k0: where a prefix count starts, stops or is cut short."""
    pieces = pi.pieces(top)
    near = set()
    for k0, p, d, q, terms in pieces:
        for x in (k0, k0 + (terms - 1) * p, d, d + (terms - 1) * q):
            near.update((x - 1, x, x + 1))
        near.add(rng.randrange(1, k0 + 1))
    near = sorted(x for x in near if 1 <= x < top)
    rng.shuffle(near)
    size = top // len(pieces) - 1  # the most points the piece path takes besides top
    grids = [tuple(sorted(near[i:i + size])) + (top,) for i in range(0, len(near), size)][:count]
    assert all(_checked_pieces(pi, pts) is not None for pts in grids), pi
    return grids


def test_piece_readers_at_the_ends_of_every_piece():
    """The four piece readers against scans, at the points where a prefix count of a piece
    changes: its first and last terms and those of its image, ±1."""
    rng = random.Random(79)
    top = 3000
    eps = [Fraction(1, 7), Fraction(1, 2), Fraction(1), Fraction(1, 16)]
    targets = [scale(periodic(3, [1, 2]), 2), finite(1, 6, 7, 100, 2999), union(finite(5, 9, 1001), periodic(4, [1]))]
    rules = _PIECE_RULES + rng.sample(_restrictions(rng), 12) + _random_rules_with_pieces(rng, 4)
    taken = total = 0
    for pi in rules:
        grids = _boundary_grids(rng, pi, top, 4)
        total += len(grids)
        every = Explicit(tuple(sorted({n for pts in grids for n in pts})))
        # one scan each over every grid point
        down = dict(zip(every.points(), levy_defect_profile(pi, every, mode="downward").defects))
        smallest, up = _moved_up(Scanned(pi), every.points())
        up = dict(zip(every.points(), up))
        table = _stat_table(lambda k: (pi.apply(k), k), 1, eps, every, Fraction(1, 100))
        ratios = [dict(row.densities) for row in table.rows]
        a = rng.choice(targets)
        seen, image = 0, {}
        for m in range(1, top + 1):
            seen += a.contains(pi.invert(m))
            image[m] = seen
        assert image[top] == brute_image_count(pi, a, top)
        for pts in grids:
            assert levy_defect_profile(pi, Explicit(pts)).defects == tuple(down[n] for n in pts), (pi, pts)
            assert _moved_up(pi, pts) == (smallest, [up[n] for n in pts]), (pi, pts)
            got = ratio_stat_report(pi, eps, Explicit(pts)).stat.rows
            assert [dict(row.densities) for row in got] == [{n: r[n] for n in pts} for r in ratios], (pi, pts)
            counted = _image_counts(pi, a, pts)
            if counted is not None:  # else a steep piece needs a period that a finite prefix hides
                taken += 1
                assert counted == [image[n] for n in pts], (pi, a, pts)
    assert total >= 50 and taken >= total * 9 // 10


# ---------------------------------------------------------------------------
# pairings read from their two sides
# ---------------------------------------------------------------------------

# unequal densities, sides with heads (c > 0), finite sides of
# equal size, and random sides of every kind
_SIDE_PAIRINGS = _MIXED_PAIRINGS + _RANK_FORM_PAIRINGS + _rank_form_pairings(89, 12)
# each meets A', B' and the fixed points of most pairings above in different proportions
_PAIRING_TARGETS = [
    ODDS,
    periodic(3, [1]),
    union(finite(2, 3, 5, 8, 13), periodic(7, [0, 4])),
    diff(periodic(5, [0, 1, 3]), finite(10, 15, 20)),
    blocks_explicit([(4, 9), (40, 70)]),
]


def test_pairing_readers_match_the_scans_at_the_ends_of_every_piece():
    """levy and displacement of a pairing, read from its sides' counts, against the downward scan
    and the scan of the same bijection without pieces, where a piece's prefix count changes."""
    rng = random.Random(89)
    kinds = set()
    for phi in _SIDE_PAIRINGS:
        kinds |= {_side_kind(tree) for tree in (phi.a_only, phi.b_only)}
        grid = Explicit(tuple(sorted({n for pts in _boundary_grids(rng, phi, 3000, 3) for n in pts})))
        up = levy_defect_profile(phi, grid).defects
        assert up == levy_defect_profile(phi, grid, mode="downward").defects, (phi, grid)
        for x in _PAIRING_TARGETS:
            assert displacement_profile(phi, x, grid) == displacement_profile(Scanned(phi), x, grid), (phi, x)
    assert kinds == {"periodic", "finite", "pure-periodic-tree", "head-plus-tail"}


def test_pairing_readers_match_the_piece_readers_at_two_to_the_64():
    # a pairing is an involution, so its inverse is the same bijection, read from its pieces
    pts = sorted(set(doubling_checkpoints(2**64).points()) | {2**64 - 1, 3**40, 10**19 + 7})
    for phi in _SIDE_PAIRINGS:
        assert _checked_pieces(Inverse(phi), pts) is not None, phi
        assert _defect_counts(phi, pts) == _defect_counts(Inverse(phi), pts), phi
        for x in _PAIRING_TARGETS:
            assert _image_counts(phi, x, pts) == _image_counts(Inverse(phi), x, pts), (phi, x)


def test_exact_defect_laws_at_the_doubling_checkpoints_to_two_to_the_64():
    """D(π) = D(π⁻¹) for every bijection, since as many k pass n upward as pass it downward, and
    D(π∘σ) <= D(π) + D(σ), since k <= n < π(σ(k)) needs σ(k) > n or σ(k) <= n < π(σ(k)): both
    read from pieces at every doubling checkpoint up to 2^64, on seeded compositions of rules."""
    pts = doubling_checkpoints(2**64).points()
    rng = random.Random(97)
    rules = _PIECE_RULES + _SIDE_PAIRINGS

    def operand():  # a rule or its inverse
        pi = rng.choice(rules)
        return Inverse(pi) if rng.random() < 0.3 else pi

    pairs = [(operand(), operand()) for _ in range(60)]
    pairs.append((QuarterBlockSwap(), pairing_permutation(periodic(4, [1]), periodic(4, [0, 2, 3]))))
    non_involutions = 0
    for pi, sigma in pairs:
        composite = Compose(pi, sigma)
        assert _checked_pieces(composite, pts) is not None, composite
        d = _defect_counts(composite, pts)
        assert all(x <= y + z for x, y, z in zip(d, _defect_counts(pi, pts), _defect_counts(sigma, pts))), composite
        if any(composite.apply(composite.apply(k)) != k for k in range(1, 200)):
            non_involutions += 1
            assert d == _defect_counts(Inverse(composite), pts), composite
    assert non_involutions >= 40


def test_every_piece_agrees_with_the_rule_at_its_ends():
    """Each piece against ``apply`` and ``invert`` at t = 0, 1 and terms - 1, up to 3000 and up to
    2^64; ``_checked_pieces`` reads only t = 0 and 1.  The terms also lie in [1, horizon] and
    number the horizon, as the pieces partition it."""
    rng = random.Random(83)
    rules = _PIECE_RULES + _SIDE_PAIRINGS + _restrictions(rng) + [_random_rule(rng, 3) for _ in range(12)]
    checked = 0
    for horizon in (3000, 2**64):
        for pi in rules:
            pieces = pi.pieces(horizon)
            if pieces is None:  # more pieces than the horizon: the scan is cheaper
                continue
            checked += 1
            assert sum(terms for *_, terms in pieces) == horizon, (pi, horizon)
            for piece in pieces:
                k0, p, d, q, terms = piece
                assert 1 <= k0 and k0 + (terms - 1) * p <= horizon, (pi, horizon, piece)
                for t in {0, min(1, terms - 1), terms - 1}:
                    k, v = k0 + t * p, d + t * q
                    assert pi.apply(k) == v and pi.invert(v) == k, (pi, horizon, piece, t)
    assert checked >= 2 * len(_PIECE_RULES + _SIDE_PAIRINGS), checked


def _random_run_leaf(rng):
    """Explicit blocks (one of them, at times, longer than 3000), a finite list or a scaled
    periodic leaf."""
    kind = rng.randrange(3)
    if kind == 0:
        ends = sorted(rng.sample(range(1, 12000), 2 * rng.randrange(1, 4)))
        if rng.random() < 0.3:
            ends[-1] = ends[-2] + rng.randrange(3001, 9000)
        return blocks_explicit(list(zip(ends[::2], ends[1::2])))
    if kind == 1:
        return finite(*rng.sample(range(1, 4000), rng.randrange(1, 9)))
    m = rng.choice((2, 3, 4, 5, 6))
    return scale(periodic(m, rng.sample(range(m), rng.randrange(1, m))), rng.choice((1, 1, 2, 3)))


def _random_run_side(rng, depth):
    """A depth-``depth`` union or difference of ``_random_run_leaf``s."""
    if depth == 0 or rng.random() < 0.2:
        return _random_run_leaf(rng)
    return rng.choice((union, union, diff))(_random_run_side(rng, depth - 1), _random_run_side(rng, depth - 1))


def _rank_run_pairings(seed, count):
    """Seeded pairings of depth-3 ``_random_run_side``s."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        try:
            phi = InterlacedPairing(_random_run_side(rng, 3), _random_run_side(rng, 3))
        except (CardinalityMismatch, UnknownInfinitude):
            continue
        out.append(phi)
    return out


def test_rank_run_pieces_match_the_rank_matching_and_the_rule():
    """Pairing pieces, read per run of ranks from the sides' segments, against brute rank matching
    and ``apply``/``invert`` at every k <= 3000, and against ``apply``/``invert`` at t = 0, 1 and
    terms - 1 of every piece up to 2^64, on sides with heads that hold more ranks than 3000."""
    top, long_heads, fixed_runs = 3000, 0, 0
    for phi in _rank_run_pairings(101, 24):
        a, b = phi.a_only, phi.b_only
        need = max(a.count(top), b.count(top))
        # a side that departs from its tail last at c, with more members up to c than the horizon
        long_heads += any(side.count(_departs_last(side)) > top for side in (a, b))
        oracle = _rank_matching(*(_brute_members(side, need, top) for side in (a, b)))
        image = [(k0 + t * p, d + t * q) for k0, p, d, q, terms in phi.pieces(top) for t in range(terms)]
        assert sorted(image) == [(k, oracle(k)) for k in range(1, top + 1)], phi
        assert all(phi.apply(k) == v and phi.invert(v) == k for k, v in image), phi
        pieces = phi.pieces(2**64)
        assert sum(terms for *_, terms in pieces) == 2**64, phi
        for k0, p, d, q, terms in pieces:
            fixed_runs += k0 == d and p == q and k0 + terms * p <= 2**64  # a run of fixed points that ends
            for t in {0, min(1, terms - 1), terms - 1}:
                k, v = k0 + t * p, d + t * q
                assert phi.apply(k) == v and phi.invert(v) == k, (phi, (k0, p, d, q, terms), t)
    assert long_heads >= 5 and fixed_runs >= 10, (long_heads, fixed_runs)


def test_pairing_past_the_rank_form_cap_reads_levy_and_displacement_from_its_sides():
    # A' = [1, lo] and B' = [shift + 1, shift + lo]: π moves each onto the other by ±shift
    lo, shift = 1000001, 2000000

    def defect(n):
        return min(n, lo) - max(0, min(n, shift + lo) - shift)

    def image(x, n):
        """|X ∩ π⁻¹[1, n]|: [1, n] with its part in A' shifted up and its part in B' down."""
        def between(l, r):
            return x.count(r) - x.count(l - 1) if l <= r else 0
        return (between(shift + 1, shift + min(n, lo)) + between(lo + 1, min(n, shift))
                + between(1, min(n, shift + lo) - shift) + between(shift + lo + 1, n))

    ends = (1, lo, shift, shift + lo)
    grid = Explicit(tuple(sorted({e + d for e in ends for d in (-1, 0, 1) if e + d >= 1} | {1234567, 2**64})))
    defects = levy_defect_profile(_OVER_CAP, grid, budget=2**64).defects
    assert defects == tuple(Fraction(defect(n), n) for n in grid.points())
    for x in _PAIRING_TARGETS:
        want = [(n, Fraction(x.count(n) - image(x, n), n)) for n in grid.points()]
        assert displacement_profile(_OVER_CAP, x, grid, budget=2**64) == want, x


def test_a_side_with_a_million_point_head_reads_levy_and_displacement_from_its_segments(monkeypatch):
    # A' = ([1, L] minus the n = 2 mod 3) plus the n = 1 mod 3, and B' = the n = 2 mod 3 past L; each
    # departs from its tail at up to 10^6 points, which a reader of every point would visit
    calls = [0]
    for cls in SymbolicSet.__subclasses__():
        if "contains" in cls.__dict__:
            def counted(self, n, inner=cls.contains):
                calls[0] += 1
                return inner(self, n)
            monkeypatch.setattr(cls, "contains", counted)
    phi = parse_expression("pair(union(blocks([1,1000000)),periodic(3;1)),periodic(3;2))", "perm")
    big = 999999

    def per(m, residues, y):
        """#{k in [1, y] : k mod m in residues}."""
        return sum((y - r) // m + (r > 0) for r in residues) if y > 0 else 0

    def a_count(n):
        low = min(n, big)
        return low - per(3, [2], low) + per(3, [1], n) - per(3, [1], low)

    def b_count(n):
        return per(3, [2], n) - per(3, [2], min(n, big))

    def a_select(i):
        if i <= 666666:
            return 3 * ((i + 1) // 2) - 2 * (i % 2)
        return big + 1 + 3 * (i - 666667)

    def b_select(i):
        return big + 2 + 3 * (i - 1)

    def past(m, residues, y):
        """#{k in (L, y] : k mod m in residues}."""
        return per(m, residues, y) - per(m, residues, min(y, big))

    def image(n):
        """(πX)(n) for X = periodic(4;1): X meets A' mod 12 at 1 and 9 up to L and at 1 past it, B'
        at 5, and the fixed points, the n = 2 mod 3 up to L and the n = 0 mod 3 past it, at 5 and 9."""
        total = per(12, [5], min(n, big)) + past(12, [9], n)
        if b_count(n):
            y = a_select(b_count(n))
            total += per(12, [1, 9], min(y, big)) + past(12, [1], y)
        if a_count(n):
            total += past(12, [5], b_select(a_count(n)))
        return total

    grid = doubling_checkpoints(2**64)
    defects = levy_defect_profile(phi, grid, budget=2**64).defects
    x = periodic(4, [1])
    profile = displacement_profile(phi, x, grid, budget=2**64)
    assert calls[0] < 10**4
    assert defects == tuple(Fraction(abs(a_count(n) - b_count(n)), n) for n in grid.points())
    assert profile == [(n, Fraction(per(4, [1], n) - image(n), n)) for n in grid.points()]
    assert [a_count(n) for n in (1, 2, 3, big, big + 1, 2**64)] == [phi.a_only.count(n) for n in (1, 2, 3, big, big + 1, 2**64)]


_FAR = ["--horizon", str(2**64), "--budget", str(2**64)]


def _far(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = run_command(argv + _FAR)
    assert code == 0
    return json.loads(out.getvalue())["result"]


# tree sides that never depart from their periodic tails, each with the pairing of those tails
_TAIL_TWINS = [
    ("pair(scale(2,periodic(3;1)),periodic(6;1))", "pair(periodic(6;2),periodic(6;1))"),
    ("pair(union(periodic(2;1),inter(blocks(dexp),periodic(2;1))),periodic(2;0))", "pair(periodic(2;1),periodic(2;0))"),
    # a part wider than the segment width cap is an opaque leaf that cannot change the side
    (
        "pair(union(periodic(2;1),inter(periodic(2;1),union(periodic(999983;1),periodic(999979;1)))),periodic(2;0))",
        "pair(periodic(2;1),periodic(2;0))",
    ),
]


def test_tree_sides_that_never_depart_pair_as_their_tails():
    """``apply`` and ``invert`` at every k <= 3000, and the results of levy, statlim, witness and
    displacement at 4096 and 2^64, against the pairing of the two tails."""
    for expr, tails in _TAIL_TWINS:
        phi, twin = parse_expression(expr, "perm"), parse_expression(tails, "perm")
        ks = range(1, 3001)
        assert [phi.apply(k) for k in ks] == [twin.apply(k) for k in ks], expr
        assert [phi.invert(k) for k in ks] == [twin.invert(k) for k in ks], expr
        for horizon in (4096, 2**64):
            for command, *rest in (["levy"], ["statlim"], ["witness"], ["displacement", "periodic(4;1)"]):
                results = []
                for rule in (expr, tails):
                    with redirect_stdout(out := io.StringIO()):
                        assert run_command([command, rule, *rest, "--horizon", str(horizon), *_FAR[2:]]) == 0
                    # the witness names its rule
                    results.append(json.loads(out.getvalue().replace(rule, "π"))["result"])
                assert results[0] == results[1], (expr, command, horizon)


# pairings whose witness reads its two sides: unequal densities, headed, finite and random
# sides, seeded periodic pairs, finite sides of equal size, a side with a 60-point head, the
# tail twins, and two equal moduli past the segment width cap (no segments and no pieces)
_WITNESS_PAIRINGS = (
    _SIDE_PAIRINGS
    + [pairing_permutation(a, b) for a, b in disjoint_periodic_pairs(8, seed=97)]
    + [
        pairing_permutation(finite(2, 9, 40), finite(3, 4, 100)),
        pairing_permutation(union(blocks_explicit([(1, 60)]), periodic(3, [1])), periodic(3, [2])),
        pairing_permutation(periodic(1000003, [1]), periodic(1000003, [2])),
    ]
    + [parse_expression(expr, "perm") for expr, _ in _TAIL_TWINS]
)


def test_pairing_witness_reads_its_sides(monkeypatch):
    """The moved-up points of a pairing, min(a_i, b_i), and their count max(A'(n), B'(n)),
    against the scan of the same bijection at every n <= 3000, and against its pieces (read as
    those of its inverse, the same bijection) at 2^64; the sides' path calls neither ``pieces``
    nor ``apply``."""
    every = list(range(1, 3001))
    far = sorted(set(doubling_checkpoints(2**64).points()) | {2**64 - 1, 3**40, 10**19 + 7})
    want = []
    for phi in _WITNESS_PAIRINGS:
        by_pieces = _moved_up(Inverse(phi), far) if _checked_pieces(Inverse(phi), far) is not None else None
        want.append((_moved_up(Scanned(phi), every), by_pieces))
    assert sum(by_pieces is None for _, by_pieces in want) == 1  # the pairing past the cap
    for name in ("pieces", "apply", "invert"):
        monkeypatch.setattr(InterlacedPairing, name, lambda *args, name=name: pytest.fail(f"{name} was called"))
    for phi, (scanned, by_pieces) in zip(_WITNESS_PAIRINGS, want):
        assert _moved_up(phi, every) == scanned, phi
        if by_pieces is not None:
            assert _moved_up(phi, far) == by_pieces, phi


def test_qswap_defect_at_two_to_the_64():
    assert QuarterBlockSwap().pieces(2**64) is not None
    defects = {e["n"]: Fraction(e["value"]["num"], e["value"]["den"]) for e in _far(["levy", "qswap"])["defects"]}
    # at 4^32 only k = 4^32 itself is below n and mapped above it; at
    # 2^63 = 2*4^31 every k in (4^31, 2*4^31) is
    assert defects[4**32] == Fraction(1, 4**32)
    assert defects[2**63] == Fraction(4**31 - 1, 2**63)


def test_far_horizon_diagnostics_exit_zero():
    halves = pairing_permutation(periodic(2, [1]), periodic(2, [0]))
    thirds = pairing_permutation(periodic(4, [1]), periodic(4, [0, 2, 3]))
    assert Compose(QuarterBlockSwap(), halves).pieces(2**64) is not None
    assert thirds.pieces(2**64) is not None
    rows = _far(["statlim", "comp(qswap,pair(periodic(2;1),periodic(2;0)))"])["rows"]
    assert [r["eps"]["num"] for r in rows] == [1, 1]
    profile = _far(["displacement", "pair(periodic(4;1),periodic(4;0,2,3))", "scale(2,periodic(2;1))"])["profile"]
    assert profile[-1]["n"] == 2**64
    witness = _far(["witness", "qswap"])
    assert witness["first_elements"] == [4, 5, 6, 7] + list(range(16, 32))


def test_a_pairing_of_one_modulus_past_the_cap_answers_at_two_to_the_64():
    """Its sides fold to periodic sets, so levy and witness read their closed forms; the sides
    have no segments, so there are no pieces to read instead."""
    expr = "pair(periodic(1000003;1),periodic(1000003;2))"
    phi = parse_expression(expr, "perm")
    assert (phi.a_only, phi.b_only) == (periodic(1000003, [1]), periodic(1000003, [2]))
    assert phi.pieces(2**64) is None
    witness = _far(["witness", expr])
    assert witness["first_elements"] == [1 + i * 1000003 for i in range(20)]
    assert witness["ratio_profile"][-1]["n"] == 2**64
    defects = _far(["levy", expr])["defects"]
    assert all(d["value"]["num"] in (0, 1) for d in defects) and defects[-1]["n"] == 2**64


def test_restricted_pairings_at_two_to_the_64():
    # without pieces the requests below would scan to 2^64
    assert Restricted(pairing_permutation(ODDS, EVENS), finite(3, 5)).pieces(2**64) is not None
    thirds = Restricted(pairing_permutation(periodic(3, [1]), periodic(3, [2])), finite(1, 7))
    assert Inverse(thirds).pieces(2**64) is not None
    # F = {3, 5} fixes 3, 4, 5 and 6, which φ would move by 1: D(n) is 1 at
    # odd n other than 3 and 5, and 0 at even n
    defects = {e["n"]: Fraction(e["value"]["num"], e["value"]["den"])
               for e in _far(["levy", "restrict(pair(periodic(2;1),periodic(2;0)),finite(3,5))"])["defects"]}
    assert defects[2**64] == 0 and defects[2**64 // 4096] == 0
    rows = _far(["statlim", "inv(restrict(pair(periodic(3;1),periodic(3;2)),finite(1,7)))"])["rows"]
    assert len(rows) == 2


def test_a_restriction_to_a_far_finite_set_reads_its_members_by_select(monkeypatch):
    # F, the odd n in [10^12, 10^12 + 4), has two members at a far b behind a periodic left part
    # whose 5·10^11 members up to b a walk of F would visit, each with a contains call
    calls = [0]
    for cls in SymbolicSet.__subclasses__():
        if "contains" in cls.__dict__:
            def counted(self, n, inner=cls.contains):
                calls[0] += 1
                assert calls[0] < 10**4, "F's members are read by a walk up to b"
                return inner(self, n)
            monkeypatch.setattr(cls, "contains", counted)
    far = 10**12
    expr = f"restrict(pair(periodic(2;1),periodic(2;0)),inter(periodic(2;1),blocks([{far},{far + 4}))))"
    psi = parse_expression(expr, "perm")
    pieces = psi.pieces(2**64)
    assert pieces is not None
    window = range(far - 6, far + 10)
    image = {n: d + (n - k0) // p * q for k0, p, d, q, terms in pieces for n in window
             if (n - k0) % p == 0 and 0 <= (n - k0) // p < terms}
    # φ swaps 2i - 1 and 2i; E = F ∪ φF = (far, far + 4] is fixed
    assert image == {n: n if far < n <= far + 4 else n + 1 if n % 2 else n - 1 for n in window}
    defects = {e["n"]: Fraction(e["value"]["num"], e["value"]["den"]) for e in _far(["levy", expr])["defects"]}
    # D(n) is 1 at odd n outside E, where n -> n + 1, and 0 elsewhere
    assert 2**64 in defects and all(v == Fraction(n % 2 and not far < n <= far + 4, n) for n, v in defects.items())
