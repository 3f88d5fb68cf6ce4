import itertools
import pickle
import random
import sys
import threading
from pathlib import Path

import pytest
from fractions import Fraction
from hypothesis import example, given, settings, strategies as st

from densitylab.errors import (
    EnumerationBudgetExceeded,
    IndexBeyondSet,
    PredicateCapExceeded,
)
from densitylab.nset import (
    Blocks,
    Complement,
    Diff,
    Empty,
    FiniteList,
    Full,
    Infinitude,
    Intersect,
    Periodic,
    Predicate,
    Scaled,
    Union,
    _eventual_period,
    _periodic_mask,
    _residues,
    _segments,
    blocks_dexp,
    blocks_explicit,
    compl,
    diff,
    finite,
    inter,
    periodic,
    scale,
    select,
    union,
)

from oracles import brute_members, dexp_count_enum, dexp_elements

# the benchmark's oracle, which parses and counts on its own, without densitylab
sys.path.append(str(Path(__file__).resolve().parents[1]))
from perfbench import oracle as bench_oracle  # noqa: E402


# ---------------------------------------------------------------------------
# membership and counting
# ---------------------------------------------------------------------------


def test_contains_basics():
    assert periodic(2, [0]).contains(10)
    assert not periodic(2, [0]).contains(9)
    assert blocks_dexp().contains(16)
    assert not blocks_dexp().contains(15)
    assert not scale(blocks_dexp(), 2).contains(9)  # 2A holds evens only


def test_count_closed_forms():
    assert periodic(2, [0]).count(10) == 5
    a = blocks_dexp()
    # frozen values re-derived by the enumeration oracle
    assert dexp_count_enum(511) == 276
    assert dexp_count_enum(65536) == 277
    assert a.count(511) == 276
    assert a.count(65536) == 277
    assert scale(a, 2).count(512) == a.count(256) == 21
    assert scale(a, 2).count(256) == a.count(128) == 20


def test_count_matches_enumeration_oracle_on_dexp():
    a = blocks_dexp()
    for n in [1, 3, 4, 7, 8, 15, 16, 31, 32, 255, 256, 511, 512, 65535, 65536, 131071, 131072]:
        assert a.count(n) == dexp_count_enum(n)


def test_scale_semantics():
    evens = scale(periodic(1, [0]), 2)
    assert evens.count(10) == 5
    assert scale(periodic(2, [0]), 1) == periodic(2, [0])
    s = union(periodic(3, [1]), finite(7))
    assert all(not scale(s, 3).contains(n) for n in range(1, 300) if n % 3)


def test_select():
    assert select(periodic(2, [0]), 3) == 6
    assert select(blocks_dexp(), 5) == 16
    assert select(finite(3, 9), 2) == 9
    with pytest.raises(IndexBeyondSet):
        select(finite(3, 9), 3)
    with pytest.raises(IndexBeyondSet):
        select(Empty(), 1)


def test_select_count_galois():
    a = blocks_dexp()
    for n in [5, 10, 100, 513, 70000]:
        c = a.count(n)
        assert a.count(select(a, c)) == c
        assert select(a, c) <= n


def test_predicate_cap_is_loud():
    p = Predicate(rule=lambda k: k % 7 == 0, enumeration_cap=100, label="sevens")
    assert p.count(100) == 14
    assert p.contains(98)
    with pytest.raises(PredicateCapExceeded):
        p.count(101)
    with pytest.raises(PredicateCapExceeded):
        p.contains(101)
    with pytest.raises(PredicateCapExceeded):
        select(p, 15)


def test_enumeration_budget_is_loud():
    opaque = Predicate(rule=lambda k: k % 2 == 0, enumeration_cap=10**7, label="evens")
    dense = inter(opaque, periodic(3, [1]))
    with pytest.raises(EnumerationBudgetExceeded):
        dense.count(10**6, budget=1000)
    # the same count succeeds once the budget allows the enumeration
    assert dense.count(3000, budget=10**5) == len(
        [k for k in range(1, 3001) if k % 2 == 0 and k % 3 == 1]
    )


# ---------------------------------------------------------------------------
# smart constructors
# ---------------------------------------------------------------------------


def test_constructor_simplifications():
    assert periodic(1, [0]) == Full()
    assert periodic(5, []) == Empty()
    assert inter(periodic(2, [0]), periodic(2, [1])) == Empty()
    assert union(periodic(4, [0]), periodic(4, [1])) == periodic(4, [0, 1])
    assert union(periodic(2, [0]), periodic(3, [0])) == periodic(6, [0, 2, 3, 4])
    assert compl(periodic(4, [0])) == periodic(4, [1, 2, 3])
    assert compl(compl(blocks_dexp())) == blocks_dexp()
    assert diff(periodic(2, [0]), periodic(2, [0])) == Empty()
    assert inter(finite(2, 3, 4), periodic(2, [0])) == finite(2, 4)
    assert union(finite(1, 3), finite(3, 5)) == finite(1, 3, 5)
    assert finite() == Empty()
    # two periodic nodes fold over an lcm of 999999, just under the cap, to the residues read
    # one by one; over 1000006, just past it, they stay a node of the algebra
    a, b = periodic(7, [0, 3]), periodic(142857, range(1, 142857, 3))
    in_a = [r % 7 in (0, 3) for r in range(999999)]
    in_b = [r % 142857 % 3 == 1 for r in range(999999)]
    for fold, keep in ((union, bool.__or__), (inter, bool.__and__), (diff, bool.__gt__)):
        assert fold(a, b) == Periodic(999999, tuple(r for r in range(999999) if keep(in_a[r], in_b[r])))
        assert type(fold(a, periodic(142858, [1]))) is {union: Union, inter: Intersect, diff: Diff}[fold]


def test_infinitude_flags():
    assert periodic(2, [0]).infinitude() == Infinitude.INFINITE
    assert finite(1, 2).infinitude() == Infinitude.FINITE
    assert blocks_dexp().infinitude() == Infinitude.INFINITE
    assert blocks_explicit([(4, 8)]).infinitude() == Infinitude.FINITE
    assert Predicate(rule=bool, enumeration_cap=10).infinitude() == Infinitude.UNKNOWN
    raw = inter(blocks_dexp(), periodic(3, [1]))
    assert raw.infinitude() == Infinitude.UNKNOWN
    assert diff(periodic(2, [0]), finite(2, 4)).infinitude() == Infinitude.INFINITE


def test_validation_errors():
    with pytest.raises(ValueError):
        FiniteList((3, 2))
    with pytest.raises(ValueError):
        Periodic(4, (5,))
    with pytest.raises(ValueError):
        blocks_explicit([(8, 4)])
    with pytest.raises(ValueError):
        blocks_explicit([(4, 8), (6, 10)])
    with pytest.raises(ValueError):
        scale(periodic(2, [0]), 0)


@pytest.mark.parametrize("size", [1, 2, 8, 9, 40])
def test_periodic_residue_check_raises_for_every_length(size):
    good = tuple(range(1, 2 * size, 2))
    m = 2 * size
    assert Periodic(m, good).residues == good
    bad = [
        good[:-1] + (m,),  # not below the modulus
        (-1,) + good[1:],  # negative
        good[:1] + good[:-1],  # a repeat
        good[1:2] + good[:1] + good[2:],  # out of order
    ]
    for residues in bad if size > 1 else bad[:2]:
        with pytest.raises(ValueError, match="residues must be sorted, distinct, < modulus"):
            Periodic(m, residues)


def _bits(mask):
    return tuple(r for r, bit in enumerate(reversed(bin(mask)[2:])) if bit == "1")


def test_residues_match_a_bit_by_bit_reference():
    rng = random.Random(83)
    masks = [0, 1, 2, 3, 0b1001, (1 << 84) - 1, 1 << 99_999, (1 << 99_999) | 1]
    # random wide masks, dense and sparse: the two ways _residues reads a mask
    masks += [rng.getrandbits(rng.randrange(1, 100_000)) for _ in range(6)]
    masks += [sum(1 << rng.randrange(100_000) for _ in range(rng.randrange(1, 200))) for _ in range(6)]
    masks += [rng.getrandbits(rng.randrange(1, 70)) for _ in range(200)]
    for mask in masks:
        assert _residues(mask) == _bits(mask), mask


def test_periodic_masks_match_a_bit_by_bit_reference():
    rng = random.Random(89)
    cases = [Periodic(1, (0,)), Periodic(7, ()), Periodic(2, (1,)), Periodic(12, (1, 5, 7, 11))]
    for m in (16, 64, 1000, 20_000):
        for k in (1, m // 20, m // 3, m):  # the dense ones set their bits as digits
            cases.append(Periodic(m, tuple(sorted(rng.sample(range(m), max(k, 1))))))
    for s in cases:
        for t in (1, 2, 5):
            for width in (t * s.modulus, 3 * t * s.modulus):
                members = set(s.residues)
                want = int("".join("1" if x % t == 0 and x // t % s.modulus in members else "0"
                                   for x in reversed(range(width))) or "0", 2)
                assert _periodic_mask(s, t, width) == want, (s.modulus, len(s.residues), t, width)
                assert _residues(want) == _bits(want)


def test_periodic_sets_of_one_modulus_fold_at_any_width():
    """Two periodic sets of one modulus fold to one by their residue sets, past the width cap
    too; two moduli fold only when their lcm is within it."""
    rng = random.Random(97)
    for m in (6, 1000, 1000003):
        for _ in range(4):
            x, y = (set(rng.sample(range(m), rng.randrange(1, 6))) for _ in range(2))
            a, b = periodic(m, x), periodic(m, y)
            for build, members in ((union, x | y), (inter, x & y), (diff, x - y)):
                assert build(a, b) == periodic(m, members), (m, build.__name__, x, y)
    wide = periodic(1000003, [1])
    assert inter(wide, periodic(1000003, [2])).to_expr() == "empty"
    assert diff(periodic(1000003, [1, 2]), periodic(1000003, [2])) == wide
    assert union(wide, periodic(1000003, set(range(2, 1000003)) | {0})).to_expr() == "full"
    assert inter(wide, periodic(999983, [1])).to_expr() == "inter(periodic(1000003;1),periodic(999983;1))"


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

small_leaf = st.one_of(
    st.builds(
        lambda m, picks: periodic(m, sorted({p % m for p in picks})),
        st.integers(2, 10),
        st.lists(st.integers(0, 9), min_size=1, max_size=4),
    ),
    st.builds(lambda xs: finite(*xs), st.lists(st.integers(1, 400), max_size=8)),
)

algebra_tree = st.recursive(
    small_leaf,
    lambda child: st.one_of(
        st.builds(union, child, child),
        st.builds(inter, child, child),
        st.builds(diff, child, child),
        st.builds(compl, child),
    ),
    max_leaves=4,
)

rich_tree = st.one_of(
    algebra_tree,
    st.builds(lambda s, t: scale(s, t), algebra_tree, st.integers(1, 5)),
    st.just(blocks_dexp()),
    st.builds(union, st.just(blocks_dexp()), small_leaf),
)


@given(s=algebra_tree, n=st.integers(1, 2000))
@settings(max_examples=150, deadline=None)
def test_algebra_count_matches_brute_force(s, n):
    assert s.count(n) == len(brute_members(s, n))


@given(s=rich_tree, n=st.integers(1, 5000))
@settings(max_examples=150, deadline=None)
def test_count_monotone_step(s, n):
    step = s.count(n) - s.count(n - 1)
    assert step == (1 if s.contains(n) else 0)


@given(s=rich_tree, n=st.integers(0, 5000))
@settings(max_examples=100, deadline=None)
def test_complement_count(s, n):
    assert compl(s).count(n) == n - s.count(n)


@given(s=rich_tree, n=st.integers(1, 10**5))
@settings(max_examples=150, deadline=None)
def test_doubling_sandwich(s, n):
    c1, c2 = s.count(n), s.count(2 * n)
    assert c1 <= c2 <= c1 + n


@given(s=rich_tree, t=st.integers(1, 6), n=st.integers(0, 10**4))
@settings(max_examples=100, deadline=None)
def test_scaled_count_rule(s, t, n):
    assert scale(s, t).count(n) == s.count(n // t)


@given(s=rich_tree, k=st.integers(1, 50))
@settings(max_examples=60, deadline=None)
def test_select_is_inverse_of_count(s, k):
    try:
        v = select(s, k)
    except IndexBeyondSet:
        return
    assert s.contains(v)
    assert s.count(v) == k


@pytest.mark.parametrize(
    "s, flag",
    [
        (diff(periodic(2, [0]), compl(finite(1))), Infinitude.FINITE),
        (scale(diff(union(finite(4), periodic(9, [4])), periodic(9, [4])), 3), Infinitude.FINITE),
        (diff(diff(periodic(4, [1]), finite(1, 100, 115)), periodic(2, [1])), Infinitude.FINITE),
        (
            scale(diff(union(finite(5, 229, 249), periodic(2, [0])), periodic(2, [0])), 2),
            Infinitude.FINITE,
        ),
        (diff(union(finite(7), periodic(6, [1])), periodic(3, [1])), Infinitude.FINITE),
        (diff(union(finite(8), periodic(6, [1, 3])), periodic(3, [1])), Infinitude.INFINITE),
        # past b = 4 the only member of the first period (4, 8] is 8 = b + l
        (diff(union(finite(4), periodic(4, [0])), periodic(2, [1])), Infinitude.INFINITE),
        (compl(union(periodic(2, [0]), compl(finite(3, 9)))), Infinitude.FINITE),
        (inter(union(finite(4), periodic(3, [1])), union(finite(4), periodic(3, [2]))), Infinitude.FINITE),
        (inter(blocks_dexp(), periodic(3, [1])), Infinitude.UNKNOWN),
    ],
)
def test_select_on_eventually_periodic_trees(s, flag):
    assert s.infinitude() == flag
    members = sorted(brute_members(s, 3000))
    for k in range(1, 21):
        if k <= len(members):
            assert select(s, k) == members[k - 1]
        else:
            with pytest.raises(IndexBeyondSet):
                select(s, k)


def test_select_in_an_intersection_with_a_side_finite_by_its_period():
    # blocks(dexp) has no eventual period, so the bound comes from the other side
    s = inter(diff(union(finite(16, 17), periodic(2, [0])), periodic(2, [0])), blocks_dexp())
    assert s.infinitude() == Infinitude.FINITE and s.max_element() == 17
    assert select(s, 1) == 17
    with pytest.raises(IndexBeyondSet):
        select(s, 2)


def test_select_ends_on_sets_finite_by_their_period():
    # each set is finite only by its eventual period: past its last member
    # there is no k-th member to find
    last_only = diff(union(finite(5), periodic(4, [0])), periodic(4, [0]))
    cases = [
        (last_only, [5]),
        (union(last_only, finite(2)), [2, 5]),
        (inter(last_only, compl(finite(7))), [5]),
        (compl(union(compl(finite(5, 6)), periodic(4, [0]))), [5, 6]),
    ]
    for s, members in cases:
        assert [select(s, k) for k in range(1, len(members) + 1)] == members, s
        with pytest.raises(IndexBeyondSet):
            select(s, len(members) + 1)


def _dexp_multiples(t, n):
    return {t * e for e in dexp_elements(n // t)}


def test_opaque_intersection_counts_the_smaller_parts_members_against_brute_force():
    # every part has more than 64 runs (a predicate none), so no part is counted run by run: each
    # member of the smaller part is tested by the other, read from its member runs, or, for a
    # predicate, by a scan of [1, n]
    wide = union(periodic(999983, [1]), periodic(999979, [1]))  # wider than the segment cap
    fifths = Predicate(rule=lambda k: k % 5 == 0, enumeration_cap=10**5, label="fifths")
    cases = [
        # a Periodic leaf: 8590 members at 2^33 against 65812 of the scaled blocks
        (
            inter(periodic(1000003, [5]), scale(blocks_dexp(), 3)),
            lambda n: set(range(5, n + 1, 1000003)) & _dexp_multiples(3, n),
            (10**8, 2**33 - 1, 2**33),
        ),
        (
            inter(wide, scale(blocks_dexp(), 3)),
            lambda n: {*range(1, n + 1, 999983), *range(1, n + 1, 999979)} & _dexp_multiples(3, n),
            (10**8, 2**33),
        ),
        (
            inter(wide, periodic(2, [1])),
            lambda n: {k for k in {*range(1, n + 1, 999983), *range(1, n + 1, 999979)} if k % 2},
            (10**8, 10**8 + 999983 * 17),
        ),
        (
            inter(fifths, periodic(3, [1, 2])),
            lambda n: {k for k in range(1, n + 1) if k % 5 == 0 and k % 3},
            (9999, 10**5),
        ),
    ]
    for s, brute, horizons in cases:
        assert isinstance(s, Intersect) and _segments(s) is None, s
        for n in horizons:
            assert s.left.member_runs(n, cap=64) is None and s.right.member_runs(n, cap=64) is None
            assert s.count(n) == len(brute(n)), (s, n)
    # the smaller part has more members than the budget
    with pytest.raises(EnumerationBudgetExceeded):
        cases[0][0].count(2**33, budget=8589)
    assert cases[0][0].count(2**33, budget=8590) == len(cases[0][1](2**33))
    # a predicate's 20000 members are within the budget, but its scan of [1, n] is not
    with pytest.raises(EnumerationBudgetExceeded):
        cases[3][0].count(10**5, budget=50000)


def test_f3_counts_past_the_segment_cap_as_the_benchmark_oracle_does():
    f3 = union(scale(blocks_dexp(), 3), periodic(1000003, [5]))
    assert f3.to_expr() == "union(scale(3,blocks(dexp)),periodic(1000003;5))"
    ref = bench_oracle.RefSet(bench_oracle.parse(f3.to_expr(), "set"))
    assert f3.count(2**33) == ref.count(2**33)


def test_periodic_count_matches_brute_force():
    rng = random.Random(31)
    sets = [Periodic(1, (0,)), Periodic(5, (0,)), Periodic(5, (4,)), Periodic(9, (0, 8))]
    for _ in range(20):
        m = rng.randrange(2, 30)
        sets.append(Periodic(m, tuple(sorted(rng.sample(range(m), rng.randrange(1, m + 1))))))
    for s in sets:
        members = brute_members(s, 400)
        for n in range(0, 401):
            assert s.count(n) == sum(1 for v in members if v <= n), (s, n)


def _select_by_bisection(s, k):
    lo, hi = 1, k
    while s.count(hi) < k:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if s.count(mid) >= k:
            hi = mid
        else:
            lo = mid + 1
    return lo


def test_periodic_select_matches_bisection():
    rng = random.Random(11)
    sets = [Periodic(1, (0,)), Periodic(7, (0,)), Periodic(7, (3,)), Periodic(6, (0, 5))]
    for _ in range(8):
        m = rng.randrange(2, 40)
        sets.append(Periodic(m, tuple(sorted(rng.sample(range(m), rng.randrange(1, m + 1))))))
    for s in sets:
        for k in range(1, 5001):
            assert select(s, k) == _select_by_bisection(s, k), (s, k)


def test_double_exponential_blocks_closed_form():
    from densitylab.nset import DoubleExponentialBlocks

    src = DoubleExponentialBlocks()
    for i in range(1, 8):
        lo = 2 ** (2**i)
        assert src.interval(i) == (lo, 2 * lo)
    assert list(src.intervals_meeting(1, 2**16)) == [(4, 8), (16, 32), (256, 512), (65536, 131072)]


def _in_intervals(ivs, n):
    return any(l <= n < r for l, r in ivs)


def test_dexp_membership_matches_intervals_at_every_boundary():
    from densitylab.nset import DoubleExponentialBlocks

    src = DoubleExponentialBlocks()
    s = blocks_dexp()
    ivs = list(src.intervals_meeting(1, 2**129))
    points = {0, 1, 2, 3}
    for i in range(1, 8):  # up to 2^(2^7) = 2^128
        for edge in (2 ** (2**i), 2 ** (2**i + 1)):
            points |= {edge - 1, edge, edge + 1}
    rng = random.Random(5)
    points |= {rng.getrandbits(rng.randrange(1, 130)) for _ in range(2000)}
    for n in sorted(points):
        assert s.contains(n) == src.contains(n) == _in_intervals(ivs, n), n


def test_explicit_block_membership_matches_intervals():
    rng = random.Random(9)
    cases = [[(1, 2)], [(3, 5), (5, 9), (12, 13)], [(2, 4), (4, 5), (5, 6), (10, 20)]]
    for _ in range(30):
        cuts = sorted(rng.sample(range(1, 120), 2 * rng.randrange(1, 8)))
        cases.append(list(zip(cuts[::2], cuts[1::2])))
    for ivs in cases:
        s = blocks_explicit(ivs)
        for n in range(0, ivs[-1][1] + 3):
            assert s.contains(n) == _in_intervals(ivs, n), (ivs, n)


def test_exact_density_values():
    assert periodic(4, [1, 2, 3]).exact_density() == Fraction(3, 4)
    assert scale(periodic(2, [0]), 3).exact_density() == Fraction(1, 6)
    assert compl(periodic(6, [0, 3])).exact_density() == Fraction(2, 3)
    assert blocks_dexp().exact_density() is None
    assert finite(4, 5).exact_density() == 0


# ---------------------------------------------------------------------------
# the eventually periodic form: a tail and the points that depart from it
# ---------------------------------------------------------------------------


# parts with no segment width of their own, and a dexp block, which the eventual period reads as
# either in or out; the predicate's cap covers every brute-force range below
_OPAQUE_LEAVES = (
    blocks_dexp(),
    Predicate(rule=lambda n: n % 5 in (1, 4), enumeration_cap=10**6, label="r5"),
    union(periodic(999983, [1]), periodic(999979, [1])),
)


def _small_leaf(rng, opaque=False):
    kind = rng.randrange(5 if opaque else 4)
    if kind == 4:
        return rng.choice(_OPAQUE_LEAVES)
    if kind == 0:
        m = rng.randrange(2, 7)
        return periodic(m, rng.sample(range(m), rng.randrange(1, m)))
    if kind == 1:
        return finite(*rng.sample(range(1, 150), rng.randrange(1, 7)))
    if kind == 2:
        lo = rng.randrange(1, 100)
        mid = lo + rng.randrange(1, 12)
        return blocks_explicit([(lo, mid), (mid + rng.randrange(1, 9), mid + 20)])
    return scale(_small_leaf(rng, opaque), rng.randrange(2, 4))


def _periodic_tree(rng, depth, opaque=False):
    """A random tree of ``depth`` levels of compl/union/inter/diff over
    finite, periodic, explicit-block and scaled leaves, and ``_OPAQUE_LEAVES``
    when ``opaque`` (the smart constructors may fold some levels away)."""
    if depth == 0:
        return _small_leaf(rng, opaque)
    op = rng.randrange(4)
    if op == 3:
        return compl(_periodic_tree(rng, depth - 1, opaque))
    parts = [_periodic_tree(rng, depth - 1, opaque), _periodic_tree(rng, rng.randrange(depth), opaque)]
    rng.shuffle(parts)
    return (union, inter, diff)[op](*parts)


def _join_depth(s):
    if isinstance(s, Complement):
        return 1 + _join_depth(s.inner)
    if isinstance(s, (Union, Intersect, Diff)):
        return 1 + max(_join_depth(s.left), _join_depth(s.right))
    return 0


def _deep_periodic_trees(seed, count, opaque=False):
    rng = random.Random(seed)
    trees = []
    while len(trees) < count:
        s = _periodic_tree(rng, 3, opaque)
        if _join_depth(s) >= 3:
            trees.append(s)
    return trees


def _headed_trees(seed, count):
    """Depth-3 trees: a periodic set, of a modulus up to 210, with a finite head and an explicit
    block added, taken out or kept, and a scaled ``dexp`` part inside the periodic set, which
    cannot change the tail.  Head points inside the periodic set give segments whose masks differ
    from the tail only on residues they never reach."""
    rng = random.Random(seed)
    trees = []
    while len(trees) < count:
        m = rng.choice((2, 3, 4, 5, 6, 70, 210))
        p = periodic(m, rng.sample(range(m), rng.randrange(1, m)))
        masked = union(p, inter(scale(blocks_dexp(), rng.randrange(1, 4)), p))
        lo = rng.randrange(1, 100)
        head = rng.choice((union, diff))(
            finite(*rng.sample(range(1, 150), rng.randrange(1, 7))), blocks_explicit([(lo, lo + rng.randrange(1, 30))])
        )
        s = rng.choice((union, inter, diff, lambda x, y: diff(y, x)))(masked, head)
        s = compl(s) if rng.random() < 0.2 else s
        if _join_depth(s) >= 3:
            trees.append(s)
    return trees


def test_segment_readers_match_brute_force_past_b_and_b_plus_l():
    """count, contains and select, read from the segments, against brute force up to 3(b + l) + 20,
    and select near 2^64 against the benchmark's oracle."""
    # an opaque part that cannot change the tail is read through; one that can gives no answer,
    # and a scaled one may hold any multiple of its factor
    assert _eventual_period(inter(blocks_explicit([(1, 100)]), _OPAQUE_LEAVES[2])) == (99, Periodic(1, ()))
    assert _eventual_period(union(periodic(2, [1]), inter(blocks_dexp(), periodic(2, [1])))) == (0, periodic(2, [1]))
    assert _eventual_period(inter(blocks_dexp(), periodic(3, [1]))) is None
    assert _eventual_period(union(scale(_OPAQUE_LEAVES[1], 2), periodic(3, [0, 2]))) is None
    plain = _deep_periodic_trees(101, 80)
    assert all(_eventual_period(s) is not None for s in plain)
    opaque = [s for s in _deep_periodic_trees(103, 80, opaque=True) if any(x in _OPAQUE_LEAVES for x in _subtrees(s))]
    headed = _headed_trees(107, 60)
    rng = random.Random(109)
    finite_seen = infinite_seen = departing = unknown = unreached = 0
    for s in plain + headed + opaque:
        period = _eventual_period(s)
        if period is None:
            unknown += 1
            continue
        b, tail = period
        top = 3 * (b + tail.modulus) + 20
        assert top <= _OPAQUE_LEAVES[1].enumeration_cap
        members = sorted(brute_members(s, top))
        inside = set(members)
        # past b the set is its tail
        assert all((n in inside) == tail.contains(n) for n in range(b + 1, top + 1)), s
        infinite = any(n > b for n in members)
        assert s.infinitude() == (Infinitude.INFINITE if infinite else Infinitude.FINITE), s
        bound = s.max_element()
        assert (bound is None) if infinite else (bound is not None and all(n <= bound for n in members)), s
        departures = [n for n in range(1, b + 1) if (n in inside) != tail.contains(n)]
        segments = _segments(s)
        assert [s.contains(n) for n in range(1, top + 1)] == [n in inside for n in range(1, top + 1)], s
        prefix = [0]
        for n in range(1, top + 1):
            prefix.append(prefix[-1] + (n in inside))
        # a tree with an opaque leaf counts from its parts, which costs too much to read everywhere;
        # segments are extended to top once, by the first count
        ns = range(top, -1, -1) if segments is not None else sorted(rng.sample(range(top + 1), 8) + [0, b, top])
        assert [s.count(n) for n in ns] == [prefix[n] for n in ns], s
        ks = range(1, len(members) + 1)
        if segments is None and members:
            ks = sorted({rng.choice(ks) for _ in range(4)} | {1, len(members)})
        assert [select(s, k) for k in ks] == [members[k - 1] for k in ks], s
        if infinite:
            beyond = select(s, len(members) + 1)
            assert beyond > top and s.contains(beyond) and s.count(beyond) == len(members) + 1, s
        else:
            with pytest.raises(IndexBeyondSet):
                select(s, len(members) + 1)
        if infinite and segments is not None and rng.random() < 0.4:
            ref = bench_oracle.RefSet(bench_oracle.parse(s.to_expr(), "set"))
            far = s.count(1 << 64)
            for k in (far - 1, far, far + 1, rng.randrange(1, far)):
                n = select(s, k)
                assert ref.contains(n) and ref.count(n) == k, (s, k)
        finite_seen += not infinite
        infinite_seen += infinite
        departing += bool(departures)
        if segments is not None:
            # a segment up to b whose mask differs from the tail's only on residues it never reaches
            mask = _periodic_mask(tail, 1, segments.width)
            ends = segments.starts[1:] + [b + 1]
            unreached += any(
                pattern[2] != mask and not any(start <= n < end for n in departures)
                for pattern, start, end in zip(segments.patterns, segments.starts, ends)
                if start <= b
            )
    assert finite_seen >= 10 and infinite_seen >= 10 and departing >= 30 and unreached >= 10
    # some trees with opaque parts have a period, some do not
    assert len(opaque) - unknown >= 15 and unknown >= 15


# ---------------------------------------------------------------------------
# member runs
# ---------------------------------------------------------------------------

_runs_base = st.one_of(
    st.builds(
        lambda m, picks: periodic(m, {p % m for p in picks}),
        st.integers(2, 12),
        st.lists(st.integers(0, 11), min_size=1, max_size=5),
    ),
    st.builds(lambda xs: finite(*xs), st.lists(st.integers(1, 3000), max_size=10)),
    st.just(blocks_dexp()),
    st.builds(
        lambda lo, w, gap, w2: blocks_explicit([(lo, lo + w), (lo + w + gap, lo + w + gap + w2)]),
        st.integers(1, 2500), st.integers(1, 300), st.integers(0, 40), st.integers(1, 300),
    ),
)
_runs_leaf = st.one_of(_runs_base, st.builds(scale, _runs_base, st.integers(2, 4)))


def _runs_level(child):
    return st.one_of(
        st.builds(union, child, child),
        st.builds(inter, child, child),
        st.builds(diff, child, child),
        st.builds(compl, child),
        st.builds(scale, child, st.integers(2, 4)),
    )


_runs_tree = _runs_level(_runs_level(_runs_level(_runs_leaf)))


def _runs_of(members):
    runs = []
    for n in sorted(members):
        if runs and runs[-1][1] == n - 1:
            runs[-1] = (runs[-1][0], n)
        else:
            runs.append((n, n))
    return runs


def _subtrees(s):
    yield s
    for part in (getattr(s, "left", None), getattr(s, "right", None), getattr(s, "inner", None)):
        if part is not None:
            yield from _subtrees(part)


def _reads_windows_exactly(s):
    """Whether ``s`` is a leaf or a scaled leaf: its read inside windows
    fails only when its result passes the cap."""
    while isinstance(s, Scaled):
        s = s.inner
    return not isinstance(s, (Union, Intersect, Diff, Complement))


# the other part has 858 runs up to 3000, the result 78
@example(s=inter(blocks_dexp(), periodic(7, [1, 3])), horizon=3000, cap=64, window=blocks_dexp())
@example(s=diff(blocks_dexp(), periodic(7, [1, 3])), horizon=3000, cap=64, window=Full())
# the dropped part has 4 runs inside the kept part's 2, the result 2
@example(
    s=diff(blocks_explicit([(1, 4), (10, 13)]), blocks_explicit([(1, 2), (3, 11), (12, 13)])),
    horizon=20, cap=3, window=Full(),
)
# a run through residues 5, 0 and 1 begins in the period before 1 and before 12
@example(s=periodic(6, [0, 1, 5]), horizon=30, cap=64, window=blocks_explicit([(12, 20)]))
@given(s=_runs_tree, horizon=st.integers(1, 3000), cap=st.integers(1, 64), window=_runs_leaf)
@settings(max_examples=200, deadline=None)
def test_member_runs_match_brute_force_under_small_caps(s, horizon, cap, window):
    """Every subtree's runs, whole and inside the runs of ``window``, are the
    brute-force runs whenever they are not None, and never more than ``cap``.
    An intersection or a difference gives runs whenever the part it keeps and
    its result fit the cap and its other part is a leaf or a scaled leaf,
    however many runs that part has."""
    within = window.member_runs(horizon, 10**6)
    inside = brute_members(window, horizon)
    for node in _subtrees(s):
        members = brute_members(node, horizon)
        runs = node.member_runs(horizon, cap)
        if runs is not None:
            assert runs == _runs_of(members) and len(runs) <= cap, node
        clipped = node.member_runs(horizon, cap, within)
        if clipped is not None:
            assert clipped == _runs_of(members & inside) and len(clipped) <= cap, node
        if isinstance(node, (Intersect, Diff)):
            kept, other = node.left, node.right
            if isinstance(node, Intersect) and kept.member_runs(horizon, cap) is None:
                kept, other = other, kept
            fits = kept.member_runs(horizon, cap) is not None and len(_runs_of(members)) <= cap
            if fits and _reads_windows_exactly(other):
                assert runs is not None, node


@pytest.mark.parametrize("m", range(1, 8))
def test_periodic_member_runs_match_brute_force_over_three_periods(m):
    """Every residue set of modulus m, those with a run through m - 1 that goes on at 0 among
    them, gives the brute-force runs up to each horizon and inside each window of 3m."""
    wraps = 0
    for k in range(m + 1):
        for residues in itertools.combinations(range(m), k):
            s = Periodic(m, residues)
            wraps += 0 < k < m and residues[0] == 0 and residues[-1] == m - 1
            members = [n for n in range(1, 3 * m + 1) if n % m in residues]
            for horizon in range(1, 3 * m + 1):
                assert s.member_runs(horizon) == _runs_of(n for n in members if n <= horizon), (s, horizon)
                for lo in range(1, horizon + 1):
                    inside = [n for n in members if lo <= n <= horizon]
                    assert s.member_runs(horizon, within=[(lo, horizon)]) == _runs_of(inside), (s, lo, horizon)
    assert (wraps > 0) == (m > 2)


def test_an_intersection_reads_its_other_part_only_inside_the_part_it_keeps():
    s = inter(blocks_dexp(), periodic(7, [1, 3]))
    # periodic(7;1,3) alone has 2 * 10**6 // 7 runs, past the default cap
    assert periodic(7, [1, 3]).member_runs(10**6) is None
    runs = s.member_runs(10**6)
    assert len(runs) == 18802
    assert sum(hi - lo + 1 for lo, hi in runs) == s.count(10**6)
    # only when the members pass the cap does a scaled set give up
    t, members = scale(blocks_dexp(), 3), blocks_dexp().count(1000)
    assert len(t.member_runs(3000, cap=members)) == members
    assert t.member_runs(3000, cap=members - 1) is None


# ---------------------------------------------------------------------------
# segments
# ---------------------------------------------------------------------------


def _segment_leaf(rng):
    """A periodic, finite, explicit-block, dexp-block, full or empty leaf, or one scaled, or the
    complement of one scaled; full and empty leaves are kept as nodes, where the smart
    constructors would fold them away."""
    kind = rng.randrange(8)
    if kind == 0:
        m = rng.randrange(2, 9)
        return periodic(m, rng.sample(range(m), rng.randrange(1, m)))
    if kind == 1:
        return finite(*rng.sample(range(1, 200), rng.randrange(1, 7)))
    if kind == 2:
        ends = sorted(rng.sample(range(1, 300), 2 * rng.randrange(1, 4)))
        return blocks_explicit(zip(ends[::2], ends[1::2]))
    if kind == 3:
        return blocks_dexp()
    if kind == 4:
        return Full()
    if kind == 5:
        return Empty()
    inner = _segment_leaf(rng)
    return Scaled(rng.randrange(2, 5), Complement(inner) if kind == 6 else inner)


def _segment_tree(rng, depth):
    """A tree of ``depth`` levels of union, intersection, difference, complement and scaling
    over ``_segment_leaf``s, built from the node classes so that nothing folds."""
    if depth == 0:
        return _segment_leaf(rng)
    op = rng.randrange(5)
    if op == 3:
        return Complement(_segment_tree(rng, depth - 1))
    if op == 4:
        return Scaled(rng.randrange(2, 4), _segment_tree(rng, depth - 1))
    parts = [_segment_tree(rng, depth - 1), _segment_tree(rng, rng.randrange(depth))]
    rng.shuffle(parts)
    return (Union, Intersect, Diff)[op](*parts)


def _segment_trees(count):
    """(seed, depth) of ``count`` trees of depth 3 or 4 whose top is a union, intersection,
    difference or complement; ``_segment_tree(random.Random(seed), depth)`` rebuilds each."""
    found, seed = [], 0
    while len(found) < count:
        seed += 1
        depth = 3 + seed % 2
        if isinstance(_segment_tree(random.Random(seed), depth), (Union, Intersect, Diff, Complement)):
            found.append((seed, depth))
    return found


def _last_cut(leaves):
    """Past the last cut of the finite and explicit-block leaves and the third dexp interval."""
    top = 0
    for leaf, t in leaves:
        if isinstance(leaf, FiniteList):
            top = max(top, t * leaf.elements[-1] + 1)
        elif leaf.source.is_infinite():
            top = max(top, t * 511 + 1)
        else:
            top = max(top, t * (leaf.source.intervals[-1][1] - 1) + 1)
    return top


def test_segment_counts_match_brute_force_and_the_benchmark_oracle_up_to_two_to_the_64():
    rng = random.Random(13)
    dexp_seen = scaled_complements = 0
    for seed, depth in _segment_trees(40):
        s = _segment_tree(random.Random(seed), depth)
        form = _segments(s)
        assert form is not None, s
        # every n up to past the last cut plus one width, counted upwards
        top = _last_cut(form._leaves) + form.width + 10
        inside = brute_members(s, top)
        running = 0
        extends, extend = [], form._extend
        form._extend = lambda n: (extends.append(n), extend(n))
        for n in range(1, top + 1):
            running += n in inside
            assert s.count(n) == running, (s, n)
        # each extension reaches at least twice the top before it
        assert top <= form.top <= 2 * top and len(extends) <= top.bit_length(), s
        # a fresh tree counted far first, then back below its top
        s = _segment_tree(random.Random(seed), depth)
        ref = bench_oracle.RefSet(bench_oracle.parse(s.to_expr(), "set"))
        far = [rng.randrange(1, 1 << 64) for _ in range(8)] + [(1 << 64) - 1, 1 << 64, (1 << 32) + 1, 1 << 33]
        for n in far + [rng.randrange(1, 1 << 20) for _ in range(8)]:
            assert s.count(n) == ref.count(n), (s, n)
        assert _segments(s).top >= 1 << 64
        dexp_seen += any(isinstance(leaf, Blocks) and leaf.source.is_infinite() for leaf, _ in form._leaves)
        scaled_complements += _complement_under_a_factor(s)
    assert dexp_seen >= 15 and scaled_complements >= 10


def _complement_under_a_factor(s, scaled=False):
    if isinstance(s, Complement):
        return scaled or _complement_under_a_factor(s.inner, scaled)
    if isinstance(s, Scaled):
        return _complement_under_a_factor(s.inner, True)
    if isinstance(s, (Union, Intersect, Diff)):
        return _complement_under_a_factor(s.left, scaled) or _complement_under_a_factor(s.right, scaled)
    return False


def test_segments_fall_back_past_the_width_cap_and_at_a_predicate():
    wide = union(scale(blocks_dexp(), 3), periodic(1000003, [5]))
    assert _segments(wide) is None
    assert wide.count(10**4) == len(brute_members(wide, 10**4))
    with_rule = union(Predicate(lambda n: n % 5 == 0, 10**4), blocks_dexp())
    assert _segments(with_rule) is None
    assert with_rule.count(10**4) == len(brute_members(with_rule, 10**4))


def test_segments_count_nothing_below_one():
    # the last segment, past 100, counts 5 at its start; no n < 1 may be read in it
    segments = _segments(union(blocks_explicit([(5, 9)]), finite(100)))
    segments.count(1000)  # extends the segments to 1000 first
    assert [segments.count(n) for n in (-1, 0, 1, 5, 8, 100, 1000)] == [0, 0, 0, 1, 4, 5, 5]


def test_segments_extended_from_many_threads_count_as_one():
    def tree():
        rng = random.Random(4)
        points = finite(*rng.sample(range(1, 20000), 3000))
        ends = sorted(rng.sample(range(1, 7000), 600))
        return diff(union(points, scale(blocks_explicit(zip(ends[::2], ends[1::2])), 3)), periodic(5, [1, 2]))

    n_max = 20_000
    reference = tree()
    serial = [reference.count(n) for n in range(1, n_max + 1)]
    s = tree()
    results = [None] * 4
    start = threading.Barrier(4)

    def worker(i):
        start.wait(timeout=60)
        # each thread jumps ahead by its own stride, so the extensions race
        results[i] = [s.count(n) for n in range(1, n_max + 1, i + 1)]

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
    assert _segments(s) is not None
    assert results == [serial[:: i + 1] for i in range(4)]


def test_a_counted_tree_pickles_with_its_segments():
    s = diff(union(scale(periodic(4, [1]), 2), blocks_dexp()), union(finite(49, 708), periodic(10, [0, 3])))
    s.count(10**6)
    copy = pickle.loads(pickle.dumps(s))
    assert copy == s and _segments(copy) is not None
    assert [copy.count(n) for n in (10, 10**6, 2**64)] == [s.count(n) for n in (10, 10**6, 2**64)]
