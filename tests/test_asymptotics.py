import math
from bisect import bisect_left
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from densitylab.asymptotics import (
    All,
    Doubled,
    DoubleExponential,
    Explicit,
    Geometric,
    _extrema_by_scan,
    density,
    full_density_witness,
    limit_along,
    ratio_profile,
    statistical_limit,
)
from densitylab.errors import EnumerationBudgetExceeded, WitnessTooSparse
from densitylab.measure import equal_measure_test
from densitylab.nset import (
    Empty,
    Full,
    _metered,
    _segments,
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

from oracles import brute_members, dexp_count_enum, dexp_elements, scan_extrema, scan_tail_sup


def spike(n):
    """1 + 1/n off perfect squares, 5 on squares."""
    r = math.isqrt(n)
    return Fraction(5) if r * r == n else 1 + Fraction(1, n)


# ---------------------------------------------------------------------------
# index sequences
# ---------------------------------------------------------------------------


def test_sequence_points():
    assert list(All(4).points()) == [1, 2, 3, 4]
    assert list(Explicit((1, 5, 12)).points()) == [1, 5, 12]
    assert list(DoubleExponential(4).points()) == [4, 16, 256, 65536]
    assert list(Doubled(DoubleExponential(3)).points()) == [8, 32, 512]
    assert list(Geometric(2, 3, 4).points()) == [2, 6, 18, 54]


def test_sequence_validation():
    with pytest.raises(ValueError):
        Explicit((3, 3))
    with pytest.raises(ValueError):
        Explicit(())
    with pytest.raises(ValueError):
        Geometric(1, 1, 5)
    with pytest.raises(ValueError):
        All(0)


# ---------------------------------------------------------------------------
# ratio profiles and limits
# ---------------------------------------------------------------------------


def test_ratio_profile_exact():
    evens = periodic(2, [0])
    assert ratio_profile(evens, Explicit((2, 4, 10))) == [
        (2, Fraction(1, 2)),
        (4, Fraction(1, 2)),
        (10, Fraction(1, 2)),
    ]
    assert ratio_profile(blocks_dexp(), Explicit((511,))) == [(511, Fraction(276, 511))]
    assert all(v == 1 for _, v in ratio_profile(Full(), DoubleExponential(3)))


def test_limit_along_converged_periodic():
    rep = limit_along(periodic(2, [0]), DoubleExponential(5), Fraction(1, 10**6))
    assert rep.converged and rep.value == Fraction(1, 2)
    assert rep.achieved_tol == 0


def test_limit_along_dexp_block_values():
    rep = limit_along(blocks_dexp(), DoubleExponential(4), Fraction(1, 100))
    want = [
        Fraction(dexp_count_enum(n), n) for n in (4, 16, 256, 65536)
    ]
    assert list(rep.values) == want == [
        Fraction(1, 4),
        Fraction(5, 16),
        Fraction(21, 256),
        Fraction(277, 65536),
    ]
    # with a 2-point tail the oscillation 21/256 - 277/65536 exceeds 1e-2,
    # so the verdict stays honest: oscillating, trending to 0
    assert not rep.converged
    assert rep.tail_sup == Fraction(21, 256)
    assert rep.tail_inf == Fraction(277, 65536)


def test_limit_along_doubled_points_match_block_ends():
    rep = limit_along(blocks_dexp(), Doubled(DoubleExponential(4)), Fraction(1, 10))
    assert list(rep.values) == [
        Fraction(1, 2),
        Fraction(5, 8),
        Fraction(69, 128),
        Fraction(16453, 32768),
    ]


def test_limit_along_refuses_an_all_sequence_past_the_budget():
    s, tol = periodic(3, [1]), Fraction(1, 1000)
    with pytest.raises(EnumerationBudgetExceeded):
        limit_along(s, All(2001), tol, budget=2000)
    assert limit_along(s, All(2000), tol, budget=2000).points[-1] == 2000


def test_limit_along_without_a_budget_is_refused_before_it_scans():
    # no meter is open, so the scan is charged to a fresh meter of the default budget
    from densitylab.nset import DEFAULT_ENUMERATION_BUDGET, Predicate

    seen = []
    s = Predicate(rule=seen.append, enumeration_cap=2 * DEFAULT_ENUMERATION_BUDGET, label="seen")
    with pytest.raises(EnumerationBudgetExceeded):
        limit_along(s, All(DEFAULT_ENUMERATION_BUDGET + 1), Fraction(1, 1000))
    assert seen == []


def test_limit_along_streams_dense_sequences():
    rep = limit_along(periodic(3, [0]), All(50000), Fraction(1, 1000))
    assert rep.sampled
    assert rep.converged
    assert rep.value == Fraction(16666, 50000)
    assert rep.points[-1] == 50000


def test_limit_report_determinism():
    a = union(blocks_dexp(), periodic(7, [3]))
    r1 = limit_along(a, Geometric(1, 2, 15), Fraction(1, 100))
    r2 = limit_along(a, Geometric(1, 2, 15), Fraction(1, 100))
    assert r1 == r2


# ---------------------------------------------------------------------------
# density reports
# ---------------------------------------------------------------------------


def test_density_closed_forms():
    r = density(periodic(4, [1, 2, 3]), 10**5, 10**4)
    assert r.exact_value == Fraction(3, 4)
    assert r.lower_estimate - Fraction(1, 1000) <= r.exact_value <= r.upper_estimate + Fraction(1, 1000)
    assert density(scale(periodic(1, [0]), 2), 10**5, 10**4).exact_value == Fraction(1, 2)
    assert density(finite(3, 9), 100, 10).exact_value == 0


def test_density_window_extrema_match_full_scan():
    a = blocks_dexp()
    lo, hi = 1 << 10, 1 << 17
    r = density(a, hi, lo)
    best_min = best_max = None
    c = dexp_count_enum(lo - 1)
    elems = set()
    i = 1
    while 2 ** (2**i) <= hi:
        start = 2 ** (2**i)
        elems.update(range(start, min(2 * start, hi + 1)))
        i += 1
    for n in range(lo, hi + 1):
        if n in elems:
            c += 1
        v = Fraction(c, n)
        if best_min is None or v < best_min:
            best_min = v
        if best_max is None or v > best_max:
            best_max = v
    assert r.lower_estimate == best_min == Fraction(276, 65535)
    assert r.upper_estimate == best_max == Fraction(65812, 131071)


_leaf = st.one_of(
    st.builds(
        lambda m, picks: periodic(m, {p % m for p in picks}),
        st.integers(2, 12),
        st.lists(st.integers(0, 11), min_size=1, max_size=5),
    ),
    st.builds(lambda xs: finite(*xs), st.lists(st.integers(1, 3000), max_size=10)),
    st.just(blocks_dexp()),
    st.builds(
        lambda lo, w: blocks_explicit([(lo, lo + w)]), st.integers(1, 2500), st.integers(1, 400)
    ),
)


def _level(child):
    return st.one_of(
        st.builds(union, child, child),
        st.builds(inter, child, child),
        st.builds(diff, child, child),
        st.builds(compl, child),
        st.builds(scale, child, st.integers(2, 4)),
    )


_depth3_tree = _level(_level(_level(_leaf)))


@given(s=_depth3_tree, horizon=st.integers(2, 3000), data=st.data())
@settings(max_examples=150, deadline=None)
def test_density_run_path_matches_integer_scan_on_deep_trees(s, horizon, data):
    start = data.draw(st.integers(1, horizon - 1))
    r = density(s, horizon, start)
    if r.grid != "window-extrema-via-runs":
        return
    mn, mx = _extrema_by_scan(s, start, horizon)
    assert (r.lower_estimate, r.argmin) == (Fraction(*mn), mn[1])
    assert (r.upper_estimate, r.argmax) == (Fraction(*mx), mx[1])


def _window_start(data, horizon: int, pick) -> int:
    """A window start in [1, horizon) with pick(start) true, or the example
    is dropped when there is none."""
    pool = [n for n in range(1, horizon) if pick(n)]
    assume(pool)
    return data.draw(st.sampled_from(pool))


@given(s=_depth3_tree, horizon=st.integers(2, 3000), at_member=st.booleans(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_window_scan_matches_two_comparison_reference(s, horizon, at_member, data):
    members = brute_members(s, horizon)
    start = _window_start(data, horizon, lambda n: (n in members) == at_member)
    assert _extrema_by_scan(s, start, horizon) == scan_extrema(s, start, horizon)


# scaled periodic leaves give moduli up to 60, and two sides an lcm past both
# moduli, so that stretches longer than twice the lcm occur at these horizons
_scaled_periodic = st.builds(
    lambda t, m, picks: scale(periodic(m, {p % m for p in picks}), t),
    st.integers(2, 5),
    st.integers(2, 12),
    st.lists(st.integers(0, 11), min_size=1, max_size=5),
)
# scaled dexp, finite and explicit-block leaves cut their trees' segments at multiples of the
# factor, and their widths at the factor
_scaled_leaf = st.builds(scale, _leaf, st.integers(2, 4))
_equal_side = st.one_of(
    _depth3_tree,
    _scaled_periodic,
    _level(st.one_of(_leaf, _scaled_periodic)),
    _level(_level(_level(st.one_of(_leaf, _scaled_leaf)))),
)


@given(
    a=_equal_side, b=_equal_side, horizon=st.integers(2, 3000),
    where=st.sampled_from(["one-sided", "two-sided", "mid-stretch"]), pick=st.integers(1, 3000),
)
# moduli 25 and 16: the sup lies past the first max(25, 16) points of a stretch
@example(
    a=scale(periodic(5, [0, 2]), 5), b=union(scale(periodic(4, [1, 2]), 4), finite(95, 251, 593)),
    horizon=550, where="one-sided", pick=250,
)
# the sup lies among the last points of the stretch that the window cuts
@example(
    a=scale(periodic(6, [0, 2]), 2), b=union(scale(periodic(2, [0]), 4), finite(41, 118, 193)),
    horizon=590, where="mid-stretch", pick=432,
)
# only B's cuts bound the stretch [500, 599] that holds the sup
@example(
    a=periodic(3, [0]), b=union(periodic(3, [0]), blocks_explicit([(500, 600)])),
    horizon=3000, where="two-sided", pick=1,
)
@settings(max_examples=150, deadline=None)
def test_equal_tail_sup_matches_two_comparison_reference(a, b, horizon, where, pick):
    """The window starts at the first point from ``pick`` on where exactly one
    set is a member, or both or neither, or where neither set starts a
    segment, so that the window cuts a stretch."""
    sides = _segments(a), _segments(b)
    if where == "mid-stretch":
        assume(None not in sides)
        for side in sides:
            side.count(horizon)  # extends the segments to the horizon
        cuts = {c for side in sides for c in side.starts}
        pool = [n for n in range(2, horizon) if n not in cuts]
    else:
        ma, mb = brute_members(a, horizon), brute_members(b, horizon)
        one_sided = where == "one-sided"
        pool = [n for n in range(1, horizon) if ((n in ma) != (n in mb)) == one_sided]
    assume(pool)
    start = pool[min(bisect_left(pool, pick), len(pool) - 1)]
    rep = equal_measure_test(a, b, [], horizon=horizon, tail_window_start=start)
    assert rep.tail_sup_diff == scan_tail_sup(a, b, start, horizon)
    assert rep.grid == ("integer-scan" if None in sides else "window-extrema-via-pieces")


@pytest.mark.parametrize(
    "s, lo, hi",
    [
        (Full(), 5, 50),  # ties everywhere: the first point holds both extrema
        (finite(1, 2, 3), 10, 40),  # the greatest ratio only at the first point
        (finite(50), 5, 40),  # A(n) = 0 across the window: the least ratio ties
        (periodic(3, [0]), 9, 60),  # starts at a member
        (periodic(3, [0]), 10, 60),  # starts at a non-member
        (blocks_dexp(), 16, 600),
    ],
)
def test_window_scan_keeps_first_point_and_first_tie(s, lo, hi):
    assert _extrema_by_scan(s, lo, hi) == scan_extrema(s, lo, hi)


def test_equal_tail_sup_at_the_first_window_point():
    # |A(n) - B(n)| stays 3 past the window start, so only n = 10 holds the sup
    rep = equal_measure_test(finite(1, 2, 3), Empty(), [], horizon=40, tail_window_start=10)
    assert rep.tail_sup_diff == Fraction(3, 10)


def test_density_at_a_million_reads_runs_where_a_part_has_too_many():
    # periodic(7;1,3) alone has more runs than the cap; read inside the four
    # blocks up to 10^6 it has 18802
    s = inter(blocks_dexp(), periodic(7, [1, 3]))
    r = density(s, 10**6, 10**5)
    assert r.grid == "window-extrema-via-runs"
    mn, mx = _extrema_by_scan(s, 10**5, 10**6)
    assert (r.lower_estimate, r.argmin) == (Fraction(*mn), mn[1])
    assert (r.upper_estimate, r.argmax) == (Fraction(*mx), mx[1])
    # a union of a sparse part and a dense one keeps every run of each
    u = union(scale(blocks_dexp(), 3), periodic(1000003, [5]))
    assert u.member_runs(10**6) == [(5, 5)] + [(3 * a, 3 * a) for a in dexp_elements(10**6 // 3)]


def test_density_scan_grid_for_opaque_sets():
    from densitylab.nset import Predicate

    p = Predicate(rule=lambda k: k % 5 < 2, enumeration_cap=3000, label="head")
    r = density(p, 2000, 200)
    assert r.grid == "integer-scan"
    assert abs(r.upper_estimate - Fraction(2, 5)) < Fraction(1, 50)


def test_density_validation():
    with pytest.raises(ValueError):
        density(periodic(2, [0]), 100, 100)


# ---------------------------------------------------------------------------
# statistical convergence
# ---------------------------------------------------------------------------


def test_statistical_limit_constant():
    rep = statistical_limit(lambda n: Fraction(3), Fraction(3), [Fraction(1, 10)], Explicit((10, 100)))
    assert rep.convergent
    assert all(v == 0 for row in rep.rows for _, v in row.densities)


def test_statistical_limit_spike_counts():
    rep = statistical_limit(spike, Fraction(1), [Fraction(1, 10)], Explicit((10**4,)))
    # exceptions: the 100 squares plus the prefix n <= 10 where 1/n >= 1/10
    count = sum(1 for k in range(1, 10**4 + 1) if abs(spike(k) - 1) >= Fraction(1, 10))
    got = rep.rows[0].densities[0][1]
    assert got == Fraction(count, 10**4)
    assert got <= Fraction(110, 10**4)


def test_statistical_limit_identity_ratio():
    rep = statistical_limit(
        lambda n: Fraction(n, n), Fraction(1), [Fraction(1, 100)], Explicit((100, 1000))
    )
    assert rep.convergent


def test_statistical_verdict_ignores_density_zero_modification():
    bumped = {17, 100, 4096}
    def modified(n):
        return Fraction(99) if n in bumped else spike(n)

    grid = [Fraction(1, 10), Fraction(1, 50)]
    pts = Explicit((1000, 10**4))
    base = statistical_limit(spike, Fraction(1), grid, pts)
    mod = statistical_limit(modified, Fraction(1), grid, pts)
    assert base.convergent == mod.convergent


# ---------------------------------------------------------------------------
# witness extraction
# ---------------------------------------------------------------------------


def test_witness_constant_sequence():
    rep = full_density_witness(lambda n: Fraction(7), Fraction(7), 100, [Fraction(1, 10)])
    assert rep.ratio == 1
    assert rep.witness.elements == tuple(range(1, 101))


def test_witness_spike_sequence():
    rep = full_density_witness(
        spike,
        Fraction(1),
        10**4,
        [Fraction(1, 2), Fraction(1, 10), Fraction(1, 20), Fraction(1, 100)],
    )
    assert rep.ratio >= Fraction(98, 100)
    assert rep.max_tail_deviation < Fraction(1, 100)
    # along the witness, every stage obeys its epsilon
    stage_of = {k: eps for lo, hi, eps in rep.stages for k in range(lo, hi + 1)}
    for k in rep.witness.elements:
        assert abs(spike(k) - 1) < stage_of[k]


def test_witness_alternating_sequence_too_sparse():
    with pytest.raises(WitnessTooSparse):
        full_density_witness(
            lambda n: Fraction(1 if n % 2 == 0 else -1), Fraction(1), 10**4, [Fraction(1, 10)]
        )


def test_witness_scan_is_charged_to_the_meter_before_x_is_read():
    seen = []

    def x(n):
        seen.append(n)
        return Fraction(0)

    with _metered(1000):
        with pytest.raises(EnumerationBudgetExceeded):
            full_density_witness(x, Fraction(0), 1001, [Fraction(1, 10)])
    assert seen == []
    with _metered(1000):
        assert full_density_witness(x, Fraction(0), 1000, [Fraction(1, 10)]).ratio == 1
    assert seen == list(range(1, 1001))


def test_witness_validation():
    with pytest.raises(ValueError):
        full_density_witness(lambda n: Fraction(0), Fraction(0), 5, [Fraction(1, 10)])
    with pytest.raises(ValueError):
        full_density_witness(lambda n: Fraction(0), Fraction(0), 100, [])
    with pytest.raises(ValueError):
        full_density_witness(lambda n: Fraction(0), Fraction(0), 100, [Fraction(1, 10), Fraction(1, 5)])


# ---------------------------------------------------------------------------
# profile invariants
# ---------------------------------------------------------------------------


@given(
    m=st.integers(2, 9),
    r=st.integers(0, 8),
    exp=st.integers(4, 14),
)
@settings(max_examples=40, deadline=None)
def test_periodic_limit_converges_past_m_over_tol(m, r, exp):
    s = periodic(m, [r % m])
    tol = Fraction(1, 2**exp)
    seq = Geometric(max(2, (m * 2**exp)), 2, 6)  # points beyond m/tol
    rep = limit_along(s, seq, tol)
    assert rep.converged
    assert abs(rep.value - Fraction(1, m)) <= tol


@given(n=st.integers(1, 10**4))
@settings(max_examples=60, deadline=None)
def test_profile_sandwich_consequence(n):
    a = blocks_dexp()
    r1 = Fraction(a.count(n), n)
    r2 = Fraction(a.count(2 * n), 2 * n)
    assert r1 / 2 <= r2 <= Fraction(1, 2) + r1 / 2
