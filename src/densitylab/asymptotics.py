"""Density functionals and limits along declared index subsequences.

A free ultrafilter is not a computable object, so every "limit along F"
here is downgraded to *limit behaviour along a declared IndexSequence* at a
finite horizon, with an explicit tolerance.  Every verdict reads the same
tail, the last ceil(n/2) of its n points (``_tail_len``), and statistical
convergence allows the same slack, ``_SLACK``.  All reported ratios are
exact rationals; verdicts are finite-horizon heuristics and say so.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, islice
from math import ceil, lcm
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .errors import WitnessTooSparse
from .nset import FiniteList, SymbolicSet, _charge, _metered, _segments

# Reports keep at most this many profile points; longer evaluations are
# decimated for storage (verdicts are still computed over every point).
_PROFILE_CAP = 4096

# The largest exception density a statistically convergent row may keep
# over its tail.
_SLACK = Fraction(1, 100)


# ---------------------------------------------------------------------------
# index sequences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IndexSequence:
    """Strictly increasing evaluation points; the ultrafilter surrogate."""

    def points(self) -> Sequence[int]:
        raise NotImplementedError

    def to_expr(self) -> str:
        raise NotImplementedError

    def __str__(self) -> str:
        return self.to_expr()

    def __len__(self) -> int:
        return len(self.points())


@dataclass(frozen=True)
class All(IndexSequence):
    horizon: int

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")

    def points(self):
        return range(1, self.horizon + 1)

    def to_expr(self):
        return f"all({self.horizon})"


@dataclass(frozen=True)
class Explicit(IndexSequence):
    values: tuple[int, ...]

    def __post_init__(self):
        prev = 0
        for v in self.values:
            if v <= prev:
                raise ValueError("points must be strictly increasing and >= 1")
            prev = v
        if not self.values:
            raise ValueError("sequence must be nonempty")

    def points(self):
        return self.values

    def to_expr(self):
        return "explicit(" + ",".join(map(str, self.values)) + ")"


@dataclass(frozen=True)
class DoubleExponential(IndexSequence):
    """Points 2^(2^i) for i = 1 .. terms."""

    terms: int

    def __post_init__(self):
        if self.terms < 1:
            raise ValueError("terms must be >= 1")

    def points(self):
        return tuple(1 << (1 << i) for i in range(1, self.terms + 1))

    def to_expr(self):
        return f"dexp({self.terms})"


@dataclass(frozen=True)
class Doubled(IndexSequence):
    inner: IndexSequence

    def points(self):
        return tuple(2 * p for p in self.inner.points())

    def to_expr(self):
        return f"doubled({self.inner.to_expr()})"


@dataclass(frozen=True)
class Geometric(IndexSequence):
    first: int
    ratio: int
    terms: int

    def __post_init__(self):
        if self.first < 1 or self.ratio < 2 or self.terms < 1:
            raise ValueError("need first >= 1, integer ratio >= 2, terms >= 1")

    def points(self):
        return tuple(self.first * self.ratio**j for j in range(self.terms))

    def to_expr(self):
        return f"geom({self.first},{self.ratio},{self.terms})"


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LimitReport:
    """Sampled A(n)/n profile with a convergence-or-oscillation verdict.

    ``converged`` means the exact oscillation (tail sup minus tail inf) over
    the trailing ``tail_window`` points is <= ``tol``; the reported value is
    then the value at the last evaluation point, which any tail point matches
    up to ``tol``.  This is finite-horizon evidence, never a limit proof.
    """

    sequence: str
    points: tuple[int, ...]
    values: tuple[Fraction, ...]
    sampled: bool
    tail_window: int
    tol: Fraction
    converged: bool
    value: Optional[Fraction]
    achieved_tol: Optional[Fraction]
    tail_inf: Fraction
    tail_sup: Fraction

    @property
    def verdict(self) -> str:
        return "converged" if self.converged else "oscillating"


@dataclass(frozen=True)
class DensityReport:
    lower_estimate: Fraction
    upper_estimate: Fraction
    exact_value: Optional[Fraction]
    horizon: int
    tail_window_start: int
    argmin: int
    argmax: int
    grid: str


@dataclass(frozen=True)
class StatRow:
    eps: Fraction
    densities: tuple[tuple[int, Fraction], ...]
    tail_max: Fraction


@dataclass(frozen=True)
class StatReport:
    """Per-epsilon exception densities |{k <= n : |x_k - L| >= eps}| / n."""

    target: Fraction
    checkpoints: tuple[int, ...]
    rows: tuple[StatRow, ...]
    slack: Fraction
    tail_window: int
    convergent: bool


@dataclass(frozen=True)
class WitnessReport:
    witness: FiniteList
    ratio: Fraction
    horizon: int
    stages: tuple[tuple[int, int, Fraction], ...]
    removed: int
    max_tail_deviation: Fraction


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def _tail_len(n_points: int) -> int:
    """The number of trailing points every verdict reads: ceil(n_points / 2)."""
    return ceil(n_points / 2)


def ratio_profile(
    s: SymbolicSet, seq: IndexSequence, budget: Optional[int] = None
) -> list[tuple[int, Fraction]]:
    """Exact (n, A(n)/n) at every point of ``seq``."""
    with _metered(budget):
        return [(n, Fraction(s.count(n), n)) for n in seq.points()]


def _counts_along(s: SymbolicSet, seq: IndexSequence, first: int = 0) -> Iterator[int]:
    """A(n) at the points of ``seq`` from its ``first``-th on.  For ``All``, the running sum of
    ``contains`` over every integer from 1, charged to the meter first; otherwise ``count(n)`` at
    those points alone."""
    pts = seq.points()
    if isinstance(seq, All):
        _charge(len(pts), len(pts), "per-integer limit scan")
        return islice(accumulate(map(s.contains, pts), initial=0), first + 1, None)
    return map(s.count, pts[first:])


def limit_along(
    s: SymbolicSet,
    seq: IndexSequence,
    tol: Fraction,
    budget: Optional[int] = None,
) -> LimitReport:
    """Evaluate A(n)/n along ``seq`` and judge tail oscillation against ``tol``."""
    with _metered(budget):
        pts = seq.points()
        total = len(pts)
        if total == 0:
            raise ValueError("index sequence must be nonempty")
        tail = _tail_len(total)
        tail_from = total - tail
        keep_every = 1 if total <= _PROFILE_CAP else ceil(total / _PROFILE_CAP)

        kept_pts: list[int] = []
        kept_vals: list[Fraction] = []
        inf_n = inf_d = sup_n = sup_d = None
        last: tuple[int, int] = (0, 1)
        for idx, (n, c) in enumerate(zip(pts, _counts_along(s, seq))):
            last = (c, n)
            if idx % keep_every == 0 or idx == total - 1:
                kept_pts.append(n)
                kept_vals.append(Fraction(c, n))
            if idx >= tail_from:
                if inf_n is None or c * inf_d < inf_n * n:
                    inf_n, inf_d = c, n
                if sup_n is None or c * sup_d > sup_n * n:
                    sup_n, sup_d = c, n

        tail_inf = Fraction(inf_n, inf_d)
        tail_sup = Fraction(sup_n, sup_d)
        osc = tail_sup - tail_inf
        converged = osc <= tol
        return LimitReport(
            sequence=seq.to_expr(),
            points=tuple(kept_pts),
            values=tuple(kept_vals),
            sampled=keep_every > 1,
            tail_window=tail,
            tol=tol,
            converged=converged,
            value=Fraction(*last) if converged else None,
            achieved_tol=osc if converged else None,
            tail_inf=tail_inf,
            tail_sup=tail_sup,
        )


def _checkpoint_ranges(points: Iterable[int], start: int = 1) -> Iterator[range]:
    """Ranges [start, p_1], [p_1 + 1, p_2], ... for strictly increasing points
    >= start: a scan loops over each block and reads its running totals at
    the block's last element, the checkpoint."""
    for p in points:
        yield range(start, p + 1)
        start = p + 1


def _running_sums(term: Callable[[int], int], points: Sequence[int]) -> list[int]:
    """The sum of ``term(k)`` over 1 <= k <= p at each of the strictly
    increasing ``points`` p: the one scan of every integer that the Lévy
    diagnostics fall back to, summed block by block, and charged first."""
    _charge(points[-1], points[-1], "integer scan")
    return list(accumulate(sum(map(term, block)) for block in _checkpoint_ranges(points)))


def _ratio_extrema(
    pairs: Iterable[tuple[int, int]]
) -> tuple[tuple[int, int], tuple[int, int]]:
    """The first (c, n) attaining the least c/n and the first attaining the
    greatest, over nonempty pairs with n > 0, by cross-multiplication."""
    it = iter(pairs)
    mn = mx = next(it)
    for c, n in it:
        if c * mn[1] < mn[0] * n:
            mn = (c, n)
        elif c * mx[1] > mx[0] * n:
            mx = (c, n)
    return mn, mx


def _stretch_points(
    a: SymbolicSet, b: SymbolicSet, lo: int, hi: int
) -> tuple[str, Iterator[tuple[int, int]]]:
    """(grid, points): (D(n), n) for D(n) = A(n) - B(n) at the points of [lo, hi] that can hold an
    extremum of |D(n)|/n, in increasing n.

    The cuts of both sets' segments (``nset._segments``) cut [1, hi] into stretches, and on
    each stretch each set is a periodic set of its segments' width.  For L the lcm of the two
    widths, D(n + L) - D(n) is then constant while n and n + L lie in one stretch, so along each
    phase n, n + L, n + 2L, ... D(n)/n is monotone (or constant) and |D(n)|/n is greatest at an
    end.  Hence the first L and the last L points of each stretch in the window hold the extrema
    over the stretch, and the first point attaining each of them; a stretch shorter than 2L is
    read whole.  The grid is then ``window-extrema-via-pieces``.  When either set has no
    segments, [lo, hi] is one stretch, read whole, and the grid is ``integer-scan``.  Each read is
    charged to the meter by its number of points, then D is counted at its start and carried
    by the two sets' ``contains``.
    """
    sa, sb = _segments(a), _segments(b)
    if sa is None or sb is None:  # no cuts, and a span that reads the one stretch whole
        grid, cuts, span = "integer-scan", (), hi
        count_a, count_b = a.count, b.count
    else:
        sa.count(hi), sb.count(hi)  # extends the segments to hi
        grid, cuts, span = "window-extrema-via-pieces", chain(sa.starts, sb.starts), lcm(sa.width, sb.width)
        count_a, count_b = sa.count, sb.count
    starts = [lo, *sorted({c for c in cuts if lo < c <= hi})]
    ends = [c - 1 for c in starts[1:]] + [hi]

    def points() -> Iterator[tuple[int, int]]:
        for first, last in zip(starts, ends):
            reads = (
                ((first, last),) if last - first < 2 * span else ((first, first + span - 1), (last - span + 1, last))
            )
            for x, z in reads:
                _charge(z - x + 1, hi, "difference walk")
                d = count_a(x - 1) - count_b(x - 1)
                for n in range(x, z + 1):
                    d += a.contains(n) - b.contains(n)
                    yield d, n

    return grid, points()


def _extrema_by_scan(s: SymbolicSet, lo: int, hi: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The first (A(n), n) attaining the least A(n)/n over [lo, hi] and the
    first attaining the greatest, by a scan of every integer.

    A(n)/n cannot fall at a member nor rise at a non-member, so past lo each
    integer is compared with one extremum only.
    """
    _charge(hi - lo + 1, hi, "window scan")
    contains = s.contains
    c = s.count(lo - 1)
    if contains(lo):
        c += 1
    min_c = max_c = c
    min_n = max_n = lo
    for n in range(lo + 1, hi + 1):
        if contains(n):
            c += 1
            if c * max_n > max_c * n:
                max_c, max_n = c, n
        elif c * min_n < min_c * n:
            min_c, min_n = c, n
    return (min_c, min_n), (max_c, max_n)


def _extrema_by_runs(
    runs: list[tuple[int, int]], lo: int, hi: int
) -> tuple[tuple[int, int], tuple[int, int]]:
    """``_extrema_by_scan`` for the set whose member runs on [1, hi] are ``runs``.

    A(n)/n cannot fall at a member nor rise at a non-member, so past lo the
    first point attaining the least ratio lies just before a run or is hi,
    and the first attaining the greatest ends a run: the scan's answer, read
    in one pass over the runs past lo, with the run through lo cut at lo.
    """
    i = bisect_right(runs, lo, key=itemgetter(1))  # the runs that end at or before lo
    c = sum(map(itemgetter(1), islice(runs, i))) - sum(map(itemgetter(0), islice(runs, i))) + i
    later = islice(runs, i, None)
    if i < len(runs) and runs[i][0] <= lo:  # the run through lo, cut at lo
        c += lo - runs[i][0] + 1
        later = chain(((lo + 1, runs[i][1]),), islice(runs, i + 1, None))
    lc, ln = hc, hn = c, lo
    for a, b in later:  # c is A(a - 1)
        if c * ln < lc * (a - 1):
            lc, ln = c, a - 1
        c += b - a + 1
        if c * hn > hc * b:
            hc, hn = c, b
    if c * ln < lc * hi:
        lc, ln = c, hi
    return (lc, ln), (hc, hn)


def density(
    s: SymbolicSet,
    horizon: int,
    tail_window_start: int,
    budget: Optional[int] = None,
) -> DensityReport:
    """Estimate lower/upper asymptotic density over [tail_window_start, horizon].

    The ``grid`` of the report says how the estimates were found:

    * ``window-extrema-via-runs`` -- the exact inf/sup of A(n)/n over every
      integer in the window, read from the set's member runs in one pass
      over the runs past the window start.  The runs cost per run of the
      result and of the part each intersection or difference keeps, whose
      other part is read only inside the kept runs; a union reads both its
      parts whole (``SymbolicSet.member_runs``);
    * ``integer-scan`` -- the same exact inf/sup, by a scan of the window
      charged to the meter;
    * ``geometric-sample`` -- for a set with a closed-form density and no
      cheap run decomposition: the inf/sup over a geometric sample of the
      window, which only brackets the extrema.

    ``exact_value`` is filled in whenever the set has a closed-form density.
    """
    with _metered(budget):
        if not 1 <= tail_window_start < horizon:
            raise ValueError("need 1 <= tail_window_start < horizon")
        exact = s.exact_density()
        runs = s.member_runs(horizon)
        if runs is not None:
            mn, mx = _extrema_by_runs(runs, tail_window_start, horizon)
            grid = "window-extrema-via-runs"
        elif exact is not None:
            q = horizon // tail_window_start
            pts = [tail_window_start << j for j in range(q.bit_length())] + [horizon]
            mn, mx = _ratio_extrema((s.count(n), n) for n in pts)
            grid = "geometric-sample"
        else:
            (mn, mx) = _extrema_by_scan(s, tail_window_start, horizon)
            grid = "integer-scan"
        return DensityReport(
            lower_estimate=Fraction(*mn),
            upper_estimate=Fraction(*mx),
            exact_value=exact,
            horizon=horizon,
            tail_window_start=tail_window_start,
            argmin=mn[1],
            argmax=mx[1],
            grid=grid,
        )


def _as_ratio(v) -> tuple[int, int]:
    """(numerator, denominator) of anything ``Fraction`` accepts, building a
    ``Fraction`` only for values that are not already rational."""
    try:
        return v.numerator, v.denominator
    except AttributeError:
        v = Fraction(v)
        return v.numerator, v.denominator


def _deviation(p: int, q: int, tn: int, td: int) -> tuple[int, int]:
    """|p/q - tn/td| as an unreduced (numerator, denominator) pair, for q, td > 0."""
    return abs(p * td - tn * q), q * td


def _at_least(dev: tuple[int, int], eps: tuple[int, int]) -> bool:
    """dev >= eps for (numerator, positive denominator) pairs, by cross-multiplication."""
    return dev[0] * eps[1] >= eps[0] * dev[1]


def statistical_limit(
    x: Callable[[int], Fraction],
    target: Fraction,
    eps_grid: Sequence[Fraction],
    checkpoints: IndexSequence,
) -> StatReport:
    """Exception-density table for statistical convergence of x to ``target``.

    For each eps the exception set is {k : |x_k - target| >= eps}; the table
    reports its exact counting ratio at every checkpoint.  The verdict is
    "convergent at this tolerance profile" when every eps-row's tail stays
    within ``_SLACK``.
    """
    return _stat_table(lambda k: _as_ratio(x(k)), target, eps_grid, checkpoints, _SLACK)


def _positive_eps(eps_grid: Sequence[Fraction]) -> list[Fraction]:
    eps_list = [Fraction(e) for e in eps_grid]
    if any(e <= 0 for e in eps_list):
        raise ValueError("eps grid must be positive")
    return eps_list


def _stat_table(
    term: Callable[[int], tuple[int, int]],
    target: Fraction,
    eps_grid: Sequence[Fraction],
    checkpoints: IndexSequence,
    slack: Fraction,
) -> StatReport:
    """``statistical_limit`` for x_k = p/q given as ``term(k) == (p, q)``, q > 0.

    The scan is integer-only, and charged first: a ``Fraction`` is built only at checkpoints.
    """
    eps_list = _positive_eps(eps_grid)
    pts = list(checkpoints.points())
    _charge(pts[-1], pts[-1], "ratio-statistic scan")
    target = Fraction(target)
    tn, td = target.numerator, target.denominator
    eps_pairs = [(e.numerator, e.denominator) for e in eps_list]
    counters = [0] * len(eps_list)
    counts: list[list[int]] = [[] for _ in eps_list]
    for block in _checkpoint_ranges(pts):
        for k in block:
            dev = _deviation(*term(k), tn, td)
            if dev[0]:  # every eps is positive, so a zero deviation is no exception
                for j, e in enumerate(eps_pairs):
                    if _at_least(dev, e):
                        counters[j] += 1
        for row, c in zip(counts, counters):
            row.append(c)
    return _stat_report(target, eps_list, pts, counts, slack)


def _stat_report(
    target: Fraction,
    eps_list: Sequence[Fraction],
    pts: Sequence[int],
    counts: Sequence[Sequence[int]],
    slack: Fraction,
) -> StatReport:
    """The table for exception counts ``counts[j][i]`` of ``eps_list[j]`` at
    ``pts[i]``."""
    tail = _tail_len(len(pts))
    rows = []
    for e, row in zip(eps_list, counts):
        dens = tuple(zip(pts, map(Fraction, row, pts)))
        tail_max = max(v for _, v in dens[-tail:])
        rows.append(StatRow(eps=e, densities=dens, tail_max=tail_max))
    return StatReport(
        target=target,
        checkpoints=tuple(pts),
        rows=tuple(rows),
        slack=slack,
        tail_window=tail,
        convergent=all(r.tail_max <= slack for r in rows),
    )


def full_density_witness(
    x: Callable[[int], Fraction],
    target: Fraction,
    horizon: int,
    eps_schedule: Sequence[Fraction],
) -> WitnessReport:
    """Extract an index set of counting ratio near 1 along which x -> target.

    [1, horizon] is partitioned into stages ending at the powers of 10;
    within stage j the indices with |x_k - target| >= eps_j are discarded.
    Raises WitnessTooSparse when the witness ratio falls below 9/10 (the
    sequence is then not statistically convergent to ``target`` at this
    profile).  The scan of [1, horizon] is charged to the meter before x is
    read.
    """
    if horizon < 10:
        raise ValueError("horizon must be >= 10")
    schedule = [Fraction(e) for e in eps_schedule]
    if not schedule or any(
        b >= a for a, b in zip(schedule, schedule[1:])
    ) or any(e <= 0 for e in schedule):
        raise ValueError("eps schedule must be nonempty, positive, decreasing")
    target = Fraction(target)
    tn, td = target.numerator, target.denominator

    bounds = []
    b = 10
    while b < horizon:
        bounds.append(b)
        b *= 10
    bounds.append(horizon)

    stages: list[tuple[int, int, Fraction]] = []
    lo = 1
    for j, hi in enumerate(bounds):
        eps = schedule[min(j, len(schedule) - 1)]
        stages.append((lo, hi, eps))
        lo = hi + 1

    _charge(horizon, horizon, "witness scan")
    kept: list[int] = []
    tail_max = (0, 1)  # largest kept deviation in the last stage
    last_lo = stages[-1][0]
    for lo, hi, eps in stages:
        bound = (eps.numerator, eps.denominator)
        for k in range(lo, hi + 1):
            dev = _deviation(*_as_ratio(x(k)), tn, td)
            if not _at_least(dev, bound):
                kept.append(k)
                if k >= last_lo and not _at_least(tail_max, dev):
                    tail_max = dev
    ratio = Fraction(len(kept), horizon)
    if ratio < Fraction(9, 10):
        raise WitnessTooSparse(ratio, Fraction(9, 10))
    return WitnessReport(
        witness=FiniteList(tuple(kept)),
        ratio=ratio,
        horizon=horizon,
        stages=tuple(stages),
        removed=horizon - len(kept),
        max_tail_deviation=Fraction(*tail_max),
    )
