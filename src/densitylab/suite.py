"""The counterexample suite around the double-exponential block set.

Let A be the union of the blocks [2^(2^i), 2*2^(2^i)).  Along the points
n_i = 2^(2^i) the combination measure 2*(limit at 2n) - (limit at n) assigns
A values (n_i - 1)/n_i -> 1 while the upper density of A is 1/2, and assigns
the doubled set 2A values -> 0 instead of half of mu(A).  A periodic set B
with density 3/4 then dominates A pointwise while receiving the smaller
measure.  The suite reproduces all of this with exact rationals and records
the inequalities it actually checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .asymptotics import DensityReport, DoubleExponential, density
from .measure import BlumlingerCombo, MeasureReport, Mixture, SubsequenceLimit, evaluate
from .nset import Blocks, SymbolicSet, _least, _metered, blocks_dexp, periodic, scale

_UD_HORIZON = 1 << 20
_UD_WINDOW_START = 1 << 10


@dataclass(frozen=True)
class ComboVsUpperDensity:
    """Combo partials for the block set against its upper-density estimate."""

    partials: tuple[tuple[int, Fraction], ...]
    measure: MeasureReport
    density: DensityReport
    final_partial: Fraction
    measure_exceeds_upper_density: bool


@dataclass(frozen=True)
class DoublingFailure:
    """Combo partials for 2A against the half-of-mu(A) expectation."""

    partials: tuple[tuple[int, Fraction], ...]
    half_expectation: tuple[tuple[int, Fraction], ...]
    count_grid_identity: bool  # A(n) == (2A)(2n) at every grid point
    measure: MeasureReport


@dataclass(frozen=True)
class MonotonicityFailure:
    """B dominates A pointwise yet receives the smaller combo measure."""

    dominating_set: str
    domination_horizon: int
    domination_holds: bool
    first_violation: Optional[int]
    block_edge_ratio_bound: Fraction
    block_edge_bound_holds: bool
    density_b: Fraction
    measure_b: MeasureReport
    measure_a_final_partial: Fraction


@dataclass(frozen=True)
class SandwichChecks:
    points_checked: int
    holds: bool


@dataclass(frozen=True)
class MixtureRow:
    mixture: str
    monotonicity_deviation: Fraction
    monotonicity_ok: bool
    scaling_deviation: Fraction
    scaling_ok: bool


@dataclass(frozen=True)
class SuiteReport:
    dexp_terms: int
    tol: Fraction
    combo_vs_upper_density: ComboVsUpperDensity
    doubling_failure: DoublingFailure
    monotonicity_failure: MonotonicityFailure
    sandwich: SandwichChecks
    mixture_rows: tuple[MixtureRow, ...]


def first_domination_violation(
    a: Blocks, b: SymbolicSet, horizon: int, budget: Optional[int] = None
) -> Optional[int]:
    """The least n <= ``horizon`` with B(n) < A(n) for the block set A, or
    None when B(n) >= A(n) at every such n.

    B(n) - A(n) cannot rise inside a block of A, where A gains 1 per step
    and B at most 1, and cannot fall in a gap, so it is checked at each
    block end.  Inside the first block whose end is negative it falls
    monotonically from a non-negative value, so bisection over ``count``
    finds the first violation.
    """
    def behind(n: int) -> bool:
        return b.count(n) < a.count(n)

    with _metered(budget):
        for l, r in a.source.intervals_meeting(1, horizon):
            if behind(min(r - 1, horizon)):
                return _least(l, min(r - 1, horizon), behind)
        return None


def counterexample_suite(
    dexp_terms: int = 6,
    tol: Fraction = Fraction(1, 1000),
    budget: Optional[int] = None,
) -> SuiteReport:
    """Reproduce the block-set counterexamples with exact rationals."""
    with _metered(budget):
        a = blocks_dexp()
        a2 = scale(a, 2)
        b = periodic(4, [1, 2, 3])
        seq = DoubleExponential(dexp_terms)
        combo = BlumlingerCombo(seq)
        base_points = list(seq.points())

        # item 1: combo partials for A trend to 1 while the upper density sits
        # near 1/2; the final partial strictly exceeds the window supremum.
        measure_a = evaluate(combo, a, tol)
        partials_a = measure_a.partials
        final_partial = partials_a[-1][1]
        dens_a = density(a, _UD_HORIZON, _UD_WINDOW_START)
        item1 = ComboVsUpperDensity(
            partials=partials_a,
            measure=measure_a,
            density=dens_a,
            final_partial=final_partial,
            measure_exceeds_upper_density=final_partial > dens_a.upper_estimate,
        )

        # item 2: combo partials for 2A trend to 0, not to final/2, although
        # A(n) = (2A)(2n) exactly at every grid point.
        measure_2a = evaluate(combo, a2, tol)
        half = tuple((n, v / 2) for n, v in partials_a)
        grid_ok = all(a.count(n) == a2.count(2 * n) for n in base_points)
        item2 = DoublingFailure(
            partials=measure_2a.partials,
            half_expectation=half,
            count_grid_identity=grid_ok,
            measure=measure_2a,
        )

        # item 3: B(n) >= A(n) exactly for every n up to 10^6, with a block-edge
        # bound recorded for the tail; yet mu(B) = 3/4 < mu(A) -> 1.
        horizon = 10**6
        first_violation = first_domination_violation(a, b, horizon)
        # beyond that horizon: at every block edge e >= 31 the ratio A(e)/e stays
        # under 20/31 < 3/4, so the periodic set keeps dominating.
        bound = Fraction(20, 31)
        edge_ok = True
        for l, r in a.source.intervals_meeting(1, 1 << (1 << dexp_terms)):
            e = r - 1
            if e >= 31 and Fraction(a.count(e), e) > bound:
                edge_ok = False
        measure_b = evaluate(combo, b, tol)
        item3 = MonotonicityFailure(
            dominating_set=b.to_expr(),
            domination_horizon=horizon,
            domination_holds=first_violation is None,
            first_violation=first_violation,
            block_edge_ratio_bound=bound,
            block_edge_bound_holds=edge_ok,
            density_b=b.exact_density(),
            measure_b=measure_b,
            measure_a_final_partial=final_partial,
        )

        # item 4: the doubling sandwich count(S,n) <= count(S,2n) <= count(S,n)+n
        # at every point the suite evaluated, for all three sets.
        sandwich_ok = True
        checked = 0
        for s in (a, a2, b):
            for n in base_points + [2 * p for p in base_points]:
                c1 = s.count(n)
                c2 = s.count(2 * n)
                sandwich_ok = sandwich_ok and c1 <= c2 <= c1 + n
                checked += 1
        item4 = SandwichChecks(points_checked=checked, holds=sandwich_ok)

        # item 5: finite mixtures of plain subsequence limits do satisfy the
        # monotonicity and scaling properties on the same test pairs.  The
        # mixture corpus stays on gap-anchored sequences: along points that land
        # inside a block (e.g. the doubled grid) even a single subsequence limit
        # assigns mu(A) = 1/2 but mu(2A) = 0, so the scaling check would be
        # vacuous noise there rather than evidence.
        prev = DoubleExponential(max(1, dexp_terms - 1))
        mixtures = [
            Mixture(
                (
                    (Fraction(1, 2), SubsequenceLimit(seq)),
                    (Fraction(1, 2), SubsequenceLimit(prev)),
                )
            ),
            Mixture(
                (
                    (Fraction(2, 3), SubsequenceLimit(seq)),
                    (Fraction(1, 3), SubsequenceLimit(prev)),
                )
            ),
        ]
        def last_value(mix: Mixture, s: SymbolicSet) -> Fraction:
            # the surrogate's assigned value at its final evaluation points
            total = Fraction(0)
            for w, rule in mix.terms:
                n_last = list(rule.seq.points())[-1]
                total += w * Fraction(s.count(n_last), n_last)
            return total

        rows = []
        for mix in mixtures:
            va = last_value(mix, a)
            vb = last_value(mix, b)
            v2a = last_value(mix, a2)
            mono_dev = max(Fraction(0), va - vb)
            scal_dev = abs(va - 2 * v2a)
            rows.append(
                MixtureRow(
                    mixture=mix.to_expr(),
                    monotonicity_deviation=mono_dev,
                    monotonicity_ok=mono_dev <= tol,
                    scaling_deviation=scal_dev,
                    scaling_ok=scal_dev <= tol,
                )
            )

        return SuiteReport(
            dexp_terms=dexp_terms,
            tol=tol,
            combo_vs_upper_density=item1,
            doubling_failure=item2,
            monotonicity_failure=item3,
            sandwich=item4,
            mixture_rows=tuple(rows),
        )
