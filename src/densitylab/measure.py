"""Finitely-additive density-measure surrogates and their checkers.

A surrogate assigns to a set the limit behaviour of A(n)/n along a declared
index sequence (or a two-point combination, or a finite convex mixture of
such rules).  Every report is stamped with its sequence; no claim about a
genuine ultrafilter limit is ever made, and oscillating inputs yield an
interval verdict rather than a fabricated value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .asymptotics import (
    Doubled,
    Explicit,
    IndexSequence,
    LimitReport,
    _counts_along,
    _ratio_extrema,
    _running_sums,
    _stretch_points,
    _tail_len,
    limit_along,
)
from .errors import NoViolationFound
from .nset import (
    Empty,
    Full,
    Predicate,
    SymbolicSet,
    _charge,
    _metered,
    inter,
    union,
)
from .perm import (
    ImageSet,
    PermutationRule,
    _defect_counts,
    levy_witness_set,
)

# ---------------------------------------------------------------------------
# measure rules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MeasureRule:
    def to_expr(self) -> str:
        raise NotImplementedError

    def __str__(self) -> str:
        return self.to_expr()


@dataclass(frozen=True)
class SubsequenceLimit(MeasureRule):
    """mu(A) = limit behaviour of A(n)/n along ``seq``."""

    seq: IndexSequence

    def to_expr(self):
        return f"sublim({self.seq.to_expr()})"


@dataclass(frozen=True)
class BlumlingerCombo(MeasureRule):
    """mu(A) = 2 * (limit along the doubled points) - (limit along ``seq``).

    Per evaluation point n the partial value is 2*A(2n)/(2n) - A(n)/n =
    (A(2n) - A(n))/n, which the doubling sandwich pins into [0, 1] exactly.
    """

    seq: IndexSequence

    def to_expr(self):
        return f"combo({self.seq.to_expr()})"


@dataclass(frozen=True)
class Mixture(MeasureRule):
    """Finite convex combination of primitive rules (depth 1 only)."""

    terms: tuple[tuple[Fraction, MeasureRule], ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("mixture needs at least one term")
        total = Fraction(0)
        for w, rule in self.terms:
            if w <= 0:
                raise ValueError("mixture weights must be positive")
            if isinstance(rule, Mixture):
                raise ValueError("mixtures nest at most one level deep")
            total += w
        if total != 1:
            raise ValueError(f"mixture weights must sum to 1, got {total}")

    def to_expr(self):
        return (
            "mix("
            + ",".join(f"{w.numerator}/{w.denominator}:{r.to_expr()}" for w, r in self.terms)
            + ")"
        )


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MeasureReport:
    rule: str
    set_expr: str
    converged: bool
    value: Optional[Fraction]
    achieved_tol: Optional[Fraction]
    lo: Fraction
    hi: Fraction
    partials: Optional[tuple[tuple[int, Fraction], ...]]
    diagnostics: tuple[LimitReport, ...]

    @property
    def verdict(self) -> str:
        return "value" if self.converged else "interval"


def _combo_partials(a: SymbolicSet, seq: IndexSequence) -> list[tuple[int, Fraction]]:
    out = []
    for n in seq.points():
        c2 = a.count(2 * n)
        c1 = a.count(n)
        out.append((n, Fraction(c2 - c1, n)))
    return out


def evaluate(
    mu: MeasureRule,
    a: SymbolicSet,
    tol: Fraction = Fraction(1, 1000),
    budget: Optional[int] = None,
) -> MeasureReport:
    """Evaluate a measure surrogate on a set with exact rational arithmetic.

    Non-convergent constituents surface as an interval verdict, never as a
    fake value.
    """
    with _metered(budget):
        if isinstance(mu, SubsequenceLimit):
            rep = limit_along(a, mu.seq, tol)
            return MeasureReport(
                rule=mu.to_expr(),
                set_expr=a.to_expr(),
                converged=rep.converged,
                value=rep.value,
                achieved_tol=rep.achieved_tol,
                lo=rep.tail_inf,
                hi=rep.tail_sup,
                partials=tuple(zip(rep.points, rep.values)),
                diagnostics=(rep,),
            )
        if isinstance(mu, BlumlingerCombo):
            base = limit_along(a, mu.seq, tol)
            dbl = limit_along(a, Doubled(mu.seq), tol)
            if base.sampled or dbl.sampled:
                partials = _combo_partials(a, mu.seq)
            else:
                # A(n) and A(2n) read off the two profiles: a value c/n in lowest terms is c
                partials = [
                    (n, Fraction(d.numerator * (2 * n // d.denominator) - v.numerator * (n // v.denominator), n))
                    for n, v, d in zip(base.points, base.values, dbl.values)
                ]
            tail_vals = [v for _, v in partials[-_tail_len(len(partials)):]]
            lo, hi = min(tail_vals), max(tail_vals)
            converged = base.converged and dbl.converged
            value = 2 * dbl.value - base.value if converged else None
            achieved = (
                2 * dbl.achieved_tol + base.achieved_tol if converged else None
            )
            return MeasureReport(
                rule=mu.to_expr(),
                set_expr=a.to_expr(),
                converged=converged,
                value=value,
                achieved_tol=achieved,
                lo=lo,
                hi=hi,
                partials=tuple(partials),
                diagnostics=(base, dbl),
            )
        if isinstance(mu, Mixture):
            reports = [evaluate(rule, a, tol) for _, rule in mu.terms]
            converged = all(r.converged for r in reports)
            lo = sum(w * r.lo for (w, _), r in zip(mu.terms, reports))
            hi = sum(w * r.hi for (w, _), r in zip(mu.terms, reports))
            value = (
                sum(w * r.value for (w, _), r in zip(mu.terms, reports))
                if converged
                else None
            )
            achieved = (
                max(r.achieved_tol for r in reports) if converged else None
            )
            return MeasureReport(
                rule=mu.to_expr(),
                set_expr=a.to_expr(),
                converged=converged,
                value=value,
                achieved_tol=achieved,
                lo=lo,
                hi=hi,
                partials=None,
                diagnostics=tuple(d for r in reports for d in r.diagnostics),
            )
        raise TypeError(f"unknown measure rule {mu!r}")


# ---------------------------------------------------------------------------
# axiom and invariance checkers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckRow:
    label: str
    deviation: Optional[Fraction]
    status: str  # "pass" | "fail" | "inconclusive"
    note: str = ""


@dataclass(frozen=True)
class AxiomReport:
    rule: str
    tol: Fraction
    normalization: CheckRow
    additivity: tuple[CheckRow, ...]
    extension: tuple[CheckRow, ...]
    passed: bool

    def rows(self):
        return (self.normalization, *self.additivity, *self.extension)


def _verify_disjoint(a: SymbolicSet, b: SymbolicSet):
    both = inter(a, b)
    if both == Empty():
        return "closed-form"
    _charge(10**4, 10**4, "disjointness sample")
    for k in range(1, 10**4 + 1):
        if a.contains(k) and b.contains(k):
            raise ValueError(f"sets {a} and {b} are not disjoint (share {k})")
    return f"sampled to {10**4}"


def check_axioms(
    mu: MeasureRule,
    corpus: Sequence[SymbolicSet],
    disjoint_pairs: Sequence[tuple[SymbolicSet, SymbolicSet]],
    tol: Fraction = Fraction(1, 1000),
    budget: Optional[int] = None,
) -> AxiomReport:
    """Check normalization, finite additivity, and density extension.

    Additivity rows compare mu(A ∪ B) with mu(A) + mu(B) for verified
    disjoint pairs; extension rows compare mu(A) with the closed-form
    density of A.  Rows whose constituent limits oscillate are reported
    inconclusive, not failed.
    """

    with _metered(budget):
        def row(label, dev, note=""):
            if dev is None:
                return CheckRow(label, None, "inconclusive", note)
            return CheckRow(label, dev, "pass" if dev <= tol else "fail", note)

        full_rep = evaluate(mu, Full(), tol)
        norm = row(
            "mu(full) = 1",
            abs(full_rep.value - 1) if full_rep.converged else None,
        )

        additivity = []
        for a, b in disjoint_pairs:
            note = _verify_disjoint(a, b)
            ra = evaluate(mu, a, tol)
            rb = evaluate(mu, b, tol)
            rab = evaluate(mu, union(a, b), tol)
            label = f"mu({a} ⊔ {b})"
            if ra.converged and rb.converged and rab.converged:
                additivity.append(
                    row(label, abs(rab.value - ra.value - rb.value), note)
                )
            else:
                additivity.append(CheckRow(label, None, "inconclusive", note))

        extension = []
        for a in corpus:
            d = a.exact_density()
            label = f"mu({a}) = d"
            if d is None:
                extension.append(
                    CheckRow(label, None, "inconclusive", "no closed-form density")
                )
                continue
            r = evaluate(mu, a, tol)
            if r.converged:
                extension.append(row(label, abs(r.value - d), f"d={d}"))
            else:
                extension.append(
                    CheckRow(label, None, "inconclusive", f"oscillating; d={d}")
                )

        all_rows = [norm, *additivity, *extension]
        passed = all(r.status != "fail" for r in all_rows)
        return AxiomReport(
            rule=mu.to_expr(),
            tol=tol,
            normalization=norm,
            additivity=tuple(additivity),
            extension=tuple(extension),
            passed=passed,
        )


@dataclass(frozen=True)
class InvarianceReport:
    rule: str
    permutation: str
    tol: Fraction
    rows: tuple[CheckRow, ...]
    max_deviation: Optional[Fraction]
    passed: bool


def check_invariance(
    mu: MeasureRule,
    pi: PermutationRule,
    corpus: Sequence[SymbolicSet],
    tol: Fraction = Fraction(1, 1000),
    budget: Optional[int] = None,
) -> InvarianceReport:
    """Tabulate |mu(πA) - mu(A)| over a set corpus.

    Image sets are evaluated through counting, never materialized.
    """
    with _metered(budget):
        rows = []
        devs = []
        for a in corpus:
            ra = evaluate(mu, a, tol)
            rimg = evaluate(mu, ImageSet(pi, a), tol)
            label = f"|mu(π{a}) - mu({a})|"
            if ra.converged and rimg.converged:
                dev = abs(rimg.value - ra.value)
                devs.append(dev)
                rows.append(
                    CheckRow(label, dev, "pass" if dev <= tol else "fail")
                )
            else:
                # worst-case distance between the two interval verdicts
                dev = max(abs(ra.hi - rimg.lo), abs(rimg.hi - ra.lo))
                rows.append(CheckRow(label, dev, "inconclusive", "oscillating"))
        max_dev = max(devs) if devs else None
        passed = all(r.status != "fail" for r in rows)
        return InvarianceReport(
            rule=mu.to_expr(),
            permutation=pi.to_expr(),
            tol=tol,
            rows=tuple(rows),
            max_deviation=max_dev,
            passed=passed,
        )


# ---------------------------------------------------------------------------
# invariance-violation certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ViolationCertificate:
    """A witness that some subsequence-limit measure moves under π.

    At every chosen point the exact identity
    count(witness, n) - (π witness)(n) = |{k : k <= n < π(k)}| holds, so the
    measure along the chosen subsequence assigns the witness and its image
    values separated by at least ``gap_estimate``.
    """

    permutation: PermutationRule
    witness_set: Predicate
    subsequence: Explicit
    gap_estimate: Fraction
    profile: tuple[tuple[int, Fraction], ...]

    def verify(self) -> bool:
        """Re-run the witness identity at the certificate's points, counting
        the witness and its image in the one scan, ``_running_sums``."""
        pi = self.permutation
        w = self.witness_set
        img = ImageSet(pi, w)
        pts = self.subsequence.values
        want = dict(self.profile)
        gaps = _running_sums(lambda n: w.contains(n) - img.contains(n), pts)
        return all(
            gap == defect and Fraction(gap, n) == want[n]
            for n, gap, defect in zip(pts, gaps, _defect_counts(pi, pts))
        ) and min(want.values()) == self.gap_estimate


def find_invariance_violation(
    pi: PermutationRule,
    horizon: int = 4096,
    budget: Optional[int] = None,
) -> ViolationCertificate:
    """Search for a set and subsequence on which π moves every
    subsequence-limit measure by a positive gap.

    The witness is the canonical set {k : π(k) > k}; the subsequence picks
    the last three interior local maxima of the defect ratio (defect peaks
    recur for non-Lévy-like permutations).  Raises NoViolationFound when the
    tail defect, over the last ceil(horizon/2) points, stays at or below 1/10.
    """
    with _metered(budget):
        threshold = Fraction(1, 10)
        _charge(horizon, horizon, "violation scan")
        points = range(1, horizon + 1)
        defects = list(map(Fraction, _defect_counts(pi, points), points))
        tail_max = max(defects[-_tail_len(horizon):])
        if tail_max <= threshold:
            raise NoViolationFound(
                f"tail defect {tail_max} <= {threshold} at horizon {horizon}; "
                "the permutation looks Lévy-like"
            )
        peaks = [
            n
            for n in range(2, horizon)
            if defects[n - 2] < defects[n - 1] >= defects[n]
            and defects[n - 1] >= threshold
        ]
        if len(peaks) < 3:
            raise NoViolationFound(
                f"defect exceeds {threshold} but does not recur at 3 local maxima "
                f"within horizon {horizon}"
            )
        chosen = peaks[-3:]
        witness = levy_witness_set(pi, cap=4 * horizon)
        profile = tuple((n, defects[n - 1]) for n in chosen)
        cert = ViolationCertificate(
            permutation=pi,
            witness_set=witness,
            subsequence=Explicit(tuple(chosen)),
            gap_estimate=min(v for _, v in profile),
            profile=profile,
        )
        if not cert.verify():
            raise AssertionError("witness identity failed to re-verify")
        return cert


# ---------------------------------------------------------------------------
# equal-measure test
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EqualMeasureReport:
    set_a: str
    set_b: str
    horizon: int
    tail_window_start: int
    tail_sup_diff: Fraction
    seq_rows: tuple[CheckRow, ...]
    equivalent_likely: bool
    grid: str


def _settles(pairs, tol: Fraction) -> bool:
    """Whether the ratios c/n of the (c, n) ``pairs`` spread by at most ``tol``, by
    cross-multiplication."""
    (lc, ln), (hc, hn) = _ratio_extrema(pairs)
    return (hc * ln - lc * hn) * tol.denominator <= tol.numerator * hn * ln


def equal_measure_test(
    a: SymbolicSet,
    b: SymbolicSet,
    seq_corpus: Sequence[IndexSequence],
    tol: Fraction = Fraction(1, 1000),
    horizon: int = 10**5,
    tail_window_start: Optional[int] = None,
    budget: Optional[int] = None,
) -> EqualMeasureReport:
    """Two-sided evidence for mu(A) = mu(B) under every surrogate.

    Side one: the tail supremum of |A(n) - B(n)| / n over the window
    [tail_window_start, horizon].  Side two: one row per sequence in the
    corpus, read from A(n) and B(n) at the sequence's tail points, its last
    ceil(k/2) of k (``asymptotics._counts_along``).  The row's deviation is
    the greatest |A(n) - B(n)| / n there, and the row passes or fails by
    ``tol`` only when A(n)/n and B(n)/n each spread by at most ``tol`` over
    those points; otherwise it is inconclusive.  Every comparison is by
    cross-multiplication, and the deviation is the row's one ``Fraction``.

    The supremum is exact either way: it is read at the points of one
    walk (``asymptotics._stretch_points``), whose points are charged to the
    meter, and the report's ``grid`` says which:

    * ``window-extrema-via-pieces`` -- when both sets have segments, each
      is a periodic set of its segments' width between the cuts of the two
      segment lists, and along each phase n, n + L, n + 2L, ... of a
      stretch with no cut, for L the lcm of the two widths, A(n) - B(n)
      changes by a constant per step, so |A(n) - B(n)|/n is greatest at
      the phase's first or last point.  Only the first L and the last L
      points of each stretch are read;
    * ``integer-scan`` -- otherwise (a set with no segments), every
      integer in the window.
    """
    with _metered(budget):
        start = tail_window_start if tail_window_start is not None else max(1, horizon // 10)
        grid, walk = _stretch_points(a, b, start, horizon)
        best_dev, best_n = 0, 1
        for d, n in walk:
            dev = abs(d)
            if dev * best_n > best_dev * n:
                best_dev, best_n = dev, n
        tail_sup = Fraction(best_dev, best_n)

        rows = []
        ok = tail_sup <= tol
        for seq in seq_corpus:
            # the honest distance statistic is the per-point difference of the two ratio profiles
            # over the tail (identical sets give exactly zero even when each profile oscillates)
            pts = seq.points()
            first = len(pts) - _tail_len(len(pts))
            tail = pts[first:]
            counts = [list(_counts_along(x, seq, first)) for x in (a, b)]
            _, (gap, n) = _ratio_extrema((abs(ca - cb), n) for ca, cb, n in zip(*counts, tail))
            dev = Fraction(gap, n)
            converged = all(_settles(zip(c, tail), tol) for c in counts)
            label = f"|mu_{seq.to_expr()}(A) - mu_{seq.to_expr()}(B)|"
            status = ("pass" if dev <= tol else "fail") if converged else "inconclusive"
            note = "" if converged else "per-point tail difference; profiles oscillate"
            rows.append(CheckRow(label, dev, status, note))
            ok = ok and dev <= tol
        return EqualMeasureReport(
            set_a=a.to_expr(),
            set_b=b.to_expr(),
            horizon=horizon,
            tail_window_start=start,
            tail_sup_diff=tail_sup,
            seq_rows=tuple(rows),
            equivalent_likely=ok,
            grid=grid,
        )
