"""Permutations of ℕ as finite rules, with the Lévy-group diagnostics.

Three equivalent membership criteria for the Lévy group are implemented as
finite-horizon diagnostics:

* the defect ratio |{k : k <= n < π(k)}| / n,
* the per-set displacement (A(n) - (πA)(n)) / n,
* statistical convergence of π(n)/n to 1.

All three are evidence at a horizon, never proofs; classifications carry
their thresholds and windows.
"""

from __future__ import annotations

import itertools
import warnings
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

from .asymptotics import (
    Explicit,
    IndexSequence,
    StatReport,
    _SLACK,
    _positive_eps,
    _running_sums,
    _stat_report,
    _stat_table,
    _tail_len,
)
from .errors import (
    CardinalityMismatch,
    UnknownInfinitude,
)
from .nset import (
    FiniteList,
    Infinitude,
    Predicate,
    SymbolicSet,
    _residues,
    _segment_runs,
    _tile,
    _charge,
    _metered,
    diff,
    inter,
    periodic,
    union,
)

class Classification(Enum):
    LEVY_LIKELY = "levy-likely"
    NON_LEVY_LIKELY = "non-levy-likely"
    INCONCLUSIVE = "inconclusive"


# ---------------------------------------------------------------------------
# permutation rules
# ---------------------------------------------------------------------------

# A piece (k0, p, d, q, T) says that the rule maps k0 + t*p to d + t*q for
# 0 <= t < T, with p, q >= 1; a piece with T = 1 has p = q = 1.
Piece = tuple[int, int, int, int, int]


def _piece(k0: int, p: int, d: int, q: int, terms: int) -> Piece:
    return (k0, p, d, q, terms) if terms > 1 else (k0, 1, d, 1, 1)


def _progression(k0: int, p: int, d: int, q: int, top: int) -> list[Piece]:
    """The piece k0 + t*p -> d + t*q over every k0 + t*p <= top, if any."""
    return [_piece(k0, p, d, q, (top - k0) // p + 1)] if k0 <= top else []


@dataclass(frozen=True)
class PermutationRule:
    """A bijection ℕ -> ℕ with computable forward and inverse evaluation."""

    def apply(self, n: int) -> int:
        raise NotImplementedError

    def invert(self, m: int) -> int:
        raise NotImplementedError

    def pieces(self, horizon: int) -> Optional[list[Piece]]:
        """Pieces whose domains partition [1, horizon] exactly, or None when
        the rule exposes no such affine structure."""
        return None

    def to_expr(self) -> str:
        raise NotImplementedError

    def __str__(self) -> str:
        return self.to_expr()


@dataclass(frozen=True)
class Identity(PermutationRule):
    def apply(self, n):
        return n

    invert = apply

    def pieces(self, horizon):
        return _progression(1, 1, 1, 1, horizon)

    def to_expr(self):
        return "id"


@dataclass(frozen=True)
class FiniteTable(PermutationRule):
    """A bijection on a finite support, identity elsewhere."""

    mapping: tuple[tuple[int, int], ...]

    def __post_init__(self):
        keys = [k for k, _ in self.mapping]
        vals = [v for _, v in self.mapping]
        if any(k < 1 for k in keys) or any(v < 1 for v in vals):
            raise ValueError("support must consist of positive integers")
        if len(set(keys)) != len(keys) or set(keys) != set(vals):
            raise ValueError("table must be a bijection on its support")
        object.__setattr__(self, "_fwd", dict(self.mapping))
        object.__setattr__(self, "_bwd", {v: k for k, v in self.mapping})

    def apply(self, n):
        return self._fwd.get(n, n)

    def invert(self, m):
        return self._bwd.get(m, m)

    def pieces(self, horizon):
        out = []
        start = 1
        for k in sorted(k for k, v in self.mapping if k != v and k <= horizon):
            out += _progression(start, 1, start, 1, k - 1)
            out.append((k, 1, self._fwd[k], 1, 1))
            start = k + 1
        return out + _progression(start, 1, start, 1, horizon)

    def to_expr(self):
        seen = set()
        cycles = []
        for k, _ in sorted(self.mapping):
            if k in seen or self._fwd[k] == k:
                continue
            cyc = [k]
            seen.add(k)
            nxt = self._fwd[k]
            while nxt != k:
                cyc.append(nxt)
                seen.add(nxt)
                nxt = self._fwd[nxt]
            cycles.append(cyc)
        return "table(" + "".join("(" + " ".join(map(str, c)) + ")" for c in cycles) + ")"


@dataclass(frozen=True)
class InterlacedPairing(PermutationRule):
    """Swap the i-th elements of two disjointified sets, fix everything else.

    Given sets A and B, let A' = A \\ (A ∩ B) = {a_1 < a_2 < ...} and
    B' = B \\ (A ∩ B) = {b_1 < b_2 < ...}.  The rule maps a_i <-> b_i and is
    its own inverse.  Requires A' and B' both declared-infinite or finite of
    equal cardinality.

    ``apply`` maps a_i <-> b_i with i = A'(n) or B'(n), one ``count`` and
    one ``select`` on the sides' set trees: in closed form for a side that
    folds to a periodic set, else from its segments where it has them, else
    from its parts.

    Since the i-th pair is a_i <-> b_i, the defect and the image counts of
    a pairing, and the moved-up count W(n) = max(A'(n), B'(n)) of its
    witness, are read from the same two sides' counts and selects, with no
    pieces (see ``_defect_counts``, ``_pairing_image_counts`` and
    ``_moved_up``).  Its pieces are still read by ``statlim``.
    """

    set_a: SymbolicSet
    set_b: SymbolicSet

    def __post_init__(self):
        common = inter(self.set_a, self.set_b)
        a_only = diff(self.set_a, common)
        b_only = diff(self.set_b, common)
        fa, fb = a_only.infinitude(), b_only.infinitude()
        if Infinitude.UNKNOWN in (fa, fb):
            raise UnknownInfinitude(
                "pairing requires surely-finite or surely-infinite parts; "
                f"got {fa.value}/{fb.value} for {a_only} and {b_only}"
            )
        size = None
        if Infinitude.FINITE in (fa, fb):
            ca = a_only.count(a_only.max_element()) if fa == Infinitude.FINITE else None
            cb = b_only.count(b_only.max_element()) if fb == Infinitude.FINITE else None
            if ca != cb:
                a_part, b_part = ("an infinite part" if c is None else f"a part of size {c}" for c in (ca, cb))
                raise CardinalityMismatch(f"cannot pair {a_part} with {b_part}")
            size = ca
        object.__setattr__(self, "a_only", a_only)
        object.__setattr__(self, "b_only", b_only)
        object.__setattr__(self, "pair_total", size)

    def apply(self, n):
        a, b = self.a_only, self.b_only
        if a.contains(n):
            return b.select(a.count(n))
        if b.contains(n):
            return a.select(b.count(n))
        return n

    invert = apply

    def pieces(self, horizon):
        """Per run of ranks, from the two sides' segments (``nset._segment_runs``).

        The ranks i <= R = max(A'(horizon), B'(horizon)) are those with a_i or b_i in
        [1, horizon], and the starts of either side's segments cut them into runs.  On a run
        where A' has p members per width w and B' has q per width v, a_(i+L) = a_i + w*L/p and
        b_(i+L) = b_i + v*L/q for L = lcm(p, q), so each of its first L ranks gives two
        progressions, a_i -> b_i and back.  The same starts cut [1, horizon] into stretches;
        the residues mod lcm(w, v) in neither side's mask are fixed, one progression per residue
        and maximal run of stretches that hold it (a stretch shorter than lcm(w, v) holds the
        residues it does not reach).  lcm(w, v) is within ``_LCM_CAP``: both sides' programs
        hold A and B, unless one side is finite (width 1) or both fold to periodic sets."""
        a, b = self.a_only, self.b_only
        if any(_segment_runs(s, 0) is None for s in (a, b)):  # an opaque side, before any count
            return None
        ranks = max(a.count(horizon), b.count(horizon))
        top = max(horizon, a.select(ranks), b.select(ranks)) if ranks else horizon
        (w, starts_a, below_a, masks_a), (v, starts_b, below_b, masks_b) = (_segment_runs(s, top) for s in (a, b))
        residues, out = {}, []

        def members(width, starts, below, masks, i, rank, count):
            """The members of ranks rank + 1, ..., rank + count, all in segment i."""
            res = residues.get(masks[i]) or residues.setdefault(masks[i], _residues(masks[i]))
            q, r = divmod(starts[i], width)
            first = bisect_left(res, r) + rank - below[i]
            return [(q + k // len(res)) * width + res[k % len(res)] for k in range(first, first + count)]

        cuts = sorted({r for r in below_a + below_b if r < ranks} | {ranks})
        for r0, r1 in zip(cuts, cuts[1:]):
            ia, ib = bisect_right(below_a, r0) - 1, bisect_right(below_b, r0) - 1
            p, q = masks_a[ia].bit_count(), masks_b[ib].bit_count()
            pairs = lcm(p, q)
            step_a, step_b = w * pairs // p, v * pairs // q
            xs = members(w, starts_a, below_a, masks_a, ia, r0, min(pairs, r1 - r0))
            ys = members(v, starts_b, below_b, masks_b, ib, r0, len(xs))
            for k, (x, y) in enumerate(zip(xs, ys)):
                t = (r1 - r0 - 1 - k) // pairs  # the last term
                out += _progression(x, step_a, y, step_b, min(horizon, x + t * step_a))
                out += _progression(y, step_b, x, step_a, min(horizon, y + t * step_b))
        span = lcm(w, v)
        full = (1 << span) - 1
        stretches = sorted({c for c in starts_a + starts_b if c <= horizon})
        held, opened = 0, {}  # the fixed residues, and the first point of each one's run
        for lo, hi in zip(stretches, stretches[1:] + [horizon + 1]):
            ia, ib = bisect_right(starts_a, lo) - 1, bisect_right(starts_b, lo) - 1
            fixed = full & ~(_tile(masks_a[ia], w, span) | _tile(masks_b[ib], v, span))
            if hi - lo < span:
                reach = ((1 << (hi - lo)) - 1) << lo % span
                reach = (reach | reach >> span) & full
                fixed = fixed & reach | held & ~reach
            for r in _residues(held ^ fixed):
                if fixed >> r & 1:
                    opened[r] = lo + (r - lo) % span
                else:
                    x = opened.pop(r)
                    out += _progression(x, span, x, span, lo - 1)
            held = fixed
        for x in opened.values():
            out += _progression(x, span, x, span, horizon)
        return out

    def to_expr(self):
        return f"pair({self.set_a.to_expr()},{self.set_b.to_expr()})"


@dataclass(frozen=True)
class QuarterBlockSwap(PermutationRule):
    """For every j >= 1 swap [4^j, 2*4^j) with [2*4^j, 3*4^j) by +-4^j.

    The top quarter [3*4^j, 4^(j+1)) of each scale is fixed, so the rule is
    an involution that moves a positive fraction of every horizon.
    """

    def apply(self, n):
        if n < 4:
            return n
        base = 4 ** ((n.bit_length() - 1) // 2)
        if n < 2 * base:
            return n + base
        if n < 3 * base:
            return n - base
        return n

    invert = apply

    def pieces(self, horizon):
        out = _progression(1, 1, 1, 1, min(3, horizon))
        b = 4
        while b <= horizon:
            for lo, shift in ((b, b), (2 * b, -b), (3 * b, 0)):
                out += _progression(lo, 1, lo + shift, 1, min(lo + b - 1, horizon))
            b *= 4
        return out

    def to_expr(self):
        return "qswap"


@dataclass(frozen=True)
class Restricted(PermutationRule):
    """A pairing frozen to the identity on an exceptional orbit.

    With base pairing φ and exceptional set F, let F' = A' ∩ (F ∪ φF) and
    E = F' ∪ φF'.  The rule fixes E pointwise and agrees with φ elsewhere;
    since φE = E it is again a bijection (and an involution).  As φ is an
    involution, a k that φ moves lies in E iff F holds k or φ(k).  So along a
    piece k0 + t*p -> d + t*q of φ, where F is one residue mask mod m, E's
    state repeats in t with period P = lcm(m/gcd(p, m), m/gcd(q, m)).
    """

    base: InterlacedPairing
    exceptional: SymbolicSet

    def __post_init__(self):
        if not isinstance(self.base, InterlacedPairing):
            raise ValueError("restriction base must be a pairing")

    def pieces(self, horizon):
        """The base's pieces, the moved ones cut where E's state changes: along k0 + t*p -> d + t*q,
        k lies in E iff F holds k or d + t*q.  The starts of F's segments (``nset._segment_runs``)
        cut the t into runs on which k and its image each stay in one segment of width m, so on a
        run the state repeats with period P = lcm(m/gcd(p, m), m/gcd(q, m)); each class of t mod P
        is one fixed or moved sub-progression, joined across cuts while its state holds.  None
        when F has no segments, or when the pieces could number more than ``horizon``, counted
        as P per run before any is built: a piece of fewer than P terms splits into single points,
        which cost no less than a scan."""
        pieces = self.base.pieces(horizon)
        if pieces is None:
            return None
        moved = [pc for pc in pieces if pc[0] != pc[2]]
        top = max((max(k0 + (T - 1) * p, d + (T - 1) * q) for k0, p, d, q, T in moved), default=1)
        segments = _segment_runs(self.exceptional, top)
        if segments is None:
            return None
        m, starts, _, masks = segments

        def runs(k0, p, d, q, terms):
            """0, ``terms`` and each t where k0 + t*p or d + t*q is the first in a segment."""
            cuts = {0, terms}
            for first, step in ((k0, p), (d, q)):
                lo, hi = bisect_right(starts, first), bisect_right(starts, first + (terms - 1) * step)
                cuts.update(-(-(c - first) // step) for c in starts[lo:hi])
            return sorted(cuts)

        plans = [(pc, lcm(m // gcd(pc[1], m), m // gcd(pc[3], m)), runs(*pc)) for pc in moved]
        if len(pieces) - len(moved) + sum(span * (len(ts) - 1) for _, span, ts in plans) > horizon:
            return None
        out = [pc for pc in pieces if pc[0] == pc[2]]
        for (k0, p, d, q, terms), span, ts in plans:
            state, first = [None] * span, [0] * span  # each class of t mod P: fixed, and its run's first t

            def close(c, end):
                """The run of class c, from first[c] to before ``end``."""
                t = first[c]
                x, step = k0 + t * p, p * span
                image = (x, step) if state[c] else (d + t * q, q * span)
                out.append(_piece(x, step, *image, (end - t + span - 1) // span))

            for t0, t1 in zip(ts, ts[1:]):
                at_k = masks[bisect_right(starts, k0 + t0 * p) - 1]
                at_d = masks[bisect_right(starts, d + t0 * q) - 1]
                for t in range(t0, min(t1, t0 + span)):
                    fixed = (at_k >> (k0 + t * p) % m | at_d >> (d + t * q) % m) & 1
                    c = t % span
                    if state[c] != fixed:
                        if state[c] is not None:
                            close(c, t)
                        state[c], first[c] = fixed, t
            for c in range(min(span, terms)):
                close(c, terms)
        return out

    def apply(self, n):
        # the base fixes every n outside A' ∪ B', and n lies in E iff F holds n or its partner
        m = self.base.apply(n)
        f = self.exceptional
        return n if m == n or f.contains(n) or f.contains(m) else m

    invert = apply

    def to_expr(self):
        return f"restrict({self.base.to_expr()},{self.exceptional.to_expr()})"


@dataclass(frozen=True)
class Compose(PermutationRule):
    outer: PermutationRule
    inner: PermutationRule

    def apply(self, n):
        return self.outer.apply(self.inner.apply(n))

    def invert(self, m):
        return self.inner.invert(self.outer.invert(m))

    def pieces(self, horizon):
        """Each inner piece's image meets each outer piece's domain in one
        progression, or not at all."""
        inner = self.inner.pieces(horizon)
        if inner is None:
            return None
        outer = self.outer.pieces(max(d + (T - 1) * q for _, _, d, q, T in inner))
        if outer is None or len(inner) * len(outer) > horizon:
            return None
        out = []
        for first in inner:
            for then in outer:
                joined = _chain(first, then)
                if joined is not None:
                    out.append(joined)
        return out

    def to_expr(self):
        return f"comp({self.outer.to_expr()},{self.inner.to_expr()})"


@dataclass(frozen=True)
class Inverse(PermutationRule):
    inner: PermutationRule

    def apply(self, n):
        return self.inner.invert(n)

    def invert(self, m):
        return self.inner.apply(m)

    def pieces(self, horizon):
        explicit = _inverse_of(self.inner)
        return None if explicit is None else explicit.pieces(horizon)

    def to_expr(self):
        return f"inv({self.inner.to_expr()})"


def _inverse_of(rule: PermutationRule) -> Optional[PermutationRule]:
    """An explicit rule for the inverse of ``rule``, or None."""
    if isinstance(rule, (Identity, InterlacedPairing, QuarterBlockSwap, Restricted)):
        return rule  # involutions
    if isinstance(rule, FiniteTable):
        return FiniteTable(tuple((v, k) for k, v in rule.mapping))
    if isinstance(rule, Inverse):
        return rule.inner
    if isinstance(rule, Compose):
        outer, inner = _inverse_of(rule.outer), _inverse_of(rule.inner)
        return None if outer is None or inner is None else Compose(inner, outer)
    return None


def _chain(first: Piece, then: Piece) -> Optional[Piece]:
    """The piece of ``then`` after ``first`` on the t where d + t*q, the
    image of ``first``, lies in the domain h0 + s*hp of ``then``; None when
    there is no such t.

    d + t*q = h0 + s*hp needs g = gcd(q, hp) to divide h0 - d, and then
    holds exactly for t = t0 (mod hp/g), by the inverse of q/g mod hp/g.
    """
    k0, p, d, q, terms = first
    h0, hp, e, eq, span = then
    g = gcd(q, hp)
    if (h0 - d) % g:
        return None
    step = hp // g
    t0 = (h0 - d) // g * pow(q // g, -1, step) % step
    lo = max(0, -((d - h0) // q))  # d + t*q >= h0
    hi = min(terms - 1, (h0 + (span - 1) * hp - d) // q)  # d + t*q <= the last of then
    t = lo + (t0 - lo) % step
    if t > hi:
        return None
    s = (d + t * q - h0) // hp
    return _piece(k0 + t * p, p * step, e + s * eq, eq * (q // g), (hi - t) // step + 1)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def pairing_permutation(a: SymbolicSet, b: SymbolicSet) -> InterlacedPairing:
    """The involution swapping the i-th elements of A' and B' (see class doc)."""
    return InterlacedPairing(a, b)


def restrict_pairing(
    phi: InterlacedPairing,
    exceptional: SymbolicSet,
    horizon: int = 10**4,
) -> Restricted:
    """Freeze ``phi`` to the identity on the orbit of ``exceptional``.

    The construction is intended for sparse exceptional sets; a counting
    ratio above 1/100 at ``horizon`` triggers a warning, not an error.
    """
    ratio = Fraction(exceptional.count(horizon), horizon)
    if ratio > Fraction(1, 100):
        warnings.warn(
            f"exceptional set has counting ratio {ratio} at {horizon}; "
            "the restricted pairing may be far from the base pairing",
            stacklevel=2,
        )
    return Restricted(phi, exceptional)


def levy_witness_set(pi: PermutationRule, cap: int) -> Predicate:
    """The canonical witness {k : π(k) > k}, queryable up to ``cap``."""
    return Predicate(
        rule=lambda k: pi.apply(k) > k,
        enumeration_cap=cap,
        label=f"moved-up by {pi.to_expr()}",
    )


# ---------------------------------------------------------------------------
# default grids and classification
# ---------------------------------------------------------------------------


def doubling_checkpoints(horizon: int, levels: int = 12) -> Explicit:
    """Checkpoints horizon/2^levels, ..., horizon/2, horizon (deduplicated)."""
    pts = sorted({max(1, horizon // 2**k) for k in range(levels + 1)})
    return Explicit(tuple(pts))


def stat_checkpoints(horizon: int) -> Explicit:
    """A short tail-heavy grid for statistical classification."""
    return doubling_checkpoints(horizon, levels=4)


def classify_tail(points: Sequence[int], values: Sequence[Fraction]) -> Classification:
    """Heuristic verdict from the tail of a defect-like profile, the values
    at the last ceil(n/2) of the n points.

    Non-Levy-likely needs 3 or more tail values >= 1/10; otherwise
    Levy-likely needs a tail max <= 1/100 (``_SLACK``) at a last point of
    at least 10^4; anything else is inconclusive.
    """
    tail_vals = values[-_tail_len(len(points)):]
    if sum(1 for v in tail_vals if v >= Fraction(1, 10)) >= 3:
        return Classification.NON_LEVY_LIKELY
    if max(tail_vals) <= _SLACK and points[-1] >= 10**4:
        return Classification.LEVY_LIKELY
    return Classification.INCONCLUSIVE


# ---------------------------------------------------------------------------
# counting over pieces
# ---------------------------------------------------------------------------


def _checked_pieces(pi: PermutationRule, points: Sequence[int]) -> Optional[list[Piece]]:
    """π's pieces on [1, points[-1]], or None when it has none or when
    reading them at every point would cost more than a scan of every integer.

    Each piece is checked at t = 0 and t = 1 against ``apply`` and
    ``invert``, so a wrong piece fails loudly instead of giving a wrong
    exact answer.  The check of a point k -> v reads two facts, π(k) = v and
    π⁻¹(v) = k; for an involution those are also the facts of v -> k, so
    each fact is read once: a point whose mirror has passed is skipped.  A
    passed point is kept only until its mirror comes.
    """
    horizon = points[-1]
    pieces = pi.pieces(horizon)
    if pieces is None or len(pieces) * len(points) > horizon:
        return None
    involution = _inverse_of(pi) is pi
    awaiting: dict[int, int] = {}  # v -> k for each passed k -> v whose mirror has not come
    for piece in pieces:
        k0, p, d, q, terms = piece
        for k, v in ((k0, d), (k0 + p, d + q))[:terms]:
            if awaiting.get(k) == v:
                del awaiting[k]
                continue
            if pi.apply(k) != v or pi.invert(v) != k:
                raise AssertionError(f"piece {piece} of {pi.to_expr()} disagrees with the rule at {k}")
            if involution and k != v:
                awaiting[v] = k
    return pieces


# A progression (first, step, terms) is first + t*step for 0 <= t < terms.
_Progression = tuple[int, int, int]


def _prefix(first: int, step: int, terms: int, n: int) -> int:
    """#{t < terms : first + t*step <= n}, the terms of a progression up to
    n: every piece reader counts through it."""
    return 0 if n < first else min(terms, (n - first) // step + 1)


def _terms_where(k0: int, p: int, terms: int, alpha: int, beta: int) -> list[_Progression]:
    """The terms k0 + t*p, t < terms, with alpha*t >= beta, as a list of at
    most one progression: the t that solve a linear inequality are an
    interval."""
    if alpha > 0:
        lo, hi = max(0, -(-beta // alpha)), terms - 1
    elif alpha < 0:
        lo, hi = 0, min(terms - 1, beta // alpha)
    else:
        lo, hi = 0, terms - 1 if beta <= 0 else -1
    return [(k0 + lo * p, p, hi - lo + 1)] if lo <= hi else []


def _prefix_counts(progressions: list[_Progression], points: Sequence[int]) -> list[int]:
    """The number of terms up to n of the ``progressions``, sorted by first
    term, at each n of ``points``: the sum of their prefix counts, which
    stops at the first progression that starts past n."""
    counts = []
    for n in points:
        total = 0
        for first, step, terms in progressions:
            if first > n:
                break
            total += _prefix(first, step, terms, n)
        counts.append(total)
    return counts


def _moved_up(pi: PermutationRule, points: Sequence[int]) -> tuple[list[int], list[int]]:
    """The 20 smallest k <= points[-1] with π(k) > k, and
    |{k <= n : π(k) > k}| at each of the increasing ``points``.

    For a pairing, from its two sides: π maps a_i <-> b_i, so k is moved up
    iff k = min(a_i, b_i) for some i, which is at most n iff a_i or b_i is.
    So the count at n is max(A'(n), B'(n)), and the i-th smallest moved-up
    k is min(a_i, b_i), increasing in i.

    From π's pieces otherwise, where π(k) - k = (d - k0) + t*(q - p), so
    π(k) > k iff (q - p)*t >= 1 - (d - k0): an inequality that does not
    depend on n, so each piece gives one sub-progression of moved-up k,
    solved once, and the count at n is the sum of their prefix counts.  The
    sub-progressions are disjoint, so the 20 smallest lie in the 20 that
    start first.
    Otherwise in the one scan, ``_running_sums``, whose term also keeps
    the first 20 moved-up k."""
    if isinstance(pi, InterlacedPairing):
        a, b = pi.a_only, pi.b_only
        counts = [max(a.count(n), b.count(n)) for n in points]
        return [min(a.select(i), b.select(i)) for i in range(1, min(20, counts[-1]) + 1)], counts
    pieces = _checked_pieces(pi, points)
    if pieces is None:
        smallest: list[int] = []

        def is_up(k: int) -> bool:
            moved = pi.apply(k) > k
            if moved and len(smallest) < 20:
                smallest.append(k)
            return moved

        return smallest, _running_sums(is_up, points)
    up = sorted(sub for k0, p, d, q, terms in pieces for sub in _terms_where(k0, p, terms, q - p, 1 + k0 - d))
    heads = (range(first, first + min(terms, 20) * step, step) for first, step, terms in up[:20])
    return sorted(itertools.chain.from_iterable(heads))[:20], _prefix_counts(up, points)


def _image_counts(pi: PermutationRule, a: SymbolicSet, points: Sequence[int]) -> Optional[list[int]]:
    """(πA)(n) = |{m <= n : π⁻¹(m) ∈ A}| at each of the increasing
    ``points``: for a pairing from its two sides (``_pairing_image_counts``),
    otherwise from the pieces of π⁻¹; None when there are none.

    Along a piece m = k0 + t*p -> π⁻¹(m) = d + t*q, the m <= n are the
    first s = prefix(k0, p) terms, t < s, and the members of A among their
    values d, d + q, ..., d + (s - 1)q are the members of
    C = A ∩ periodic(q; d mod q) in [d, d + (s - 1)q], so the count is
    C(d + (s - 1)q) - C(d - 1).  C is built once per (q, d mod q); for
    q = 1 it is A itself.

    A piece adds nothing at the points before its first term and its whole
    count at every point from its last term on, so only the points in
    between read a prefix; the whole count is read once and added at the rest.
    """
    if isinstance(pi, InterlacedPairing):
        return _pairing_image_counts(pi, a, points)
    pieces = _checked_pieces(Inverse(pi), points)
    if pieces is None:
        return None
    lanes: dict[tuple[int, int], SymbolicSet] = {}
    totals = [0] * len(points)
    for k0, p, d, q, terms in pieces:
        key = q, d % q
        if key not in lanes:
            lanes[key] = a if q == 1 else inter(a, periodic(q, [d % q]))
        lane = lanes[key]
        first = bisect_left(points, k0)
        done = bisect_left(points, k0 + (terms - 1) * p, first)
        before = lane.count(d - 1)

        def members(seen):
            return lane.count(d + (seen - 1) * q) - before

        for i in range(first, done):
            totals[i] += members(_prefix(k0, p, terms, points[i]))
        if done < len(points):
            whole = members(terms)
            for i in range(done, len(points)):
                totals[i] += whole
    return totals


def _pairing_image_counts(pi: InterlacedPairing, x: SymbolicSet, points: Sequence[int]) -> list[int]:
    """(πX)(n) at each of the ``points`` for a pairing of A' = {a_1 < ...}
    and B' = {b_1 < ...}: π fixes every k outside A' ∪ B', and maps a_i
    to b_i, which is at most n iff i <= B'(n), and b_i to a_i, at most n iff
    i <= A'(n).  So
    (πX)(n) = (X \\ (A' ∪ B'))(n) + (A' ∩ X)(a_B'(n)) + (B' ∩ X)(b_A'(n)),
    where a term whose rank is 0 is 0.  The three sets are built once and
    count from their segments; the ranks and a_i, b_i come from the sides."""
    a, b = pi.a_only, pi.b_only
    fixed = diff(x, union(a, b))
    from_a, from_b = inter(a, x), inter(b, x)
    out = []
    for n in points:
        ranks_a, ranks_b = a.count(n), b.count(n)
        total = fixed.count(n)
        if ranks_b:
            total += from_a.count(a.select(ranks_b))
        if ranks_a:
            total += from_b.count(b.select(ranks_a))
        out.append(total)
    return out


@dataclass(frozen=True)
class ImageSet(SymbolicSet):
    """π(base) described through the inverse: m ∈ πA iff π⁻¹(m) ∈ A.

    Counting reads a pairing's sides or the affine pieces of π⁻¹ where it
    has them (see ``_image_counts``); otherwise it scans m <= n, charged to
    the meter first.  ``max_element`` of a finite base maps each of its
    members, also charged first.
    """

    pi: PermutationRule
    base: SymbolicSet

    def contains(self, n):
        return n >= 1 and self.base.contains(self.pi.invert(n))

    def _count(self, n):
        pi, base = self.pi, self.base
        counted = _image_counts(pi, base, (n,))
        if counted is not None:
            return counted[0]
        _charge(n, n, "image-count scan")
        return sum(1 for m in range(1, n + 1) if base.contains(pi.invert(m)))

    def infinitude(self):
        return self.base.infinitude()

    def max_element(self):
        bound = self.base.max_element()
        if bound is None:
            return None
        base, size = self.base, self.base.count(bound)
        _charge(size, bound, "image max scan")
        return max((self.pi.apply(base.select(i)) for i in range(1, size + 1)), default=0)

    def to_expr(self):
        return f"image({self.pi.to_expr()},{self.base.to_expr()})"


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DefectProfile:
    points: tuple[int, ...]
    defects: tuple[Fraction, ...]
    classification_hint: Classification
    mode: str
    tail_window: int


def _defect_counts(pi: PermutationRule, points: Sequence[int]) -> list[int]:
    """|{k : k <= n < π(k)}| at each of the increasing ``points``.

    For a pairing, |A'(n) - B'(n)|: the i-th pair a_i <-> b_i adds 1 at n
    iff exactly one of a_i, b_i is at most n, that is iff i lies between
    the two counts.  From π's pieces otherwise: the t with k = k0 + t*p <= n
    are a prefix of the piece's terms, and so are the t with
    π(k) = d + t*q <= n, so the t with k <= n < π(k) number
    max(0, prefix(k0, p) - prefix(d, q)) at n.  Otherwise in the one scan,
    ``_running_sums``: n joins the set when π(n) > n, and π⁻¹(n) leaves it
    when π⁻¹(n) < n."""
    if isinstance(pi, InterlacedPairing):
        a, b = pi.a_only, pi.b_only
        return [abs(a.count(n) - b.count(n)) for n in points]
    pieces = _checked_pieces(pi, points)
    if pieces is not None:
        # a piece with d <= k0 and q <= p maps no k above k, so it adds 0
        ups = [pc for pc in pieces if pc[2] > pc[0] or pc[3] > pc[1]]
        return [
            sum(max(0, _prefix(k0, p, terms, n) - _prefix(d, q, terms, n)) for k0, p, d, q, terms in ups)
            for n in points
        ]
    return _running_sums(lambda n: (pi.apply(n) > n) - (pi.invert(n) < n), points)


def levy_defect_profile(
    pi: PermutationRule,
    seq: IndexSequence,
    mode: str = "upward",
    budget: Optional[int] = None,
) -> DefectProfile:
    """Exact defect ratios |{k : k <= n < π(k)}| / n at the points of ``seq``.

    ``mode="downward"`` instead counts {k : π(k) <= n < k}; the two counts
    agree for every bijection and every n, so the downward mode exists as an
    independently computed cross-check, always in the one scan, ``_running_sums``.
    """
    with _metered(budget):
        pts = list(seq.points())
        if mode not in ("upward", "downward"):
            raise ValueError("mode must be 'upward' or 'downward'")
        if mode == "upward":
            defects = tuple(map(Fraction, _defect_counts(pi, pts), pts))
        else:
            stay = _running_sums(lambda n: (pi.apply(n) <= n) + (pi.invert(n) < n), pts)
            defects = tuple(Fraction(n - s, n) for n, s in zip(pts, stay))
        return DefectProfile(
            points=tuple(pts),
            defects=defects,
            classification_hint=classify_tail(pts, defects),
            mode=mode,
            tail_window=_tail_len(len(pts)),
        )


def displacement_profile(
    pi: PermutationRule,
    a: SymbolicSet,
    seq: IndexSequence,
    budget: Optional[int] = None,
) -> list[tuple[int, Fraction]]:
    """Exact (A(n) - (πA)(n)) / n at the points of ``seq``.

    The image count (πA)(n) is |{m <= n : π⁻¹(m) ∈ A}|, evaluated through
    the inverse so no forward search is ever unbounded: for a pairing from
    the counts of its two sides and of three sets built from A, for a rule
    with pieces from the pieces of π⁻¹ (see ``_image_counts``), and
    otherwise in the one scan, ``_running_sums``, of every m up to the last
    point.
    """
    with _metered(budget):
        pts = list(seq.points())
        image = _image_counts(pi, a, pts)
        if image is not None:
            return [(n, Fraction(a.count(n) - c, n)) for n, c in zip(pts, image)]
        gaps = _running_sums(lambda n: a.contains(n) - a.contains(pi.invert(n)), pts)
        return [(n, Fraction(g, n)) for n, g in zip(pts, gaps)]


def displacement_classification(
    pi: PermutationRule,
    sets: Sequence[SymbolicSet],
    seq: IndexSequence,
    budget: Optional[int] = None,
) -> Classification:
    """Classify from the worst |displacement| across a fixed set corpus.

    Evidence only: the displacement criterion quantifies over every subset
    of ℕ, which no finite corpus can certify.
    """
    with _metered(budget):
        profiles = [displacement_profile(pi, s, seq) for s in sets]
        points = [n for n, _ in profiles[0]]
        worst = [
            max(abs(prof[i][1]) for prof in profiles) for i in range(len(points))
        ]
        return classify_tail(points, worst)


@dataclass(frozen=True)
class RatioStatReport:
    stat: StatReport
    classification: Classification


def ratio_stat_report(
    pi: PermutationRule,
    eps_grid: Sequence[Fraction],
    checkpoints: IndexSequence,
) -> RatioStatReport:
    """Statistical-convergence table for π(n)/n at target 1, plus a verdict.

    Each eps-row is classified by ``classify_tail``: the verdict is
    non-Lévy-likely if any row is, Lévy-likely if every row is (so an empty
    ``eps_grid`` is inconclusive), and inconclusive otherwise.
    """
    eps_list = _positive_eps(eps_grid)
    pts = list(checkpoints.points())
    pieces = _checked_pieces(pi, pts)
    if pieces is None:
        report = _stat_table(lambda k: (pi.apply(k), k), Fraction(1), eps_list, checkpoints, _SLACK)
    else:
        report = _stat_report(Fraction(1), eps_list, pts, _ratio_exceptions(pieces, eps_list, pts), _SLACK)
    verdicts = {classify_tail(report.checkpoints, [v for _, v in row.densities]) for row in report.rows}
    if Classification.NON_LEVY_LIKELY in verdicts:
        cls = Classification.NON_LEVY_LIKELY
    elif verdicts == {Classification.LEVY_LIKELY}:
        cls = Classification.LEVY_LIKELY
    else:
        cls = Classification.INCONCLUSIVE
    return RatioStatReport(stat=report, classification=cls)


def _ratio_exceptions(
    pieces: list[Piece], eps_list: Sequence[Fraction], points: Sequence[int]
) -> list[list[int]]:
    """|{k <= n : |π(k) - k|*ed >= en*k}| for each eps = en/ed at each point.

    In a piece, with u = d - k0 and v = q - p, π(k) - k = u + t*v and
    k = k0 + t*p >= 1, so the two signs of the deviation give two
    inequalities in t that exclude each other and do not depend on n.
    Each is solved once per piece and eps, as a sub-progression of the
    piece's domain; a row is the prefix counts of its sub-progressions."""
    rows = []
    for e in eps_list:
        en, ed = e.numerator, e.denominator
        subs = []
        for k0, p, d, q, terms in pieces:
            u, v = d - k0, q - p
            subs += _terms_where(k0, p, terms, v * ed - en * p, en * k0 - u * ed)
            subs += _terms_where(k0, p, terms, -v * ed - en * p, en * k0 + u * ed)
        rows.append(_prefix_counts(sorted(subs), points))
    return rows


@dataclass(frozen=True)
class ExceptionalSets:
    """Materialized {k : π(k) - k > eps*k} and {k : k - π(k) > eps*k}."""

    eps: Fraction
    horizon: int
    above: FiniteList
    below: FiniteList
    union_ratios: tuple[tuple[int, Fraction], ...]


def exceptional_sets(
    pi: PermutationRule,
    eps: Fraction,
    horizon: int,
    checkpoints: Optional[IndexSequence] = None,
    budget: Optional[int] = None,
) -> ExceptionalSets:
    """Exact finite materializations of the relative-displacement exceptions."""
    with _metered(budget):
        _charge(horizon, horizon, "exceptional-set scan")
        eps = Fraction(eps)
        if checkpoints is None:
            checkpoints = doubling_checkpoints(horizon, levels=6)
        pts = [p for p in checkpoints.points() if p <= horizon]
        above: list[int] = []
        below: list[int] = []
        for k in range(1, horizon + 1):
            d = pi.apply(k) - k
            if d * eps.denominator > eps.numerator * k:
                above.append(k)
            elif -d * eps.denominator > eps.numerator * k:
                below.append(k)
        ratios = [
            (p, Fraction(bisect_right(above, p) + bisect_right(below, p), p)) for p in pts
        ]
        return ExceptionalSets(
            eps=eps,
            horizon=horizon,
            above=FiniteList(tuple(above)),
            below=FiniteList(tuple(below)),
            union_ratios=tuple(ratios),
        )


@dataclass(frozen=True)
class VanDouwenReport:
    """Tail supremum of |π(n)/n - 1| over [tail_window_start, horizon]."""

    horizon: int
    tail_window_start: int
    sup_deviation: Fraction
    at: int
    tol: Fraction
    holds: bool


def van_douwen_ratio_report(
    pi: PermutationRule,
    horizon: int,
    tol: Fraction,
    budget: Optional[int] = None,
) -> VanDouwenReport:
    """Check lim π(n)/n = 1 at desk scale: sup over the tail window
    [max(1, horizon/10), horizon]."""
    with _metered(budget):
        start = max(1, horizon // 10)
        _charge(horizon - start + 1, horizon, "ratio scan")
        best: tuple[int, int] = (0, 1)
        best_at = start
        for n in range(start, horizon + 1):
            dev = abs(pi.apply(n) - n)
            if dev * best[1] > best[0] * n:
                best = (dev, n)
                best_at = n
        sup = Fraction(*best)
        return VanDouwenReport(
            horizon=horizon,
            tail_window_start=start,
            sup_deviation=sup,
            at=best_at,
            tol=Fraction(tol),
            holds=sup <= tol,
        )
