"""Symbolic subsets of the positive integers with exact counting.

Every set here is a finite description of a (possibly infinite) subset of
ℕ = {1, 2, 3, ...}.  The two primitives that everything else builds on are

* ``contains(n)`` -- exact membership,
* ``count(n)``    -- the counting function, the number of elements in [1, n],

and both are exact integer arithmetic at arbitrary horizons: no floats, no
approximation.  One compiler, ``_segment_program``, turns a tree into residue
masks over the states of its finite, block and opaque leaves (an opaque leaf
is a part with no pattern of its own: a ``Predicate``, an ``ImageSet`` or a
part wider than ``_LCM_CAP``).  The algebra nodes count from its segments,
periodic patterns between the cut points of their finite and block leaves,
and the eventual period and the folds of two periodic nodes read the same
masks.  A tree with an opaque leaf counts from its tail's segments where
no leaf changes it (``_segments``), else from its parts.  Last of all an intersection tests each member of its
smaller part with the other part, reading the members from the smaller
part's member runs (or, for a part with none, by a scan of [1, n]).  Such
work is charged first to the one meter of the call (``_charge``), which
nested calls share, and *fails loudly* past its budget.
"""

from __future__ import annotations

import itertools
import math
import operator
import threading
from bisect import bisect_left, bisect_right
from contextvars import ContextVar
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Iterator, Optional

from .errors import (
    EnumerationBudgetExceeded,
    IndexBeyondSet,
    PredicateCapExceeded,
    UnknownInfinitude,
)

DEFAULT_ENUMERATION_BUDGET = 10**7

# Periodic/Periodic algebra of two moduli is collapsed via the lcm only below this modulus (beyond
# it the raw node is kept; equal moduli fold at any width); it also caps a segment program's width.
_LCM_CAP = 10**6

# member_runs gives up (returns None) rather than build more runs than this.
_RUNS_CAP = 200_000

# select() on a set whose infinitude is unknown probes up to this horizon
# before refusing to guess.
_UNKNOWN_PROBE_LIMIT = 1 << 62


# The work meter of the running call, [budget, work left], or None when no meter is open.
_METER: ContextVar[Optional[list[int]]] = ContextVar("densitylab_meter", default=None)


class _metered:
    """``with _metered(budget) as meter:`` spends the work of its body from a new meter of
    ``budget`` units; with ``budget`` None, from the open meter, or from a new one of the default
    budget when none is open.  ``meter`` is the [budget, work left] it spends from.  Budgets below
    1 are rejected rather than silently replaced."""

    def __init__(self, budget: Optional[int]):
        if budget is None and _METER.get() is None:
            budget = DEFAULT_ENUMERATION_BUDGET
        if budget is not None and budget < 1:
            raise ValueError(f"enumeration budget must be >= 1, got {budget}")
        self.meter = None if budget is None else [budget, budget]

    def __enter__(self) -> list[int]:
        self.token = None if self.meter is None else _METER.set(self.meter)
        return _METER.get()

    def __exit__(self, *exc):
        if self.token is not None:
            _METER.reset(self.token)


def _charge(work: int, horizon: int, what: str = "enumeration") -> int:
    """Spend ``work`` units (integers scanned, members tested, walk points read) from the open
    meter before the work is done, or from a fresh meter of the default budget when none is
    open; return what it had left before, or raise ``EnumerationBudgetExceeded`` past that."""
    meter = _METER.get()
    budget, left = meter or (DEFAULT_ENUMERATION_BUDGET, DEFAULT_ENUMERATION_BUDGET)
    if work > left:
        raise EnumerationBudgetExceeded(horizon, budget, what)
    if meter is not None:
        meter[1] = left - work
    return left


class Infinitude(Enum):
    FINITE = "finite"
    INFINITE = "infinite"
    UNKNOWN = "unknown"


# ---------------------------------------------------------------------------
# block sources
# ---------------------------------------------------------------------------


class BlockSource:
    """A source of disjoint, strictly increasing half-open intervals [l, r)."""

    def iter_intervals(self) -> Iterator[tuple[int, int]]:
        """All intervals in increasing order (endless for lazy sources)."""
        raise NotImplementedError

    def contains(self, n: int) -> bool:
        """Whether n lies in one of the intervals."""
        raise NotImplementedError

    def intervals_meeting(self, lo: int, hi: int) -> Iterator[tuple[int, int]]:
        """The intervals that hold a point of [lo, hi], in increasing order."""
        for l, r in self.iter_intervals():
            if l > hi:
                return
            if r > lo:
                yield l, r

    def is_infinite(self) -> bool:
        raise NotImplementedError

    def to_expr(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class ExplicitBlocks(BlockSource):
    intervals: tuple[tuple[int, int], ...]

    def __post_init__(self):
        prev_end = 0
        for l, r in self.intervals:
            if l < 1 or l >= r:
                raise ValueError(f"bad interval [{l}, {r})")
            if l < prev_end:
                raise ValueError("intervals must be sorted and disjoint")
            prev_end = r
        object.__setattr__(self, "_starts", tuple(l for l, _ in self.intervals))

    def contains(self, n):
        i = bisect_right(self._starts, n)
        return i > 0 and n < self.intervals[i - 1][1]

    def iter_intervals(self):
        return iter(self.intervals)

    def intervals_meeting(self, lo, hi):
        return iter(self.intervals[bisect_right(self.intervals, lo, key=_hi) : bisect_right(self._starts, hi)])

    def is_infinite(self) -> bool:
        return False

    def to_expr(self) -> str:
        return ",".join(f"[{l},{r})" for l, r in self.intervals)


@dataclass(frozen=True)
class DoubleExponentialBlocks(BlockSource):
    """The lazy family of intervals [2^(2^i), 2*2^(2^i)) for i = 1, 2, ..."""

    @staticmethod
    def interval(i: int) -> tuple[int, int]:
        lo = 1 << (1 << i)
        return lo, 2 * lo

    def contains(self, n):
        # n lies in [2^(2^i), 2^(2^i + 1)) iff its top bit is 2^(2^i), i >= 1
        b = n.bit_length() - 1
        return n >= 1 and b >= 2 and b & (b - 1) == 0

    def iter_intervals(self):
        i = 1
        while True:
            yield self.interval(i)
            i += 1

    def is_infinite(self) -> bool:
        return True

    def to_expr(self) -> str:
        return "dexp"


# ---------------------------------------------------------------------------
# symbolic sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymbolicSet:
    """Immutable description of a subset of ℕ.  All operations are pure."""

    def contains(self, n: int) -> bool:
        raise NotImplementedError

    def count(self, n: int, budget: Optional[int] = None) -> int:
        """Exact |S ∩ [1, n]|.  Enumeration fallbacks spend from a meter of ``budget`` units, or,
        with ``budget`` None, as ``_charge`` says.

        Leaves count in closed form and a scaled set through its inner set.
        A union, intersection, difference or complement counts from its
        segments (``_Segments``): between two cut points of its finite and
        block leaves the tree is one periodic pattern, so a count is a
        bisection, a stored prefix count and popcounts of one mask, exact
        at any horizon.  A tree whose pattern is wider than ``_LCM_CAP``,
        or that holds a ``Predicate`` or an ``ImageSet``, counts from its
        parts instead.  Last of all an intersection tests the members of its
        smaller part, read from that part's member runs, or scans [1, n] when
        the part has none, and charges the meter for each member or integer.
        """
        if budget is not None:
            with _metered(budget):
                return self.count(n)
        if n < 0:
            raise ValueError("count horizon must be >= 0")
        if n == 0:
            return 0
        return self._count(n)

    def _count(self, n: int) -> int:
        raise NotImplementedError

    def infinitude(self) -> Infinitude:
        raise NotImplementedError

    def max_element(self) -> Optional[int]:
        """Upper bound on elements for surely-finite sets, else None."""
        return None

    def exact_density(self) -> Optional[Fraction]:
        """Closed-form asymptotic density when one is known, else None."""
        return None

    def member_runs(
        self, horizon: int, cap: int = _RUNS_CAP, within: Optional[list[tuple[int, int]]] = None
    ) -> Optional[list[tuple[int, int]]]:
        """Maximal runs of consecutive members, as inclusive (lo, hi) pairs,
        clipped to [1, horizon] and, when ``within`` is given, to its runs:
        increasing inclusive runs in [1, horizon] with a gap between any two.
        None when no cheap decomposition exists or it has more than ``cap``
        runs.

        The work is per run of the result and of the part it keeps, never
        per integer.  A periodic set reads each window arithmetically, other
        leaves by bisection.  An intersection keeps its left part (its right
        part when the left has no runs within the cap) and a difference its
        left part, and each reads its other part only inside the runs it
        keeps; a complement, a scaled set and every algebra node pass the
        windows down.  A union reads both parts whole, since its result has
        every run of each part up to merging, and merges the part with fewer
        runs into the other by bisection and list slices.
        """
        return None

    def select(self, k: int, budget: Optional[int] = None) -> int:
        """The k-th smallest element (k >= 1); see the module-level ``select``."""
        return select(self, k, budget=budget)

    def to_expr(self) -> str:
        raise NotImplementedError

    def __str__(self) -> str:
        return self.to_expr()


@dataclass(frozen=True)
class Empty(SymbolicSet):
    def contains(self, n):
        return False

    def _count(self, n):
        return 0

    def infinitude(self):
        return Infinitude.FINITE

    def max_element(self):
        return 0

    def exact_density(self):
        return Fraction(0)

    def member_runs(self, horizon, cap=_RUNS_CAP, within=None):
        return []


    def to_expr(self):
        return "empty"


@dataclass(frozen=True)
class Full(SymbolicSet):
    def contains(self, n):
        return n >= 1

    def _count(self, n):
        return n

    def infinitude(self):
        return Infinitude.INFINITE

    def exact_density(self):
        return Fraction(1)

    def member_runs(self, horizon, cap=_RUNS_CAP, within=None):
        return _capped([(1, horizon)] if horizon >= 1 else [], cap, within)


    def to_expr(self):
        return "full"


@dataclass(frozen=True)
class FiniteList(SymbolicSet):
    elements: tuple[int, ...]

    def __post_init__(self):
        prev = 0
        for e in self.elements:
            if e <= prev:
                raise ValueError("elements must be strictly increasing and >= 1")
            prev = e
        object.__setattr__(self, "_members", frozenset(self.elements))

    def contains(self, n):
        return n in self._members

    def _count(self, n):
        return bisect_right(self.elements, n)

    def infinitude(self):
        return Infinitude.FINITE

    def max_element(self):
        return self.elements[-1] if self.elements else 0

    def exact_density(self):
        return Fraction(0)

    def member_runs(self, horizon, cap=_RUNS_CAP, within=None):
        runs: list[tuple[int, int]] = []
        for e in self.elements:
            if e > horizon:
                break
            if runs and runs[-1][1] == e - 1:
                runs[-1] = (runs[-1][0], e)
            else:
                runs.append((e, e))
        return _capped(runs, cap, within)


    def to_expr(self):
        return "finite(" + ",".join(str(e) for e in self.elements) + ")"


@dataclass(frozen=True)
class Periodic(SymbolicSet):
    """All n >= 1 with n mod modulus in residues; its own eventual period, with b = 0."""

    modulus: int
    residues: tuple[int, ...]
    # read by _eventual_period in place of the memo it keeps on other nodes
    _period_memo = property(lambda self: ((0, self),))

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError("modulus must be >= 1")
        prev = -1
        for r in self.residues:
            if r <= prev or r >= self.modulus:
                raise ValueError("residues must be sorted, distinct, < modulus")
            prev = r
        res = self.residues
        object.__setattr__(self, "_rset", frozenset(res))
        # the members of [1, modulus], increasing (residue 0 stands for modulus)
        offs = res[1:] + (self.modulus,) if res and res[0] == 0 else res
        object.__setattr__(self, "_offs", offs)

    def contains(self, n):
        return n >= 1 and (n % self.modulus) in self._rset

    def _count(self, n):
        q, s = divmod(n, self.modulus)
        # residue 0 is hit at m, 2m, ..., qm; residue r >= 1 gets one extra
        # hit in the trailing partial period when r <= s, so residue 0 is
        # taken back out of the bisection
        res = self.residues
        extra = bisect_right(res, s) - (1 if res and res[0] == 0 else 0)
        return q * len(res) + extra

    def infinitude(self):
        return Infinitude.INFINITE if self.residues else Infinitude.FINITE

    def max_element(self):
        return None if self.residues else 0

    def exact_density(self):
        return Fraction(len(self.residues), self.modulus)

    @cached_property
    def _cycle(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The maximal runs of one period, increasing and read around the circle, as two tuples:
        their first residues and their last.  A run through residue m - 1 that goes on at
        residue 0 ends past m; every other entry is the residue's own int object."""
        res, m = self.residues, self.modulus
        # a run ends where the next residue is not one more, and the next run starts there
        cuts = [i for i in range(1, len(res)) if res[i - 1] + 1 != res[i]]
        firsts = [res[0]] + [res[i] for i in cuts]
        lasts = [res[i - 1] for i in cuts] + [res[-1]]
        if len(firsts) > 1 and firsts[0] == 0 and lasts[-1] == m - 1:
            del firsts[0]
            lasts[-1] = m + lasts.pop(0)
        return tuple(firsts), tuple(lasts)

    def member_runs(self, horizon, cap=_RUNS_CAP, within=None):
        if not self.residues or horizon < 1:
            return []
        m = self.modulus
        if len(self.residues) == m:
            return _capped([(1, horizon)], cap, within)
        # the memo keeps two flat tuples; the pairs live for this call only
        cycle = list(zip(*self._cycle))
        runs: list[tuple[int, int]] = []
        for lo, hi in ((1, horizon),) if within is None else within:
            # [lo, hi] holds at least (hi - lo + 1) // m - 1 whole copies of each run of the cycle
            if len(runs) + ((hi - lo + 1) // m - 1) * len(cycle) > cap:
                return None
            # the runs of the periods from the one before lo's to hi's, cut to [lo, hi]
            block = [(base + a, base + b) for base in range(lo - lo % m - m, hi + 1, m) for a, b in cycle]
            runs += _clip(block, ((lo, hi),))
            if len(runs) > cap:
                return None
        return runs


    def to_expr(self):
        return f"periodic({self.modulus};" + ",".join(map(str, self.residues)) + ")"


@dataclass(frozen=True)
class Blocks(SymbolicSet):
    source: BlockSource

    def contains(self, n):
        return self.source.contains(n)

    def _count(self, n):
        return sum(min(r, n + 1) - l for l, r in self.source.intervals_meeting(1, n))

    def infinitude(self):
        return Infinitude.INFINITE if self.source.is_infinite() else Infinitude.FINITE

    def max_element(self):
        if self.source.is_infinite():
            return None
        last = 0
        for _, r in self.source.iter_intervals():
            last = r - 1
        return last

    def exact_density(self):
        return None if self.source.is_infinite() else Fraction(0)

    def member_runs(self, horizon, cap=_RUNS_CAP, within=None):
        runs: list[tuple[int, int]] = []
        for l, r in self.source.intervals_meeting(1, horizon):
            hi = min(r - 1, horizon)
            if runs and runs[-1][1] == l - 1:
                runs[-1] = (runs[-1][0], hi)
            else:
                runs.append((l, hi))
        return _capped(runs, cap, within)


    def to_expr(self):
        return f"blocks({self.source.to_expr()})"


@dataclass(frozen=True)
class Scaled(SymbolicSet):
    """{factor * a : a in inner}."""

    factor: int
    inner: SymbolicSet

    def __post_init__(self):
        if self.factor < 1:
            raise ValueError("scale factor must be >= 1")

    def contains(self, n):
        return n >= 1 and n % self.factor == 0 and self.inner.contains(n // self.factor)

    def _count(self, n):
        return self.inner.count(n // self.factor)

    def infinitude(self):
        return self.inner.infinitude()

    def max_element(self):
        b = self.inner.max_element()
        return None if b is None else self.factor * b

    def exact_density(self):
        d = self.inner.exact_density()
        return None if d is None else d / self.factor

    def member_runs(self, horizon, cap=_RUNS_CAP, within=None):
        t = self.factor
        if t == 1:
            return self.inner.member_runs(horizon, cap, within)
        inner_within = None
        if within is not None:
            # the a with t * a in a window, joined where they touch
            inner_within = []
            for lo, hi in within:
                a, z = -(-lo // t), hi // t
                if a > z:
                    continue
                if inner_within and inner_within[-1][1] == a - 1:
                    inner_within[-1] = (inner_within[-1][0], z)
                else:
                    inner_within.append((a, z))
        runs = self.inner.member_runs(horizon // t, cap, inner_within)
        # each member t * a of the inner set's runs is a run of its own
        if runs is None or sum(hi - lo + 1 for lo, hi in runs) > cap:
            return None
        out: list[tuple[int, int]] = []
        for lo, hi in runs:
            members = range(t * lo, t * hi + 1, t)
            out += zip(members, members)
        return out


    def to_expr(self):
        return f"scale({self.factor},{self.inner.to_expr()})"


@dataclass(frozen=True)
class Predicate(SymbolicSet):
    """Membership by rule, queryable only up to an enumeration cap.

    Queries beyond the cap raise rather than approximate.
    """

    rule: Callable[[int], bool] = field(compare=False)
    enumeration_cap: int = 10**5
    label: str = "predicate"

    def __post_init__(self):
        if self.enumeration_cap < 1:
            raise ValueError("enumeration cap must be >= 1")

    def contains(self, n):
        if n < 1:
            return False
        if n > self.enumeration_cap:
            raise PredicateCapExceeded(n, self.enumeration_cap)
        return bool(self.rule(n))

    def _count(self, n):
        if n > self.enumeration_cap:
            raise PredicateCapExceeded(n, self.enumeration_cap)
        _charge(n, n, "predicate scan")
        rule = self.rule
        return sum(1 for k in range(1, n + 1) if rule(k))

    def infinitude(self):
        return Infinitude.UNKNOWN


    def to_expr(self):
        return f"predicate({self.label};cap={self.enumeration_cap})"


def _both(node: "Union | Diff") -> SymbolicSet:
    """inter(node.left, node.right), built once and memoized on the node."""
    both = getattr(node, "_both_memo", None)
    if both is None:
        both = inter(node.left, node.right)
        object.__setattr__(node, "_both_memo", both)
    return both


@dataclass(frozen=True)
class Union(SymbolicSet):
    left: SymbolicSet
    right: SymbolicSet

    def contains(self, n):
        return self.left.contains(n) or self.right.contains(n)

    def _count(self, n):
        segments = _segments(self)
        if segments is not None:
            return segments.count(n)
        return self.left.count(n) + self.right.count(n) - _both(self).count(n)

    def infinitude(self):
        a, b = self.left.infinitude(), self.right.infinitude()
        if Infinitude.INFINITE in (a, b):
            return Infinitude.INFINITE
        if a == b == Infinitude.FINITE:
            return Infinitude.FINITE
        return _infinitude_by_period(self)

    def max_element(self):
        a, b = self.left.max_element(), self.right.max_element()
        return None if a is None or b is None else max(a, b)

    def member_runs(self, horizon, cap=_RUNS_CAP, within=None):
        left = self.left.member_runs(horizon, cap, within)
        if left is None:
            return None
        right = self.right.member_runs(horizon, cap, within)
        return None if right is None else _union_runs(left, right, cap)


    def to_expr(self):
        return f"union({self.left.to_expr()},{self.right.to_expr()})"


@dataclass(frozen=True)
class Intersect(SymbolicSet):
    left: SymbolicSet
    right: SymbolicSet

    def contains(self, n):
        return self.left.contains(n) and self.right.contains(n)

    def _count(self, n):
        """From the segments when the tree has them (see ``SymbolicSet.count``).
        Otherwise, when one part has at most 64 member runs (the low cap keeps
        nested intersections from multiplying out), the other part is counted
        run by run.  Otherwise each member of the smaller part is tested by
        the other part: read from the smaller part's member runs, or, when it
        has none, by a scan of [1, n].  Each member or integer tested is
        charged to the meter first."""
        segments = _segments(self)
        if segments is not None:
            return segments.count(n)
        for a, b in ((self.left, self.right), (self.right, self.left)):
            runs = a.member_runs(n, cap=64)
            if runs is not None:
                return sum(b.count(min(hi, n)) - b.count(lo - 1) for lo, hi in runs)
        cl = self.left.count(n)
        cr = self.right.count(n)
        small, other = (self.left, self.right) if cl <= cr else (self.right, self.left)
        tested = min(cl, cr)
        runs = small.member_runs(n, cap=_charge(tested, n))
        if runs is not None:
            return sum(1 for lo, hi in runs for v in range(lo, hi + 1) if other.contains(v))
        _charge(n - tested, n)  # the scan tests every integer, not only the members charged
        return sum(1 for v in range(1, n + 1) if self.contains(v))

    def infinitude(self):
        a, b = self.left.infinitude(), self.right.infinitude()
        if Infinitude.FINITE in (a, b):
            return Infinitude.FINITE
        return _infinitude_by_period(self)

    def max_element(self):
        bounds = [x for x in (self.left.max_element(), self.right.max_element()) if x is not None]
        return min(bounds) if bounds else _bound_by_period(self)

    def member_runs(self, horizon, cap=_RUNS_CAP, within=None):
        for kept, other in ((self.left, self.right), (self.right, self.left)):
            runs = kept.member_runs(horizon, cap, within)
            if runs is not None:
                return other.member_runs(horizon, cap, runs)
        return None


    def to_expr(self):
        return f"inter({self.left.to_expr()},{self.right.to_expr()})"


@dataclass(frozen=True)
class Diff(SymbolicSet):
    left: SymbolicSet
    right: SymbolicSet

    def contains(self, n):
        return self.left.contains(n) and not self.right.contains(n)

    def _count(self, n):
        segments = _segments(self)
        if segments is not None:
            return segments.count(n)
        return self.left.count(n) - _both(self).count(n)

    def infinitude(self):
        a, b = self.left.infinitude(), self.right.infinitude()
        if a == Infinitude.FINITE:
            return Infinitude.FINITE
        if a == Infinitude.INFINITE and b == Infinitude.FINITE:
            return Infinitude.INFINITE
        return _infinitude_by_period(self)

    def max_element(self):
        bound = self.left.max_element()
        return _bound_by_period(self) if bound is None else bound

    def member_runs(self, horizon, cap=_RUNS_CAP, within=None):
        kept = self.left.member_runs(horizon, cap, within)
        if kept is None:
            return None
        # inside each kept run the dropped part has at most one run more than the result
        dropped = self.right.member_runs(horizon, cap + len(kept), kept)
        return None if dropped is None else _gaps(kept, dropped, cap)


    def to_expr(self):
        return f"diff({self.left.to_expr()},{self.right.to_expr()})"


@dataclass(frozen=True)
class Complement(SymbolicSet):
    inner: SymbolicSet

    def contains(self, n):
        return n >= 1 and not self.inner.contains(n)

    def _count(self, n):
        segments = _segments(self)
        if segments is not None:
            return segments.count(n)
        return n - self.inner.count(n)

    def infinitude(self):
        if self.inner.infinitude() == Infinitude.FINITE:
            return Infinitude.INFINITE
        return _infinitude_by_period(self)

    def max_element(self):
        return _bound_by_period(self)

    def exact_density(self):
        d = self.inner.exact_density()
        return None if d is None else 1 - d

    def member_runs(self, horizon, cap=_RUNS_CAP, within=None):
        windows = [(1, horizon)] if within is None else within
        # inside each window the inner set has at most one run more than the result
        inner = self.inner.member_runs(horizon, cap + len(windows), within)
        return None if inner is None else _gaps(windows, inner, cap)


    def to_expr(self):
        return f"compl({self.inner.to_expr()})"


# ---------------------------------------------------------------------------
# smart constructors: canonical simplification preserving exact semantics
# ---------------------------------------------------------------------------


def finite(*elements: int) -> SymbolicSet:
    elems = tuple(sorted(set(elements)))
    return FiniteList(elems) if elems else Empty()


def periodic(modulus: int, residues) -> SymbolicSet:
    res = tuple(sorted(set(residues)))
    if not res:
        return Empty()
    if len(res) == modulus:
        return Full()
    return Periodic(modulus, res)


def blocks_dexp() -> SymbolicSet:
    return Blocks(DoubleExponentialBlocks())


def blocks_explicit(intervals) -> SymbolicSet:
    ivs = tuple(intervals)
    return Blocks(ExplicitBlocks(ivs)) if ivs else Empty()


def scale(s: SymbolicSet, t: int) -> SymbolicSet:
    if t < 1:
        raise ValueError("scale factor must be >= 1")
    if t == 1:
        return s
    if isinstance(s, Empty):
        return s
    return Scaled(t, s)


def _lcm_periodic(a: Periodic, b: Periodic, node: type) -> Optional[tuple[int, Iterable[int]]]:
    """The modulus and residues of ``node(a, b)``, for ``node`` a union, intersection or difference,
    over the lcm of the moduli: the parts' residue masks in the segment program joined by its
    ``_MASK_OP``; None past ``_LCM_CAP``.  Equal moduli need no mask, at any width: their residue
    sets are joined by ``_SET_OP``."""
    if a.modulus == b.modulus:
        return a.modulus, _SET_OP[node](a._rset, b._rset)
    m = math.lcm(a.modulus, b.modulus)
    if m > _LCM_CAP:
        return None
    return m, _residues(_MASK_OP[node](_periodic_mask(a, 1, m), _periodic_mask(b, 1, m)))


def union(a: SymbolicSet, b: SymbolicSet) -> SymbolicSet:
    if isinstance(a, Empty):
        return b
    if isinstance(b, Empty):
        return a
    if isinstance(a, Full) or isinstance(b, Full):
        return Full()
    if a == b:
        return a
    if isinstance(a, FiniteList) and isinstance(b, FiniteList):
        return finite(*(a.elements + b.elements))
    if isinstance(a, Periodic) and isinstance(b, Periodic):
        merged = _lcm_periodic(a, b, Union)
        if merged is not None:
            return periodic(*merged)
    return Union(a, b)


def inter(a: SymbolicSet, b: SymbolicSet) -> SymbolicSet:
    if isinstance(a, Empty) or isinstance(b, Empty):
        return Empty()
    if isinstance(a, Full):
        return b
    if isinstance(b, Full):
        return a
    if a == b:
        return a
    if isinstance(b, FiniteList):
        a, b = b, a
    if isinstance(a, FiniteList):
        return finite(*(e for e in a.elements if b.contains(e)))
    if isinstance(a, Periodic) and isinstance(b, Periodic):
        merged = _lcm_periodic(a, b, Intersect)
        if merged is not None:
            return periodic(*merged)
    return Intersect(a, b)


def diff(a: SymbolicSet, b: SymbolicSet) -> SymbolicSet:
    if isinstance(a, Empty) or isinstance(b, Empty):
        return a
    if isinstance(b, Full):
        return Empty()
    if a == b:
        return Empty()
    if isinstance(a, FiniteList):
        return finite(*(e for e in a.elements if not b.contains(e)))
    if isinstance(a, Periodic) and isinstance(b, Periodic):
        merged = _lcm_periodic(a, b, Diff)
        if merged is not None:
            return periodic(*merged)
    if isinstance(a, Full):
        return compl(b)
    return Diff(a, b)


def compl(a: SymbolicSet) -> SymbolicSet:
    if isinstance(a, Empty):
        return Full()
    if isinstance(a, Full):
        return Empty()
    if isinstance(a, Complement):
        return a.inner
    if isinstance(a, Periodic):
        return periodic(a.modulus, set(range(a.modulus)) - set(a.residues))
    return Complement(a)


# ---------------------------------------------------------------------------
# run algebra (for exact window extrema without per-integer scans)
# ---------------------------------------------------------------------------


# Run lists are increasing, disjoint inclusive (lo, hi) runs; those that
# ``member_runs`` returns also have a gap between any two.
_lo = operator.itemgetter(0)
_hi = operator.itemgetter(1)


def _clip(runs, windows) -> list[tuple[int, int]]:
    """The runs of the points in both run lists.  Each run of the shorter list finds the runs of
    the longer one that it meets by bisection, copies them as a slice and cuts the two ends."""
    if len(runs) > len(windows):
        runs, windows = windows, runs
    out: list[tuple[int, int]] = []
    for lo, hi in runs:
        i = bisect_left(windows, lo, key=_hi)  # the first window that ends at or past lo
        j = bisect_right(windows, hi, i, key=_lo)  # past the last that starts at or before hi
        if i < j:
            out.append((max(windows[i][0], lo), windows[i][1]))
            out += windows[i + 1 : j]
            out[-1] = (out[-1][0], min(out[-1][1], hi))
    return out


def _capped(runs, cap, within):
    """``runs`` cut to the runs ``within`` when it is given; None past ``cap`` runs."""
    if within is not None:
        runs = _clip(runs, within)
    return None if len(runs) > cap else runs


def _union_runs(a, b, cap):
    """The runs of the points in either run list, or None past ``cap`` runs.  Each run of the
    shorter list joins the runs of the longer one that it meets or touches, found by bisection,
    and the runs of the longer list between two of them are copied as a slice."""
    if len(a) > len(b):
        a, b = b, a
    out: list[tuple[int, int]] = []
    k = 0  # b[:k] is in out
    for lo, hi in a:
        i = bisect_left(b, lo - 1, k, key=_hi)  # the first run of b from k on that meets or touches
        j = bisect_right(b, hi + 1, i, key=_lo)
        out += b[k:i]
        if i < j:
            lo, hi = min(lo, b[i][0]), max(hi, b[j - 1][1])
        # a run of b joined to the previous run of a can reach this one
        if out and out[-1][1] >= lo - 1:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
        k = j
    out += b[k:]
    return None if len(out) > cap else out


def _gaps(windows, runs, cap):
    """The runs of the points of ``windows`` outside ``runs``, a run list inside them, or None
    past ``cap`` runs."""
    out: list[tuple[int, int]] = []
    j = 0
    for lo, hi in windows:
        nxt = lo
        while j < len(runs) and runs[j][0] <= hi:
            if runs[j][0] > nxt:
                out.append((nxt, runs[j][0] - 1))
            nxt = runs[j][1] + 1
            j += 1
        if nxt <= hi:
            out.append((nxt, hi))
    return None if len(out) > cap else out


# ---------------------------------------------------------------------------
# eventual periodicity: a periodic tail
# ---------------------------------------------------------------------------


def _eventual_period(s: SymbolicSet) -> Optional[tuple[int, Periodic]]:
    """(b, tail): past b, ``s`` has the members of the periodic node ``tail``; None where the
    segment program of ``s`` cannot tell.

    Past b, the largest scaled point of its finite and explicit-block leaves, every one of them is
    out, while a ``dexp`` block or an opaque leaf may be in or out.  Where the program's two masks
    for those states agree, every choice gives the same residues: they are the tail.  Memoized on
    ``s``.
    """
    memo = getattr(s, "_period_memo", None)
    if memo is None:
        width, program, leaves = _compiled(s)
        departs = [t is not None and leaf.infinitude() is Infinitude.FINITE for leaf, t in leaves]
        lo, hi = _run_program(program, tuple(False if d else None for d in departs))
        b = max((t * leaf.max_element() for (leaf, t), d in zip(leaves, departs) if d), default=0)
        memo = (None if lo != hi else (b, Periodic(width, _residues(lo))),)
        object.__setattr__(s, "_period_memo", memo)
    return memo[0]


def _infinitude_by_period(s: SymbolicSet) -> Infinitude:
    """Exact infinitude where ``_eventual_period`` applies (the tail's), else UNKNOWN."""
    period = _eventual_period(s)
    return Infinitude.UNKNOWN if period is None else period[1].infinitude()


def _bound_by_period(s: SymbolicSet) -> Optional[int]:
    """The b of ``_eventual_period``, which bounds the members, when the tail is empty; else None."""
    period = _eventual_period(s)
    return None if period is None or period[1].residues else period[0]


# ---------------------------------------------------------------------------
# segments: an algebra tree as periodic patterns between cut points
# ---------------------------------------------------------------------------


def _and_not(a: int, b: int) -> int:
    return a & ~b


# a segment's residue mask from the masks of a node's parts
_MASK_OP = {Union: operator.or_, Intersect: operator.and_, Diff: _and_not}
# the same join of two residue sets of one modulus
_SET_OP = {Union: operator.or_, Intersect: operator.and_, Diff: operator.sub}

# held while segments are extended; one for all of them, so that a counted set still pickles
_EXTEND_LOCK = threading.Lock()


def _segment_width(s: SymbolicSet, t: int, opaque: set) -> int:
    """The lcm of every periodic leaf's t·m and every other leaf's t, for ``s`` scaled by ``t``.  A
    part with no width of its own, a ``Predicate``, an ``ImageSet`` or a part wider than
    ``_LCM_CAP``, is an opaque leaf: it is added to ``opaque`` as (id, t) and counts as a leaf.  A
    complement needs no term of its own: a leaf below it has its t."""
    if isinstance(s, Scaled):
        width = _segment_width(s.inner, t * s.factor, opaque)
    elif isinstance(s, Complement):
        width = _segment_width(s.inner, t, opaque)
    elif isinstance(s, (Union, Intersect, Diff)):
        width = math.lcm(_segment_width(s.left, t, opaque), _segment_width(s.right, t, opaque))
    elif isinstance(s, Periodic):
        width = t * s.modulus
    elif isinstance(s, (Empty, Full, FiniteList, Blocks)):
        width = t
    else:
        width = _LCM_CAP + 1
    if width > _LCM_CAP:
        opaque.add((id(s), t))
        # past the cap itself, t makes the part above opaque too, up to the root, whose t is 1
        return t
    return width


def _tile(pattern: int, period: int, width: int) -> int:
    """The residue mask ``pattern`` mod ``period`` as a mask mod ``width``, a multiple of it."""
    while period < width:
        pattern |= pattern << period
        period *= 2
    return pattern & ((1 << width) - 1)


_ONE_DIGITS = itertools.repeat(ord("1"))
_BIT_FLAGS = bytes.maketrans(b"01", b"\0\1")


def _periodic_mask(s: Periodic, t: int, width: int) -> int:
    """The residue mask of ``s`` scaled by ``t`` mod ``width``, a multiple of t·m.

    With more than 8 + t·m/16 residues, they are set as binary digits by C-level calls, spread t
    apart by a slice, and read by ``int``; fewer set one bit each in a Python step, which is
    faster there and skips the pass over every bit."""
    m = t * s.modulus
    if len(s.residues) > 8 + m // 16:
        digits = bytearray(b"0") * s.modulus
        any(map(digits.__setitem__, s.residues, _ONE_DIGITS))  # each call returns None: sets all
        if t > 1:
            digits, spread = bytearray(b"0") * m, digits
            digits[::t] = spread
        return _tile(int(digits[::-1], 2), m, width)
    buf = bytearray(m // 8 + 1)
    for r in s.residues:
        buf[t * r >> 3] |= 1 << (t * r & 7)
    return _tile(int.from_bytes(buf, "little"), m, width)


def _residues(mask: int) -> tuple[int, ...]:
    """The members of the residue mask ``mask``, increasing.

    With more than 2 + bits/8 members, they are picked from the bit string by
    ``itertools.compress`` in one C-level pass; fewer are read member by member with
    ``str.find``, which is faster there and skips the runs of zeros."""
    bits = bin(mask)[:1:-1]  # lowest bit first
    if mask.bit_count() > 2 + len(bits) // 8:
        flags = bits.encode().translate(_BIT_FLAGS)
        return tuple(itertools.compress(range(len(flags)), flags))
    out = []
    r = bits.find("1")
    while r >= 0:
        out.append(r)
        r = bits.find("1", r + 1)
    return tuple(out)


def _segment_program(s: SymbolicSet, t: int, width: int, leaves: list, opaque: set) -> int | tuple:
    """``s`` scaled by ``t`` as its residue mask mod ``width`` on a segment: an int when no leaf with
    a state lies below it, else a tree of (op, x, y) over the states of ``leaves``, to which its
    finite, block and ``opaque`` leaves are appended with their factors (None for an opaque one).
    Every mask lies within the multiples of t, so a complement is a difference from them."""
    if (id(s), t) in opaque:
        leaves.append((s, None))
        return "leaf", len(leaves) - 1, _tile(1, t, width)
    if isinstance(s, Scaled):
        return _segment_program(s.inner, t * s.factor, width, leaves, opaque)
    if isinstance(s, Empty):
        return 0
    if isinstance(s, Periodic):
        return _periodic_mask(s, t, width)
    if isinstance(s, (Union, Intersect, Diff)):
        op = _MASK_OP[type(s)]
        x, y = (_segment_program(part, t, width, leaves, opaque) for part in (s.left, s.right))
        return op(x, y) if isinstance(x, int) and isinstance(y, int) else (op, x, y)
    multiples = _tile(1, t, width)
    if isinstance(s, Full):
        return multiples
    if isinstance(s, Complement):
        inner = _segment_program(s.inner, t, width, leaves, opaque)
        return multiples & ~inner if isinstance(inner, int) else (_and_not, multiples, inner)
    leaves.append((s, t))
    return "leaf", len(leaves) - 1, multiples


def _run_program(program: int | tuple, states: tuple[Optional[bool], ...]) -> tuple[int, int]:
    """The masks of ``_segment_program``'s ``program`` for the leaf ``states``, each True, False or
    None (either): the residues in for every choice of the None states, and those in for some."""
    if isinstance(program, int):
        return program, program
    op, x, y = program
    if op == "leaf":
        return (y if states[x] else 0), (0 if states[x] is False else y)
    (xlo, xhi), (ylo, yhi) = _run_program(x, states), _run_program(y, states)
    if op is _and_not:  # falls as its right part grows
        ylo, yhi = yhi, ylo
    return op(xlo, ylo), op(xhi, yhi)


def _compiled(s: SymbolicSet) -> tuple[int, int | tuple, list]:
    """(width, program, leaves): the segment program of ``s``, compiled on first use and memoized
    on it; every question about the tree's patterns reads this one program.  A program whose leaf
    is ``s`` itself is one leaf, cheap to compile again, and is not kept, nor are the segments built
    from it (``_segments``): on ``s`` either would make a reference cycle, which only the cyclic
    collector frees."""
    memo = getattr(s, "_program_memo", None)
    if memo is None and isinstance(s, Periodic) and s.modulus <= _LCM_CAP:  # the program is its mask
        memo = s.modulus, _periodic_mask(s, 1, s.modulus), []
        object.__setattr__(s, "_program_memo", memo)
    elif memo is None:
        opaque: set = set()
        width, leaves = _segment_width(s, 1, opaque), []
        memo = width, _segment_program(s, 1, width, leaves, opaque), leaves
        if not any(leaf is s for leaf, _ in leaves):
            object.__setattr__(s, "_program_memo", memo)
    return memo


def _leaf_intervals(leaf: FiniteList | Blocks, lo: int, hi: int) -> Iterable[tuple[int, int]]:
    """The intervals [l, r) of a finite or block leaf that hold a point of [lo, hi]; a finite
    point e is the interval [e, e + 1)."""
    if isinstance(leaf, FiniteList):
        e = leaf.elements
        return ((x, x + 1) for x in e[bisect_left(e, lo) : bisect_right(e, hi)])
    return leaf.source.intervals_meeting(lo, hi)


class _Segments:
    """A tree counted on [1, top] from its segments.

    The cut points are t·l and t·(r - 1) + 1 for every interval [l, r) of a
    block leaf under total scale factor t, and t·e and t·e + 1 for every
    point e of a finite leaf.  Between two cuts each such leaf is all in or
    all out on the multiples of t, as at ⌈a/t⌉ for a segment that starts at
    a, so the tree is one residue mask mod ``width``, the lcm of every
    periodic leaf's t·m and every other leaf's t.  Segment i starts at
    ``starts[i]``, the count at every n in it is ``bases[i]`` plus the
    members of its mask in [0, n], and the count before it is ``below[i]``.
    Equal leaf states share one mask, equal masks one pattern, and segments
    with one pattern are joined.  A count past ``top`` appends the segments
    of the cuts up to it, or to twice ``top`` if that is further: the cost is
    per cut, never per integer.  Extensions hold ``_EXTEND_LOCK`` and publish
    ``top`` last, so readers need none.

    A pattern is its mask cut into chunks of about √width bytes, with the
    members before each chunk, so that a count or a select reads one chunk
    of the mask rather than all of it, and the mask itself.
    """

    def __init__(self, width: int, program: int | tuple, leaves: list):
        self.width, self._program, self._leaves = width, program, leaves
        self._step = math.isqrt(width) + 1  # bytes per chunk
        self._by_states: dict[tuple[bool, ...], tuple] = {}
        self._by_mask: dict[int, tuple] = {}
        pattern = self._pattern_at(1)
        self.patterns, self.bases, self.starts, self.below = [pattern], [-self._members(pattern, 0)], [1], [0]
        self.top = 1

    def _pattern_at(self, a: int) -> tuple[list[int], list[int], int]:
        """The pattern of a segment that starts at ``a``."""
        states = tuple(leaf.contains(-(-a // t)) for leaf, t in self._leaves)
        pattern = self._by_states.get(states)
        if pattern is None:
            mask = _run_program(self._program, states)[0]
            pattern = self._by_mask.get(mask)
            if pattern is None:
                raw, step = mask.to_bytes(self.width // 8 + 1, "little"), self._step
                chunks = [int.from_bytes(raw[k : k + step], "little") for k in range(0, len(raw), step)]
                before = list(itertools.accumulate(map(int.bit_count, chunks), initial=0))
                pattern = self._by_mask[mask] = chunks, before, mask
            self._by_states[states] = pattern
        return pattern

    def _members(self, pattern: tuple[list[int], list[int], int], n: int) -> int:
        """The members of ``pattern``'s mask in [0, n]."""
        q, r = divmod(n, self.width)
        k, j = divmod(r, 8 * self._step)
        chunks, before, _ = pattern
        return q * before[-1] + before[k] + (chunks[k] & ((2 << j) - 1)).bit_count()

    def count(self, n: int) -> int:
        if n < 1:
            return 0
        if n > self.top:
            with _EXTEND_LOCK:
                if n > self.top:
                    self._extend(max(n, 2 * self.top))  # a sweep upwards extends log2(n) times
        i = bisect_right(self.starts, n) - 1
        return self.bases[i] + self._members(self.patterns[i], n)

    def select(self, k: int, hi: int) -> int:
        """The k-th member, at most ``hi``: in the last segment i whose count before its start is
        below k, the member of rank k - ``bases[i]`` of its mask over n >= 0, read in one chunk."""
        self.count(hi)  # extends the segments to hi
        i = bisect_left(self.below, k) - 1
        chunks, before, _ = self.patterns[i]
        q, j = divmod(k - self.bases[i] - 1, before[-1])  # j members of one period come first
        c = bisect_right(before, j) - 1
        return q * self.width + 8 * self._step * c + _residues(chunks[c])[j - before[c]]

    def _extend(self, n: int) -> None:
        top, cuts = self.top, set()
        for leaf, t in self._leaves:
            for l, r in _leaf_intervals(leaf, -(-top // t), n // t):
                cuts.update(c for c in (t * l, t * (r - 1) + 1) if top < c <= n)
        for c in sorted(cuts):
            pattern = self._pattern_at(c)
            if pattern is self.patterns[-1]:
                continue
            self.below.append(self.bases[-1] + self._members(self.patterns[-1], c - 1))  # the count at c - 1
            self.bases.append(self.below[-1] - self._members(pattern, c - 1))
            self.patterns.append(pattern)
            self.starts.append(c)
        self.top = n


def _segments(s: SymbolicSet) -> Optional[_Segments]:
    """The segments of ``s``, built on first use.  When its program has an opaque leaf they are
    its tail's where ``_eventual_period`` gives b = 0, for then no leaf changes ``s`` anywhere,
    and else None.  They are memoized on ``s``, unless ``s`` is a finite or block leaf of its own
    program: its segments hold it, so on it they would make a reference cycle, and they are built
    afresh on every call.  A caller that reads the cuts up to some top extends them first, by
    ``count(top)``."""
    memo = getattr(s, "_segment_memo", None)
    if memo is None:
        width, program, leaves = _compiled(s)
        if all(t is not None for _, t in leaves):
            memo = (_Segments(width, program, leaves),)
        else:  # a periodic set wider than the cap is its own tail, and has none
            b, tail = _eventual_period(s) or (None, s)
            memo = (_segments(tail) if b == 0 and tail is not s else None,)
        if memo[0] is None or all(leaf is not s for leaf, _ in leaves):
            object.__setattr__(s, "_segment_memo", memo)
    return memo[0]


def _segment_runs(s: SymbolicSet, top: int) -> Optional[tuple[int, list[int], list[int], list[int]]]:
    """(width, starts, below, masks): segment i of ``s`` starts at ``starts[i]``, has ``below[i]``
    members before it and the residue mask ``masks[i]`` mod ``width``, for the segments up to
    ``top`` at least; None where ``_segments`` is.  A program with no leaves is one segment, read
    without building ``_Segments``."""
    width, program, leaves = _compiled(s)
    if not leaves:
        return width, [1], [0], [program]
    segments = _segments(s)
    if segments is None:
        return None
    segments.count(top)
    return segments.width, segments.starts, segments.below, [pattern[2] for pattern in segments.patterns]


# ---------------------------------------------------------------------------
# selection
# ---------------------------------------------------------------------------


def _least(lo: int, hi: int, test: Callable[[int], bool]) -> int:
    """The least n in [lo, hi] where the monotone ``test`` turns true; ``test(hi)`` must hold."""
    while lo < hi:
        mid = (lo + hi) // 2
        if test(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def select(s: SymbolicSet, k: int, budget: Optional[int] = None) -> int:
    """Return the k-th smallest element of ``s``.

    Finite lists, periodic sets and blocks are indexed directly; every other
    set selects from its segments or bisects ``count`` below an n with k members.  Satisfies
    ``count(select(s, k)) == k`` and ``contains(select(s, k))``.  ``budget`` is as in ``count``.
    """
    if budget is not None:
        with _metered(budget):
            return select(s, k)
    if k < 1:
        raise ValueError("selection index must be >= 1")
    if isinstance(s, FiniteList):
        if k > len(s.elements):
            raise IndexBeyondSet(f"finite set has {len(s.elements)} < {k} elements")
        return s.elements[k - 1]
    if isinstance(s, Periodic) and s.residues:
        q, i = divmod(k - 1, len(s.residues))
        return q * s.modulus + s._offs[i]
    if isinstance(s, Blocks):
        seen = 0  # the members of the intervals before [l, r)
        for l, r in s.source.iter_intervals():
            if k <= seen + r - l:
                return l + k - seen - 1
            seen += r - l
        raise IndexBeyondSet(f"finite set has fewer than {k} elements")
    segments = _segments(s)
    if segments is not None and k <= segments.count(segments.top):
        return segments.select(k, segments.top)

    flag = s.infinitude()
    if flag == Infinitude.FINITE:
        bound = s.max_element()
        if bound is None or s.count(bound) < k:
            raise IndexBeyondSet(f"finite set has fewer than {k} elements")
        hi = bound
    else:
        hi = max(2, k)
        while s.count(hi) < k:
            hi *= 2
            if flag == Infinitude.UNKNOWN and hi > _UNKNOWN_PROBE_LIMIT:
                raise UnknownInfinitude(
                    f"cannot certify that {s.to_expr()} has {k} elements"
                )
    if segments is not None:
        return segments.select(k, hi)
    return _least(1, hi, lambda n: s.count(n) >= k)
