"""Independent oracles for the test suite.

Everything here recomputes expected values from first principles (literal
enumeration or independently written closed forms) so library results are
checked against a second, separate path.
"""

from fractions import Fraction
from itertools import takewhile

from densitylab.nset import (
    Blocks,
    Complement,
    Diff,
    Empty,
    FiniteList,
    Full,
    Intersect,
    Periodic,
    Predicate,
    Scaled,
    Union,
)


def dexp_elements(limit: int) -> list[int]:
    """Literal element list of the double-exponential block set up to limit."""
    out = []
    i = 1
    while 2 ** (2**i) <= limit:
        lo = 2 ** (2**i)
        out.extend(range(lo, min(2 * lo, limit + 1)))
        i += 1
    return out


def dexp_count_enum(n: int) -> int:
    """Counting by literal enumeration; keep n modest."""
    return len(dexp_elements(n))


def dexp_count_closed(n: int) -> int:
    """Counting by an independently written block summation."""
    total = 0
    i = 1
    while 2 ** (2**i) <= n:
        lo = 2 ** (2**i)
        total += min(2 * lo - 1, n) - lo + 1
        i += 1
    return total


def brute_members(s, n: int) -> set[int]:
    """Direct set-semantics evaluation of a symbolic tree up to n."""
    if isinstance(s, Empty):
        return set()
    if isinstance(s, Full):
        return set(range(1, n + 1))
    if isinstance(s, FiniteList):
        return {e for e in s.elements if e <= n}
    if isinstance(s, Periodic):
        rs = set(s.residues)
        return {k for k in range(1, n + 1) if k % s.modulus in rs}
    if isinstance(s, Blocks):
        ivs = list(takewhile(lambda iv: iv[0] <= n, s.source.iter_intervals()))
        return {k for k in range(1, n + 1) if any(l <= k < r for l, r in ivs)}
    if isinstance(s, Scaled):
        return {s.factor * a for a in brute_members(s.inner, n // s.factor)}
    if isinstance(s, Predicate):
        return {k for k in range(1, n + 1) if s.rule(k)}
    if isinstance(s, Union):
        return brute_members(s.left, n) | brute_members(s.right, n)
    if isinstance(s, Intersect):
        return brute_members(s.left, n) & brute_members(s.right, n)
    if isinstance(s, Diff):
        return brute_members(s.left, n) - brute_members(s.right, n)
    if isinstance(s, Complement):
        return set(range(1, n + 1)) - brute_members(s.inner, n)
    raise TypeError(f"no brute evaluation for {type(s)}")


def brute_defect(pi, n: int) -> int:
    """Literal |{k : k <= n < pi(k)}| by full scan."""
    return sum(1 for k in range(1, n + 1) if pi.apply(k) > n)


def brute_image_count(pi, s, n: int) -> int:
    """Literal |pi(S) ∩ [1, n]| through the inverse."""
    return sum(1 for m in range(1, n + 1) if s.contains(pi.invert(m)))


def scan_extrema(s, lo: int, hi: int):
    """The first (A(n), n) attaining the least A(n)/n over [lo, hi] and the
    first attaining the greatest, comparing every integer with both."""
    members = brute_members(s, hi)
    c = sum(1 for k in members if k < lo)
    best_min = best_max = None
    for n in range(lo, hi + 1):
        c += n in members
        if best_min is None or Fraction(c, n) < Fraction(*best_min):
            best_min = (c, n)
        if best_max is None or Fraction(c, n) > Fraction(*best_max):
            best_max = (c, n)
    return best_min, best_max


def scan_tail_sup(a, b, lo: int, hi: int) -> Fraction:
    """max |A(n) - B(n)|/n over [lo, hi] (0 on an empty window), comparing
    every integer."""
    ma, mb = brute_members(a, hi), brute_members(b, hi)
    ca = sum(1 for k in ma if k < lo)
    cb = sum(1 for k in mb if k < lo)
    best = Fraction(0)
    for n in range(lo, hi + 1):
        ca += n in ma
        cb += n in mb
        best = max(best, Fraction(abs(ca - cb), n))
    return best


def brute_first_violation(a, b, horizon: int):
    """The least n <= horizon with B(n) < A(n), comparing literal counts at
    every integer; None when there is none."""
    ma, mb = brute_members(a, horizon), brute_members(b, horizon)
    ca = cb = 0
    for n in range(1, horizon + 1):
        ca += n in ma
        cb += n in mb
        if cb < ca:
            return n
    return None
