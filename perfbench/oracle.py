"""Reference answers for benchmark requests, computed without densitylab.

Expressions are parsed here by a parser of the benchmark's own.  Sets are
evaluated by brute force as Python-int bitsets (bit k set iff k is a member,
the same semantics as ``brute_members`` in tests/oracles.py); past the bitset
range they are counted as periodic patterns between the breakpoints of their
non-periodic leaves (the double-exponential blocks, counted block by block as
in ``dexp_count_closed``).  Permutations are applied literally and defects and
image counts are full scans, as in ``brute_defect`` and ``brute_image_count``.

``expected(argv)`` returns the parts of a command's ``result`` object that
these references determine, in the same JSON shape; ``matches`` compares a
report against it.  Labels that are finite-horizon heuristics
(``classification``) and echoed expressions are not checked.
"""

from __future__ import annotations

import json
import math
import re
from bisect import bisect_left
from fractions import Fraction
from pathlib import Path

# bitsets cover at least this horizon; counts beyond it use periodic patterns
_BITS_FLOOR = 1 << 18

# pairings enumerate their two parts at most this far
_PAIR_LIMIT = 1 << 26

_TOKEN = re.compile(r"\s*(?:(\d+)|([a-z]+)|([()\[\],;:/]))")

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"


# ---------------------------------------------------------------------------
# parsing into tuples
# ---------------------------------------------------------------------------


class _Tokens:
    def __init__(self, text: str):
        self.items = []
        pos = 0
        text = text.rstrip()
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if m is None or m.end() == pos:
                raise ValueError(f"cannot tokenize {text[pos:]!r}")
            self.items.append(m.group(1) or m.group(2) or m.group(3))
            pos = m.end()
        self.i = 0

    def peek(self):
        return self.items[self.i] if self.i < len(self.items) else None

    def take(self, want=None):
        tok = self.peek()
        if tok is None or (want is not None and tok != want):
            raise ValueError(f"expected {want!r}, got {tok!r}")
        self.i += 1
        return tok

    def int(self) -> int:
        return int(self.take())

    def ints_until(self, close: str) -> list[int]:
        out = []
        while self.peek() != close:
            out.append(self.int())
            if self.peek() == ",":
                self.take()
        return out


def _set(t: _Tokens):
    name = t.take()
    if name in ("empty", "full"):
        return (name,)
    t.take("(")
    if name == "finite":
        node = ("finite", tuple(sorted(set(t.ints_until(")")))))
    elif name == "periodic":
        m = t.int()
        t.take(";")
        node = ("periodic", m, frozenset(t.ints_until(")")))
    elif name == "blocks":
        if t.peek() == "dexp":
            t.take()
            node = ("dexp",)
        else:
            ivs = []
            while t.peek() == "[":
                t.take("[")
                lo = t.int()
                t.take(",")
                hi = t.int()
                t.take(")")
                ivs.append((lo, hi))
                if t.peek() == ",":
                    t.take()
            node = ("blocks", tuple(ivs))
    elif name == "scale":
        factor = t.int()
        t.take(",")
        node = ("scale", factor, _set(t))
    elif name in ("union", "inter", "diff"):
        a = _set(t)
        t.take(",")
        node = (name, a, _set(t))
    elif name == "compl":
        node = ("compl", _set(t))
    else:
        raise ValueError(f"unknown set form {name!r}")
    t.take(")")
    return node


def _seq(t: _Tokens):
    name = t.take()
    t.take("(")
    if name in ("all", "dexp"):
        node = (name, t.int())
    elif name == "explicit":
        node = ("explicit", tuple(t.ints_until(")")))
    elif name == "doubled":
        node = ("doubled", _seq(t))
    elif name == "geom":
        first = t.int()
        t.take(",")
        ratio = t.int()
        t.take(",")
        node = ("geom", first, ratio, t.int())
    else:
        raise ValueError(f"unknown sequence form {name!r}")
    t.take(")")
    return node


def _perm(t: _Tokens):
    name = t.take()
    if name in ("id", "qswap"):
        return (name,)
    t.take("(")
    if name == "table":
        mapping = {}
        while t.peek() == "(":
            t.take("(")
            cycle = []
            while t.peek() != ")":
                cycle.append(t.int())
            t.take(")")
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                mapping[a] = b
        node = ("table", mapping)
    elif name == "pair":
        a = _set(t)
        t.take(",")
        node = ("pair", a, _set(t))
    elif name == "restrict":
        base = _perm(t)
        t.take(",")
        node = ("restrict", base, _set(t))
    elif name == "comp":
        outer = _perm(t)
        t.take(",")
        node = ("comp", outer, _perm(t))
    elif name == "inv":
        node = ("inv", _perm(t))
    else:
        raise ValueError(f"unsupported permutation form {name!r}")
    t.take(")")
    return node


def _measure(t: _Tokens):
    name = t.take()
    t.take("(")
    if name in ("sublim", "combo"):
        node = (name, _seq(t))
    elif name == "mix":
        terms = []
        while True:
            num = t.int()
            den = 1
            if t.peek() == "/":
                t.take()
                den = t.int()
            t.take(":")
            terms.append((Fraction(num, den), _measure(t)))
            if t.peek() != ",":
                break
            t.take()
        node = ("mix", tuple(terms))
    else:
        raise ValueError(f"unknown measure form {name!r}")
    t.take(")")
    return node


def parse(text: str, kind: str):
    t = _Tokens(text)
    node = {"set": _set, "seq": _seq, "perm": _perm, "measure": _measure}[kind](t)
    if t.peek() is not None:
        raise ValueError(f"trailing input in {text!r}")
    return node


# ---------------------------------------------------------------------------
# sets
# ---------------------------------------------------------------------------


def _ones(n: int) -> int:
    """Bits 1..n."""
    return ((1 << (n + 1)) - 1) ^ 1 if n >= 1 else 0


def _repeat(pattern: int, width: int, total: int) -> int:
    """``pattern`` (``width`` bits) repeated to cover ``total`` bits."""
    out, length = pattern, width
    while length < total:
        out |= out << length
        length *= 2
    return out & ((1 << total) - 1)


def _spread(x: int, t: int, width: int) -> int:
    """Move bit i of ``x`` to bit t*i, keeping bits below ``width``."""
    digits = bytearray(b"0" * width)
    s = format(x, "b")[::-1]
    i = s.find("1")
    while i != -1 and t * i < width:
        digits[t * i] = 49
        i = s.find("1", i + 1)
    return int(digits[::-1].decode(), 2)


def _dexp_intervals(upto: int):
    i = 1
    while (1 << (1 << i)) <= upto:
        lo = 1 << (1 << i)
        yield lo, 2 * lo
        i += 1


def _bits(node, n: int) -> int:
    kind = node[0]
    if kind == "empty" or n < 1:
        return 0
    if kind == "full":
        return _ones(n)
    if kind == "finite":
        x = 0
        for e in node[1]:
            if 1 <= e <= n:
                x |= 1 << e
        return x
    if kind == "periodic":
        m, res = node[1], node[2]
        pat = sum(1 << r for r in res)
        return _repeat(pat, m, n + 1) & _ones(n)
    if kind in ("dexp", "blocks"):
        ivs = _dexp_intervals(n) if kind == "dexp" else node[1]
        x = 0
        for lo, hi in ivs:
            if lo > n:
                break
            top = min(hi - 1, n)
            x |= ((1 << (top + 1)) - 1) ^ ((1 << lo) - 1)
        return x
    if kind == "scale":
        t = node[1]
        return _spread(_bits(node[2], n // t), t, n + 1)
    if kind == "compl":
        return _ones(n) & ~_bits(node[1], n)
    a, b = _bits(node[1], n), _bits(node[2], n)
    if kind == "union":
        return a | b
    if kind == "inter":
        return a & b
    return a & ~b


def _member(node, k: int) -> bool:
    kind = node[0]
    if k < 1 or kind == "empty":
        return False
    if kind == "full":
        return True
    if kind == "finite":
        return k in node[1]
    if kind == "periodic":
        return k % node[1] in node[2]
    if kind in ("dexp", "blocks"):
        ivs = _dexp_intervals(k) if kind == "dexp" else node[1]
        return any(lo <= k < hi for lo, hi in ivs)
    if kind == "scale":
        return k % node[1] == 0 and _member(node[2], k // node[1])
    if kind == "compl":
        return not _member(node[1], k)
    a, b = _member(node[1], k), _member(node[2], k)
    return {"union": a or b, "inter": a and b, "diff": a and not b}[kind]


def subtrees(node):
    """``node`` and every set expression below it."""
    yield node
    for child in node[1:]:
        if isinstance(child, tuple) and child and isinstance(child[0], str):
            yield from subtrees(child)


def run_count(node, horizon: int) -> int:
    """Maximal runs of consecutive members in [1, horizon]."""
    x = _bits(node, horizon)
    return (x & ~(x << 1)).bit_count()


def _period(node) -> int:
    kind = node[0]
    if kind == "periodic":
        return node[1]
    if kind == "scale":
        return node[1] * _period(node[2])
    if kind == "compl":
        return _period(node[1])
    if kind in ("union", "inter", "diff"):
        return math.lcm(_period(node[1]), _period(node[2]))
    return 1


def _leaves(node, mult: int = 1):
    """(leaf, product of the scale factors above it) for every leaf."""
    kind = node[0]
    if kind == "scale":
        yield from _leaves(node[2], mult * node[1])
    elif kind == "compl":
        yield from _leaves(node[1], mult)
    elif kind in ("union", "inter", "diff"):
        yield from _leaves(node[1], mult)
        yield from _leaves(node[2], mult)
    else:
        yield node, mult


def _pattern(node, width: int, mult: int, at: int) -> int:
    """Members by residue mod ``width`` on a stretch where every non-periodic
    leaf keeps the state it has at the integer ``at``."""
    kind = node[0]
    full = (1 << width) - 1
    if kind == "full":
        return full
    if kind in ("empty", "finite", "blocks"):
        return 0
    if kind == "dexp":
        inside = any(mult * lo <= at < mult * hi for lo, hi in _dexp_intervals(at))
        return full if inside else 0
    if kind == "periodic":
        return _repeat(sum(1 << r for r in node[2]), node[1], width)
    if kind == "scale":
        t = node[1]
        return _spread(_pattern(node[2], width // t, mult * t, at), t, width)
    if kind == "compl":
        return full & ~_pattern(node[1], width, mult, at)
    a = _pattern(node[1], width, mult, at)
    b = _pattern(node[2], width, mult, at)
    if kind == "union":
        return a | b
    if kind == "inter":
        return a & b
    return a & ~b


class RefSet:
    """Counting and membership of a parsed set expression by brute force."""

    def __init__(self, node, horizon: int = 0):
        self.node = node
        self.n = max(_BITS_FLOOR, horizon)
        self.x = _bits(node, self.n)
        # digit k is "1" iff k is a member (k <= n)
        self.digits = format(self.x, "b")[::-1].ljust(self.n + 1, "0")
        self._big = {}

    def contains(self, k: int) -> bool:
        if k <= self.n:
            return k >= 1 and self.digits[k] == "1"
        return _member(self.node, k)

    def count(self, k: int) -> int:
        if k <= self.n:
            return (self.x & ((1 << (k + 1)) - 1)).bit_count() if k >= 1 else 0
        if k not in self._big:
            self._big[k] = self._count_beyond(k)
        return self._big[k]

    def _count_beyond(self, k: int) -> int:
        cuts = set()
        for leaf, mult in _leaves(self.node):
            if leaf[0] == "finite" and leaf[1] and mult * leaf[1][-1] > self.n:
                raise ValueError("finite leaf reaches past the bitset range")
            if leaf[0] == "blocks" and leaf[1] and mult * leaf[1][-1][1] > self.n:
                raise ValueError("block leaf reaches past the bitset range")
            if leaf[0] == "dexp":
                for lo, hi in _dexp_intervals(k):
                    cuts.update((mult * lo, mult * hi))
        starts = [self.n + 1] + sorted(c for c in cuts if self.n + 1 < c <= k)
        width = _period(self.node)
        total = self.count(self.n)
        for lo, nxt in zip(starts, starts[1:] + [k + 1]):
            pat = _pattern(self.node, width, 1, lo)
            total += _periodic_count(pat, width, nxt - 1) - _periodic_count(pat, width, lo - 1)
        return total

    def window_counts(self, lo: int, hi: int):
        """Yield (n, count(n)) for n = lo..hi."""
        c = self.count(lo - 1)
        for n in range(lo, hi + 1):
            c += self.contains(n)
            yield n, c


def _periodic_count(pat: int, width: int, n: int) -> int:
    """|{1 <= k <= n : bit (k mod width) of pat is set}|."""
    if n < 1:
        return 0
    q, r = divmod(n, width)
    return q * pat.bit_count() + (pat & ((1 << (r + 1)) - 1)).bit_count() - (pat & 1)


def exact_density(node):
    """Density of a set without double-exponential leaves, else None."""
    if any(leaf[0] == "dexp" for leaf, _ in _leaves(node)):
        return None
    width = _period(node)
    return Fraction(_pattern(node, width, 1, 0).bit_count(), width)


# ---------------------------------------------------------------------------
# permutations
# ---------------------------------------------------------------------------


class RefPerm:
    def __init__(self, node):
        self.node = node
        kind = node[0]
        if kind == "table":
            self.fwd = dict(node[1])
            self.bwd = {v: k for k, v in node[1].items()}
        elif kind == "pair":
            self.a_only = ("diff", node[1], node[2])
            self.b_only = ("diff", node[2], node[1])
            self.upto = 0
        elif kind in ("comp", "inv"):
            self.parts = [RefPerm(p) for p in node[1:]]
        elif kind == "restrict":
            # the pairing fixes the pairs that meet the exceptional set
            self.parts = [RefPerm(node[1])]
            self.exceptional = RefSet(node[2])

    def _grow(self, k: int):
        m = max(2 * k, 2 * self.upto, 1024)
        self.la = self._elements(self.a_only, m)
        self.lb = self._elements(self.b_only, m)
        self.upto = m

    @staticmethod
    def _elements(node, upto):
        digits = format(_bits(node, upto), "b")[::-1]
        return [i for i, ch in enumerate(digits) if ch == "1"]

    def _swap(self, k: int) -> int:
        """The partner of k: a_i <-> b_i, everything else fixed."""
        while True:
            if k > self.upto:
                self._grow(k)
                continue
            for own, other in ((self.la, self.lb), (self.lb, self.la)):
                i = bisect_left(own, k)
                if i < len(own) and own[i] == k:
                    if i < len(other):
                        return other[i]
                    break  # the partner lies past the enumerated range
            else:
                return k
            if self.upto >= _PAIR_LIMIT:
                raise ValueError(f"no partner for {k} below {_PAIR_LIMIT}")
            self._grow(self.upto)

    def apply(self, k: int) -> int:
        kind = self.node[0]
        if kind == "id":
            return k
        if kind == "qswap":
            if k < 4:
                return k
            base = 1
            while base * 4 <= k:
                base *= 4
            if k < 2 * base:
                return k + base
            if k < 3 * base:
                return k - base
            return k
        if kind == "table":
            return self.fwd.get(k, k)
        if kind == "pair":
            return self._swap(k)
        if kind == "comp":
            return self.parts[0].apply(self.parts[1].apply(k))
        if kind == "restrict":
            partner = self.parts[0].apply(k)
            frozen = self.exceptional.contains(k) or self.exceptional.contains(partner)
            return k if frozen else partner
        return self.parts[0].invert(k)

    def invert(self, k: int) -> int:
        kind = self.node[0]
        if kind == "table":
            return self.bwd.get(k, k)
        if kind == "comp":
            return self.parts[1].invert(self.parts[0].invert(k))
        if kind == "inv":
            return self.parts[0].apply(k)
        return self.apply(k)  # id, qswap and (restricted) pairings are involutions


# ---------------------------------------------------------------------------
# expected results per command
# ---------------------------------------------------------------------------


def doubling_points(horizon: int, levels: int = 12) -> list[int]:
    return sorted({max(1, horizon // 2**k) for k in range(levels + 1)})


def seq_points(node) -> list[int]:
    kind = node[0]
    if kind == "all":
        return list(range(1, node[1] + 1))
    if kind == "explicit":
        return list(node[1])
    if kind == "dexp":
        return [1 << (1 << i) for i in range(1, node[1] + 1)]
    if kind == "doubled":
        return [2 * p for p in seq_points(node[1])]
    return [node[1] * node[2] ** j for j in range(node[3])]


def _options(argv: list[str]) -> tuple[list[str], dict]:
    pos, opts = [], {"eps": []}
    i = 1
    while i < len(argv):
        a = argv[i]
        if a.startswith("--"):
            key = a[2:].replace("-", "_")
            if key == "eps":
                opts["eps"].append(Fraction(argv[i + 1]))
            else:
                opts[key] = argv[i + 1]
            i += 2
        else:
            pos.append(a)
            i += 1
    return pos, opts


def _profile(entries):
    return [{"n": n, "value": v} for n, v in entries]


def _limit(s: RefSet, points: list[int], tol: Fraction) -> dict:
    counts = [s.count(n) for n in points]
    tail = math.ceil(len(points) / 2)
    vals = [Fraction(c, n) for c, n in zip(counts, points)]
    lo, hi = min(vals[-tail:]), max(vals[-tail:])
    converged = hi - lo <= tol
    return {
        "verdict": "converged" if converged else "oscillating",
        "value": vals[-1] if converged else None,
        "achieved_tol": hi - lo if converged else None,
        "tail_inf": lo,
        "tail_sup": hi,
        "tail_window": tail,
        "sampled": False,
        "_points": list(zip(points, vals)),
    }


def _evaluate(mu, s: RefSet, tol: Fraction) -> dict:
    kind = mu[0]
    if kind == "sublim":
        rep = _limit(s, seq_points(mu[1]), tol)
        return {
            "converged": rep["verdict"] == "converged",
            "value": rep["value"],
            "achieved_tol": rep["achieved_tol"],
            "lo": rep["tail_inf"],
            "hi": rep["tail_sup"],
            "partials": rep["_points"],
            "constituents": [rep],
        }
    if kind == "combo":
        pts = seq_points(mu[1])
        base = _limit(s, pts, tol)
        dbl = _limit(s, [2 * p for p in pts], tol)
        partials = [(n, Fraction(s.count(2 * n) - s.count(n), n)) for n in pts]
        tail_vals = [v for _, v in partials[-math.ceil(len(partials) / 2):]]
        converged = base["verdict"] == dbl["verdict"] == "converged"
        return {
            "converged": converged,
            "value": 2 * dbl["value"] - base["value"] if converged else None,
            "achieved_tol": 2 * dbl["achieved_tol"] + base["achieved_tol"] if converged else None,
            "lo": min(tail_vals),
            "hi": max(tail_vals),
            "partials": partials,
            "constituents": [base, dbl],
        }
    reps = [(w, _evaluate(rule, s, tol)) for w, rule in mu[1]]
    converged = all(r["converged"] for _, r in reps)
    return {
        "converged": converged,
        "value": sum(w * r["value"] for w, r in reps) if converged else None,
        "achieved_tol": max(r["achieved_tol"] for _, r in reps) if converged else None,
        "lo": sum(w * r["lo"] for w, r in reps),
        "hi": sum(w * r["hi"] for w, r in reps),
        "partials": None,
        "constituents": [c for _, r in reps for c in r["constituents"]],
    }


def _defects(pi: RefPerm, points: list[int]) -> list[tuple[int, Fraction]]:
    """|{k <= n : pi(k) > n}| / n at each point, by one scan over k."""
    diffs = [0] * (len(points) + 1)
    for k in range(1, points[-1] + 1):
        v = pi.apply(k)
        if v > k:
            diffs[bisect_left(points, k)] += 1
            diffs[bisect_left(points, v)] -= 1
    out, acc = [], 0
    for i, n in enumerate(points):
        acc += diffs[i]
        out.append((n, Fraction(acc, n)))
    return out


def _horizon(opts) -> int:
    return int(opts.get("horizon", 10**5))


def _tail(opts) -> int:
    return int(opts["tail"]) if "tail" in opts else max(1, _horizon(opts) // 10)


def _tol(opts) -> Fraction:
    return Fraction(opts.get("tol", "1/1000"))


def _cmd_density(pos, opts):
    node = parse(pos[0], "set")
    h, lo = _horizon(opts), _tail(opts)
    s = RefSet(node, h)
    mn = mx = None
    for n, c in s.window_counts(lo, h):
        if mn is None or c * mn[1] < mn[0] * n:
            mn = (c, n)
        if mx is None or c * mx[1] > mx[0] * n:
            mx = (c, n)
    return {"_density": (s, lo, h, Fraction(*mn), Fraction(*mx), exact_density(node), _tol(opts))}


def _check_density(result: dict, ctx) -> bool:
    s, lo, h, true_min, true_max, dens, tol = ctx
    lower, upper = _frac(result["lower_estimate"]), _frac(result["upper_estimate"])
    amin, amax = result["argmin"], result["argmax"]
    if not (lo <= amin <= h and lo <= amax <= h):
        return False
    if lower != Fraction(s.count(amin), amin) or upper != Fraction(s.count(amax), amax):
        return False
    if "sample" in result["grid"]:
        # sampled estimates must still lie inside the exact window extrema
        exact_ok = true_min <= lower <= upper <= true_max
    else:
        exact_ok = lower == true_min and upper == true_max
    value = result["exact_value"]
    return (
        exact_ok
        and (value is None or (dens is not None and _frac(value) == dens))
        and result["has_density_within_tol"] is (upper - lower <= tol)
    )


def _cmd_levy(pos, opts):
    pts = doubling_points(_horizon(opts))
    return {"defects": _profile(_defects(RefPerm(parse(pos[0], "perm")), pts))}


def _cmd_statlim(pos, opts):
    pi = RefPerm(parse(pos[0], "perm"))
    eps_list = opts["eps"] or [Fraction(1, 10), Fraction(1, 100)]
    pts = doubling_points(_horizon(opts), levels=4)
    counters = [0] * len(eps_list)
    table = [[] for _ in eps_list]
    nxt = 0
    for k in range(1, pts[-1] + 1):
        dev = abs(pi.apply(k) - k)
        for j, e in enumerate(eps_list):
            if dev * e.denominator >= e.numerator * k:
                counters[j] += 1
        if k == pts[nxt]:
            for j in range(len(eps_list)):
                table[j].append((k, Fraction(counters[j], k)))
            nxt += 1
    tail = math.ceil(len(pts) / 2)
    slack = Fraction(1, 100)
    rows = [
        {"eps": e, "tail_max": max(v for _, v in dens[-tail:]), "densities": _profile(dens)}
        for e, dens in zip(eps_list, table)
    ]
    return {
        "target": Fraction(1),
        "convergent_at_slack": all(r["tail_max"] <= slack for r in rows),
        "slack": slack,
        "rows": rows,
    }


def _cmd_displacement(pos, opts):
    pi = RefPerm(parse(pos[0], "perm"))
    pts = doubling_points(_horizon(opts))
    a = RefSet(parse(pos[1], "set"), 4 * pts[-1])
    out = []
    in_image = 0
    nxt = 0
    for m in range(1, pts[-1] + 1):
        in_image += a.contains(pi.invert(m))
        if m == pts[nxt]:
            out.append((m, Fraction(a.count(m) - in_image, m)))
            nxt += 1
    return {"profile": _profile(out)}


def _cmd_measure(pos, opts):
    mu = parse(pos[0], "measure")
    rep = _evaluate(mu, RefSet(parse(pos[1], "set")), _tol(opts))
    return {
        "verdict": "value" if rep["converged"] else "interval",
        "value": rep["value"],
        "achieved_tol": rep["achieved_tol"],
        "lo": rep["lo"],
        "hi": rep["hi"],
        "partials": _profile(rep["partials"]) if rep["partials"] else None,
        "constituents": [
            {k: v for k, v in c.items() if not k.startswith("_")} for c in rep["constituents"]
        ],
    }


def _cmd_pair(pos, opts):
    pi = RefPerm(("pair", parse(pos[0], "set"), parse(pos[1], "set")))
    pi.apply(1)
    while min(len(pi.la), len(pi.lb)) < 10 and pi.upto < _PAIR_LIMIT:
        pi._grow(pi.upto)
    first = [[a, b] for a, b in zip(pi.la, pi.lb)][:10]
    pts = doubling_points(min(_horizon(opts), 2**14))
    return {
        "first_pairs": first,
        "involution_on_sample": True,
        "defects": _profile(_defects(pi, pts)),
    }


def _cmd_witness(pos, opts):
    pi = RefPerm(parse(pos[0], "perm"))
    cap = int(opts.get("cap", _horizon(opts)))
    pts = doubling_points(cap)
    first, entries, count, nxt = [], [], 0, 0
    for k in range(1, cap + 1):
        if pi.apply(k) > k:
            count += 1
            if len(first) < 20:
                first.append(k)
        if k == pts[nxt]:
            entries.append((k, Fraction(count, k)))
            nxt += 1
    return {"cap": cap, "first_elements": first, "ratio_profile": _profile(entries)}


def _cmd_equal(pos, opts):
    h, start, tol = _horizon(opts), _tail(opts), _tol(opts)
    terms = int(opts.get("dexp_terms", 4))
    seqs = [
        (f"dexp({terms})", ("dexp", terms)),
        (f"doubled(dexp({terms}))", ("doubled", ("dexp", terms))),
        (f"geom(1,10,{max(2, len(str(h)) - 1)})", ("geom", 1, 10, max(2, len(str(h)) - 1))),
    ]
    need = max(h, 2 << (1 << terms)) if terms <= 4 else h
    a = RefSet(parse(pos[0], "set"), need)
    b = RefSet(parse(pos[1], "set"), need)
    best = Fraction(0)
    for (n, ca), (_, cb) in zip(a.window_counts(start, h), b.window_counts(start, h)):
        best = max(best, Fraction(abs(ca - cb), n))
    ok = best <= tol
    rows = []
    for label, seq in seqs:
        pts = seq_points(seq)
        tail = pts[len(pts) - math.ceil(len(pts) / 2):]
        dev = max(
            [Fraction(0)] + [abs(Fraction(a.count(n), n) - Fraction(b.count(n), n)) for n in tail]
        )
        la, lb = _limit(a, pts, tol), _limit(b, pts, tol)
        converged = la["verdict"] == lb["verdict"] == "converged"
        if converged:
            dev = max(dev, abs(la["value"] - lb["value"]))
        rows.append(
            {
                "label": f"|mu_{label}(A) - mu_{label}(B)|",
                "deviation": dev,
                "status": ("pass" if dev <= tol else "fail") if converged else "inconclusive",
            }
        )
        ok = ok and dev <= tol
    return {
        "tail_sup_diff": best,
        "window": [start, h],
        "rows": rows,
        "verdict": "equivalent-likely" if ok else "distinct-likely",
    }


def _cmd_suite(pos, opts):
    if set(opts) != {"eps"}:
        raise ValueError("stored suite values cover the default flags only")
    return json.loads((EXPECTED_DIR / "suite.json").read_text())


_COMMANDS = {
    "density": _cmd_density,
    "levy": _cmd_levy,
    "statlim": _cmd_statlim,
    "displacement": _cmd_displacement,
    "measure": _cmd_measure,
    "pair": _cmd_pair,
    "witness": _cmd_witness,
    "equal": _cmd_equal,
    "suite": _cmd_suite,
}


def expected(argv: list[str]) -> dict:
    """The checked part of ``argv``'s result object."""
    pos, opts = _options(argv)
    return _COMMANDS[argv[0]](pos, opts)


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------


def _frac(obj) -> Fraction:
    return Fraction(obj["num"], obj["den"])


def _same(want, got) -> bool:
    if isinstance(want, Fraction):
        return isinstance(got, dict) and got.keys() >= {"num", "den"} and _frac(got) == want
    if isinstance(want, dict):
        if want.keys() >= {"num", "den", "dec"}:  # a stored rational
            return isinstance(got, dict) and _frac(got) == _frac(want)
        return isinstance(got, dict) and all(k in got and _same(v, got[k]) for k, v in want.items())
    if isinstance(want, list):
        return (
            isinstance(got, list)
            and len(want) == len(got)
            and all(_same(w, g) for w, g in zip(want, got))
        )
    return type(want) is type(got) and want == got


def matches(want: dict, result) -> bool:
    """Does a report's ``result`` object agree with ``expected(argv)``?"""
    if not isinstance(result, dict):
        return False
    if "_density" in want:
        try:
            return _check_density(result, want["_density"])
        except (KeyError, TypeError, ZeroDivisionError):
            return False
    return _same(want, result)
