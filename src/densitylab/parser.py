"""Recursive-descent parser for the set / sequence / permutation / measure
expression grammars.

The grammars are whitespace-insensitive; integers are decimal.  Each
grammar is one table (``_FORMS``) of its forms, read by ``_read``.  Parsed
expressions are built through the canonicalizing constructors, so
pretty-printing a parsed rule and re-parsing yields a semantically
identical rule (possibly in simplified form).

``parse_expression`` keeps its last 128 results (``functools.lru_cache``'s
default size), keyed by (text, kind), so a repeat of a text returns the same
immutable object, with the compiled program, segments and eventual period
that earlier requests built on it.  It keeps objects only, never an answer.
A parse that charged the work meter is not kept, so that every parse of its
text charges alike.  An entry holds its text, the object and the memos built
on it: for ``union(periodic(199999;0,2,...,199998),finite(5))`` (100,000
residues) 0.6 MB of text, 8.6 MB of object, and 10 MB more once a
``density`` at 10^6 has built its memos (most of it the periodic part's
100,000 runs of one period), about 19 MB in all.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache, partial
from itertools import islice, repeat
from operator import itemgetter

from . import asymptotics, measure, nset, perm
from .errors import ParseError

_TOKEN = re.compile(r"\s*(\d+|[a-z]+|[()\[\],;:/])")
# a token's kind by its first character; any other first character is a digit
_KIND = dict.fromkeys("abcdefghijklmnopqrstuvwxyz", "name") | dict.fromkeys("()[],;:/", "punct")


class _Tokens:
    """The (kind, value) tokens of ``text``, read in one ``findall``.  Where a token starts is
    found again only when an error names it (``position``)."""

    def __init__(self, text: str):
        self.text = text
        values = _TOKEN.findall(text)
        # findall skips what starts no token, so the tokens must spell the text without its spaces
        if "".join(values) != "".join(text.split()):
            end = 0
            for m in _TOKEN.finditer(text):
                if m.start() != end:
                    break
                end = m.end()
            at = len(text) - len(text[end:].lstrip())
            raise ParseError(f"unexpected character {text[at]!r}", at)
        self.items = list(zip(map(_KIND.get, map(itemgetter(0), values), repeat("int")), values))
        self.i = 0

    def position(self, i: int) -> int:
        """Where the i-th token starts; the length of the text past the last token."""
        m = next(islice(_TOKEN.finditer(self.text), i, None), None)
        return len(self.text) if m is None else m.start(1)

    def peek(self):
        return self.items[self.i] if self.i < len(self.items) else ("eof", "")

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect(self, kind: str, value: str | None = None):
        tok = self.next()
        if tok[0] != kind or (value is not None and tok[1] != value):
            want = value if value is not None else kind
            raise ParseError(f"got {tok[1]!r}", self.position(self.i - 1), expected=repr(want))
        return tok

    def expect_int(self) -> int:
        return int(self.expect("int")[1])


def _sequence(t: _Tokens, read) -> list:
    """read(t), then read(t) again after each comma."""
    items = [read(t)]
    while t.peek()[1] == ",":  # only a punctuation token has this text
        t.i += 1
        items.append(read(t))
    return items


def _int_list(t: _Tokens) -> list[int]:
    """Integers separated by commas, or none before a ')'; each integer
    followed by a comma is read straight from the token list."""
    items, i, out = t.items, t.i, []
    while i + 1 < len(items) and items[i][0] == "int" and items[i + 1][1] == ",":
        out.append(int(items[i][1]))
        i += 2
    t.i = i
    if out or t.peek()[1] != ")":
        out.append(t.expect_int())
    return out


def _read(t: _Tokens, readers) -> list:
    """One value per argument reader: a grammar kind reads one form of that
    grammar, "int" an integer, "ints" a comma list of them (maybe empty) and
    a function the part of a form that has its own syntax; any other reader
    is punctuation to expect, which gives no value."""
    values = []
    for r in readers:
        grammar = _FORMS.get(r)
        if grammar is not None:
            noun, expected, forms = grammar
            _, name = t.expect("name")
            if name not in forms:
                raise ParseError(f"unknown {noun} form {name!r}", t.position(t.i - 1), expected=expected)
            args, build = forms[name]
            values.append(build(*_read(t, args)))
        elif r == "int":
            values.append(t.expect_int())
        elif r == "ints":
            values.append(_int_list(t))
        elif t.peek()[1] == r:  # only a punctuation token has this text
            t.i += 1
        elif callable(r):
            values.append(r(t))
        else:
            t.expect("punct", r)
    return values


# readers of the parts with their own syntax
def _blocks(t: _Tokens):
    """dexp, or [lo,hi) intervals separated by commas."""
    if t.peek() == ("name", "dexp"):
        t.next()
        return "dexp"
    return _sequence(t, lambda t: tuple(_read(t, ("[", "int", ",", "int", ")"))))


def _cycles(t: _Tokens) -> tuple:
    """(a b ...) cycles, as the pairs of the table they make."""
    pairs: list[tuple[int, int]] = []
    while t.peek() == ("punct", "("):
        t.next()
        cycle = [t.expect_int()]
        while t.peek()[0] == "int":
            cycle.append(t.expect_int())
        t.expect("punct", ")")
        pairs.extend(zip(cycle, cycle[1:] + cycle[:1]))
    return tuple(pairs)


def _mix_term(t: _Tokens) -> tuple:
    """w:M with a rational weight w."""
    num, den = t.expect_int(), 1
    if t.peek()[1] == "/":
        t.i += 1
        den = t.expect_int()
        if den == 0:
            raise ParseError("zero denominator", t.position(t.i))
    return (Fraction(num, den), *_read(t, (":", "measure")))


def _name_position(t: _Tokens):
    """The position of the form's name, the token read last, found when called."""
    return partial(t.position, t.i - 1)


def _restricted(position, base, exceptional) -> perm.PermutationRule:
    if not isinstance(base, perm.InterlacedPairing):
        raise ParseError("restrict needs a pairing base", position(), expected="pair(...)")
    return perm.Restricted(base, exceptional)


# One table per grammar: (its noun, what an unknown form expected, its
# forms), a form being name -> (argument readers, constructor).
_TWO = ("(", "set", ",", "set", ")")
_FORMS = {
    "set": ("set", "a set expression", {
        "empty": ((), nset.Empty),
        "full": ((), nset.Full),
        "finite": (("(", "ints", ")"), lambda elems: nset.finite(*elems)),
        "periodic": (("(", "int", ";", "ints", ")"), nset.periodic),
        "blocks": (("(", _blocks, ")"), lambda b: nset.blocks_dexp() if b == "dexp" else nset.blocks_explicit(b)),
        "scale": (("(", "int", ",", "set", ")"), lambda factor, inner: nset.scale(inner, factor)),
        "union": (_TWO, nset.union),
        "inter": (_TWO, nset.inter),
        "diff": (_TWO, nset.diff),
        "compl": (("(", "set", ")"), nset.compl),
    }),
    "seq": ("sequence", "an index sequence", {
        "all": (("(", "int", ")"), asymptotics.All),
        "explicit": (("(", "ints", ")"), lambda pts: asymptotics.Explicit(tuple(pts))),
        "dexp": (("(", "int", ")"), asymptotics.DoubleExponential),
        "doubled": (("(", "seq", ")"), asymptotics.Doubled),
        "geom": (("(", "int", ",", "int", ",", "int", ")"), asymptotics.Geometric),
    }),
    "perm": ("permutation", "a permutation", {
        "id": ((), perm.Identity),
        "qswap": ((), perm.QuarterBlockSwap),
        "table": (("(", _cycles, ")"), perm.FiniteTable),
        "pair": (_TWO, perm.pairing_permutation),
        "restrict": ((_name_position, "(", "perm", ",", "set", ")"), _restricted),
        "comp": (("(", "perm", ",", "perm", ")"), perm.Compose),
        "inv": (("(", "perm", ")"), perm.Inverse),
    }),
    "measure": ("measure", "a measure rule", {
        "sublim": (("(", "seq", ")"), measure.SubsequenceLimit),
        "combo": (("(", "seq", ")"), measure.BlumlingerCombo),
        "mix": (("(", lambda t: tuple(_sequence(t, _mix_term)), ")"), measure.Mixture),
    }),
}


class _Charged(Exception):
    """Carries out of the cache a result whose parse charged the work meter."""

    def __init__(self, result):
        self.result = result


@lru_cache
def _parsed(text: str, kind: str):
    """The result of ``text``, kept by ``lru_cache``, which is thread-safe: two threads that
    miss on one text may both parse it, and one result is kept.  A parse that charges raises
    ``_Charged``, and a raised parse is not kept."""
    if kind not in _FORMS:
        raise ValueError(f"unknown expression kind {kind!r}")
    with nset._metered(None) as meter:
        left = meter[1]
        tokens = _Tokens(text)
        try:
            [result] = _read(tokens, (kind,))
        except ValueError as exc:
            # semantic validation inside constructors (bad residues, weights, ...)
            raise ParseError(str(exc), tokens.position(tokens.i)) from exc
        trailing = tokens.peek()
        if trailing[0] != "eof":
            raise ParseError(f"trailing input {trailing[1]!r}", tokens.position(tokens.i), expected="end of input")
        if meter[1] != left:
            raise _Charged(result)
    return result


def parse_expression(text: str, kind: str):
    """Parse ``text`` as one of the four grammars: set, seq, perm, measure.

    A repeat of one of the last 128 (text, kind) pairs returns the object parsed before, with
    every memo built on it.  A parse that charged the open work meter (a pairing that counts an
    opaque finite side, say) is not kept, so each repeat charges it again."""
    try:
        return _parsed(text, kind)
    except _Charged as charged:
        return charged.result
