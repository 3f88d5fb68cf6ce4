"""Serialization helpers: exact rationals with decimal shadows, CSV tables.

Every rational in a JSON report is emitted as {"num", "den", "dec"}; the
decimal field is a rounded display shadow of the exact value, never the
other way around.

`emit_json` writes exactly the bytes of
``json.dumps(obj, indent=2, ensure_ascii=False) + "\\n"``.  From CPython
3.13 on it calls it, since the C encoder then handles ``indent`` too.
CPython 3.10 to 3.12 use their C encoder only when ``indent`` is None, and
otherwise fall back to ``json.encoder._make_iterencode``, one Python
generator per container, which cost a fifth of a typical request; there
`_write` makes the same walk in one pass: strings go through the C
``encode_basestring``, exact ints through ``int.__repr__``, the dicts `rat`
builds and the rows `profile` builds each through one template, and every
other scalar through ``json.dumps`` itself, which raises `TypeError` for an
unsupported type as the stdlib does.  A template takes only a dict of the
exact type, keys, key order and member types its builder gives: a bool or
int-subclass member, another key order, an extra key or a row whose value is
not a rat dict falls through to the general walk, which writes the same
bytes.  A value that contains itself raises `RecursionError`
here, where the stdlib raises `ValueError`.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from json.encoder import encode_basestring as _quote
from numbers import Rational
from typing import Iterable, Optional


def rat(q: Optional[Fraction]) -> Optional[dict]:
    if q is None:
        return None
    # the exact type first: the ABC check costs more than the rest of the call
    if type(q) is not Fraction and not isinstance(q, Rational):
        q = Fraction(q)
    n, d = q.numerator, q.denominator
    # n / d is the float that Fraction.__float__ returns
    return {"num": n, "den": d, "dec": format(n / d, ".12g")}


def profile(entries: Iterable[tuple[int, Fraction]]) -> list[dict]:
    return [{"n": n, "value": rat(v)} for n, v in entries]


def profile_csv_rows(entries: Iterable[tuple[int, Fraction]]) -> list[tuple]:
    return [(n, *rat(v).values()) for n, v in entries]


_RAT_KEYS = ["num", "den", "dec"]
_ROW_KEYS = ["n", "value"]


def _rat_text(o, nl: str) -> Optional[str]:
    """The text of ``o`` if it is a dict as `rat` builds it: exact dict, keys in rat's order,
    members of exact types int, int and str.  None for anything else."""
    if type(o) is dict and len(o) == 3 and list(o) == _RAT_KEYS:
        n, d, dec = o.values()
        if type(n) is int and type(d) is int and type(dec) is str:
            inner = nl + "  "
            return f'{{{inner}"num": {n},{inner}"den": {d},{inner}"dec": {_quote(dec)}{nl}}}'
    return None


def _row_text(o, nl: str) -> Optional[str]:
    """The text of ``o`` if it is a row as `profile` builds it: exact dict {"n": exact int,
    "value": rat dict}, keys in that order.  None for anything else."""
    if type(o) is dict and len(o) == 2 and list(o) == _ROW_KEYS:
        n, v = o.values()
        inner = nl + "  "
        value = _rat_text(v, inner) if type(n) is int else None
        if value is not None:
            return f'{{{inner}"n": {n},{inner}"value": {value}{nl}}}'
    return None


def _write(o, put, nl: str) -> None:
    """Pass the indent-2 JSON text of ``o`` to ``put``, piece by piece.

    ``nl`` is a newline followed by the indent of the line ``o`` starts on.
    The checks mirror ``json.encoder._make_iterencode``: strings and
    containers by ``isinstance``, so subclasses keep the layout; ints and the
    members of the templates by exact type, so a bool or an int subclass
    reaches ``json.dumps``.
    """
    if isinstance(o, str):
        put(_quote(o))
    elif isinstance(o, dict):
        if not o:
            put("{}")
            return
        # the dicts `rat` and `profile` build, each in one piece
        text = _rat_text(o, nl) or _row_text(o, nl)
        if text is not None:
            put(text)
            return
        inner = nl + "  "
        sep = "{" + inner
        for k, v in o.items():
            # json.dumps turns a non-str key into a string, or raises
            # TypeError, exactly as the indent path does
            head = f"{sep}{_quote(k) if isinstance(k, str) else json.dumps({k: 0})[1:-4]}: "
            # the members most reports are made of, written in place
            if type(v) is int:
                put(f"{head}{v}")
            elif type(v) is str:
                put(head + _quote(v))
            else:
                put(head)
                _write(v, put, inner)
            sep = "," + inner
        put(nl + "}")
    elif isinstance(o, (list, tuple)):
        if not o:
            put("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for v in o:
            put(sep)
            _write(v, put, inner)
            sep = "," + inner
        put(nl + "]")
    elif type(o) is int:
        put(int.__repr__(o))
    elif o is None:
        put("null")
    elif o is True:
        put("true")
    elif o is False:
        put("false")
    else:
        put(json.dumps(o))


def emit_json(obj) -> str:
    if sys.version_info >= (3, 13):
        return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"
    parts: list[str] = []
    _write(obj, parts.append, "\n")
    parts.append("\n")
    return "".join(parts)


def emit_csv(sections: list[tuple[str, list[tuple]]]) -> str:
    """One 4-column table per section: n, numerator, denominator, decimal."""
    lines = []
    for label, rows in sections:
        if label:
            lines.append(f"# series: {label}")
        lines.append("n,numerator,denominator,decimal")
        for row in rows:
            lines.append(",".join(str(x) for x in row))
    return "\n".join(lines) + "\n"
