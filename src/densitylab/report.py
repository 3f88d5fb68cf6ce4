"""Serialization helpers: exact rationals with decimal shadows, CSV tables.

Every rational in a JSON report is emitted as {"num", "den", "dec"}; the
decimal field is a rounded display shadow of the exact value, never the
other way around.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Iterable, Optional


def decimal_shadow(q: Fraction) -> str:
    return format(float(q), ".12g")


def rat(q: Optional[Fraction]) -> Optional[dict]:
    if q is None:
        return None
    q = Fraction(q)
    return {"num": q.numerator, "den": q.denominator, "dec": decimal_shadow(q)}


def profile(entries: Iterable[tuple[int, Fraction]]) -> list[dict]:
    return [{"n": n, "value": rat(v)} for n, v in entries]


def profile_csv_rows(entries: Iterable[tuple[int, Fraction]]) -> list[tuple]:
    return [
        (n, v.numerator, v.denominator, decimal_shadow(v)) for n, v in entries
    ]


def emit_json(obj) -> str:
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


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
