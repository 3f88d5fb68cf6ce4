"""report: the JSON emitter against the stdlib's indent-2 bytes, and rat."""

import gc
import itertools
import json
from collections import OrderedDict
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densitylab.report import emit_json, profile, rat


def stdlib(obj) -> str:
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


class LoudInt(int):
    """An int subclass whose own repr is not its digits; json writes the digits."""

    def __repr__(self):
        return f"LoudInt({int(self)})"

    __str__ = __repr__


# characters the encoder must escape or must pass through unchanged
_SPECIAL = ['"', "\\", "\x00", "\x1f", "\x7f", "\n", "\t", "\u2028", "\u2029",
            "\U0001f600", "\ud800", "\udfff", "\xe9"]
texts = st.text(st.one_of(st.sampled_from(_SPECIAL), st.characters(exclude_categories=())))
ints = st.one_of(
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200),
    st.integers(min_value=-(2**200), max_value=-(2**64)),
    st.integers().map(LoudInt),
)
floats = st.one_of(st.floats(), st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0]))
scalars = st.one_of(st.none(), st.booleans(), ints, floats, texts)
# rat's shape, with the exact members rat builds and with members it never
# builds: bools, int subclasses and strings
int_like = st.one_of(ints, st.booleans())
members = st.one_of(int_like, texts)
rat_shaped = st.one_of(
    st.builds(rat, st.fractions()),
    st.builds(lambda n, d, dec: {"num": n, "den": d, "dec": dec}, int_like, int_like, members),
    st.builds(
        lambda keys, vals: dict(zip(keys, vals)),
        st.permutations(["num", "den", "dec"]),
        st.tuples(members, members, members),
    ),
)
# profile's row shape, as profile builds it and with an int-like n, a value that is not a rat
# dict, the keys in the other order or an extra key
row_shaped = st.one_of(
    st.builds(lambda n, q: profile([(n, q)])[0], ints, st.fractions()),
    st.builds(lambda n, v: {"n": n, "value": v}, int_like, st.one_of(rat_shaped, scalars)),
    st.builds(lambda n, v: {"value": v, "n": n}, int_like, rat_shaped),
    st.builds(lambda n, v, x: {"n": n, "value": v, "x": x}, int_like, rat_shaped, scalars),
)
keys = st.one_of(texts, st.sampled_from(["num", "den", "dec"]), ints, floats, st.booleans(), st.none())
values = st.recursive(
    st.one_of(scalars, rat_shaped, row_shaped),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(keys, inner, max_size=4),
        st.dictionaries(texts, inner, max_size=4).map(OrderedDict),
    ),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(values)
def test_emit_json_writes_the_stdlib_bytes(obj):
    assert emit_json(obj) == stdlib(obj)


def test_rat_shaped_dicts_write_the_stdlib_bytes():
    # every member type against every key order, at the top, in a list and
    # as a member: only exact int, int, str in rat's order may take the template
    members = [3, -(2**70), True, LoudInt(3), "3", 0.5, None]
    for order in itertools.permutations(["num", "den", "dec"]):
        for vals in itertools.product(members, repeat=3):
            obj = dict(zip(order, vals))
            for x in (obj, [obj], {"value": obj}):
                assert emit_json(x) == stdlib(x), x
    # and rows: only an exact dict {"n": exact int, "value": rat dict} may take the row template
    good = rat(Fraction(-3, 7))
    values = [good, {"den": 7, "num": -3, "dec": "x"}, {"num": True, "den": 7, "dec": "x"},
              OrderedDict(good), {**good, "x": 1}, {"n": 1, "value": good}, None, 0.5, [good]]
    rows = [dict(zip(order, (n, v)))
            for order in (("n", "value"), ("value", "n"))
            for n in (3, -(2**70), True, LoudInt(3), "3", 0.5, None)
            for v in values]
    rows += [{"n": 3, "value": good, "x": 1}, {"x": 1, "n": 3, "value": good}, OrderedDict(n=3, value=good)]
    for obj in rows:
        for x in (obj, [obj], (obj,), {"value": obj}, {"rows": [obj, obj]}):
            assert emit_json(x) == stdlib(x), x


@pytest.mark.parametrize(
    "obj",
    [
        {},
        [],
        (),
        {"a": {}, "b": [], "c": [[]], "d": [{}]},
        {1: "one", 2.5: None, True: False, None: [1, (2, 3)]},
        [{"num": -(2**70), "den": 3**50, "dec": "\u2028\"\\"}],
        {"s": "\"\\\n\u2028\ud800", "t": ["\x00\U0001f600"], "\x7f\"": 1},
        "\ud83d",
        -0.0,
    ],
)
def test_emit_json_edge_cases(obj):
    assert emit_json(obj) == stdlib(obj)


@pytest.mark.parametrize("obj", [{"a": object()}, [{1, 2}], {(1, 2): 0}, {"x": [b"raw"]}])
def test_emit_json_rejects_what_the_stdlib_rejects(obj):
    with pytest.raises(TypeError):
        stdlib(obj)
    with pytest.raises(TypeError):
        emit_json(obj)


def test_emission_leaves_no_garbage_cycle():
    report = {
        "command": "density",
        "result": {
            "value": rat(Fraction(1, 3)),
            "profile": profile([(n, Fraction(1, n)) for n in range(1, 50)]),
            "window": [1, 2],
        },
    }
    gc.collect()
    gc.disable()
    try:
        emit_json(report)
        assert gc.collect() == 0
    finally:
        gc.enable()


class Fraction2(Fraction):
    """A Fraction subclass, which rat reads through the Rational check."""


def old_rat(q):
    q = Fraction(q)
    return {"num": q.numerator, "den": q.denominator, "dec": format(float(q), ".12g")}


@pytest.mark.parametrize(
    "q",
    [
        0,
        1,
        -7,
        2**80,
        Fraction(0),
        Fraction(-3, 7),
        Fraction(10**400 + 1, 3**800),
        Fraction(-(3**800), 10**400 + 7),
        Fraction(1, 10**300),
        Fraction(2**1000 - 1, 2**1000),
        # not exactly a Fraction: the ABC check or the Fraction call takes them
        True,
        False,
        LoudInt(-5),
        Fraction2(-3, 7),
        0.1,
        -2.5,
        1e300,
    ],
)
def test_rat_matches_the_fraction_formula(q):
    got = rat(q)
    assert got == old_rat(q)
    assert type(got["num"]) is int and type(got["den"]) is int


@given(st.one_of(st.integers(min_value=-(2**200), max_value=2**200), st.fractions()))
def test_rat_matches_the_fraction_formula_on_random_values(q):
    assert rat(q) == old_rat(q)


def test_rat_of_none_is_none():
    assert rat(None) is None
