import io
import json
import random
import re
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from densitylab import cli, nset, parser
from densitylab.asymptotics import _PROFILE_CAP, All, DoubleExponential, Doubled, Explicit, Geometric
from densitylab.cli import ExperimentConfig, run_command
from densitylab.corpus import disjoint_periodic_pairs
from densitylab.errors import ConfigError, ParseError
from densitylab.measure import equal_measure_test
from densitylab.parser import parse_expression
from densitylab.report import rat

from oracles import dexp_count_closed

# the benchmark's oracle, which parses and computes on its own, without densitylab
sys.path.append(str(Path(__file__).resolve().parents[1]))
from perfbench import oracle as bench_oracle  # noqa: E402


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run_command(argv)
    return code, out.getvalue(), err.getvalue()


def run_json(argv):
    code, out, err = run(argv)
    assert code == 0, err
    return json.loads(out)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_spec_examples():
    assert parse_expression("periodic(2;0)", "set") == nset.periodic(2, [0])
    combo = parse_expression("combo(dexp(4))", "measure")
    assert list(combo.seq.points()) == [4, 16, 256, 65536]
    phi = parse_expression("pair(periodic(2;1), periodic(2;0))", "perm")
    assert phi.apply(5) == 6 and phi.apply(6) == 5


def test_parse_whitespace_insensitive():
    a = parse_expression(" union( periodic( 4 ; 0,2 ) , finite(3, 9,12) ) ", "set")
    b = parse_expression("union(periodic(4;0,2),finite(3,9,12))", "set")
    assert a == b


@pytest.mark.parametrize(
    "kind,text",
    [
        ("set", "empty"),
        ("set", "full"),
        ("set", "finite(3,9,12)"),
        ("set", "periodic(6;1,5)"),
        ("set", "blocks(dexp)"),
        ("set", "blocks([4,8),[16,32))"),
        ("set", "scale(3,periodic(2;0))"),
        ("set", "union(blocks(dexp),finite(1))"),
        ("set", "inter(blocks(dexp),periodic(3;0))"),
        ("set", "diff(full,scale(2,blocks(dexp)))"),
        ("set", "compl(blocks(dexp))"),
        ("seq", "all(100)"),
        ("seq", "explicit(1,5,12)"),
        ("seq", "dexp(4)"),
        ("seq", "doubled(dexp(3))"),
        ("seq", "geom(2,3,5)"),
        ("perm", "id"),
        ("perm", "qswap"),
        ("perm", "table((1 5)(2 3))"),
        ("perm", "pair(periodic(2;1),periodic(2;0))"),
        ("perm", "restrict(pair(periodic(2;1),periodic(2;0)),finite(1))"),
        ("perm", "comp(qswap,id)"),
        ("perm", "inv(qswap)"),
        ("measure", "sublim(all(1000))"),
        ("measure", "combo(dexp(4))"),
        ("measure", "mix(1/2:sublim(dexp(4)),1/2:combo(dexp(4)))"),
    ],
)
def test_round_trip(kind, text):
    obj = parse_expression(text, kind)
    again = parse_expression(obj.to_expr(), kind)
    assert again == obj


def test_parse_simplifies_canonically():
    assert parse_expression("periodic(1;0)", "set") == nset.Full()
    assert parse_expression("inter(periodic(2;0),periodic(2;1))", "set") == nset.Empty()


@pytest.mark.parametrize(
    "kind,text,at",
    [
        ("set", "perioddic(2;0)", 0),
        ("set", "periodic(2,0)", 10),
        ("set", "periodic(2;0", 12),
        ("set", "finite(3,9,12) junk", 15),
        ("measure", "mix(1/2:sublim(dexp(2)))", 24),
        ("perm", "restrict(id,empty)", 0),
    ],
)
def test_parse_errors_carry_positions(kind, text, at):
    with pytest.raises(ParseError) as exc:
        parse_expression(text, kind)
    assert exc.value.position == at


@pytest.mark.parametrize(
    "kind,text,message,at",
    [
        ("set", "perioddic(2;0)", "unknown set form 'perioddic' (expected a set expression)", 0),
        ("seq", "alll(5)", "unknown sequence form 'alll' (expected an index sequence)", 0),
        ("perm", "swap", "unknown permutation form 'swap' (expected a permutation)", 0),
        ("measure", "lim(dexp(2))", "unknown measure form 'lim' (expected a measure rule)", 0),
        ("measure", "sublim(qswap)", "unknown sequence form 'qswap' (expected an index sequence)", 7),
        ("set", "", "got '' (expected 'name')", 0),
        ("set", "periodic 2;0)", "got '2' (expected '(')", 9),
        ("set", "periodic(2,0)", "got ',' (expected ';')", 10),
        ("seq", "geom(1;2,3)", "got ';' (expected ',')", 6),
        ("seq", "dexp()", "got ')' (expected 'int')", 5),
        ("set", "finite(1,)", "got ')' (expected 'int')", 9),
        ("set", "union(empty)", "got ')' (expected ',')", 11),
        ("perm", "comp(qswap;id)", "got ';' (expected ',')", 10),
        ("measure", "mix(1/2;sublim(dexp(2)))", "got ';' (expected ':')", 7),
        ("set", "blocks([8,4))", "bad interval [8, 4)", 13),
        ("set", "blocks([16,32),[4,8))", "intervals must be sorted and disjoint", 21),
        ("set", "blocks((4,8))", "got '(' (expected '[')", 7),
        ("set", "blocks([4,8])", "got ']' (expected ')')", 11),
        ("set", "blocks(dexp", "got '' (expected ')')", 11),
        ("perm", "table((1 5)(2 3)", "got '' (expected ')')", 16),
        ("perm", "table((1 5", "got '' (expected ')')", 10),
        ("perm", "table((1 5)(2,3))", "got ',' (expected ')')", 13),
        ("measure", "mix(1/0:sublim(dexp(2)))", "zero denominator", 7),
        ("measure", "mix(1/2:sublim(dexp(2)))", "mixture weights must sum to 1, got 1/2", 24),
        ("perm", "restrict(id,empty)", "restrict needs a pairing base (expected pair(...))", 0),
        ("perm", "inv(restrict(comp(id,id),finite(1)))",
         "restrict needs a pairing base (expected pair(...))", 4),
        ("perm", "restrict(id,perioddic(1))",
         "unknown set form 'perioddic' (expected a set expression)", 12),
        ("set", "finite(3,9,12) junk", "trailing input 'junk' (expected end of input)", 15),
        ("perm", "qswap)", "trailing input ')' (expected end of input)", 5),
        ("set", "periodic(2;0)+empty", "unexpected character '+'", 13),
        ("set", "finite(3,#)", "unexpected character '#'", 9),
        ("set", "periodic(3;1,7)", "residues must be sorted, distinct, < modulus", 15),
        ("set", "union(periodic(0;0),full)", "modulus must be >= 1", 19),
        ("set", "scale(0,full)", "scale factor must be >= 1", 13),
        ("seq", "geom(1,1,3)", "need first >= 1, integer ratio >= 2, terms >= 1", 11),
        ("seq", "explicit(5,3)", "points must be strictly increasing and >= 1", 13),
    ],
)
def test_parse_error_messages(kind, text, message, at):
    with pytest.raises(ParseError) as exc:
        parse_expression(text, kind)
    assert str(exc.value) == f"parse error at position {at}: {message}"
    assert exc.value.position == at


_ONE_TOKEN = re.compile(r"\s*(?:(\d+)|([a-z]+)|([()\[\],;:/]))")


def _tokens_one_match_at_a_time(text):
    """(kind, value, position) of each token, one regex match per token, or the ParseError of
    the first character that starts no token."""
    items, pos = [], 0
    while pos < len(text):
        m = _ONE_TOKEN.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", len(text) - len(stripped))
        group = m.lastindex
        items.append((("int", "name", "punct")[group - 1], m.group(group), m.start(group)))
        pos = m.end()
    return items


def test_tokens_match_a_match_per_token_reference():
    """Kinds, values and positions of every token, and the message and position of every
    unexpected character, against one regex match per token; on random text over the token
    characters, spaces of several kinds, non-ASCII digits and characters that start no token."""
    rng = random.Random(101)
    alphabet = "0123456789" * 2 + "abcxyz" * 2 + "()[],;:/" * 2 + " \t\n  " + "٣" + "#+-.A_é"
    texts = ["", " ", "  \t", "pair ( 3 ; 4 ) ", "12ab34", "a$b", "a $", " $", "x y", "٣٤(5"]
    texts += ["".join(rng.choices(alphabet, k=rng.randrange(0, 30))) for _ in range(3000)]
    texts += ["".join(rng.choices(alphabet[:-7], k=rng.randrange(0, 30))) for _ in range(1000)]
    valid = 0
    for text in texts:
        try:
            want = _tokens_one_match_at_a_time(text)
        except ParseError as exc:
            with pytest.raises(ParseError) as got:
                parser._Tokens(text)
            assert (str(got.value), got.value.position) == (str(exc), exc.position), text
            continue
        valid += 1
        t = parser._Tokens(text)
        got = [(kind, value, t.position(i)) for i, (kind, value) in enumerate(t.items)]
        assert got == want, text
        assert t.position(len(t.items)) == len(text), text
    assert valid >= 1000


def test_readme_grammar_table_names_the_parser_forms():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Expression grammars", 1)[1].split("\n#", 1)[0]
    rows = re.findall(r"^\| (set|seq|perm|measure) \| (.*) \|$", section, re.M)
    assert [kind for kind, _ in rows] == list(parser._FORMS)
    for kind, forms in rows:
        assert set(re.findall(r"`([a-z]+)", forms)) == set(parser._FORMS[kind][2]), kind


def test_table_cycles_round_trip():
    t = parse_expression("table((1 5)(2 3))", "perm")
    assert t.apply(1) == 5 and t.apply(3) == 2
    assert parse_expression(t.to_expr(), "perm") == t


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_config_invariants():
    with pytest.raises(ConfigError):
        ExperimentConfig(horizon=100, tail_window_start=100)
    with pytest.raises(ConfigError):
        ExperimentConfig(tol=Fraction(0))
    with pytest.raises(ConfigError):
        ExperimentConfig(dexp_terms=0)
    # the budget bounds the work of a request, not its horizon
    assert ExperimentConfig(horizon=10**6, enumeration_budget=10**5).enumeration_budget == 10**5
    cfg = ExperimentConfig()
    assert cfg.tail_start() == 10**4


def test_a_bad_tail_window_names_the_horizon():
    code, out, err = run(["levy", "qswap", "--horizon", "-5"])
    assert code == 2 and out == ""
    assert err == "input error: tail window start 1 must lie in [1, horizon) for horizon -5\n"
    with pytest.raises(ConfigError, match=r"start 100 .* for horizon 100$"):
        ExperimentConfig(horizon=100, tail_window_start=100)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def test_density_subcommand_matches_window_extrema():
    rep = run_json(["density", "blocks(dexp)", "--horizon", "1048576", "--tail", "1024"])
    assert rep["schema"] == "densitylab/2"
    up = rep["result"]["upper_estimate"]
    assert (up["num"], up["den"]) == (65812, 131071)
    lo = rep["result"]["lower_estimate"]
    assert Fraction(lo["num"], lo["den"]) == Fraction(276, 65535)


def test_levy_subcommand():
    rep = run_json(["levy", "qswap"])
    assert rep["result"]["classification"] == "non-levy-likely"
    rep2 = run_json(["levy", "pair(periodic(2;1),periodic(2;0))"])
    assert rep2["result"]["classification"] == "levy-likely"


def test_statlim_subcommand():
    rep = run_json(["statlim", "id", "--eps", "1/10"])
    assert rep["result"]["classification"] == "levy-likely"
    assert all(
        e["value"]["num"] == 0 for row in rep["result"]["rows"] for e in row["densities"]
    )


def test_measure_subcommand_partials():
    rep = run_json(["measure", "combo(dexp(6))", "blocks(dexp)"])
    nums = [p["value"]["num"] for p in rep["result"]["partials"]]
    dens = [p["value"]["den"] for p in rep["result"]["partials"]]
    assert nums == [d - 1 for d in dens]
    assert dens == [1 << (1 << i) for i in range(1, 7)]


def test_displacement_subcommand():
    rep = run_json(["displacement", "id", "full", "--horizon", "1000"])
    assert all(e["value"]["num"] == 0 for e in rep["result"]["profile"])


def test_pair_subcommand():
    rep = run_json(["pair", "periodic(2;1)", "periodic(2;0)"])
    assert rep["result"]["first_pairs"][:3] == [[1, 2], [3, 4], [5, 6]]
    assert rep["result"]["involution_on_sample"]


def test_pair_subcommand_on_sides_finite_by_their_period():
    # {5} and {7}: the first side has no member past 5, so its pairs are read by select up to the
    # pairing's size
    finite_by_period = "diff(union(finite(5),periodic(4;0)),periodic(4;0))"
    rep = run_json(["pair", finite_by_period, "finite(7)", "--horizon", "2000"])
    assert rep["result"]["first_pairs"] == [[5, 7]]
    assert rep["result"]["involution_on_sample"]
    rep = run_json(["pair", finite_by_period, "finite(5)", "--horizon", "2000"])
    assert rep["result"]["first_pairs"] == []
    rep = run_json(["pair", finite_by_period, "finite(9)"])
    assert rep["result"]["first_pairs"] == [[5, 9]]


@pytest.mark.parametrize("expr, wording", [
    ("pair(periodic(4;0),periodic(4;))", "cannot pair an infinite part with a part of size 0"),
    ("pair(finite(3),periodic(4;1))", "cannot pair a part of size 1 with an infinite part"),
])
def test_pairing_an_infinite_part_with_a_finite_one_names_it_and_exits_2(expr, wording):
    code, out, err = run(["levy", expr])
    assert code == 2 and out == "" and wording in err and "None" not in err


def test_witness_subcommand():
    rep = run_json(["witness", "qswap", "--horizon", "1000", "--cap", "1000"])
    assert rep["result"]["first_elements"][:8] == [4, 5, 6, 7, 16, 17, 18, 19]


def test_witness_cap_past_the_budget_exits_2_without_scanning(monkeypatch):
    def scan(*args):
        raise AssertionError("the witness scan started")

    monkeypatch.setattr(cli, "_moved_up", scan)
    rule = "restrict(pair(periodic(2;1),periodic(2;0)),periodic(5;1))"
    code, out, err = run(["witness", rule, "--cap", "200000", "--budget", "100000", "--horizon", "1000"])
    assert code == 2 and out == "" and "cap 200000 must be <= budget 100000" in err


def test_witness_cap_equal_to_the_budget_runs():
    rep = run_json(["witness", "qswap", "--cap", "4096", "--budget", "4096", "--horizon", "1000"])
    assert rep["result"]["cap"] == 4096


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_witness_cap_below_1_exits_2(cap):
    code, out, err = run(["witness", "qswap", "--cap", cap, "--horizon", "1000"])
    assert code == 2 and out == "" and "cap must be >= 1" in err


def test_equal_subcommand():
    rep = run_json(["equal", "periodic(2;1)", "periodic(2;0)", "--horizon", "10000"])
    assert rep["result"]["verdict"] == "equivalent-likely"
    assert rep["result"]["grid"] == "window-extrema-via-pieces"
    rep2 = run_json(["equal", "blocks(dexp)", "empty", "--horizon", "10000"])
    assert rep2["result"]["verdict"] == "distinct-likely"


# F1, F2, F4 and F5 of ROADMAP: each has segments, read at 2^64 without a scan of the window
_FAR_SETS = [
    "scale(3,blocks(dexp))",
    "inter(blocks(dexp),periodic(7;1,3))",
    "union(blocks(dexp),scale(2,blocks(dexp)))",
    "diff(union(scale(2,periodic(4;1)),periodic(10;0,2,3,4,9)),"
    "union(finite(49,708,1676,2776,2886,4031,4870,4913),periodic(10;0,3,4,6,9)))",
]


@pytest.mark.parametrize("x", _FAR_SETS)
def test_equal_against_empty_at_two_to_the_64(x):
    far = str(2**64)
    rep = run_json(["equal", x, "empty", "--horizon", far, "--budget", far])
    assert rep["result"]["grid"] == "window-extrema-via-pieces"
    if x == _FAR_SETS[0]:
        # the window [w, 2^64] holds no member of F1, so the sup is at its first point
        w = 2**64 // 10
        sup = rep["result"]["tail_sup_diff"]
        assert Fraction(sup["num"], sup["den"]) == Fraction(dexp_count_closed(w // 3), w)


def test_suite_subcommand():
    rep = run_json(["suite"])
    r = rep["result"]
    assert rep["config"]["dexp_terms"] == 6
    assert r["combo_vs_upper_density"]["measure_exceeds_upper_density"]
    assert r["doubling_failure"]["count_grid_identity"]
    assert r["monotonicity_failure"]["domination_holds"]
    assert r["sandwich"]["holds"]
    assert all(m["monotonicity_ok"] and m["scaling_ok"] for m in r["mixture_rows"])


# ---------------------------------------------------------------------------
# output discipline
# ---------------------------------------------------------------------------


def test_output_is_deterministic():
    argv = ["levy", "qswap", "--horizon", "20000"]
    first = run(argv)
    second = run(argv)
    assert first == second


def test_decimal_shadows_re_derive():
    rep = run_json(["density", "blocks(dexp)", "--horizon", "1048576", "--tail", "1024"])

    def walk(obj):
        if isinstance(obj, dict):
            if set(obj) == {"num", "den", "dec"}:
                exact = Fraction(obj["num"], obj["den"])
                assert abs(float(obj["dec"]) - float(exact)) <= 1e-9
            else:
                for v in obj.values():
                    walk(v)
        elif isinstance(obj, list):
            for v in obj:
                walk(v)

    walk(rep)


def test_csv_output_layout():
    code, out, _ = run(["levy", "qswap", "--format", "csv", "--horizon", "20000"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "# series: defect"
    assert lines[1] == "n,numerator,denominator,decimal"
    assert all(len(line.split(",")) == 4 for line in lines[2:])


def test_equal_csv_is_the_header_alone():
    code, out, _ = run(["equal", "periodic(2;1)", "periodic(2;0)", "--format", "csv"])
    assert code == 0
    assert out == "n,numerator,denominator,decimal\n"


# the README commands, one per subcommand
README_COMMANDS = [
    ["density", "blocks(dexp)", "--horizon", "1048576", "--tail", "1024"],
    ["levy", "qswap"],
    ["statlim", "pair(periodic(2;1),periodic(2;0))", "--eps", "1/10", "--eps", "1/100"],
    ["displacement", "qswap", "blocks([4,8),[16,32))"],
    ["measure", "combo(dexp(6))", "blocks(dexp)"],
    ["pair", "periodic(2;1)", "periodic(2;0)"],
    ["witness", "qswap", "--cap", "4096"],
    ["equal", "periodic(2;1)", "periodic(2;0)"],
    ["suite"],
]


@pytest.mark.parametrize("argv", README_COMMANDS, ids=lambda argv: argv[0])
def test_report_bytes_are_the_stdlib_indent_2_json(argv):
    code, out, err = run(argv)
    assert code == 0, err
    assert out == json.dumps(json.loads(out), indent=2, ensure_ascii=False) + "\n"


def test_exit_code_2_on_bad_input():
    code, _, err = run(["density", "junk("])
    assert code == 2 and "parse error" in err
    code2, _, err2 = run(["density", "blocks(dexp)", "--horizon", "100", "--tail", "100"])
    assert code2 == 2
    code3, _, _ = run(["nosuchcommand"])
    assert code3 == 2


@pytest.mark.parametrize(
    "argv", [["density", "full", "--tol", "1/0"], ["statlim", "id", "--eps", "1/0"]]
)
def test_zero_denominator_in_a_flag_exits_2(argv):
    code, out, err = run(argv)
    assert code == 2 and out == "" and "zero denominator in '1/0'" in err


@pytest.mark.parametrize("terms", ["0", "-1"])
@pytest.mark.parametrize("argv", README_COMMANDS, ids=lambda argv: argv[0])
def test_dexp_terms_below_1_exit_2(argv, terms):
    code, out, err = run(argv + ["--dexp-terms", terms])
    assert (code, out, err) == (2, "", f"input error: dexp terms must be >= 1, got {terms}\n")


def test_all_sequence_past_the_budget_exits_3():
    argv = ["measure", "sublim(all(2000000))", "periodic(3;1)", "--horizon", "1000", "--budget", "1000"]
    code, out, err = run(argv)
    assert code == 3 and out == "" and "exceeds the budget of 1000" in err


def test_exit_code_3_on_budget_violation():
    # two periodic sets whose lcm passes the cap, so that no pattern of the
    # intersection is built and its count at 2^64 enumerates
    r1 = ",".join(map(str, range(1, 1000003, 9091)))
    r2 = ",".join(map(str, range(2, 999983, 9090)))
    code, _, err = run(
        [
            "measure",
            "sublim(dexp(6))",
            f"inter(periodic(1000003;{r1}),periodic(999983;{r2}))",
            "--budget", "1000000",
        ]
    )
    assert code == 3 and "budget" in err


# 8 points past 2^32 on an intersection whose parts have no segments and too many member runs: each
# count tests the members of the smaller part, 8591 of them at 2^32, and the 4296 of the smaller
# leaf inside that part's own count, 103096 members in all
_EIGHT_POINTS = "sublim(explicit(" + ",".join(str(2**32 + i) for i in range(8)) + "))"
_WIDE_INTER = "inter(union(periodic(999983;1),periodic(999979;1)),periodic(2;1))"


def test_budget_bounds_the_total_work_of_a_request():
    code, out, err = run(["measure", _EIGHT_POINTS, _WIDE_INTER, "--budget", "103095"])
    assert code == 3 and out == "" and "exceeds the budget of 103095" in err
    assert run(["measure", _EIGHT_POINTS, _WIDE_INTER, "--budget", "103096"])[0] == 0
    code, out, err = run(["measure", _EIGHT_POINTS, _WIDE_INTER, "--budget", "0"])
    assert code == 2 and out == "" and "budget must be >= 1" in err


_TWO_TO_THE_64 = ["--horizon", str(2**64)]


@pytest.mark.parametrize("argv", [["levy", "qswap"], ["equal", "scale(3,blocks(dexp))", "empty"]])
def test_far_horizons_run_at_the_default_budget(argv):
    # neither request scans, so a horizon past the budget is no reason to refuse
    assert run(argv + _TWO_TO_THE_64)[0] == 0


def test_a_far_scan_is_refused_before_it_starts():
    # F wider than the segment cap leaves the restriction without pieces, so statlim would scan
    # every integer up to 2^64
    argv = ["statlim", "restrict(pair(periodic(2;1),periodic(2;0)),periodic(1000003;1))", *_TWO_TO_THE_64]
    start = time.perf_counter()
    code, out, err = run(argv)
    assert code == 3 and out == "" and "exceeds the budget" in err
    assert time.perf_counter() - start < 1


# ---------------------------------------------------------------------------
# one parser per process
# ---------------------------------------------------------------------------


def test_reused_parser_gives_the_same_bytes():
    argv = ["density", "union(periodic(3;1),blocks(dexp))", "--horizon", "4096"]
    assert run(argv) == run(argv)


def test_reused_parser_keeps_no_option_of_an_earlier_call():
    run_json(["statlim", "qswap", "--eps", "1/3", "--horizon", "4096"])
    rep = run_json(["statlim", "qswap", "--horizon", "4096"])
    assert [(r["eps"]["num"], r["eps"]["den"]) for r in rep["result"]["rows"]] == [
        (1, 10),
        (1, 100),
    ]


@pytest.mark.parametrize(
    "first, code",
    [
        (["density", "blocks(dexp)", "--horizon", "x"], 2),
        (["nosuchcommand"], 2),
        (["statlim", "--eps"], 2),
        (["--help"], 0),
        (["witness", "--help"], 0),
    ],
)
def test_parser_reused_after_an_exit_gives_the_same_bytes(monkeypatch, first, code):
    good = ["witness", "qswap", "--cap", "512", "--horizon", "1024"]
    monkeypatch.setattr(cli, "_parser", None)
    alone = run(good)
    assert run(first)[0] == code
    assert run(good) == alone


def _parse_outcome(parse, argv):
    """The exit code (None when parsing returned), stdout, stderr and namespace of one parse."""
    out, err = io.StringIO(), io.StringIO()
    args, code = None, None
    with redirect_stdout(out), redirect_stderr(err):
        try:
            args = parse(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), None if args is None else vars(args)


_X = "periodic(2;1)"


@pytest.mark.parametrize(
    "argv",
    README_COMMANDS
    + [
        [],
        ["nosuch"],
        ["density"],
        ["density", _X, "--horizon", "q"],
        ["density", _X, "--bogus"],
        ["density", _X, "extra"],
        ["density", _X, "--version"],
        ["density", _X, "--ver"],
        ["density", _X, "--hor", "100"],
        ["density", _X, "--horizon=100"],
        ["density", _X, "--=100"],
        ["density", "--", _X],
        ["statlim", "--eps"],
        ["--version"],
        ["-h"],
        ["witness", "-h"],
    ],
)
def test_a_command_parser_reads_argv_as_the_top_level_parser_does(argv):
    # the top-level parser also records the command's name, which no runner reads
    direct = _parse_outcome(lambda a: cli._parse_args(cli._build_parser(), a), argv)
    top = _parse_outcome(cli._build_parser().parse_args, argv)
    assert direct[:3] == top[:3]
    if top[3] is None:
        assert direct[3] is None
    else:
        # every argv that parses is read by its command's own parser alone
        assert "command" not in direct[3]
        assert direct[3] == {k: v for k, v in top[3].items() if k != "command"}


# ---------------------------------------------------------------------------
# end to end against the benchmark's oracle
# ---------------------------------------------------------------------------


def _random_periodic(rng):
    modulus = rng.randrange(3, 13)
    residues = sorted(rng.sample(range(modulus), rng.randrange(1, 3)))
    return f"periodic({modulus};{','.join(map(str, residues))})"


def _random_finite(rng):
    return f"finite({','.join(map(str, sorted(rng.sample(range(1, 5000), rng.randrange(1, 9)))))})"


def _random_tree(rng, depth):
    """A set expression of the given depth over periodic, finite, explicit-block and scaled dexp
    leaves."""
    if depth == 0:
        kind = rng.randrange(4)
        if kind == 0:
            return _random_periodic(rng)
        if kind == 1:
            return _random_finite(rng)
        if kind == 2:
            return f"scale({rng.randrange(1, 5)},blocks(dexp))"
        lo = rng.randrange(1, 3000)
        return f"blocks([{lo},{lo + rng.randrange(1, 400)}))"
    op = rng.choice(["union", "inter", "diff", "compl"])
    if op == "compl":
        return f"compl({_random_tree(rng, depth - 1)})"
    return f"{op}({_random_tree(rng, depth - 1)},{_random_tree(rng, depth - 1)})"


def test_set_requests_match_the_benchmark_oracle():
    """Seeded density, equal and measure requests on depth-3 trees, each run at the default
    budget and each result against the oracle's."""
    rng = random.Random(107)
    measures = ["combo(dexp(3))", "sublim(geom(3,2,12))", "sublim(all(4096))"]
    for _ in range(30):
        a, b = _random_tree(rng, 3), _random_tree(rng, 3)
        horizon = str(2 ** rng.randrange(10, 15))
        for argv in (
            ["density", a, "--horizon", horizon],
            ["equal", a, b, "--horizon", horizon],
            ["measure", rng.choice(measures), a],
        ):
            want, got = bench_oracle.expected(argv), run_json(argv)["result"]
            if argv[0] == "density" and want["_density"][5] is None:
                # the oracle has no density for a tree with a dexp leaf and would reject any
                # value (ROADMAP item 2), so only the window extrema are checked
                got = {**got, "exact_value": None}
            assert bench_oracle.matches(want, got), argv


_SEQ = st.one_of(
    st.integers(1, 6).map("dexp({})".format),
    st.integers(2, 40).map("geom(1,2,{})".format),
)
_ONE_MEASURE = st.tuples(st.sampled_from(["sublim", "combo"]), _SEQ).map("{0[0]}({0[1]})".format)
# the grammar of the paper workload's measures: sublim and combo over dexp and geom, and their mixes
_MEASURE = st.one_of(_ONE_MEASURE, st.tuples(_ONE_MEASURE, _ONE_MEASURE).map("mix(1/2:{0[0]},1/2:{0[1]})".format))
_LEAF = st.one_of(
    st.integers(3, 12).flatmap(
        lambda m: st.sets(st.integers(0, m - 1), min_size=1, max_size=3).map(
            lambda r: f"periodic({m};{','.join(map(str, sorted(r)))})")),
    st.sets(st.integers(1, 5000), min_size=1, max_size=8).map(lambda p: f"finite({','.join(map(str, sorted(p)))})"),
    st.tuples(st.integers(1, 3000), st.integers(1, 400)).map(lambda b: f"blocks([{b[0]},{b[0] + b[1]}))"),
    st.integers(1, 4).map("scale({},blocks(dexp))".format),
)


def _trees(depth):
    """Set expressions of depth at most ``depth`` over periodic, finite, explicit-block and scaled
    dexp leaves."""
    if depth == 0:
        return _LEAF
    sub = _trees(depth - 1)
    return st.one_of(
        st.tuples(st.sampled_from(["union", "inter", "diff"]), sub, sub).map("{0[0]}({0[1]},{0[2]})".format),
        sub.map("compl({})".format),
        st.tuples(st.integers(2, 4), sub).map("scale({0[0]},{0[1]})".format),
    )


@given(a=_trees(3), b=_trees(3), horizon=st.integers(64, 2**14), mu=_MEASURE)
@settings(max_examples=40, deadline=None)
def test_drawn_set_and_measure_requests_match_the_benchmark_oracle(a, b, horizon, mu):
    """density, equal and measure of drawn depth-3 trees, each exiting 0 at the default budget
    with the oracle's result."""
    for argv in (
        ["density", a, "--horizon", str(horizon)],
        ["equal", a, b, "--horizon", str(horizon)],
        ["measure", mu, a],
    ):
        want, got = bench_oracle.expected(argv), run_json(argv)["result"]
        if argv[0] == "density" and want["_density"][5] is None:
            # as in the seeded test above: the oracle has no density for a tree with a dexp leaf
            got = {**got, "exact_value": None}
        assert bench_oracle.matches(want, got), argv


@given(
    a=_trees(3),
    b=_trees(3),
    horizon=st.integers(64, 2**14),
    terms=st.integers(1, 6),
    h=st.integers(1, 3000),
    explicit=st.tuples(st.integers(1, 100), st.integers(1, 5), st.integers(1, 400)),
    tol=st.sampled_from(["1/1000", "1/20", "1/2"]),
)
@settings(max_examples=40, deadline=None)
def test_equal_rows_match_counts_at_the_tail_points(a, b, horizon, terms, h, explicit, tol):
    """Each row of ``equal`` against ``Fraction``s of ``count`` at the last ceil(k/2) of its
    sequence's k points, on the CLI's three sequences, all(h) and an explicit sequence longer
    than a profile keeps: the deviation is the greatest |A(n)/n - B(n)/n| there, and the row is
    inconclusive unless A(n)/n and B(n)/n each spread by at most tol there."""
    sa, sb, q = parse_expression(a, "set"), parse_expression(b, "set"), Fraction(tol)
    start, step, extra = explicit
    seqs = [
        DoubleExponential(terms),
        Doubled(DoubleExponential(terms)),
        Geometric(1, 10, max(2, len(str(horizon)) - 1)),
        All(h),
        Explicit(tuple(range(start, start + step * (_PROFILE_CAP + extra), step))),
    ]
    rep = equal_measure_test(sa, sb, seqs, q, horizon=horizon)
    within = [rep.tail_sup_diff <= q]
    for seq, row in zip(seqs, rep.seq_rows, strict=True):
        pts = seq.points()
        tail = pts[len(pts) // 2 :]
        ra, rb = ([Fraction(x.count(n), n) for n in tail] for x in (sa, sb))
        dev = max(abs(x - y) for x, y in zip(ra, rb))
        settled = max(ra) - min(ra) <= q and max(rb) - min(rb) <= q
        assert row.deviation == dev, (a, b, seq)
        assert row.status == (("pass" if dev <= q else "fail") if settled else "inconclusive"), (a, b, seq)
        within.append(dev <= q)
    assert rep.equivalent_likely == all(within)
    got = run_json(["equal", a, b, "--horizon", str(horizon), "--dexp-terms", str(terms), "--tol", tol])["result"]
    assert got["rows"] == [
        {"label": r.label, "deviation": rat(r.deviation), "status": r.status} for r in rep.seq_rows[:3]
    ]
    assert got["verdict"] == ("equivalent-likely" if all(within[:4]) else "distinct-likely")


def test_perm_requests_match_the_benchmark_oracle():
    """Seeded levy, statlim, displacement and witness requests on periodic pairings and their
    restrictions by finite, periodic and headed F, each result against the oracle's."""
    rng = random.Random(101)
    rules = []
    for a, b in disjoint_periodic_pairs(4, seed=103):
        pair = f"pair({a.to_expr()},{b.to_expr()})"
        lo = rng.randrange(1, 200)
        headed = rng.choice([
            f"union({_random_finite(rng)},{_random_periodic(rng)})",
            f"diff({_random_periodic(rng)},{_random_finite(rng)})",
            f"union(blocks([{lo},{lo + rng.randrange(1, 60)})),{_random_periodic(rng)})",
        ])
        rules += [pair] + [f"restrict({pair},{f})" for f in (_random_finite(rng), _random_periodic(rng), headed)]
    targets = ["periodic(3;1)", "union(finite(2,9,40),periodic(7;3))", "blocks(dexp)"]
    for rule in rules:
        for argv in (["levy", rule], ["statlim", rule], ["displacement", rule, rng.choice(targets)], ["witness", rule]):
            argv += ["--horizon", "4096"]
            assert bench_oracle.matches(bench_oracle.expected(argv), run_json(argv)["result"]), argv


# ---------------------------------------------------------------------------
# one parse per expression text
# ---------------------------------------------------------------------------


def test_a_repeated_text_is_parsed_once():
    text = "union(periodic(4;1),scale(3,blocks(dexp)))"
    first = parse_expression(text, "set")
    assert parse_expression(text, "set") is first
    spaced = parse_expression(text.replace(",", " , "), "set")  # another text, parsed on its own
    assert spaced == first and spaced is not first


def test_a_text_past_the_kept_length_is_parsed_afresh():
    wide = "union(periodic(199999;" + ",".join(map(str, range(0, 199999, 2))) + "),finite(5))"
    assert len(wide) > parser._KEPT_TEXT
    first = parse_expression(wide, "set")
    again = parse_expression(wide, "set")
    assert again == first and again is not first
    short = "union(periodic(199999;0,2,4),finite(5))"
    assert parse_expression(short, "set") is parse_expression(short, "set")


# S: 300 residues 3i + 1 of 999983 and the residue 2 of 999979, too wide for segments, inside 80
# blocks of three; S has 81 members, so it pairs with 81 far points.  Building the pairing counts S
# by testing the 240 block members, which charges the meter 240 units
_OPAQUE_SIDE = (
    "inter(union(periodic(999983;" + ",".join(str(3 * i + 1) for i in range(300)) + "),periodic(999979;2)),"
    "blocks(" + ",".join(f"[{1 + 10 * j},{4 + 10 * j})" for j in range(80)) + "))"
)
_CHARGING_PAIR = f"pair({_OPAQUE_SIDE},finite({','.join(str(2000000 + i) for i in range(81))}))"


def test_a_parse_that_charges_charges_every_time():
    with nset._metered(10**6) as meter:
        parse_expression(_CHARGING_PAIR, "perm")
    assert meter[1] == 10**6 - 240
    argv = ["levy", _CHARGING_PAIR, "--horizon", "4096"]
    refused = run(argv + ["--budget", "959"])
    assert refused[0] == 3 and refused[1] == ""
    assert run(argv + ["--budget", "959"]) == refused
    answered = run(argv + ["--budget", "960"])
    assert answered[0] == 0
    assert run(argv + ["--budget", "960"]) == answered


def test_cold_and_warm_parses_print_the_same():
    """Every README, coverage and named-case request of the benchmark, first with no parse kept,
    then again with every text already parsed: the same exit code and stdout."""
    from perfbench import workloads

    reqs = workloads.README + workloads.COVERAGE + [a for case in workloads.CASES.values() for a in case.values()]
    cold = []
    for argv in reqs:
        parser._parsed.cache_clear()
        cold.append(run(list(argv))[:2])
    hits = parser._parsed.cache_info().hits
    assert [run(list(argv))[:2] for argv in reqs] == cold
    assert parser._parsed.cache_info().hits > hits
