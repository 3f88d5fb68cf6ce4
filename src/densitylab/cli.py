"""Command-line front end.

Every subcommand parses rule expressions, runs one experiment, and prints a
JSON (or CSV) report.  Reports embed the full configuration, all rationals
appear as exact num/den pairs with decimal shadows, and identical inputs
produce byte-identical output.

Exit codes: 0 for any computed report (inconclusive verdicts included),
2 for input errors, 3 for budget violations.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import __version__
from .asymptotics import Doubled, DoubleExponential, Geometric, density
from .errors import (
    ConfigError,
    DensityLabError,
    EnumerationBudgetExceeded,
    ParseError,
    PredicateCapExceeded,
)
from .measure import evaluate, equal_measure_test
from .nset import DEFAULT_ENUMERATION_BUDGET, _metered, select
from .parser import parse_expression
from .perm import (
    _moved_up,
    doubling_checkpoints,
    displacement_profile,
    levy_defect_profile,
    levy_witness_set,
    ratio_stat_report,
    stat_checkpoints,
)
from .report import emit_csv, emit_json, profile, profile_csv_rows, rat
from .suite import counterexample_suite

_SCHEMA = "densitylab/2"


@dataclass(frozen=True)
class ExperimentConfig:
    horizon: int = 10**5
    tail_window_start: Optional[int] = None
    tol: Fraction = Fraction(1, 1000)
    enumeration_budget: int = DEFAULT_ENUMERATION_BUDGET
    dexp_terms: int = 4
    output_format: str = "json"

    def __post_init__(self):
        tail = self.tail_start()
        if not 1 <= tail < self.horizon:
            raise ConfigError(f"tail window start {tail} must lie in [1, horizon) for horizon {self.horizon}")
        if self.tol <= 0:
            raise ConfigError("tolerance must be positive")
        if self.dexp_terms < 1:
            raise ConfigError(f"dexp terms must be >= 1, got {self.dexp_terms}")

    def tail_start(self) -> int:
        if self.tail_window_start is not None:
            return self.tail_window_start
        return max(1, self.horizon // 10)

    def to_json(self) -> dict:
        return {
            "horizon": self.horizon,
            "tail_window_start": self.tail_start(),
            "tol": rat(self.tol),
            "enumeration_budget": self.enumeration_budget,
            "dexp_terms": self.dexp_terms,
            "output_format": self.output_format,
        }


def _envelope(command: str, config: ExperimentConfig, inputs: dict, result: dict) -> dict:
    return {
        "schema": _SCHEMA,
        "command": command,
        "config": config.to_json(),
        "input": inputs,
        "result": result,
    }


def _limit_report_json(rep) -> dict:
    return {
        "sequence": rep.sequence,
        "verdict": rep.verdict,
        "value": rat(rep.value),
        "achieved_tol": rat(rep.achieved_tol),
        "tail_inf": rat(rep.tail_inf),
        "tail_sup": rat(rep.tail_sup),
        "tail_window": rep.tail_window,
        "sampled": rep.sampled,
    }


# ---------------------------------------------------------------------------
# subcommand runners: each returns (report_dict, csv_sections), a section
# being (label, [(n, value), ...]); rows are formatted only for --format csv
# ---------------------------------------------------------------------------


def _run_density(args, config):
    s = parse_expression(args.set, "set")
    rep = density(s, config.horizon, config.tail_start())
    within = rep.upper_estimate - rep.lower_estimate <= config.tol
    result = {
        "lower_estimate": rat(rep.lower_estimate),
        "upper_estimate": rat(rep.upper_estimate),
        "exact_value": rat(rep.exact_value),
        "argmin": rep.argmin,
        "argmax": rep.argmax,
        "grid": rep.grid,
        "has_density_within_tol": within,
        "note": "window estimates are finite-horizon evidence, not a limit",
    }
    rows = [(rep.argmin, rep.lower_estimate), (rep.argmax, rep.upper_estimate)]
    return (
        _envelope("density", config, {"set": s.to_expr()}, result),
        [("window-extrema", rows)],
    )


def _run_levy(args, config):
    pi = parse_expression(args.perm, "perm")
    prof = levy_defect_profile(pi, doubling_checkpoints(config.horizon))
    entries = list(zip(prof.points, prof.defects))
    result = {
        "classification": prof.classification_hint.value,
        "mode": prof.mode,
        "tail_window": prof.tail_window,
        "defects": profile(entries),
        "note": "classification is a finite-horizon heuristic",
    }
    return (
        _envelope("levy", config, {"perm": pi.to_expr()}, result),
        [("defect", entries)],
    )


def _run_statlim(args, config):
    pi = parse_expression(args.perm, "perm")
    eps_grid = args.eps or [Fraction(1, 10), Fraction(1, 100)]
    rep = ratio_stat_report(pi, eps_grid, stat_checkpoints(config.horizon))
    rows = []
    sections = []
    for row in rep.stat.rows:
        rows.append(
            {
                "eps": rat(row.eps),
                "tail_max": rat(row.tail_max),
                "densities": profile(row.densities),
            }
        )
        sections.append((f"eps={row.eps}", row.densities))
    result = {
        "target": rat(rep.stat.target),
        "classification": rep.classification.value,
        "convergent_at_slack": rep.stat.convergent,
        "slack": rat(rep.stat.slack),
        "rows": rows,
    }
    return _envelope("statlim", config, {"perm": pi.to_expr()}, result), sections


def _run_displacement(args, config):
    pi = parse_expression(args.perm, "perm")
    s = parse_expression(args.set, "set")
    entries = displacement_profile(pi, s, doubling_checkpoints(config.horizon))
    result = {"profile": profile(entries)}
    return (
        _envelope(
            "displacement", config, {"perm": pi.to_expr(), "set": s.to_expr()}, result
        ),
        [("displacement", entries)],
    )


def _run_measure(args, config):
    mu = parse_expression(args.measure, "measure")
    s = parse_expression(args.set, "set")
    rep = evaluate(mu, s, config.tol)
    result = {
        "verdict": rep.verdict,
        "value": rat(rep.value),
        "achieved_tol": rat(rep.achieved_tol),
        "lo": rat(rep.lo),
        "hi": rat(rep.hi),
        "partials": profile(rep.partials) if rep.partials else None,
        "constituents": [_limit_report_json(d) for d in rep.diagnostics],
    }
    sections = []
    if rep.partials:
        sections.append(("partials", rep.partials))
    return (
        _envelope(
            "measure", config, {"measure": mu.to_expr(), "set": s.to_expr()}, result
        ),
        sections,
    )


def _run_pair(args, config):
    a = parse_expression(args.set_a, "set")
    b = parse_expression(args.set_b, "set")
    phi = parse_expression(f"pair({a.to_expr()},{b.to_expr()})", "perm")
    # the i-th pair is the i-th member of each side; never ask past the last
    limit = 10 if phi.pair_total is None else min(10, phi.pair_total)
    shown = [[select(phi.a_only, i), select(phi.b_only, i)] for i in range(1, limit + 1)]
    sample_ok = all(
        phi.apply(phi.apply(n)) == n for n in range(1, min(1000, config.horizon) + 1)
    )
    prof = levy_defect_profile(phi, doubling_checkpoints(min(config.horizon, 2**14)))
    entries = list(zip(prof.points, prof.defects))
    result = {
        "perm": phi.to_expr(),
        "a_only": phi.a_only.to_expr(),
        "b_only": phi.b_only.to_expr(),
        "first_pairs": shown,
        "involution_on_sample": sample_ok,
        "defects": profile(entries),
        "classification": prof.classification_hint.value,
    }
    return (
        _envelope("pair", config, {"set_a": a.to_expr(), "set_b": b.to_expr()}, result),
        [("defect", entries)],
    )


def _run_witness(args, config):
    pi = parse_expression(args.perm, "perm")
    cap = config.horizon if args.cap is None else args.cap
    # a cap past the budget could start a scan of every integer up to it
    if cap > config.enumeration_budget:
        raise ConfigError(f"cap {cap} must be <= budget {config.enumeration_budget}")
    w = levy_witness_set(pi, cap)
    points = doubling_checkpoints(cap).points()
    first, counts = _moved_up(pi, points)
    entries = [(k, Fraction(c, k)) for k, c in zip(points, counts)]
    result = {
        "witness": w.to_expr(),
        "cap": cap,
        "first_elements": first,
        "ratio_profile": profile(entries),
    }
    return (
        _envelope("witness", config, {"perm": pi.to_expr()}, result),
        [("witness-ratio", entries)],
    )


def _run_equal(args, config):
    a = parse_expression(args.set_a, "set")
    b = parse_expression(args.set_b, "set")
    seqs = [
        DoubleExponential(config.dexp_terms),
        Doubled(DoubleExponential(config.dexp_terms)),
        Geometric(1, 10, max(2, len(str(config.horizon)) - 1)),
    ]
    rep = equal_measure_test(
        a,
        b,
        seqs,
        config.tol,
        horizon=config.horizon,
        tail_window_start=config.tail_start(),
    )
    result = {
        "tail_sup_diff": rat(rep.tail_sup_diff),
        "window": [rep.tail_window_start, rep.horizon],
        "grid": rep.grid,
        "rows": [
            {"label": r.label, "deviation": rat(r.deviation), "status": r.status}
            for r in rep.seq_rows
        ],
        "verdict": "equivalent-likely" if rep.equivalent_likely else "distinct-likely",
    }
    return (
        _envelope("equal", config, {"set_a": a.to_expr(), "set_b": b.to_expr()}, result),
        [("", [])],  # no profile: the table is its header alone
    )


def _run_suite(args, config):
    rep = counterexample_suite(dexp_terms=config.dexp_terms, tol=config.tol)
    i1, i2, i3 = rep.combo_vs_upper_density, rep.doubling_failure, rep.monotonicity_failure
    result = {
        "dexp_terms": rep.dexp_terms,
        "combo_vs_upper_density": {
            "partials": profile(i1.partials),
            "final_partial": rat(i1.final_partial),
            "upper_density_estimate": rat(i1.density.upper_estimate),
            "lower_density_estimate": rat(i1.density.lower_estimate),
            "window": [i1.density.tail_window_start, i1.density.horizon],
            "measure_exceeds_upper_density": i1.measure_exceeds_upper_density,
        },
        "doubling_failure": {
            "partials": profile(i2.partials),
            "half_expectation": profile(i2.half_expectation),
            "count_grid_identity": i2.count_grid_identity,
        },
        "monotonicity_failure": {
            "dominating_set": i3.dominating_set,
            "domination_horizon": i3.domination_horizon,
            "domination_holds": i3.domination_holds,
            "first_violation": i3.first_violation,
            "block_edge_ratio_bound": rat(i3.block_edge_ratio_bound),
            "block_edge_bound_holds": i3.block_edge_bound_holds,
            "density_b": rat(i3.density_b),
            "measure_b_value": rat(i3.measure_b.value),
            "measure_a_final_partial": rat(i3.measure_a_final_partial),
        },
        "sandwich": {
            "points_checked": rep.sandwich.points_checked,
            "holds": rep.sandwich.holds,
        },
        "mixture_rows": [
            {
                "mixture": m.mixture,
                "monotonicity_deviation": rat(m.monotonicity_deviation),
                "monotonicity_ok": m.monotonicity_ok,
                "scaling_deviation": rat(m.scaling_deviation),
                "scaling_ok": m.scaling_ok,
            }
            for m in rep.mixture_rows
        ],
    }
    sections = [
        ("combo-partials-A", i1.partials),
        ("combo-partials-2A", i2.partials),
        ("half-expectation", i2.half_expectation),
    ]
    return _envelope("suite", config, {}, result), sections


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _fraction(text: str) -> Fraction:
    """A rational flag such as 1/1000.  A bad one is an input error, with the
    message argparse gives for type=Fraction; so is a zero denominator, whose
    ZeroDivisionError argparse would let through as a traceback."""
    try:
        return Fraction(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid Fraction value: {text!r}") from None
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator in {text!r}") from None


def _add_config_flags(sp, dexp_default: int):
    sp.add_argument("--horizon", type=int, default=ExperimentConfig.horizon, help="largest evaluation index")
    sp.add_argument("--tail", type=int, default=None, metavar="N",
                    help="tail window start (default horizon/10)")
    sp.add_argument("--tol", type=_fraction, default=ExperimentConfig.tol,
                    help="tolerance as a rational, e.g. 1/1000")
    sp.add_argument("--budget", type=int, default=ExperimentConfig.enumeration_budget,
                    help="bound on the total work of the request's fallback scans")
    sp.add_argument("--dexp-terms", type=int, default=dexp_default,
                    help="terms of the double-exponential grid")
    sp.add_argument("--format", choices=("json", "csv"), default="json")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="densitylab",
        description="Exact-arithmetic diagnostics for asymptotic density, "
        "the Lévy group of permutations, and density-measure surrogates.",
    )
    ap.add_argument("--version", action="version", version=f"densitylab {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    specs = [
        ("density", "lower/upper asymptotic density estimates of SET over the tail window",
         [("set", "set expression")], _run_density, 4),
        ("levy", "defect ratio |{k : k <= n < pi(k)}|/n of PERM with a Lévy-group verdict",
         [("perm", "permutation expression")], _run_levy, 4),
        ("statlim", "exception densities for statistical convergence of pi(n)/n to 1",
         [("perm", "permutation expression")], _run_statlim, 4),
        ("displacement", "(A(n) - (piA)(n))/n profile of PERM against SET",
         [("perm", "permutation expression"), ("set", "set expression")], _run_displacement, 4),
        ("measure", "evaluate a density-measure surrogate on SET",
         [("measure", "measure expression"), ("set", "set expression")], _run_measure, 4),
        ("pair", "build the involution interlacing SETA and SETB and profile it",
         [("set_a", "set expression"), ("set_b", "set expression")], _run_pair, 4),
        ("witness", "the canonical moved-up set {k : pi(k) > k} with its counting profile",
         [("perm", "permutation expression")], _run_witness, 4),
        ("equal", "evidence for mu(A) = mu(B) under every subsequence-limit surrogate",
         [("set_a", "set expression"), ("set_b", "set expression")], _run_equal, 4),
        ("suite", "reproduce the double-exponential block-set counterexample suite",
         [], _run_suite, 6),
    ]
    for name, help_text, positionals, runner, dexp_default in specs:
        sp = sub.add_parser(name, help=help_text, description=help_text)
        for arg, arg_help in positionals:
            sp.add_argument(arg, help=arg_help)
        if name == "statlim":
            sp.add_argument("--eps", action="append", type=_fraction, metavar="Q",
                            help="epsilon as a rational; repeatable (default 1/10, 1/100)")
        if name == "witness":
            sp.add_argument("--cap", type=int, default=None,
                            help="enumeration cap of the witness, at most --budget (default horizon)")
        _add_config_flags(sp, dexp_default)
        sp.set_defaults(runner=runner)
    return ap


_parser: Optional[argparse.ArgumentParser] = None


def _parse_args(ap: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """``ap.parse_args(argv)``, with a request's arguments read by its command's own parser.

    The top-level parser would only hand ``argv[1:]`` to that parser and copy back what it
    read, at about twice the cost.  What the direct call cannot answer alone goes to
    ``ap.parse_args(argv)``, so usage and error text stay argparse's own: an argv that names no
    command (empty, ``-h``, ``--version``, an unknown command), one that leaves arguments over,
    and one with an argument that starts with ``--=``, which the top-level parser rejects as
    ambiguous between its own ``--help`` and ``--version`` before any command reads it.  The
    namespace lacks only ``command``, which no runner reads.
    """
    sub = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    command = sub.choices.get(argv[0]) if argv else None
    if command is not None and not any(a.startswith("--=") for a in argv):
        args, rest = command.parse_known_args(argv[1:])
        if not rest:
            return args
    return ap.parse_args(argv)


def run_command(argv: list[str]) -> int:
    """Parse argv, run one subcommand, print its report; return exit status.

    The argument parser is built on the first call and reused by later ones.  A request's
    arguments are read by its command's own parser; `_parse_args` says when the top-level
    parser reads them instead.
    """
    global _parser
    if _parser is None:
        _parser = _build_parser()
    try:
        args = _parse_args(_parser, argv)
    except SystemExit as exc:
        # argparse already printed usage/help
        return 0 if exc.code in (0, None) else 2
    try:
        config = ExperimentConfig(
            horizon=args.horizon,
            tail_window_start=args.tail,
            tol=Fraction(args.tol),
            enumeration_budget=args.budget,
            dexp_terms=args.dexp_terms,
            output_format=args.format,
        )
        with _metered(config.enumeration_budget):
            report, sections = args.runner(args, config)
    except (EnumerationBudgetExceeded, PredicateCapExceeded) as exc:
        sys.stderr.write(f"budget error: {exc}\n")
        return 3
    except (ParseError, ConfigError, ValueError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 2
    except DensityLabError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 2
    if config.output_format == "csv":
        sys.stdout.write(emit_csv([(label, profile_csv_rows(rows)) for label, rows in sections]))
    else:
        sys.stdout.write(emit_json(report))
    return 0


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
