"""Spans and counters around densitylab's public functions, from outside it.

``Tracer.install`` wraps functions and methods of the already imported
``densitylab`` modules in the current process; no file under ``src/`` is
touched, and an untraced process never imports this module's wrappers.

* Functions at a layer boundary get a span: name, start, end, the span that
  called it and the id of the request it belongs to.  Spans are kept in
  memory and written out by ``write``.
* Per-integer calls (``contains``, ``apply``, ``invert``) are counted, not
  timed: a span around each would multiply the wall time.  Inside
  ``nset.select``, which the pairing fallback calls once per integer, the
  nested ``count`` and ``member_runs`` calls are counted too, and their time
  stays in the self time of ``select``.
* ``Fraction``, as each densitylab module imported it, is replaced by a
  subclass that counts constructions.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path

# ImageSet is left out: no command of the command line builds one
SET_NODES = (
    "Periodic", "Blocks", "Scaled", "FiniteList", "Union",
    "Intersect", "Diff", "Complement",
)
PERM_RULES = (
    "Identity", "FiniteTable", "InterlacedPairing", "QuarterBlockSwap",
    "Restricted", "Compose", "Inverse",
)
GRIDS = ("window-extrema-via-runs", "geometric-sample", "integer-scan")

# (module, function) pairs that get a span under the name "module.function"
SPANNED = (
    ("cli", "run_command"),
    ("parser", "parse_expression"),
    ("asymptotics", "density"),
    ("asymptotics", "limit_along"),
    ("asymptotics", "statistical_limit"),
    ("measure", "evaluate"),
    ("measure", "equal_measure_test"),
    ("perm", "levy_defect_profile"),
    ("perm", "displacement_profile"),
    ("perm", "ratio_stat_report"),
    ("suite", "counterexample_suite"),
    ("nset", "select"),
)


def _package_modules():
    return [
        m for name, m in list(sys.modules.items())
        if name == "densitylab" or name.startswith("densitylab.")
    ]


def _rebind(old, new):
    """Point every densitylab module-level name bound to ``old`` at ``new``."""
    for mod in _package_modules():
        for key in [k for k, v in vars(mod).items() if v is old]:
            setattr(mod, key, new)


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


class Tracer:
    def __init__(self):
        # (span id, parent id or -1, request id, name, start ns, end ns)
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.request_id = -1
        self.quiet = 0
        self.emitted = 0
        self.selects = 0

    # -- wrappers -----------------------------------------------------------

    def _timed(self, name_of, fn, quiet_inside=False):
        tracer = self

        def wrapper(*args, **kwargs):
            name = name_of(args)
            if tracer.quiet:
                tracer.counts[name + ".calls"] += 1
                return fn(*args, **kwargs)
            sid = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.spans.append(None)
            tracer.stack.append(sid)
            tracer.quiet += quiet_inside
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                tracer.quiet -= quiet_inside
                tracer.stack.pop()
                tracer.spans[sid] = (sid, parent, tracer.request_id, name, start, end)

        return wrapper

    def _counted(self, name_of, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name_of(args) + ".calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        mods = {m.__name__.rpartition(".")[2]: m for m in _package_modules()}
        for mod, fn_name in SPANNED:
            old = getattr(mods[mod], fn_name)
            name = f"{mod}.{fn_name}"
            _rebind(old, self._timed(lambda a, n=name: n, old, quiet_inside=fn_name == "select"))

        select = mods["nset"].select

        def counted_select(*args, **kwargs):
            self.selects += 1
            return select(*args, **kwargs)

        _rebind(select, counted_select)

        report = mods["report"]
        for fn_name in ("emit_json", "emit_csv"):
            _rebind(getattr(report, fn_name), self._emit(getattr(report, fn_name)))

        density = mods["asymptotics"].density  # already wrapped in a span

        def density_with_path(*args, **kwargs):
            rep = density(*args, **kwargs)
            self.counts[f"asymptotics.density.path.{rep.grid}"] += 1
            return rep

        _rebind(density, density_with_path)

        nset = mods["nset"]
        for cls in _subclasses(nset.SymbolicSet):
            if "count" in vars(cls):
                cls.count = self._timed(lambda a: "nset.count." + type(a[0]).__name__, vars(cls)["count"])
            if "member_runs" in vars(cls):
                cls.member_runs = self._member_runs(vars(cls)["member_runs"])
            if "contains" in vars(cls):
                cls.contains = self._counted(lambda a: "nset.contains." + type(a[0]).__name__, vars(cls)["contains"])
        for cls in _subclasses(mods["perm"].PermutationRule):
            for meth in ("apply", "invert"):
                if meth in vars(cls):
                    wrapped = self._counted(
                        lambda a, m=meth: f"perm.{m}." + type(a[0]).__name__, vars(cls)[meth]
                    )
                    if cls.__name__ == "InterlacedPairing" and meth == "apply":
                        wrapped = self._pair_apply(wrapped)
                    setattr(cls, meth, wrapped)

        counts = self.counts

        class CountingFraction(Fraction):
            __slots__ = ()

            def __new__(cls, *args, **kwargs):
                counts["fractions.made"] += 1
                return super().__new__(cls, *args, **kwargs)

        _rebind(Fraction, CountingFraction)

    def _emit(self, fn):
        timed = self._timed(lambda a: "report.emit", fn)

        def wrapper(*args, **kwargs):
            text = timed(*args, **kwargs)
            self.emitted += len(text.encode())
            return text

        return wrapper

    def _member_runs(self, fn):
        timed = self._timed(lambda a: "nset.member_runs." + type(a[0]).__name__, fn)

        def wrapper(*args, **kwargs):
            runs = timed(*args, **kwargs)
            self.counts["nset.member_runs.all"] += 1
            self.counts["nset.member_runs.useful"] += runs is not None
            return runs

        return wrapper

    def _pair_apply(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            before = self.selects
            out = fn(*args, **kwargs)
            counts["perm.pair.applies"] += 1
            counts["perm.pair.hits"] += self.selects == before
            return out

        return wrapper

    # -- results ------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds per span name: duration minus the time of direct children."""
        child = defaultdict(int)
        for _, parent, _, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for sid, _, _, name, start, end in self.spans:
            out[name] += (end - start - child[sid]) / 1e9
        return out

    def calls(self) -> Counter:
        """Calls per name: spans plus the calls that were only counted."""
        out = Counter()
        for span in self.spans:
            out[span[3]] += 1
        for key, n in self.counts.items():
            if key.endswith(".calls"):
                out[key[: -len(".calls")]] += n
        return out

    def metrics(self) -> dict[str, tuple[float, str]]:
        selfs, calls, c = self.self_times(), self.calls(), self.counts
        m = {
            "cli.run_command.self_s": (selfs["cli.run_command"], "s"),
            "parser.parse_expression.calls": (calls["parser.parse_expression"], "count"),
            "parser.parse_expression.self_s": (selfs["parser.parse_expression"], "s"),
            "report.emit.self_s": (selfs["report.emit"], "s"),
            "report.bytes": (self.emitted, "count"),
        }
        for node in SET_NODES:
            for op in ("count", "member_runs"):
                m[f"nset.{op}.{node}.calls"] = (calls[f"nset.{op}.{node}"], "count")
                m[f"nset.{op}.{node}.self_s"] = (selfs[f"nset.{op}.{node}"], "s")
        m["nset.member_runs.useful_ratio"] = (
            c["nset.member_runs.useful"] / c["nset.member_runs.all"] if c["nset.member_runs.all"] else 0.0,
            "ratio",
        )
        for node in SET_NODES:
            m[f"nset.contains.{node}.calls"] = (calls[f"nset.contains.{node}"], "count")
        m["nset.select.calls"] = (calls["nset.select"], "count")
        m["nset.select.self_s"] = (selfs["nset.select"], "s")
        m["perm.pair.cache_hit_ratio"] = (
            c["perm.pair.hits"] / c["perm.pair.applies"] if c["perm.pair.applies"] else 0.0,
            "ratio",
        )
        for rule in PERM_RULES:
            m[f"perm.apply.{rule}.calls"] = (calls[f"perm.apply.{rule}"], "count")
            m[f"perm.invert.{rule}.calls"] = (calls[f"perm.invert.{rule}"], "count")
        for name in (
            "perm.levy_defect_profile", "perm.displacement_profile", "perm.ratio_stat_report",
            "asymptotics.density", "asymptotics.limit_along", "asymptotics.statistical_limit",
            "measure.evaluate", "measure.equal_measure_test", "suite.counterexample_suite",
        ):
            m[f"{name}.self_s"] = (selfs[name], "s")
        for grid in GRIDS:
            m[f"asymptotics.density.path.{grid}"] = (c[f"asymptotics.density.path.{grid}"], "count")
        m["fractions.made"] = (c["fractions.made"], "count")
        return m

    def write(self, path: Path) -> None:
        """Write the spans as tab-separated lines, one per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            f.write("span\tparent\trequest\tname\tstart_ns\tend_ns\n")
            for span in self.spans:
                f.write("\t".join(map(str, span)) + "\n")
