"""Closed-loop, single-client benchmark of densitylab, in process.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 20 --trace 0

One client calls ``densitylab.cli.run_command(argv)`` and sends the next
request only when the previous one has returned.  With ``--trace 0`` it
times set-up in fresh processes, runs whole passes over the seeded request
list until ``--seconds`` have gone by and at least 100 requests were made,
then prints the end-to-end metrics.  With ``--trace 1`` it times the
workload's named cases once, replays the first requests of the list and a
fixed coverage set untraced and then traced, and prints the per-layer
metrics and the tracing overhead.  Every output is checked against
``oracle.py`` after the timed part; the last line of stdout is one JSON
object."""

from __future__ import annotations

import argparse
import bisect
import contextlib
import importlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import oracle, workloads  # noqa: E402

SETUP_REPEATS = 7
MIN_REQUESTS = 100  # p90 needs ten samples beyond it
# The machine's speed drifts by a third or more from one minute to the next
# on a shared host, for wall and CPU time alike.  Request times are
# therefore reported at a fixed reference speed: a probe (``calibrate``)
# runs between requests, and REFERENCE_PROBE_S is what the probe takes at
# the reference speed (a 2-vCPU x86-64 VM, Python 3.11.7, in a quiet
# minute).  The raw wall-clock figures are printed beside them.
CALIBRATION_WINDOW_S = 1.0
CALIBRATION_NEIGHBOURS = 8
PROBE_INTERVAL_S = 0.05
REFERENCE_PROBE_S = 2.8e-3
# requests replayed in a traced run, fixed so that call counts repeat exactly
TRACED_REQUESTS = {"paper": 47, "sets": 30, "perms": 16}


def set_up(workload: str, seed: int):
    """Import densitylab and build the request list, in this process."""
    cli = importlib.import_module("densitylab.cli")
    return cli, workloads.WORKLOADS[workload](seed)


def setup_seconds(workload: str, seed: int, digest: str) -> float:
    """Time from the start of a fresh process until its first request is
    ready: interpreter start, import of densitylab and the request list.
    The benchmark's own tree filter (``workloads.filter_seconds``) is left
    out.  The child must build the same list as this process."""
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--setup-only"],
        stdout=subprocess.PIPE, text=True,
    )
    line = child.stdout.readline()
    elapsed = time.perf_counter() - start
    child.stdout.close()
    if child.wait(timeout=60) != 0 or not line.startswith("ready "):
        raise RuntimeError(f"set-up process failed: {line!r}")
    got, filtered = line.split()[1:]
    if got != digest:
        raise RuntimeError(f"set-up process built request list {got}, expected {digest}")
    return elapsed - float(filtered)


def call(run_command, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = run_command(list(argv))
        elapsed = time.perf_counter() - start
    return code, elapsed, out.getvalue()


class Log:
    """Exit code and time of every request; one output kept per distinct one."""

    def __init__(self):
        self.samples: list[tuple[tuple, int, float, bool]] = []
        self.first: dict[tuple, tuple[int, str]] = {}

    def add(self, argv, code, elapsed, out):
        first = self.first.setdefault(argv, (code, out))
        self.samples.append((argv, code, elapsed, first == (code, out)))


def calibrate() -> float:
    """Seconds a fixed synthetic request takes now: the machine's current
    speed.  It does, in about equal shares of time, the three kinds of work
    densitylab requests do: standard-library overhead (an argparse parser
    built and used), exact big-number fractions with a dict, JSON and a
    sort, and a plain integer loop.  It runs none of densitylab's code."""
    start = time.perf_counter()
    ap = argparse.ArgumentParser(prog="probe")
    sub = ap.add_subparsers(dest="command")
    for name in ("density", "levy", "statlim", "measure", "equal", "witness"):
        sp = sub.add_parser(name)
        sp.add_argument("expr")
        sp.add_argument("--horizon", type=int, default=4096)
        sp.add_argument("--tol")
    ap.parse_args(["measure", "combo(dexp(4))", "--horizon", "65536"])
    total = Fraction(0)
    table = {}
    for i in range(1, 150):
        total += Fraction(i % 7 + 1, i + 3)
        table[f"k{i}"] = (i, str(total.denominator)[-4:])
    json.dumps(table)
    sorted(table.items(), key=lambda kv: kv[1])
    x = 0
    for i in range(8000):
        x += i * i % 7
    return time.perf_counter() - start


def adjusted(times: list[float], starts: list[float], probes: list[tuple[float, float]]) -> list[float]:
    """Times scaled to the reference speed.  Each time, started at
    ``starts[i]``, is multiplied by REFERENCE_PROBE_S over the median of the
    probes (start, seconds) that started within CALIBRATION_WINDOW_S of it,
    or of the 2 * CALIBRATION_NEIGHBOURS + 1 probes nearest to it where
    fewer started that close."""
    at = [start for start, _ in probes]
    k = CALIBRATION_NEIGHBOURS
    out = []
    for t, start in zip(times, starts):
        lo = bisect.bisect_left(at, start - CALIBRATION_WINDOW_S)
        hi = bisect.bisect_right(at, start + CALIBRATION_WINDOW_S)
        if hi - lo <= 2 * k:
            mid = bisect.bisect_left(at, start)
            lo = max(0, min(mid - k, len(at) - 2 * k - 1))
            hi = lo + 2 * k + 1
        out.append(t * REFERENCE_PROBE_S / statistics.median(p for _, p in probes[lo:hi]))
    return out


def closed_loop(run_command, reqs, seconds: float, log: Log):
    """Run whole passes over ``reqs`` until ``seconds`` have passed and at
    least MIN_REQUESTS requests were made.  Whole passes keep the mix of
    requests the same in every run, however fast the machine is.  Between
    requests, a speed probe runs every PROBE_INTERVAL_S.  Returns the loop's
    wall time, the start of each request and the probes (start, seconds)."""
    starts, probes = [], []
    start = next_probe = time.perf_counter()
    while True:
        for argv in reqs:
            now = time.perf_counter()
            if now >= next_probe:
                probes.append((now, calibrate()))
                next_probe = now + PROBE_INTERVAL_S
                now = time.perf_counter()
            starts.append(now)
            log.add(argv, *call(run_command, argv))
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and len(log.samples) >= MIN_REQUESTS:
            return elapsed, starts, probes


def judge(argv, code: int, out: str, cache: dict) -> bool:
    """Whether a request exited 0 with the expected ``result``."""
    if code != 0:
        return False
    try:
        result = json.loads(out)["result"]
    except (ValueError, KeyError, TypeError):
        return False
    if argv not in cache:
        cache[argv] = oracle.expected(list(argv))
    return oracle.matches(cache[argv], result)


def tally(log: Log, cache: dict) -> int:
    """Failed samples; a repeat must also print what its first run printed."""
    good = {argv: judge(argv, code, out, cache) for argv, (code, out) in log.first.items()}
    return sum(not (same and good[argv]) for argv, _, _, same in log.samples)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def untraced(cli, reqs, seconds):
    log = Log()
    total, starts, probes = closed_loop(cli.run_command, reqs, seconds, log)
    rss = peak_rss_mb()
    wall = [sample[2] for sample in log.samples]
    n = len(wall)
    metrics = {"peak_rss_mb": (rss, "MB", 1)}
    for suffix, times in (("", adjusted(wall, starts, probes)), ("_wall", wall)):
        times = sorted(times)
        metrics[f"req_per_s{suffix}"] = (n / sum(times), "1/s", n)
        metrics[f"latency_p50_ms{suffix}"] = (statistics.median(times) * 1e3, "ms", n)
        metrics[f"latency_p90_ms{suffix}"] = (percentile(times, 0.9) * 1e3, "ms", n)
    return log, metrics, total


def traced(workload, cli, reqs, cases=None):
    from perfbench.trace import Tracer

    cases = workloads.CASES[workload] if cases is None else cases
    case_times = {}
    log = Log()
    for name, argv in cases.items():
        code, elapsed, out = call(cli.run_command, argv)
        log.add(argv, code, elapsed, out)
        case_times[f"case.{name}_s"] = (elapsed, "s", 1)
    replay = reqs[: TRACED_REQUESTS[workload]] + workloads.COVERAGE
    plain = sum(_replay(cli, replay, log, None))
    tracer = Tracer()
    tracer.install()
    with_spans = sum(_replay(cli, replay, log, tracer))
    metrics = {k: (v, unit, len(replay)) for k, (v, unit) in tracer.metrics().items()}
    metrics.update(case_times)
    metrics["trace.overhead_s"] = (with_spans - plain, "s", len(replay))
    return log, metrics, tracer


def in_json(name: str) -> bool:
    """Whether a traced-run metric goes into the JSON line (and BENCHMARK.json).

    Case times are printed only: each workload times its own cases.
    Wall-clock figures are printed beside the speed-adjusted ones.
    """
    return not name.startswith("case.") and not name.endswith("_wall")


def _replay(cli, replay, log, tracer):
    for i, argv in enumerate(replay):
        if tracer is not None:
            tracer.request_id = i
        code, elapsed, out = call(cli.run_command, argv)
        log.add(argv, code, elapsed, out)
        yield elapsed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_only:
        cli, reqs = set_up(args.workload, args.seed)
        print("ready", workloads.digest(reqs), workloads.filter_seconds, flush=True)
        return 0

    cli, reqs = set_up(args.workload, args.seed)
    digest = workloads.digest(reqs)
    print(f"workload {args.workload}  seed {args.seed}  requests {len(reqs)}  list {digest}")

    if args.trace:
        log, metrics, tracer = traced(args.workload, cli, reqs)
        out = ROOT / ".bench_out" / f"spans-{args.workload}-{args.seed}.tsv"
        tracer.write(out)
        print(f"spans {len(tracer.spans)} written to {out.relative_to(ROOT)}")
    else:
        setups, speeds = [], []
        for _ in range(SETUP_REPEATS):
            speeds.append(statistics.median(calibrate() for _ in range(2 * CALIBRATION_NEIGHBOURS + 1)))
            setups.append(setup_seconds(args.workload, args.seed, digest))
        log, metrics, total = untraced(cli, reqs, args.seconds)
        n = len(setups)
        metrics["setup_s"] = (statistics.median(
            t * REFERENCE_PROBE_S / speed for t, speed in zip(setups, speeds)), "s", n)
        metrics["setup_s_wall"] = (statistics.median(setups), "s", n)
        print(f"measured {total:.2f} s")

    failed = tally(log, {})
    attempted = len(log.samples)
    for name, (value, unit, n) in sorted(metrics.items()):
        print(f"{name:48s} {value:14.6g} {unit:6s} n={n}")
    print(f"{'fail_ratio':48s} {failed / attempted:14.6g} {'ratio':6s} n={attempted}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items() if in_json(k)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
