"""Tests of the benchmark itself: seeding, checking and tracing.

    python3 -m pytest perfbench/tests -q
"""

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT), str(ROOT / "tests")]

import oracles  # noqa: E402  (tests/oracles.py)
from densitylab.corpus import random_symbolic_set, standard_permutation_corpus  # noqa: E402
from densitylab.parser import parse_expression  # noqa: E402
from perfbench import oracle, run, workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_fixes_the_request_list(name):
    make = workloads.WORKLOADS[name]
    first, again, other = make(7), make(7), make(8)
    assert first == again
    assert workloads.digest(first) == workloads.digest(again)
    assert workloads.digest(first) != workloads.digest(other)


def test_set_oracle_agrees_with_test_oracles():
    rng = random.Random(3)
    for _ in range(40):
        s = random_symbolic_set(rng, 3)
        ref = oracle.RefSet(oracle.parse(s.to_expr(), "set"))
        members = oracles.brute_members(s, 3000)
        assert {k for k in range(1, 3001) if ref.contains(k)} == members
        assert ref.count(3000) == len(members)


def test_large_counts_agree_with_closed_forms():
    ref = oracle.RefSet(oracle.parse("blocks(dexp)", "set"))
    for n in (1 << 20, (1 << 32) + 5, 1 << 33, (1 << 64) + 1):
        assert ref.count(n) == oracles.dexp_count_closed(n)
    tree = oracle.parse("union(diff(periodic(6;1,2),blocks(dexp)),scale(3,periodic(4;1)))", "set")
    big = oracle.RefSet(tree)
    small = oracle.RefSet(tree, 1 << 19)
    for n in ((1 << 18) + 7, 300001, (1 << 19) - 3):
        assert big.count(n) == small.count(n)


def test_perm_oracle_agrees_with_test_oracles():
    extra = [parse_expression(e, "perm") for e in (
        "inv(qswap)", "restrict(pair(periodic(3;1),periodic(3;2)),finite(1,2,7,40))")]
    for pi in [p for _, p in standard_permutation_corpus()] + extra:
        ref = oracle.RefPerm(oracle.parse(pi.to_expr(), "perm"))
        assert [ref.apply(k) for k in range(1, 600)] == [pi.apply(k) for k in range(1, 600)]
        assert [ref.invert(k) for k in range(1, 600)] == [pi.invert(k) for k in range(1, 600)]
        pts = oracle.doubling_points(512)
        assert oracle._defects(ref, pts) == [
            (n, Fraction(oracles.brute_defect(pi, n), n)) for n in pts
        ]


def _cli():
    return run.set_up("paper", 1)[0]


def test_real_outputs_pass_and_a_corrupted_result_fails():
    cli = _cli()
    argv = ("levy", "qswap", "--horizon", "4096")
    code, elapsed, out = run.call(cli.run_command, argv)
    report = json.loads(out)
    report["result"]["defects"][-1]["value"]["num"] += 1
    corrupted = json.dumps(report)

    log = run.Log()
    log.add(argv, code, elapsed, out)
    log.add(argv, code, elapsed, out)
    assert run.tally(log, {}) == 0

    log.add(argv, code, elapsed, corrupted)  # a repeat that differs
    assert run.tally(log, {}) == 1

    fresh = run.Log()
    fresh.add(argv, code, elapsed, corrupted)
    fresh.add(("suite",), 2, 0.0, "")  # wrong exit code
    assert run.tally(fresh, {}) == 2


def test_a_budget_refusal_fails():
    log = run.Log()
    log.add(("measure", workloads.SETS_MEASURE, "blocks(dexp)"), 3, 0.0, "")
    assert run.tally(log, {}) == 1


def test_the_envelope_is_not_checked():
    cli = _cli()
    argv = ("density", "periodic(4;1,2)", "--horizon", "4096")
    code, elapsed, out = run.call(cli.run_command, argv)
    report = json.loads(out)
    report["schema"] = "densitylab/99"
    report["work"] = {"count_calls": 12}
    log = run.Log()
    log.add(argv, code, elapsed, json.dumps(report))
    assert run.tally(log, {}) == 0


_TRACE_COUNTS = """
import json, sys
sys.path[:0] = [{root!r}]
from perfbench import run
cli, reqs = run.set_up("sets", 5)
log, metrics, _ = run.traced("sets", cli, reqs, cases={{}})
print(json.dumps([run.tally(log, {{}}), {{k: v for k, (v, u, n) in metrics.items() if u == "count"}}]))
"""


def test_traced_counts_repeat_and_pass_the_check():
    script = _TRACE_COUNTS.format(root=str(ROOT))
    runs = [
        json.loads(subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=True, timeout=300
        ).stdout.splitlines()[-1])
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    failed, counts = runs[0]
    assert failed == 0
    # the coverage requests reach every counted layer, so none reads 0
    assert [name for name, n in counts.items() if n == 0] == []


def test_scaled_times_undo_a_uniform_slowdown():
    starts = [0.1 * i for i in range(40)]
    times = [0.01 + 0.001 * (i % 7) for i in range(40)]
    quiet = [(t, run.REFERENCE_PROBE_S) for t in starts]
    slow = [(t, 3 * run.REFERENCE_PROBE_S) for t in starts]
    assert run.adjusted(times, starts, quiet) == pytest.approx(times)
    assert run.adjusted([3 * t for t in times], starts, slow) == pytest.approx(times)


def test_setup_process_builds_the_same_list():
    _, reqs = run.set_up("sets", 2)
    assert 0 < run.setup_seconds("sets", 2, workloads.digest(reqs)) < 60
    with pytest.raises(RuntimeError):
        run.setup_seconds("sets", 2, "0" * 16)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_names_what_run_prints():
    from perfbench.trace import Tracer

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    per_layer = {k for k in Tracer().metrics() if run.in_json(k)} | {"trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == per_layer
    cli, reqs = run.set_up("paper", 1)
    _, metrics, _ = run.untraced(cli, reqs, 0)
    assert {m["name"] for m in spec["end_to_end"]} == {k for k in metrics if run.in_json(k)} | {"setup_s"}
