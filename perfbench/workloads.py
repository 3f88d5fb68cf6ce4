"""Seeded request lists for the three workloads, and the named cases.

A request is a tuple of command-line arguments for ``run_command``; the
program sees nothing else.  Inputs are built with the seeded builders in
``densitylab.corpus`` (imported at call time, so that this module loads
without densitylab), and the same seed always gives the same list.
"""

from __future__ import annotations

import hashlib
import importlib
import random
import time

from . import oracle

README = [
    ("density", "blocks(dexp)", "--horizon", "1048576", "--tail", "1024"),
    ("levy", "qswap"),
    ("statlim", "pair(periodic(2;1),periodic(2;0))", "--eps", "1/10", "--eps", "1/100"),
    ("displacement", "qswap", "blocks([4,8),[16,32))"),
    ("measure", "combo(dexp(6))", "blocks(dexp)"),
    ("pair", "periodic(2;1)", "periodic(2;0)"),
    ("witness", "qswap", "--cap", "4096"),
    ("equal", "periodic(2;1)", "periodic(2;0)"),
    ("suite",),
]

_DEPTH3 = (
    "inter(compl(inter(blocks(dexp),scale(4,periodic(5;1)))),inter(compl(scale(3,"
    "periodic(3;1))),union(scale(4,periodic(2;1)),blocks([2,82),[84,184)))))"
)

# Regression cases at the sizes they were reported at, timed once in each
# traced run of the workload that owns them; they must not shrink.  The
# budget=5000 run of the depth-3 set is left out: whether exit 3 is the
# right answer depends on how much work the code does, so it belongs with
# the tests of the work meter, not in a benchmark of fixed answers.
CASES = {
    "paper": {f"readme-{argv[0]}": argv for argv in README},
    "sets": {
        "density-depth3-h3000": ("density", _DEPTH3, "--horizon", "3000"),
        "density-inter-dexp-p7-h1e6": (
            "density", "inter(blocks(dexp),periodic(7;1,3))", "--horizon", "1000000"),
        "density-union-scaled-dexp-bigmod-h1e6": (
            "density", "union(scale(3,blocks(dexp)),periodic(1000003;5))", "--horizon", "1000000"),
    },
    "perms": {
        "levy-pair3-h2p20": ("levy", "pair(periodic(3;1),periodic(3;2))", "--horizon", "1048576"),
        "statlim-qswap-h2p20": ("statlim", "qswap", "--horizon", "1048576"),
    },
}

# The ROADMAP slowdowns that take seconds rather than a minute are made in
# every pass of the sets workload, at their reported size.
SETS_SLOWDOWNS = [
    CASES["sets"]["density-inter-dexp-p7-h1e6"],
    CASES["sets"]["density-union-scaled-dexp-bigmod-h1e6"],
]

# Replayed in every traced run after the workload's own requests, so that
# every counted layer reads more than 0 whatever the workload: the README
# commands, a tree with a node of each kind under density (counts and runs)
# and under equal (membership), density on each of its three paths, a
# pairing queried past its 2^16-pair cache, and every permutation rule.
_ALL_NODES = (
    "diff(union(inter(periodic(6;1,2),blocks([10,90))),finite(5,500,1500)),"
    "compl(union(scale(3,blocks(dexp)),blocks(dexp))))"
)
COVERAGE = README + [
    ("density", _ALL_NODES, "--horizon", "2048"),
    ("equal", _ALL_NODES, "periodic(3;1)", "--horizon", "2048"),
    ("density", "periodic(2;1)", "--horizon", "1000000"),  # geometric-sample
    ("density", "union(periodic(2;1),blocks(dexp))", "--horizon", "420000"),  # integer-scan
    ("witness", "pair(periodic(8;0,2,3,4,5,6,7),periodic(8;1))", "--cap", "80000"),
    ("levy", "comp(table((1 5)(2 3)),id)", "--horizon", "4096"),
    ("levy", "inv(qswap)", "--horizon", "4096"),
    ("levy", "restrict(pair(periodic(2;1),periodic(2;0)),finite(1,2,3,8))", "--horizon", "4096"),
]

# closed-form measures for the paper workload's short requests
_MEASURES = (
    "combo(dexp(6))",
    "sublim(dexp(6))",
    "sublim(geom(1,2,40))",
    "mix(1/2:sublim(dexp(6)),1/2:combo(dexp(6)))",
)

PAPER_PAIRS = 10
# Trees per pass of the sets workload, by depth and stratum.  A stratum is
# the size of the tree as densitylab prints it (its number of nodes, by the
# lower end of the buckets in SETS_SIZES) and its number of blocks(dexp)
# leaves (0, 1, or 2 and more), which makes a membership test dearer.
# Every seed draws the same mix, in proportion to how often
# random_symbolic_set produces each stratum under SETS_RUNS_CAP (half its
# trees fold to a single node), so that seeds differ in content rather than
# in size.
SETS_SIZES = (1, 2, 4, 6, 8)
SETS_QUOTA = {
    2: {(1, 0): 22, (1, 1): 2, (2, 0): 4, (2, 1): 2, (4, 0): 5, (4, 1): 6, (4, 2): 1,
        (6, 0): 2, (6, 1): 4, (6, 2): 2},
    3: {(1, 0): 26, (1, 1): 1, (2, 0): 5, (2, 1): 2, (4, 0): 1, (4, 1): 2, (6, 0): 2,
        (6, 1): 3, (6, 2): 1, (8, 0): 1, (8, 1): 3, (8, 2): 3},
}
# A tree joins the sets workload only if the member runs of all its subtrees
# up to the density horizon add up to at most this many.  Beyond it,
# run-path density grows quadratically and one seeded tree can take longer
# than the rest of a pass, so that the seed, not the code, sets the figures.
# The slowdown is measured by the fixed requests below, which every pass
# makes, and by the density-depth3-h3000 case.
SETS_RUNS_CAP = 512
# Seconds spent in that filter, which is the benchmark's own code; set-up
# time leaves it out.
filter_seconds = 0.0
SETS_HORIZON = 2048
# The measure request of the sets workload counts up to 2^16.  At 2^32
# (combo(dexp(5))) about one tree in seventy has no closed-form count and is
# refused with exit 3 by the enumeration budget; which trees those are is a
# property of the code under test, so a benchmark that counts every exit 3
# as failed cannot ask for it.  Counting far past enumeration is measured
# by the paper workload, whose measures count at 2^64.
SETS_MEASURE = "combo(dexp(4))"
# Seeded pairings run at 2^14 only.  At 2^17 a pairing denser than 1/2 on
# one side leaves its 2^16-pair cache, and how many seeded pairings do so
# would swing the run time from seed to seed; the corpus's
# comp(qswap,pair(...)) leaves the cache at 2^17 on every seed instead.
PERMS_PAIRS = 25

def _corpus():
    return importlib.import_module("densitylab.corpus")


def paper(seed: int) -> list[tuple[str, ...]]:
    corpus = _corpus()
    rng = random.Random(seed)
    reqs = list(README)
    for s in corpus.closed_form_density_corpus():
        e = s.to_expr()
        reqs.append(("density", e, "--horizon", "8192"))
        reqs.extend(("measure", m, e) for m in _MEASURES)
    for a, b in corpus.disjoint_periodic_pairs(PAPER_PAIRS, seed):
        ea, eb = a.to_expr(), b.to_expr()
        reqs.append(("equal", ea, eb, "--horizon", "20000"))
        reqs.append(("measure", rng.choice(_MEASURES), ea))
        reqs.append(("measure", rng.choice(_MEASURES), f"union({ea},{eb})"))
    rng.shuffle(reqs)
    return reqs


def tree_runs(expr: str, horizon: int = SETS_HORIZON) -> int:
    """Member runs up to ``horizon``, summed over every subtree of ``expr``."""
    return sum(oracle.run_count(node, horizon) for node in oracle.subtrees(oracle.parse(expr, "set")))


def stratum(expr: str) -> tuple[int, int]:
    size = sum(1 for _ in oracle.subtrees(oracle.parse(expr, "set")))
    return max(b for b in SETS_SIZES if b <= size), min(expr.count("dexp"), 2)


def sets(seed: int) -> list[tuple[str, ...]]:
    global filter_seconds
    corpus = _corpus()
    rng = random.Random(seed)
    left = {(d, key): k for d, quota in SETS_QUOTA.items() for key, k in quota.items()}
    trees: dict[int, list] = {d: [] for d in SETS_QUOTA}
    depth = 2
    while any(left.values()):
        e = corpus.random_symbolic_set(rng, depth).to_expr()
        start = time.perf_counter()
        key = (depth, stratum(e))
        keep = left.get(key) and tree_runs(e) <= SETS_RUNS_CAP
        filter_seconds += time.perf_counter() - start
        if keep:
            trees[depth].append((key[1], len(trees[depth]), e))
            left[key] -= 1
        depth = 5 - depth
    reqs = []
    for drawn in trees.values():
        ordered = [e for _, _, e in sorted(drawn)]
        for i, e in enumerate(ordered):
            partner = ordered[(i + 1) % len(ordered)]  # of the same depth and (nearly) the same stratum
            reqs.append(("density", e, "--horizon", str(SETS_HORIZON)))
            reqs.append(("measure", SETS_MEASURE, e))
            reqs.append(("equal", e, partner, "--horizon", "20000"))
    reqs.extend(SETS_SLOWDOWNS)
    rng.shuffle(reqs)
    return reqs


def perms(seed: int) -> list[tuple[str, ...]]:
    corpus = _corpus()
    rng = random.Random(seed)
    fixed = [p.to_expr() for _, p in corpus.standard_permutation_corpus()]
    seeded = [f"pair({a.to_expr()},{b.to_expr()})" for a, b in corpus.disjoint_periodic_pairs(PERMS_PAIRS, seed)]
    targets = [s.to_expr() for s in corpus.closed_form_density_corpus()[2:]]
    reqs = []
    for p in fixed + seeded:
        for h in ("16384", "131072") if p in fixed else ("16384",):
            reqs.append(("levy", p, "--horizon", h))
            reqs.append(("statlim", p, "--horizon", h))
            reqs.append(("displacement", p, rng.choice(targets), "--horizon", h))
        reqs.append(("witness", p, "--cap", "16384"))
    rng.shuffle(reqs)
    return reqs


WORKLOADS = {"paper": paper, "sets": sets, "perms": perms}


def digest(reqs) -> str:
    """A short hash of a request list, to show that a seed reproduces it."""
    h = hashlib.sha256()
    for argv in reqs:
        h.update("\x1f".join(argv).encode() + b"\x1e")
    return h.hexdigest()[:16]
