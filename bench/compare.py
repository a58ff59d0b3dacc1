"""Compare two sets of benchmark runs.

    python3 bench/compare.py A.json B.json

Each argument is a file written by ``bench/run.py --out``, or
``FILE:KEY`` for a set stored under ``KEY`` of a larger file (for example
``bench/baseline.json:a``).  A is the reference (the parent commit), B the
candidate.  For every workload and end-to-end metric the report gives
both sides' median, quartiles and run count, and one verdict against the
metric's bound from ``BENCHMARK.json``:

* ``improved``   -- B beats A in at least 9 of every 10 runs paired by
  seed (10 pairs at least), and the medians differ by more than A's
  inter-quartile distance;
* ``regressed``  -- B's median is worse than A's by more than the bound;
* ``unresolved`` -- either side's spread (inter-quartile distance over
  median) is wider than the bound, unless every B run beats every A run;
* ``unchanged``  -- none of the above.

It also checks that B fails no larger share of its operations than A,
that every output digest agrees for the same workload and seed (and
across the three Fig. 8 workloads, which compute the same thing), and
prints the per-layer medians side by side when both sets hold traced
runs.  Exit status 0 means nothing regressed, nothing is unresolved and
every digest agrees.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
#: Workloads that compute the same Fig. 8 outputs and so must agree.
SAME_OUTPUT = ("fig08_serial", "fig08_warm", "fig08_process")


def load_runs(arg: str) -> List[Dict[str, object]]:
    path, _, key = arg.partition(":")
    with open(path) as f:
        doc = json.load(f)
    if key:
        doc = doc[key]
    return doc["runs"]


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: List[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def verdict(
    a: List[Tuple[int, float]], b: List[Tuple[int, float]], better: str, bound: float
) -> str:
    """The verdict for one metric; ``a``/``b`` are (seed, value) runs."""

    def beats(x: float, y: float) -> bool:
        return x < y if better == "lower" else x > y

    va, vb = [v for _, v in a], [v for _, v in b]
    ma, mb = statistics.median(va), statistics.median(vb)
    by_seed = dict(a)
    pairs = [(by_seed[s], v) for s, v in b if s in by_seed] or list(zip(va, vb))
    wins = sum(beats(y, x) for x, y in pairs)
    q1a, _, q3a = quartiles(va)
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and abs(mb - ma) > q3a - q1a:
        return "improved"
    if max(spread(va), spread(vb)) > bound:
        return "unchanged" if all(beats(y, x) for y in vb for x in va) else "unresolved"
    if ma == 0:
        return "unchanged" if mb == 0 or beats(mb, ma) else "regressed"
    worse = (mb - ma) / abs(ma) if better == "lower" else (ma - mb) / abs(ma)
    return "regressed" if worse > bound else "unchanged"


def check_digests(runs: List[Dict[str, object]], side: str) -> List[str]:
    """Digest disagreements within one set of runs."""
    seen: Dict[Tuple[str, int], str] = {}
    problems = []
    for r in runs:
        digest = r.get("digest")
        if not digest:
            continue
        group = "fig08" if r["workload"] in SAME_OUTPUT else r["workload"]
        key = (group, r["seed"])
        if seen.setdefault(key, digest) != digest:
            problems.append(f"{side}: {r['workload']} seed {r['seed']} digest differs from its {group} peers")
    return problems


def compare(a_runs: List[Dict[str, object]], b_runs: List[Dict[str, object]]) -> int:
    declaration = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_digests(a_runs, "A") + check_digests(b_runs, "B")
    for r in b_runs:
        match = next(
            (x for x in a_runs if x["workload"] == r["workload"] and x["seed"] == r["seed"] and x.get("digest")),
            None,
        )
        if match and r.get("digest") and match["digest"] != r["digest"]:
            problems.append(f"{r['workload']} seed {r['seed']}: digest A {match['digest'][:12]} != B {r['digest'][:12]}")
    for side, runs in (("A", a_runs), ("B", b_runs)):
        for r in runs:
            if "error" in r:
                problems.append(f"{side}: {r['workload']} seed {r['seed']} did not run: {r['error'].splitlines()[0]}")

    def by_workload(runs, trace):
        out = defaultdict(list)
        for r in runs:
            if "error" not in r and r["trace"] == trace:
                out[r["workload"]].append(r)
        return out

    a_plain, b_plain = by_workload(a_runs, 0), by_workload(b_runs, 0)
    bad = 0
    print(f"{'workload':<16} {'metric':<12} {'A median [q1, q3] (n)':<34} {'B median [q1, q3] (n)':<34} {'change':>8}  verdict")
    for w in declaration["workloads"]:
        name = w["name"]
        a, b = a_plain.get(name, []), b_plain.get(name, [])
        if not a or not b:
            continue
        for m in declaration["end_to_end"]:
            va = [(r["seed"], r["metrics"][m["name"]]["value"]) for r in a]
            vb = [(r["seed"], r["metrics"][m["name"]]["value"]) for r in b]
            v = verdict(va, vb, m["better"], m["bound"])
            bad += v in ("regressed", "unresolved")
            qa, qb = quartiles([x for _, x in va]), quartiles([x for _, x in vb])
            change = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
            print(
                f"{name:<16} {m['name']:<12} "
                f"{_fmt(qa, len(va)):<34} {_fmt(qb, len(vb)):<34} {change:>+8.1%}  {v}"
                + (f" (bound {m['bound']:.0%})" if v in ("regressed", "unresolved") else "")
            )
        fa = sum(r["failed"] for r in a) / max(1, sum(r["attempted"] for r in a))
        fb = sum(r["failed"] for r in b) / max(1, sum(r["attempted"] for r in b))
        if fb > fa:
            problems.append(f"{name}: B fails {fb:.2%} of operations, A {fa:.2%}")

    a_traced, b_traced = by_workload(a_runs, 1), by_workload(b_runs, 1)
    if a_traced and b_traced:
        print("\nper-layer medians (traced runs), A -> B:")
        for w in declaration["workloads"]:
            a, b = a_traced.get(w["name"], []), b_traced.get(w["name"], [])
            if not a or not b:
                continue
            for m in declaration["per_layer"]:
                ma = statistics.median(r["metrics"][m["name"]]["value"] for r in a)
                mb = statistics.median(r["metrics"][m["name"]]["value"] for r in b)
                if ma or mb:
                    print(f"  {w['name']:<16} {m['name']:<34} {ma:>14.6g} -> {mb:<14.6g} {m['unit']}")

    for p in problems:
        print("PROBLEM:", p)
    print(f"\n{bad} metric(s) regressed or unresolved, {len(problems)} other problem(s)")
    return 1 if bad or problems else 0


def _fmt(q: Tuple[float, float, float], n: int) -> str:
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}] ({n})"


def main(argv: Optional[List[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    return compare(load_runs(args[0]), load_runs(args[1]))


if __name__ == "__main__":
    sys.exit(main())
