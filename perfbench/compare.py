"""Compare two sets of benchmark runs.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds the lines ``perfbench/run.py --out`` appended.  For every
workload and end-to-end metric the table gives each side's median and
quartiles (``statistics.quantiles(values, n=4)``), each side's failed and
attempted commands, and a verdict under the metric's bound from
BENCHMARK.json:

* ``worse (failures)``: the change fails a larger share of its commands
  than the base; no time it saves counts;
* ``better``: the change wins at least 9 of 10 pairs (i-th run against
  i-th run, ties count for neither side) and its median beats the base's
  by more than the base's interquartile distance;
* ``worse``: the change's median is worse than the base's by more than
  the bound;
* ``unresolved``: either side's interquartile distance exceeds the bound
  (as a share of its median), unless every change run beats, or loses
  to, every base run;
* ``unchanged``: otherwise.

Traced runs (``--trace 1``) add the per-layer medians and their deltas.
Comparing a set with itself gives its medians and quartiles alone.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> dict[tuple[str, int], list[dict]]:
    runs = defaultdict(list)
    with open(path) as handle:
        for line in handle:
            if line.strip():
                entry = json.loads(line)
                runs[entry["workload"], entry["trace"]].append(entry)
    return runs


def values(entries: list[dict], metric: str) -> list[float]:
    return [e["result"]["metrics"][metric]["value"] for e in entries]


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def verdict(base: list[float], change: list[float], bound: float, lower_is_better: bool) -> str:
    sign = 1.0 if lower_is_better else -1.0

    def gain(a: float, b: float) -> float:  # > 0 when b is better than a
        return sign * (a - b)

    (b1, mb, b3), (c1, mc, c3) = quartiles(base), quartiles(change)
    if max((b3 - b1) / abs(mb), (c3 - c1) / abs(mc)) > bound:
        if all(gain(a, b) > 0 for a in base for b in change):
            return "better"
        if all(gain(a, b) < 0 for a in base for b in change):
            return "worse"
        return "unresolved"
    pairs = list(zip(base, change))
    wins = sum(1 for a, b in pairs if gain(a, b) > 0)
    if wins >= 0.9 * len(pairs) and gain(mb, mc) > b3 - b1:
        return "better"
    if -gain(mb, mc) > bound * abs(mb):
        return "worse"
    return "unchanged"


def _fmt(q: tuple[float, float, float]) -> str:
    return f"{q[1]:>11.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def failures(entries: list[dict]) -> tuple[int, int]:
    """Failed and attempted commands over a set of runs."""
    return (sum(e["result"]["failed"] for e in entries), sum(e["result"]["attempted"] for e in entries))


def fails_more(base: tuple[int, int], change: tuple[int, int]) -> bool:
    return change[0] * base[1] > base[0] * change[1]


def compare(base: dict, change: dict, spec: dict) -> None:
    print(f"{'workload':<11} {'metric':<12} {'base median [q1, q3]':>34} {'change median [q1, q3]':>34}"
          f"  {'failed/attempted':>17}  verdict")
    for workload in sorted({w for w, t in base if t == 0} & {w for w, t in change if t == 0}):
        a, b = base[workload, 0], change[workload, 0]
        fa, fb = failures(a), failures(b)
        for m in spec["end_to_end"]:
            va, vb = values(a, m["name"]), values(b, m["name"])
            v = "worse (failures)" if fails_more(fa, fb) else verdict(va, vb, m["bound"], m["better"] == "lower")
            print(f"{workload:<11} {m['name']:<12} {_fmt(quartiles(va)):>34} {_fmt(quartiles(vb)):>34}"
                  f"  {f'{fa[0]}/{fa[1]} {fb[0]}/{fb[1]}':>17}  {v}"
                  f"  (n={len(va)}/{len(vb)}, bound {m['bound']:.0%})")
    for workload in sorted({w for w, t in base if t == 1} & {w for w, t in change if t == 1}):
        a, b = base[workload, 1], change[workload, 1]
        print(f"\n[{workload}] per-layer medians from traced runs (n={len(a)}/{len(b)})")
        for m in spec["per_layer"]:
            ma, mb = statistics.median(values(a, m["name"])), statistics.median(values(b, m["name"]))
            if ma or mb:
                rel = f"{(mb - ma) / ma:+.1%}" if ma else "new"
                print(f"  {m['name']:<55} {ma:>12.5g} -> {mb:<12.5g} {mb - ma:+.4g} {m['unit']} ({rel})")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="compare two sets of perfbench runs")
    parser.add_argument("base")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    compare(load(args.base), load(args.change), json.loads(BENCHMARK.read_text()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
