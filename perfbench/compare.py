#!/usr/bin/env python3
"""Compares two sets of benchmark runs, per workload and end-to-end metric.

    python3 perfbench/compare.py BASE... --head HEAD...

BASE and HEAD are run records written by run.py (files, or directories
searched for *.json; traced runs are skipped). For each workload and metric
it prints both sides' median and quartiles and a verdict against the bound
in BENCHMARK.json:

  worse       the head median is worse than the base median by more than
              the bound
  better      the head median is better by more than the base's own
              quartile spread
  same        neither of the above
  unresolved  either side's quartile spread exceeds the bound, so a change
              of the bound's size cannot be seen; "better" or "worse"
              instead when every head run beats (or trails) every base run

Exits 1 when any verdict is "worse". Standard library only.
"""

import argparse
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import benchlib  # noqa: E402


def load_runs(paths):
    """workload -> metric -> list of values, from untraced run records."""
    files = []
    for path in map(pathlib.Path, paths):
        files += sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs = {}
    for f in files:
        record = json.loads(f.read_text())
        if record.get("trace") != 0 or "workload" not in record:
            continue
        metrics = runs.setdefault(record["workload"], {})
        for name, entry in record["metrics"].items():
            metrics.setdefault(name, []).append(entry["value"])
    return runs


def verdict(base, head, better, bound):
    """The verdict for one metric; see the module docstring."""
    sign = 1.0 if better == "higher" else -1.0
    _, base_med, _ = benchlib.quartiles(base)
    _, head_med, _ = benchlib.quartiles(head)
    gain = sign * (head_med - base_med) / abs(base_med)
    if max(benchlib.relative_spread(base),
           benchlib.relative_spread(head)) > bound:
        if all(sign * h > sign * b for h in head for b in base):
            return "better"
        if all(sign * h < sign * b for h in head for b in base):
            return "worse"
        return "unresolved"
    if gain < -bound:
        return "worse"
    if gain > benchlib.relative_spread(base):
        return "better"
    return "same"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", nargs="+", help="base run records")
    parser.add_argument("--head", nargs="+", required=True,
                        help="head run records")
    args = parser.parse_args()

    base_runs = load_runs(args.base)
    head_runs = load_runs(args.head)
    header = (f"{'workload':12} {'metric':18} {'n':>5} "
              f"{'base q1/med/q3':>32} {'head q1/med/q3':>32} "
              f"{'change':>8} verdict")
    print(header)
    worse = False
    for workload in sorted(set(base_runs) | set(head_runs)):
        for name, (_, better, bound) in benchlib.END_TO_END.items():
            base = base_runs.get(workload, {}).get(name)
            head = head_runs.get(workload, {}).get(name)
            if not base or not head:
                print(f"{workload:12} {name:18} missing on "
                      f"{'base' if not base else 'head'}")
                continue
            bq = benchlib.quartiles(base)
            hq = benchlib.quartiles(head)
            v = verdict(base, head, better, bound)
            worse |= v == "worse"
            fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
            print(f"{workload:12} {name:18} {len(base):>2}/{len(head):<2} "
                  f"{fmt(bq):>32} {fmt(hq):>32} "
                  f"{(hq[1] - bq[1]) / abs(bq[1]):>+8.1%} {v} "
                  f"(bound {bound:.0%})")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
