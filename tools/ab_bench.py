"""Compare two checkouts on benchmark workloads in alternating pairs of runs.

    python3 tools/ab_bench.py PARENT CHANGE --workload cohort-mc --pairs 10 --seconds 25
    python3 tools/ab_bench.py PARENT CHANGE --workload all

Each pair runs ``bench/run.py --workload W --seed S --seconds T --trace 0``
once in each checkout, in its own process, with the order alternating from
pair to pair (the parent first in pair 0). For every end-to-end metric the
last stdout line reports, it prints both sides' quartiles, the number of
pairs the change wins (better in the direction ``BENCHMARK.json`` gives; a
tie is not a win), whether the gain rule holds and whether the change is
worse beyond the metric's bound (see ``verdict``). ``--workload all`` runs
every workload the change's ``BENCHMARK.json`` names, in its order, and
prints one table per workload. Standard library only; exit code 2 when a
run fails.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path


def run_bench(checkout: Path, workload: str, args) -> dict:
    """End-to-end metric values of one untraced run of ``workload`` in ``checkout``."""
    done = subprocess.run(
        [sys.executable, str(checkout / "bench" / "run.py"), "--workload", workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
        capture_output=True, text=True, check=False, cwd=checkout,
    )
    if done.returncode != 0:
        print(f"error: {checkout}: exit {done.returncode}: {done.stderr.strip()}", file=sys.stderr)
        sys.exit(2)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float,
            fails_more: bool = False) -> tuple[int, bool, bool]:
    """``(wins, gain, worse)`` of one metric over paired runs, pair k being ``parent[k], change[k]``.

    A pair is a win when the change is strictly better in the direction
    ``better`` ("higher" or "lower"). ``gain``: the change wins at least 9
    pairs in 10, its median is better than the parent's by more than the
    parent's interquartile range, and it does not fail more operations
    (``fails_more``: its median ``ok_ratio`` is below the parent's).
    ``worse``: its median is worse than the parent's by more than ``bound``
    times the parent's median, the rule ``BENCHMARK.json``'s bounds set.
    """
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    (p1, pm, p3), (_, cm, _) = quartiles(parent), quartiles(change)
    gain = (not fails_more and wins >= math.ceil(0.9 * len(parent))
            and sign * (cm - pm) > p3 - p1)
    worse = sign * (pm - cm) > bound * pm
    return wins, gain, worse


def compare(workload: str, metrics: dict, args) -> None:
    """Run ``args.pairs`` alternating pairs of ``workload`` and print its table."""
    runs = {"parent": [], "change": []}
    for k in range(args.pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_bench(getattr(args, side), workload, args))
        print(f"{workload} pair {k + 1}/{args.pairs}: " + ", ".join(
            f"{side} {runs[side][-1].get('units_per_s', math.nan):.6g}" for side in order)
            + " units/s", file=sys.stderr)
    print(f"workload {workload}, seed {args.seed}, --seconds {args.seconds:g}, "
          f"{args.pairs} alternating pairs")
    print(f"{'metric':<16}{'parent q1 / median / q3':>34}{'change q1 / median / q3':>34}"
          f"{'wins':>8}  gain  worse")
    ok = {side: statistics.median(r["ok_ratio"] for r in runs[side]) for side in runs}
    for name in runs["parent"][0]:
        if name not in metrics:
            continue
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        wins, gain, worse = verdict(parent, change, metrics[name]["better"], metrics[name]["bound"],
                                    fails_more=ok["change"] < ok["parent"])
        (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
        print(f"{name:<16}{f'{p1:.4g} / {pm:.4g} / {p3:.4g}':>34}{f'{c1:.4g} / {cm:.4g} / {c3:.4g}':>34}"
              f"{f'{wins}/{args.pairs}':>8}  {'yes' if gain else 'no':<4}  {'yes' if worse else 'no'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--seed", type=int, default=20150836)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    with open(args.change / "BENCHMARK.json", encoding="utf-8") as handle:
        benchmark = json.load(handle)
    metrics = {m["name"]: m for m in benchmark["end_to_end"]}
    workloads = [w["name"] for w in benchmark["workloads"]] if args.workload == "all" else [args.workload]
    for k, workload in enumerate(workloads):
        if k:
            print()
        compare(workload, metrics, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
