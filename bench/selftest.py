"""Self-test: a tiny run of every workload, untraced and traced.

    python3 bench/selftest.py

Each run must print, as its last line, the result object with exactly the
keys the benchmark contract names, every metric of BENCHMARK.json with its
unit, and no failed op. Exits 1 and names the problem otherwise.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                    "--seed", "20150836", "--seconds", "1", "--trace", str(trace),
                    "--size", "tiny"]
            done = subprocess.run(argv, capture_output=True, text=True, timeout=300,
                                  check=False, cwd=ROOT)
            label = f"{workload} trace={trace}"
            if done.returncode != 0:
                problems.append(f"{label}: exit {done.returncode}: {done.stderr.strip()}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{label}: result keys {sorted(result)}")
                continue
            got = {name: m.get("unit") for name, m in result["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{label}: metrics/units differ: missing "
                                f"{sorted(set(wanted[trace]) - set(got))}, extra "
                                f"{sorted(set(got) - set(wanted[trace]))}, units "
                                f"{[k for k in got if k in wanted[trace] and got[k] != wanted[trace][k]]}")
            if not all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
                problems.append(f"{label}: a metric value is not a number")
            if result["failed"] != 0 or not result["correct"] or result["attempted"] < 1:
                failures = [line for line in done.stdout.splitlines() if line.startswith("FAILED")]
                problems.append(f"{label}: {result['failed']} of {result['attempted']} ops "
                                f"failed: {failures}")
            print(f"{label}: {result['attempted']} ops, {len(got)} metrics", flush=True)
    for problem in problems:
        print("SELFTEST FAILED", problem)
    if not problems:
        print("selftest passed: every metric printed with its unit, fail_ratio 0")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
