"""Record the benchmark's medians over repeated runs in ``BENCH_<n>.json``, outside ``bench/``.

    python3 tools/bench_record.py 47
    python3 tools/bench_record.py 47 --out /tmp/BENCH_47.json

Runs ``bench/run.py --workload all --trace 0`` ``RUNS`` (5) times, each in
its own process through ``tools/ab_bench.py``'s ``run_bench`` at its default
seed and window (``ab_bench.SEED``, ``ab_bench.SECONDS``), so every record
is made alike, and records, per workload, each end-to-end metric's median
over the runs next to every run's value. The environment goes with them: the
commit (``-dirty`` after it when tracked files differ from it), nproc and
the usable CPUs, the Python and numpy versions, numpy's BLAS and its default
thread count (the CLI itself runs on one), numpy's dispatch targets (as
``tools/pinned_outputs.py`` names them in its header) and the
``tools/src_lines.py`` totals of ``src/clonality``. The file is written at
the repository's root unless ``--out`` names another path; the tool writes
nothing under ``bench/``, where ``bench/run.py`` keeps its own results.
Speed claims still come from alternating pairs (``tools/ab_bench.py``);
these files give the trajectory.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 5
sys.path[:0] = [str(ROOT / "tools"), str(ROOT / "src")]

import ab_bench  # noqa: E402
import numpy as np  # noqa: E402
import pinned_outputs  # noqa: E402
import src_lines  # noqa: E402
from clonality._blas import _openblas  # noqa: E402


def commit() -> str | None:
    """The checkout's HEAD commit, ``-dirty`` after it if tracked files differ; None where git cannot say."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=False).stdout.strip()

    head = git("rev-parse", "HEAD")
    if not head:
        return None
    return head + ("-dirty" if git("status", "--porcelain", "--untracked-files=no") else "")


def environment() -> dict:
    """Where the runs ran: commit, CPUs, versions, BLAS threads, dispatch targets, source lines."""
    blas, openblas = pinned_outputs.blas_build(), _openblas()
    lines = code = 0
    for module in sorted((ROOT / "src" / "clonality").glob("*.py")):
        module_lines, module_code = src_lines.counts(module.read_text(encoding="utf-8"))
        lines, code = lines + module_lines, code + module_code
    return {
        "commit": commit(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}",
        "blas_threads": None if openblas is None else openblas[0](),
        "numpy_targets": pinned_outputs.dispatch_targets(),
        "src_clonality_lines": lines,
        "src_clonality_code_lines": code,
    }


def medians(runs: list[dict]) -> dict:
    """Per workload and metric, ``{"median", "runs"}`` of ``run_bench``'s ``workload.metric`` values."""
    table = {}
    for name in runs[0]:
        workload, metric = name.split(".", 1)
        values = [run[name] for run in runs]
        table.setdefault(workload, {})[metric] = {"median": statistics.median(values), "runs": values}
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("number", type=int, help="n of BENCH_<n>.json")
    parser.add_argument("--out", type=Path, help="output path (default: BENCH_<n>.json at the root)")
    args = parser.parse_args(argv)
    bench = argparse.Namespace(seed=ab_bench.SEED, seconds=ab_bench.SECONDS)
    runs = []
    for k in range(RUNS):
        runs.append(ab_bench.run_bench(ROOT, "all", bench))
        print(f"run {k + 1}/{RUNS} done", file=sys.stderr)
    record = {
        "bench": args.number,
        "command": f"bench/run.py --workload all --seed {bench.seed} --seconds {bench.seconds:g} --trace 0",
        "runs": RUNS,
        "environment": environment(),
        "workloads": medians(runs),
    }
    out = args.out or ROOT / f"BENCH_{args.number}.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
