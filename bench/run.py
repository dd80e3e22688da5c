"""Benchmark of the clonality package: one workload per process, or all of them.

    python3 bench/run.py --workload case-exact --seed 20150836 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seconds 25

With ``--trace 0`` the run measures the end-to-end metrics: set-up time,
units of work per second, median and tail op time, CPU per unit, peak RSS
and the share of ops whose output checked out. Throughput, median and CPU
describe the typical cycle (see ``typical_cycle``); the tail is taken over
all ops. With ``--trace 1`` it wraps
the public functions of every module (see ``tracing.py``), runs a fixed
number of cycles, each traced and then untraced, and reports per-layer busy
time, self time and work counts plus the tracing overhead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The full record, with the
environment, every op and (traced) every span, goes to ``bench/results/``.
The package is imported from ``src/`` of the checkout this file sits in;
without it the run exits with code 2.
"""

import time

# set-up time runs from here, before any other import
T0 = time.perf_counter()

import argparse
import json
import math
import os
import platform
import resource
import shutil
import socket
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
WORK = BENCH / "_work"
WORKLOAD_NAMES = ("case-exact", "cohort-mc", "sim-study")
DEFAULT_SEED = 20150836
SETUP_REPEATS = 6  # set-up runs in child processes, on top of the run's own
TAIL_BEYOND = 10   # the tail percentile keeps at least this many samples above it

END_TO_END_UNITS = {
    "setup_s": "s", "units_per_s": "units/s", "op_p50_s": "s", "op_tail_s": "s",
    "cpu_per_unit_ms": "ms", "peak_rss_mb": "MB", "ok_ratio": "ratio",
}


def fail(message: str):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    """Import clonality from this checkout's src/, or exit with code 2."""
    if not (SRC / "clonality" / "__init__.py").is_file():
        fail(f"no package at {SRC / 'clonality'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import clonality

    if Path(clonality.__file__).resolve().parent != SRC / "clonality":
        fail(f"imported clonality from {clonality.__file__}, not {SRC}")
    import workloads

    return workloads


def set_up(workload_name: str, seed: int, size: str, workdir: Path):
    """Import the package, generate the workload from its seed, write its inputs."""
    workloads = import_package()
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    workload = workloads.WORKLOADS[workload_name](seed, size, workdir)
    workload.setup()
    return workload


def run_op(op) -> dict:
    """Time one op, then check its output outside the timed region."""
    cpu0, t0 = time.process_time(), time.perf_counter()
    try:
        output = op.run()
        error = None
    except Exception as exc:  # a raising op is a failed op, not a failed benchmark
        output, error = None, f"{type(exc).__name__}: {exc}"
    wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    if error is None:
        try:
            error = op.check(output)
        except Exception as exc:  # unparseable output is a wrong output
            error = f"check raised {type(exc).__name__}: {exc}"
    return {"kind": op.kind, "units": op.units, "wall_s": wall, "cpu_s": cpu, "error": error}


def planned_cycles(workload, seconds: float) -> int:
    """Cycles that take about ``seconds`` at the seed code's speed.

    A run does a fixed amount of work rather than stopping on the clock, so
    every run at one ``--seconds`` has the same ops: the tail percentile then
    falls on the same op of the cycle, and a faster program is measured on
    the same work as a slower one.
    """
    return max(1, round(seconds / workload.nominal_cycle_s))


def run_cycles(workload, first: int, count: int, tracer=None, limit_s=math.inf) -> list[dict]:
    """Run ``count`` whole cycles from cycle ``first``; start none after ``limit_s``."""
    records, start = [], time.perf_counter()
    for c in range(first, first + count):
        if time.perf_counter() - start >= limit_s:
            break
        for slot, op in enumerate(workload.cycle(c)):
            if tracer is None:
                record = run_op(op)
            else:
                with tracer.op():
                    record = run_op(op)
            records.append(dict(record, cycle=c, slot=slot))
    return records


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(values)
    index = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[index], 100.0 * index / len(ordered)


def typical_cycle(records: list[dict]) -> list[tuple[float, float, int]]:
    """(wall, cpu, units) of each slot of the cycle, medians over the run's cycles.

    A run's cycles repeat the same slots, so the medians discard the warm-up
    of the first cycle and the stalls a shared host adds to a few ops. The
    median op of this cycle is its upper median, an op time that occurs:
    with an even slot count the mean of the two middle slots can fall in a
    gap between a cluster of small ops and one of larger ops, and small ops
    vary most from run to run on a shared host.
    """
    slots = defaultdict(list)
    for r in records:
        slots[r["slot"]].append(r)
    return [(statistics.median(r["wall_s"] for r in group),
             statistics.median(r["cpu_s"] for r in group), group[0]["units"])
            for _, group in sorted(slots.items())]


def end_to_end(records: list[dict], setups: list[float], peak_rss_mb: float, checks: list[dict]):
    cycle = typical_cycle(records)
    cycle_wall = sum(wall for wall, _, _ in cycle)
    cycle_units = sum(units for _, _, units in cycle)
    walls = [r["wall_s"] for r in records]
    attempted = len(records) + len(checks)
    failed = sum(r["error"] is not None for r in records + checks)
    tail_s, tail_pct = tail(walls)
    metrics = {
        "setup_s": statistics.median(setups),
        "units_per_s": cycle_units / cycle_wall,
        "op_p50_s": statistics.median_high(wall for wall, _, _ in cycle),
        "op_tail_s": tail_s,
        "cpu_per_unit_ms": 1000.0 * sum(cpu for _, cpu, _ in cycle) / cycle_units,
        "peak_rss_mb": peak_rss_mb,
        "ok_ratio": (attempted - failed) / attempted,
    }
    detail = {
        "ops": len(records), "cycles": len(records) // len(cycle),
        "units": sum(r["units"] for r in records), "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted,
        "raw_units_per_s": sum(r["units"] for r in records) / sum(walls),
        "raw_op_p50_s": statistics.median(walls),
        "op_tail_percentile": tail_pct,
        "op_tail_samples_beyond": len(walls) - 1 - max(0, len(walls) - TAIL_BEYOND - 1),
        "setup_samples_s": setups,
    }
    return metrics, detail


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def child_setups(args) -> list[float]:
    """Set-up time of SETUP_REPEATS fresh processes, each from its start to ready."""
    times = []
    for i in range(SETUP_REPEATS):
        workdir = WORK / f"{args.workload}-{os.getpid()}-setup{i}"
        done = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-only", "--workload", args.workload,
             "--seed", str(args.seed), "--size", args.size, "--work", str(workdir)],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up child failed: {done.stderr.strip()}")
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def git_commit():
    """HEAD of the checkout, read from .git without running git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy

    src_files = sorted((SRC / "clonality").rglob("*.py"))
    return {
        "host": socket.gethostname(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "src_clonality_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                                   for p in src_files),
    }


def print_end_to_end(name: str, metrics: dict, detail: dict) -> None:
    print(f"== {name}: end to end ==")
    for key, value in metrics.items():
        extra = ""
        if key == "op_tail_s":
            extra = (f"  (p{detail['op_tail_percentile']:.1f}, {detail['ops']} samples, "
                     f"{detail['op_tail_samples_beyond']} beyond)")
        elif key == "ok_ratio":
            extra = (f"  (fail_ratio {detail['fail_ratio']:.4g} = {detail['failed']} failed"
                     f" / {detail['attempted']} attempted)")
        elif key == "setup_s":
            extra = f"  (median of {len(detail['setup_samples_s'])} set-ups)"
        elif key in ("units_per_s", "op_p50_s", "cpu_per_unit_ms"):
            raw = {"units_per_s": "raw_units_per_s", "op_p50_s": "raw_op_p50_s"}.get(key)
            extra = f"  (typical cycle of {detail['cycles']} cycles"
            extra += f"; over all ops {detail[raw]:.6g})" if raw else ")"
        print(f"  {key:<18}{value:>14.6g} {END_TO_END_UNITS[key]:<8}{extra}")


def run_workload(args) -> int:
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        workload = set_up(args.workload, args.seed, args.size, workdir)
        setup_s = time.perf_counter() - T0
        if args.trace:
            result, record = traced_run(workload, args)
        else:
            result, record = untraced_run(workload, args, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record.update({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "size": args.size, "environment": environment()})
    with open(result_path(args, ".json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
    print(json.dumps(result))
    return 0


def result_path(args, suffix: str) -> Path:
    RESULTS.mkdir(parents=True, exist_ok=True)
    return RESULTS / f"{args.workload}_seed{args.seed}_trace{args.trace}_{args.size}{suffix}"


def untraced_run(workload, args, setup_s: float):
    # the limit keeps a much slower program inside the run's time budget
    records = run_cycles(workload, 0, planned_cycles(workload, args.seconds),
                         limit_s=2.0 * args.seconds)
    rss = peak_rss_mb()
    checks = [run_op(op) for op in workload.check_ops()]
    setups = [setup_s] + child_setups(args)
    metrics, detail = end_to_end(records, setups, rss, checks)
    print_end_to_end(args.workload, metrics, detail)
    print_failures(records + checks)
    result = {
        "correct": detail["failed"] == 0, "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
    }
    return result, {"metrics": metrics, "detail": detail, "ops": records, "checks": checks}


def traced_run(workload, args):
    """Each cycle once traced, then once untraced on the same inputs for the overhead.

    Two runs at one seed and ``--seconds`` trace the same ops, so their counts
    repeat exactly.
    """
    import tracing

    cycles = planned_cycles(workload, args.seconds / 2.0)
    tracer = tracing.Tracer()
    traced, plain = [], []
    for c in range(cycles):
        tracer.install()
        try:
            traced += run_cycles(workload, c, count=1, tracer=tracer)
        finally:
            tracer.uninstall()
        plain += run_cycles(workload, c, count=1)
    checks = [run_op(op) for op in workload.check_ops()]

    def rate(records):
        return sum(r["units"] for r in records) / sum(r["wall_s"] for r in records)

    metrics, rows = tracing.layer_metrics(tracer.spans)
    metrics["trace.overhead_pct"] = 100.0 * (1.0 - rate(traced) / rate(plain))
    everything = traced + plain + checks
    failed = sum(r["error"] is not None for r in everything)
    print(f"== {args.workload}: per layer, {cycles} traced cycles ==")
    print(tracing.report(metrics, rows, tracer.missing))
    print(f"tracing overhead {metrics['trace.overhead_pct']:.2f}% of units_per_s "
          f"({rate(traced):.6g} traced vs {rate(plain):.6g} untraced units/s)")
    print_failures(everything)
    units = load_layer_units()
    result = {
        "correct": failed == 0, "attempted": len(everything), "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in units.items()},
    }
    tracer.write(result_path(args, ".spans.jsonl"))
    record = {"metrics": metrics, "spans_by_name": rows, "missing": tracer.missing,
              "ops": traced + plain, "checks": checks}
    return result, record


def load_layer_units() -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)["per_layer"]}


def print_failures(records: list[dict]) -> None:
    for r in records:
        if r["error"] is not None:
            print(f"FAILED {r['kind']}: {r['error']}")


def run_all(args) -> int:
    """Each workload in its own process; one table of every end-to-end metric."""
    summary, ok = {}, True
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size],
            capture_output=True, text=True, timeout=900, check=False,
        )
        sys.stdout.write(done.stdout.rsplit("\n", 2)[0] + "\n")
        if done.returncode != 0:
            print(f"{name}: exit {done.returncode}: {done.stderr.strip()}")
            return done.returncode
        summary[name] = json.loads(done.stdout.strip().splitlines()[-1])
        ok &= summary[name]["correct"]
    print(f"{'workload':<12}{'metric':<34}{'value':>14}  unit")
    for name, result in summary.items():
        for key, metric in result["metrics"].items():
            print(f"{name:<12}{key:<34}{metric['value']:>14.6g}  {metric['unit']}")
        print(f"{name:<12}{'attempted / failed':<34}{result['attempted']:>8} / {result['failed']}")
    RESULTS.mkdir(parents=True, exist_ok=True)
    with open(RESULTS / f"all_seed{args.seed}_trace{args.trace}_{args.size}.json", "w",
              encoding="utf-8") as handle:
        json.dump({"environment": environment(), "workloads": summary}, handle, indent=2)
    print(json.dumps({
        "correct": ok,
        "attempted": sum(r["attempted"] for r in summary.values()),
        "failed": sum(r["failed"] for r in summary.values()),
        "metrics": {f"{name}.{k}": m for name, r in summary.items()
                    for k, m in r["metrics"].items()},
    }))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="size of the timed phase: the whole cycles that take about "
                             "this long on the seed code")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every op for the self-test")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--work", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.setup_only:
        try:
            set_up(args.workload, args.seed, args.size, args.work)
            print(time.perf_counter() - T0)
        finally:
            shutil.rmtree(args.work, ignore_errors=True)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
