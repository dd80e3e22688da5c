"""Replay one package function's calls from a benchmark workload on two checkouts in one process.

    python3 tools/ab_calls.py PARENT CHANGE --workload case-exact --call inference.conditional_exceeds
    python3 tools/ab_calls.py PARENT CHANGE --workload cohort-mc --call inference.conditional_exceeds --cycles 4 --passes 15
    python3 tools/ab_calls.py PARENT CHANGE --workload cohort-mc --call cli.read_probability_file --cycles 1

Whole benchmark runs in separate processes (``tools/ab_bench.py``) spread
by several percent on a shared host, more than a change to one function
may move. This tool runs ``--cycles`` cycles of the workload once, in a
child process on PARENT's ``src/`` and ``bench/``, with ``MODULE.NAME``
replaced in every ``clonality`` module that holds it by a wrapper that
pickles each call's arguments. The workload's input files stay on disk
until the replay ends, so a call that takes a file's path (a reader) can
be replayed. It then imports both checkouts' packages
in one process under distinct names and replays every recorded call on
each side inside ``one_blas_thread``, ``--passes`` times, alternating which
side goes first. It prints the minimum, lower quartile and median of each
side's ``time.process_time`` per pass, and whether every output of the
change is ``==`` the parent's (NaN equal to NaN). Standard library and
numpy only; exit code 2 when an output differs or a run fails.
"""

import argparse
import dataclasses
import importlib
import importlib.util
import io
import pickle
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")


def record(checkout: Path, workload: str, call: str, cycles: int, seed: int, work: Path) -> list[bytes]:
    """The pickled ``(args, kwargs)`` of every ``call`` in ``cycles`` cycles of ``workload``.

    The workload writes its input files into ``work``, which must outlive
    the replay of calls that take their paths. Imports ``clonality`` from
    ``checkout``'s ``src/`` as the process's own package, so it runs in a
    child process (see ``main``).
    """
    sys.path[:0] = [str(checkout / "src"), str(checkout / "bench")]
    import clonality
    import workloads

    if Path(clonality.__file__).resolve().parent != (checkout / "src" / "clonality").resolve():
        raise RuntimeError(f"imported clonality from {clonality.__file__}, not {checkout / 'src'}")
    module_name, name = call.rsplit(".", 1)
    target = getattr(importlib.import_module(f"clonality.{module_name}"), name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(pickle.dumps((args, kwargs)))
        return target(*args, **kwargs)

    bench = workloads.WORKLOADS[workload](seed, "full", work)
    bench.setup()
    for module in list(sys.modules.values()):
        if module.__name__.split(".")[0] == "clonality" and getattr(module, name, None) is target:
            setattr(module, name, wrapper)
    for c in range(cycles):
        for op in bench.cycle(c):
            error = op.check(op.run())
            if error is not None:
                raise RuntimeError(f"{workload} cycle {c}, op {op.kind}: {error}")
    return calls


def record_in_child(args, path: Path) -> bool:
    """Record ``args.call``'s calls on ``args.parent`` into ``path``, the workload's files into
    ``args.work``; False (and a message) on failure."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), str(args.parent), str(args.parent),
         "--workload", args.workload, "--call", args.call, "--cycles", str(args.cycles),
         "--seed", str(args.seed), "--record-into", str(path), "--work", str(args.work)],
        capture_output=True, text=True, check=False,
    )
    if done.returncode != 0:
        print(f"error: recording on {args.parent}: exit {done.returncode}: {done.stderr.strip()}",
              file=sys.stderr)
    return done.returncode == 0


def load_package(checkout: Path, alias: str):
    """``checkout``'s ``src/clonality``, imported afresh as the package ``alias``."""
    for loaded in [m for m in sys.modules if m == alias or m.startswith(alias + ".")]:
        del sys.modules[loaded]
    init = checkout / "src" / "clonality" / "__init__.py"
    spec = importlib.util.spec_from_file_location(alias, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[alias] = package
    spec.loader.exec_module(package)
    return package


class _Unpickler(pickle.Unpickler):
    """Loads a recorded call with ``clonality``'s classes taken from the package ``alias``."""

    def __init__(self, data: bytes, alias: str):
        super().__init__(io.BytesIO(data))
        self.alias = alias

    def find_class(self, module, name):
        head, dot, rest = module.partition(".")
        return super().find_class(self.alias + dot + rest if head == "clonality" else module, name)


def same(a, b) -> bool:
    """``a == b`` across the two packages: arrays by shape, dtype and every value, NaN equal to NaN."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and a.shape == b.shape
                and a.dtype == b.dtype and np.array_equal(a, b, equal_nan=a.dtype.kind in "fc"))
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(map(same, a, b))
    if dataclasses.is_dataclass(a):  # each side's package has its own class
        return (type(a).__qualname__ == type(b).__qualname__
                and same(dataclasses.astuple(a), dataclasses.astuple(b)))
    if isinstance(a, float) and isinstance(b, float) and a != a and b != b:
        return True
    return bool(a == b)


def replay(parent: Path, change: Path, call: str, calls: list[bytes], passes: int):
    """``(times, differs)``: each side's process time per pass, and the first call whose outputs differ, or None."""
    module_name, name = call.rsplit(".", 1)
    functions, blas, times, outputs = {}, {}, {}, {}
    for side, checkout in zip(SIDES, (parent, change)):
        alias = f"ab_calls_{side}"
        load_package(checkout, alias)
        functions[side] = getattr(importlib.import_module(f"{alias}.{module_name}"), name)
        blas[side] = importlib.import_module(f"{alias}._blas").one_blas_thread
        times[side] = []
    for k in range(passes):
        for side in SIDES if k % 2 == 0 else SIDES[::-1]:
            loaded = [_Unpickler(data, f"ab_calls_{side}").load() for data in calls]
            function = functions[side]
            with blas[side]():
                start = time.process_time()
                out = [function(*args, **kwargs) for args, kwargs in loaded]
                times[side].append(time.process_time() - start)
            outputs.setdefault(side, out)
    differs = next((k for k, (a, b) in enumerate(zip(outputs["parent"], outputs["change"]))
                    if not same(a, b)), None)
    return times, differs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True, help="a benchmark workload name")
    parser.add_argument("--call", required=True, help="MODULE.NAME of a function in the package")
    parser.add_argument("--cycles", type=int, default=4, help="workload cycles to record")
    parser.add_argument("--passes", type=int, default=15, help="replays of the recorded calls per side")
    parser.add_argument("--seed", type=int, default=20150836)
    parser.add_argument("--record-into", type=Path, help=argparse.SUPPRESS)  # the child's output
    parser.add_argument("--work", type=Path, help=argparse.SUPPRESS)  # the child's workload files
    args = parser.parse_args(argv)
    if args.passes < 2:
        parser.error("--passes must be at least 2")
    args.parent, args.change = args.parent.resolve(), args.change.resolve()
    if args.record_into is not None:
        calls = record(args.parent, args.workload, args.call, args.cycles, args.seed, args.work)
        args.record_into.write_bytes(pickle.dumps(calls))
        return 0
    # the recorded calls may name the workload's files, so they live until the replay ends
    with tempfile.TemporaryDirectory() as tmp:
        path, args.work = Path(tmp) / "calls.pickle", Path(tmp) / "work"
        args.work.mkdir()
        if not record_in_child(args, path):
            return 2
        calls = pickle.loads(path.read_bytes())
        try:
            times, differs = replay(args.parent, args.change, args.call, calls, args.passes)
        except Exception as exc:  # a call that raises on either side is a failed run
            print(f"error: replaying {args.call}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 2
    print(f"workload {args.workload}, seed {args.seed}, {args.call}: {len(calls)} calls from "
          f"{args.cycles} cycles, {args.passes} alternating passes, process time per pass in ms")
    print(f"{'side':<8}{'min':>10}{'q1':>10}{'median':>10}")
    for side in SIDES:
        q1, median, _ = statistics.quantiles(times[side], n=4)
        print(f"{side:<8}{1e3 * min(times[side]):>10.1f}{1e3 * q1:>10.1f}{1e3 * median:>10.1f}")
    if differs is None:
        print(f"outputs: all {len(calls)} ==")
        return 0
    print(f"outputs: call {differs} of {len(calls)} differs")
    return 2


if __name__ == "__main__":
    sys.exit(main())
