"""The tools under ``tools/`` that a test can run in well under a second."""

import importlib.util
import json
import pathlib
import pickle
import shutil
import subprocess

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
TOOLS = ROOT / "tools"


def load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ab_bench_tie_is_not_a_win():
    runs = [1.0, 2.0, 3.0, 4.0]
    assert load("ab_bench").verdict(runs, runs, "higher", 0.25) == (0, False, False)


@pytest.mark.parametrize("wins, gain", [(9, True), (8, False)])
def test_ab_bench_gain_needs_9_wins_of_10(wins, gain):
    change = [2.0] * wins + [0.5] * (10 - wins)
    assert load("ab_bench").verdict([1.0] * 10, change, "higher", 0.25) == (wins, gain, False)


def test_ab_bench_median_gap_equal_to_the_iqr_is_not_a_gain():
    parent = [float(k) for k in range(1, 11)]  # q1 2.75, median 5.5, q3 8.25
    verdict = load("ab_bench").verdict
    assert verdict(parent, [v + 5.5 for v in parent], "higher", 0.25) == (10, False, False)
    assert verdict(parent, [v + 5.6 for v in parent], "higher", 0.25) == (10, True, False)


def test_ab_bench_lower_ok_ratio_voids_a_gain():
    verdict = load("ab_bench").verdict
    assert verdict([1.0] * 10, [0.5] * 10, "lower", 0.25) == (10, True, False)
    assert verdict([1.0] * 10, [0.5] * 10, "lower", 0.25, fails_more=True) == (10, False, False)


@pytest.mark.parametrize("seconds, units, worse", [(1.26, 74.0, True), (1.24, 76.0, False)],
                         ids=["26% worse", "24% worse"])
def test_ab_bench_flags_a_median_worse_beyond_the_bound(seconds, units, worse):
    verdict = load("ab_bench").verdict
    assert verdict([1.0] * 10, [seconds] * 10, "lower", 0.25) == (0, False, worse)
    assert verdict([100.0] * 10, [units] * 10, "higher", 0.25) == (0, False, worse)


def test_ab_bench_workload_all_prints_one_table_per_workload(tmp_path, monkeypatch, capsys):
    ab_bench = load("ab_bench")
    benchmark = {"workloads": [{"name": name} for name in ("w1", "w2", "w3")],
                 "end_to_end": [{"name": "units_per_s", "better": "higher", "bound": 0.25},
                                {"name": "ok_ratio", "better": "higher", "bound": 0.01}]}
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps(benchmark), encoding="utf-8")
    calls = []

    def run_bench(checkout, workload, args):
        calls.append((checkout.name, workload))
        return {"units_per_s": 2.0 if checkout == change else 1.0, "ok_ratio": 1.0, "unlisted": 5.0}

    monkeypatch.setattr(ab_bench, "run_bench", run_bench)
    assert ab_bench.main([str(parent), str(change), "--workload", "all", "--pairs", "2"]) == 0
    order = ("parent", "change", "change", "parent")
    assert calls == [(side, w) for w in ("w1", "w2", "w3") for side in order]
    tables = [table.splitlines() for table in capsys.readouterr().out.split("\n\n")]
    assert [table[0].split(",")[0] for table in tables] == ["workload w1", "workload w2", "workload w3"]
    for table in tables:
        assert [line.split()[0] for line in table[2:]] == ["units_per_s", "ok_ratio"]
        assert table[2].split()[-3:] == ["2/2", "yes", "no"]
    calls.clear()
    assert ab_bench.main([str(parent), str(change), "--workload", "w2", "--pairs", "2"]) == 0
    assert calls == [(side, "w2") for side in order]
    assert capsys.readouterr().out.startswith("workload w2, seed 20150836")


def test_ab_bench_runs_relative_checkouts_by_absolute_script_paths(tmp_path, monkeypatch, capsys):
    ab_bench = load("ab_bench")
    benchmark = {"workloads": [{"name": "w1"}],
                 "end_to_end": [{"name": "ok_ratio", "better": "higher", "bound": 0.01}]}
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(benchmark), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    runs = []

    def run(command, **options):
        runs.append((pathlib.Path(command[1]), pathlib.Path(options["cwd"])))
        return subprocess.CompletedProcess(command, 0, json.dumps({"metrics": {"ok_ratio": {"value": 1.0}}}), "")

    monkeypatch.setattr(ab_bench.subprocess, "run", run)
    assert ab_bench.main(["parent", "change", "--workload", "w1", "--pairs", "2"]) == 0
    assert [cwd.name for _, cwd in runs] == ["parent", "change", "change", "parent"]
    for script, cwd in runs:
        assert script.is_absolute() and script == tmp_path / cwd.name / "bench" / "run.py"
    capsys.readouterr()


def test_src_lines_counts_code_only_lines():
    source = '''"""Module
docstring."""

# a comment-only line
def f(x):
    """Function docstring."""
    return (x +  # a trailing comment
            1)
'''
    assert load("src_lines").counts(source) == (8, 3)


def recorded_calls():
    """Pickled ``(args, kwargs)`` of a few ``conditional_exceeds`` calls, as ``ab_calls`` records them."""
    gen = np.random.default_rng(4302)
    calls = []
    for n_rows in (1, 5, 30):
        pg = np.sort(gen.uniform(1e-3, 0.5, 4))
        sizes = gen.integers(1, 4, (n_rows, 4)).astype(float)
        matched = np.floor(gen.random(sizes.shape) * (sizes + 1))
        calls.append(pickle.dumps(((pg, sizes, matched, gen.uniform(0.0, 3.0, n_rows)), {})))
    return calls


def test_ab_calls_replays_a_checkout_against_itself():
    times, differs = load("ab_calls").replay(ROOT, ROOT, "inference.conditional_exceeds", recorded_calls(), 2)
    assert differs is None
    assert [len(times[side]) for side in ("parent", "change")] == [2, 2]


def test_ab_calls_exits_2_when_an_output_differs(tmp_path, monkeypatch, capsys):
    ab_calls = load("ab_calls")
    shutil.copytree(ROOT / "src" / "clonality", tmp_path / "src" / "clonality",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "src" / "clonality" / "inference.py", "a", encoding="utf-8") as handle:
        handle.write("\n_exceeds = conditional_exceeds\n\n\n"
                     "def conditional_exceeds(*args):\n    return ~_exceeds(*args)\n")

    def record_in_child(args, path):
        path.write_bytes(pickle.dumps(recorded_calls()))
        return True

    monkeypatch.setattr(ab_calls, "record_in_child", record_in_child)
    argv = ["--workload", "case-exact", "--call", "inference.conditional_exceeds", "--passes", "2"]
    assert ab_calls.main([str(ROOT), str(ROOT), *argv]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "outputs: all 3 =="
    assert ab_calls.main([str(ROOT), str(tmp_path), *argv]) == 2
    assert capsys.readouterr().out.splitlines()[-1] == "outputs: call 0 of 3 differs"


def test_ab_calls_keeps_recorded_paths_until_the_replay_ends(monkeypatch, capsys):
    ab_calls = load("ab_calls")
    made = []

    def record_in_child(args, path):
        table = args.work / "probs.tsv"
        table.write_text("marker\tprobability\nX\t0.25\n")
        made.append(table)
        path.write_bytes(pickle.dumps([pickle.dumps(((str(table),), {}))]))
        return True

    monkeypatch.setattr(ab_calls, "record_in_child", record_in_child)
    argv = ["--workload", "cohort-mc", "--call", "cli.read_probability_file", "--passes", "2"]
    assert ab_calls.main([str(ROOT), str(ROOT), *argv]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "outputs: all 1 =="
    assert not made[0].exists()  # removed once the replay is over


def test_ab_calls_keeps_what_replayed_calls_print_out_of_its_report(tmp_path, capsys):
    package = tmp_path / "src" / "clonality"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "_blas.py").write_text("import contextlib\n\none_blas_thread = contextlib.nullcontext\n")
    (package / "noisy.py").write_text("def shout(x):\n    print('replayed', x)\n    return x\n")
    calls = [pickle.dumps(((k,), {})) for k in range(3)]
    times, differs = load("ab_calls").replay(tmp_path, tmp_path, "noisy.shout", calls, 2)
    assert differs is None and [len(times[side]) for side in ("parent", "change")] == [2, 2]
    assert "replayed" not in capsys.readouterr().out


def test_bench_record_takes_each_metric_median_over_its_runs(tmp_path, monkeypatch, capsys):
    bench_record = load("bench_record")
    values = iter([1.0, 5.0, 2.0, 4.0, 3.0])
    runs = []

    def run_bench(checkout, workload, args):
        runs.append((checkout, workload, args.seconds))
        value = next(values)
        return {"case-exact.units_per_s": value, "case-exact.ok_ratio": 1.0, "cohort-mc.peak_rss_mb": 10 * value}

    monkeypatch.setattr(bench_record.ab_bench, "run_bench", run_bench)
    out = tmp_path / "BENCH_9.json"
    assert bench_record.main(["9", "--out", str(out)]) == 0
    assert runs == [(ROOT, "all", bench_record.ab_bench.SECONDS)] * 5
    record = json.loads(out.read_text())
    assert record["bench"] == 9 and record["runs"] == 5
    assert record["workloads"]["case-exact"]["units_per_s"] == {"median": 3.0, "runs": [1.0, 5.0, 2.0, 4.0, 3.0]}
    assert record["workloads"]["case-exact"]["ok_ratio"]["median"] == 1.0
    assert record["workloads"]["cohort-mc"]["peak_rss_mb"]["median"] == 30.0
    environment = record["environment"]
    assert environment["numpy"] == np.__version__ and environment["numpy_targets"]
    assert environment["src_clonality_lines"] > environment["src_clonality_code_lines"] > 0
    assert set(environment) >= {"commit", "nproc", "python", "blas", "blas_threads"}
    capsys.readouterr()
