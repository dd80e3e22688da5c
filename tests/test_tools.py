"""The standard-library tools under ``tools/`` that a test can run in well under a second."""

import importlib.util
import json
import pathlib

import pytest

TOOLS = pathlib.Path(__file__).resolve().parent.parent / "tools"


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
