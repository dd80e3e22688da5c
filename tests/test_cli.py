import contextlib
import io
import json
import os
import pathlib
import random
import subprocess
import sys
import tempfile
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clonality import cli
from clonality.cli import main, read_mutations_file, read_probability_file
from clonality.errors import FileFormatError
from clonality.model import MutationProfile, derive_pair_observation
from clonality.priors import FrequencyRecord, estimate_marginal_probability

from conftest import FIXTURES

T1_MUT = str(FIXTURES / "table1_mutations.tsv")
T1_PROB = str(FIXTURES / "table1_probs.tsv")
T5_MUT = str(FIXTURES / "table5_mutations.tsv")
T5_PROB = str(FIXTURES / "table5_probs.tsv")
COUNTS = str(FIXTURES / "counts_example.tsv")

GOLDEN_TEST_JSON = """\
{
  "tumor_a": "T3",
  "tumor_b": "Left/Mucinous",
  "n_union": 10,
  "n_matches": 1,
  "xi_hat": 0.11574325776180522,
  "statistic": 0.3239954327483172,
  "p_value": 0.05934643333896892,
  "method": "exact",
  "n_sims": 0,
  "seed": null
}
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- round-trip of the bundled case fixtures -----------------------------------

def test_table1_fixture_round_trip(table1):
    tumors, catalog = table1
    assert set(tumors) == {"T1", "T3", "Right", "Left/Tubular", "Left/Mucinous"}
    # probabilities parse bit-exactly as printed
    assert catalog.probability("KRAS G12D") == 0.081
    assert catalog.probability("KRAS G12S") == 0.019
    assert catalog.probability("XPA G74V") == 0.004

    t3 = MutationProfile("T3", frozenset(tumors["T3"]))
    mucinous = MutationProfile("Left/Mucinous", frozenset(tumors["Left/Mucinous"]))
    obs = derive_pair_observation(t3, mucinous, catalog)
    assert obs.shared == (("KRAS G12D", 0.081),)
    assert [p for _, p in obs.unshared] == [0.004] * 9

    tubular = MutationProfile("Left/Tubular", frozenset(tumors["Left/Tubular"]))
    obs = derive_pair_observation(t3, tubular, catalog)
    assert obs.n_matches == 1 and obs.union_size == 12


def test_table5_fixture_round_trip(table5):
    tumors, catalog = table5
    assert len(tumors) == 14
    assert tumors["P1"] == {"PTEN del.", "TP53 R248Q", "SPOP F133L"}
    assert tumors["P2"] == set()
    assert tumors["M5"] == {"PTEN del.", "TP53 R248Q", "SPOP F133L", "ATRX inversion"}
    assert catalog.probability("SPOP F133L") == 0.023


# --- test command ------------------------------------------------------------

def test_cmd_test_golden_json(capsys):
    argv = ("test", "--mutations", T1_MUT, "--probs", T1_PROB,
            "--tumor-a", "T3", "--tumor-b", "Left/Mucinous")
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert out == GOLDEN_TEST_JSON
    # byte-identical on rerun
    assert run(capsys, *argv)[1] == out


def test_main_reuses_one_parser(capsys, monkeypatch):
    """The golden bytes twice from one parser, then a usage error as a fresh parser reports it."""
    argv = ("test", "--mutations", T1_MUT, "--probs", T1_PROB,
            "--tumor-a", "T3", "--tumor-b", "Left/Mucinous")
    bad = argv[:-2]
    with pytest.raises(SystemExit) as fresh:
        cli.build_parser().parse_args(list(bad))
    fresh_err = capsys.readouterr().err
    assert fresh.value.code == 2 and "the following arguments are required: --tumor-b" in fresh_err
    build, built = cli.build_parser, []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    assert run(capsys, *argv) == (0, GOLDEN_TEST_JSON, "")
    assert run(capsys, *argv) == (0, GOLDEN_TEST_JSON, "")
    assert usage_error(capsys, *bad) == (2, fresh_err)
    assert len(built) == 1
    assert build() is not build()


def test_importing_the_cli_builds_no_parser():
    src = pathlib.Path(cli.__file__).resolve().parent.parent
    code = "import clonality.cli as cli; print(cli._parser.cache_info().currsize)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert done.stdout == "0\n"


NO_NUMPY_MA = """
import contextlib, dataclasses, io, sys
import numpy as np
from clonality import cli
from clonality.inference import fit_conditional_batch
from clonality.nullref import calibrated_rejection
from clonality.rng import RngStream
from clonality.simulation import preset_scenario, run_calibrated_comparison, run_size_power

t1, t5 = sys.argv[1:3]
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["test", "--mutations", t1 + "_mutations.tsv", "--probs", t1 + "_probs.tsv",
                     "--tumor-a", "T3", "--tumor-b", "Left/Mucinous"]) == 0
    assert cli.main(["pairs", "--mutations", t5 + "_mutations.tsv", "--probs", t5 + "_probs.tsv",
                     "--exact-max", "0", "--sims", "500"]) == 0
sizes = np.array([[2.0, 0.0, 1.0, 3.0, 1.0, 1.0, 2.0, 1.0, 1.0], [1.0, 2.0, 0.0, 1.0, 1.0, 4.0, 1.0, 2.0, 1.0]])
fit_conditional_batch(np.linspace(0.01, 0.4, 9), sizes, np.floor(sizes / 2))
spec = dataclasses.replace(preset_scenario("table2-m5", 0.25), replicates=10, sims=100)
run_size_power(spec, RngStream(1))
run_calibrated_comparison(spec, RngStream(2))
calibrated_rejection([0.1, 0.1, 0.5, 0.5, 1.0], [0.1, 0.3], 0.2)
print("numpy.ma" in sys.modules)
"""


def test_the_package_never_imports_numpy_ma():
    """``numpy.ma`` stays out of a process that runs every command path; plain ``np.unique`` imports it."""
    src = pathlib.Path(cli.__file__).resolve().parent.parent
    done = subprocess.run([sys.executable, "-c", NO_NUMPY_MA, str(FIXTURES / "table1"), str(FIXTURES / "table5")],
                          capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert done.stdout == "False\n"


def test_cmd_test_metastasis_pair_below_point_001(capsys):
    code, out, _ = run(capsys, "test", "--mutations", T5_MUT, "--probs", T5_PROB,
                       "--tumor-a", "M5", "--tumor-b", "M38")
    assert code == 0
    payload = json.loads(out)
    assert payload["p_value"] < 0.001
    assert payload["n_matches"] == 4
    assert payload["method"] == "exact"


def test_cmd_test_json_schema(capsys):
    _, out, _ = run(capsys, "test", "--mutations", T5_MUT, "--probs", T5_PROB,
                    "--tumor-a", "P6", "--tumor-b", "P1")
    payload = json.loads(out)
    assert list(payload) == ["tumor_a", "tumor_b", "n_union", "n_matches", "xi_hat",
                             "statistic", "p_value", "method", "n_sims", "seed"]
    assert payload["p_value"] == pytest.approx(0.0176, abs=2e-4)


def test_cmd_test_empty_tumor_is_input_error(capsys):
    code, _, err = run(capsys, "test", "--mutations", T5_MUT, "--probs", T5_PROB,
                       "--tumor-a", "P2", "--tumor-b", "P1")
    assert code == 2
    assert "no mutations observed" in err


def test_cmd_test_unknown_tumor_exit_code(capsys):
    code, _, err = run(capsys, "test", "--mutations", T5_MUT, "--probs", T5_PROB,
                       "--tumor-a", "P99", "--tumor-b", "P1")
    assert code == 3
    assert "P99" in err


def test_cmd_test_same_tumor_twice_is_input_error(capsys):
    code, out, err = run(capsys, "test", "--mutations", T1_MUT, "--probs", T1_PROB,
                         "--tumor-a", "T3", "--tumor-b", "T3")
    assert (code, out) == (2, "")
    assert err == "error: --tumor-a and --tumor-b both name tumor 'T3'\n"
    # an unknown id is reported as such, even when named twice
    code, _, err = run(capsys, "test", "--mutations", T1_MUT, "--probs", T1_PROB,
                       "--tumor-a", "T99", "--tumor-b", "T99")
    assert code == 3 and "T99" in err


def test_cmd_test_monte_carlo_seed_in_output(capsys):
    code, out, _ = run(capsys, "test", "--mutations", T1_MUT, "--probs", T1_PROB,
                       "--tumor-a", "T3", "--tumor-b", "Left/Mucinous",
                       "--exact-max", "0", "--sims", "20000", "--seed", "77")
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "monte-carlo"
    assert payload["n_sims"] == 20000 and payload["seed"] == 77
    assert payload["p_value"] == pytest.approx(0.0593, abs=0.01)


def test_cmd_test_exact_budget_is_input_error(tmp_path, capsys):
    muts, probs = tmp_path / "m.tsv", tmp_path / "p.tsv"
    markers = [f"M{i}" for i in range(30)]
    muts.write_text("tumor\tmarker\n" + "".join(f"A\t{m}\n" for m in markers)
                    + "".join(f"B\t{m}\n" for m in markers[::3]))
    probs.write_text("marker\tprobability\n"
                     + "".join(f"{m}\t{0.001 * (i + 1)}\n" for i, m in enumerate(markers)))
    start = time.perf_counter()
    code, out, err = run(capsys, "test", "--mutations", str(muts), "--probs", str(probs),
                         "--tumor-a", "A", "--tumor-b", "B", "--exact-max", "30")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert "2^30" in err and "--exact-max" in err


# --- pairs command --------------------------------------------------------------

def parse_matrix(out):
    lines = out.strip().split("\n")
    header = lines[0].split("\t")[1:]
    matrix = {}
    for line in lines[1:]:
        fields = line.split("\t")
        matrix[fields[0]] = dict(zip(header, fields[1:]))
    return header, matrix


def test_cmd_pairs_prostate_case(capsys):
    code, out, _ = run(capsys, "pairs", "--mutations", T5_MUT, "--probs", T5_PROB)
    assert code == 0
    header, matrix = parse_matrix(out)
    assert header[:3] == ["P1", "P2", "P3"]  # file order preserved
    for met in ("B1", "M5", "M38", "M40"):
        assert float(matrix["P1"][met]) < 0.001
    for primary in ("P6", "P8"):
        assert float(matrix[primary]["P1"]) <= 0.025
        assert float(matrix[primary]["M5"]) <= 0.025
    assert matrix["P2"]["P1"] == "NA"  # untestable, not zero
    assert matrix["P1"]["P1"] == "NA"
    # symmetry
    assert matrix["P6"]["B1"] == matrix["B1"]["P6"]
    # byte-identical on rerun
    assert run(capsys, "pairs", "--mutations", T5_MUT, "--probs", T5_PROB)[1] == out


def test_cmd_pairs_monte_carlo_thread_count_invariance(capsys):
    """``pairs --threads`` parses and is ignored."""
    argv = ("pairs", "--mutations", T5_MUT, "--probs", T5_PROB, "--exact-max", "0", "--sims", "3000")
    code, out, err = run(capsys, *argv, "--threads", "1")
    assert (code, err) == (0, "")
    assert any(cell != "NA" for row in parse_matrix(out)[1].values() for cell in row.values())
    assert run(capsys, *argv, "--threads", "3") == (0, out, "")


def test_cmd_pairs_output_does_not_depend_on_pool_width(capsys, monkeypatch):
    """The pool has a thread per usable CPU, at most 2, and its width moves no result."""
    argv = ("pairs", "--mutations", T5_MUT, "--probs", T5_PROB, "--exact-max", "0", "--sims", "3000")
    widths = []

    def spy(max_workers):
        widths.append(max_workers)
        return ThreadPoolExecutor(max_workers)

    monkeypatch.setattr(cli, "ThreadPoolExecutor", spy)
    outputs = set()

    def run_pairs():
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        outputs.add(out)

    for cpus in (1, 3):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        run_pairs()
    # without an affinity mask the CPU count decides
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    for cpus in (None, 4):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        run_pairs()
    n_tumors = len(parse_matrix(outputs.pop())[0])
    assert n_tumors * (n_tumors - 1) // 2 > 3
    assert widths == [1, 2, 1, 2]
    assert not outputs


@pytest.mark.parametrize("argv", [
    ("test", "--mutations", T1_MUT, "--probs", T1_PROB, "--tumor-a", "T3", "--tumor-b", "Left/Mucinous"),
    ("pairs", "--mutations", T5_MUT, "--probs", T5_PROB),
    ("simulate", "--preset", "table2-m5", "--xi", "0.5", "--replicates", "2"),
], ids=["test", "pairs", "simulate"])
def test_out_of_memory_is_input_error(capsys, monkeypatch, argv):
    """A ``MemoryError``, in ``pairs`` raised on a pool thread, exits 2 with one line naming
    the options of the command that ran out: --exact-max only where it has one."""
    threads = []

    def out_of_memory(*args, **options):
        threads.append(threading.current_thread())
        raise MemoryError

    monkeypatch.setattr(cli, "conditional_test", out_of_memory)
    monkeypatch.setattr(cli, "run_size_power", out_of_memory)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: out of memory") and err.count("\n") == 1 and "--sims" in err
    assert ("--exact-max" in err) == (argv[0] in ("test", "pairs"))
    assert ("--replicates" in err) == (argv[0] == "simulate")
    assert threads and (threads[0] is threading.main_thread()) == (argv[0] != "pairs")


def usage_error(capsys, *argv):
    """Exit code and stderr of an invocation that argparse rejects."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    return exc.value.code, capsys.readouterr().err


def test_cmd_test_has_no_threads_option(capsys):
    code, err = usage_error(capsys, "test", "--mutations", T1_MUT, "--probs", T1_PROB,
                            "--tumor-a", "T3", "--tumor-b", "Left/Mucinous", "--threads", "2")
    assert code == 2 and "unrecognized arguments: --threads 2" in err


@pytest.mark.parametrize("argv", [
    ("pairs", "--mutations", T5_MUT, "--probs", T5_PROB, "--threads", "0"),
    ("simulate", "--preset", "table2-m5", "--xi", "0", "--replicates", "2", "--threads", "-2"),
])
def test_thread_count_below_one_is_usage_error(capsys, argv):
    code, err = usage_error(capsys, *argv)
    assert code == 2 and "argument --threads: must be at least 1" in err


RANGE_CHECKED = {
    "test": ("test", "--mutations", T1_MUT, "--probs", T1_PROB, "--tumor-a", "T3",
             "--tumor-b", "Left/Mucinous"),
    "pairs": ("pairs", "--mutations", T5_MUT, "--probs", T5_PROB),
    "simulate": ("simulate", "--preset", "table2-m5", "--xi", "0", "--replicates", "2", "--sims", "5"),
    "estimate-probs": ("estimate-probs", "--counts", COUNTS),
}
OUT_OF_RANGE = [
    ("test", ("--sims", "0"), "must be at least 1, got 0"),
    ("pairs", ("--sims", "0"), "must be at least 1, got 0"),
    ("pairs", ("--sims", "-5"), "must be at least 1, got -5"),
    ("simulate", ("--sims", "0"), "must be at least 1, got 0"),
    ("simulate", ("--replicates", "0"), "must be at least 1, got 0"),
    ("test", ("--exact-max", "-1"), "must be at least 0, got -1"),
    ("pairs", ("--exact-max", "-3"), "must be at least 0, got -3"),
    ("test", ("--seed", "-1"), "must be at least 0, got -1"),
    ("pairs", ("--seed", "-1"), "must be at least 0, got -1"),
    ("pairs", ("--seed", str(2 ** 64)), f"must be at most {2 ** 64 - 1}, got {2 ** 64}"),
    ("simulate", ("--seed", str(2 ** 64)), f"must be at most {2 ** 64 - 1}, got {2 ** 64}"),
    ("pairs", ("--sims", "x"), "invalid int value: 'x'"),
    ("estimate-probs", ("--study-size", "-5"), "must be at least 0, got -5"),
    ("estimate-probs", ("--study-size", "-1"), "must be at least 0, got -1"),
]


@pytest.mark.parametrize("command, option, message", OUT_OF_RANGE,
                         ids=[f"{c} {' '.join(o)}" for c, o, _ in OUT_OF_RANGE])
def test_out_of_range_option_is_usage_error(capsys, command, option, message):
    # checked at parse time, also where every pair of the input is exact
    code, err = usage_error(capsys, *RANGE_CHECKED[command], *option)
    assert code == 2 and f"argument {option[0]}: {message}" in err


def test_cmd_pairs_single_tumor_rejected(tmp_path, capsys):
    single = tmp_path / "single.tsv"
    single.write_text("tumor\tmarker\nA\tKRAS G12D\n")
    probs = tmp_path / "p.tsv"
    probs.write_text("marker\tprobability\nKRAS G12D\t0.081\n")
    code, _, err = run(capsys, "pairs", "--mutations", str(single), "--probs", str(probs))
    assert code == 2
    assert "at least 2 tumors" in err


# --- input validation ---------------------------------------------------------------

def test_bad_header_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_text("sample\tmarker\nA\tX\n")
    code, _, err = run(capsys, "test", "--mutations", str(bad), "--probs", T1_PROB,
                       "--tumor-a", "A", "--tumor-b", "B")
    assert code == 2
    assert f"{bad}:1" in err


@pytest.mark.parametrize("body, line, message", [
    ("", 0, "file is empty"),
    ("tumor\tmarker\n\tX\n", 2, "empty tumor id"),
    ("tumor\tmarker\n", 0, "no tumors found"),
], ids=["zero bytes", "empty tumor field", "header only"])
def test_mutations_reader_check_messages(tmp_path, capsys, body, line, message):
    mutations = tmp_path / "m.tsv"
    mutations.write_text(body)
    assert run(capsys, "test", "--mutations", str(mutations), "--probs", T1_PROB,
               "--tumor-a", "A", "--tumor-b", "B") == (2, "", f"error: {mutations}:{line}: {message}\n")


def test_duplicate_mutation_row_reports_line(tmp_path, capsys):
    bad = tmp_path / "dup.tsv"
    bad.write_text("tumor\tmarker\nA\tX\nA\tX\nB\tY\n")
    probs = tmp_path / "p.tsv"
    probs.write_text("marker\tprobability\nX\t0.1\nY\t0.1\n")
    code, _, err = run(capsys, "pairs", "--mutations", str(bad), "--probs", str(probs))
    assert code == 2
    assert f"{bad}:3" in err and "duplicate" in err


def test_bad_probability_reports_line(tmp_path, capsys):
    probs = tmp_path / "p.tsv"
    probs.write_text("marker\tprobability\nX\t1.5\n")
    code, _, err = run(capsys, "test", "--mutations", T1_MUT, "--probs", str(probs),
                       "--tumor-a", "T3", "--tumor-b", "T1")
    assert code == 2
    assert f"{probs}:2" in err


def test_unknown_marker_is_input_error(tmp_path, capsys):
    probs = tmp_path / "p.tsv"
    probs.write_text("marker\tprobability\nKRAS G12D\t0.081\n")
    code, _, err = run(capsys, "test", "--mutations", T1_MUT, "--probs", str(probs),
                       "--tumor-a", "T3", "--tumor-b", "Left/Mucinous")
    assert code == 2
    assert "not in catalog" in err


def test_catalog_miss_names_mutations_line_and_probability_file(tmp_path, capsys):
    muts = tmp_path / "m.tsv"
    muts.write_text("tumor\tmarker\nA\tX\nB\tX\nC\tZ\nB\tY\nD\tX\n")
    probs = tmp_path / "p.tsv"
    probs.write_text("marker\tprobability\nX\t0.1\n")
    pair = ("--mutations", str(muts), "--probs", str(probs), "--tumor-a", "A")
    for argv, line, marker in ((("test", *pair, "--tumor-b", "B"), 5, "Y"),
                               (("test", *pair, "--tumor-b", "C"), 4, "Z"),
                               (("pairs", *pair[:4]), 4, "Z")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {muts}:{line}: marker '{marker}' not in catalog {probs}\n"
    # markers of untested tumors are not looked up
    code, out, _ = run(capsys, "test", *pair, "--tumor-b", "D")
    assert code == 0 and json.loads(out)["n_matches"] == 1


def test_comments_and_blank_lines_ignored(tmp_path, capsys):
    muts = tmp_path / "m.tsv"
    muts.write_text("# case data\ntumor\tmarker\n\nA\tX\nB\tX\n")
    probs = tmp_path / "p.tsv"
    probs.write_text("marker\tprobability\n# common\nX\t0.1\n")
    code, out, _ = run(capsys, "test", "--mutations", str(muts), "--probs", str(probs),
                       "--tumor-a", "A", "--tumor-b", "B")
    assert code == 0
    assert json.loads(out)["n_matches"] == 1


def test_undecodable_byte_reports_line(tmp_path, capsys):
    probs = tmp_path / "p.tsv"
    probs.write_bytes(b"marker\tprobability\nKRAS G12D\t0.081\nXPA\xff\t0.004\n")
    code, _, err = run(capsys, "test", "--mutations", T1_MUT, "--probs", str(probs),
                       "--tumor-a", "T3", "--tumor-b", "T1")
    assert code == 2
    assert err.startswith(f"error: {probs}:3: byte 0xff")


def test_byte_order_mark_is_ignored(tmp_path, capsys):
    files = {}
    for name, source in (("m.tsv", T1_MUT), ("p.tsv", T1_PROB), ("c.tsv", COUNTS)):
        files[name] = tmp_path / name
        files[name].write_bytes(b"\xef\xbb\xbf" + pathlib.Path(source).read_bytes())
    code, out, err = run(capsys, "test", "--mutations", str(files["m.tsv"]),
                         "--probs", str(files["p.tsv"]), "--tumor-a", "T3", "--tumor-b", "Left/Mucinous")
    assert (code, out, err) == (0, GOLDEN_TEST_JSON, "")
    plain = run(capsys, "estimate-probs", "--counts", COUNTS, "--study-size", "1")
    assert plain[0] == 0
    assert run(capsys, "estimate-probs", "--counts", str(files["c.tsv"]), "--study-size", "1") == plain


def test_counts_without_cohort_reports_line(tmp_path, capsys):
    counts = tmp_path / "c.tsv"
    counts.write_text("marker\tref_mutated\tref_total\tstudy_mutated\tstudy_total\n"
                      "X\t1\t10\t0\t1\nY\t0\t0\t0\t0\n")
    for argv in (("estimate-probs", "--counts", str(counts)),
                 ("test", "--mutations", T1_MUT, "--probs", str(counts),
                  "--tumor-a", "T3", "--tumor-b", "T1")):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith(f"error: {counts}:3: no cohort observations")


_TABLE_HEADERS = {"probs": "marker\tprobability\n",
                  "counts": "marker\tref_mutated\tref_total\tstudy_mutated\tstudy_total\n"}
_COUNT_CHECKS = [
    ("fields", "X\t1\t10\t0\n", 2, "expected 5 fields, got 4"),
    ("empty marker", "X\t1\t10\t0\t1\n\t1\t10\t0\t1\n", 3, "empty marker id"),
    ("duplicate", "X\t1\t10\t0\t1\nY\t1\t10\t0\t1\nX\t2\t10\t0\t1\n", 4, "duplicate marker: X"),
    ("non-integer", "X\t1\t10\t0.5\t1\n", 2, "non-integer study_mutated: '0.5'"),
    ("several faults", "X\tx\t-1\t5\ty\n", 2, "non-integer study_total: 'y'"),
    ("above total", "X\t11\t10\t0\t1\n", 2,
     "ref counts must satisfy 0 <= mutated <= total, got 11/10 for 'X'"),
    ("zero totals", "X\t1\t10\t0\t1\nY\t0\t0\t0\t0\n", 3, "no cohort observations for marker 'Y'"),
    ("empty body", "", 0, "no count records found"),
]
READER_CHECKS = [
    ("test", "probs", "fields", "X\t0.1\tjunk\n", 2, "expected 2 fields, got 3"),
    ("test", "probs", "empty marker", " \t0.1\n", 2, "empty marker id"),
    ("test", "probs", "duplicate", "X\t0.1\nY\t0.1\nX\t0.2\n", 4, "duplicate marker: X"),
    ("test", "probs", "non-numeric", "X\t0.1\nY\tabc\n", 3, "non-numeric probability: 'abc'"),
    ("test", "probs", "out of range", "X\t0\n", 2, "probability must lie in (0, 1), got 0.0"),
    ("test", "probs", "empty body", "", 0, "no probability records found"),
    *[(command, "counts", *check) for command in ("test", "estimate-probs") for check in _COUNT_CHECKS],
    ("test", "counts", "empty study_total", "X\t1\t10\t0\t\n", 2,
     "empty study_total; fill it in, or pool the file first with estimate-probs --study-size N"),
    ("estimate-probs", "counts", "empty study_total", "X\t1\t10\t0\t\n", 2,
     "empty study_total and no --study-size given"),
]


@pytest.mark.parametrize("command, kind, name, body, line, message", READER_CHECKS,
                         ids=[" ".join(case[:3]) for case in READER_CHECKS])
def test_reader_check_messages(tmp_path, capsys, command, kind, name, body, line, message):
    table = tmp_path / f"{kind}.tsv"
    table.write_text(_TABLE_HEADERS[kind] + body)
    if command == "test":
        argv = ("test", "--mutations", T1_MUT, "--probs", str(table), "--tumor-a", "T3", "--tumor-b", "T1")
    else:
        argv = ("estimate-probs", "--counts", str(table))
    assert run(capsys, *argv) == (2, "", f"error: {table}:{line}: {message}\n")


def corruptions(kind):
    """(name, row pick, token) edits that make a valid file of ``kind`` malformed."""
    names = ["byte", "extra", "duplicate", "header"]
    if kind == "mutations":
        names.append("marker")
    else:
        names.append("field")
    if kind == "counts":
        names.append("zero-totals")
    return st.tuples(st.sampled_from(names), st.integers(0, 10 ** 6),
                     st.sampled_from(["x", "1.5", "-1", "nan", "1e400"]))


def corrupt(text: str, edit) -> bytes:
    name, pick, token = edit
    lines = text.split("\n")[:-1]
    row = 1 + pick % (len(lines) - 1)
    fields = lines[row].split("\t")
    if name == "byte":
        data = text.encode()
        at = pick % (len(data) + 1)
        return data[:at] + bytes([(0xFF, 0xFE, 0xC0, 0x80)[pick % 4]]) + data[at:]
    if name == "extra":
        lines[pick % len(lines)] += "\tjunk"
    elif name == "duplicate":
        lines.insert(row, lines[row])
    elif name == "header":
        lines[0] = "_" + lines[0]
    elif name == "marker":  # a marker the probability file lacks, in a tested tumor
        tested = [i for i, line in enumerate(lines) if line.startswith(("T3\t", "Left/Mucinous\t"))]
        row = tested[pick % len(tested)]
        lines[row] = lines[row].split("\t")[0] + "\tunknown " + token
    elif name == "field":
        fields[1 + pick % (len(fields) - 1)] = token
        lines[row] = "\t".join(fields)
    else:
        lines[row] = "\t".join([fields[0]] + ["0"] * 4)
    return "\n".join(lines + [""]).encode()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(["mutations", "probs", "counts"]).flatmap(
    lambda kind: st.tuples(st.just(kind), corruptions(kind))))
def test_corrupted_inputs_report_file_and_line(case):
    kind, edit = case
    with tempfile.TemporaryDirectory() as tmp:
        files = {kind: pathlib.Path(tmp) / f"{kind}.tsv" for kind in ("mutations", "probs", "counts")}
        files["mutations"].write_bytes(pathlib.Path(T1_MUT).read_bytes())
        files["probs"].write_bytes(pathlib.Path(T1_PROB).read_bytes())
        catalog = read_probability_file(T1_PROB)
        files["counts"].write_text(
            "marker\tref_mutated\tref_total\tstudy_mutated\tstudy_total\n" + "".join(
                f"{m}\t{max(round(1000 * p), 1)}\t1000\t0\t1\n"
                for m, p in catalog.probabilities.items()))
        pair = ("--tumor-a", "T3", "--tumor-b", "Left/Mucinous")
        commands = [("test", "--mutations", str(files["mutations"]),
                     "--probs", str(files["counts" if kind == "counts" else "probs"]), *pair)]
        if kind == "counts":
            commands.append(("estimate-probs", "--counts", str(files["counts"]), "--study-size", "1"))
        for argv in commands:
            assert main(list(argv)) == 0
        target = files[kind]
        target.write_bytes(corrupt(target.read_text(), edit))
        for argv in commands:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(list(argv))
            assert code == 2, (argv, edit, err.getvalue())
            assert err.getvalue().startswith(f"error: {target}:"), (edit, err.getvalue())


def _generated_counts(rows: int, seed: int) -> str:
    """Body of ``rows`` well-formed counts rows, totals up to 2^53, some study counts zero."""
    rnd = random.Random(seed)
    lines = []
    for m in range(rows):
        ref_total = rnd.choice([rnd.randint(1, 50), rnd.randint(2000, 12000), 2 ** 53 - rnd.randint(80, 99)])
        study_total = rnd.choice([0, rnd.randint(1, 80)])
        ref_mutated, study_mutated = rnd.randint(0, ref_total), rnd.randint(0, study_total)
        if ref_mutated + study_mutated == 0:
            ref_mutated = 1
        lines.append(f"M{m}\t{ref_mutated}\t{ref_total}\t{study_mutated}\t{study_total}\n")
    return "".join(lines)


_PLAIN_COUNTS = "X\t1\t10\t0\t1\nY\t12\t1000\t3\t40\n"
# (name, body, whether the file reads)
COLUMN_CASES = [
    ("generated", _generated_counts(400, 1), True),
    ("comments blank lines crlf bom", "# note\n\n" + _PLAIN_COUNTS + " \n", True),
    ("denominator 2^53", f"X\t1\t{2 ** 53 - 1}\t0\t1\n", True),
    ("denominator above 2^53", f"X\t1\t{2 ** 53}\t0\t1\n", True),
    ("sum past int64", f"X\t1\t{2 ** 63 - 1}\t0\t1\n", True),
    ("cell past int64", f"X\t1\t{10 ** 20}\t0\t1\n", True),
    ("cell space-12", "X\t 12\t1000\t0\t1\n", True),
    ("cell +5", "X\t+5\t1000\t0\t1\n", True),
    ("cell arabic-indic 12", "X\t\u0661\u0662\t1000\t0\t1\n", True),
    ("zero numerator", _PLAIN_COUNTS + "Z\t0\t1000\t0\t1\n", True),
    ("empty study_total", _PLAIN_COUNTS + "Z\t3\t1000\t0\t\n", True),
    *[(name, body, False) for name, body, *_ in _COUNT_CHECKS],
    ("undecodable byte", _PLAIN_COUNTS + "Z\t3\t1000\t0\t1 \udcff\n", False),
]


def _priors_row_loop(body: str, default_study_total: int):
    """``estimate_marginal_probability`` of each data row of a readable counts body, in file order.

    Also the markers whose pooled numerator is zero, also in file order.
    """
    pooled, zero = {}, []
    for line in body.split("\n"):
        if line.strip() and not line.lstrip().startswith("#"):
            marker, *cells = line.split("\t")
            counts = [int(cell) if cell.strip() else default_study_total for cell in cells]
            pooled[marker] = estimate_marginal_probability(FrequencyRecord(marker, *counts))
            if counts[0] + counts[2] == 0:
                zero.append(marker)
    return pooled, zero


def _warned(read):
    """``read()`` and its warnings as (category, message)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = read()
    return result, [(w.category, str(w.message)) for w in caught]


@pytest.mark.parametrize("name, body, reads", COLUMN_CASES, ids=[case[0] for case in COLUMN_CASES])
def test_counts_columns_equal_the_row_loop(tmp_path, name, body, reads):
    """A counts file reads to what ``estimate_marginal_probability`` gives and warns on each row.

    The floats come in file order as Python floats, with one
    ``RuntimeWarning``, the ``priors`` message, per marker whose pooled
    numerator is zero; a file that breaks a row rule raises.
    """
    table = tmp_path / "counts.tsv"
    text = _TABLE_HEADERS["counts"] + body
    if "crlf bom" in name:
        text = "\ufeff" + text.replace("\n", "\r\n")
    table.write_bytes(text.encode("utf-8", "surrogateescape"))
    if not reads:
        with pytest.raises(FileFormatError):
            _warned(lambda: cli.read_counts_file(str(table), default_study_total=3))
        return
    pooled, warned = _warned(lambda: cli.read_counts_file(str(table), default_study_total=3))
    (expected, zero), expected_warned = _warned(lambda: _priors_row_loop(body, 3))
    assert list(pooled.items()) == list(expected.items())
    assert all(type(p) is float for p in pooled.values())
    assert warned == expected_warned
    assert [category for category, _ in warned] == [RuntimeWarning] * len(zero)


def test_counts_reader_raises_and_warns_in_file_order(tmp_path):
    """The first faulty line raises, and a zero-numerator row before it has already warned."""
    table = tmp_path / "counts.tsv"
    table.write_bytes((_TABLE_HEADERS["counts"] + "X\t1\t10\t0\t1\nY\t1\t10\t0\n"
                       "Z\t1\t10\t0\t1\nW\t1\t10\t0\t1 \udcff\n").encode("utf-8", "surrogateescape"))
    with pytest.raises(FileFormatError) as raised:
        cli.read_counts_file(str(table))
    assert str(raised.value) == f"{table}:3: expected 5 fields, got 4"
    table.write_text(_TABLE_HEADERS["counts"] + "X\t0\t10\t0\t1\nY\t1\t10\t0\t1\nX\t1\t10\t0\t1\n")
    with warnings.catch_warnings(record=True) as caught, pytest.raises(FileFormatError) as raised:
        warnings.simplefilter("always")
        cli.read_counts_file(str(table))
    assert str(raised.value) == f"{table}:4: duplicate marker: X"
    assert [str(w.message) for w in caught] == ["marker 'X' has zero pooled mutation count; probability floored"]


@pytest.mark.parametrize("cell", ["12", " 12"])
def test_probability_reader_opens_a_counts_file_once(tmp_path, monkeypatch, cell):
    table = tmp_path / "counts.tsv"
    table.write_text(_TABLE_HEADERS["counts"] + f"X\t{cell}\t1000\t0\t1\n")
    opened = []

    def spy(*args, **kwargs):
        opened.append(args[0])
        return open(*args, **kwargs)

    monkeypatch.setattr(cli, "open", spy, raising=False)
    assert read_probability_file(str(table)).probabilities == {"X": 12 / 1001}
    assert opened == [str(table)]


# --- estimate-probs -------------------------------------------------------------------

def test_cmd_estimate_probs(capsys):
    code, out, _ = run(capsys, "estimate-probs", "--counts", COUNTS, "--study-size", "1")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "marker\tprobability"
    values = dict(line.split("\t") for line in lines[1:])
    assert float(values["KRAS G12D"]) == pytest.approx(20.0 / 249.0, rel=1e-12)
    assert values["XPA G74V"] == "0.004"


def test_cmd_estimate_probs_missing_study_size(capsys):
    code, _, err = run(capsys, "estimate-probs", "--counts", COUNTS)
    assert code == 2
    assert "study-size" in err


def test_empty_study_total_points_test_and_pairs_to_estimate_probs(capsys):
    for argv in (("test", "--tumor-a", "T3", "--tumor-b", "T1"), ("pairs",)):
        code, _, err = run(capsys, *argv, "--mutations", T1_MUT, "--probs", COUNTS)
        assert code == 2
        assert err.startswith(f"error: {COUNTS}:3: empty study_total")
        assert "estimate-probs --study-size N" in err
        assert "no --study-size given" not in err  # neither command has that option


def test_cmd_estimate_probs_malformed_row(tmp_path, capsys):
    bad = tmp_path / "c.tsv"
    bad.write_text("marker\tref_mutated\tref_total\tstudy_mutated\tstudy_total\n"
                   "X\tfive\t10\t0\t1\n")
    code, _, err = run(capsys, "estimate-probs", "--counts", str(bad))
    assert code == 2
    assert f"{bad}:2" in err


# --- simulate ----------------------------------------------------------------------------

def test_cmd_simulate_small_run(capsys):
    argv = ("simulate", "--preset", "table2-m5", "--xi", "0", "--replicates", "20",
            "--sims", "200", "--seed", "5")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == ("preset\txi\treplicates\tsims\trejection_rate\t"
                        "calibrated_rejection_rate\tmean_matches\tmean_mutations")
    fields = lines[1].split("\t")
    assert fields[0] == "table2-m5" and fields[2] == "20"
    assert 0.0 <= float(fields[4]) <= 1.0
    assert run(capsys, *argv)[1] == out  # deterministic under a fixed seed


def test_cmd_simulate_out_file(tmp_path, capsys):
    out_file = tmp_path / "report.tsv"
    code, out, _ = run(capsys, "simulate", "--preset", "table2-m5", "--xi", "0",
                       "--replicates", "10", "--sims", "100", "--out", str(out_file))
    assert code == 0 and out == ""
    assert out_file.read_text().startswith("preset\t")


def test_cmd_simulate_unknown_preset(capsys):
    code, _, err = run(capsys, "simulate", "--preset", "table7-m5", "--xi", "0")
    assert code == 2
    assert "table2-m5" in err  # lists the known presets


def test_cmd_simulate_correlation_out_of_range(capsys):
    assert run(capsys, "simulate", "--preset", "table4-corr(1.5)", "--xi", "0") == (
        2, "", "error: correlation must lie in [0, 1), got 1.5\n")


def test_mutations_reader_declares_empty_tumors():
    tumors = read_mutations_file(T5_MUT)
    assert tumors["P3"] == set()
    assert "L1" in tumors


def test_probability_reader_accepts_counts_mode(tmp_path):
    counts = tmp_path / "counts.tsv"
    counts.write_text(
        "marker\tref_mutated\tref_total\tstudy_mutated\tstudy_total\n"
        "XPA G74V\t0\t249\t1\t1\n"
    )
    catalog = read_probability_file(str(counts))
    assert catalog.probability("XPA G74V") == 0.004
