"""Print the outputs that a refactor of the test or the harness must keep bit for bit.

    python3 tools/pinned_outputs.py > change.tsv

Each line is ``name<TAB>repr(value)``. Floats print by ``repr``, which
round-trips, and numpy scalars print with their type, so a ``diff`` of two
checkouts' outputs shows every moved bit. The package is imported from the
``src/`` next to this file. The run is deterministic and takes well under a
minute on a 2-vCPU machine.

Covered: the CLI ``test`` bytes of the Table 1 pair; ``pairs`` on the
Table 5 files, exact and Monte Carlo, at 1 and 3 threads; ``test`` and
``pairs`` on a counts-mode copy of the Table 1 probabilities;
``estimate-probs`` on ``tests/fixtures/counts_example.tsv`` at
``--study-size 1``; the exit code, stdout and stderr of one malformed
probability file per reader check, in probability mode under ``test`` and in
counts mode under ``test`` and ``estimate-probs``; ``run_size_power`` for
every preset kind at xi 0 and 0.25 over three seeds, and once at 3 threads;
the per-replicate p-values of ``_replicate_arrays`` for the same runs and
their calibration-run offset, and for a run over ten distinct probabilities;
the sorted A and B profiles of ``sample_tumor_pair`` on a few streams for
every preset kind at xi 0.25 and for a universe of all three group kinds at
xi 0, 0.3 and 1;
``run_calibrated_comparison`` at 1 and 3 threads; 64 ``counts_test``
results of grouped markers by field name (labelled ``conditional_data_test``,
the adapter they once went through), exact and Monte Carlo, on distinct and
shared probabilities; ``exact_p_value`` and ``monte_carlo_p_value`` at the
observed statistic s, at s/2 and at one ulp above s; ``exact_p_value`` at
the observed statistic of each of the 112 ``case-exact`` pool cases of
``bench/workloads.py`` (distinct probabilities at |E| 8-16, shared ones at
16-20); for every preset kind
at xi 0.25, the ``json.dumps`` of ``scenario_to_json_dict`` and whether
``scenario_from_json_dict`` gives the scenario back.
"""

import contextlib
import dataclasses
import inspect
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from clonality import cli  # noqa: E402
from clonality.inference import ConditionalData, conditional_statistic, group_by_probability  # noqa: E402
from clonality.nullref import counts_test, exact_p_value, monte_carlo_p_value  # noqa: E402
from clonality.rng import RngStream  # noqa: E402
from clonality.simulation import (  # noqa: E402
    _NULL_RUN_OFFSET,
    MarkerGroup,
    ScenarioSpec,
    _replicate_arrays,
    preset_scenario,
    run_calibrated_comparison,
    run_size_power,
    sample_tumor_pair,
    scenario_from_json_dict,
    scenario_to_json_dict,
)

sys.path.insert(0, str(ROOT / "bench"))
from workloads import EXACT_POOL_VARIANTS, EXACT_STRATA, exact_pool_case  # noqa: E402

FIXTURES = ROOT / "tests" / "fixtures"
HEADERS = {"probs": "marker\tprobability\n",
           "counts": "marker\tref_mutated\tref_total\tstudy_mutated\tstudy_total\n"}
COUNT_CHECKS = (
    ("fields", "X\t1\t10\t0\n"),
    ("empty marker", "\t1\t10\t0\t1\n"),
    ("duplicate", "X\t1\t10\t0\t1\nX\t2\t10\t0\t1\n"),
    ("non-integer", "X\tfive\t10\t0\t1\n"),
    ("several faults", "X\tx\t-1\t5\ty\n"),
    ("above total", "X\t1\t10\t3\t1\n"),
    ("zero totals", "X\t1\t10\t0\t1\nY\t0\t0\t0\t0\n"),
    ("empty study_total", "X\t1\t10\t0\t\n"),
    ("empty body", ""),
)
# (command, mode, check, body) of one malformed probability file per reader check
MALFORMED = (
    ("test", "probs", "fields", "X\t0.1\t0.2\n"),
    ("test", "probs", "empty marker", "\t0.1\n"),
    ("test", "probs", "duplicate", "X\t0.1\nX\t0.1\n"),
    ("test", "probs", "non-numeric", "X\tlow\n"),
    ("test", "probs", "out of range", "X\t1.5\n"),
    ("test", "probs", "empty body", ""),
    *((command, "counts", name, body)
      for command in ("test", "estimate-probs") for name, body in COUNT_CHECKS),
)

PRESETS = ("table2-m5", "table2-m10", "table2-m20", "table3-noise", "table3-inflate",
           "table4-exclusive", "table4-corr(0.3)", "table4-corr(0.9)")


def emit(name, value):
    print(f"{name}\t{value!r}")


def cli_output(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def cli_values():
    t1 = ("--mutations", str(FIXTURES / "table1_mutations.tsv"),
          "--probs", str(FIXTURES / "table1_probs.tsv"))
    emit("cli test T3/Left-Mucinous", cli_output("test", *t1, "--tumor-a", "T3",
                                                  "--tumor-b", "Left/Mucinous"))
    t5 = ("pairs", "--mutations", str(FIXTURES / "table5_mutations.tsv"),
          "--probs", str(FIXTURES / "table5_probs.tsv"))
    for threads in ("1", "3"):
        emit(f"cli pairs exact threads={threads}", cli_output(*t5, "--threads", threads))
        emit(f"cli pairs mc threads={threads}",
             cli_output(*t5, "--exact-max", "0", "--sims", "3000", "--threads", threads))
    emit("cli estimate-probs counts_example",
         cli_output("estimate-probs", "--counts", str(FIXTURES / "counts_example.tsv"),
                    "--study-size", "1"))
    with tempfile.TemporaryDirectory() as tmp:
        counts = Path(tmp) / "counts.tsv"
        counts.write_text(HEADERS["counts"] + "".join(
            f"{m}\t{max(round(1000 * p), 1)}\t1000\t0\t1\n"
            for m, p in cli.read_probability_file(str(FIXTURES / "table1_probs.tsv")).probabilities.items()))
        emit("cli test T3/Left-Mucinous counts", cli_output("test", *t1[:2], "--probs", str(counts),
                                                             "--tumor-a", "T3", "--tumor-b", "Left/Mucinous"))
        emit("cli pairs table1 counts", cli_output("pairs", *t1[:2], "--probs", str(counts)))
        for command, mode, name, body in MALFORMED:
            table = Path(tmp) / "table.tsv"
            table.write_text(HEADERS[mode] + body)
            if command == "test":
                argv = ("test", *t1[:2], "--probs", str(table), "--tumor-a", "T3", "--tumor-b", "T1")
            else:
                argv = ("estimate-probs", "--counts", str(table))
            code, out, err = cli_output(*argv)
            emit(f"cli {command} {mode} malformed {name}", (code, out, err.replace(tmp, "<tmp>")))


def harness_values():
    for name in PRESETS:
        for xi in (0.0, 0.25):
            spec = dataclasses.replace(preset_scenario(name, xi), replicates=20, sims=200)
            for seed in (1, 2, 3):
                emit(f"run_size_power {name} xi={xi} seed={seed}", run_size_power(spec, RngStream(seed)))
    spec = dataclasses.replace(preset_scenario("table3-noise", 0.25), replicates=20, sims=200)
    emit("run_size_power table3-noise xi=0.25 seed=4 threads=3",
         run_size_power(spec, RngStream(4), threads=3))
    spec = dataclasses.replace(preset_scenario("table2-m5", 0.25), replicates=60, sims=300)
    for threads in (1, 3):
        emit(f"run_calibrated_comparison table2-m5 threads={threads}",
             run_calibrated_comparison(spec, RngStream(5), threads=threads))


def replicate_values():
    # a tree whose harness still has a thread pool takes its thread count after the offset
    threads = (1,) if "threads" in inspect.signature(_replicate_arrays).parameters else ()
    wide = ScenarioSpec(groups=tuple(MarkerGroup("independent", 60, p)
                                     for p in (0.002, 0.004, 0.006, 0.01, 0.015, 0.02,
                                               0.03, 0.05, 0.08, 0.1)),
                        xi=0.25, replicates=20, sims=200)
    specs = [(f"{name} xi={xi}", dataclasses.replace(preset_scenario(name, xi), replicates=20, sims=200))
             for name in PRESETS for xi in (0.0, 0.25)]
    for label, spec in [*specs, ("ten distinct p xi=0.25", wide)]:
        for seed in (1, 2, 3):
            for offset in (0, _NULL_RUN_OFFSET):
                pvals = _replicate_arrays(spec, RngStream(seed), offset, *threads)[0]
                emit(f"_replicate_arrays {label} seed={seed} offset={offset}", pvals.tolist())


MIXED_GROUPS = (
    MarkerGroup("independent", 40, 0.05),
    MarkerGroup("exclusive-block", 10, 0.05),
    MarkerGroup("equicorrelated-block", 12, 0.08, rho=0.5),
    MarkerGroup("independent", 300, 0.004),
    MarkerGroup("exclusive-block", 5, 0.1),
    MarkerGroup("equicorrelated-block", 8, 0.004, rho=0.9),
    MarkerGroup("independent", 60, 0.015),
)


def sampled_pair_values():
    specs = [(f"{name} xi=0.25", preset_scenario(name, 0.25)) for name in PRESETS]
    specs += [(f"mixed xi={xi}", ScenarioSpec(groups=MIXED_GROUPS, xi=xi)) for xi in (0.0, 0.3, 1.0)]
    for label, spec in specs:
        for stream in range(3):
            a, b = sample_tumor_pair(spec, RngStream(6, stream))
            emit(f"sample_tumor_pair {label} stream={stream}", (sorted(a.mutations), sorted(b.mutations)))


def scenario_values():
    for name in PRESETS:
        spec = preset_scenario(name, 0.25)
        doc = scenario_to_json_dict(spec)
        emit(f"scenario json {name}", (json.dumps(doc), scenario_from_json_dict(doc) == spec))


def random_case(gen, size, shared):
    """(probabilities, match indicators) of a random pair with |E| = size."""
    if shared:
        ps = gen.choice(gen.uniform(0.002, 0.5, int(gen.integers(1, 6))), size)
    else:
        ps = gen.uniform(0.002, 0.5, size)
    # about as many matches as the null gives, so that p-values spread over (0, 1]
    q = ps / (2.0 - ps) * gen.uniform(0.5, 3.0)
    return [float(p) for p in ps], [bool(x) for x in gen.random(size) < q]


def conditional_values():
    gen = np.random.default_rng(20151117)
    for k in range(64):
        size = int(gen.integers(1, 17) if k % 2 == 0 else gen.integers(21, 36))
        ps, matched = random_case(gen, size, shared=k % 4 >= 2)
        data = ConditionalData.from_pairs(zip(ps, matched))
        result = counts_test(*group_by_probability(ps, np.ones(size), matched),
                             sims=(1, 500, 4000)[k % 3], seed=k)
        emit(f"conditional_data_test case={k}", sorted(dataclasses.asdict(result).items()))
        s = conditional_statistic(data).statistic
        for label, threshold in (("s", s), ("s/2", s / 2), ("s+ulp", float(np.nextafter(s, np.inf)))):
            if size <= 16:
                emit(f"exact_p_value case={k} at {label}", exact_p_value(threshold, ps))
            else:
                emit(f"monte_carlo_p_value case={k} at {label}",
                     monte_carlo_p_value(threshold, ps, 2000, RngStream(k, 7)))


def exact_pool_values():
    for stratum in EXACT_STRATA:
        for variant in range(EXACT_POOL_VARIANTS):
            case = exact_pool_case(stratum, variant)
            s = conditional_statistic(ConditionalData.from_pairs(case)).statistic
            emit(f"exact_p_value case-exact {stratum}/{variant}", exact_p_value(s, [p for p, _ in case]))


if __name__ == "__main__":
    cli_values()
    harness_values()
    replicate_values()
    sampled_pair_values()
    conditional_values()
    exact_pool_values()
    scenario_values()
