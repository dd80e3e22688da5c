"""Print the outputs that a refactor of the test or the harness must keep bit for bit.

    python3 tools/pinned_outputs.py > tests/fixtures/pinned_outputs.txt

The first line, ``# python <x.y.z> numpy <v> blas <name> <version>``, names
the versions the values came from, and the second, ``# numpy targets
<name> ...``, the dispatch targets numpy enabled for its kernels (on x86,
``X86_V3 X86_V4 AVX512_ICL AVX512_SPR`` with AVX512 and ``X86_V3`` under
``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"``), whose
rounding some values follow. Each other line is
``name<TAB>repr(value)``. Floats print by ``repr``, which round-trips, and
numpy scalars print with their type, so a ``diff`` against the committed
fixture shows every moved bit; ``tests/test_pinned_outputs.py`` makes that
comparison. The package is imported from the ``src/`` next to this file. The
run is deterministic and takes well under a minute on a 2-vCPU machine.

Covered: the CLI ``test`` bytes of the Table 1 pair; ``pairs`` on the
Table 5 files, exact and Monte Carlo, with ``--threads`` 1 and 3, which
``pairs`` ignores: both runs use the same pool, up to 2 threads, one per
usable CPU and pair; ``test`` and
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
``run_calibrated_comparison`` at 1 and 3 threads; the sorted statistics of
``sample_unconditional_null`` at 300 sims over the ``table2-m5`` universe and
over twelve distinct probabilities of 1,000 markers each (too many patterns
for int64 keys), and the unconditional p-values of ``_replicate_arrays`` for
``table2-m5`` at xi 0 and 0.25 over three seeds and both offsets, against the null
``run_calibrated_comparison`` builds for that seed; 64 ``counts_test``
results of grouped markers by field name (labelled ``conditional_data_test``,
the adapter they once went through), exact and Monte Carlo, on distinct and
shared probabilities; ``exact_p_value`` and ``monte_carlo_p_value`` at the
observed statistic s, at s/2 and at one ulp above s; ``exact_p_value`` at
the observed statistic of each of the 112 ``case-exact`` pool cases of
``bench/workloads.py`` (distinct probabilities at |E| 8-16, shared ones at
16-20); exact ``counts_test`` results, and ``exact_p_value`` at s/2 and
one ulp above s, at |E| 14-18 on distinct probabilities, on two shared
pairs at the largest probabilities (from |E| = 17 on, 65,536-pattern
chunks start inside a block of trailing patterns) and over four shared
probabilities; ``exact_p_value`` at s, s/2 and one ulp above s of a distinct-p
case at |E| = 18 (four full 65,536-pattern chunks) and of a shared-p case
at |E| = 22 (2^22 atoms over 4 probabilities); for every preset kind
at xi 0.25, the ``json.dumps`` of ``scenario_to_json_dict`` and whether
``scenario_from_json_dict`` gives the scenario back.

The small-batch cases: Monte Carlo ``counts_test`` results whose decisions
refine near-ties to the last golden-section step (a six-probability shared
pair and the 29-marker distinct-p pairs of the ``cohort-mc`` pool); one-row
``fit_conditional_batch`` fits whose grid bracket touches xi = 0 or xi = 1,
and ``conditional_exceeds`` of each row alone at its statistic and 1e-9
either side; a batch with per-row sizes, zero-size columns and 8-14
nonzero columns per row, fitted and decided whole and three rows at a
time; ``calibrated_rejection`` on tied null p-values.

The draw and parse cases: Monte Carlo ``counts_test`` results with
probabilities above 2/3 (null match probability above 1/2), with a shared
group of n*q > 30 (numpy draws it by BTPE, not by inversion), over 64 and
70 distinct probabilities (the mixed-radix key leaves int64) and for K rows
with zero-size columns; ``estimate-probs`` and ``pairs`` on a generated
3000-row counts file, and on copies of the Table 1 counts file with a
byte-order mark and CRLF line ends, with the count cells ``' 12'``,
``'+5'`` and ``'١٢'``, with a zero pooled numerator and with an empty
``study_total``. CLI runs on counts files record their warnings as
(category, message, file name).
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import platform
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from clonality import cli  # noqa: E402
from clonality.inference import (  # noqa: E402
    ConditionalData,
    conditional_exceeds,
    conditional_statistic,
    fit_conditional_batch,
    group_by_probability,
)
from clonality.model import clamp_probability  # noqa: E402
from clonality.nullref import (  # noqa: E402
    calibrated_rejection,
    counts_test,
    exact_p_value,
    monte_carlo_p_value,
    sample_unconditional_null,
)
from clonality.rng import RngStream  # noqa: E402
from clonality.simulation import (  # noqa: E402
    _NULL_RUN_OFFSET,
    _UNCOND_NULL_STREAM,
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
from workloads import (  # noqa: E402
    COHORT_MC_SEED,
    COHORT_POOL,
    COHORT_SIMS,
    EXACT_POOL_VARIANTS,
    EXACT_STRATA,
    cohort_pair_markers,
    cohort_pool_entry,
    exact_pool_case,
)

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


def header():
    """The versions line and the dispatch targets line; ``unknown`` where numpy < 1.26 cannot say."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy < 1.26: show_config takes no mode
        blas = {}
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    targets = [target for target in __cpu_dispatch__ if __cpu_features__.get(target)]
    return (f"# python {platform.python_version()} numpy {np.__version__} "
            f"blas {blas.get('name', 'unknown')} {blas.get('version', 'unknown')}\n"
            f"# numpy targets {' '.join(targets) or 'none'}")


def cli_output(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def cli_warned(tmp, *argv):
    """``cli_output``, ``tmp`` masked in stderr, and its warnings as (category, message, file name)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = cli_output(*argv)
    return ((code, out, err.replace(tmp, "<tmp>")),
            [(w.category.__name__, str(w.message), Path(w.filename).name) for w in caught])


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


def counts_rows(gen, n_rows):
    """``n_rows`` counts-file rows of distinct made-up markers."""
    rows = []
    for m in range(n_rows):
        ref_total, study_total = int(gen.integers(2000, 12000)), int(gen.integers(20, 80))
        p = float(np.exp(gen.uniform(np.log(0.0005), np.log(0.3))))
        mutated = max(1, round(p * (ref_total + study_total)))
        study_mutated = min(study_total, mutated, int(gen.integers(0, 4)))
        rows.append(f"G{m:04d}\t{mutated - study_mutated}\t{ref_total}\t{study_mutated}\t{study_total}")
    return rows


def counts_file_values():
    gen = np.random.default_rng(3000)
    t1 = ("--mutations", str(FIXTURES / "table1_mutations.tsv"))
    table1 = cli.read_probability_file(str(FIXTURES / "table1_probs.tsv")).probabilities
    base = [f"{m}\t{max(round(1000 * p), 1)}\t1000\t0\t1" for m, p in table1.items()]
    with tempfile.TemporaryDirectory() as tmp:
        big, mutations = Path(tmp) / "big.tsv", Path(tmp) / "big.mut.tsv"
        rows = counts_rows(gen, 3000)
        big.write_text(HEADERS["counts"] + "\n".join(rows) + "\n")
        picks = [gen.choice(3000, 27, replace=False) for _ in range(3)]
        picks[1][:6], picks[2][:3], picks[2][3:6] = picks[0][:6], picks[0][:3], picks[1][6:9]
        mutations.write_text("tumor\tmarker\n" + "".join(
            f"T{t}\tG{m:04d}\n" for t, pick in enumerate(picks) for m in pick))
        (code, out, err), caught = cli_warned(tmp, "estimate-probs", "--counts", str(big))
        emit("cli estimate-probs generated 3000 rows",
             (code, hashlib.sha256(out.encode()).hexdigest(), out.count("\n"), err, caught))
        for extra in ((), ("--exact-max", "0", "--sims", "2000")):
            emit(f"cli pairs generated 3000 rows {' '.join(extra)}".rstrip(),
                 cli_warned(tmp, "pairs", "--mutations", str(mutations), "--probs", str(big), *extra))
        variants = {
            "bom crlf": "\ufeff" + (HEADERS["counts"] + "\n".join(base) + "\n").replace("\n", "\r\n"),
            "cell space-12": None, "cell +5": None, "cell arabic-indic 12": None,
            "zero numerator": None, "empty study_total": None,
        }
        cells = {"cell space-12": " 12", "cell +5": "+5", "cell arabic-indic 12": "\u0661\u0662"}
        for name in variants:
            edited = list(base)
            marker, *_ = edited[2].split("\t")
            if name in cells:
                edited[2] = f"{marker}\t{cells[name]}\t1000\t0\t1"
            elif name == "zero numerator":
                edited[2] = f"{marker}\t0\t1000\t0\t1"
            elif name == "empty study_total":
                edited[2] = f"{marker}\t12\t1000\t0\t"
            if variants[name] is None:
                variants[name] = HEADERS["counts"] + "\n".join(edited) + "\n"
            table = Path(tmp) / "variant.tsv"
            table.write_text(variants[name], encoding="utf-8", newline="")
            for study_size in ((), ("--study-size", "3")):
                emit(f"cli estimate-probs {name} {' '.join(study_size)}".rstrip(),
                     cli_warned(tmp, "estimate-probs", "--counts", str(table), *study_size))
            emit(f"cli pairs table1 counts {name}", cli_warned(tmp, "pairs", *t1, "--probs", str(table)))


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
    wide = ScenarioSpec(groups=tuple(MarkerGroup("independent", 60, p)
                                     for p in (0.002, 0.004, 0.006, 0.01, 0.015, 0.02,
                                               0.03, 0.05, 0.08, 0.1)),
                        xi=0.25, replicates=20, sims=200)
    specs = [(f"{name} xi={xi}", dataclasses.replace(preset_scenario(name, xi), replicates=20, sims=200))
             for name in PRESETS for xi in (0.0, 0.25)]
    for label, spec in [*specs, ("ten distinct p xi=0.25", wide)]:
        for seed in (1, 2, 3):
            for offset in (0, _NULL_RUN_OFFSET):
                pvals = _replicate_arrays(spec, RngStream(seed), offset)[0]
                emit(f"_replicate_arrays {label} seed={seed} offset={offset}", pvals.tolist())


TWELVE_GROUPS = [(p, 1000) for p in (0.001, 0.002, 0.004, 0.006, 0.01, 0.015,
                                     0.02, 0.03, 0.05, 0.08, 0.1, 0.2)]


def unconditional_values():
    spec = preset_scenario("table2-m5", 0.0)
    universe = list(zip(*group_by_probability([clamp_probability(g.p) for g in spec.groups],
                                              [g.n_markers for g in spec.groups])))
    for label, groups in (("table2-m5", universe), ("twelve groups", TWELVE_GROUPS)):
        null = sample_unconditional_null(groups, 300, RngStream(8, 2))
        emit(f"sample_unconditional_null {label} sims=300", sorted(null.statistics.tolist()))
    for seed in (1, 2, 3):
        null = sample_unconditional_null(universe, 200, RngStream(seed, _UNCOND_NULL_STREAM))
        for xi in (0.0, 0.25):
            spec = dataclasses.replace(preset_scenario("table2-m5", xi), replicates=20, sims=200)
            for offset in (0, _NULL_RUN_OFFSET):
                pvals = _replicate_arrays(spec, RngStream(seed), offset, null)[1]
                emit(f"_replicate_arrays table2-m5 xi={xi} unconditional seed={seed} offset={offset}",
                     pvals.tolist())


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


def draw_values():
    gen = np.random.default_rng(21)
    for k in range(8):  # null match probabilities above 1/2: numpy draws n - X
        ps = list(gen.uniform(0.67, 0.99, int(gen.integers(3, 12)))) + list(gen.uniform(0.01, 0.4, 18))
        matched = [bool(x) for x in gen.random(len(ps)) < 0.5]
        result = counts_test(*group_by_probability(ps, np.ones(len(ps)), matched),
                             sims=2000, exact_max=0, seed=k)
        emit(f"counts_test q0>1/2 case={k}", sorted(dataclasses.asdict(result).items()))
    for label, pg, sizes, matched in (
            ("btpe", [0.05, 0.3, 0.5], [4, 200, 3], [1, 40, 1]),
            ("btpe flipped", [0.05, 0.9, 0.2], [4, 200, 30], [2, 150, 4]),
            ("btpe one group", [0.4], [150], [40])):
        result = counts_test(np.array(pg), np.array(sizes), np.array(matched), sims=1500, exact_max=0, seed=9)
        emit(f"counts_test {label}", sorted(dataclasses.asdict(result).items()))
    for n_distinct in (64, 70):
        pg = np.sort(gen.uniform(0.01, 0.9, n_distinct))
        sizes = np.ones(n_distinct)
        matched = (gen.random(n_distinct) < 0.3).astype(float)
        result = counts_test(pg, sizes, matched, sims=2000, exact_max=0, seed=n_distinct)
        emit(f"counts_test {n_distinct} distinct", sorted(dataclasses.asdict(result).items()))
    pg = np.sort(gen.uniform(0.002, 0.8, 10))
    sizes = (gen.integers(1, 6, (6, 10)) * (gen.random((6, 10)) < 0.5)).astype(float)
    sizes[:, 0] += 1
    sizes[2] *= 4
    matched = np.floor(gen.random(sizes.shape) * (sizes + 1))
    for exact_max in (0, 8):
        results = counts_test(pg, sizes, matched, sims=1500, exact_max=exact_max, seed=4,
                              stream_index=[3, 1, 4, 1, 5, 9])
        emit(f"counts_test K rows zero-size columns exact_max={exact_max}",
             [sorted(dataclasses.asdict(r).items()) for r in results])


def large_exact_values():
    gen = np.random.default_rng(2218)
    distinct = gen.uniform(0.002, 0.3, 18)
    shared = np.repeat(gen.uniform(0.002, 0.3, 4), [5, 5, 6, 6])
    for label, ps in (("distinct |E|=18", distinct), ("shared |E|=22", shared)):
        ps = [float(p) for p in ps]
        matched = [bool(x) for x in gen.random(len(ps)) < 0.25]
        s = conditional_statistic(ConditionalData.from_pairs(zip(ps, matched))).statistic
        for at, threshold in (("s", s), ("s/2", s / 2), ("s+ulp", float(np.nextafter(s, np.inf)))):
            emit(f"exact_p_value {label} at {at}", exact_p_value(threshold, ps, exact_max=len(ps)))


def exact_block_values():
    gen = np.random.default_rng(1437)
    for size in range(14, 19):
        for kind in ("distinct", "two pairs", "four levels"):
            if kind == "distinct":
                ps = gen.uniform(0.002, 0.3, size)
            elif kind == "two pairs":  # the two shared probabilities are the largest, so they trail
                ps = np.concatenate([gen.uniform(0.002, 0.2, size - 4), np.repeat(gen.uniform(0.2, 0.3, 2), 2)])
            else:
                ps = gen.choice(gen.uniform(0.002, 0.3, 4), size)
            ps = [float(p) for p in ps]
            matched = [bool(x) for x in gen.random(size) < 0.3]
            result = counts_test(*group_by_probability(ps, np.ones(size), matched))
            emit(f"counts_test exact {kind} |E|={size}", sorted(dataclasses.asdict(result).items()))
            s = result.statistic
            for at, threshold in (("s/2", s / 2), ("s+ulp", float(np.nextafter(s, np.inf)))):
                emit(f"exact_p_value {kind} |E|={size} at {at}", exact_p_value(threshold, ps))


def exact_pool_values():
    for stratum in EXACT_STRATA:
        for variant in range(EXACT_POOL_VARIANTS):
            case = exact_pool_case(stratum, variant)
            s = conditional_statistic(ConditionalData.from_pairs(case)).statistic
            emit(f"exact_p_value case-exact {stratum}/{variant}", exact_p_value(s, [p for p, _ in case]))


# six probabilities over 24 markers whose 2,000 draws hold near-ties refined to the end
SHARED_MC_PAIR = ([0.104, 0.112, 0.114, 0.162, 0.191, 0.296], [3, 2, 2, 5, 5, 7], [1, 0, 1, 0, 1, 2])


def near_tie_values():
    pg, sizes, matched = map(np.array, SHARED_MC_PAIR)
    for seed in (5, 6, 7):
        result = counts_test(pg, sizes, matched, sims=2000, exact_max=0, seed=seed)
        emit(f"counts_test shared near-ties seed={seed}", sorted(dataclasses.asdict(result).items()))
    for index in range(COHORT_POOL):
        entry = cohort_pool_entry(index)
        for i, j in ((0, 1), (0, 2), (1, 2)):
            markers = cohort_pair_markers(entry, i, j)
            ps, hits = [p for p, _ in markers], [x for _, x in markers]
            result = counts_test(*group_by_probability(ps, np.ones(len(ps)), hits), exact_max=0,
                                 sims=COHORT_SIMS["full"], seed=COHORT_MC_SEED, stream_index=i + j)
            emit(f"counts_test cohort-mc pool={index} pair={i},{j}", sorted(dataclasses.asdict(result).items()))


def decisions(pg, sizes, matched, stats):
    """``conditional_exceeds`` at each row's statistic and 1e-9 either side, as 0/1 strings."""
    return ["".join(map(str, conditional_exceeds(pg, sizes, matched, stats + shift).astype(int)))
            for shift in (-1e-9, 0.0, 1e-9)]


def small_batch_values():
    gen = np.random.default_rng(3915)
    for edge in (0, 1):  # one-row fits whose grid bracket touches xi = 0 or xi = 1
        found = 0
        while found < 12:
            size = int(gen.integers(2, 17 if edge == 0 else 8))
            pg = np.sort(gen.uniform(0.002, 0.5, size))
            sizes = gen.integers(1, 4, size).astype(float)
            matched = np.zeros(size)
            if edge == 0:  # one match among many markers
                matched[gen.integers(size)] = 1.0
            else:  # a large fully matched group and one miss
                sizes[0] = gen.integers(20, 90)
                matched[:] = sizes
                matched[gen.integers(1, size)] -= 1.0
            xi, stat = fit_conditional_batch(pg, sizes, matched[None, :])
            if (0.0 < xi[0] <= 0.02) if edge == 0 else xi[0] >= 0.98:
                found += 1
                emit(f"one-row fit at xi={edge} case={found}",
                     (xi.tolist(), stat.tolist(), decisions(pg, sizes, matched[None, :], stat)))
    pg = np.sort(gen.uniform(0.002, 0.6, 14))
    sizes = (gen.integers(1, 5, (40, 14)) * (gen.random((40, 14)) < 0.8)).astype(float)
    sizes[:, :8] = np.maximum(sizes[:, :8], 1.0)  # every row has 8 or more nonzero columns
    matched = np.floor(gen.random(sizes.shape) * (sizes + 1) * 0.6)
    xi, stat = fit_conditional_batch(pg, sizes, matched)
    emit("per-row sizes batch fit", (xi.tolist(), stat.tolist()))
    emit("per-row sizes batch decisions", decisions(pg, sizes, matched, stat))
    emit("per-row sizes batch decisions at other rows' statistics",
         decisions(pg, sizes, matched, np.roll(stat, 1)))
    for start in range(0, 12, 3):
        rows = slice(start, start + 3)
        emit(f"per-row sizes rows {start}-{start + 2} decisions",
             decisions(pg, sizes[rows], matched[rows], stat[rows]))
    for label, null, alt, alpha in (
            ("ties", np.repeat([0.01, 0.04, 0.2, 0.5, 1.0], [3, 4, 10, 20, 13]),
             [0.001, 0.01, 0.03, 0.04, 0.04, 0.2, 0.7], 0.1),
            ("ties below alpha", np.repeat([0.002, 0.03, 0.3, 1.0], [2, 1, 30, 7]), [0.03, 0.002, 0.5], 0.05),
            ("smallest above alpha", np.repeat([0.2, 0.6, 1.0], [30, 40, 30]), [0.2, 0.1, 0.9], 0.05)):
        emit(f"calibrated_rejection {label}", calibrated_rejection(null.tolist(), list(alt), alpha))


if __name__ == "__main__":
    print(header())
    cli_values()
    harness_values()
    replicate_values()
    unconditional_values()
    sampled_pair_values()
    conditional_values()
    draw_values()
    counts_file_values()
    exact_pool_values()
    exact_block_values()
    large_exact_values()
    scenario_values()
    near_tie_values()
    small_batch_values()
