"""The benchmark's workloads: seeded inputs, operations and output checks.

Each workload is a closed loop with one client. The runner executes the ops
of one cycle after another and starts an op only when the previous one has
returned. A cycle holds one op of every kind the workload mixes, and a run
executes a fixed number of whole cycles, so every run has the same op mix.
``nominal_cycle_s``, the seed code's cycle time on a 2-core host, turns
``--seconds`` into that number.

Inputs have two parts. The statistical content of every case (marker
probabilities, which markers match, cohort layouts, simulation root seeds)
comes from a fixed pool generated from ``POOL_SEED``; ``reference.json``
holds what the seed code computed for each pool entry. The run seed decides
the order in which pool entries are used and everything that cannot change a
p-value: marker and tumor names, decoy markers and tumors, and row order. A
new seed therefore writes different files of the same cost, and every output
can be checked against a recorded reference.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import clonality.cli
import clonality.simulation
from clonality import FrequencyRecord, RngStream, estimate_marginal_probability, preset_scenario

POOL_SEED = 20150836
REFERENCE_PATH = Path(__file__).with_name("reference.json")


@dataclass(frozen=True)
class Op:
    """One timed operation: ``run`` is timed, ``check`` is not.

    ``check`` receives what ``run`` returned and gives an error message, or
    None when the output is correct.
    """

    kind: str
    units: int
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]


@dataclass(frozen=True)
class CliResult:
    code: int
    out: str
    err: str


def call_cli(argv: list[str]) -> CliResult:
    """Run ``clonality.cli.main`` in-process with stdout and stderr captured.

    ``main`` is looked up on the module at call time, so a tracing wrapper
    installed there is the one that runs.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = clonality.cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad argv this way
            code = exc.code if isinstance(exc.code, int) else 2
    return CliResult(code, out.getvalue(), err.getvalue())


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def digest(content) -> str:
    """Stable identifier of a pool entry's statistical content."""
    return hashlib.sha256(repr(content).encode()).hexdigest()[:16]


def _log_uniform(rnd: random.Random, lo: float, hi: float) -> float:
    """Log-uniform draw rounded to 4 significant digits."""
    return float(f"{math.exp(rnd.uniform(math.log(lo), math.log(hi))):.4g}")


def _distinct_probabilities(rnd: random.Random, n: int, lo: float, hi: float) -> list[float]:
    values: list[float] = []
    while len(values) < n:
        p = _log_uniform(rnd, lo, hi)
        if p not in values:
            values.append(p)
    return values


_GENES = ("APC", "ATM", "BRAF", "CDH1", "EGFR", "ERBB2", "FBXW7", "GNAS", "IDH1",
          "KMT2D", "KRAS", "MTOR", "NF1", "NRAS", "PIK3CA", "PTEN", "RB1", "SMAD4",
          "SPOP", "TP53")
_AMINO = "ACDEFGHIKLMNPQRSTVWY"


class Namer:
    """Unique marker and tumor names drawn from one seeded generator."""

    def __init__(self, rnd: random.Random):
        self.rnd = rnd
        self.used: set[str] = set()

    def _unique(self, make) -> str:
        while True:
            name = make()
            if name not in self.used:
                self.used.add(name)
                return name

    def marker(self) -> str:
        r = self.rnd
        return self._unique(lambda: (
            f"{r.choice(_GENES)}{r.randint(1, 9)} "
            f"{r.choice(_AMINO)}{r.randint(10, 2999)}{r.choice(_AMINO + '*')}"
        ))

    def tumor(self, prefix: str) -> str:
        return self._unique(lambda: f"{prefix}{self.rnd.randint(100, 99999)}")


def _write(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _rates_in_unit_interval(named: dict[str, float]) -> Optional[str]:
    for name, value in named.items():
        if not (0.0 <= value <= 1.0):
            return f"{name}={value} outside [0, 1]"
    return None


# ---------------------------------------------------------------------------
# The published cases, as bundled with the package's tests.
# ---------------------------------------------------------------------------

TABLE1_MUTATIONS = """\
tumor\tmarker
T1\tAPC Q1065*
T1\tTP53 R158H
T3\tKRAS G12D
T3\tXPA G74V
T3\tPIK3CA Q546P
T3\tFBXW7 R465C
T3\tAPC R283*
T3\tAPC R499*
Right\tKRAS G12S
Right\tBRAF G596V
Right\tBAI3 V499L
Right\tPIC3C2B S314F
Right\tETS1 K200N
Left/Tubular\tKRAS G12D
Left/Tubular\tIKZF1 M301I
Left/Tubular\tPRKDC R364H
Left/Tubular\tZNF521 L1136V
Left/Tubular\tALK E405*
Left/Tubular\tGUCY1A2 V627A
Left/Tubular\tACVR2A A62G
Left/Mucinous\tKRAS G12D
Left/Mucinous\tIKZF1 M301I
Left/Mucinous\tPRKDC R364H
Left/Mucinous\tZNF521 L1136V
Left/Mucinous\tALK E405*
"""

TABLE1_PROBS = "marker\tprobability\nKRAS G12D\t0.081\nKRAS G12S\t0.019\n" + "".join(
    f"{m}\t0.004\n" for m in (
        "XPA G74V", "PIK3CA Q546P", "FBXW7 R465C", "APC R283*", "APC R499*", "APC Q1065*",
        "TP53 R158H", "BRAF G596V", "BAI3 V499L", "PIC3C2B S314F", "ETS1 K200N",
        "IKZF1 M301I", "PRKDC R364H", "ZNF521 L1136V", "ALK E405*", "GUCY1A2 V627A",
        "ACVR2A A62G",
    )
)

_T5_TRUNK = ("PTEN del.", "TP53 R248Q", "SPOP F133L")
TABLE5_MUTATIONS = "tumor\tmarker\n" + "".join(
    f"P1\t{m}\n" for m in _T5_TRUNK
) + "P2\nP3\nP4\nP5\nP6\tSPOP F133L\nP7\nP8\tSPOP F133L\nP9\nL1\n" + "".join(
    f"B1\t{m}\n" for m in _T5_TRUNK
) + "".join(
    f"{t}\t{m}\n" for t in ("M5", "M38", "M40") for m in _T5_TRUNK + ("ATRX inversion",)
)

TABLE5_PROBS = ("marker\tprobability\nPTEN del.\t0.004\nTP53 R248Q\t0.008\n"
                "SPOP F133L\t0.023\nATRX inversion\t0.004\n")

# The `test` output for T3 vs Left/Mucinous, byte for byte, as the CLI tests pin it.
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

METASTASES = ("B1", "M5", "M38", "M40")
METASTASIS_PAIRS = tuple(
    (a, b) for i, a in enumerate(METASTASES) for b in METASTASES[i + 1:]
)
TEST_KEYS = ["tumor_a", "tumor_b", "n_union", "n_matches", "xi_hat", "statistic",
             "p_value", "method", "n_sims", "seed"]


def write_published_cases(workdir: Path) -> dict[str, str]:
    paths = {}
    for name, text in (("t1_mut", TABLE1_MUTATIONS), ("t1_probs", TABLE1_PROBS),
                       ("t5_mut", TABLE5_MUTATIONS), ("t5_probs", TABLE5_PROBS)):
        path = workdir / f"{name}.tsv"
        path.write_text(text, encoding="utf-8")
        paths[name] = str(path)
    return paths


# ---------------------------------------------------------------------------
# Workload base.
# ---------------------------------------------------------------------------

class Workload:
    """Seeded inputs plus the ops of each cycle.

    ``setup`` writes every input file; ``cycle(c)`` lists the ops of cycle
    ``c``; ``check_ops`` lists untimed ops run once after the timed phase
    whose outcome still counts in ``attempted`` and ``failed``.
    """

    name = ""
    nominal_cycle_s = 1.0

    def __init__(self, seed: int, size: str, workdir: Path):
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.rnd = random.Random(f"{self.name}/{seed}")

    def setup(self) -> None:
        raise NotImplementedError

    def cycle(self, c: int) -> list[Op]:
        raise NotImplementedError

    def check_ops(self) -> list[Op]:
        return []


# ---------------------------------------------------------------------------
# case-exact: single pair tests on the exact path.
# ---------------------------------------------------------------------------

# |E| -> markers per probability level; about 2^|E| atoms, prod(size+1) fits.
EXACT_SHARED_LAYOUTS = {16: (7, 4, 3, 2), 17: (9, 5, 3), 18: (8, 5, 3, 2),
                        19: (10, 6, 3), 20: (9, 6, 3, 2)}
EXACT_MATCHED_SHARE = 0.3
EXACT_POOL_VARIANTS = 8
# Cycle order: shared-p cases between the distinct-p ones. The order is the
# same for every seed, since what ran before an op changes its time.
EXACT_STRATA = (
    "distinct-08", "shared-16", "distinct-09", "shared-17", "distinct-10", "shared-18",
    "distinct-11", "shared-19", "distinct-12", "shared-20", "distinct-13", "distinct-14",
    "distinct-15", "distinct-16",
)
EXACT_TINY_STRATA = ("distinct-08", "distinct-09", "distinct-10", "shared-16")
EXACT_DECOY_MARKERS = 20
EXACT_P_TOLERANCE = 1e-9  # relative: many exact p-values are below 1e-6


def exact_pool_case(stratum: str, variant: int) -> tuple[tuple[float, bool], ...]:
    """(probability, matched) for every marker of one pool case."""
    rnd = random.Random(f"{POOL_SEED}/case-exact/{stratum}/{variant}")
    kind, size = stratum.split("-")
    m = int(size)
    if kind == "distinct":
        ps = _distinct_probabilities(rnd, m, 0.002, 0.25)
    else:
        layout = EXACT_SHARED_LAYOUTS[m]
        levels = _distinct_probabilities(rnd, len(layout), 0.003, 0.15)
        ps = [p for p, count in zip(levels, layout) for _ in range(count)]
    matched = set(rnd.sample(range(m), round(EXACT_MATCHED_SHARE * m)))
    return tuple((p, i in matched) for i, p in enumerate(ps))


class CaseExact(Workload):
    """One `clonality test` per op; distinct-p cases are fit-bound, shared-p ones atom-bound."""

    name = "case-exact"
    nominal_cycle_s = 4.5

    def setup(self) -> None:
        ref = load_reference()["case-exact"]
        self.case_refs = ref["cases"]
        self.metastasis_refs = ref["metastasis"]
        self.strata = EXACT_TINY_STRATA if self.size == "tiny" else EXACT_STRATA
        self.paths = write_published_cases(self.workdir)
        order = {s: self.rnd.sample(range(EXACT_POOL_VARIANTS), EXACT_POOL_VARIANTS)
                 for s in self.strata}
        self.met_offset = self.rnd.randrange(len(METASTASIS_PAIRS))
        # slot -> stratum -> (mutations path, probs path, tumor a, tumor b, case)
        self.slots = []
        for slot in range(EXACT_POOL_VARIANTS):
            files = {}
            for stratum in self.strata:
                case = exact_pool_case(stratum, order[stratum][slot])
                files[stratum] = self._write_case(f"{stratum}-{slot}", case)
            self.slots.append(files)

    def _write_case(self, stem: str, case) -> tuple:
        namer = Namer(self.rnd)
        tumor_a, tumor_b, decoy = namer.tumor("A"), namer.tumor("B"), namer.tumor("D")
        rows, probs = [], []
        for p, matched in case:
            marker = namer.marker()
            probs.append(f"{marker}\t{p!r}")
            if matched:
                owners = (tumor_a, tumor_b)
            else:
                owners = (self.rnd.choice((tumor_a, tumor_b)),)
            rows += [f"{t}\t{marker}" for t in owners]
        for _ in range(EXACT_DECOY_MARKERS):
            marker = namer.marker()
            probs.append(f"{marker}\t{_log_uniform(self.rnd, 0.001, 0.3)!r}")
            if self.rnd.random() < 0.5:
                rows.append(f"{decoy}\t{marker}")
        self.rnd.shuffle(rows)
        self.rnd.shuffle(probs)
        mut = self.workdir / f"{stem}.mut.tsv"
        prob = self.workdir / f"{stem}.probs.tsv"
        _write(mut, ["tumor\tmarker"] + rows)
        _write(prob, ["marker\tprobability"] + probs)
        return str(mut), str(prob), tumor_a, tumor_b, case

    def cycle(self, c: int) -> list[Op]:
        files = self.slots[c % EXACT_POOL_VARIANTS]
        ops = [self._generated_op(stratum, *files[stratum]) for stratum in self.strata]
        ops.append(self._test_op("golden", self.paths["t1_mut"], self.paths["t1_probs"],
                                 "T3", "Left/Mucinous", self._check_golden))
        a, b = METASTASIS_PAIRS[(self.met_offset + c) % len(METASTASIS_PAIRS)]
        ops.append(self._test_op("metastasis", self.paths["t5_mut"], self.paths["t5_probs"],
                                 a, b, lambda r: self._check_metastasis(r, a, b)))
        return ops

    @staticmethod
    def _test_op(kind, mut, probs, a, b, check) -> Op:
        argv = ["test", "--mutations", mut, "--probs", probs, "--tumor-a", a, "--tumor-b", b]
        return Op(kind, 1, lambda: call_cli(argv), check)

    def _generated_op(self, stratum, mut, probs, a, b, case) -> Op:
        expected = self.case_refs.get(digest(case))
        return self._test_op(stratum, mut, probs, a, b,
                             lambda r: self._check_generated(r, a, b, case, expected))

    @staticmethod
    def _parse_test(result: CliResult, a: str, b: str):
        if result.code != 0 or result.err:
            return None, f"exit {result.code}, stderr {result.err.strip()!r}"
        payload = json.loads(result.out)
        if list(payload) != TEST_KEYS:
            return None, f"unexpected keys {list(payload)}"
        if (payload["tumor_a"], payload["tumor_b"]) != (a, b):
            return None, "tumor ids not echoed"
        if payload["method"] != "exact" or payload["n_sims"] != 0 or payload["seed"] is not None:
            return None, f"not an exact result: {payload['method']}"
        if not (0.0 <= payload["p_value"] <= 1.0 and payload["statistic"] >= 0.0
                and 0.0 <= payload["xi_hat"] <= 1.0):
            return None, f"out of range: {payload}"
        return payload, None

    def _check_generated(self, result, a, b, case, expected) -> Optional[str]:
        payload, error = self._parse_test(result, a, b)
        if error:
            return error
        if expected is None:
            return f"no recorded reference for case {digest(case)}"
        if (payload["n_union"], payload["n_matches"]) != (len(case), sum(m for _, m in case)):
            return f"counts {payload['n_union']}/{payload['n_matches']} do not match the case"
        return _reference_error(payload, expected)

    @staticmethod
    def _check_golden(result: CliResult) -> Optional[str]:
        if result.code != 0 or result.err:
            return f"exit {result.code}, stderr {result.err.strip()!r}"
        if result.out != GOLDEN_TEST_JSON:
            return f"golden bytes differ: {result.out!r}"
        return None

    def _check_metastasis(self, result, a, b) -> Optional[str]:
        payload, error = self._parse_test(result, a, b)
        if error:
            return error
        expected = self.metastasis_refs[f"{a}|{b}"]
        if payload["p_value"] >= 0.001:
            return f"metastasis pair p_value {payload['p_value']} not below 0.001"
        return _reference_error(payload, expected)


def _reference_error(payload: dict, expected: dict) -> Optional[str]:
    """Counts equal to the recorded ones and the p-value within EXACT_P_TOLERANCE."""
    for key in ("n_union", "n_matches"):
        if payload[key] != expected[key]:
            return f"{key} {payload[key]} vs reference {expected[key]}"
    if abs(payload["p_value"] - expected["p_value"]) > EXACT_P_TOLERANCE * expected["p_value"]:
        return f"p_value {payload['p_value']!r} vs reference {expected['p_value']!r}"
    return None


# ---------------------------------------------------------------------------
# cohort-mc: all-pairs tests on the Monte Carlo path, counts-mode priors.
# ---------------------------------------------------------------------------

COHORT_TUMORS = 3
COHORT_SHARED_ALL = 2   # markers mutated in every tumor of the cohort
COHORT_SHARED_PAIR = 3  # markers mutated in exactly one pair of tumors
COHORT_PRIVATE = 9      # markers private to one tumor; each pair's |E| is 29
COHORT_POOL = 8
COHORT_PER_CYCLE = 4
COHORT_MARKERS = 3000   # rows of the counts-mode probability file
COHORT_SIMS = {"full": 20_000, "tiny": 2_000}
COHORT_THREADS = 2
COHORT_MC_SEED = POOL_SEED  # fixed, so the p-values depend on the code only
MC_STANDARD_ERRORS = 4.0


def _counts_for(rnd: random.Random, p: float) -> tuple[int, int, int, int]:
    """(ref_mutated, ref_total, study_mutated, study_total) pooling to about p."""
    ref_total = rnd.randint(2000, 12000)
    study_total = rnd.randint(20, 80)
    mutated = max(1, round(p * (ref_total + study_total)))
    study_mutated = min(study_total, mutated, rnd.randint(0, 3))
    return mutated - study_mutated, ref_total, study_mutated, study_total


def _pooled(counts) -> float:
    ref_mutated, ref_total, study_mutated, study_total = counts
    return estimate_marginal_probability(
        FrequencyRecord("m", ref_mutated, ref_total, study_mutated, study_total)
    )


def cohort_pool_entry(index: int):
    """(markers' counts, each tumor's marker indices) of one pool cohort.

    Pairwise-shared markers are drawn common enough that the pairs' p-values
    spread over (0, 1); every marker's pooled probability is distinct.
    """
    rnd = random.Random(f"{POOL_SEED}/cohort-mc/{index}")
    counts, seen = [], set()

    def new_marker(lo, hi) -> int:
        while True:
            c = _counts_for(rnd, _log_uniform(rnd, lo, hi))
            if _pooled(c) not in seen:
                seen.add(_pooled(c))
                counts.append(c)
                return len(counts) - 1

    tumors = [[] for _ in range(COHORT_TUMORS)]
    for _ in range(COHORT_SHARED_ALL):
        marker = new_marker(0.1, 0.5)
        for t in tumors:
            t.append(marker)
    for i in range(COHORT_TUMORS):
        for j in range(i + 1, COHORT_TUMORS):
            for _ in range(COHORT_SHARED_PAIR):
                marker = new_marker(0.05, 0.5)
                tumors[i].append(marker)
                tumors[j].append(marker)
    for t in tumors:
        t.extend(new_marker(0.001, 0.2) for _ in range(COHORT_PRIVATE))
    return tuple(counts), tuple(tuple(t) for t in tumors)


def cohort_pair_markers(entry, i: int, j: int) -> list[tuple[float, bool]]:
    """(pooled probability, matched) over the mutated set of tumors i and j."""
    counts, tumors = entry
    a, b = set(tumors[i]), set(tumors[j])
    return [(_pooled(counts[m]), m in a and m in b) for m in sorted(a | b)]


def mc_tolerance(p_ref: float, ref_sims: int, sims: int) -> float:
    """4 Monte Carlo standard errors of the difference, plus one draw's mass.

    The extra ``1/sims`` absorbs a change of the zero-p-value rule, such as
    reporting (b+1)/(n+1) in place of b/n.
    """
    se = math.sqrt(p_ref * (1.0 - p_ref) * (1.0 / sims + 1.0 / ref_sims))
    return MC_STANDARD_ERRORS * se + 1.0 / sims


class CohortMc(Workload):
    """One `clonality pairs --threads 2` per op on a counts-mode cohort."""

    name = "cohort-mc"
    nominal_cycle_s = 4.4

    def setup(self) -> None:
        ref = load_reference()["cohort-mc"]
        self.ref_sims = ref["ref_sims"]
        self.refs = ref["cohorts"]
        self.sims = COHORT_SIMS[self.size]
        self.pool_order = self.rnd.sample(range(COHORT_POOL), COHORT_POOL)
        self.files = {k: self._write_cohort(k) for k in self.pool_order}
        self.paths = write_published_cases(self.workdir)

    def _write_cohort(self, index: int):
        entry = cohort_pool_entry(index)
        counts, tumors = entry
        namer = Namer(self.rnd)
        labels = [namer.marker() for _ in counts]
        ids = [namer.tumor("T") for _ in tumors]
        rows = ["marker\tref_mutated\tref_total\tstudy_mutated\tstudy_total"]
        body = [f"{label}\t{c[0]}\t{c[1]}\t{c[2]}\t{c[3]}" for label, c in zip(labels, counts)]
        for _ in range(COHORT_MARKERS - len(counts)):
            c = _counts_for(self.rnd, _log_uniform(self.rnd, 0.0005, 0.3))
            body.append(f"{namer.marker()}\t{c[0]}\t{c[1]}\t{c[2]}\t{c[3]}")
        self.rnd.shuffle(body)
        # tumors keep pool order: it fixes each pair's Monte Carlo stream
        mutations = ["tumor\tmarker"]
        for tumor_id, markers in zip(ids, tumors):
            markers = list(markers)
            self.rnd.shuffle(markers)
            mutations += [f"{tumor_id}\t{labels[m]}" for m in markers]
        mut = self.workdir / f"cohort-{index}.mut.tsv"
        prob = self.workdir / f"cohort-{index}.counts.tsv"
        _write(mut, mutations)
        _write(prob, rows + body)
        return str(mut), str(prob), ids, self.refs.get(digest(entry))

    def _pairs_argv(self, mut: str, prob: str) -> list[str]:
        return ["pairs", "--mutations", mut, "--probs", prob, "--sims", str(self.sims),
                "--seed", str(COHORT_MC_SEED), "--threads", str(COHORT_THREADS)]

    def cycle(self, c: int) -> list[Op]:
        ops = []
        for k in range(COHORT_PER_CYCLE):
            index = self.pool_order[(c * COHORT_PER_CYCLE + k) % COHORT_POOL]
            mut, prob, ids, expected = self.files[index]
            argv = self._pairs_argv(mut, prob)
            n_pairs = len(ids) * (len(ids) - 1) // 2
            ops.append(Op("pairs", n_pairs, lambda argv=argv: call_cli(argv),
                          lambda r, ids=ids, e=expected: self._check_cohort(r, ids, e)))
        return ops

    def check_ops(self) -> list[Op]:
        argv = ["pairs", "--mutations", self.paths["t5_mut"], "--probs", self.paths["t5_probs"]]
        return [Op("table5-pairs", 0, lambda: call_cli(argv), check_table5_matrix)]

    def _check_cohort(self, result: CliResult, ids, expected) -> Optional[str]:
        if expected is None:
            return "no recorded reference for this cohort"
        matrix, error = parse_matrix(result, ids)
        if error:
            return error
        for key, p_ref in expected.items():
            i, j = map(int, key.split("|"))
            p = float(matrix[ids[i]][ids[j]])
            if not (0.0 <= p <= 1.0):
                return f"p_value {p} outside [0, 1]"
            tol = mc_tolerance(p_ref, self.ref_sims, self.sims)
            if abs(p - p_ref) > tol:
                return f"pair {key}: p {p} vs reference {p_ref} beyond {tol:.3g}"
        return None


def parse_matrix(result: CliResult, ids: list[str]):
    """Parse a `pairs` matrix and check its shape, NA diagonal and symmetry."""
    if result.code != 0 or result.err:
        return None, f"exit {result.code}, stderr {result.err.strip()!r}"
    lines = result.out.rstrip("\n").split("\n")
    header = lines[0].split("\t")
    if header != ["tumor"] + list(ids):
        return None, f"header {header} is not tumor + {ids}"
    matrix = {}
    for line in lines[1:]:
        fields = line.split("\t")
        matrix[fields[0]] = dict(zip(header[1:], fields[1:]))
    if list(matrix) != list(ids):
        return None, "row ids differ from the header"
    for a in ids:
        if matrix[a][a] != "NA":
            return None, f"diagonal cell {a} is {matrix[a][a]}"
        for b in ids:
            if matrix[a][b] != matrix[b][a]:
                return None, f"matrix not symmetric at {a}/{b}"
    return matrix, None


def check_table5_matrix(result: CliResult) -> Optional[str]:
    """The Table 5 properties the CLI tests pin."""
    ids = ["P1", "P2", "P3", "P4", "P5", "P6", "P7", "P8", "P9", "L1", "B1", "M5", "M38", "M40"]
    matrix, error = parse_matrix(result, ids)
    if error:
        return error
    for met in METASTASES:
        if not float(matrix["P1"][met]) < 0.001:
            return f"P1/{met} p {matrix['P1'][met]} not below 0.001"
    for primary in ("P6", "P8"):
        for other in ("P1", "M5"):
            if not float(matrix[primary][other]) <= 0.025:
                return f"{primary}/{other} p {matrix[primary][other]} above 0.025"
    if matrix["P2"]["P1"] != "NA":
        return "untestable pair P2/P1 is not NA"
    return None


# ---------------------------------------------------------------------------
# sim-study: operating-characteristics scenarios at a reduced size.
# ---------------------------------------------------------------------------

SIM_SIZES = {"full": (25, 2000), "tiny": (6, 200)}  # replicates, sims
SIM_POOL = 24
SIM_ALPHA = 0.05
SIM_PUBLISHED_REPLICATES = 500  # the size at which the acceptance bounds are stated


def sim_pool_seeds() -> list[int]:
    rnd = random.Random(f"{POOL_SEED}/sim-study")
    return [rnd.randrange(1 << 32) for _ in range(SIM_POOL)]


def match_moments(spec) -> tuple[float, float, float, float]:
    """(mean, variance bound) of matches and of mutations per tumor.

    Matches are Bernoulli(xi*p + (1-xi)*p^2) per marker; independent groups
    add variances, and blocks, whose markers are dependent, are bounded by
    perfect correlation (n^2 times the per-marker variance).
    """
    mean_m = var_m = mean_t = var_t = 0.0
    for group in spec.groups:
        n, p = group.n_markers, group.p
        spread = n if group.kind == "independent" else n * n
        b = spec.xi * p + (1.0 - spec.xi) * p * p
        mean_m += n * b
        var_m += spread * b * (1.0 - b)
        mean_t += n * p
        var_t += spread * p * (1.0 - p)
    return mean_m, var_m, mean_t, var_t


def check_means(spec, mean_matches: float, mean_mutations: float) -> Optional[str]:
    """Mean matches and mutations within 4 standard errors of the analytic means."""
    mean_m, var_m, mean_t, var_t = match_moments(spec)
    for label, value, mean, var in (("mean_matches", mean_matches, mean_m, var_m),
                                    ("mean_mutations", mean_mutations, mean_t, var_t)):
        bound = 4.0 * math.sqrt(var / spec.replicates)
        if abs(value - mean) > bound:
            return f"{label} {value} vs analytic {mean:.4f} beyond {bound:.4f}"
    return None


def check_power_report(spec, report) -> Optional[str]:
    if report.replicates != spec.replicates:
        return f"replicates {report.replicates} != {spec.replicates}"
    error = _rates_in_unit_interval({
        "rejection_rate": report.rejection_rate,
        "calibrated_rejection_rate": report.calibrated_rejection_rate,
    })
    return error or check_means(spec, report.mean_matches, report.mean_mutations_per_tumor)


def check_comparison(spec, comparison) -> Optional[str]:
    """Rates in [0, 1] and the acceptance gap bound, scaled to the replicates."""
    error = _rates_in_unit_interval(dataclasses.asdict(comparison))
    if error:
        return error
    gap = abs(comparison.calibrated_conditional_power - comparison.calibrated_unconditional_power)
    bound = 0.05 * math.sqrt(SIM_PUBLISHED_REPLICATES / spec.replicates)
    if gap > bound:
        return f"calibrated power gap {gap} above {bound:.3f}"
    return None


def check_size(spec, report) -> Optional[str]:
    """Size at xi = 0: the acceptance suite's 3-sigma bound and exact calibration."""
    bound = SIM_ALPHA + 3.0 * math.sqrt(SIM_ALPHA * (1.0 - SIM_ALPHA) / spec.replicates)
    if report.rejection_rate > bound:
        return f"size {report.rejection_rate} above {bound:.3f}"
    if abs(report.calibrated_rejection_rate - SIM_ALPHA) > 1e-12:
        return f"calibrated size {report.calibrated_rejection_rate} is not alpha"
    return check_power_report(spec, report)


SIMULATE_HEADER = ("preset\txi\treplicates\tsims\trejection_rate\t"
                   "calibrated_rejection_rate\tmean_matches\tmean_mutations")


class SimStudy(Workload):
    """Cycles through three scenario runs, all single-threaded."""

    name = "sim-study"
    nominal_cycle_s = 1.3

    def setup(self) -> None:
        self.replicates, self.sims = SIM_SIZES[self.size]
        seeds = sim_pool_seeds()
        self.root_seeds = [seeds[i] for i in self.rnd.sample(range(SIM_POOL), SIM_POOL)]
        self.specs = {key: self.scenario(*key) for key in (
            ("table2-m10", 0.25), ("table4-corr(0.9)", 0.1), ("table2-m5", 0.25), ("table2-m10", 0.0)
        )}

    def scenario(self, preset: str, xi: float):
        return dataclasses.replace(preset_scenario(preset, xi), replicates=self.replicates,
                                   sims=self.sims, alpha=SIM_ALPHA)

    def cycle(self, c: int) -> list[Op]:
        root = self.root_seeds[c % SIM_POOL]
        return [self.simulate_op(root), self.corr_op(root), self.comparison_op(root)]

    def check_ops(self) -> list[Op]:
        return [self.size_op(self.root_seeds[0])]

    def simulate_op(self, root: int) -> Op:
        spec = self.specs["table2-m10", 0.25]
        argv = ["simulate", "--preset", "table2-m10", "--xi", "0.25",
                "--replicates", str(spec.replicates), "--sims", str(spec.sims),
                "--seed", str(root), "--threads", "1"]
        return Op("simulate-table2-m10", 2 * spec.replicates, lambda: call_cli(argv),
                  lambda r: self._check_simulate(spec, r))

    def corr_op(self, root: int) -> Op:
        spec = self.specs["table4-corr(0.9)", 0.1]
        return Op("size-power-table4-corr", 2 * spec.replicates,
                  lambda: clonality.simulation.run_size_power(spec, RngStream(root), threads=1),
                  lambda report: check_power_report(spec, report))

    def comparison_op(self, root: int) -> Op:
        spec = self.specs["table2-m5", 0.25]
        return Op("comparison-table2-m5", 2 * spec.replicates,
                  lambda: clonality.simulation.run_calibrated_comparison(
                      spec, RngStream(root), threads=1),
                  lambda comparison: check_comparison(spec, comparison))

    def size_op(self, root: int) -> Op:
        spec = self.specs["table2-m10", 0.0]
        return Op("size-table2-m10", spec.replicates,
                  lambda: clonality.simulation.run_size_power(spec, RngStream(root), threads=1),
                  lambda report: check_size(spec, report))

    @staticmethod
    def _check_simulate(spec, result: CliResult) -> Optional[str]:
        if result.code != 0 or result.err:
            return f"exit {result.code}, stderr {result.err.strip()!r}"
        lines = result.out.rstrip("\n").split("\n")
        if len(lines) != 2 or lines[0] != SIMULATE_HEADER:
            return f"unexpected simulate output {result.out!r}"
        fields = lines[1].split("\t")
        if fields[:4] != ["table2-m10", "0.25", str(spec.replicates), str(spec.sims)]:
            return f"simulate row does not echo its settings: {fields[:4]}"
        rates = {"rejection_rate": float(fields[4]), "calibrated_rejection_rate": float(fields[5])}
        return _rates_in_unit_interval(rates) or check_means(spec, float(fields[6]), float(fields[7]))


WORKLOADS = {w.name: w for w in (CaseExact, CohortMc, SimStudy)}
