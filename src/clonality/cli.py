"""Command-line interface: case testing, all-pairs analysis, simulations.

File formats (tab-separated, mandatory header line, ``#`` comments ignored):

* mutations file: columns ``tumor`` and ``marker``, one observed mutation per
  row. A row with an empty or missing marker field declares a tumor with no
  observed mutations (it appears in ``pairs`` output as NA).
* probability file: one row per marker, each marker once, either with columns
  ``marker``/``probability``, or in counts mode with columns ``marker``/
  ``ref_mutated``/``ref_total``/``study_mutated``/``study_total``
  (probabilities are then pooled frequencies; ``estimate-probs`` writes them
  out as a ``marker``/``probability`` file).

Exit codes: 0 success; 2 parse/validation problem; 3 unknown tumor id.
All randomness is governed by ``--seed`` (a fixed documented constant by
default), so identical invocations produce byte-identical output. Every
command runs numpy's OpenBLAS on one thread (``_blas.one_blas_thread``).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import Optional, Sequence

import numpy as np

from ._blas import one_blas_thread
from .errors import CatalogMissError, ClonalityError, FileFormatError, UnknownTumorError
from .model import PROB_CEIL, PROB_FLOOR, MarkerCatalog, MutationProfile, derive_pair_observation
from .nullref import EXACT_MAX_DEFAULT, SIMS_DEFAULT, conditional_test
from .priors import FrequencyRecord, estimate_marginal_probability
from .rng import DEFAULT_SEED, UINT64_MAX, RngStream
from .simulation import PRESET_NAMES, ScenarioSpec, preset_scenario, run_size_power

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_UNKNOWN_TUMOR = 3

_MUTATION_HEADER = ["tumor", "marker"]
_PROB_HEADER = ["marker", "probability"]
_COUNT_HEADER = ["marker", "ref_mutated", "ref_total", "study_mutated", "study_total"]
# the options of each command that bound its memory, named when it runs out
_LOWER_EXACT = "--exact-max, so that large mutated sets use Monte Carlo sampling, or --sims"
_MEMORY_OPTIONS = {"test": _LOWER_EXACT, "pairs": _LOWER_EXACT, "simulate": "--sims or --replicates"}
_PAIRS_POOL_MAX = 2  # widest `pairs` pool measured to pay; each exact pair in flight holds its own chunks


def _read_rows(path: str):
    """Yield (line_number, fields) for data lines; header handled separately."""
    # undecodable bytes become lone surrogates, which cannot be re-encoded;
    # a leading byte-order mark is dropped
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as handle:
        text = handle.read()
    try:
        text.encode("utf-8")
        bad_line = 0
    except UnicodeEncodeError as exc:  # raised in file order, once the rows before it are read
        bad_line, byte = text.count("\n", 0, exc.start) + 1, ord(text[exc.start]) - 0xDC00
    for lineno, line in enumerate(text.split("\n"), start=1):
        if lineno == bad_line:
            raise FileFormatError(path, lineno, f"byte 0x{byte:02x} is not valid UTF-8")
        if line.lstrip()[:1] in ("", "#"):  # blank or comment
            continue
        yield lineno, line.split("\t")


def _parse_header(path: str, rows, *expected: list[str]) -> list[str]:
    try:
        lineno, fields = next(rows)
    except StopIteration:
        raise FileFormatError(path, 0, "file is empty") from None
    for candidate in expected:
        if fields == candidate:
            return candidate
    wanted = " or ".join("/".join(h) for h in expected)
    raise FileFormatError(path, lineno, f"expected header {wanted}, got {'/'.join(fields)}")


def _mutation_records(path: str):
    """Yield (line number, tumor, marker) per data row of a mutations file.

    ``marker`` is empty on a row that declares a tumor with no observed
    mutations.
    """
    rows = _read_rows(path)
    _parse_header(path, rows, _MUTATION_HEADER)
    for lineno, fields in rows:
        if len(fields) not in (1, 2):
            raise FileFormatError(path, lineno, f"expected 1 or 2 fields, got {len(fields)}")
        tumor = fields[0].strip()
        if not tumor:
            raise FileFormatError(path, lineno, "empty tumor id")
        yield lineno, tumor, fields[1].strip() if len(fields) == 2 else ""


def read_mutations_file(path: str) -> dict[str, set[str]]:
    """Tumor id -> mutated marker set, preserving first-appearance order."""
    tumors: dict[str, set[str]] = {}
    for lineno, tumor, marker in _mutation_records(path):
        markers = tumors.setdefault(tumor, set())
        if not marker:
            continue
        if marker in markers:
            raise FileFormatError(path, lineno, f"duplicate mutation row: {tumor}/{marker}")
        markers.add(marker)
    if not tumors:
        raise FileFormatError(path, 0, "no tumors found")
    return tumors


def _require_cataloged(args, tumors: dict[str, set[str]], ids, catalog: MarkerCatalog):
    """Raise at the first mutations-file line of tumors ``ids`` whose marker the catalog lacks."""
    if all(marker in catalog for tumor in ids for marker in tumors[tumor]):
        return
    for lineno, tumor, marker in _mutation_records(args.mutations):
        if tumor in ids and marker and marker not in catalog:
            raise FileFormatError(args.mutations, lineno,
                                  f"marker {marker!r} not in catalog {args.probs}")


def _parse_int(path: str, lineno: int, text: str, name: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise FileFormatError(path, lineno, f"non-integer {name}: {text!r}") from None


def _marker_rows(path: str, rows, width: int):
    """Yield (line number, marker, fields) per data row of a marker table.

    Every row has ``width`` fields and a non-empty marker, and no marker
    comes twice; the first row that breaks a rule raises ``FileFormatError``.
    """
    seen = set()
    for lineno, fields in rows:
        if len(fields) != width:
            raise FileFormatError(path, lineno, f"expected {width} fields, got {len(fields)}")
        marker = fields[0].strip()
        if not marker:
            raise FileFormatError(path, lineno, "empty marker id")
        if marker in seen:
            raise FileFormatError(path, lineno, f"duplicate marker: {marker}")
        seen.add(marker)
        yield lineno, marker, fields


def _pooled_counts(path: str, rows, default_study_total: Optional[int], missing_total: str) -> dict[str, float]:
    """Marker -> pooled probability of each data row that ``rows`` yields after a counts header.

    A row with counts in range and a pooled numerator >= 1 is divided here;
    any other row goes to ``estimate_marginal_probability``, which raises or
    warns about it. Both give the same float, clamped at the end.
    """
    markers, pooled = [], []
    for lineno, marker, fields in _marker_rows(path, rows, 5):
        study_total_text = fields[4].strip()
        if not study_total_text and default_study_total is None:
            raise FileFormatError(path, lineno, missing_total)
        study_total = (_parse_int(path, lineno, study_total_text, "study_total")
                       if study_total_text else default_study_total)
        ref_mutated = _parse_int(path, lineno, fields[1], "ref_mutated")
        ref_total = _parse_int(path, lineno, fields[2], "ref_total")
        study_mutated = _parse_int(path, lineno, fields[3], "study_mutated")
        numerator = ref_mutated + study_mutated
        if 0 <= ref_mutated <= ref_total and 0 <= study_mutated <= study_total and numerator >= 1:
            pooled.append(numerator / (ref_total + study_total))
        else:
            try:
                pooled.append(estimate_marginal_probability(FrequencyRecord(
                    marker, ref_mutated, ref_total, study_mutated, study_total)))
            except ValueError as exc:
                raise FileFormatError(path, lineno, str(exc)) from None
        markers.append(marker)
    if not markers:
        raise FileFormatError(path, 0, "no count records found")
    return dict(zip(markers, np.clip(pooled, PROB_FLOOR, PROB_CEIL).tolist()))


def read_counts_file(
    path: str,
    default_study_total: Optional[int] = None,
    missing_total: str = "empty study_total and no --study-size given",
) -> dict[str, float]:
    """Counts-mode probability file pooled into marker -> probability.

    Each row is pooled as it is read, to the float
    ``estimate_marginal_probability`` gives it, and the first faulty line
    raises ``FileFormatError``. Empty study_total cells inherit the default;
    without one, an empty cell raises with the message ``missing_total``.
    """
    rows = _read_rows(path)
    _parse_header(path, rows, _COUNT_HEADER)
    return _pooled_counts(path, rows, default_study_total, missing_total)


def read_probability_file(path: str) -> MarkerCatalog:
    """Probability file in either mode, reduced to a catalog; the file is opened once.

    A counts-mode file is pooled as :func:`read_counts_file` pools it, with
    no default study_total.
    """
    rows = _read_rows(path)
    if _parse_header(path, rows, _PROB_HEADER, _COUNT_HEADER) == _COUNT_HEADER:
        return MarkerCatalog(_pooled_counts(
            path, rows, None, "empty study_total; fill it in, or pool the file first "
                              "with estimate-probs --study-size N"))
    entries: dict[str, float] = {}
    for lineno, marker, fields in _marker_rows(path, rows, 2):
        try:
            p = float(fields[1])
        except ValueError:
            raise FileFormatError(path, lineno, f"non-numeric probability: {fields[1]!r}") from None
        if not (0.0 < p < 1.0):
            raise FileFormatError(path, lineno, f"probability must lie in (0, 1), got {p}")
        entries[marker] = p
    if not entries:
        raise FileFormatError(path, 0, "no probability records found")
    return MarkerCatalog(entries)


def _profile(tumors: dict[str, set[str]], tumor_id: str) -> MutationProfile:
    if tumor_id not in tumors:
        raise UnknownTumorError(tumor_id)
    return MutationProfile(tumor_id, frozenset(tumors[tumor_id]))


def _cmd_test(args) -> int:
    tumors = read_mutations_file(args.mutations)
    catalog = read_probability_file(args.probs)
    profile_a = _profile(tumors, args.tumor_a)
    profile_b = _profile(tumors, args.tumor_b)
    if args.tumor_a == args.tumor_b:
        raise ClonalityError(f"--tumor-a and --tumor-b both name tumor {args.tumor_a!r}")
    for profile in (profile_a, profile_b):
        if not profile.mutations:
            raise ClonalityError(
                f"no mutations observed for tumor {profile.tumor_id!r}; test undefined"
            )
    _require_cataloged(args, tumors, (args.tumor_a, args.tumor_b), catalog)
    obs = derive_pair_observation(profile_a, profile_b, catalog)
    result = conditional_test(
        obs, sims=args.sims, exact_max=args.exact_max, seed=args.seed
    )
    print(json.dumps({"tumor_a": args.tumor_a, "tumor_b": args.tumor_b,
                      **dataclasses.asdict(result)}, indent=2))
    return EXIT_OK


def _cmd_pairs(args) -> int:
    tumors = read_mutations_file(args.mutations)
    catalog = read_probability_file(args.probs)
    ids = list(tumors)
    if len(ids) < 2:
        raise FileFormatError(args.mutations, 0, "need at least 2 tumors for pairwise tests")
    _require_cataloged(args, tumors, ids, catalog)
    pairs = list(itertools.combinations(ids, 2))

    def p_value_text(stream_index, pair):
        ta, tb = pair
        if not tumors[ta] or not tumors[tb]:
            # a tumor with no observed mutations is untestable, not p = 1
            return "NA"
        obs = derive_pair_observation(_profile(tumors, ta), _profile(tumors, tb), catalog)
        result = conditional_test(obs, sims=args.sims, exact_max=args.exact_max,
                                  seed=args.seed, stream_index=stream_index)
        return str(result.p_value)

    # pair k draws on stream k, so the pool's width moves no result
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    with ThreadPoolExecutor(max_workers=min(len(pairs), _PAIRS_POOL_MAX, cpus)) as pool:
        cells = dict(zip(pairs, pool.map(p_value_text, range(len(pairs)), pairs)))
    cells.update({(tb, ta): text for (ta, tb), text in cells.items()})
    lines = ["\t".join(["tumor"] + ids)]
    for ta in ids:
        row = [ta] + [cells.get((ta, tb), "NA") for tb in ids]  # NA on the diagonal
        lines.append("\t".join(row))
    print("\n".join(lines))
    return EXIT_OK


_SIMULATE_HEADER = (
    "preset\txi\treplicates\tsims\trejection_rate\tcalibrated_rejection_rate"
    "\tmean_matches\tmean_mutations"
)


def _cmd_simulate(args) -> int:
    spec = preset_scenario(args.preset, args.xi)
    spec = dataclasses.replace(spec, replicates=args.replicates, sims=args.sims)
    report = run_size_power(spec, RngStream(args.seed))
    row = "\t".join(
        str(v) for v in (
            args.preset, args.xi, report.replicates, spec.sims,
            report.rejection_rate, report.calibrated_rejection_rate,
            report.mean_matches, report.mean_mutations_per_tumor,
        )
    )
    text = _SIMULATE_HEADER + "\n" + row + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_estimate_probs(args) -> int:
    probabilities = read_counts_file(args.counts, default_study_total=args.study_size)
    print("\n".join(["\t".join(_PROB_HEADER)] + [f"{m}\t{p}" for m, p in probabilities.items()]))
    return EXIT_OK


def _add_test_options(parser: argparse.ArgumentParser):
    parser.add_argument("--mutations", required=True, help="mutations TSV (tumor, marker)")
    parser.add_argument("--probs", required=True, help="marker probability TSV")
    parser.add_argument("--sims", type=int_range(1), default=SIMS_DEFAULT,
                        help="Monte Carlo simulations when enumeration is off (default %(default)s)")
    parser.add_argument("--exact-max", type=int_range(0), default=EXACT_MAX_DEFAULT, dest="exact_max",
                        help="max mutated-set size for exact enumeration (default %(default)s; 0 forces MC)")
    parser.add_argument("--seed", type=int_range(0, UINT64_MAX), default=DEFAULT_SEED,
                        help=f"root seed for Monte Carlo sampling (default {DEFAULT_SEED})")


def int_range(low: int, high: Optional[int] = None):
    """Option type: an integer in ``low`` ... ``high`` (argparse names the option in errors)."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value
    parse.__name__ = "int"  # a non-integer is an "invalid int value", as with type=int
    return parse


def build_parser() -> argparse.ArgumentParser:
    """A new parser of the command line; :func:`main` builds one on its first call and reuses it."""
    parser = argparse.ArgumentParser(
        prog="clonality",
        description="Test tumor pairs for clonal relatedness from somatic mutation profiles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser("test", help="test one tumor pair, JSON result on stdout")
    _add_test_options(p_test)
    p_test.add_argument("--tumor-a", required=True, dest="tumor_a")
    p_test.add_argument("--tumor-b", required=True, dest="tumor_b")
    p_test.set_defaults(func=_cmd_test)

    p_pairs = sub.add_parser("pairs", help="p-value matrix over all tumor pairs (TSV)")
    _add_test_options(p_pairs)
    p_pairs.add_argument("--threads", type=int_range(1), default=1,
                         help="accepted (at least 1) and ignored: pairs run on a pool of up to 2 "
                              "threads, one per usable CPU and pair")
    p_pairs.set_defaults(func=_cmd_pairs)

    p_sim = sub.add_parser("simulate", help="run a simulation preset, report as TSV")
    p_sim.add_argument("--preset", required=True,
                       help="one of: " + ", ".join(PRESET_NAMES))
    p_sim.add_argument("--xi", required=True, type=float, help="clonality signal in [0, 1]")
    p_sim.add_argument("--replicates", type=int_range(1), default=ScenarioSpec.replicates,
                       help="simulated tumor pairs (default %(default)s)")
    p_sim.add_argument("--sims", type=int_range(1), default=ScenarioSpec.sims,
                       help="null-distribution samples per replicate (default %(default)s)")
    p_sim.add_argument("--seed", type=int_range(0, UINT64_MAX), default=DEFAULT_SEED)
    p_sim.add_argument("--out", help="write the TSV report here instead of stdout")
    p_sim.add_argument("--threads", type=int_range(1), default=1,
                       help="accepted (at least 1) and ignored: the simulation runs on one "
                            "thread, and the value changes neither the results nor the work")
    p_sim.set_defaults(func=_cmd_simulate)

    p_est = sub.add_parser("estimate-probs",
                           help="pool cohort counts into marginal probabilities")
    p_est.add_argument("--counts", required=True, help="counts-mode probability TSV")
    p_est.add_argument("--study-size", type=int_range(0), default=None, dest="study_size",
                       help="study cohort size for rows with an empty study_total")
    p_est.set_defaults(func=_cmd_estimate_probs)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` reuses: built on its first call, not at import."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        with one_blas_thread():
            return args.func(args)
    except UnknownTumorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN_TUMOR
    except (FileFormatError, CatalogMissError, ClonalityError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError:
        lower = _MEMORY_OPTIONS.get(args.command)
        print("error: out of memory" + (f"; lower {lower}" if lower else ""), file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
