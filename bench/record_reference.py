"""Record reference.json: what the package computes for every pool entry.

    python3 bench/record_reference.py            # about 5 minutes on 2 cores

* case-exact: the exact p-value of every pool case and of the Table 5
  metastasis pairs, checked by the benchmark to 1e-9.
* cohort-mc: a Monte Carlo p-value from REF_SIMS draws, on streams the
  benchmark never uses, for every pair of every pool cohort. The benchmark
  checks its own p-values against these within 4 standard errors.
* sim-study: nothing is recorded, since those checks are analytic; the
  script only confirms that every pool root seed passes them.

Each cohort's benchmark p-values, at both sizes, must pass the benchmark's
check before the reference is written. Afterwards every sim-study root seed
runs through the benchmark's checks at both sizes; the script exits 1 and
lists them if any fails. On the seed code one does: at the tiny size, root
1987068263 gets a calibrated size of 0.217 instead of 0.05, because a sixth
of its null p-values are exactly 0 and ``calibrated_rejection`` rejects that
whole atom.
"""

import json
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import numpy as np  # noqa: E402

import workloads as w  # noqa: E402
from clonality import (  # noqa: E402
    ConditionalData,
    MutationProfile,
    PairObservation,
    RngStream,
    conditional_test,
    derive_pair_observation,
)
from clonality.cli import read_mutations_file, read_probability_file  # noqa: E402
from clonality.inference import conditional_statistic  # noqa: E402
from clonality.nullref import p_value, sample_conditional_null  # noqa: E402

REF_SIMS_CHUNK = 100_000
REF_CHUNKS = 5
REF_SEED = w.POOL_SEED + 1  # disjoint from the streams the benchmark samples
WORK = BENCH / "_work"


def observation(markers) -> PairObservation:
    labelled = [(f"m{i}", p, matched) for i, (p, matched) in enumerate(markers)]
    return PairObservation(shared=tuple((m, p) for m, p, x in labelled if x),
                           unshared=tuple((m, p) for m, p, x in labelled if not x))


def case_exact() -> dict:
    cases = {}
    for stratum in w.EXACT_STRATA:
        for variant in range(w.EXACT_POOL_VARIANTS):
            case = w.exact_pool_case(stratum, variant)
            result = conditional_test(observation(case))
            assert result.method == "exact"
            cases[w.digest(case)] = {"stratum": stratum, "variant": variant,
                                     "p_value": result.p_value, "n_union": result.n_union,
                                     "n_matches": result.n_matches}
        print(f"case-exact {stratum}: recorded {w.EXACT_POOL_VARIANTS} cases", flush=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        paths = w.write_published_cases(Path(tmp))
        tumors = read_mutations_file(paths["t5_mut"])
        catalog = read_probability_file(paths["t5_probs"])
    metastasis = {}
    for a, b in w.METASTASIS_PAIRS:
        obs = derive_pair_observation(MutationProfile(a, frozenset(tumors[a])),
                                      MutationProfile(b, frozenset(tumors[b])), catalog)
        result = conditional_test(obs)
        metastasis[f"{a}|{b}"] = {"p_value": result.p_value, "n_matches": result.n_matches,
                                  "n_union": result.n_union}
    return {"cases": cases, "metastasis": metastasis}


def cohort_mc() -> dict:
    cohorts = {}
    for index in range(w.COHORT_POOL):
        entry = w.cohort_pool_entry(index)
        refs, pair_index = {}, 0
        for i in range(w.COHORT_TUMORS):
            for j in range(i + 1, w.COHORT_TUMORS):
                markers = w.cohort_pair_markers(entry, i, j)
                ps = [p for p, _ in markers]
                observed = conditional_statistic(ConditionalData.from_pairs(markers)).statistic
                p_ref = float(np.mean([
                    p_value(observed, sample_conditional_null(
                        ps, REF_SIMS_CHUNK, RngStream(REF_SEED, 1000 * index + chunk)))
                    for chunk in range(REF_CHUNKS)
                ]))
                for sims in w.COHORT_SIMS.values():
                    got = conditional_test(observation(markers), sims=sims,
                                           seed=w.COHORT_MC_SEED, stream_index=pair_index).p_value
                    tol = w.mc_tolerance(p_ref, REF_CHUNKS * REF_SIMS_CHUNK, sims)
                    assert abs(got - p_ref) <= tol, (index, i, j, sims, got, p_ref, tol)
                refs[f"{i}|{j}"] = p_ref
                pair_index += 1
        cohorts[w.digest(entry)] = refs
        print(f"cohort-mc {index}: {refs}", flush=True)
    return {"ref_sims": REF_CHUNKS * REF_SIMS_CHUNK, "cohorts": cohorts}


def confirm_sim_study() -> list[tuple]:
    """Every pool root seed through every sim-study op and check, at both sizes."""
    failures = []
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        for size in ("tiny", "full"):
            study = w.SimStudy(w.POOL_SEED, size, Path(tmp))
            study.setup()
            for root in w.sim_pool_seeds():
                for op in (study.simulate_op(root), study.corr_op(root),
                           study.comparison_op(root), study.size_op(root)):
                    error = op.check(op.run())
                    if error is not None:
                        failures.append((size, root, op.kind, error))
                        print(f"sim-study {size} root {root} {op.kind}: {error}", flush=True)
            print(f"sim-study {size}: checked {w.SIM_POOL} pool seeds", flush=True)
    return failures


def main() -> int:
    WORK.mkdir(exist_ok=True)
    reference = {"case-exact": case_exact(), "cohort-mc": cohort_mc()}
    with open(w.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {w.REFERENCE_PATH}")
    return 1 if confirm_sim_study() else 0


if __name__ == "__main__":
    sys.exit(main())
