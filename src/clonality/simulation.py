"""Synthetic marker universes and the operating-characteristics harness.

A scenario is a marker universe (independent markers plus optional
mutually-exclusive multinomial blocks and equicorrelated latent-Gaussian
blocks), a clonality signal, and an optional misspecification of the
analysis probabilities. The harness simulates tumor pairs from the true
universe, runs the conditional test on each pair (with the possibly
perturbed probabilities used both for the statistic and for its reference
distribution), and reports rejection rates, randomization-calibrated
rejection rates, and matching-mutation summaries. It works on per-group
counts of the markers mutated in both tumors, in A only and in B only;
marker labels exist only in :func:`sample_tumor_pair`, which draws the same
pair from the same stream.

Block generators honor per-block clonality: when a block's clonality draw
comes up clonal the whole block outcome is copied to both tumors, otherwise
the two tumors draw independently. Exclusive blocks produce at most one
mutation per tumor per block; equicorrelated blocks dichotomize a one-factor
Gaussian vector (``sqrt(rho)*Z0 + sqrt(1-rho)*Zi``) at the threshold that
preserves each marker's marginal frequency.
"""

from __future__ import annotations

import math
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .inference import (
    ConditionalData,
    UnconditionalSummary,
    group_by_probability,
    unconditional_statistic,
)
from .model import (
    MarkerCatalog,
    MutationProfile,
    clamp_probability,
    validate_probability,
    validate_xi,
)
from .nullref import (
    cached_unconditional_null,
    calibrated_rejection,
    conditional_data_test,
    p_value,
)
from .rng import RngStream

# Stream-index layout: each replicate owns a stride of role slots so that
# parallel scheduling cannot reorder draws, and the matching null-signal run
# lives at a disjoint offset under the same root seed.
_STRIDE = 4
_ROLE_DATA = 0
_ROLE_NOISE = 1
_ROLE_NULL_SAMPLER = 2
_NULL_RUN_OFFSET = 1 << 40
_UNCOND_NULL_STREAM = (1 << 41) + 1


@dataclass(frozen=True)
class MarkerGroup:
    """A homogeneous slice of the marker universe."""

    kind: str
    n_markers: int
    p: float
    rho: float = 0.0

    _KINDS = ("independent", "exclusive-block", "equicorrelated-block")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown group kind {self.kind!r}; expected one of {self._KINDS}")
        if self.n_markers < 1:
            raise ValueError("n_markers must be >= 1")
        validate_probability(self.p, "p")
        if not (0.0 <= self.rho < 1.0):
            raise ValueError(f"rho must lie in [0, 1), got {self.rho}")
        if self.kind == "exclusive-block" and self.n_markers * self.p > 1.0 + 1e-12:
            raise ValueError(
                f"exclusive block needs n_markers*p <= 1, got {self.n_markers}*{self.p}"
            )
        if self.kind != "equicorrelated-block" and self.rho != 0.0:
            raise ValueError(f"rho is only meaningful for equicorrelated blocks, got {self.rho}")


_PERTURBATION_KINDS = ("none", "logit-noise", "rare-inflation")


@dataclass(frozen=True)
class Perturbation:
    """Misspecification applied to the analysis probabilities only."""

    kind: str = "none"
    sigma: float = 0.0
    factor: float = 1.0
    threshold: float = 0.01

    def __post_init__(self):
        if self.kind not in _PERTURBATION_KINDS:
            raise ValueError(f"unknown perturbation {self.kind!r}; expected one of {_PERTURBATION_KINDS}")
        if self.kind == "logit-noise" and self.sigma <= 0.0:
            raise ValueError("logit-noise requires sigma > 0")
        if self.kind == "rare-inflation" and self.factor <= 1.0:
            raise ValueError("rare-inflation requires factor > 1")


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete simulation configuration."""

    groups: tuple[MarkerGroup, ...]
    xi: float
    perturbation: Perturbation = field(default_factory=Perturbation)
    replicates: int = 1000
    sims: int = 5000
    alpha: float = 0.05

    def __post_init__(self):
        object.__setattr__(self, "groups", tuple(self.groups))
        validate_xi(self.xi)
        if self.replicates < 1 or self.sims < 1:
            raise ValueError("replicates and sims must be >= 1")
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")

    @property
    def n_markers(self) -> int:
        return sum(g.n_markers for g in self.groups)


@dataclass(frozen=True)
class PowerReport:
    """Operating characteristics of one scenario run."""

    rejection_rate: float
    calibrated_rejection_rate: float
    mean_matches: float
    mean_mutations_per_tumor: float
    replicates: int


@dataclass(frozen=True)
class CalibratedComparison:
    """Calibrated power of the conditional vs the unconditional test."""

    calibrated_conditional_power: float
    calibrated_unconditional_power: float
    conditional_rejection_rate: float
    unconditional_rejection_rate: float


def scenario_to_json_dict(spec: ScenarioSpec) -> dict:
    """Field-for-field JSON image of a scenario."""
    return {
        "groups": [
            {"kind": g.kind, "n_markers": g.n_markers, "p": g.p, "rho": g.rho}
            for g in spec.groups
        ],
        "xi": spec.xi,
        "perturbation": {
            "kind": spec.perturbation.kind,
            "sigma": spec.perturbation.sigma,
            "factor": spec.perturbation.factor,
            "threshold": spec.perturbation.threshold,
        },
        "replicates": spec.replicates,
        "sims": spec.sims,
        "alpha": spec.alpha,
    }


def scenario_from_json_dict(doc: dict) -> ScenarioSpec:
    groups = tuple(
        MarkerGroup(kind=g["kind"], n_markers=g["n_markers"], p=g["p"], rho=g.get("rho", 0.0))
        for g in doc["groups"]
    )
    pert = doc.get("perturbation", {"kind": "none"})
    return ScenarioSpec(
        groups=groups,
        xi=doc["xi"],
        perturbation=Perturbation(
            kind=pert.get("kind", "none"),
            sigma=pert.get("sigma", 0.0),
            factor=pert.get("factor", 1.0),
            threshold=pert.get("threshold", 0.01),
        ),
        replicates=doc.get("replicates", 1000),
        sims=doc.get("sims", 5000),
        alpha=doc.get("alpha", 0.05),
    )


# ---------------------------------------------------------------------------
# Normal quantile (needed to dichotomize latent Gaussians at marginal p).
# ---------------------------------------------------------------------------

# Acklam's rational approximation of the standard normal quantile.
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)
_P_LOW = 0.02425


def _normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def normal_quantile(u: float) -> float:
    """Standard normal quantile, |Phi(x) - u| <= 1e-9.

    Rational approximation refined by one Newton step against the erf-based
    CDF, which brings the error to near machine precision.
    """
    if not (0.0 < u < 1.0):
        raise ValueError(f"quantile argument must lie strictly inside (0, 1), got {u}")
    if u < _P_LOW:
        q = math.sqrt(-2.0 * math.log(u))
        x = (((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]) / \
            ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0)
    elif u <= 1.0 - _P_LOW:
        q = u - 0.5
        r = q * q
        x = (((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]) * q / \
            (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0)
    else:
        q = math.sqrt(-2.0 * math.log(1.0 - u))
        x = -(((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]) / \
            ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0)
    density = math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    if density > 0.0:
        x -= (_normal_cdf(x) - u) / density
    return x


# ---------------------------------------------------------------------------
# Probability misspecification.
# ---------------------------------------------------------------------------

def perturb_probabilities_logit(
    ps: Sequence[float], sigma: float, rng: RngStream
) -> list[float]:
    """Additive N(0, sigma) noise on the logit scale (sigma is the SD)."""
    if sigma < 0.0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    ps = [validate_probability(p) for p in ps]
    if sigma == 0.0 or not ps:
        return list(ps)
    eps = rng.generator().normal(0.0, sigma, size=len(ps))
    logits = np.log(np.asarray(ps) / (1.0 - np.asarray(ps))) + eps
    return [clamp_probability(v) for v in 1.0 / (1.0 + np.exp(-logits))]


def inflate_rare(ps: Sequence[float], factor: float, threshold: float) -> list[float]:
    """Multiply every probability below ``threshold`` by ``factor``."""
    if factor < 1.0:
        raise ValueError(f"factor must be >= 1, got {factor}")
    return [
        clamp_probability(factor * p) if p < threshold else validate_probability(p)
        for p in ps
    ]


# ---------------------------------------------------------------------------
# Pair generators.
# ---------------------------------------------------------------------------

def _independent_pair_counts(gen: np.random.Generator, n: int, p: float, xi: float, size: int):
    """(matched, a_only, b_only) counts for an independent group, vectorized.

    Per-marker clonality indicators are collapsed to a Binomial clonal count;
    chance overlaps between the two tumors' independent-phase draws follow
    the hypergeometric law of two uniform subsets. Distributionally identical
    to per-marker sampling.
    """
    n_clonal = gen.binomial(n, xi, size=size)
    shared = gen.binomial(n_clonal, p)
    pool = n - n_clonal
    k_a = gen.binomial(pool, p)
    k_b = gen.binomial(pool, p)
    overlap = np.zeros(size, dtype=np.int64)
    drawable = (k_a > 0) & (k_b > 0)
    if drawable.any():
        overlap[drawable] = gen.hypergeometric(
            k_a[drawable], pool[drawable] - k_a[drawable], k_b[drawable]
        )
    return shared + overlap, k_a - overlap, k_b - overlap


def _exclusive_pair_cells(gen: np.random.Generator, n: int, p: float, xi: float, size: int):
    """(cell_a, cell_b) multinomial outcomes; cell == n means no mutation."""
    probs = np.full(n + 1, p)
    probs[n] = 1.0 - n * p
    probs = np.maximum(probs, 0.0)
    probs /= probs.sum()
    clonal = gen.random(size) < xi
    cell_shared = gen.choice(n + 1, size=size, p=probs)
    cell_a = gen.choice(n + 1, size=size, p=probs)
    cell_b = gen.choice(n + 1, size=size, p=probs)
    return (
        np.where(clonal, cell_shared, cell_a),
        np.where(clonal, cell_shared, cell_b),
    )


def _latent_block(gen: np.random.Generator, n: int, rho: float, size: int) -> np.ndarray:
    """One-factor equicorrelated Gaussian vectors, shape (size, n)."""
    factor = gen.normal(size=(size, 1))
    noise = gen.normal(size=(size, n))
    return math.sqrt(rho) * factor + math.sqrt(1.0 - rho) * noise


def _equicorrelated_pair_mutations(
    gen: np.random.Generator, n: int, p: float, rho: float, xi: float, size: int
):
    """(mut_a, mut_b) boolean matrices (size, n) for one latent-Gaussian block."""
    threshold = normal_quantile(1.0 - p)
    clonal = gen.random(size) < xi
    latent_shared = _latent_block(gen, n, rho, size)
    latent_a = _latent_block(gen, n, rho, size)
    latent_b = _latent_block(gen, n, rho, size)
    x_a = np.where(clonal[:, None], latent_shared, latent_a)
    x_b = np.where(clonal[:, None], latent_shared, latent_b)
    return x_a > threshold, x_b > threshold


def _marker_label(group_index: int, marker_index: int) -> str:
    return f"g{group_index}:{marker_index}"


def scenario_catalog(spec: ScenarioSpec) -> MarkerCatalog:
    """Catalog of every synthetic marker in the scenario's universe."""
    entries = {}
    for gi, group in enumerate(spec.groups):
        for i in range(group.n_markers):
            entries[_marker_label(gi, i)] = group.p
    return MarkerCatalog(entries)


def _pair_markers(spec: ScenarioSpec, rng: RngStream) -> list[tuple[np.ndarray, ...]]:
    """Draw one tumor pair: per group, the marker indices (both, A only, B only)."""
    gen = rng.generator()
    drawn = []
    for group in spec.groups:
        n = group.n_markers
        if group.kind == "independent":
            counts = [int(v[0]) for v in _independent_pair_counts(gen, n, group.p, spec.xi, 1)]
            total = sum(counts)
            ids = gen.choice(n, size=total, replace=False) if total else np.zeros(0, dtype=int)
            drawn.append(tuple(np.split(ids, np.cumsum(counts[:2]))))
            continue
        if group.kind == "exclusive-block":
            cell_a, cell_b = _exclusive_pair_cells(gen, n, group.p, spec.xi, 1)
            mut_a, mut_b = np.arange(n) == cell_a[0], np.arange(n) == cell_b[0]
        else:
            mut_a, mut_b = (m[0] for m in _equicorrelated_pair_mutations(
                gen, n, group.p, group.rho, spec.xi, 1))
        drawn.append((np.flatnonzero(mut_a & mut_b), np.flatnonzero(mut_a & ~mut_b),
                      np.flatnonzero(mut_b & ~mut_a)))
    return drawn


def sample_tumor_pair(
    spec: ScenarioSpec, rng: RngStream
) -> tuple[MutationProfile, MutationProfile]:
    """Draw one tumor pair from the scenario's generative model."""
    a_mut: list[str] = []
    b_mut: list[str] = []
    for gi, (both, a_only, b_only) in enumerate(_pair_markers(spec, rng)):
        shared = [_marker_label(gi, int(i)) for i in both]
        a_mut += shared + [_marker_label(gi, int(i)) for i in a_only]
        b_mut += shared + [_marker_label(gi, int(i)) for i in b_only]
    return (
        MutationProfile("A", frozenset(a_mut)),
        MutationProfile("B", frozenset(b_mut)),
    )


# ---------------------------------------------------------------------------
# Presets.
# ---------------------------------------------------------------------------

# Means 5/10/20 mutations per tumor: a few common loci at 0.1 plus a large
# rare background whose total mass makes the mean exact. The mean-20 row is
# reconciled to 40 common loci so the block layout and the rare frequency
# 16/9960 stay mutually consistent.
_TABLE2_LAYOUT = {
    "m5": (10, 9990, 4.0 / 9990.0),
    "m10": (20, 9980, 8.0 / 9980.0),
    "m20": (40, 9960, 16.0 / 9960.0),
}

PRESET_NAMES = (
    "table2-m5",
    "table2-m10",
    "table2-m20",
    "table3-noise",
    "table3-inflate",
    "table4-exclusive",
    "table4-corr(RHO)",
)

_CORR_RE = re.compile(r"^table4-corr\((?P<rho>[0-9.]+)\)$")


def _table2_groups(layout: str) -> tuple[MarkerGroup, ...]:
    n_common, n_rare, p_rare = _TABLE2_LAYOUT[layout]
    return (
        MarkerGroup("independent", n_common, 0.1),
        MarkerGroup("independent", n_rare, p_rare),
    )


def _block_groups(layout: str, kind: str, rho: float = 0.0) -> tuple[MarkerGroup, ...]:
    n_common, n_rare, p_rare = _TABLE2_LAYOUT[layout]
    groups = [MarkerGroup(kind, 10, 0.1, rho=rho) for _ in range(n_common // 10)]
    groups += [MarkerGroup(kind, 100, p_rare, rho=rho) for _ in range(50)]
    groups.append(MarkerGroup("independent", n_rare - 5000, p_rare))
    return tuple(groups)


def preset_scenario(name: str, xi: float) -> ScenarioSpec:
    """Named scenarios reproducing the published simulation studies.

    The misspecification and correlation presets are built on the mean-10
    universe; ``table4-corr(0.3)`` / ``table4-corr(0.9)`` select the latent
    pairwise correlation.
    """
    validate_xi(xi)
    base = dict(xi=xi, replicates=1000, sims=5000, alpha=0.05)
    if name in ("table2-m5", "table2-m10", "table2-m20"):
        return ScenarioSpec(groups=_table2_groups(name.split("-")[1]), **base)
    if name == "table3-noise":
        return ScenarioSpec(
            groups=_table2_groups("m10"),
            perturbation=Perturbation(kind="logit-noise", sigma=0.5),
            **base,
        )
    if name == "table3-inflate":
        return ScenarioSpec(
            groups=_table2_groups("m10"),
            perturbation=Perturbation(kind="rare-inflation", factor=10.0, threshold=0.01),
            **base,
        )
    if name == "table4-exclusive":
        return ScenarioSpec(groups=_block_groups("m10", "exclusive-block"), **base)
    corr = _CORR_RE.match(name)
    if corr:
        rho = float(corr.group("rho"))
        if not (0.0 <= rho < 1.0):
            raise ValueError(f"correlation must lie in [0, 1), got {rho}")
        return ScenarioSpec(
            groups=_block_groups("m10", "equicorrelated-block", rho=rho), **base
        )
    raise ValueError(f"unknown preset {name!r}; known presets: {', '.join(PRESET_NAMES)}")


# ---------------------------------------------------------------------------
# Size / power harness.
# ---------------------------------------------------------------------------

def _replicate_arrays(
    spec: ScenarioSpec,
    rng: RngStream,
    run_offset: int,
    threads: int,
    want_unconditional: bool = False,
):
    """Per-replicate p-values and summaries; thread-count invariant.

    Each pair is reduced to per-group (matched, single) counts. The groups
    are taken in the sort order of their marker labels, which is the order
    in which per-marker analysis probabilities meet the perturbation noise.
    """
    order = sorted(range(len(spec.groups)), key=lambda g: f"g{g}:")
    p = np.array([clamp_probability(spec.groups[g].p) for g in order])
    n_markers = np.array([spec.groups[g].n_markers for g in order])
    pert = spec.perturbation
    uncond_null = None
    if want_unconditional:
        universe = list(zip(*group_by_probability(p, n_markers)))
        uncond_null = cached_unconditional_null(
            universe, spec.sims, RngStream(rng.seed, rng.stream_index + _UNCOND_NULL_STREAM)
        )

    def one(i: int):
        base = rng.stream_index + run_offset + i * _STRIDE
        drawn = _pair_markers(spec, RngStream(rng.seed, base + _ROLE_DATA))
        counts = np.array([[len(ids) for ids in drawn[g]] for g in order])
        matched, single = counts[:, 0], counts[:, 1] + counts[:, 2]
        n_matches, n_single = int(matched.sum()), int(single.sum())
        n_mut = 0.5 * (2 * n_matches + n_single)
        pu = 1.0
        if want_unconditional:
            # defined for every pair; it does not condition on the mutated set
            grouped = group_by_probability(p, n_markers, matched, single)
            summary = UnconditionalSummary(tuple(zip(*grouped)))
            pu = p_value(unconditional_statistic(summary).statistic, uncond_null)
        if n_matches + n_single == 0:
            # conditional test undefined on an empty mutated set: never rejects
            return 1.0, pu, 0.0, n_mut
        ps = np.concatenate([np.repeat(p, matched), np.repeat(p, single)]).tolist()
        if pert.kind == "logit-noise":
            ps = perturb_probabilities_logit(ps, pert.sigma, RngStream(rng.seed, base + _ROLE_NOISE))
        elif pert.kind == "rare-inflation":
            ps = inflate_rare(ps, pert.factor, pert.threshold)
        data = ConditionalData.from_pairs(zip(ps, [True] * n_matches + [False] * n_single))
        result = conditional_data_test(
            data,
            sims=spec.sims,
            exact_max=0,
            seed=rng.seed,
            stream_index=base + _ROLE_NULL_SAMPLER,
        )
        return result.p_value, pu, float(n_matches), n_mut

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(one, range(spec.replicates)))
    else:
        results = [one(i) for i in range(spec.replicates)]
    # p-values, unconditional p-values, matches, mutations per tumor
    return tuple(np.array(column, dtype=float) for column in zip(*results))


def run_size_power(spec: ScenarioSpec, rng: RngStream, threads: int = 1) -> PowerReport:
    """Estimate size (xi = 0) or power of the conditional test.

    The calibrated rate re-thresholds the observed p-values against a
    matching zero-signal run (same seed, disjoint streams) so the null
    rejection rate is exactly ``alpha``; for a zero-signal scenario the run
    calibrates against itself and the calibrated rate is ``alpha`` by
    construction.
    """
    pvals, _, matches, mutations = _replicate_arrays(spec, rng, 0, threads)
    if spec.xi == 0.0:
        null_pvals = pvals
    else:
        null_spec = replace(spec, xi=0.0)
        null_pvals = _replicate_arrays(null_spec, rng, _NULL_RUN_OFFSET, threads)[0]
    rule = calibrated_rejection(null_pvals, pvals, spec.alpha)
    return PowerReport(
        rejection_rate=float(np.mean(pvals <= spec.alpha)),
        calibrated_rejection_rate=rule.calibrated_power,
        mean_matches=float(np.mean(matches)),
        mean_mutations_per_tumor=float(np.mean(mutations)),
        replicates=spec.replicates,
    )


def run_calibrated_comparison(
    spec: ScenarioSpec, rng: RngStream, threads: int = 1
) -> CalibratedComparison:
    """Calibrated power of the conditional test vs the unconditional test.

    Both tests see the same simulated pairs. The unconditional reference
    distribution is built once per universe (it does not depend on the
    observed data) and shared across replicates. Defined for correctly
    specified scenarios only.
    """
    if spec.perturbation.kind != "none":
        raise ValueError("the conditional/unconditional comparison requires unperturbed probabilities")
    alt_c, alt_u, _, _ = _replicate_arrays(spec, rng, 0, threads, want_unconditional=True)
    if spec.xi == 0.0:
        null_c, null_u = alt_c, alt_u
    else:
        null_spec = replace(spec, xi=0.0)
        null_c, null_u, _, _ = _replicate_arrays(
            null_spec, rng, _NULL_RUN_OFFSET, threads, want_unconditional=True
        )
    rule_c = calibrated_rejection(null_c, alt_c, spec.alpha)
    rule_u = calibrated_rejection(null_u, alt_u, spec.alpha)
    return CalibratedComparison(
        calibrated_conditional_power=rule_c.calibrated_power,
        calibrated_unconditional_power=rule_u.calibrated_power,
        conditional_rejection_rate=float(np.mean(alt_c <= spec.alpha)),
        unconditional_rejection_rate=float(np.mean(alt_u <= spec.alpha)),
    )
