"""Synthetic marker universes and the operating-characteristics harness.

A scenario is a marker universe (independent markers plus optional
mutually-exclusive multinomial blocks and equicorrelated latent-Gaussian
blocks), a clonality signal, and an optional misspecification of the
analysis probabilities. The harness simulates tumor pairs from the true
universe, runs the conditional test on each pair (with the possibly
perturbed probabilities used both for the statistic and for its reference
distribution), and reports rejection rates, randomization-calibrated
rejection rates, and matching-mutation summaries. It works on per-group
counts of the markers mutated in both tumors, in A only and in B only.
Every replicate draws from its own stream, and the harness draws a run
group by group: one group kernel makes each pair's random calls on its
stream, in the order a lone pair makes them, then turns the whole group's
draws into counts at once. :func:`sample_tumor_pair` runs the same kernel
on one stream and labels the markers, so it draws the harness's pair on
that stream. The pairs' mutated markers, grouped by their
analysis probabilities, go to :func:`~clonality.nullref.counts_test`, one
call per run unless logit noise gives every replicate its own
probabilities; the unconditional statistics of a whole run, which shares
one universe, come from one batched fit.

Block generators honor per-block clonality: when a block's clonality draw
comes up clonal the whole block outcome is copied to both tumors, otherwise
the two tumors draw independently. Exclusive blocks produce at most one
mutation per tumor per block; equicorrelated blocks dichotomize a one-factor
Gaussian vector (``sqrt(rho)*Z0 + sqrt(1-rho)*Zi``) at the threshold that
preserves each marker's marginal frequency.
"""

from __future__ import annotations

import math
import numbers
import re
import statistics
from dataclasses import asdict, dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from ._blas import one_blas_thread
from .inference import fit_unconditional_batch, group_by_probability
from .model import (
    MarkerCatalog,
    MutationProfile,
    clamp_probability,
    validate_count,
    validate_probability,
    validate_xi,
)
from .nullref import (
    NullDistribution,
    calibrated_rejection,
    counts_test,
    p_value,
    sample_unconditional_null,
)
from .rng import RngStream

# Stream-index layout: each replicate owns a stride of role slots, so that its
# draws do not depend on how the run is split into calls or ordered, and the
# matching null-signal run lives at a disjoint offset under the same root seed.
_STRIDE = 4
_ROLE_DATA = 0
_ROLE_NOISE = 1
_ROLE_NULL_SAMPLER = 2
_NULL_RUN_OFFSET = 1 << 40
_UNCOND_NULL_STREAM = (1 << 41) + 1


def _check_real(name: str, value) -> None:
    """Raise ``ValueError`` unless ``value`` is a real number (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")


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
        validate_count("n_markers", self.n_markers, 1)
        _check_real("p", self.p)
        _check_real("rho", self.rho)
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
        for name in ("sigma", "factor", "threshold"):
            _check_real(name, getattr(self, name))
        if self.kind == "logit-noise" and self.sigma <= 0.0:
            raise ValueError("logit-noise requires sigma > 0")
        if self.kind == "rare-inflation" and self.factor <= 1.0:
            raise ValueError("rare-inflation requires factor > 1")
        if self.kind != "logit-noise" and self.sigma != 0.0:
            raise ValueError(f"sigma is only read by logit-noise, got {self.sigma}")
        if self.kind != "rare-inflation" and (self.factor, self.threshold) != (1.0, 0.01):
            raise ValueError("factor and threshold are only read by rare-inflation")


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
        if not self.groups:
            raise ValueError("a scenario needs at least one marker group")
        _check_real("xi", self.xi)
        _check_real("alpha", self.alpha)
        validate_xi(self.xi)
        validate_count("replicates", self.replicates, 1)
        validate_count("sims", self.sims, 1)
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
    """JSON image of a scenario: its dataclass fields, in field order."""
    return {**asdict(spec), "groups": [asdict(g) for g in spec.groups]}


def scenario_from_json_dict(doc: dict) -> ScenarioSpec:
    """Scenario from its JSON image.

    An omitted field takes its dataclass default; an unknown key raises the
    constructor's ``TypeError``, which names it.
    """
    return ScenarioSpec(**{
        **doc,
        "groups": [MarkerGroup(**g) for g in doc["groups"]],
        "perturbation": Perturbation(**doc.get("perturbation", {})),
    })


# ---------------------------------------------------------------------------
# Normal quantile (needed to dichotomize latent Gaussians at marginal p).
# ---------------------------------------------------------------------------

_STANDARD_NORMAL = statistics.NormalDist()


def normal_quantile(u: float) -> float:
    """Standard normal quantile, by the standard library (Wichura's AS241).

    Accurate to about 1e-16 relative, well within ``|Phi(x) - u| <= 1e-9``.
    """
    if not (0.0 < u < 1.0):
        raise ValueError(f"quantile argument must lie strictly inside (0, 1), got {u}")
    return _STANDARD_NORMAL.inv_cdf(u)


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

def _independent_pair_counts(gen: np.random.Generator, n: int, p: float, xi: float,
                             size: Optional[int] = None):
    """(matched, a_only, b_only) counts for an independent group.

    Per-marker clonality indicators are collapsed to a Binomial clonal count;
    chance overlaps between the two tumors' independent-phase draws follow
    the hypergeometric law of two uniform subsets. Distributionally identical
    to per-marker sampling. ``size`` pairs come as arrays; ``size=None``
    draws one pair by scalar calls, which give the numbers of ``size=1`` at
    a fraction of its call cost, and returns integers.
    """
    n_clonal = gen.binomial(n, xi, size=size)
    shared = gen.binomial(n_clonal, p)
    pool = n - n_clonal
    k_a = gen.binomial(pool, p)
    k_b = gen.binomial(pool, p)
    if size is None:
        overlap = gen.hypergeometric(k_a, pool - k_a, k_b) if k_a and k_b else 0
        return shared + overlap, k_a - overlap, k_b - overlap
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


def _latent_block(factor: np.ndarray, noise: np.ndarray, rho: float) -> np.ndarray:
    """One-factor equicorrelated Gaussian vectors from standard normal draws.

    ``factor`` (..., 1) holds each vector's common factor and ``noise``
    (..., n) its own terms.
    """
    return math.sqrt(rho) * factor + math.sqrt(1.0 - rho) * noise


def _equicorrelated_pair_mutations(
    uniform: np.ndarray, normals: np.ndarray, p: float, rho: float, xi: float
):
    """(mut_a, mut_b) boolean matrices (size, n) for one latent-Gaussian block.

    A pair is clonal when its ``uniform`` (size,) falls below ``xi``.
    ``normals`` (size, 3, n + 1) holds per pair the standard normals of the
    shared, A's and B's latent vector, each a factor then n noise terms.
    """
    threshold = normal_quantile(1.0 - p)
    latent = _latent_block(normals[..., :1], normals[..., 1:], rho)
    clonal = (uniform < xi)[:, None]
    x_a = np.where(clonal, latent[:, 0], latent[:, 1])
    x_b = np.where(clonal, latent[:, 0], latent[:, 2])
    return x_a > threshold, x_b > threshold


def _draw_group(group: MarkerGroup, xi: float, gens: Sequence[np.random.Generator]):
    """One group of K pairs, pair k drawn on ``gens[k]`` by the calls of a lone pair.

    Only the random calls run per pair; the transform to mutations and the
    reduction to (both, A only, B only) counts, shape (K, 3), run once over
    the group. Also returns what labels the pairs: for an independent group
    each pair's drawn marker indices, both then A only then B only; for a
    block the (K, n) mutation masks of A and of B.
    """
    n, p = group.n_markers, group.p
    if group.kind == "independent":
        counts, ids = [], []
        for gen in gens:
            pair = _independent_pair_counts(gen, n, p, xi)
            total = sum(pair)
            counts.append(pair)
            ids.append(gen.choice(n, size=total, replace=False) if total else np.zeros(0, dtype=int))
        return np.array(counts, dtype=np.int64), ids
    if group.kind == "exclusive-block":
        cells = np.array([_exclusive_pair_cells(gen, n, p, xi, 1) for gen in gens])
        mut_a, mut_b = np.arange(n) == cells[:, 0], np.arange(n) == cells[:, 1]
    else:
        uniform, normals = np.empty(len(gens)), np.empty((len(gens), 3, n + 1))
        for k, gen in enumerate(gens):
            uniform[k] = gen.random()
            gen.standard_normal(out=normals[k])
        mut_a, mut_b = _equicorrelated_pair_mutations(uniform, normals, p, group.rho, xi)
    counts = [(mut_a & mut_b).sum(axis=1), (mut_a & ~mut_b).sum(axis=1), (mut_b & ~mut_a).sum(axis=1)]
    return np.stack(counts, axis=1), (mut_a, mut_b)


def _marker_label(group_index: int, marker_index: int) -> str:
    return f"g{group_index}:{marker_index}"


def scenario_catalog(spec: ScenarioSpec) -> MarkerCatalog:
    """Catalog of every synthetic marker in the scenario's universe."""
    entries = {}
    for gi, group in enumerate(spec.groups):
        for i in range(group.n_markers):
            entries[_marker_label(gi, i)] = group.p
    return MarkerCatalog(entries)


def sample_tumor_pair(
    spec: ScenarioSpec, rng: RngStream
) -> tuple[MutationProfile, MutationProfile]:
    """Draw one tumor pair from the scenario's generative model.

    The pair is the harness's replicate on the same stream: :func:`_draw_group`
    draws each group with the stream's one generator.
    """
    gen = rng.generator()
    a_mut: list[str] = []
    b_mut: list[str] = []
    for gi, group in enumerate(spec.groups):
        counts, marks = _draw_group(group, spec.xi, [gen])
        if group.kind == "independent":
            both, a_only, b_only = np.split(marks[0], np.cumsum(counts[0, :2]))
            in_a, in_b = np.concatenate([both, a_only]), np.concatenate([both, b_only])
        else:
            in_a, in_b = (np.flatnonzero(mask[0]) for mask in marks)
        a_mut += [_marker_label(gi, int(i)) for i in in_a]
        b_mut += [_marker_label(gi, int(i)) for i in in_b]
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

# every match of the group is a float literal
_CORR_RE = re.compile(r"^table4-corr\((?P<rho>[0-9]+\.?[0-9]*|\.[0-9]+)\)$")


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
    pairwise correlation. Replicates, sims and alpha are the
    :class:`ScenarioSpec` defaults.
    """
    validate_xi(xi)
    if name in ("table2-m5", "table2-m10", "table2-m20"):
        return ScenarioSpec(groups=_table2_groups(name.split("-")[1]), xi=xi)
    if name == "table3-noise":
        return ScenarioSpec(
            groups=_table2_groups("m10"),
            perturbation=Perturbation(kind="logit-noise", sigma=0.5),
            xi=xi,
        )
    if name == "table3-inflate":
        return ScenarioSpec(
            groups=_table2_groups("m10"),
            perturbation=Perturbation(kind="rare-inflation", factor=10.0, threshold=0.01),
            xi=xi,
        )
    if name == "table4-exclusive":
        return ScenarioSpec(groups=_block_groups("m10", "exclusive-block"), xi=xi)
    corr = _CORR_RE.match(name)
    if corr:
        rho = float(corr.group("rho"))
        if not (0.0 <= rho < 1.0):
            raise ValueError(f"correlation must lie in [0, 1), got {rho}")
        return ScenarioSpec(groups=_block_groups("m10", "equicorrelated-block", rho=rho), xi=xi)
    raise ValueError(f"unknown preset {name!r}; known presets: {', '.join(PRESET_NAMES)}")


# ---------------------------------------------------------------------------
# Size / power harness.
# ---------------------------------------------------------------------------

def _replicate_arrays(
    spec: ScenarioSpec,
    rng: RngStream,
    run_offset: int,
    uncond_null: Optional[NullDistribution] = None,
):
    """Per-replicate p-values and summaries.

    Each pair is drawn from its own stream, and :func:`_draw_group` draws
    the run group by group over the replicates' generators, so each stream
    meets the calls of a lone pair in its order and only the counts of a
    group's pairs stay: per group (matched, single). The groups
    are taken in the sort order of their marker labels, which is the order
    in which per-marker analysis probabilities meet the perturbation noise.
    Without noise a group's analysis probability is a function of the
    group, so once all pairs are drawn the run is grouped once by analysis
    probability, each replicate one row of counts with zero-size columns
    for the probabilities it lacks, and one
    :func:`~clonality.nullref.counts_test` call tests every replicate with
    a mutated marker, each drawing its null from its own stream. Logit
    noise gives every marker of every replicate its own probability, so
    each replicate is grouped and tested alone. Every replicate of a run
    shares the universe ``(p, n_markers)``, so one
    :func:`~clonality.inference.fit_unconditional_batch` gives the run's
    unconditional statistics, whose p-values are taken against
    ``uncond_null`` when given; they are 1 otherwise.
    """
    order = sorted(range(len(spec.groups)), key=lambda g: f"g{g}:")
    p = np.array([clamp_probability(spec.groups[g].p) for g in order])
    n_markers = np.array([spec.groups[g].n_markers for g in order])
    pert = spec.perturbation
    bases = [rng.stream_index + run_offset + i * _STRIDE for i in range(spec.replicates)]
    gens = [RngStream(rng.seed, base + _ROLE_DATA).generator() for base in bases]
    # every stream draws its groups in spec order; a group's marks go once it is counted
    drawn = [_draw_group(group, spec.xi, gens)[0] for group in spec.groups]
    counts = np.stack([drawn[g] for g in order], axis=1)
    matched, single = counts[..., 0], counts[..., 1] + counts[..., 2]
    sizes = matched + single
    # the conditional test is undefined on an empty mutated set: such a pair never rejects
    tested = np.flatnonzero(sizes.sum(axis=1) > 0)
    pvals = np.ones(spec.replicates)
    options = dict(sims=spec.sims, exact_max=0, seed=rng.seed)
    if pert.kind == "logit-noise":
        for i in tested:
            n, n_matches = int(sizes[i].sum()), int(matched[i].sum())
            ps = np.concatenate([np.repeat(p, matched[i]), np.repeat(p, single[i])]).tolist()
            ps = perturb_probabilities_logit(ps, pert.sigma, RngStream(rng.seed, bases[i] + _ROLE_NOISE))
            pvals[i] = counts_test(*group_by_probability(ps, np.ones(n), np.arange(n) < n_matches),
                                   stream_index=bases[i] + _ROLE_NULL_SAMPLER, **options).p_value
    elif tested.size:
        analysis = inflate_rare(p, pert.factor, pert.threshold) if pert.kind == "rare-inflation" else p
        pg, *grouped = group_by_probability(analysis, *sizes[tested], *matched[tested])
        results = counts_test(pg, np.array(grouped[:tested.size]), np.array(grouped[tested.size:]),
                              stream_index=[bases[i] + _ROLE_NULL_SAMPLER for i in tested], **options)
        pvals[tested] = [result.p_value for result in results]
    matched, single = matched.astype(float), single.astype(float)
    pu = np.ones(spec.replicates)
    if uncond_null is not None:
        # defined for every pair; it does not condition on the mutated set
        pg, ng, *grouped = group_by_probability(p, n_markers, *matched, *single)
        stats = fit_unconditional_batch(pg, ng, grouped[:spec.replicates], grouped[spec.replicates:])[1]
        pu = np.array([p_value(stat, uncond_null) for stat in stats])
    n_matches = matched.sum(axis=1)
    # p-values, unconditional p-values, matches, mutations per tumor
    return pvals, pu, n_matches, 0.5 * (2 * n_matches + single.sum(axis=1))


def _paired_runs(spec: ScenarioSpec, rng: RngStream,
                 uncond_null: Optional[NullDistribution] = None):
    """A run of ``spec`` and its calibration run, as two ``_replicate_arrays`` results.

    The calibration run is the same scenario at xi = 0, drawn from the same
    seed at streams offset by ``_NULL_RUN_OFFSET``; a zero-signal scenario is
    its own calibration run.
    """
    run = _replicate_arrays(spec, rng, 0, uncond_null)
    if spec.xi == 0.0:
        return run, run
    return run, _replicate_arrays(replace(spec, xi=0.0), rng, _NULL_RUN_OFFSET, uncond_null)


def run_size_power(spec: ScenarioSpec, rng: RngStream, threads: int = 1) -> PowerReport:
    """Estimate size (xi = 0) or power of the conditional test.

    The calibrated rate re-thresholds the observed p-values against the
    calibration run of :func:`_paired_runs`, so that the null rejection rate
    is exactly ``alpha``. Numpy's OpenBLAS runs on one thread meanwhile
    (:func:`~clonality._blas.one_blas_thread`). ``threads`` is accepted for
    existing callers and ignored: the run is drawn on one thread, and the
    value changes neither the results nor the work.
    """
    with one_blas_thread():
        (pvals, _, matches, mutations), (null_pvals, *_) = _paired_runs(spec, rng)
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

    Both tests see the same simulated pairs, and both are calibrated against
    the calibration run of :func:`_paired_runs`. The unconditional reference
    distribution does not depend on the observed data, so it is built once
    over the scenario's universe and shared by every replicate of both
    runs. Defined for correctly specified scenarios only. Numpy's OpenBLAS
    runs on one thread meanwhile (:func:`~clonality._blas.one_blas_thread`).
    ``threads`` is accepted for existing callers and ignored, as in
    :func:`run_size_power`.
    """
    if spec.perturbation.kind != "none":
        raise ValueError("the conditional/unconditional comparison requires unperturbed probabilities")
    universe = list(zip(*group_by_probability(
        [clamp_probability(g.p) for g in spec.groups], [g.n_markers for g in spec.groups])))
    with one_blas_thread():
        uncond_null = sample_unconditional_null(
            universe, spec.sims, RngStream(rng.seed, rng.stream_index + _UNCOND_NULL_STREAM))
        (alt_c, alt_u, _, _), (null_c, null_u, _, _) = _paired_runs(spec, rng, uncond_null)
    rule_c = calibrated_rejection(null_c, alt_c, spec.alpha)
    rule_u = calibrated_rejection(null_u, alt_u, spec.alpha)
    return CalibratedComparison(
        calibrated_conditional_power=rule_c.calibrated_power,
        calibrated_unconditional_power=rule_u.calibrated_power,
        conditional_rejection_rate=float(np.mean(alt_c <= spec.alpha)),
        unconditional_rejection_rate=float(np.mean(alt_u <= spec.alpha)),
    )
