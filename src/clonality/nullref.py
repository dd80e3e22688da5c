"""Null reference distributions, p-values and calibrated rejection rules.

The conditional null fixes the observed mutated marker set E and resamples
only the match indicators, each Bernoulli with the null match probability
``q_i = p_i / (2 - p_i)``. Markers sharing a probability are exchangeable,
so the null works on per-probability match counts, grouped by
:func:`~clonality.inference.group_by_probability` exactly as the observed
fit groups them. For small E the distribution is enumerated exactly over
all 2^|E| match vectors (up to ``EXACT_ATOM_LIMIT``), walking count
patterns in chunks of ``_FIT_CHUNK``; otherwise it is sampled by Monte
Carlo. An exact p-value needs only whether each pattern's statistic reaches
the observed one, so :func:`exact_p_value` asks the decision kernel
:func:`~clonality.inference.conditional_exceeds`, which stops refining a
pattern once its answer is proven, and returns the same float as
``p_value(s, exact_conditional_null(ps))``. The unconditional null
simulates whole tumor pairs over a marker universe of ``(p, n_markers)``
groups under zero clonality signal; it does not depend on the observed
data, so one build per universe is kept in a small LRU cache and reused.

P-values count null statistics greater than or equal to the observed one
(ties are extreme): the published single-locus p-value equals the
probability of the tied outcome itself, which a strict rule would drop. A
1e-9 tie tolerance absorbs float rounding across code paths.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ClonalityError
from .inference import (
    ConditionalData,
    conditional_exceeds,
    conditional_statistic,
    fit_conditional_batch,
    fit_unconditional_batch,
    group_by_probability,
)
from .model import PairObservation, pair_outcome_probabilities, validate_probability
from .rng import DEFAULT_SEED, RngStream

TIE_TOLERANCE = 1e-9
EXACT_MAX_DEFAULT = 20
_FIT_CHUNK = 1 << 16
# Most atoms (2^|E|) an exact null may enumerate: 16.8M atoms already take
# 256 MB as statistics and probabilities, and about 1 GB while being built.
EXACT_ATOM_LIMIT = 1 << 24


@dataclass(frozen=True)
class NullDistribution:
    """Reference distribution of a test statistic under independence.

    Monte Carlo mode stores one statistic per simulation; exact mode stores
    one atom per outcome vector with its exact probability.
    """

    mode: str
    statistics: np.ndarray
    probabilities: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.mode not in ("exact", "monte-carlo"):
            raise ValueError(f"unknown mode: {self.mode!r}")
        stats = np.asarray(self.statistics, dtype=float)
        object.__setattr__(self, "statistics", stats)
        if self.mode == "exact":
            probs = np.asarray(self.probabilities, dtype=float)
            if probs.shape != stats.shape:
                raise ValueError("atom probabilities must align with statistics")
            if abs(probs.sum() - 1.0) > 1e-9:
                raise ValueError(f"atom probabilities sum to {probs.sum()}, not 1")
            object.__setattr__(self, "probabilities", probs)
        elif self.probabilities is not None:
            raise ValueError("monte-carlo mode carries no atom probabilities")
        if stats.size == 0:
            raise ValueError("null distribution is empty")

    @property
    def n(self) -> int:
        return int(self.statistics.size)


@dataclass(frozen=True)
class TestResult:
    """Outcome of one clonal-relatedness test."""

    statistic: float
    xi_hat: float
    p_value: float
    method: str
    n_sims: int
    seed: Optional[int]
    n_matches: int
    n_union: int


@dataclass(frozen=True)
class CalibratedRule:
    """Randomized rejection rule with size exactly alpha on the null sample.

    The boundary is the smallest null p-value above ``threshold``. P-values
    below the boundary are rejected, and the boundary itself with
    probability ``randomized_boundary_prob``. No null p-value lies strictly
    between ``threshold`` and the boundary, so the null size is alpha.
    """

    threshold: float
    randomized_boundary_prob: float
    calibrated_power: float


def _fit_patterns_chunked(pg, sizes, patterns):
    """fit_conditional_batch over row chunks to bound peak memory."""
    stats = np.empty(patterns.shape[0])
    for start in range(0, patterns.shape[0], _FIT_CHUNK):
        chunk = patterns[start:start + _FIT_CHUNK]
        stats[start:start + _FIT_CHUNK] = fit_conditional_batch(pg, sizes, chunk)[1]
    return stats


def sample_conditional_null(ps: Sequence[float], n_sims: int, rng: RngStream) -> NullDistribution:
    """Monte Carlo null of the conditional statistic over the marker set E.

    Each simulation draws the match indicator of every marker from its null
    probability ``q_i`` and refits the clonality signal. Markers sharing a
    probability are exchangeable, so only the per-probability match counts
    are fitted (one fit per distinct pattern).
    """
    if n_sims < 1:
        raise ValueError(f"n_sims must be >= 1, got {n_sims}")
    pg, sizes = group_by_probability(ps, np.ones(len(ps)))
    q0 = pg / (2.0 - pg)
    gen = rng.generator()
    matched = np.column_stack(
        [gen.binomial(int(sizes[g]), q0[g], size=n_sims) for g in range(len(pg))]
    )
    patterns, inverse = np.unique(matched, axis=0, return_inverse=True)
    stats = _fit_patterns_chunked(pg, sizes, patterns.astype(float))
    return NullDistribution(mode="monte-carlo", statistics=stats[inverse])


def _exact_patterns(ps: Sequence[float], exact_max: int):
    """Count patterns of the exact null, checked against the size limits.

    Raises before allocating anything when ``|E|`` exceeds ``exact_max`` or
    2^|E| exceeds ``EXACT_ATOM_LIMIT``. Returns ``(pg, sizes, chunks)``;
    ``chunks`` yields ``(patterns, atom_prob, reps)`` for up to
    ``_FIT_CHUNK`` patterns at a time, in one fixed order: the
    per-probability match counts, the product-Bernoulli mass of one match
    vector with those counts, and the number of match vectors sharing them.
    """
    if len(ps) > exact_max:
        raise ClonalityError(
            f"exact enumeration over {len(ps)} markers exceeds exact_max={exact_max}; "
            "use Monte Carlo sampling instead"
        )
    if 2 ** len(ps) > EXACT_ATOM_LIMIT:
        raise ClonalityError(
            f"exact enumeration over {len(ps)} markers needs 2^{len(ps)} = "
            f"{2 ** len(ps):,} atoms, over the limit of {EXACT_ATOM_LIMIT:,}; lower "
            f"--exact-max (exact_max) to {EXACT_ATOM_LIMIT.bit_length() - 1} or less "
            "so that larger sets use Monte Carlo sampling"
        )
    pg, sizes = group_by_probability(ps, np.ones(len(ps)))
    q0 = pg / (2.0 - pg)
    counts = sizes.astype(int)
    shape = tuple(counts + 1)
    n_patterns = math.prod(shape)
    choose = [np.array([math.comb(c, k) for k in range(c + 1)], dtype=float) for c in counts]

    def chunks():
        for start in range(0, n_patterns, _FIT_CHUNK):
            flat = np.arange(start, min(start + _FIT_CHUNK, n_patterns))
            patterns = np.column_stack(np.unravel_index(flat, shape)).astype(float)
            log_vector_prob = patterns @ np.log(q0) + (sizes[None, :] - patterns) @ np.log1p(-q0)
            multiplicity = np.ones(patterns.shape[0])
            for g, table in enumerate(choose):
                multiplicity *= table[patterns[:, g].astype(int)]
            yield patterns, np.exp(log_vector_prob), multiplicity.astype(np.int64)

    return pg, sizes, chunks()


def exact_conditional_null(ps: Sequence[float], exact_max: int = EXACT_MAX_DEFAULT) -> NullDistribution:
    """Exact null: every match vector over E with its product-Bernoulli mass.

    One atom per outcome vector (2^|E| atoms); vectors with identical
    per-probability match counts share a statistic, so the fit cost is one
    per distinct count pattern.
    """
    pg, sizes, chunks = _exact_patterns(ps, exact_max)
    stats, probs, reps = [], [], []
    for patterns, atom_prob, rep in chunks:
        stats.append(fit_conditional_batch(pg, sizes, patterns)[1])
        probs.append(atom_prob)
        reps.append(rep)
    reps = np.concatenate(reps)
    return NullDistribution(
        mode="exact",
        statistics=np.repeat(np.concatenate(stats), reps),
        probabilities=np.repeat(np.concatenate(probs), reps),
    )


def p_value(observed: float, null: NullDistribution) -> float:
    """Mass of null statistics >= observed (ties count as extreme)."""
    extreme = null.statistics >= observed - TIE_TOLERANCE
    if extreme.all():
        return 1.0  # avoids 1-ulp shortfalls from float atom sums
    if null.mode == "exact":
        return float(min(null.probabilities[extreme].sum(), 1.0))
    return float(np.mean(extreme))


def exact_p_value(observed: float, ps: Sequence[float], exact_max: int = EXACT_MAX_DEFAULT) -> float:
    """``p_value(observed, exact_conditional_null(ps, exact_max))``, faster.

    Each count pattern is only decided, statistic >= ``observed -
    TIE_TOLERANCE`` or not, by :func:`conditional_exceeds`, which answers as
    the full fit would. The extreme atoms are then laid out and summed as
    :func:`p_value` does, so the result is the same float.
    """
    pg, sizes, chunks = _exact_patterns(ps, exact_max)
    threshold = observed - TIE_TOLERANCE
    probs, reps = [], []
    every = True
    for patterns, atom_prob, rep in chunks:
        extreme = conditional_exceeds(pg, sizes, patterns, threshold)
        every = every and bool(extreme.all())
        probs.append(atom_prob[extreme])
        reps.append(rep[extreme])
    if every:
        return 1.0
    return float(min(np.repeat(np.concatenate(probs), np.concatenate(reps)).sum(), 1.0))


def critical_value(null: NullDistribution, alpha: float) -> float:
    """Smallest null value whose strict-exceedance mass is below alpha."""
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if null.mode == "exact":
        order = np.argsort(null.statistics)
        vals = null.statistics[order]
        weights = null.probabilities[order]
    else:
        vals = np.sort(null.statistics)
        weights = np.full(vals.size, 1.0 / vals.size)
    distinct, start = np.unique(vals, return_index=True)
    cum = np.cumsum(weights)
    # mass at or below each distinct value = cum just before the next block
    upto = np.append(start[1:], vals.size) - 1
    exceed = 1.0 - cum[upto]
    idx = int(np.argmax(exceed < alpha))
    return float(distinct[idx])


def conditional_data_test(
    data: ConditionalData,
    *,
    sims: int = 100_000,
    exact_max: int = EXACT_MAX_DEFAULT,
    seed: int = DEFAULT_SEED,
    stream_index: int = 0,
) -> TestResult:
    """Conditional test of one pair's mutated markers and match indicators.

    Uses exact enumeration when ``|E| <= exact_max`` (set ``exact_max=0`` to
    force Monte Carlo with ``sims`` draws from stream ``(seed,
    stream_index)``).
    """
    if len(data) == 0:
        raise ValueError("no mutations observed; test undefined")
    fit = conditional_statistic(data)
    ps = [p for p, _ in data.markers]
    if len(data) <= exact_max:
        p = exact_p_value(fit.statistic, ps, exact_max)
        method, n_sims, used_seed = "exact", 0, None
    else:
        p = p_value(fit.statistic, sample_conditional_null(ps, sims, RngStream(seed, stream_index)))
        method, n_sims, used_seed = "monte-carlo", sims, seed
    return TestResult(
        statistic=fit.statistic,
        xi_hat=fit.xi_hat,
        p_value=p,
        method=method,
        n_sims=n_sims,
        seed=used_seed,
        n_matches=sum(x for _, x in data.markers),
        n_union=len(data),
    )


def conditional_test(
    obs: PairObservation,
    *,
    sims: int = 100_000,
    exact_max: int = EXACT_MAX_DEFAULT,
    seed: int = DEFAULT_SEED,
    stream_index: int = 0,
) -> TestResult:
    """End-to-end conditional test of one tumor pair, by :func:`conditional_data_test`."""
    return conditional_data_test(ConditionalData.from_observation(obs), sims=sims,
                                 exact_max=exact_max, seed=seed, stream_index=stream_index)


def sample_unconditional_null(
    universe: Sequence[tuple[float, int]], n_sims: int, rng: RngStream
) -> NullDistribution:
    """Monte Carlo null of the unconditional statistic over a marker universe.

    ``universe`` lists ``(p, n_markers)`` groups. Pairs are simulated under
    zero signal; per-group outcome counts are multinomial, which is all the
    grouped likelihood needs.
    """
    if n_sims < 1:
        raise ValueError(f"n_sims must be >= 1, got {n_sims}")
    gen = rng.generator()
    pg = np.array([validate_probability(p) for p, _ in universe])
    ng = np.array([int(n) for _, n in universe], dtype=float)
    matched_cols, single_cols = [], []
    for (p, n) in universe:
        cells = pair_outcome_probabilities(p, 0.0)
        draws = gen.multinomial(int(n), [cells.both, cells.exactly_one, cells.neither], size=n_sims)
        matched_cols.append(draws[:, 0])
        single_cols.append(draws[:, 1])
    matched = np.column_stack(matched_cols).astype(float)
    single = np.column_stack(single_cols).astype(float)
    _, stats, _ = fit_unconditional_batch(pg, ng, matched, single)
    return NullDistribution(mode="monte-carlo", statistics=stats)


# Entries kept by cached_unconditional_null, least recently used evicted
# first. A scenario run uses one entry per root seed and stream.
_UNCOND_CACHE_MAX = 32
_UNCOND_CACHE: OrderedDict = OrderedDict()
_UNCOND_LOCK = threading.Lock()


def cached_unconditional_null(
    universe: Sequence[tuple[float, int]], n_sims: int, rng: RngStream
) -> NullDistribution:
    """Memoized :func:`sample_unconditional_null` keyed by universe and stream."""
    key = (tuple((float(p), int(n)) for p, n in universe), int(n_sims), rng.seed, rng.stream_index)
    with _UNCOND_LOCK:
        hit = _UNCOND_CACHE.get(key)
        if hit is not None:
            _UNCOND_CACHE.move_to_end(key)
            return hit
    built = sample_unconditional_null(universe, n_sims, rng)
    with _UNCOND_LOCK:
        kept = _UNCOND_CACHE.setdefault(key, built)
        _UNCOND_CACHE.move_to_end(key)
        while len(_UNCOND_CACHE) > _UNCOND_CACHE_MAX:
            _UNCOND_CACHE.popitem(last=False)
        return kept


def calibrated_rejection(
    null_pvalues: Sequence[float], alt_pvalues: Sequence[float], alpha: float
) -> CalibratedRule:
    """Randomize the rejection threshold so the null rejection rate is alpha.

    ``threshold`` is the largest null p-value whose null mass at or below it
    does not exceed alpha (or, when the smallest null p-value alone holds
    more than alpha, the float just below it). P-values below the next null
    p-value, the boundary, are rejected, and the boundary with exactly the
    probability that brings the size to alpha.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    null_p = np.sort(np.asarray(null_pvalues, dtype=float))
    alt_p = np.asarray(alt_pvalues, dtype=float)
    if null_p.size == 0 or alt_p.size == 0:
        raise ValueError("both p-value samples must be nonempty")

    values = np.unique(null_p)
    frac_at_or_below = np.searchsorted(null_p, values, side="right") / null_p.size
    eligible = frac_at_or_below <= alpha
    if eligible.any():
        threshold = float(values[eligible][-1])
        size_at_threshold = float(frac_at_or_below[eligible][-1])
    else:
        threshold = float(np.nextafter(values[0], -np.inf))
        size_at_threshold = 0.0

    # the largest null p-value holds mass 1 > alpha, so a boundary exists
    boundary = float(values[values > threshold][0])
    gamma = (alpha - size_at_threshold) / float(np.mean(null_p == boundary))
    power = float(np.mean(alt_p < boundary)) + gamma * float(np.mean(alt_p == boundary))
    return CalibratedRule(
        threshold=threshold,
        randomized_boundary_prob=gamma,
        calibrated_power=power,
    )
