"""Generative probability model for somatic-mutation outcomes on a tumor pair.

Each marker (a specific gene variant, e.g. ``"KRAS G12D"``) carries a marginal
mutation probability ``p``. A tumor pair with clonality signal ``xi`` mutates
a marker in one of two phases: with probability ``xi`` the mutation status is
decided once in the shared clonal phase (both tumors inherit it), otherwise
each tumor mutates independently with probability ``p``. The closed-form
outcome probabilities are::

    both        = xi*p + (1-xi)*p^2
    exactly_one = 2*(1-xi)*p*(1-p)
    neither     = xi*(1-p) + (1-xi)*(1-p)^2

so each tumor's marginal mutation probability is ``p`` for every ``xi``, and
``xi = 0`` recovers fully independent tumors.

This module also reduces two raw mutation profiles to the observation the
test statistics consume: the set of markers matched in both tumors and the
set mutated in exactly one.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .errors import CatalogMissError

# Probabilities entering a catalog are clamped inside the open unit interval:
# p in {0, 1} makes the match weights undefined, and an observed mutation
# logically implies p > 0.
PROB_FLOOR = 1e-6
PROB_CEIL = 1.0 - 1e-6


def clamp_probability(p: float) -> float:
    """Clamp a probability to [PROB_FLOOR, PROB_CEIL]."""
    if not (p == p) or p in (float("inf"), float("-inf")):  # NaN / infinite
        raise ValueError(f"probability must be finite, got {p}")
    return min(max(float(p), PROB_FLOOR), PROB_CEIL)


def validate_probability(p: float, name: str = "p") -> float:
    """Require p strictly inside (0, 1)."""
    if not (0.0 < p < 1.0):
        raise ValueError(f"{name} must lie strictly inside (0, 1), got {p}")
    return float(p)


def validate_count(name: str, value, least: int) -> None:
    """Raise ``ValueError`` unless ``value`` is an integer (not a bool) >= ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def validate_xi(xi: float) -> float:
    """Require a clonality signal in [0, 1]."""
    if not (0.0 <= xi <= 1.0):
        raise ValueError(f"clonality signal must lie in [0, 1], got {xi}")
    return float(xi)


@dataclass(frozen=True)
class MarkerCatalog:
    """Maps each marker id to its marginal mutation probability.

    Probabilities are clamped on construction; marker ids are opaque strings
    compared by exact equality (no nomenclature normalization).
    """

    probabilities: Mapping[str, float]

    def __post_init__(self):
        clean = {}
        for marker, p in self.probabilities.items():
            if not marker:
                raise ValueError("marker ids must be nonempty strings")
            clean[str(marker)] = clamp_probability(p)
        object.__setattr__(self, "probabilities", clean)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[str, float]]) -> "MarkerCatalog":
        """Build from (marker, probability) pairs, rejecting duplicates."""
        entries: dict[str, float] = {}
        for marker, p in pairs:
            if marker in entries:
                raise ValueError(f"duplicate marker in catalog: {marker!r}")
            entries[marker] = p
        return cls(entries)

    def probability(self, marker: str) -> float:
        try:
            return self.probabilities[marker]
        except KeyError:
            raise CatalogMissError(marker) from None

    def __contains__(self, marker: str) -> bool:
        return marker in self.probabilities

    def __len__(self) -> int:
        return len(self.probabilities)


@dataclass(frozen=True)
class MutationProfile:
    """One tumor's observed somatic mutations."""

    tumor_id: str
    mutations: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "mutations", frozenset(self.mutations))


@dataclass(frozen=True)
class PairObservation:
    """Derived observation for one tumor pair.

    ``shared`` lists the matched markers (mutated in both tumors) with their
    probabilities; ``unshared`` lists markers mutated in exactly one tumor.
    Both are sorted by marker id, so the observation is identical regardless
    of the order the two profiles were given in.
    """

    shared: tuple[tuple[str, float], ...]
    unshared: tuple[tuple[str, float], ...]

    def __post_init__(self):
        overlap = {m for m, _ in self.shared} & {m for m, _ in self.unshared}
        if overlap:
            raise ValueError(f"markers cannot be both shared and unshared: {sorted(overlap)}")

    @property
    def n_matches(self) -> int:
        return len(self.shared)

    @property
    def union_size(self) -> int:
        return len(self.shared) + len(self.unshared)


@dataclass(frozen=True)
class PairOutcomeDistribution:
    """Outcome probabilities for one marker on one tumor pair."""

    both: float
    exactly_one: float
    neither: float


def derive_pair_observation(
    a: MutationProfile, b: MutationProfile, catalog: MarkerCatalog
) -> PairObservation:
    """Reduce two profiles to matched / singly-mutated marker sets.

    Raises :class:`CatalogMissError` if either profile mentions a marker the
    catalog does not know.
    """
    shared = sorted(a.mutations & b.mutations)
    unshared = sorted(a.mutations ^ b.mutations)
    return PairObservation(
        shared=tuple((m, catalog.probability(m)) for m in shared),
        unshared=tuple((m, catalog.probability(m)) for m in unshared),
    )


def outcome_cells(p, xi):
    """``(both, exactly_one, neither)`` of the closed form, broadcasting p against xi."""
    both = xi * p + (1.0 - xi) * p * p
    exactly_one = 2.0 * (1.0 - xi) * p * (1.0 - p)
    neither = xi * (1.0 - p) + (1.0 - xi) * (1.0 - p) ** 2
    return both, exactly_one, neither


def match_probabilities(p, xi):
    """Match probability, broadcasting p against xi.

    Clipped at 1: float cancellation in the denominator can push the ratio a
    few ulp above 1 at xi = 1, which would turn log1p(-q) into NaN.
    """
    q = (p + xi * (1.0 - p)) / ((2.0 - p) - xi * (1.0 - p))
    return np.minimum(q, 1.0)


def pair_outcome_probabilities(p: float, xi: float) -> PairOutcomeDistribution:
    """Closed-form outcome distribution for one marker at signal ``xi``."""
    both, exactly_one, neither = outcome_cells(validate_probability(p), validate_xi(xi))
    return PairOutcomeDistribution(both=both, exactly_one=exactly_one, neither=neither)


def match_probability(p: float, xi: float) -> float:
    """Probability a marker is matched given it is mutated in >= 1 tumor.

    Equals ``[xi + (1-xi)p] / [xi + (1-xi)(2-p)]``; at ``xi = 0`` this is the
    null match probability ``p / (2 - p)``, and it increases to 1 at
    ``xi = 1``.
    """
    return float(match_probabilities(validate_probability(p), validate_xi(xi)))
