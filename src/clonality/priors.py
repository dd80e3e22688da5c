"""Marginal mutation probability estimation from reference-cohort counts.

Probabilities are pooled relative frequencies: reference-cohort counts (a
TCGA-style database) aggregated with the counts from the study the case
belongs to. A mutation never seen in the reference but observed once in a
single-case study therefore gets ``1 / (ref_total + 1)``, the assignment
used for the solitary mutations in the bundled case fixtures.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .model import clamp_probability


@dataclass(frozen=True)
class FrequencyRecord:
    """Mutation counts for one marker in the reference and study cohorts."""

    marker: str
    ref_mutated: int
    ref_total: int
    study_mutated: int = 0
    study_total: int = 0

    def __post_init__(self):
        if not self.marker:
            raise ValueError("marker id must be nonempty")
        for mutated, total, name in (
            (self.ref_mutated, self.ref_total, "ref"),
            (self.study_mutated, self.study_total, "study"),
        ):
            if total < 0 or not (0 <= mutated <= total):
                raise ValueError(
                    f"{name} counts must satisfy 0 <= mutated <= total, "
                    f"got {mutated}/{total} for {self.marker!r}"
                )


def estimate_marginal_probability(record: FrequencyRecord) -> float:
    """Pooled frequency (ref_mutated + study_mutated) / (ref_total + study_total).

    The result is clamped inside (0, 1); a zero pooled numerator is flagged
    with a warning because an observed mutation implies the true probability
    is positive, and the floor stands in for it.
    """
    denominator = record.ref_total + record.study_total
    if denominator == 0:
        raise ValueError(f"no cohort observations for marker {record.marker!r}")
    numerator = record.ref_mutated + record.study_mutated
    if numerator == 0:
        warnings.warn(
            f"marker {record.marker!r} has zero pooled mutation count; "
            "probability floored",
            RuntimeWarning,
            stacklevel=2,
        )
    return clamp_probability(numerator / denominator)
