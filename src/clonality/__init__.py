"""Clonal-relatedness testing for tumor pairs from somatic mutation profiles.

The conditional likelihood-ratio test asks whether two tumors share more
mutations than independence can explain, weighting each matched mutation by
how rare it is. P-values come from the exact or Monte Carlo null
distribution of the statistic, conditioned on the observed mutated markers.
A simulation harness estimates size and power over synthetic marker
universes, including misspecified probabilities and correlated markers.
"""

from .errors import CatalogMissError, ClonalityError, FileFormatError, UnknownTumorError
from .inference import (
    ConditionalData,
    FitResult,
    UnconditionalSummary,
    conditional_log_likelihood,
    conditional_statistic,
    unconditional_log_likelihood,
    unconditional_statistic,
    weight_form_statistic,
)
from .model import (
    MarkerCatalog,
    MutationProfile,
    PairObservation,
    PairOutcomeDistribution,
    derive_pair_observation,
    match_probability,
    pair_outcome_probabilities,
)
from .nullref import (
    CalibratedRule,
    NullDistribution,
    TestResult,
    calibrated_rejection,
    conditional_test,
    exact_conditional_null,
    p_value,
    sample_conditional_null,
    sample_unconditional_null,
)
from .priors import FrequencyRecord, build_catalog, estimate_marginal_probability
from .rng import DEFAULT_SEED, RngStream
from .simulation import (
    CalibratedComparison,
    MarkerGroup,
    Perturbation,
    PowerReport,
    ScenarioSpec,
    inflate_rare,
    normal_quantile,
    perturb_probabilities_logit,
    preset_scenario,
    run_calibrated_comparison,
    run_size_power,
    sample_tumor_pair,
    scenario_catalog,
    scenario_from_json_dict,
    scenario_to_json_dict,
)

__version__ = "0.1.0"
