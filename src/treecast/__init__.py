"""Broadcast processes on trees: simulation, exact inference, estimators,
and group-word reductions, with every random decision reproducible from one
64-bit seed."""

from .channels import Channel, as_fraction, ks_parameter
from .trees import TreeShape
from .rng import SeedSpec
from .labels import LabelArray
from .oracle import JointDistribution, bayes_accuracy, enumerate_joint
from .generators import (
    NoiseSpec,
    add_leaf_noise,
    biased_bit_approx,
    biased_bit_exact,
    generate_direct,
    generate_path_product,
    generate_via_restrictions,
    live_inputs_after,
)
from .bp import LeafLikelihood, PosteriorReport, bp_posterior
from .estimators import (
    EstimatorReport,
    estimate_flip_rate,
    estimate_P_sd,
    exact_P_sd,
    linearized_bp,
    majority_estimate,
    reduced_depth,
)
from .formulas import Formula, parse_formula
from .gadgets import (
    LeafTemplate,
    compile_formula,
    gadget_posterior_bound,
    lemma_grid_check,
    verify_gadget,
)

__version__ = "0.1.0"

__all__ = [
    "Channel",
    "as_fraction",
    "ks_parameter",
    "TreeShape",
    "SeedSpec",
    "LabelArray",
    "JointDistribution",
    "bayes_accuracy",
    "enumerate_joint",
    "NoiseSpec",
    "add_leaf_noise",
    "biased_bit_approx",
    "biased_bit_exact",
    "generate_direct",
    "generate_path_product",
    "generate_via_restrictions",
    "live_inputs_after",
    "LeafLikelihood",
    "PosteriorReport",
    "bp_posterior",
    "EstimatorReport",
    "estimate_flip_rate",
    "estimate_P_sd",
    "exact_P_sd",
    "linearized_bp",
    "majority_estimate",
    "reduced_depth",
    "Formula",
    "parse_formula",
    "LeafTemplate",
    "compile_formula",
    "gadget_posterior_bound",
    "lemma_grid_check",
    "verify_gadget",
]
