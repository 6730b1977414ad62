"""Argument checks of the library, each ending in a one-line ValueError."""

import re
from fractions import Fraction

import numpy as np
import pytest

from treecast.a5.barrington import Program
from treecast.a5.pair_model import _product_tree_levels, pair_model_levels
from treecast.bp import LeafLikelihood, bp_posterior, bp_posterior_batch_binary
from treecast.channels import Channel
from treecast.estimators import estimate_flip_rate, estimate_P_sd, exact_P_sd, linearized_bp_decisions, ones_count_law
from treecast.generators import Restriction, live_inputs_after
from treecast.rng import SeedSpec
from treecast.trees import TreeShape

SEED = SeedSpec(1, "checks")
SHAPE = TreeShape(k=2, d=2)
HALF = Fraction(1, 2)


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: Restriction(np.zeros((2, 2))), "symbols must be one-dimensional", id="restriction-2d"),
        pytest.param(lambda: Restriction([0, 3]), "symbols must lie in {0, 1, 2}", id="restriction-symbol"),
        pytest.param(
            lambda: bp_posterior(SHAPE, Channel.binary(HALF), LeafLikelihood.from_labels([0, 1, 2, 0], 3)),
            "evidence and channel disagree on label count",
            id="bp-label-count",
        ),
        pytest.param(
            lambda: bp_posterior_batch_binary(SHAPE, 0.5, np.zeros((1, 4), np.uint8), height=3),
            "height must lie in [0, 2], got 3",
            id="batch-bp-height",
        ),
        pytest.param(
            lambda: bp_posterior_batch_binary(SHAPE, 0.5, np.zeros((1, 3), np.uint8)),
            "leaves have 3 columns, tree has 4",
            id="batch-bp-columns",
        ),
        pytest.param(
            lambda: bp_posterior_batch_binary(SHAPE, 5.0, np.zeros((1, 4), np.uint8)),
            "theta must lie in [-1, 1], got 5.0",
            id="batch-bp-theta",
        ),
        pytest.param(
            lambda: bp_posterior_batch_binary(SHAPE, 0.5, np.zeros((1, 4), np.uint8), s=-0.2),
            "flip rate s must lie in [0, 1], got -0.2",
            id="batch-bp-s",
        ),
        pytest.param(
            lambda: bp_posterior_batch_binary(SHAPE, 0.5, np.zeros((1, 4), np.uint8), s=float("nan")),
            "flip rate s must lie in [0, 1], got nan",
            id="batch-bp-s-nan",
        ),
        pytest.param(
            lambda: linearized_bp_decisions(TreeShape(2, 4), 0.5, np.zeros((1, 16), np.uint8), 0, SEED, -0.3),
            "flip rate s must lie in [0, 1], got -0.3",
            id="linearized-s-hat",
        ),
        pytest.param(
            lambda: exact_P_sd(TreeShape(2, 0), 5, Fraction(1, 10)), "theta must lie in [-1, 1], got 5", id="psd-theta-d0"
        ),
        pytest.param(
            lambda: estimate_P_sd(TreeShape(2, 0), 5, Fraction(1, 10), 10, SEED),
            "theta must lie in [-1, 1], got 5",
            id="psd-estimate-theta-d0",
        ),
        pytest.param(lambda: estimate_flip_rate(SHAPE, HALF, 3, 10, SEED), "d' must lie in [0, 2]", id="d-prime-high"),
        pytest.param(lambda: estimate_flip_rate(SHAPE, HALF, -1, 10, SEED), "d' must lie in [0, 2]", id="d-prime-low"),
        pytest.param(lambda: ones_count_law(2, 3, HALF, root=2), "root label must be 0 or 1, got 2", id="ones-root"),
        pytest.param(lambda: pair_model_levels(SHAPE, 1, root=3600), "outside [0, 3600)", id="pair-root"),
        pytest.param(
            lambda: _product_tree_levels(1, [0, 0, 0, 60], 2, SEED, 1),
            "word entries must be element indices in [0, 60)",
            id="product-tree-element",
        ),
        pytest.param(lambda: live_inputs_after(SHAPE, [0], 3, HALF, SEED), "rounds h must lie in", id="live-rounds"),
        pytest.param(
            lambda: live_inputs_after(SHAPE, [0], 1, HALF, SEED, trial=np.zeros((2, 2), np.int64)),
            "trial must be an int or a 1-D integer array",
            id="live-trials",
        ),
        pytest.param(lambda: live_inputs_after(SHAPE, [4], 1, HALF, SEED), "must be leaf indices", id="live-tracked"),
        pytest.param(lambda: Program([-1], [1], [1]), "var entries must lie in", id="program-var"),
        pytest.param(lambda: Program([0], [1], [60]), "g0 and g1 entries must lie in [0, 60)", id="program-element"),
        pytest.param(lambda: Program([0.5], [1], [1]), "entries must be integers", id="program-float"),
        pytest.param(lambda: Program([0, 1], [1], [1]), "1-D arrays of one length", id="program-lengths"),
    ],
)
def test_bad_argument_is_a_one_line_value_error(call, message):
    with pytest.raises(ValueError, match=re.escape(message)) as caught:
        call()
    assert "\n" not in str(caught.value)
