"""Alternating-group machinery: the pair-label broadcast model, its
product-tree equivalent generator, the 16-label conjugacy-class quotient,
recursive reconstruction, group-program compilation, and the randomized
self-reduction harness."""

from .group import A5, GroupTables, classify
from .pair_model import (
    generate_pair_model,
    pair_code,
    pair_decode,
    pair_model_child_law,
    product_tree_child_law,
    product_tree_generate,
)
from .quotient import class_pair_code, quotient_channel
from .reconstruct import recursive_reconstruct
from .barrington import barrington_compile, evaluate_program, evaluate_program_batch
from .reduction import (
    WordInstance,
    amplify_oracle,
    detection_to_word,
    make_instance,
    randomize_word,
    synthetic_oracle,
)

__all__ = [
    "A5",
    "GroupTables",
    "classify",
    "generate_pair_model",
    "pair_code",
    "pair_decode",
    "pair_model_child_law",
    "product_tree_child_law",
    "product_tree_generate",
    "class_pair_code",
    "quotient_channel",
    "recursive_reconstruct",
    "barrington_compile",
    "evaluate_program",
    "evaluate_program_batch",
    "WordInstance",
    "amplify_oracle",
    "detection_to_word",
    "make_instance",
    "randomize_word",
    "synthetic_oracle",
]
