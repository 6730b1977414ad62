import struct
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from treecast.a5.pair_model import product_tree_generate
from treecast.a5.reconstruct import class16_reconstruction_trial
from treecast.a5.reduction import detection_to_word
from treecast.estimators import leaf_ones_counts
from treecast.labels import LabelArray
from treecast.rng import SeedSpec
from treecast.trees import MAX_DEPTH, MAX_TREE_NODES, NodeAddr, TreeShape


def test_shape_counts_exact():
    shape = TreeShape(k=3, d=4)
    assert shape.n == 81
    assert [shape.nodes_at(lvl) for lvl in range(5)] == [1, 3, 9, 27, 81]
    assert shape.total_nodes == 121


def test_shape_validation():
    with pytest.raises(ValueError):
        TreeShape(k=0, d=1)
    with pytest.raises(ValueError):
        TreeShape(k=2, d=-1)
    assert TreeShape(k=1, d=5).n == 1


def test_addr_validation():
    shape = TreeShape(k=2, d=2)
    NodeAddr(2, 3).validate(shape)
    with pytest.raises(ValueError):
        NodeAddr(3, 0).validate(shape)
    with pytest.raises(ValueError):
        NodeAddr(1, 2).validate(shape)


# --- the tree-size rule ----------------------------------------------------------


@pytest.mark.parametrize(
    "k, d, message",
    [
        (2, 26, "tree k=2, d=26 has more than 67108864 nodes"),
        (3, 10**9, "has more than 67108864 nodes"),
        (1, 65, "tree k=1, d=65 is deeper than 64 levels"),
        (1, 10**20, "has more than 67108864 nodes"),
        (2, 10**20, "has more than 67108864 nodes"),
    ],
)
def test_shape_past_the_limits_is_refused_at_once(k, d, message):
    start = time.perf_counter()
    with pytest.raises(ValueError, match=message):
        TreeShape(k=k, d=d)
    assert time.perf_counter() - start < 1


def test_a_shape_of_exactly_the_budget_is_admitted():
    assert TreeShape(k=MAX_TREE_NODES - 1, d=1).total_nodes == MAX_TREE_NODES
    with pytest.raises(ValueError, match="nodes"):
        TreeShape(k=MAX_TREE_NODES, d=1)


def _counted_by_loops(k, d):
    """Per-level node counts by repeated multiplication, and their sum."""
    levels, width = [], 1
    for _ in range(d + 1):
        levels.append(width)
        width *= k
    return levels, sum(levels)


@given(k=st.integers(1, 40), d=st.integers(0, MAX_DEPTH + 1))
@example(k=1, d=MAX_DEPTH)  # the deepest admissible shape
@example(k=2, d=25)  # the largest admissible binary shape
@example(k=40, d=4)  # the largest admissible shape at k = 40
def test_closed_form_counts_equal_the_loops(k, d):
    levels, total = _counted_by_loops(k, d)
    if total > MAX_TREE_NODES or d > MAX_DEPTH:
        with pytest.raises(ValueError):
            TreeShape(k=k, d=d)
        return
    shape = TreeShape(k=k, d=d)
    assert [shape.nodes_at(lvl) for lvl in range(d + 1)] == levels
    assert shape.total_nodes == total
    assert shape.n == levels[-1]


_WORD8 = [0] * 8  # a length-2^(d+1) word at d = 2


@pytest.mark.parametrize(
    "build",
    [
        lambda: product_tree_generate(2, _WORD8, 10**5, SeedSpec(1, "big")),
        lambda: detection_to_word(lambda leaves: 0, _WORD8, 10**5, 2, SeedSpec(1, "big")),
        lambda: class16_reconstruction_trial(10**5, 3, 7),
        lambda: leaf_ones_counts(2, 26, Fraction(1, 2), 1, 10, SeedSpec(1, "big")),
        lambda: LabelArray.from_bytes(b"BCAST1" + struct.pack("<III", 2, 40, 2)),
    ],
    ids=["product-tree", "detection-to-word", "class16-trial", "ones-count-chain", "bcast1-header"],
)
def test_entry_points_refuse_a_tree_past_the_budget_before_allocating(build):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="more than 67108864 nodes"):
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 10
