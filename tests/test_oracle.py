import ast
import json
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest

import treecast
from treecast.channels import Channel
from treecast.generators import total_variation
from treecast.oracle import (
    LawView,
    bayes_accuracy,
    enumerate_joint,
    expected_leaf_sum,
    likelihood_law,
    pair_equal_probability,
)
from treecast.trees import TreeShape


def test_hand_bayes_example():
    # k=2, d=1, theta=1/2: per-edge copy probability 3/4, so P[(1,1)|1] = 9/16.
    joint = enumerate_joint(TreeShape(k=2, d=1), Channel.binary(Fraction(1, 2)))
    assert joint.cond[1].get((1, 1), 0) == Fraction(9, 16)
    assert joint.cond[0].get((1, 1), 0) == Fraction(1, 16)
    assert joint.cond[1].get((1, 0), 0) == Fraction(3, 16)


def test_theta_zero_uniform_leaves():
    joint = enumerate_joint(TreeShape(k=2, d=2), Channel.binary(0))
    for root in (0, 1):
        for cfg in joint.configurations():
            assert joint.cond[root].get(cfg, 0) == Fraction(1, 16)


def test_theta_one_deterministic():
    joint = enumerate_joint(TreeShape(k=3, d=2), Channel.binary(1))
    assert joint.cond[1].get((1,) * 9, 0) == 1
    assert joint.cond[0].get((0,) * 9, 0) == 1
    assert len(joint.cond[1]) == 1


def test_conditionals_sum_to_one():
    for k, d in ((2, 3), (3, 2), (5, 1)):
        joint = enumerate_joint(TreeShape(k=k, d=d), Channel.binary(Fraction(2, 7)))
        for law in joint.cond:
            assert sum(law.values()) == 1


def test_sibling_exchangeability():
    shape = TreeShape(k=3, d=1)
    joint = enumerate_joint(shape, Channel.binary(Fraction(1, 3)))
    for cfg in joint.configurations():
        for perm in permutations(range(3)):
            permuted = tuple(cfg[i] for i in perm)
            for root in (0, 1):
                assert joint.cond[root].get(permuted, 0) == joint.cond[root].get(cfg, 0)


def test_uniform_marginals():
    shape = TreeShape(k=2, d=3)
    joint = enumerate_joint(shape, Channel.binary(Fraction(3, 4)))
    for leaf in range(shape.n):
        assert sum(joint.mixture_prob(cfg) for cfg in joint.configurations() if cfg[leaf]) == Fraction(1, 2)


def test_bayes_accuracy_pinned_value():
    # Oracle-derived regression constant for k=2, d=1, theta=1/2; the
    # four-configuration sum is (1/2)(9/16 + 3/16 + 3/16 + 9/16) = 3/4.
    joint = enumerate_joint(TreeShape(k=2, d=1), Channel.binary(Fraction(1, 2)))
    assert bayes_accuracy(joint) == Fraction(3, 4)


def test_bayes_accuracy_extremes():
    assert bayes_accuracy(
        enumerate_joint(TreeShape(k=2, d=2), Channel.binary(0))
    ) == Fraction(1, 2)
    assert bayes_accuracy(
        enumerate_joint(TreeShape(k=2, d=2), Channel.binary(1))
    ) == 1


def test_bayes_accuracy_monotone_in_theta():
    shape = TreeShape(k=2, d=2)
    grid = [Fraction(i, 8) for i in range(9)]
    values = [bayes_accuracy(enumerate_joint(shape, Channel.binary(t))) for t in grid]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_cap_error_names_cap():
    with pytest.raises(ValueError, match="cap of 1048576"):
        enumerate_joint(TreeShape(k=2, d=5), Channel.binary(Fraction(1, 2)))


def _cap_names(node) -> bool:
    name = node.name if isinstance(node, ast.alias) else getattr(node, "id", getattr(node, "attr", None))
    return name in ("DEFAULT_CONFIG_CAP", "config_count")


def test_only_the_oracle_applies_the_configuration_cap():
    # One cap rule: `oracle._edge_columns` refuses every exact law past the
    # cap.  The one other reader is estimate_P_sd's choice between its exact
    # and Monte Carlo paths (with the import it needs).
    src = Path(treecast.__file__).parent
    found = []
    for path in src.rglob("*.py"):
        if path == src / "oracle.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        if path == src / "estimators.py":
            for top in tree.body:
                if isinstance(top, ast.ImportFrom) or getattr(top, "name", None) == "estimate_P_sd":
                    allowed |= {id(node) for node in ast.walk(top)}
        for node in ast.walk(tree):
            if _cap_names(node) and id(node) not in allowed:
                found.append(f"{path.relative_to(src).as_posix()}:{node.lineno}")
    assert not found


def test_correlation_and_mean_identities_exact():
    # Pairwise law 1/2 + theta^(2r)/2 and mean k^d/2 + k^d theta^d / 2.
    shape = TreeShape(k=2, d=3)
    theta = Fraction(4, 5)
    joint = enumerate_joint(shape, Channel.binary(theta))
    assert pair_equal_probability(joint, 0, 1) == Fraction(1, 2) + theta**2 / 2
    assert pair_equal_probability(joint, 0, 2) == Fraction(1, 2) + theta**4 / 2
    assert pair_equal_probability(joint, 0, 7) == Fraction(1, 2) + theta**6 / 2
    n = shape.n
    assert expected_leaf_sum(joint, 1) == Fraction(n, 2) + n * theta**3 / 2


# The (2,2) law at theta=1/2 as JSON, written by the Fraction-based
# enumeration before the oracle moved to integer numerators.
GOLDEN_JSON_2_2_HALF = (
    '{"cond":[{"0000":"49/256","0001":"21/256","0010":"21/256","0011":"21/256",'
    '"0100":"21/256","0101":"9/256","0110":"9/256","0111":"9/256","1000":"21/256",'
    '"1001":"9/256","1010":"9/256","1011":"9/256","1100":"21/256","1101":"9/256",'
    '"1110":"9/256","1111":"9/256"},{"0000":"9/256","0001":"9/256","0010":"9/256",'
    '"0011":"21/256","0100":"9/256","0101":"9/256","0110":"9/256","0111":"21/256",'
    '"1000":"9/256","1001":"9/256","1010":"9/256","1011":"21/256","1100":"21/256",'
    '"1101":"21/256","1110":"21/256","1111":"49/256"}],"d":2,"k":2,"m":2}'
)


def test_json_golden_bytes():
    joint = enumerate_joint(TreeShape(k=2, d=2), Channel.binary(Fraction(1, 2)))
    golden = json.loads(GOLDEN_JSON_2_2_HALF)
    assert (golden["k"], golden["d"], golden["m"]) == (2, 2, 2)
    for law, want in zip(joint.cond, golden["cond"], strict=True):
        assert dict(law) == {tuple(map(int, cfg)): Fraction(p) for cfg, p in want.items()}


def test_cond_reads_fractions_from_integer_numerators():
    joint = enumerate_joint(TreeShape(k=2, d=2), Channel.binary(Fraction(1, 3)))
    assert all(isinstance(n, int) for num in joint.numerators for n in num.values())
    for root, law in enumerate(joint.cond):
        assert len(law) == len(joint.numerators[root]) == 16
        assert all(type(p) is Fraction for p in law.values())
        for cfg, p in law.items():
            assert p == Fraction(joint.numerators[root][cfg], joint.denominator)


def test_cond_is_read_only():
    joint = enumerate_joint(TreeShape(k=2, d=1), Channel.binary(Fraction(1, 2)))
    with pytest.raises(TypeError):
        joint.cond[0][(0, 0)] = Fraction(1)
    assert (2, 2) not in joint.cond[0]
    assert joint.cond[0].get((2, 2)) is None
    with pytest.raises(TypeError):
        joint.cond[0].numerators[(0, 0)] = 1


def test_laws_compare_numerator_by_numerator():
    half = LawView({(0,): 1, (1,): 1}, 2)
    quarters = LawView({(0,): 2, (1,): 2}, 4)
    assert half == quarters and not half != quarters
    tv = total_variation(half, quarters)
    assert type(tv) is Fraction and tv == 0 and str(tv) == "0"
    assert half != LawView({(0,): 3, (1,): 1}, 4)
    assert half != LawView({(0,): 1, (2,): 1}, 2)
    assert total_variation(LawView({(0,): 1}, 1), LawView({(1,): 3}, 3)) == 1
    # Any other mapping compares as a mapping of Fractions.
    assert half == {(0,): Fraction(1, 2), (1,): Fraction(1, 2)}
    assert half != {(0,): Fraction(1, 2)}
    assert half != {(0,): Fraction(1, 2), (1,): Fraction(1, 3)}
    assert repr(half) == "LawView({(0,): 1, (1,): 1}, 2)"


def test_noisy_leaf_channel_and_nonbinary_labels():
    # A leaf channel with its own denominator, and a three-label channel:
    # every conditional law still sums to one exactly.
    leaf = Channel.binary(Fraction(2, 9))
    joint = enumerate_joint(TreeShape(k=2, d=2), Channel.binary(Fraction(3, 5)), leaf_channel=leaf)
    assert all(sum(law.values()) == 1 for law in joint.cond)
    third = Fraction(1, 3)
    ch3 = Channel.from_columns([[Fraction(1, 2), third, Fraction(1, 6)]] * 3)
    joint3 = enumerate_joint(TreeShape(k=3, d=1), ch3)
    assert all(sum(law.values()) == 1 for law in joint3.cond)
    assert joint3.mixture_prob((0, 1, 2)) == Fraction(1, 2) * third * Fraction(1, 6)


@pytest.mark.parametrize(
    "shape,channel,leaf_channel",
    [
        (TreeShape(2, 3), Channel.binary(Fraction(3, 5)), Channel.binary(Fraction(2, 9))),
        (TreeShape(3, 2), Channel.binary(1), None),
        (TreeShape(2, 2), Channel.binary(0), None),
        (TreeShape(1, 4), Channel.binary(Fraction(-1, 2)), None),
        (TreeShape(4, 0), Channel.binary(Fraction(1, 2)), None),
        (
            TreeShape(2, 2),
            Channel.from_columns([["1/2", "1/2", "0"], ["0", "3/4", "1/4"], ["0", "0", "1"]]),
            Channel.from_columns([["1/3", "1/3", "1/3"], ["0", "1", "0"], ["1/7", "0", "6/7"]]),
        ),
    ],
)
def test_likelihood_law_groups_the_oracle(shape, channel, leaf_channel):
    law = likelihood_law(shape, channel, leaf_channel=leaf_channel)
    joint = enumerate_joint(shape, channel, leaf_channel=leaf_channel)
    assert law == joint.likelihood_law()
    assert sum(law.counts.values()) == len(joint.configurations())
    assert all(any(vec) and len(vec) == channel.m for vec in law.counts)
    assert all(type(p) is int for vec in law.counts for p in vec)
    assert bayes_accuracy(law) == bayes_accuracy(joint)


def test_likelihood_law_merges_equal_vectors():
    # At theta = 0 all 2^8 configurations have the vector (2^-8, 2^-8).
    law = likelihood_law(TreeShape(2, 3), Channel.binary(0))
    [((p0, p1), count)] = law.counts.items()
    assert count == 256 and p0 == p1 and Fraction(p0, law.denominator) == Fraction(1, 256)
    with pytest.raises(ValueError, match="same label count"):
        likelihood_law(TreeShape(2, 1), Channel.binary(0), leaf_channel=Channel.from_columns([[1]]))
