import ast
import warnings
from fractions import Fraction
from functools import partial
from itertools import product
from math import prod
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from treecast import bp as bp_module
from treecast.bp import LeafLikelihood, _sigmoid, _unit_rows, bp_posterior, bp_posterior_batch_binary
from treecast.channels import Channel
from treecast.estimators import bp_rounding_decisions, noisy_leaf_channel
from treecast.oracle import enumerate_joint
from treecast.rng import SeedSpec
from treecast.trees import TreeShape

THETAS = [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]


def test_hand_example_posterior():
    report = bp_posterior(
        TreeShape(k=2, d=1),
        Channel.binary(Fraction(1, 2)),
        LeafLikelihood.from_labels([1, 1], 2),
        mode="rational",
    )
    assert report.masses == (Fraction(1, 10), Fraction(9, 10))
    assert report.argmax == 1 and not report.tie


def test_balanced_evidence_is_tied():
    report = bp_posterior(
        TreeShape(k=2, d=1),
        Channel.binary(Fraction(1, 2)),
        LeafLikelihood.from_labels([1, 0], 2),
        mode="rational",
    )
    assert report.masses == (Fraction(1, 2), Fraction(1, 2))
    assert report.argmax == 0 and report.tie


def test_theta_zero_posterior_uniform():
    shape = TreeShape(k=2, d=2)
    channel = Channel.binary(0)
    for cfg in product((0, 1), repeat=shape.n):
        report = bp_posterior(shape, channel, LeafLikelihood.from_labels(cfg, 2), mode="rational")
        assert report.masses == (Fraction(1, 2), Fraction(1, 2))


def test_all_zero_likelihood_rejected():
    with pytest.raises(ValueError, match="leaf 0 has an all-zero"):
        LeafLikelihood(m=2, rows=((Fraction(0), Fraction(0)),), index=(0,))
    with pytest.raises(ValueError, match="leaf 0 has a negative"):
        LeafLikelihood(m=2, rows=((Fraction(-1), Fraction(1)),), index=(0,))
    # A row shared by several leaves is reported at its first leaf.
    good, bad = (Fraction(1), Fraction(0)), (Fraction(-1), Fraction(2))
    with pytest.raises(ValueError, match="leaf 1 has a negative"):
        LeafLikelihood(2, (good, bad), (0, 1, 0, 1))
    with pytest.raises(ValueError, match="leaf 2 has 3 weights, expected 2"):
        LeafLikelihood(2, (good, (1, 2, 3)), (0, 0, 1))
    # A row no leaf reads is still checked; a leaf must read a row that exists.
    with pytest.raises(ValueError, match="row 1 has an all-zero"):
        LeafLikelihood(m=2, rows=(good, (Fraction(0), Fraction(0))), index=(0, 0))
    with pytest.raises(ValueError, match=r"leaf 1: observed label 2 outside \[0, 2\)"):
        LeafLikelihood(m=2, rows=(good, good), index=(0, 2))


@pytest.mark.parametrize("m", [1, 2, 3, 16])
def test_hard_evidence_rows_equal_fresh_unit_fractions(m):
    labels = [x for x in range(m) for _ in range(3)]
    fresh = tuple(tuple(Fraction(1) if a == x else Fraction(0) for a in range(m)) for x in labels)
    ev = LeafLikelihood.from_labels(np.array(labels), m)
    assert tuple(ev.rows[x] for x in ev.index) == fresh
    # Every hard evidence on m labels shares the m cached unit rows.
    assert ev.rows is _unit_rows(m) is LeafLikelihood.from_labels(labels[::-1], m).rows
    assert ev.index == tuple(labels) and all(type(x) is int for x in ev.index)
    assert ev == LeafLikelihood(m, fresh[::3], tuple(labels))
    assert all(type(w) is Fraction for row in ev.rows for w in row)
    for bad in (m, -1):
        with pytest.raises(ValueError, match=rf"observed label {bad} outside \[0, {m}\)"):
            LeafLikelihood.from_labels([0, bad], m)


# Every shape with at most 2^9 binary leaf configurations.
ORACLE_SHAPES = [(1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2)] + [(k, 1) for k in range(4, 10)]
ORACLE_THETAS = [Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 3), *THETAS, Fraction(1)]


def _assert_bp_matches_oracle(shape, channel, joint, evidence_of):
    """Integer BP equals the oracle's posterior on every configuration; the
    configurations the oracle leaves out have probability zero and raise."""
    support = set(joint.configurations())
    for cfg in product(range(channel.m), repeat=shape.n):
        evidence = evidence_of(cfg)
        if cfg in support:
            got = bp_posterior(shape, channel, evidence, mode="rational").masses
            assert got == tuple(joint.posterior(cfg)), (shape, cfg)
            assert all(type(p) is Fraction for p in got)
        else:
            with pytest.raises(ValueError, match="evidence has zero probability"):
                bp_posterior(shape, channel, evidence, mode="rational")


def test_bp_equals_oracle_exactly():
    for k, d in ORACLE_SHAPES:
        shape = TreeShape(k=k, d=d)
        for theta in ORACLE_THETAS:
            channel = Channel.binary(theta)
            joint = enumerate_joint(shape, channel)
            _assert_bp_matches_oracle(
                shape, channel, joint, lambda cfg: LeafLikelihood.from_labels(cfg, 2)
            )


@pytest.mark.parametrize("s", [Fraction(1, 10), Fraction(1, 2)])
def test_bp_noisy_evidence_equals_oracle_with_leaf_channel(s):
    for k, d in [(2, 2), (2, 3), (3, 2), (5, 1)]:
        shape = TreeShape(k=k, d=d)
        for theta in ORACLE_THETAS:
            channel = Channel.binary(theta)
            joint = enumerate_joint(shape, channel, leaf_channel=noisy_leaf_channel(theta, s))
            _assert_bp_matches_oracle(
                shape, channel, joint, lambda cfg: LeafLikelihood.from_noisy_bits(cfg, s)
            )


THREE_LABELS = [["1/2", "1/2", "0"], ["0", "3/4", "1/4"], ["0", "0", "1"]]


def test_bp_three_labels_equals_oracle():
    channel = Channel.from_columns(THREE_LABELS)
    shape = TreeShape(k=2, d=2)
    joint = enumerate_joint(shape, channel)
    assert len(joint.configurations()) < 3**shape.n  # siblings 0 and 2 are impossible
    _assert_bp_matches_oracle(
        shape, channel, joint, lambda cfg: LeafLikelihood.from_labels(cfg, 3)
    )


# Soft likelihood rows with mixed denominators, zeros and a weight above 1.
def _soft(rows) -> LeafLikelihood:
    """Soft evidence of one weight row per leaf, each distinct row stored once."""
    distinct = list(dict.fromkeys(rows))
    return LeafLikelihood(2, tuple(distinct), tuple(map(distinct.index, rows)))


SOFT_ROWS = [
    (Fraction(1, 2), Fraction(1, 3)),
    (Fraction(2), Fraction(5, 7)),
    (Fraction(0), Fraction(3, 4)),
    (Fraction(4, 9), Fraction(0)),
    (Fraction(1, 6), Fraction(1, 10)),
]


def _soft_posterior(joint, rows):
    """P[root = a | evidence], proportional to sum_x P[x | a] prod_i w_i(x_i);
    None where the evidence has probability zero."""
    weight = [
        sum(p * prod(rows[i][b] for i, b in enumerate(cfg)) for cfg, p in joint.cond[a].items())
        for a in (0, 1)
    ]
    return tuple(w / sum(weight) for w in weight) if sum(weight) else None


def test_bp_soft_evidence_with_mixed_denominators_equals_oracle_sum():
    for k, d in [(2, 2), (3, 1), (2, 3)]:
        shape = TreeShape(k=k, d=d)
        rows = tuple(SOFT_ROWS[(3 * i + d) % len(SOFT_ROWS)] for i in range(shape.n))
        for theta in ORACLE_THETAS:
            channel = Channel.binary(theta)
            evidence = _soft(rows)
            want = _soft_posterior(enumerate_joint(shape, channel), rows)
            if want is None:
                for mode in ("rational", "float"):
                    with pytest.raises(ValueError, match="evidence has zero probability"):
                        bp_posterior(shape, channel, evidence, mode=mode)
                continue
            got = bp_posterior(shape, channel, evidence, mode="rational").masses
            assert got == want, (k, d, theta)
            fl = bp_posterior(shape, channel, evidence, mode="float").masses
            for a in (0, 1):
                assert abs(fl[a] - float(want[a])) <= 1e-9 * float(want[a]), (k, d, theta, a)


MEMO_CASES = [
    *((kind, k, d, theta) for kind in ("hard", "flip") for k, d in [(2, 3), (3, 2)]
      for theta in [Fraction(1, 4), Fraction(3, 4), Fraction(-1, 2)]),
    ("soft", 2, 2, Fraction(3, 4)),
    ("three-label", 2, 2, None),
]


def _memo_case(kind, k, d, theta):
    """The channel and every evidence of one case with the oracle's posterior,
    None where the evidence has probability zero: hard labels, bits seen
    through flip(1/10), each leaf one of SOFT_ROWS, or 3-label hard labels."""
    shape = TreeShape(k=k, d=d)
    if kind == "three-label":
        channel = Channel.from_columns(THREE_LABELS)
        joint = enumerate_joint(shape, channel)
        support = set(joint.configurations())
        return channel, [
            (LeafLikelihood.from_labels(cfg, 3), tuple(joint.posterior(cfg)) if cfg in support else None)
            for cfg in product(range(3), repeat=shape.n)
        ]
    channel = Channel.binary(theta)
    if kind == "soft":
        joint = enumerate_joint(shape, channel)
        return channel, [
            (_soft(rows), _soft_posterior(joint, rows))
            for rows in product(SOFT_ROWS, repeat=shape.n)
        ]
    s = Fraction(1, 10)
    leaf = noisy_leaf_channel(theta, s) if kind == "flip" else None
    joint = enumerate_joint(shape, channel, leaf_channel=leaf)
    if kind == "flip":
        evidence_of = partial(LeafLikelihood.from_noisy_bits, s=s)
    else:
        evidence_of = partial(LeafLikelihood.from_labels, m=2)
    return channel, [
        (evidence_of(cfg), tuple(joint.posterior(cfg))) for cfg in product((0, 1), repeat=shape.n)
    ]


@pytest.mark.parametrize("kind, k, d, theta", MEMO_CASES)
def test_parent_memo_never_changes_a_posterior(kind, k, d, theta):
    """Every configuration equals the oracle exactly from a cleared memo,
    warm, and in reversed order."""
    shape = TreeShape(k=k, d=d)
    channel, cases = _memo_case(kind, k, d, theta)
    bp_module._parent_message.cache_clear()
    for order in (cases, cases, cases[::-1]):
        for evidence, want in order:
            if want is None:
                with pytest.raises(ValueError, match="evidence has zero probability"):
                    bp_posterior(shape, channel, evidence, mode="rational")
            else:
                assert bp_posterior(shape, channel, evidence, mode="rational").masses == want
    assert bp_module._parent_message.cache_info().hits > 0


def test_equal_channels_share_parent_memo_entries():
    shape = TreeShape(k=3, d=2)
    built = Channel.binary(Fraction(3, 4))
    again = Channel.from_columns([["7/8", "1/8"], ["1/8", "7/8"]])
    assert again == built and again is not built
    joint = enumerate_joint(shape, built)
    configs = joint.configurations()
    bp_module._parent_message.cache_clear()
    first = [bp_posterior(shape, built, LeafLikelihood.from_labels(x, 2), mode="rational") for x in configs]
    misses = bp_module._parent_message.cache_info().misses
    second = [bp_posterior(shape, again, LeafLikelihood.from_labels(x, 2), mode="rational") for x in configs]
    assert bp_module._parent_message.cache_info().misses == misses
    assert first == second
    assert [r.masses for r in second] == [tuple(joint.posterior(x)) for x in configs]


def test_parent_memo_work_count():
    """Noise-free cost rows: the 512 configurations of (3,2) compute at most
    80 distinct parent messages from a cleared memo, and a call whose every
    lookup misses leaves the memo within its bound."""
    shape, channel = TreeShape(k=3, d=2), Channel.binary(Fraction(3, 4))
    bp_module._parent_message.cache_clear()
    for cfg in product((0, 1), repeat=shape.n):
        bp_posterior(shape, channel, LeafLikelihood.from_labels(cfg, 2), mode="rational")
    info = bp_module._parent_message.cache_info()
    assert info.misses <= 80 and info.hits + info.misses == 512 * 4
    deep = TreeShape(k=2, d=13)
    rows = [(Fraction(1, i + 2), Fraction(i + 1, i + 3)) for i in range(deep.n)]
    soft = LeafLikelihood(2, tuple(rows), tuple(range(deep.n)))
    assert len(soft.rows) == deep.n == 8192
    bp_posterior(deep, channel, soft, mode="rational")
    info = bp_module._parent_message.cache_info()
    assert info.maxsize == bp_module.PARENT_MEMO_SIZE and info.currsize <= info.maxsize


@pytest.mark.parametrize("mode", ["float", "auto"])
def test_float_bp_rejects_zero_probability_evidence(mode):
    # "auto" picks float BP above AUTO_RATIONAL_NODE_LIMIT nodes.
    shape = TreeShape(k=2, d=1) if mode == "float" else TreeShape(k=2, d=14)
    assert mode == "float" or shape.total_nodes > bp_module.AUTO_RATIONAL_NODE_LIMIT
    leaves = np.zeros(shape.n, dtype=np.uint8)
    leaves[-1] = 1
    evidence = LeafLikelihood.from_labels(leaves, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="evidence has zero probability under the model"):
            bp_posterior(shape, Channel.binary(1), evidence, mode=mode)
        leaves[-1] = 0
        evidence = LeafLikelihood.from_labels(leaves, 2)
        report = bp_posterior(shape, Channel.binary(1), evidence, mode=mode)
    assert report.mode == "float-log-domain" and report.masses == (1.0, 0.0)


def test_only_bp_applies_the_auto_mode_rule():
    # One auto rule: `bp.resolve_mode` alone reads the node limit, and every
    # other caller that resolves "auto" (bp_posterior, the gadget check) asks it.
    src = Path(bp_module.__file__).parent
    found = []
    for path in src.rglob("*.py"):
        if path == src / "bp.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = node.name if isinstance(node, ast.alias) else getattr(node, "id", getattr(node, "attr", None))
            if name == "AUTO_RATIONAL_NODE_LIMIT":
                found.append(f"{path.relative_to(src).as_posix()}:{node.lineno}")
    assert not found


_THREE_LABELS = Channel.from_columns([["1/2", "1/2", "0"], ["0", "3/4", "1/4"], ["0", "0", "1"]])


@pytest.mark.parametrize("mode", ["float", "auto"])
def test_float_bp_refuses_a_channel_that_is_not_binary_symmetric(mode):
    # "auto" picks float BP above AUTO_RATIONAL_NODE_LIMIT nodes.
    shape = TreeShape(k=2, d=1) if mode == "float" else TreeShape(k=2, d=14)
    assert mode == "float" or shape.total_nodes > bp_module.AUTO_RATIONAL_NODE_LIMIT
    evidence = LeafLikelihood.from_labels(np.zeros(shape.n, dtype=np.uint8), 3)
    with pytest.raises(ValueError, match='binary symmetric channel; use mode="rational"'):
        bp_posterior(shape, _THREE_LABELS, evidence, mode=mode)


def test_complement_symmetry_exact():
    shape = TreeShape(k=2, d=3)
    channel = Channel.binary(Fraction(2, 3))
    for cfg in product((0, 1), repeat=shape.n):
        a = bp_posterior(shape, channel, LeafLikelihood.from_labels(cfg, 2), mode="rational")
        comp = tuple(1 - b for b in cfg)
        b = bp_posterior(shape, channel, LeafLikelihood.from_labels(comp, 2), mode="rational")
        assert a.masses[1] == b.masses[0]


def test_single_flip_monotonicity():
    # Ferromagnetic: flipping one leaf 0 -> 1 never lowers P[root = 1].
    for k, d in ((2, 2), (2, 3), (3, 1)):
        shape = TreeShape(k=k, d=d)
        channel = Channel.binary(Fraction(3, 5))
        for cfg in product((0, 1), repeat=shape.n):
            base = bp_posterior(
                shape, channel, LeafLikelihood.from_labels(cfg, 2), mode="rational"
            ).masses[1]
            for i, bit in enumerate(cfg):
                if bit == 0:
                    up = list(cfg)
                    up[i] = 1
                    lifted = bp_posterior(
                        shape, channel, LeafLikelihood.from_labels(up, 2), mode="rational"
                    ).masses[1]
                    assert lifted >= base


def test_float_mode_close_to_rational():
    rng = np.random.default_rng(0)
    shape = TreeShape(k=3, d=3)
    channel = Channel.binary(Fraction(7, 10))
    for _ in range(25):
        cfg = rng.integers(0, 2, size=shape.n)
        exact = bp_posterior(
            shape, channel, LeafLikelihood.from_labels(cfg, 2), mode="rational"
        )
        fl = bp_posterior(shape, channel, LeafLikelihood.from_labels(cfg, 2), mode="float")
        assert fl.mode == "float-log-domain"
        for a in range(2):
            want = float(exact.masses[a])
            assert abs(fl.masses[a] - want) <= 1e-9 * max(want, 1e-12)


def test_noisy_evidence_channel():
    # Flip-channel likelihoods: observed bit through rate s.
    ev = LeafLikelihood.from_noisy_bits([1, 0], Fraction(1, 10))
    assert ev.rows[ev.index[0]] == (Fraction(1, 10), Fraction(9, 10))
    assert ev.rows[ev.index[1]] == (Fraction(9, 10), Fraction(1, 10))
    # At s = 0 the flip channel is hard evidence.
    bits = np.array([1, 0, 0, 1, 1], dtype=np.uint8)
    assert LeafLikelihood.from_noisy_bits(bits, 0) == LeafLikelihood.from_labels(bits, 2)
    with pytest.raises(ValueError, match=r"leaf 1: observed label 2 outside \[0, 2\)"):
        LeafLikelihood.from_noisy_bits([0, 2, 1], Fraction(1, 10))


def test_soft_evidence_stores_each_distinct_row_once():
    a, b = (Fraction(1, 3), Fraction(1, 2)), (Fraction(2), Fraction(0))
    ev = LeafLikelihood(2, (a, b, (Fraction(1), Fraction(0))), (0, 1, 0, 0, 2, 1, 0))
    assert len(ev) == 7
    # One row per leaf is another layout of the same weights: unequal, with
    # the same posterior in both modes.
    spread = LeafLikelihood(2, tuple(ev.rows[x] for x in ev.index), tuple(range(7)))
    assert spread != ev
    shape, channel = TreeShape(k=7, d=1), Channel.binary(Fraction(1, 2))
    for mode in ("rational", "float"):
        assert bp_posterior(shape, channel, spread, mode=mode) == bp_posterior(shape, channel, ev, mode=mode)


def test_batch_matches_single():
    shape = TreeShape(k=2, d=4)
    theta = 0.6
    rng = np.random.default_rng(5)
    leaves = rng.integers(0, 2, size=(20, shape.n)).astype(np.uint8)
    batch = bp_posterior_batch_binary(shape, theta, leaves)
    channel = Channel.binary(Fraction(3, 5))
    for i in range(20):
        want = bp_posterior(
            shape, channel, LeafLikelihood.from_labels(leaves[i], 2), mode="rational"
        ).masses[1]
        assert batch[i] == pytest.approx(float(want), abs=1e-12)


def test_evidence_size_checked():
    with pytest.raises(ValueError):
        bp_posterior(
            TreeShape(k=2, d=2),
            Channel.binary(Fraction(1, 2)),
            LeafLikelihood.from_labels([1, 0], 2),
        )


# --- batched binary BP: integer-code tables against the per-node recursion ---


def _per_node_bp(shape, theta_float, leaves, s):
    """P[root = 1] by the plain per-node log-odds recursion (the reference)."""
    trials = len(leaves)
    with np.errstate(divide="ignore", invalid="ignore"):
        if shape.d == 0:
            return _sigmoid((2.0 * leaves[:, 0] - 1.0) * (2.0 * np.arctanh(1.0 - 2.0 * s)))
        leaf_up = 2.0 * np.arctanh(theta_float * (1.0 - 2.0 * s))
        lam = leaf_up * (2.0 * leaves.reshape(trials, -1, shape.k).sum(axis=2) - shape.k)
        for _ in range(shape.d - 1):
            if abs(theta_float) == 1:
                up = theta_float * lam  # the edge map, exactly, at theta = +-1
            else:
                up = 2.0 * np.arctanh(theta_float * np.tanh(lam / 2.0))
            lam = up.reshape(trials, -1, shape.k).sum(axis=2)
    return _sigmoid(lam[:, 0])


def _random_leaves(shape, trials, bias, seed):
    rng = np.random.default_rng(seed)
    return (rng.random((trials, shape.n)) < bias).astype(np.uint8)


@st.composite
def _batch_cases(draw):
    k = draw(st.integers(2, 9))
    max_d = 0
    while max_d < 8 and k ** (max_d + 1) <= 4096:
        max_d += 1
    shape = TreeShape(k=k, d=draw(st.integers(0, max_d)))
    theta = draw(st.one_of(st.sampled_from([0.0, 1.0, -1.0]), st.floats(-1, 1)))
    s = draw(st.sampled_from([0.0, 0.1, 0.5]))
    trials = draw(st.integers(1, 300))
    leaves = _random_leaves(shape, trials, draw(st.floats(0, 1)), draw(st.integers(0, 2**32)))
    return shape, theta, s, leaves


@example(case=(TreeShape(k=9, d=3), 0.8, 0.1, _random_leaves(TreeShape(k=9, d=3), 40, 0.5, 1)))
@example(case=(TreeShape(k=3, d=3), 0.9, 0.1, _random_leaves(TreeShape(k=3, d=3), 300, 0.5, 1)))
@example(case=(TreeShape(k=2, d=12), 1.0, 0.0, _random_leaves(TreeShape(k=2, d=12), 3, 0.9, 2)))
@given(case=_batch_cases())
def test_batch_bit_identical_to_per_node_recursion(case):
    shape, theta, s, leaves = case
    got = bp_posterior_batch_binary(shape, theta, leaves, s=s)
    with np.errstate(invalid="ignore"):
        want = _per_node_bp(shape, theta, leaves, s)
    assert np.array_equal(got, want, equal_nan=True)


def _edge_map_sizes(monkeypatch, shape, codes, height=0):
    """Sizes of the arrays the edge map sees, in call order."""
    sizes = []
    real = bp_module._edge_log_odds

    def spy(lam, theta_float):
        sizes.append(lam.size)
        return real(lam, theta_float)

    monkeypatch.setattr(bp_module, "_edge_log_odds", spy)
    with np.errstate(invalid="ignore"):
        bp_posterior_batch_binary(shape, 0.8, codes, s=0.1, height=height)
    return sizes


@pytest.mark.parametrize("trials", [1, 64, 300])
@pytest.mark.parametrize("height", [0, 2])
def test_table_stage_does_not_depend_on_trial_count(monkeypatch, subtree_codes, trials, height):
    # k=2, d=10: leaves count as height-1 codes (a 3-entry table) and h = 2
    # codes build the 9-entry table from it; no batch codes a level more.
    # The first float level maps the table through the edge, then each
    # node's sum, from the nodes at height max(h, 1) + 1 up.
    shape = TreeShape(k=2, d=10)
    codes = subtree_codes(_random_leaves(shape, trials, 0.6, 3), 2, height)
    tables = [3, 9][: max(height, 1)]
    per_node = [trials * 2**j for j in range(shape.d - len(tables) - 1, 0, -1)]
    assert _edge_map_sizes(monkeypatch, shape, codes, height) == tables + per_node


def test_large_k_tables_only_height_one(monkeypatch):
    # k=16, d=2: the leaves' 17-entry table is the only one.
    shape = TreeShape(k=16, d=2)
    assert _edge_map_sizes(monkeypatch, shape, _random_leaves(shape, 50, 0.6, 3)) == [17]


def test_batch_results_do_not_depend_on_trial_count():
    shape = TreeShape(k=2, d=10)
    leaves = _random_leaves(shape, 300, 0.55, 4)
    whole = bp_posterior_batch_binary(shape, 0.9, leaves, s=0.1)
    parts = [bp_posterior_batch_binary(shape, 0.9, leaves[i : i + 1], s=0.1) for i in range(0, 300, 7)]
    assert np.array_equal(whole[::7], np.concatenate(parts))


# --- the batched kernel against a frozen copy of its earlier float recursion ---


def _frozen_edge_log_odds(lam, theta_float):
    with np.errstate(divide="ignore", invalid="ignore"):
        return 2.0 * np.arctanh(theta_float * np.tanh(lam / 2.0))


def _frozen_parent_table(table, k, theta_float):
    up = _frozen_edge_log_odds(table, theta_float)
    digits = np.indices((len(table),) * k).reshape(k, -1).T
    return up[digits].sum(axis=-1)


def _frozen_batch_bp(shape, theta_float, leaves, s=0.0, height=0):
    """`bp_posterior_batch_binary` as it was before its float levels gathered
    the edge-mapped table and summed children by strided adds: every node
    through the edge map, children summed by `reshape(..., k).sum(axis=2)`.
    Kept verbatim as the bit-for-bit reference (for |theta| < 1)."""
    trials = leaves.shape[0]
    k = shape.k
    if shape.d == 0:
        lam_e = 0.0 if s == 0.5 else np.arctanh(1 - 2 * s) if s > 0 else np.inf
        lam = (2.0 * leaves[:, 0] - 1.0) * (2 * lam_e if np.isfinite(lam_e) else np.inf)
        return _sigmoid(lam)
    with np.errstate(divide="ignore", invalid="ignore"):
        leaf_up = 2.0 * np.arctanh(theta_float * (1.0 - 2.0 * s))
        table = leaf_up * (2.0 * np.arange(k + 1) - k)
        if height == 0:
            codes = leaves[:, 0::k].astype(np.min_scalar_type(k))
            for j in range(1, k):
                np.add(codes, leaves[:, j::k], out=codes, casting="unsafe")
            height = 1
        else:
            codes = leaves
            for _ in range(1, height):
                table = _frozen_parent_table(table, k, theta_float)
        while height < shape.d and len(table) ** k <= trials * shape.nodes_at(shape.d - height - 1):
            radix = len(table)
            table = _frozen_parent_table(table, k, theta_float)
            nxt = codes[:, 0::k].astype(np.min_scalar_type(len(table) - 1))
            for j in range(1, k):
                nxt *= radix
                np.add(nxt, codes[:, j::k], out=nxt, casting="unsafe")
            codes = nxt
            height += 1
        lam = table[codes]
        for _ in range(shape.d - height):
            up = _frozen_edge_log_odds(lam, theta_float)
            lam = up.reshape(trials, -1, k).sum(axis=2)
    return _sigmoid(lam[:, 0])


def _code_count(k, h):
    count = k + 1
    for _ in range(1, h):
        count **= k
    return count if h else 2


@pytest.mark.parametrize("k", [2, 3, 5, 8, 9, 16])
def test_batch_bit_identical_to_the_frozen_recursion(k, subtree_codes):
    # Every height whose code table has at most 2^13 entries, on a depth-1
    # tree (codes reach the root) and the deepest one with at most 729
    # leaves; rows in one batch and in uneven blocks (small blocks code fewer
    # levels).  Strided child sums replace numpy's reduction for k < 8 only.
    rng = np.random.default_rng(k)
    deepest = max(d for d in range(1, 10) if k**d <= 729)
    for d in sorted({1, deepest}):
        shape = TreeShape(k=k, d=d)
        bias = rng.random((37, 1))
        leaves = (rng.random((37, shape.n)) < bias).astype(np.uint8)
        heights = [h for h in range(d + 1) if _code_count(k, h) <= 1 << 13]
        for h, theta, s in product(heights, (-0.6, 0.3, 0.8), (0.0, 0.1, 0.5)):
            codes = subtree_codes(leaves, k, h)
            want = _frozen_batch_bp(shape, theta, codes, s, h)
            got = bp_posterior_batch_binary(shape, theta, codes, s, h)
            assert np.array_equal(got, want, equal_nan=True), (k, d, h, theta, s)
            blocks = [bp_posterior_batch_binary(shape, theta, codes[a:b], s, h)
                      for a, b in ((0, 1), (1, 6), (6, 37))]
            assert np.array_equal(np.concatenate(blocks), want, equal_nan=True), (k, d, h, theta, s)


# --- theta = +-1 with noisy leaves: the edge map is applied exactly ---


@pytest.mark.parametrize("theta", [1, -1])
@pytest.mark.parametrize("s", [Fraction(1, 10), Fraction(1, 4)])
@pytest.mark.parametrize("k,d", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_batch_at_theta_pm1_matches_rational_on_every_configuration(k, d, s, theta):
    shape = TreeShape(k=k, d=d)
    leaves = np.array(list(product((0, 1), repeat=shape.n)), dtype=np.uint8)
    got = bp_posterior_batch_binary(shape, float(theta), leaves, s=float(s))
    channel = Channel.binary(theta)
    for row, post in zip(leaves, got):
        evidence = LeafLikelihood.from_noisy_bits(row, s)
        want = bp_posterior(shape, channel, evidence, mode="rational").masses[1]
        assert post == pytest.approx(float(want), abs=1e-12), (row, theta)


@pytest.mark.parametrize("theta", [1.0, -1.0])
def test_batch_at_theta_pm1_stays_finite_on_strong_opposite_evidence(theta):
    # Left 32 leaves 1, right 32 leaves 0: each half's log-odds passes the
    # ~38 where tanh rounds to 1, yet the evidence cancels exactly.
    shape = TreeShape(k=2, d=6)
    leaves = np.zeros((1, 64), dtype=np.uint8)
    leaves[0, :32] = 1
    assert bp_posterior_batch_binary(shape, theta, leaves, s=0.1).tolist() == [0.5]
    evidence = LeafLikelihood.from_noisy_bits(leaves[0], Fraction(1, 10))
    for mode in ("rational", "float"):
        report = bp_posterior(shape, Channel.binary(int(theta)), evidence, mode=mode)
        assert report.masses[1] == 0.5
    # Hard evidence that conflicts still has probability zero, and raises.
    assert np.isnan(bp_posterior_batch_binary(shape, theta, leaves, s=0.0)).all()
    with pytest.raises(ValueError, match="evidence has zero probability"):
        bp_rounding_decisions(shape, theta, leaves, 0, SeedSpec(1, "pm1"))
