import re
import tracemalloc
from fractions import Fraction
from itertools import product
from math import lcm, sqrt

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import treecast.generators as generators
import treecast.trees as trees
from treecast.channels import Channel, CutTables, cut63
from treecast.estimators import noisy_leaf_channel
from treecast.experiments import (
    DEFAULT_EXACT_SHAPES,
    _chi_square_vs_exact,
    chi_square_of_samples,
    exact_joint_of_leaves,
    tally,
)
from treecast.generators import (
    BATCH_METHODS,
    NoiseSpec,
    add_leaf_noise,
    biased_bit_approx_from_bits,
    biased_bit_exact,
    biased_bit_exact_from_bits,
    code_law,
    code_ones,
    generate_binary_batch,
    generate_direct,
    generate_path_product,
    generate_via_restrictions,
    live_inputs_after,
    path_product_leaf_law,
    restriction_leaf_law,
    total_variation,
)
from treecast.oracle import enumerate_joint
from treecast.rng import (
    BLOCK_WORDS,
    SeedSpec,
    bits_from_word,
    level_words,
    node_counters,
    subkey,
    trial_keys,
    trial_level_words,
    word,
    words_vec,
)
from treecast.trees import TreeShape


def _bits(u: int, n: int):
    return [(u >> (n - 1 - i)) & 1 for i in range(n)]


class TestGenerateDirect:
    def test_theta_one_copies_root(self):
        arr = generate_direct(
            TreeShape(k=3, d=4), Channel.binary(1), SeedSpec(9, "gen"), root=1
        )
        assert all((lvl == 1).all() for lvl in arr.levels)

    def test_theta_zero_leaf_frequency(self):
        freqs = []
        for t in range(100):
            arr = generate_direct(
                TreeShape(k=2, d=10), Channel.binary(0), SeedSpec(2000 + t, "gen")
            )
            freqs.append(arr.leaves.mean())
        assert abs(np.mean(freqs) - 0.5) < 0.01

    def test_edge_copy_rate(self):
        # One tree with > 1e5 edges at theta = 0.9: copy rate 0.95 +- 0.005.
        shape = TreeShape(k=10, d=5)
        arr = generate_direct(shape, Channel.binary(Fraction(9, 10)), SeedSpec(4, "gen"))
        agree = total = 0
        for lvl in range(1, shape.d + 1):
            parents = np.repeat(arr.levels[lvl - 1], shape.k)
            agree += int((arr.levels[lvl] == parents).sum())
            total += len(arr.levels[lvl])
        assert total > 100_000
        assert abs(agree / total - 0.95) < 0.005

    def test_root_override_and_uniform(self):
        shape = TreeShape(k=2, d=1)
        arr = generate_direct(shape, Channel.binary(0), SeedSpec(1, "gen"), root=1)
        assert arr.root == 1
        roots = [
            generate_direct(shape, Channel.binary(0), SeedSpec(s, "gen")).root
            for s in range(2000)
        ]
        assert abs(np.mean(roots) - 0.5) < 0.05


class TestPathProduct:
    def test_flip_free_equals_root(self):
        arr = generate_path_product(
            TreeShape(k=2, d=5), Fraction(1), SeedSpec(3, "gen"), root=1
        )
        assert all((lvl == 1).all() for lvl in arr.levels)

    def test_exact_law_matches_oracle(self):
        shape = TreeShape(k=2, d=2)
        theta = Fraction(1, 2)
        joint = enumerate_joint(shape, Channel.binary(theta))
        for root in (0, 1):
            law = path_product_leaf_law(shape, theta, root)
            assert total_variation(law, joint.cond[root]) == 0

    def test_pairwise_correlation(self):
        # Leaves at tree-distance 2r agree with probability 1/2 + theta^(2r)/2.
        shape = TreeShape(k=2, d=4)
        theta = Fraction(7, 10)
        _, leaves = generate_binary_batch(shape, theta, SeedSpec(8, "gen"), 60_000, "path")
        for r, other in ((1, 1), (2, 2), (4, 15)):
            agree = (leaves[:, 0] == leaves[:, other]).mean()
            want = 0.5 + float(theta) ** (2 * r) / 2
            assert abs(agree - want) < 0.01

    def test_rejects_nonbinary_theta(self):
        with pytest.raises(ValueError):
            generate_path_product(TreeShape(k=2, d=2), Fraction(3, 2), SeedSpec(1, "g"))
        for theta in (Fraction(3), Fraction(-3, 2)):
            with pytest.raises(ValueError, match=r"theta must lie in \[-1, 1\]"):
                path_product_leaf_law(TreeShape(k=2, d=1), theta, 0)


class TestRestrictions:
    # Words that read as *, 0 and 1 at theta = 1/3: past the one cut, below
    # the zero cut, and at the zero cut.
    STAR, ZERO, ONE = 2**64 - 1, 0, 2 * cut63(Fraction(1, 3))

    @staticmethod
    def _level(parents, words):
        part = np.repeat(np.array(parents, dtype=np.uint8), 2)
        generators._binary_step("restrictions", Fraction(1, 3))(part, np.array(words, dtype=np.uint64))
        return part.tolist()

    def test_apply_all_star_copies_parent(self):
        assert self._level([1, 0], [self.STAR] * 4) == [1, 1, 0, 0]

    def test_apply_all_zero(self):
        assert self._level([1, 1], [self.ZERO] * 4) == [0, 0, 0, 0]

    def test_apply_mixed_example(self):
        assert self._level([1, 0], [self.STAR, self.ZERO, self.ONE, self.STAR]) == [1, 0, 1, 0]

    def test_exact_law_matches_oracle(self):
        shape = TreeShape(k=2, d=2)
        theta = Fraction(1, 2)
        joint = enumerate_joint(shape, Channel.binary(theta))
        for root in (0, 1):
            law = restriction_leaf_law(shape, theta, root)
            assert total_variation(law, joint.cond[root]) == 0

    def test_theta_zero_never_star(self):
        # No word reads as *, so the children never depend on the parent.
        words = np.append(level_words(SeedSpec(4, "r").key(), 1, 5000), np.uint64(2**64 - 1))
        step = generators._binary_step("restrictions", Fraction(0))
        children = []
        for parent in (0, 1):
            part = np.full(words.size, parent, dtype=np.uint8)
            step(part, words)
            children.append(part)
        assert np.array_equal(*children)
        arr = generate_via_restrictions(TreeShape(k=2, d=6), 0, SeedSpec(5, "gen"))
        assert abs(arr.leaves.mean() - 0.5) < 0.05

    def test_theta_one_always_star(self):
        arr = generate_via_restrictions(TreeShape(k=3, d=3), 1, SeedSpec(6, "gen"), root=1)
        assert all((lvl == 1).all() for lvl in arr.levels)


_THIRD = Fraction(1, 3)


@pytest.mark.parametrize("parent", [0, 1])
@pytest.mark.parametrize(
    "method, cuts",
    [
        # (cut probability p, child at word 2 cut63(p) - 1, child at word 2 cut63(p))
        ("direct", [((1 + _THIRD) / 2, "parent", "flipped")]),
        ("path", [((1 - _THIRD) / 2, "flipped", "parent")]),
        ("restrictions", [((1 - _THIRD) / 2, 0, 1), (1 - _THIRD, 1, "parent")]),
    ],
    ids=["direct", "path", "restrictions"],
)
def test_child_step_reads_the_words_beside_each_cut_as_documented(method, cuts, parent):
    # direct keeps the parent below its keep cut; path flips it below its
    # flip cut; restrictions read symbol 0 below the zero cut, 1 below the
    # one cut, else * (the parent).
    child = {"parent": parent, "flipped": 1 - parent, 0: 0, 1: 1}
    words = [w for p, _, _ in cuts for w in (2 * cut63(p) - 1, 2 * cut63(p))]
    want = [child[c] for _, below, at in cuts for c in (below, at)]
    part = np.full(len(words), parent, dtype=np.uint8)
    generators._binary_step(method, _THIRD)(part, np.array(words, dtype=np.uint64))
    assert part.tolist() == want


class TestLiveInputs:
    def test_theta_zero_kills_everything(self):
        shape = TreeShape(k=2, d=6)
        n = live_inputs_after(shape, set(range(10)), 1, Fraction(0), SeedSpec(1, "r"))
        assert n == 0

    def test_single_input_survival_rate(self):
        shape = TreeShape(k=2, d=8)
        theta = Fraction(1, 2)
        h = 3
        trials = 100_000
        hits = int(
            live_inputs_after(shape, {0}, h, theta, SeedSpec(12, "r"), trial=np.arange(trials)).sum()
        )
        assert abs(hits / trials - float(theta) ** h) < 0.01

    def test_survivor_tail_bound(self):
        # P[>= c survivors] <= (m theta^h)^c + 3 binomial stderr.
        shape = TreeShape(k=2, d=8)
        theta = Fraction(1, 2)
        trials = 20_000
        for m, c, h in ((4, 2, 4), (4, 3, 4), (16, 2, 8), (16, 3, 8)):
            tracked = set(range(0, m * 16, 16))  # spread across the level
            survivors = live_inputs_after(
                shape, tracked, h, theta, SeedSpec(13, "r"), trial=np.arange(trials)
            )
            tail = int((survivors >= c).sum()) / trials
            bound = (m * float(theta) ** h) ** c
            stderr = sqrt(max(tail * (1 - tail), 1e-9) / trials)
            assert tail <= bound + 3 * stderr

    @staticmethod
    def _live_inputs_reference(shape, tracked, h, theta, seed, trial):
        """One trial at a time: Python-int key, survivors merged per round."""
        key = subkey(seed.key(), trial)
        live = np.array(sorted(tracked), dtype=np.int64)
        for round_idx in range(h):
            w63 = words_vec(key, node_counters(shape.d - round_idx, live)) >> np.uint64(1)
            # The samplers' rule: * is the top theta of the 63-bit range.
            live = np.unique(live[w63 >= np.uint64(cut63(1 - theta))] // shape.k)
        return len(live)

    def test_trial_array_matches_scalar_calls(self):
        shape = TreeShape(k=3, d=6)
        theta = Fraction(2, 3)
        tracked = {0, 1, 5, 200, 728}
        seed = SeedSpec(14, "r")
        counts = live_inputs_after(shape, tracked, 5, theta, seed, trial=np.arange(500))
        assert counts.shape == (500,)
        scalar = [live_inputs_after(shape, tracked, 5, theta, seed, trial=t) for t in range(500)]
        reference = [self._live_inputs_reference(shape, tracked, 5, theta, seed, t) for t in range(500)]
        assert counts.tolist() == scalar == reference
        assert all(type(n) is int for n in scalar)
        assert 0 < counts.sum() < 5 * 500

    @pytest.mark.parametrize("shape", [TreeShape(k=2, d=4), TreeShape(k=3, d=3)])
    @pytest.mark.parametrize("theta", [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(9, 10), Fraction(1)])
    def test_one_leaf_survives_exactly_when_it_follows_the_root(self, shape, theta):
        # Trial t of the batch sampler draws the restrictions that
        # live_inputs_after counts: leaf i survives all d rounds exactly when
        # flipping the root flips it.
        seed, trials = SeedSpec(16, "r"), 300
        zeros, ones = np.zeros(trials, dtype=np.uint8), np.ones(trials, dtype=np.uint8)
        _, low = generate_binary_batch(shape, theta, seed, trials, "restrictions", roots=zeros)
        _, high = generate_binary_batch(shape, theta, seed, trials, "restrictions", roots=ones)
        for i in range(shape.n):
            counts = live_inputs_after(shape, {i}, shape.d, theta, seed, trial=np.arange(trials))
            assert counts.tolist() == (low[:, i] != high[:, i]).astype(int).tolist(), i

    def test_trial_array_repeats_and_order(self):
        shape = TreeShape(k=2, d=8)
        seed = SeedSpec(15, "r")
        tracked = set(range(0, 256, 8))
        counts = live_inputs_after(shape, tracked, 3, Fraction(1, 2), seed, trial=np.array([9, 0, 9]))
        scalar = [live_inputs_after(shape, tracked, 3, Fraction(1, 2), seed, trial=t) for t in (9, 0, 9)]
        assert counts.tolist() == scalar
        empty = live_inputs_after(shape, tracked, 3, Fraction(1, 2), seed, trial=np.arange(0))
        assert empty.shape == (0,)


class TestBiasedBits:
    def test_dyadic_three_quarters_exhaustive(self):
        # theta = 3/4 consumes 3 bits; over all 16 four-bit inputs, 14 map to 1.
        ones = sum(biased_bit_exact_from_bits(Fraction(3, 4), _bits(u, 4)) for u in range(16))
        assert ones == 14

    def test_dyadic_zero_and_half(self):
        assert sum(biased_bit_exact_from_bits(0, _bits(u, 1)) for u in range(2)) == 1
        assert sum(biased_bit_exact_from_bits(Fraction(1, 2), _bits(u, 2)) for u in range(4)) == 3

    def test_non_dyadic_rejected(self):
        with pytest.raises(ValueError, match="biased_bit_approx"):
            biased_bit_exact(Fraction(1, 3), SeedSpec(1, "b"))

    def test_approx_error_budget(self):
        theta = Fraction(1, 3)
        t = 10
        ones = sum(
            biased_bit_approx_from_bits(theta, t, _bits(u, t)) for u in range(1 << t)
        )
        assert abs(Fraction(ones, 1 << t) - Fraction(2, 3)) <= Fraction(1, 1 << t)

    def test_approx_matches_exact_on_dyadic(self):
        # For theta = a/2^b, ceil((1+theta)/2 * 2^(b+1)) = 2^b + a exactly, so
        # both coins read b+1 bits as u and return 1 iff u < 2^b + a.
        for b in range(7):
            for a in range(1 << b):
                theta = Fraction(a, 1 << b)
                need = theta.denominator.bit_length()  # b + 1 in lowest terms
                for u in range(1 << need):
                    bits, want = _bits(u, need), int(u < (1 + theta) * (1 << (need - 1)))
                    assert biased_bit_exact_from_bits(theta, bits) == want
                    assert biased_bit_approx_from_bits(theta, need, bits) == want

    def test_seeded_coins_read_their_counter_word(self):
        import treecast

        seed = SeedSpec(11, "coin")
        exact, approx = [], []
        for draw in range(64):
            w = word(seed.key(), draw)
            exact.append(treecast.biased_bit_exact(Fraction(3, 8), seed, draw))
            assert exact[-1] == biased_bit_exact_from_bits(Fraction(3, 8), bits_from_word(w, 4))
            approx.append(treecast.biased_bit_approx(Fraction(-1, 3), 12, seed, draw))
            assert approx[-1] == biased_bit_approx_from_bits(Fraction(-1, 3), 12, bits_from_word(w, 12))
        assert set(exact) == set(approx) == {0, 1}
        assert treecast.biased_bit_exact(Fraction(3, 8), seed) == exact[0]
        assert treecast.biased_bit_approx(Fraction(-1, 3), 12, seed) == approx[0]

    def test_single_bit_fair(self):
        assert [biased_bit_approx_from_bits(0, 1, [b]) for b in (0, 1)] == [1, 0]

    @given(
        st.fractions(min_value=0, max_value=1).map(lambda f: 2 * f - 1),
        st.integers(1, 10),
    )
    def test_approx_bias_property(self, theta, t):
        ones = sum(
            biased_bit_approx_from_bits(theta, t, _bits(u, t)) for u in range(1 << t)
        )
        assert abs(Fraction(ones, 1 << t) - (1 + theta) / 2) <= Fraction(1, 1 << t)


class TestLeafNoise:
    def test_zero_noise_identity(self):
        arr = generate_direct(TreeShape(k=2, d=4), Channel.binary(Fraction(1, 2)), SeedSpec(3, "g"))
        noisy = add_leaf_noise(arr, NoiseSpec(Fraction(0)), SeedSpec(3, "noise"))
        assert np.array_equal(noisy.leaves, arr.leaves)

    def test_half_noise_erases(self):
        shape = TreeShape(k=10, d=5)
        arr = generate_direct(shape, Channel.binary(Fraction(9, 10)), SeedSpec(5, "g"))
        noisy = add_leaf_noise(arr, NoiseSpec(Fraction(1, 2)), SeedSpec(5, "noise"))
        agree = (noisy.leaves == arr.leaves).mean()
        assert shape.n >= 100_000
        assert abs(agree - 0.5) < 0.01

    def test_flip_rate(self):
        shape = TreeShape(k=10, d=5)
        arr = generate_direct(shape, Channel.binary(Fraction(1, 2)), SeedSpec(6, "g"))
        noisy = add_leaf_noise(arr, NoiseSpec(Fraction(1, 10)), SeedSpec(6, "noise"))
        flip = (noisy.leaves != arr.leaves).mean()
        assert abs(flip - 0.1) < 0.005
        for lvl in range(shape.d):
            assert np.array_equal(noisy.levels[lvl], arr.levels[lvl])

    def test_requires_binary(self):
        from treecast.labels import LabelArray

        arr = LabelArray(
            shape=TreeShape(k=2, d=1),
            m=3,
            levels=[np.array([2], dtype=np.uint8), np.array([0, 1], dtype=np.uint8)],
        )
        with pytest.raises(ValueError):
            add_leaf_noise(arr, NoiseSpec(Fraction(1, 4)), SeedSpec(1, "n"))

    def test_noise_spec_range(self):
        with pytest.raises(ValueError):
            NoiseSpec(Fraction(3, 4))


class TestBatchSampler:
    def test_methods_agree_in_law(self):
        # Same first-two-moment structure across methods (same seeds differ).
        shape = TreeShape(k=2, d=6)
        theta = Fraction(3, 5)
        stats = {}
        for method in ("direct", "path", "restrictions"):
            roots, leaves = generate_binary_batch(
                shape, theta, SeedSpec(77, f"b/{method}"), 40_000, method
            )
            match = (leaves.mean(axis=1) > 0.5) == roots
            stats[method] = (leaves.mean(), match.mean())
        for method, (freq, acc) in stats.items():
            assert abs(freq - 0.5) < 0.01, method
        accs = [v[1] for v in stats.values()]
        assert max(accs) - min(accs) < 0.02

    def test_internal_levels_marginally_uniform(self):
        # Unspecified root: every node's label is marginally uniform.  Nodes
        # within one tree are correlated through the root, so average over
        # many independent trees.
        shape = TreeShape(k=3, d=4)
        trees = 2000
        freqs = np.zeros(shape.d + 1)
        for t in range(trees):
            arr = generate_direct(
                shape, Channel.binary(Fraction(4, 5)), SeedSpec(3000 + t, "gen")
            )
            freqs += [lvl.mean() for lvl in arr.levels]
        freqs /= trees
        for lvl in range(shape.d + 1):
            assert abs(freqs[lvl] - 0.5) < 0.04

    def test_mean_law_monte_carlo(self):
        shape = TreeShape(k=3, d=6)
        theta = Fraction(4, 5)
        trials = 50_000
        _, leaves = generate_binary_batch(
            shape, theta, SeedSpec(21, "mean"), trials, "direct", roots=np.ones(trials, dtype=np.uint8)
        )
        sums = leaves.sum(axis=1)
        want = shape.n / 2 + shape.n * float(theta) ** shape.d / 2
        stderr = sums.std(ddof=1) / sqrt(trials)
        assert abs(sums.mean() - want) <= 3 * stderr


# --- exact leaf laws against the oracle, on every exact-check shape ----------


def _assert_law_equals_oracle(law_fn, k, d, theta, root):
    shape = TreeShape(k=k, d=d)
    law = law_fn(shape, theta, root)
    want = enumerate_joint(shape, Channel.binary(theta)).cond[root]
    assert all(type(p) is Fraction for p in law.values())
    assert set(law) == set(want)  # same support: no zero-probability entries
    assert total_variation(law, want) == 0


@pytest.mark.parametrize("k,d", DEFAULT_EXACT_SHAPES)
@example(theta=Fraction(0), root=0)
@example(theta=Fraction(1), root=1)
@given(theta=st.fractions(min_value=0, max_value=1, max_denominator=100), root=st.integers(0, 1))
def test_restriction_leaf_law_equals_oracle(k, d, theta, root):
    _assert_law_equals_oracle(restriction_leaf_law, k, d, theta, root)


@pytest.mark.parametrize("k,d", DEFAULT_EXACT_SHAPES)
@example(theta=Fraction(-1), root=0)
@example(theta=Fraction(0), root=1)
@example(theta=Fraction(1), root=0)
@given(theta=st.fractions(min_value=-1, max_value=1, max_denominator=100), root=st.integers(0, 1))
def test_path_product_leaf_law_equals_oracle(k, d, theta, root):
    _assert_law_equals_oracle(path_product_leaf_law, k, d, theta, root)


def test_leaf_laws_build_no_fraction_per_configuration(monkeypatch):
    # (2,3) has 16 times the configurations of (2,2); the Fraction count must not grow.
    new = Fraction.__new__
    calls = []

    def counting(cls, *args, **kwargs):
        calls.append(1)
        return new(cls, *args, **kwargs)

    counts = []
    for shape in (TreeShape(k=2, d=2), TreeShape(k=2, d=3)):
        direct = enumerate_joint(shape, Channel.binary(Fraction(1, 3))).cond[1]
        # Warm calls: the first builds each law's cached edge channel.
        path_product_leaf_law(shape, Fraction(1, 3), 1)
        restriction_leaf_law(shape, Fraction(1, 3), 1)
        monkeypatch.setattr(Fraction, "__new__", counting)
        calls.clear()
        path = path_product_leaf_law(shape, Fraction(1, 3), 1)
        restr = restriction_leaf_law(shape, Fraction(1, 3), 1)
        tv = (total_variation(direct, path), total_variation(direct, restr))
        counts.append(len(calls))
        monkeypatch.undo()
        assert tv == (0, 0)
    assert counts[0] == counts[1]


def _brute_force_leaf_law(shape, root, symbols):
    """Sum the exact weight of every per-node symbol assignment, applying
    `symbols` (symbol -> (child label given the parent's, probability)) down
    the tree: an independent reference for the leaf laws."""
    den = lcm(*(p.denominator for _, p in symbols.values()))
    below_root = shape.total_nodes - 1
    law = {}
    for pattern in product(symbols, repeat=below_root):
        level, weight, rest = [root], Fraction(1), iter(pattern)
        for lvl in range(1, shape.d + 1):
            children = []
            for j in range(shape.nodes_at(lvl)):
                rule, p = symbols[next(rest)]
                children.append(rule(level[j // shape.k]))
                weight *= p
            level = children
        law[tuple(level)] = law.get(tuple(level), 0) + weight
    total = den**below_root
    return {x: w * total for x, w in law.items() if w}, total


@pytest.mark.parametrize("k,d", [(1, 3), (2, 1), (2, 2), (3, 1)])
@pytest.mark.parametrize("theta", [Fraction(-1), Fraction(0), Fraction(1, 3), Fraction(1)])
@pytest.mark.parametrize("root", [0, 1])
def test_leaf_laws_equal_brute_force_over_symbol_assignments(k, d, theta, root):
    shape = TreeShape(k=k, d=d)
    p = (1 - theta) / 2  # the flip probability, and each constant's
    laws = [(path_product_leaf_law, {0: (lambda a: a, 1 - p), 1: (lambda a: 1 - a, p)})]
    if theta >= 0:
        laws.append((restriction_leaf_law, {0: (lambda a: 0, p), 1: (lambda a: 1, p), "*": (lambda a: a, theta)}))
    for law_fn, symbols in laws:
        law = law_fn(shape, theta, root)
        numerators, denominator = _brute_force_leaf_law(shape, root, symbols)
        assert dict(law.numerators) == numerators
        assert law.denominator == denominator


@pytest.mark.parametrize("law_fn", [path_product_leaf_law, restriction_leaf_law])
def test_leaf_laws_refuse_shapes_past_the_cap_before_allocating(law_fn):
    # (2,5) has 2^32 leaf configurations, 4096 times the cap.
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"4294967296 configurations, above the cap of 1048576"):
            law_fn(TreeShape(k=2, d=5), Fraction(1, 2), 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


@pytest.mark.parametrize("root", [-1, 2])
def test_exact_laws_refuse_a_root_label_outside_0_1(root):
    # -1 would index root 1's law from the end; 2 would be an IndexError.
    shape = TreeShape(k=2, d=2)
    message = rf"root label {root} outside \[0, 2\)"
    for law in (
        lambda: path_product_leaf_law(shape, Fraction(1, 2), root),
        lambda: restriction_leaf_law(shape, Fraction(1, 2), root),
        lambda: exact_joint_of_leaves(shape, Fraction(1, 2), (0, 3), root),
    ):
        with pytest.raises(ValueError, match=message):
            law()


@pytest.mark.parametrize(
    "generate, theta, message",
    [
        pytest.param(
            lambda shape, theta, seed: generate_direct(shape, Channel.binary(theta), seed),
            2,
            "theta must lie in [-1, 1], got 2",
            id="direct",
        ),
        pytest.param(generate_path_product, 2, "theta must lie in [-1, 1], got 2", id="path"),
        pytest.param(
            generate_via_restrictions, 2, "restriction distributions need theta in [0, 1], got 2", id="restrictions"
        ),
        pytest.param(
            generate_via_restrictions,
            Fraction(-1, 2),
            "restriction distributions need theta in [0, 1], got -1/2",
            id="restrictions-negative",
        ),
    ],
)
def test_generators_refuse_theta_outside_their_range_at_depth_zero(generate, theta, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        generate(TreeShape(k=3, d=0), theta, SeedSpec(1, "gen"))


def test_restriction_leaf_law_rejects_negative_theta():
    message = r"restriction distributions need theta in \[0, 1\], got -1/2"
    with pytest.raises(ValueError, match=message):
        generate_via_restrictions(TreeShape(k=2, d=1), Fraction(-1, 2), SeedSpec(1, "gen"))
    with pytest.raises(ValueError, match=message):
        restriction_leaf_law(TreeShape(k=2, d=1), Fraction(-1, 2), 0)


def test_batch_rejects_theta_outside_unit_interval():
    with pytest.raises(ValueError, match="theta must lie in"):
        generate_binary_batch(TreeShape(k=2, d=2), Fraction(3), SeedSpec(1, "g"), 4)


@pytest.mark.parametrize("method", ["direct", "path"])
def test_batch_negative_theta_matches_exact_law(method):
    # Odd depth and a fixed root, where the leaf law depends on the sign of theta.
    shape = TreeShape(k=2, d=3)
    theta = Fraction(-1, 2)
    sel = (0, 1, 2, 7)
    trials = 20_000
    exact = exact_joint_of_leaves(shape, theta, sel, root=1)
    _, leaves = generate_binary_batch(
        shape, theta, SeedSpec(5, f"neg/{method}"), trials, method, roots=np.ones(trials, dtype=np.uint8)
    )
    passed, detail = chi_square_of_samples(leaves[:, list(sel)], exact, 1e-3)
    assert passed, detail


def test_restriction_batch_rejects_negative_theta():
    with pytest.raises(ValueError, match=r"restriction distributions need theta in \[0, 1\], got -1/2"):
        generate_binary_batch(TreeShape(k=2, d=2), Fraction(-1, 2), SeedSpec(1, "g"), 4, "restrictions")


@pytest.mark.parametrize("method", ["direct", "path", "restrictions"])
def test_batch_start_draws_the_global_trials(method):
    shape, theta, seed = TreeShape(k=3, d=3), Fraction(3, 5), SeedSpec(4, "start")
    roots, leaves = generate_binary_batch(shape, theta, seed, 50, method)
    part_roots, part_leaves = generate_binary_batch(shape, theta, seed, 20, method, start=30)
    assert np.array_equal(part_roots, roots[30:])
    assert np.array_equal(part_leaves, leaves[30:])


class TestNodeBudget:
    def test_budget_is_counted_without_allocating(self):
        assert TreeShape(k=6000, d=2).total_nodes == 36_006_001  # the class16 tree of the paper
        assert TreeShape(k=10, d=5).total_nodes == 111_111
        for k, d in ((2, 40), (3, 10**9)):
            with pytest.raises(ValueError, match="nodes"):
                TreeShape(k=k, d=d)

    @pytest.mark.parametrize("generate", [
        lambda shape: generate_direct(shape, Channel.binary(Fraction(1, 2)), SeedSpec(1, "g")),
        lambda shape: generate_path_product(shape, Fraction(1, 2), SeedSpec(1, "g")),
        lambda shape: generate_via_restrictions(shape, Fraction(1, 2), SeedSpec(1, "g")),
    ])
    def test_generators_check_the_budget_first(self, monkeypatch, generate):
        monkeypatch.setattr(trees, "MAX_TREE_NODES", 100)
        assert generate(TreeShape(k=2, d=5)).shape.total_nodes == 63
        with pytest.raises(ValueError, match="more than 100 nodes"):
            generate(TreeShape(k=2, d=7))


# --- height-h subtree codes ----------------------------------------------------

CODE_THETAS = [Fraction(-1, 2), Fraction(0), Fraction(4, 5), Fraction(1)]
CODE_NOISE = [Fraction(0), Fraction(1, 10)]


def _oracle_code_law(k, d, h, theta, s, root, subtree_codes):
    """Law of the level-(d-h) codes given the root, mapped from the oracle's
    leaf configurations with flip(s) composed into the last edge."""
    joint = enumerate_joint(
        TreeShape(k=k, d=d), Channel.binary(theta), leaf_channel=noisy_leaf_channel(theta, s)
    )
    law = {}
    for cfg, p in joint.cond[root].items():
        key = tuple(int(c) for c in subtree_codes(np.array([cfg]), k, h)[0])
        law[key] = law.get(key, Fraction(0)) + p
    return law


@pytest.mark.parametrize("k,h", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
@pytest.mark.parametrize("theta", CODE_THETAS)
@pytest.mark.parametrize("s", CODE_NOISE)
def test_code_law_equals_oracle(k, h, theta, s, subtree_codes):
    laws, den = code_law(k, h, theta, s)
    for root in (0, 1):
        got = {(v,): Fraction(int(w), den) for v, w in enumerate(laws[root]) if w}
        assert got == _oracle_code_law(k, h, h, theta, s, root, subtree_codes)


def _pool_rare(law, counts, trials, floor=5.0):
    """Merge the cells expected fewer than `floor` times into one, so the
    chi-square approximation holds."""
    rare = {cell for cell, p in law.items() if float(p) * trials < floor}
    pooled_law = {cell: p for cell, p in law.items() if cell not in rare}
    pooled_counts = {cell: c for cell, c in counts.items() if cell not in rare}
    if rare:
        pooled_law["rare"] = sum(law[cell] for cell in rare)
        pooled_counts["rare"] = sum(counts.get(cell, 0) for cell in rare)
    return pooled_law, pooled_counts


@pytest.mark.parametrize("k,d,h", [(2, 2, 0), (2, 2, 1), (2, 2, 2), (2, 3, 2), (3, 2, 1)])
@pytest.mark.parametrize("theta", CODE_THETAS)
@pytest.mark.parametrize("s", CODE_NOISE)
def test_sampled_codes_follow_the_oracle(k, d, h, theta, s, subtree_codes):
    shape, trials = TreeShape(k=k, d=d), 20_000
    seed = SeedSpec(9, f"codes/{k}/{d}/{h}/{theta}/{s}")
    for root in (0, 1):
        exact = _oracle_code_law(k, d, h, theta, s, root, subtree_codes)
        roots = np.full(trials, root, dtype=np.uint8)
        _, codes = generate_binary_batch(shape, theta, seed, trials, roots=roots, height=h, s=s)
        assert codes.shape == (trials, shape.nodes_at(d - h))
        counted = tally(codes)
        assert set(counted) <= set(exact)  # no code of probability zero is drawn
        law, counted = _pool_rare(exact, counted, trials)
        passed, detail = _chi_square_vs_exact(counted, law, trials, 1e-4)
        assert passed, (root, detail)


def test_code_draws_are_keyed_by_trial():
    shape, theta, seed = TreeShape(k=2, d=6), Fraction(3, 5), SeedSpec(4, "start")
    roots, codes = generate_binary_batch(shape, theta, seed, 50, height=3, s=Fraction(1, 10))
    part_roots, part_codes = generate_binary_batch(
        shape, theta, seed, 20, start=30, height=3, s=Fraction(1, 10)
    )
    assert np.array_equal(part_roots, roots[30:])
    assert np.array_equal(part_codes, codes[30:])


def test_batch_rejects_bad_height_method_and_noise():
    shape, seed = TreeShape(k=2, d=3), SeedSpec(1, "g")
    for height in (-1, 4):
        with pytest.raises(ValueError, match="height must lie in"):
            generate_binary_batch(shape, Fraction(1, 2), seed, 4, height=height)
    with pytest.raises(ValueError, match="unknown method"):
        generate_binary_batch(TreeShape(k=2, d=0), Fraction(1, 2), seed, 4, method="median")
    with pytest.raises(ValueError, match="flip probability"):
        generate_binary_batch(shape, Fraction(1, 2), seed, 4, s=Fraction(3, 4))


@pytest.mark.parametrize("roots, bad", [([2], "2"), ([0, 3, -1], "3"), ([0.5, 1.7], "0.5")])
def test_batch_refuses_roots_outside_the_bits(roots, bad):
    # Checked before the uint8 cast, which would read 3 and -1 as 3 and 255, and 0.5 as 0.
    with pytest.raises(ValueError, match=rf"^root label {bad} outside \[0, 2\)$"):
        generate_binary_batch(TreeShape(k=2, d=2), Fraction(4, 5), SeedSpec(1, "g"), len(roots), roots=roots)


def _check_guided_draw(tables: CutTables, raw_words) -> None:
    """Probe every row with 100k random words and every in-range cut, cut - 1
    and cut + 1, each as a raw word: the guide answers most random words
    alone, and `draw` equals the row's plain search on every probe, in any
    array shape."""
    rng = np.random.default_rng(0)
    rows, words, random = [], [], []
    for r, cuts in enumerate(tables.cuts.tolist()):
        near = [c + e for c in cuts for e in (-1, 0, 1) if 0 <= c + e < 1 << 63]
        w = np.concatenate(
            [rng.integers(0, 2**63, 100_000, dtype=np.uint64), np.array(near, dtype=np.uint64)]
        )
        rows.append(np.full(w.size, r, dtype=np.intp))
        words.append(w)
        random.append(np.arange(w.size) < 100_000)
    rows, words, random = map(np.concatenate, (rows, words, random))
    raw = raw_words(words)
    hit = tables.guide[rows, raw >> tables.shift] >= 0
    assert hit[random].mean() > 0.8
    expected = np.concatenate(
        [np.searchsorted(cuts, words[rows == r], side="right") for r, cuts in enumerate(tables.cuts)]
    )
    assert np.array_equal(tables.draw(rows, raw), expected)
    pick = rng.permutation(rows.size)[:100_000].reshape(400, 250)  # 100k probes of mixed rows
    assert np.array_equal(tables.draw(rows[pick], raw[pick]), expected[pick])


@pytest.mark.parametrize("k,h,theta,s", [
    (2, 4, Fraction(4, 5), Fraction(1, 10)),
    (3, 2, Fraction(-1, 2), Fraction(0)),
    (2, 2, Fraction(1), Fraction(0)),
])
def test_code_guide_table_agrees_with_the_plain_search(raw_words, k, h, theta, s):
    _check_guided_draw(generators._code_tables(k, h, theta, s), raw_words)


@pytest.mark.parametrize("channel", ["quotient", Channel.binary(1), Channel.from_columns([[1]])])
def test_channel_guide_table_agrees_with_the_plain_search(raw_words, channel):
    # The quotient channel's 16 rows, deterministic columns, and empty rows.
    if channel == "quotient":
        from treecast.a5.quotient import quotient_channel

        channel = quotient_channel()
    _check_guided_draw(CutTables(channel.sampling_cuts()), raw_words)


def test_cut_tables_guide_stays_within_budget(raw_words):
    rng = np.random.default_rng(5)
    cuts = np.sort(rng.integers(0, 2**63, (600, 599), dtype=np.uint64), axis=1)
    tables = CutTables(cuts)
    assert tables.guide.size <= CutTables.GUIDE_CELLS
    rows = rng.integers(0, 600, 100_000)
    words = rng.integers(0, 2**63, 100_000, dtype=np.uint64)
    expected = np.array([np.searchsorted(cuts[r], w, side="right") for r, w in zip(rows, words)])
    assert np.array_equal(tables.draw(rows, raw_words(words)), expected)


@pytest.mark.parametrize("dtype", [np.uint8, np.int64])
def test_cut_tables_draw_strided_views(raw_words, dtype):
    # Rows and words as non-contiguous views spanning several index blocks,
    # some words exactly at a cut: the draw equals each row's plain search,
    # in the views' shape.
    rng = np.random.default_rng(9)
    cuts = np.sort(rng.integers(0, 2**63, (3, 40), dtype=np.uint64), axis=1)
    cuts[1, :20] = cuts[1, 0]  # repeated cuts: labels of probability zero
    tables = CutTables(cuts)
    n = 2 * BLOCK_WORDS + 11
    rows_1d = rng.integers(0, 3, 3 * n).astype(dtype)[::3]
    words_1d = rng.integers(0, 2**63, (n, 2), dtype=np.uint64)[:, 1]
    rows_2d = rng.integers(0, 3, (300, 1400)).astype(dtype)[:, ::2]
    words_2d = rng.integers(0, 2**63, (700, 300), dtype=np.uint64).T
    for rows, words in ((rows_1d, words_1d), (rows_2d, words_2d)):
        assert not rows.flags.c_contiguous and not words.flags.c_contiguous
        words[..., :120] = cuts.ravel()
        want = np.empty(rows.shape, dtype=np.int64)
        for row in range(3):
            at = rows == row
            want[at] = np.searchsorted(cuts[row], words[at], side="right")
        raw = np.empty(words.shape + (2,), dtype=np.uint64)[..., 0]  # strided, as `words` is
        raw[...] = raw_words(words)
        assert not raw.flags.c_contiguous
        got = tables.draw(rows, raw)
        assert got.shape == rows.shape and np.array_equal(got, want)


def test_cut_tables_leave_the_callers_array_writeable():
    cuts = np.array([[1 << 61, 1 << 62]], dtype=np.uint64)
    tables = CutTables(cuts)
    assert cuts.flags.writeable and not tables.cuts.flags.writeable
    cuts[0, 0] = 0
    assert tables.cuts[0, 0] == 1 << 61


# --- the streamed batch sampler against its per-level form ---------------------


def _per_level_batch(shape, theta, seed, trials, method, roots=None, start=0, height=0, s=0):
    """`generate_binary_batch` as it sampled before its levels were streamed,
    frozen here as the reference: one (trials, nodes) word array per level,
    shifted to 63 bits and compared against the cuts, then one flat code draw
    of the raw words."""
    t, sf = Fraction(theta), Fraction(s)
    tkeys = trial_keys(seed.key(), trials, start)
    if roots is None:
        root_words = trial_level_words(tkeys, 0, 1)[:, 0]
        roots = ((root_words >> np.uint64(1)) >= np.uint64(cut63(Fraction(1, 2)))).astype(np.uint8)
    labels = roots.reshape(-1, 1)
    if shape.d == 0 and sf:
        w63 = trial_level_words(tkeys, 0, 1, word_index=1) >> np.uint64(1)
        labels = labels ^ (w63 < np.uint64(cut63(sf))).astype(np.uint8)
    for lvl in range(1, shape.d - height + 1):
        lt = t * (1 - 2 * sf) if lvl == shape.d else t
        w63 = trial_level_words(tkeys, lvl, shape.nodes_at(lvl))
        w63 >>= np.uint64(1)
        parents = np.repeat(labels, shape.k, axis=1)
        if method == "direct":
            parents ^= w63 >= np.uint64(cut63((1 + lt) / 2))
        elif method == "path":
            parents ^= w63 < np.uint64(cut63((1 - lt) / 2))
        else:
            parents = np.where(
                w63 < np.uint64(cut63((1 - lt) / 2)),
                0,
                np.where(w63 < np.uint64(cut63(1 - lt)), 1, parents),
            ).astype(np.uint8)
        labels = parents
    if height == 0:
        return roots, labels
    words = trial_level_words(tkeys, shape.d - height, shape.nodes_at(shape.d - height), word_index=1)
    codes = generators._code_tables(shape.k, height, t, sf).draw(labels, words)
    return roots, codes.astype(np.min_scalar_type(len(code_ones(shape.k, height)) - 1))


BATCH_THETAS = [Fraction(x) for x in ("-1", "-1/3", "0", "1/2", "4/5", "1")]
BATCH_NOISE = [Fraction(0), Fraction(1, 10), Fraction(1, 2)]


@st.composite
def _batch_cases(draw):
    method = draw(st.sampled_from(BATCH_METHODS))
    theta = draw(st.sampled_from(BATCH_THETAS) | st.fractions(-1, 1, max_denominator=30))
    if method == "restrictions":
        theta = abs(theta)
    shape = TreeShape(k=draw(st.integers(2, 3)), d=draw(st.integers(0, 4)))
    trials = draw(st.integers(0, 40))
    roots = draw(st.none() | st.lists(st.integers(0, 1), min_size=trials, max_size=trials))
    return dict(
        shape=shape,
        theta=theta,
        seed=SeedSpec(draw(st.integers(0, 2**64 - 1)), "stream"),
        trials=trials,
        method=method,
        roots=None if roots is None else np.array(roots, dtype=np.uint8),
        start=draw(st.integers(0, 2**40)),
        height=draw(st.integers(0, shape.d)),
        s=draw(st.sampled_from(BATCH_NOISE) | st.fractions(0, Fraction(1, 2), max_denominator=30)),
    )


def _assert_batch_equals_per_level(case):
    got = generate_binary_batch(**case)
    want = _per_level_batch(**case)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


@given(case=_batch_cases())
def test_streamed_batch_equals_the_per_level_sampler(case):
    _assert_batch_equals_per_level(case)


@pytest.mark.parametrize("method", BATCH_METHODS)
def test_streamed_batch_equals_the_per_level_sampler_across_blocks(monkeypatch, method):
    # 64-word blocks: levels of many blocks, leaves of (2, 7) and (3, 5)
    # wider than one block, and codes drawn from levels of 27 and 128 nodes.
    monkeypatch.setattr("treecast.rng.BLOCK_WORDS", 64)
    for shape, height in ((TreeShape(2, 7), 0), (TreeShape(3, 5), 0), (TreeShape(3, 5), 2), (TreeShape(2, 9), 2)):
        for theta, s in ((Fraction(4, 5), Fraction(1, 10)), (Fraction(1), 0), (Fraction(0), Fraction(1, 2))):
            _assert_batch_equals_per_level(
                dict(shape=shape, theta=theta, seed=SeedSpec(3, "blocks"), trials=23,
                     method=method, start=5, height=height, s=s)
            )


@pytest.mark.parametrize("method", BATCH_METHODS)
def test_batch_sampler_builds_no_level_word_array(method):
    # One (trials, nodes) uint64 level array is 8 times the leaves' bytes;
    # the streamed sampler keeps the labels and one block pair.
    tracemalloc.start()
    try:
        _, leaves = generate_binary_batch(
            TreeShape(3, 5), Fraction(4, 5), SeedSpec(1, "mem"), 20_000, method=method
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * leaves.nbytes, (peak, leaves.nbytes)
