from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import chi2

from treecast.a5.group import A5
from treecast.a5.pair_model import (
    _product_tree_levels,
    _uniform60,
    generate_pair_model,
    pair_code,
    pair_model_child_law,
    product_tree_child_law,
    product_tree_generate,
)
import treecast.a5.quotient as quotient
from treecast.a5.quotient import (
    class_pair_code,
    generate_class16,
    pair_to_class_pair,
    quotient_channel,
)
from treecast.channels import cumulative_cuts, cut63, ks_parameter
from treecast.rng import SeedSpec, level_words, node_counters, trial_keys, trial_level_words, words_vec
from treecast.trees import TreeShape


_TWO_THIRDS_CUT = np.uint64(cut63(Fraction(2, 3)))  # the branch cut of 63-bit words


def _pair_parts(codes):
    return (codes // 60).astype(np.int64), (codes % 60).astype(np.int64)


class TestPairModel:
    def test_uniform60_equals_the_plain_search_at_every_cut(self):
        # 64-bit words: the draw reads word >> 1, so 2 cut + {-2..3} puts
        # w63 at cut - 1, cut and cut + 1.
        cuts = cumulative_cuts([1] * 60, 60).astype(object)
        words = [0, 2**64 - 1, *(2 * c + e for c in cuts for e in range(-2, 4))]
        words = np.array(words, dtype=np.uint64)
        want = np.searchsorted(cumulative_cuts([1] * 60, 60), words >> np.uint64(1), side="right")
        got = _uniform60(words)
        assert got.dtype == np.uint8 and np.array_equal(got, want)
        assert _uniform60(words[:1]).tolist() == [0] and _uniform60(words[1:2]).tolist() == [59]

    def test_child_product_invariant(self):
        shape = TreeShape(k=5, d=3)
        tree = generate_pair_model(shape, SeedSpec(31, "pair"))
        for lvl in range(1, shape.d + 1):
            parents = np.repeat(tree.levels[lvl - 1].astype(np.int64), shape.k)
            pf, ps = _pair_parts(parents)
            cf, cs = _pair_parts(tree.levels[lvl].astype(np.int64))
            prod = A5.mul[cf, cs]
            assert bool(np.all((prod == pf) | (prod == ps)))

    def test_branch_frequency_two_thirds(self):
        shape = TreeShape(k=40, d=3)  # 65,640 edges; add a second tree for 1e5+
        hits = total = 0
        for t in range(2):
            tree = generate_pair_model(shape, SeedSpec(100 + t, "pair"))
            for lvl in range(1, shape.d + 1):
                parents = np.repeat(tree.levels[lvl - 1].astype(np.int64), shape.k)
                pf, ps = _pair_parts(parents)
                cf, cs = _pair_parts(tree.levels[lvl].astype(np.int64))
                prod = A5.mul[cf, cs]
                distinct = pf != ps
                hits += int((prod[distinct] == pf[distinct]).sum())
                total += int(distinct.sum())
        assert total > 100_000
        assert abs(hits / total - 2 / 3) < 0.01

    def test_child_first_uniform(self):
        shape = TreeShape(k=100_000, d=1)
        tree = generate_pair_model(shape, SeedSpec(9, "pair"), root=pair_code(3, 44))
        first = tree.levels[1].astype(np.int64) // 60
        counts = np.bincount(first, minlength=60)
        expected = shape.k / 60
        stat = float(((counts - expected) ** 2 / expected).sum())
        assert stat <= chi2.ppf(0.999, 59)

    def test_child_law_exact(self):
        law = pair_model_child_law(pair_code(7, 7))
        assert sum(law.values()) == 1
        assert len(law) == 60  # diagonal parent: one factorization family
        law2 = pair_model_child_law(pair_code(7, 9))
        assert len(law2) == 120


def _product_tree_levels_by_prefix_products(d, sigma, k, seed, trees):
    """Frozen reference sampler: segment products from the word's prefix
    products, seg(a, b) = pref[a]^-1 pref[b]."""
    sigma = np.asarray(sigma, dtype=np.uint8)
    mul, inv = A5.mul, A5.inv
    pref = np.zeros(len(sigma) + 1, dtype=np.uint8)
    for i, g in enumerate(sigma):
        pref[i + 1] = mul[pref[i], g]
    tkeys = trial_keys(seed.key(), trees)
    j = np.zeros((trees, 1), dtype=np.int64)
    x = y = z = np.zeros((trees, 1), dtype=np.uint8)

    def resolve(level):
        H = 1 << (d - level)
        first = mul[mul[x, mul[inv[pref[j]], pref[j + H]]], y]
        second = mul[mul[inv[y], mul[inv[pref[j + H]], pref[j + 2 * H]]], z]
        return first.astype(np.uint16) * 60 + second.astype(np.uint16)

    out = [resolve(0)]
    for level in range(1, d + 1):
        H = 1 << (d - level + 1)
        j, x, y, z = (np.repeat(a, k, axis=1) for a in (j, x, y, z))
        b3 = _uniform60(trial_level_words(tkeys, level, k**level, word_index=0))
        take_second = (
            trial_level_words(tkeys, level, k**level, word_index=1) >> np.uint64(1)
        ) >= _TWO_THIRDS_CUT
        j = j + np.where(take_second, H, 0)
        x, y, z = np.where(take_second, inv[y], x), b3, np.where(take_second, z, y)
        out.append(resolve(level))
    return out


def _generate_pair_model_by_division(shape, seed, root=None):
    """Frozen reference sampler: each child decodes its parent with // and %,
    picks the branch with np.where and multiplies mul[inv[b], target]."""
    key = seed.key()
    if root is None:
        b, s = _uniform60(words_vec(key, node_counters(0, 0, np.arange(2)))).tolist()
        root = pair_code(b, s)
    levels = [np.array([root], dtype=np.uint16)]
    for lvl in range(1, shape.d + 1):
        count = shape.nodes_at(lvl)
        parents = np.repeat(levels[-1], shape.k)
        first = (parents // 60).astype(np.uint8)
        second = (parents % 60).astype(np.uint8)
        b = _uniform60(level_words(key, lvl, count, word_index=0))
        branch = (level_words(key, lvl, count, word_index=1) >> np.uint64(1)) < _TWO_THIRDS_CUT
        target = np.where(branch, first, second)
        child_second = A5.mul[A5.inv[b], target]
        levels.append(b.astype(np.uint16) * 60 + child_second.astype(np.uint16))
    return levels


@given(
    k=st.integers(1, 40),
    d=st.integers(0, 3),
    root=st.none() | st.integers(0, 3599),
    seed=st.integers(0, 2**64 - 1),
)
def test_pair_model_equals_the_division_sampler(k, d, root, seed):
    shape = TreeShape(k=k, d=d)
    spec = SeedSpec(seed, "pair/frozen")
    got = generate_pair_model(shape, spec, root=root).levels
    want = _generate_pair_model_by_division(shape, spec, root=root)
    assert len(got) == len(want) == d + 1
    for g, w in zip(got, want):
        assert g.dtype == w.dtype == np.uint16 and g.tobytes() == w.tobytes()


def _product_tree_levels_by_resolve(d, sigma, k, seed, trees):
    """Frozen reference sampler: node state (j, x, y, z), each level's labels
    resolved from the aligned block products with four products per node."""
    sigma = np.asarray(sigma, dtype=np.uint8)
    tkeys = trial_keys(seed.key(), trees)
    times = A5.times
    j = np.zeros((trees, 1), dtype=np.int64)
    x = y = z = np.full((trees, 1), A5.identity, dtype=np.uint8)

    def resolve(level):
        shift = d - level
        blocks = A5.products(sigma.reshape(-1, 1 << shift))
        block = j >> shift
        first = times(times(x, blocks.take(block)), y)
        second = times(times(A5.inv.take(y), blocks.take(block + 1)), z)
        return first.astype(np.uint16) * 60 + second

    out = [resolve(0)]
    for level in range(1, d + 1):
        count = k**level
        H = 1 << (d - level + 1)
        j, x, y, z = (np.repeat(a, k, axis=1) for a in (j, x, y, z))
        second = (
            trial_level_words(tkeys, level, count, word_index=1) >> np.uint64(1)
        ) >= _TWO_THIRDS_CUT
        j += H * second
        np.copyto(x, A5.inv.take(y), where=second)
        np.copyto(z, y, where=~second)
        y = _uniform60(trial_level_words(tkeys, level, count, word_index=0))
        out.append(resolve(level))
    return out


@given(
    d=st.integers(0, 3),
    k=st.integers(1, 5),
    trees=st.integers(1, 3),
    seed=st.integers(0, 2**64 - 1),
    data=st.data(),
)
def test_product_tree_equals_the_resolve_sampler(d, k, trees, seed, data):
    sigma = data.draw(st.lists(st.integers(0, 59), min_size=2 ** (d + 1), max_size=2 ** (d + 1)))
    spec = SeedSpec(seed, "pt/resolve")
    got = _product_tree_levels(d, sigma, k, spec, trees)
    want = _product_tree_levels_by_resolve(d, sigma, k, spec, trees)
    assert len(got) == len(want) == d + 1
    for level, (g, w) in enumerate(zip(got, want)):
        assert g.shape == w.shape == (trees, k**level)
        assert g.dtype == w.dtype == np.uint16 and g.tobytes() == w.tobytes()


class TestProductTree:
    @pytest.mark.parametrize(
        "d, k, trees", [(1, 3600, 1), (1, 3, 700), (3, 4, 50), (5, 2, 20), (0, 5, 3)]
    )
    def test_levels_equal_the_prefix_product_sampler(self, d, k, trees):
        sigma = _uniform60(np.arange(2 ** (d + 1), dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15))
        seed = SeedSpec(d * 100 + k, "pt")
        got = _product_tree_levels(d, sigma, k, seed, trees)
        want = _product_tree_levels_by_prefix_products(d, sigma, k, seed, trees)
        assert len(got) == len(want) == d + 1
        for g, w in zip(got, want):
            assert g.dtype == np.uint16 and np.array_equal(g, w)

    def test_root_is_half_products(self):
        rng = np.random.default_rng(3)
        for d in (1, 2, 3):
            sigma = rng.integers(0, 60, size=2 ** (d + 1))
            tree = product_tree_generate(d, sigma, 3, SeedSpec(int(d), "pt"))
            half = len(sigma) // 2
            want = pair_code(A5.product(sigma[:half]), A5.product(sigma[half:]))
            assert tree.root == want

    def test_product_invariant_every_edge(self):
        rng = np.random.default_rng(4)
        sigma = rng.integers(0, 60, size=16)  # d = 3
        shape_k = 4
        tree = product_tree_generate(3, sigma, shape_k, SeedSpec(8, "pt"))
        for lvl in range(1, 4):
            parents = np.repeat(tree.levels[lvl - 1].astype(np.int64), shape_k)
            pf, ps = _pair_parts(parents)
            cf, cs = _pair_parts(tree.levels[lvl].astype(np.int64))
            prod = A5.mul[cf, cs]
            assert bool(np.all((prod == pf) | (prod == ps)))

    def test_wrong_sigma_length(self):
        with pytest.raises(ValueError):
            product_tree_generate(2, [1, 2, 3], 2, SeedSpec(1, "pt"))

    def test_child_law_equals_pair_model_exactly(self):
        sigma = (12, 5, 33, 48)
        root = pair_code(A5.product(sigma[:2]), A5.product(sigma[2:]))
        assert product_tree_child_law(sigma) == pair_model_child_law(root)

    def test_branch_frequency_two_thirds(self):
        # First-segment branch picked with probability 2/3, over > 1e5 edges.
        sigma = np.array([12, 5, 33, 48], dtype=np.uint8)
        first, second = A5.product(sigma[:2]), A5.product(sigma[2:])
        assert first != second  # distinct half-products identify the branch
        k = 4
        trees = 30_000
        levels = _product_tree_levels(1, sigma, k, SeedSpec(5150, "pt"), trees)
        children = levels[1].reshape(-1).astype(np.int64)
        prod = A5.mul[children // 60, children % 60]
        assert children.size >= 100_000
        assert abs((prod == first).mean() - 2 / 3) < 0.01

    def test_child_law_chi_square(self):
        sigma = np.array([12, 5, 33, 48], dtype=np.uint8)
        law = product_tree_child_law(sigma)
        k = 3
        trees = 40_000
        levels = _product_tree_levels(1, sigma, k, SeedSpec(77, "pt"), trees)
        children = levels[1].reshape(-1).astype(np.int64)
        counts = np.bincount(children, minlength=3600)
        stat = 0.0
        for code, p in law.items():
            expected = float(p) * children.size
            stat += (counts[code] - expected) ** 2 / expected
        assert counts.sum() == children.size
        outside = counts.sum() - sum(counts[code] for code in law)
        assert outside == 0
        assert stat <= chi2.ppf(0.999, len(law) - 1)


class TestQuotient:
    def test_column_stochastic_exact(self):
        ch = quotient_channel()
        assert ch.m == 16
        for j in range(16):
            assert sum(ch.column(j)) == 1

    def test_identity_parent_diagonal_column(self):
        ch = quotient_channel()
        col = ch.column(class_pair_code(0, 0))
        for c1 in range(4):
            for c2 in range(4):
                want = Fraction((1, 15, 20, 24)[c1], 60) if c1 == c2 else Fraction(0)
                assert col[class_pair_code(c1, c2)] == want

    def test_identity_first_child_rates(self):
        ch = quotient_channel()
        parent = class_pair_code(2, 3)  # distinct classes
        assert ch.column(parent)[class_pair_code(0, 2)] == Fraction(1, 90)
        assert ch.column(parent)[class_pair_code(0, 3)] == Fraction(1, 180)

    def test_square_columns_identical(self):
        sq = quotient_channel().square()
        assert sq.has_identical_columns()
        for j in range(16):
            assert sum(sq.column(j)) == 1

    def test_ks_parameter_zero_every_k(self):
        ch = quotient_channel()
        for k in (2, 60, 6000, 60000):
            assert ks_parameter(ch, k) == 0.0

    def test_pair_to_class_pair(self):
        assert pair_to_class_pair(pair_code(0, 0)) == class_pair_code(0, 0)
        g3 = A5.elements_of_class(2)[0]
        g5 = A5.elements_of_class(3)[0]
        assert pair_to_class_pair(pair_code(g3, g5)) == class_pair_code(2, 3)

    def test_quotient_matches_pair_model_statistically(self):
        # Quotienting sampled pair-model children reproduces the M' column.
        shape = TreeShape(k=60_000, d=1)
        g5 = A5.elements_of_class(3)[0]
        g2 = A5.elements_of_class(1)[0]
        root = pair_code(g5, g2)
        tree = generate_pair_model(shape, SeedSpec(55, "pair"), root=root)
        children = tree.levels[1].astype(np.int64)
        quotiented = np.array([pair_to_class_pair(int(c)) for c in children])
        counts = np.bincount(quotiented, minlength=16)
        col = quotient_channel().column(class_pair_code(3, 1))
        stat = 0.0
        dof = 0
        for part in range(16):
            expected = float(col[part]) * shape.k
            if expected == 0:
                assert counts[part] == 0
                continue
            stat += (counts[part] - expected) ** 2 / expected
            dof += 1
        assert stat <= chi2.ppf(0.999, dof - 1)

    def test_every_pair_label_sends_its_parts_column(self):
        # The sampler's child law, quotiented, for all 3600 pair labels.
        ch = quotient_channel()
        for label in range(3600):
            law = pair_model_child_law(label)
            assert law.denominator == 180
            sent = [0] * 16
            for child, n in law.numerators.items():
                sent[pair_to_class_pair(child)] += n
            col = ch.column(pair_to_class_pair(label))
            assert sent == [180 * p for p in col]

    def test_build_rejects_a_table_that_is_not_lumpable(self, monkeypatch):
        table = quotient._split_table()
        g = A5.elements_of_class(2)[1]
        broken = table.copy()
        broken[g, [2, 3]] = broken[g, [3, 2]]  # one member of a class moves mass
        monkeypatch.setattr(quotient, "_split_table", lambda: broken)
        with pytest.raises(AssertionError, match="lumpability fails"):
            quotient_channel.__wrapped__()
        # Moved for the whole class alike, it is lumpable but not the pair model.
        members = A5.elements_of_class(2)
        broken = table.copy()
        broken[np.ix_(members, [2, 3])] = broken[np.ix_(members, [3, 2])]
        monkeypatch.setattr(quotient, "_split_table", lambda: broken)
        with pytest.raises(AssertionError, match="disagrees with the pair model"):
            quotient_channel.__wrapped__()

    def test_generate_class16(self):
        tree = generate_class16(TreeShape(k=4, d=2), SeedSpec(3, "c16"))
        assert tree.m == 16
        assert all(int(lvl.max()) < 16 for lvl in tree.levels)
