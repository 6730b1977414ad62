import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from functools import lru_cache
from math import factorial, isqrt
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

import treecast.a5
from treecast.a5 import reconstruct
from treecast.a5.group import A5
from treecast.a5.pair_model import generate_pair_model, pair_code
from treecast.a5.quotient import class_pair_code, generate_class16, quotient_channel
from treecast.a5.reconstruct import (
    class16_reconstruction_trial,
    identity_first_tallies,
    pair_reconstruction_trial,
    reconstruct_level_class16_from_counts,
    reconstruct_level_pair,
    recursive_reconstruct,
)
from treecast.channels import Channel, _bounded_binomial_cuts, binomial_cuts, uniform_draw
from treecast.generators import generate_direct
from treecast.rng import SeedSpec, level_words, subkey, words_vec
from treecast.trees import TreeShape


class TestTallyRules:
    def test_pair_rule_noise_free(self):
        # Children carrying exact 2/3-vs-1/3 product split recover the parent.
        first, second = 11, 29
        b = np.arange(60)
        kids_first = pair_code(b, A5.mul[A5.inv[b], first])
        kids_second = pair_code(b[:30], A5.mul[A5.inv[b[:30]], second])
        children = np.concatenate([kids_first, kids_second]).astype(np.uint16)
        out = reconstruct_level_pair(children, len(children))
        assert int(out[0]) == pair_code(first, second)

    def test_pair_rule_diagonal(self):
        first = 23
        b = np.arange(60)
        children = pair_code(b, A5.mul[A5.inv[b], first]).astype(np.uint16)
        out = reconstruct_level_pair(children, 60)
        assert int(out[0]) == pair_code(first, first)

    def test_class_rule_noise_free(self):
        # 40 identity-first children of class S, 20 of class S', rest irrelevant.
        counts = np.zeros((1, 16), dtype=np.int64)
        counts[0, class_pair_code(0, 3)] = 40
        counts[0, class_pair_code(0, 1)] = 20
        counts[0, class_pair_code(2, 2)] = 500
        labels, empty = reconstruct_level_class16_from_counts(counts, tie_key=1)
        assert int(labels[0]) == class_pair_code(3, 1)
        assert not empty[0]

    def test_class_rule_diagonal_threshold(self):
        counts = np.zeros((1, 16), dtype=np.int64)
        counts[0, class_pair_code(0, 2)] = 100  # runner-up count 0 < 100 / 5
        labels, _ = reconstruct_level_class16_from_counts(counts, tie_key=1)
        assert int(labels[0]) == class_pair_code(2, 2)

    @pytest.mark.parametrize("runner, second", [(19, 2), (20, 1)])
    def test_diagonal_exactly_below_a_fifth_of_the_top(self, runner, second):
        counts = np.zeros((1, 16), dtype=np.int64)
        counts[0, class_pair_code(0, 2)] = 100
        counts[0, class_pair_code(0, 1)] = runner
        labels, _ = reconstruct_level_class16_from_counts(counts, tie_key=1)
        assert int(labels[0]) == class_pair_code(2, second)
        # Children whose pair products are 7 (100 of them) and 3.
        children = np.repeat([pair_code(A5.identity, 7), pair_code(A5.identity, 3)], [100, runner]).astype(np.uint16)
        assert int(reconstruct_level_pair(children, children.size)[0]) == pair_code(7, 7 if second == 2 else 3)

    def test_class_rule_zero_identity_children_flagged(self):
        counts = np.zeros((2, 16), dtype=np.int64)
        counts[0, class_pair_code(1, 1)] = 50  # no identity-first children at all
        counts[1, class_pair_code(0, 3)] = 10
        labels, empty = reconstruct_level_class16_from_counts(counts, tie_key=9)
        assert empty[0] and not empty[1]
        assert 0 <= int(labels[0]) < 16

    @pytest.mark.parametrize("columns", [4, 16])
    def test_class_rule_empty_rows_draw_uniform_labels(self, columns):
        # An all-zero row is flagged and labelled by the uniform draw over 16
        # labels of its row's word under tie_key.
        rows = 2000
        labels, empty = reconstruct_level_class16_from_counts(
            np.zeros((rows, columns), dtype=np.int64), tie_key=7
        )
        assert empty.all()
        assert labels.tolist() == uniform_draw(16, words_vec(7, np.arange(rows, dtype=np.uint64))).tolist()
        assert set(labels.tolist()) == set(range(16))


def _exact_binomial_cuts(n: int, p: Fraction, stop: int | None = None) -> list[int]:
    """floor(2^63 * P[Bin(n, p) <= x]) for x < stop (default n), in integers."""
    a, b = p.numerator, p.denominator
    total, term = b**n, (b - a) ** n  # term = C(n, x) a^x (b - a)^(n - x)
    out, cum = [], 0
    for x in range(n if stop is None else stop):
        cum += term
        out.append((cum << 63) // total)
        term = term * (n - x) * a // ((x + 1) * (b - a)) if term else 0
    return out


def _multinomial_law(k: int, column: tuple[Fraction, ...]) -> dict[tuple[int, ...], Fraction]:
    """Exact law of the tallies of codes 0..3 among k i.i.d. children."""
    q = list(column[:4]) + [1 - sum(column[:4])]
    law = {}
    for n0 in range(k + 1):
        for n1 in range(k + 1 - n0):
            for n2 in range(k + 1 - n0 - n1):
                for n3 in range(k + 1 - n0 - n1 - n2):
                    ns = (n0, n1, n2, n3, k - n0 - n1 - n2 - n3)
                    prob = Fraction(factorial(k))
                    for count, qi in zip(ns, q):
                        prob *= qi**count / factorial(count)
                    if prob:
                        law[ns[:4]] = prob
    return law


def _grouped_binomial_draws(n, p, which, w63):
    """X_i ~ Bin(n_i, p[which_i]) by inverting word w63_i, one `binomial_cuts`
    table and one plain search per distinct (n, p): the tallies' draw before
    they had cached tables."""
    group = which * (int(n.max(initial=0)) + 1) + n
    order = np.argsort(group, kind="stable")
    bounds = np.flatnonzero(np.diff(group[order], prepend=-1, append=-1)).tolist()
    words = w63[order]
    drawn = np.empty(n.size, dtype=np.int64)
    for start, stop in zip(bounds[:-1], bounds[1:]):
        i = order[start]
        lo, cuts = binomial_cuts(int(n[i]), p[which[i]])
        drawn[start:stop] = lo + cuts.searchsorted(words[start:stop], side="right")
    out = np.empty_like(drawn)
    out[order] = drawn
    return out


def _reconstruct_level_pair_by_division(child_labels, k):
    """Frozen reference tally: decode each child with // and %, multiply
    through the 2-D table, count products per node with one bincount, and
    take the top two by argmax (ties to the lower product); a runner-up
    below 1/5 of the top makes the label diagonal."""
    codes = np.asarray(child_labels)
    first = (codes // 60).astype(np.intp)
    second = (codes % 60).astype(np.intp)
    products = A5.mul[first, second].astype(np.intp)
    nodes = codes.size // k
    offsets = np.repeat(np.arange(nodes, dtype=np.intp) * 60, k)
    counts = np.bincount(offsets + products, minlength=nodes * 60).reshape(nodes, 60)
    rows = np.arange(nodes)
    top = counts.argmax(axis=1)
    top_count = counts[rows, top]
    rest = counts.copy()
    rest[rows, top] = -1
    runner = rest.argmax(axis=1)
    runner_count = counts[rows, runner]
    diagonal = runner_count * 5 < top_count
    return (top * 60 + np.where(diagonal, top, runner)).astype(np.uint16)


def _top_two_by_argmax(counts):
    """Frozen reference: row-wise argmax over node-major (nodes, width)
    tallies, then again with the top masked (ties to the lower value)."""
    rows = np.arange(len(counts))
    top = counts.argmax(axis=1)
    rest = counts.astype(np.int64, copy=True)
    rest[rows, top] = -1
    runner = rest.argmax(axis=1)
    return top, counts[rows, top], runner, counts[rows, runner]


@pytest.mark.parametrize("nodes, width", [(6000, 4), (1, 60), (1, 16), (1, 4), (7, 2)])
@pytest.mark.parametrize("high", [1, 2, 3, 50])
def test_top_two_equals_the_argmax_convention(nodes, width, high):
    # Small count ranges make ties everywhere: all-zero rows, ties for the
    # top, ties for the runner-up.
    gen = np.random.default_rng(nodes * 1000 + width * 10 + high)
    for _ in range(20 if nodes == 1 else 2):
        counts = gen.integers(0, high + 1, size=(nodes, width))
        got = reconstruct._top_two(counts.T)
        want = _top_two_by_argmax(counts)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
    empty = reconstruct._top_two(np.zeros((width, 1), dtype=np.int64))
    assert [int(a[0]) for a in empty] == [0, 0, 1, 0]


@given(
    k=st.integers(1, 200),
    nodes=st.integers(1, 6),
    seed=st.integers(0, 2**64 - 1),
    from_tree=st.booleans(),
    dtype=st.sampled_from([np.uint16, np.int64, np.intp]),
)
def test_pair_level_equals_the_division_tally(k, nodes, seed, from_tree, dtype):
    # Children of one sampled pair-model parent each (most tallies split
    # 2/3 to 1/3), or uniform codes (near ties everywhere).
    spec = SeedSpec(seed, "rec/frozen")
    if from_tree:
        roots = (np.arange(nodes) * 1013 + seed) % 3600
        children = np.concatenate(
            [generate_pair_model(TreeShape(k, 1), spec, root=int(r)).leaves for r in roots]
        )
    else:
        children = level_words(spec.key(), 0, k * nodes) % np.uint64(3600)
    children = children.astype(dtype)
    got = reconstruct_level_pair(children, k)
    want = _reconstruct_level_pair_by_division(children, k)
    assert got.dtype == want.dtype == np.uint16 and got.tobytes() == want.tobytes()


class TestIdentityFirstSampler:
    @pytest.mark.parametrize("label", [class_pair_code(2, 2), class_pair_code(1, 3)])
    def test_tallies_follow_exact_multinomial(self, label):
        k, nodes = 12, 20_000
        tallies = identity_first_tallies(
            np.full(nodes, label), k, SeedSpec(17, "tallies").key(), level=2
        )
        law = _multinomial_law(k, quotient_channel().column(label))
        seen = {}
        for row in map(tuple, tallies.tolist()):
            seen[row] = seen.get(row, 0) + 1
        assert set(seen) <= set(law)
        cells, pooled_obs, pooled_exp = [], 0, 0.0
        for outcome, prob in law.items():
            expected = nodes * float(prob)
            if expected >= 5:
                cells.append((seen.get(outcome, 0), expected))
            else:
                pooled_obs += seen.get(outcome, 0)
                pooled_exp += expected
        cells.append((pooled_obs, pooled_exp))
        stat = sum((o - e) ** 2 / e for o, e in cells)
        assert stat <= chi2.isf(1e-9, len(cells) - 1)

    @pytest.mark.parametrize("n", [0, 1, 7, 200, 6000])
    @pytest.mark.parametrize("p", [Fraction(0), Fraction(1), Fraction(1, 60), Fraction(2, 3)])
    def test_binomial_cuts_match_exact_cdf(self, n, p):
        lo, cuts = binomial_cuts(n, p)
        assert 0 <= lo and lo + len(cuts) <= n
        hi = lo + len(cuts)
        exact = _exact_binomial_cuts(n, p)
        assert cuts.tolist() == exact[lo:hi]
        # Outside the window the exact cuts are 0 on the left and at least
        # 2^63 - 1 on the right, as the Hoeffding bound promises.
        assert set(exact[:lo]) <= {0} and all(c >= (1 << 63) - 1 for c in exact[hi:])
        assert not cuts.flags.writeable

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 400),
        st.integers(1, 63).flatmap(lambda a: st.integers(a + 1, 64).map(lambda b: Fraction(a, b))),
    )
    def test_binomial_cuts_match_exact_cdf_for_any_p(self, n, p):
        lo, cuts = binomial_cuts(n, p)
        assert cuts.tolist() == _exact_binomial_cuts(n, p)[lo : lo + len(cuts)]

    def test_binomial_cuts_fall_back_to_integers_where_bounds_straddle_a_cut(self):
        # P[Bin(2, 1/2) <= 0] = 1/4 puts a cut exactly on 2^61, which the
        # floor and ceiling bounds straddle; the integer path then decides it.
        assert _bounded_binomial_cuts(2, 1, 2, 0, 2) is None
        assert binomial_cuts(2, Fraction(1, 2))[1].tolist() == [1 << 61, 3 << 61]

    @pytest.mark.parametrize("n, limit_mb", [(10**5, 4), (10**6, 8)])
    def test_binomial_cuts_stay_small_at_large_n(self, n, limit_mb):
        # The tables grow as sqrt(n); the exact pmf numerators would hold
        # about n/60 integers of 5.9 n bits each (16 GB at n = 10^6).
        p = Fraction(1, 60)
        tracemalloc.start()
        try:
            lo, cuts = binomial_cuts(n, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit_mb << 20
        assert len(cuts) <= 2 * isqrt(23 * n) + 4
        if n <= 10**5:
            assert cuts.tolist() == _exact_binomial_cuts(n, p, lo + len(cuts))[lo:]

    @pytest.mark.parametrize("k", [1, 2, 500, 6000])
    def test_tally_tables_equal_the_grouped_binomial_draws(self, raw_words, k):
        # Word by word, fresh tally tables draw what one `binomial_cuts` table
        # per (n, p) group and a plain search drew: N at both ends of what it
        # can take, and A from every n there, while the tables grow.
        lo, total, split = reconstruct._tally_tables.__wrapped__(k)
        q, p, *_ = reconstruct._identity_first_laws()
        hi = lo + total.cuts.shape[1]  # N lies in [lo, hi]
        rng = np.random.default_rng(k)
        ends = np.array([0, 1, 2**62, 2**63 - 2, 2**63 - 1], dtype=np.uint64)
        words = np.concatenate([ends, rng.integers(0, 2**63, 3000, dtype=np.uint64)])
        n = lo + total.draw(0, raw_words(words))
        which = np.zeros(words.size, int)
        assert np.array_equal(n, _grouped_binomial_draws(np.full(words.size, k), (q,), which, words))
        assert lo <= n.min() and n.max() <= hi
        assert (n[0], n[4]) == (lo + np.count_nonzero(total.cuts == 0), lo + np.count_nonzero(total.cuts < 2**63))
        ns = np.repeat(np.arange(lo, hi + 1), ends.size)
        which = np.zeros(ns.size, int)
        for w in (np.tile(ends, hi + 1 - lo), rng.integers(0, 2**63, ns.size, dtype=np.uint64)):
            # A first draw from every other n, then from all of them.
            for part in (slice(None, None, 2 * ends.size), slice(None)):
                got = split.draw(ns[part] - lo, raw_words(w[part]))
                assert np.array_equal(got, _grouped_binomial_draws(ns[part], (p,), which[part], w[part]))

    def test_tally_tables_grow_only_the_rows_a_draw_meets(self, monkeypatch):
        # At k = 10^6 N can take thousands of values; a trial over one node
        # builds one row of A.
        monkeypatch.setattr(reconstruct, "_tally_tables", lru_cache(reconstruct._tally_tables.__wrapped__))
        key = SeedSpec(4, "one-node").key()
        assert class16_reconstruction_trial(10**6, 1, key)[0] in range(16)
        _, total, split = reconstruct._tally_tables(10**6)
        assert total.cuts.shape[1] > 1000
        assert split.used == 1 and len(split.tables.cuts) == 1

    @pytest.mark.parametrize(
        "moves",
        [{0: Fraction(1, 90), 1: Fraction(1, 180), 15: -Fraction(1, 60)}, {0: Fraction(1, 360), 1: -Fraction(1, 360)}],
        ids=["second-mass", "second-share"],
    )
    def test_identity_first_laws_refuse_a_second_mass_or_share(self, monkeypatch, moves):
        # Column 1 sends 1/90 to code 0 and 1/180 to code 1.  The first moves
        # make that 1/45 and 1/90 (mass 1/30, share still 2/3), the second
        # 1/72 and 1/360 (mass still 1/60, share 5/6).
        assert reconstruct._identity_first_laws()[:2] == (Fraction(1, 60), Fraction(2, 3))
        channel = quotient_channel()
        columns = [list(channel.column(j)) for j in range(channel.m)]
        for code, delta in moves.items():
            columns[1][code] += delta
        monkeypatch.setattr(reconstruct, "quotient_channel", lambda: Channel.from_columns(columns))
        with pytest.raises(AssertionError, match="not one of each"):
            reconstruct._identity_first_laws.__wrapped__()

    @pytest.mark.parametrize("k, d", [(40, 2), (5, 3), (3, 1)])
    def test_trial_upper_levels_match_generate_direct(self, monkeypatch, k, d):
        seen = []

        def spy(parents, *args):
            seen.append(np.array(parents))
            return identity_first_tallies(parents, *args)

        monkeypatch.setattr(reconstruct, "identity_first_tallies", spy)
        for s in range(6):
            seed = SeedSpec(300 + s, "upper")
            tree = generate_direct(TreeShape(k, d - 1), quotient_channel(), seed)
            root, _, _ = class16_reconstruction_trial(k, d, seed.key())
            assert root == tree.root
            assert np.array_equal(seen[-1], tree.levels[-1])

    def test_trial_is_a_function_of_its_key(self):
        for k, d in [(500, 2), (6, 4)]:
            key = SeedSpec(3, "same").key()
            first = class16_reconstruction_trial(k, d, key)
            assert class16_reconstruction_trial(k, d, key) == first

    @pytest.mark.parametrize("k, d", [(0, 2), (-3, 2), (2, 0), (2, 40), (1 << 27, 1)])
    def test_trial_rejects_bad_shapes(self, k, d):
        with pytest.raises(ValueError):
            class16_reconstruction_trial(k, d, 1)

    def test_a5_package_draws_no_numpy_random(self):
        # Every draw under src/treecast/ inverts a counter word (`rng.word`).
        banned = ("np.random", "numpy.random", "PCG64", "default_rng")
        for path in Path(treecast.__file__).parent.rglob("*.py"):
            text = path.read_text(encoding="utf-8")
            assert not [name for name in banned if name in text], path.name
            assert "scipy" not in text, path.name

    def test_import_builds_no_draw_tables(self):
        code = (
            "import treecast, treecast.cli, treecast.experiments, treecast.a5\n"
            "from treecast.a5.reconstruct import _tally_tables\n"
            "assert _tally_tables.cache_info().currsize == 0\n"
        )
        src = str(Path(treecast.a5.__file__).parents[2])
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr

    def test_import_and_class16_trial_load_no_scipy(self):
        code = (
            "import sys, treecast, treecast.cli, treecast.experiments, treecast.a5\n"
            "from treecast.a5.reconstruct import class16_reconstruction_trial\n"
            "from treecast.rng import SeedSpec\n"
            "class16_reconstruction_trial(6000, 2, SeedSpec(3, 'scipy-free').key())\n"
            "treecast.experiments._chi_square_vs_exact({0: 4, 1: 6}, {0: 0.5, 1: 0.5}, 10, 1e-3)\n"
            "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n"
        )
        src = str(Path(treecast.a5.__file__).parents[2])
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr


class TestEndToEnd:
    def test_class16_small_scale_accuracy(self):
        # Pilot accuracies: ~0.6 at k=500, ~0.92 at k=1500, ~0.995 at k=6000.
        shape = TreeShape(k=1500, d=2)
        hits = 0
        trials = 60
        for t in range(trials):
            tree = generate_class16(shape, SeedSpec(900 + t, "c16"))
            est = recursive_reconstruct(
                tree.leaves, shape.k, "class16", seed=SeedSpec(900 + t, "rec")
            )
            hits += est.root_estimate == tree.root
        assert hits / trials >= 0.75

    def test_counts_path_matches_labels_path_statistically(self):
        k, d, trials = 500, 2, 60
        label_hits = 0
        for t in range(trials):
            tree = generate_class16(TreeShape(k=k, d=d), SeedSpec(900 + t, "c16"))
            est = recursive_reconstruct(tree.leaves, k, "class16", seed=SeedSpec(900 + t, "rec"))
            label_hits += est.root_estimate == tree.root
        count_hits = 0
        key = SeedSpec(901, "counts").key()
        for t in range(trials):
            root, est, _ = class16_reconstruction_trial(k, d, subkey(key, t))
            count_hits += root == est
        assert abs(label_hits - count_hits) / trials < 0.25

    def test_pair_model_depth_one(self):
        shape = TreeShape(k=3600, d=1)
        hits = 0
        for t in range(20):
            tree = generate_pair_model(shape, SeedSpec(77 + t, "pair"))
            est = recursive_reconstruct(tree.leaves, shape.k, "pair3600", seed=SeedSpec(t, "r"))
            hits += est.root_estimate == tree.root
        assert hits >= 18

    @pytest.mark.parametrize("k, d", [(20, 2), (3, 4), (2, 5)])
    def test_pair_trial_decodes_the_tree_of_generate_pair_model(self, k, d):
        for s in range(4):
            seed = SeedSpec(400 + s, "pair-trial")
            tree = generate_pair_model(TreeShape(k, d), seed)
            est = recursive_reconstruct(tree.leaves, k, "pair3600")
            assert pair_reconstruction_trial(k, d, seed.key()) == (tree.root, est.root_estimate, 0)

    @pytest.mark.parametrize("trial", [pair_reconstruction_trial, class16_reconstruction_trial])
    @pytest.mark.parametrize(
        "k, d, words",
        [(1, 3, "arity k >= 2, got 1"), (1, 1, "arity k >= 2, got 1"), (0, 2, "arity k must be >= 1"),
         (2, 0, "depth >= 1")],
        ids=["k1-d3", "k1-d1", "k0", "d0"],
    )
    def test_trials_refuse_a_shape_before_any_draw(self, monkeypatch, trial, k, d, words):
        # At k = 1 no level shrinks, so a decode would return a leaf's label.
        def no_draw(*args):
            raise AssertionError("a trial drew")

        for sampler in ("direct_levels", "identity_first_tallies", "pair_model_levels"):
            monkeypatch.setattr(reconstruct, sampler, no_draw)
        with pytest.raises(ValueError, match=re.escape(words)):
            trial(k, d, SeedSpec(400, "pair-trial").key())

    def test_model_validation(self):
        with pytest.raises(ValueError):
            recursive_reconstruct(np.zeros(4, dtype=np.uint16), 2, "nope")
        with pytest.raises(ValueError):
            recursive_reconstruct(np.zeros(3, dtype=np.uint8), 2, "class16")

    @pytest.mark.parametrize("model", ["pair3600", "class16"])
    @pytest.mark.parametrize("k", [1, 0])
    def test_arity_below_two_raises_before_any_level_runs(self, monkeypatch, model, k):
        # At k = 1 a level keeps its size, so the climb would never end.
        def no_level(*args):
            raise AssertionError("a level ran")

        monkeypatch.setattr(reconstruct, "reconstruct_level_pair", no_level)
        monkeypatch.setattr(reconstruct, "reconstruct_level_class16", no_level)
        with pytest.raises(ValueError, match="cannot reduce 2 labels"):
            recursive_reconstruct(np.zeros(2, dtype=np.int64), k, model)

    @pytest.mark.parametrize("model", ["pair3600", "class16"])
    def test_one_label_at_arity_one_is_its_own_root(self, model):
        assert recursive_reconstruct(np.array([7]), 1, model).root_estimate == 7
