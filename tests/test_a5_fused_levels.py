"""The A5 samplers' fused levels against frozen copies of the unfused ones.

Each level of the pair model, the product tree and the class16 tallies
draws its two words per node from one keyed pass, and each child step is one
gather from `pair_model._step_table`.  The frozen samplers below draw the
words one keyed pass per word index and take the child step in three
`take`s, as the samplers did before; every draw must match bit for bit.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import treecast
from treecast import rng
from treecast.a5 import reconstruct
from treecast.a5.group import A5
from treecast.a5.pair_model import (
    _CHILD,
    _FIRST_BRANCH,
    _HALF,
    _product_tree_levels,
    _step_table,
    _uniform60,
    pair_code,
    pair_model_levels,
)
from treecast.a5.reconstruct import identity_first_tallies
from treecast.channels import uniform_draw
from treecast.rng import SeedSpec, level_words, trial_keys, trial_level_words, word
from treecast.trees import TreeShape


def _frozen_child_codes(parents, k, branch, first):
    half = np.repeat(np.multiply(parents, 2, dtype=np.intp), k, axis=-1)
    half += branch
    target = _HALF.take(half)
    target *= 60
    target += first
    return _CHILD.take(target)


def _frozen_pair_model_levels(shape, key):
    b, s = (uniform_draw(60, word(key, c)) for c in (0, 1))
    levels = [np.array([pair_code(b, s)], dtype=np.uint16)]
    for lvl in range(1, shape.d + 1):
        count = shape.nodes_at(lvl)
        branch = _FIRST_BRANCH.below(level_words(key, lvl, count, word_index=1))
        first = _uniform60(level_words(key, lvl, count, word_index=0))
        levels.append(_frozen_child_codes(levels[-1], shape.k, branch, first))
    return levels


def _frozen_product_tree_levels(d, sigma, k, seed, trees):
    sigma = np.asarray(sigma, dtype=np.uint8)
    tkeys = trial_keys(seed.key(), trees)
    times = A5.times
    codes = np.full((trees, 1), pair_code(*A5.products(sigma.reshape(2, -1)).tolist()), np.uint16)
    out = [codes]
    block = np.zeros((trees, 1), dtype=np.intp)
    x = u = np.full((trees, 1), A5.identity, dtype=np.intp)
    for level in range(1, d + 1):
        count = k**level
        branch = _FIRST_BRANCH.below(trial_level_words(tkeys, level, count, word_index=1))
        x = _HALF.take(np.repeat(2 * (60 * x + A5.inv.take(u)), k, axis=1) + branch)
        block = np.repeat(2 * block + 2, k, axis=1) - 2 * branch
        u = _uniform60(trial_level_words(tkeys, level, count, word_index=0))
        blocks = A5.products(sigma.reshape(-1, 1 << (d - level)))
        codes = _frozen_child_codes(codes, k, branch, times(times(x, blocks.take(block)), u))
        out.append(codes)
    return out


def _frozen_identity_first_tallies(parents, k, key, level):
    parents = np.asarray(parents, dtype=np.intp)
    _, _, heavy, light, diagonal = reconstruct._identity_first_laws()
    lo, total_table, split = reconstruct._tally_tables(k)
    count = parents.size
    above = total_table.draw(0, level_words(key, level, count, 0))
    total = above + lo
    first = np.where(diagonal[parents], total, split.draw(above, level_words(key, level, count, 1)))
    tallies = np.zeros((4, count), dtype=np.int64)
    rows = np.arange(count)
    tallies[heavy[parents], rows] = first
    tallies[light[parents], rows] += total - first
    return tallies.T


def _same(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.dtype == w.dtype and g.tobytes() == w.tobytes()


def test_step_table_is_the_three_take_child_step_on_every_index():
    table = _step_table()
    assert table.dtype == np.uint16 and table.size == 60**3 and not table.flags.writeable
    for left in range(60):
        # rows: every (code, branch) 2c + b; columns: every u.
        t = _HALF[:, None]
        want = _CHILD[60 * t + A5.mul[left][None, :]]
        assert np.array_equal(table[(t * 60 + left) * 60 + np.arange(60)], want)


@pytest.mark.parametrize("k, d", [(2, 1), (2, 6), (5, 1), (5, 3), (3600, 1), (60, 2), (1, 5)])
def test_pair_model_levels_equal_the_frozen_sampler(k, d):
    for s in range(3):
        key = SeedSpec(s, f"fused/pair/{k}/{d}").key()
        _same(pair_model_levels(TreeShape(k, d), key), _frozen_pair_model_levels(TreeShape(k, d), key))


@pytest.mark.parametrize(
    "d, k, trees",
    [(1, 2, 1), (1, 5, 9), (1, 3600, 1), (1, 3600, 3), (2, 2, 4), (2, 5, 1), (3, 5, 2), (4, 2, 6), (0, 5, 2)],
)
def test_product_tree_levels_equal_the_frozen_sampler(d, k, trees):
    for s in range(3):
        sigma = _uniform60(rng.level_words(SeedSpec(s, "fused/sigma").key(), 0, 2 ** (d + 1)))
        seed = SeedSpec(s, f"fused/ptree/{d}/{k}")
        _same(
            _product_tree_levels(d, sigma, k, seed, trees),
            _frozen_product_tree_levels(d, sigma, k, seed, trees),
        )


@pytest.mark.parametrize("k", [2, 5, 3600, 6000])
@pytest.mark.parametrize("count", [1, 2, 7, 300])
def test_identity_first_tallies_equal_the_frozen_sampler(k, count):
    for level in (1, 2, 5):
        parents = rng.level_words(SeedSpec(level, "fused/parents").key(), 0, count) % np.uint64(16)
        key = SeedSpec(k + count, "fused/tallies").key()
        got = identity_first_tallies(parents, k, key, level)
        want = _frozen_identity_first_tallies(parents, k, key, level)
        assert got.shape == want.shape == (count, 4)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_one_keyed_pass_per_level(monkeypatch):
    """Noise-free cost rows: a d = 1 pair sample, a d = 1 product tree and
    one class16 tally call each hash their level in one keyed pass."""
    calls = []
    keyed = rng._keyed_pass

    def counting(key, first):
        calls.append(first.size)
        return keyed(key, first)

    monkeypatch.setattr(rng, "_keyed_pass", counting)
    key = SeedSpec(4, "fused/count").key()
    pair_model_levels(TreeShape(3600, 1), key)
    assert calls == [2 * 3600]
    calls.clear()
    _product_tree_levels(1, [3, 17, 44, 9], 3600, SeedSpec(4, "fused/count"), 1)
    assert calls == [2 * 3600]
    calls.clear()
    identity_first_tallies(np.arange(6000) % 16, 6000, key, 2)
    assert calls == [2 * 6000]
    # One pass per level at any depth.
    calls.clear()
    pair_model_levels(TreeShape(5, 3), key)
    _product_tree_levels(3, np.arange(16) % 60, 5, SeedSpec(4, "fused/count"), 2)
    assert len(calls) == 6


def test_step_table_is_built_on_first_use_not_at_import():
    code = (
        "import treecast, treecast.a5, treecast.experiments\n"
        "from treecast.a5.pair_model import _step_table\n"
        "print(_step_table.cache_info().currsize)"
    )
    src = str(Path(treecast.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "0"
    assert _step_table() is _step_table()
