"""The 3600-label pair model and its product-tree twin.

Pair labels are ordered pairs (first, second) of group elements, coded as
first * 60 + second.  A child of a node labeled (s, s') picks a uniform b and
becomes (b, b^-1 s) with probability 2/3 and (b, b^-1 s') with probability
1/3 -- i.e. a uniformly random factorization of s or of s'.

`product_tree_generate` realizes the same conditional law a second way: the
root label is the pair (product of the first half of a supplied word,
product of the second half), and each child halves its parent's segment
with a fresh uniform boundary randomizer u, choosing the first-segment
branch with probability 2/3: two randomizers per node, as in the pair model.
A child's first element is x * seg(j, j+H) * u, x the left randomizer it
inherits; its second is fixed by the parent's element on its branch.

Both samplers take that child step from one helper (`_child_codes`) on flat
tables, one `take` per step: `A5.flat[c]` is the product of pair code c,
`_HALF[2 c + branch]` is the element of c that a child on `branch` (1 for
the first) factors, and `_CHILD[60 t + b]` is the code (b, b^-1 t) of the
child that factors t with first element b.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from ..channels import Threshold, uniform_tables
from ..labels import LabelArray
from ..oracle import LawView
from ..rng import SeedSpec, level_words, progression_words, trial_keys, trial_level_words
from ..trees import TreeShape
from .group import A5

_FIRST_BRANCH = Threshold(Fraction(2, 3))
_FIRST, _SECOND = np.divmod(np.arange(3600), 60)  # of each pair code
_HALF = np.stack([_SECOND, _FIRST], axis=1).reshape(-1)
_CHILD = (60 * _SECOND + A5.times(A5.inv[_SECOND], _FIRST)).astype(np.uint16)


def pair_code(first: int, second: int) -> int:
    return first * 60 + second


def pair_decode(code: int) -> tuple[int, int]:
    return code // 60, code % 60


def _uniform60(w: np.ndarray) -> np.ndarray:
    """Uniform element indices from 64-bit words via the fixed-point cuts."""
    return uniform_tables(60).draw(0, w).astype(np.uint8)


def _child_codes(parents: np.ndarray, k: int, branch: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Codes `_CHILD[60 * _HALF[2 * parent + branch] + first]` of the k
    children of each parent code (repeated along the last axis)."""
    half = np.repeat(np.multiply(parents, 2, dtype=np.intp), k, axis=-1)
    half += branch
    target = _HALF.take(half)
    target *= 60
    target += first
    return _CHILD.take(target)


def generate_pair_model(
    shape: TreeShape, seed: SeedSpec, root: int | None = None
) -> LabelArray:
    """Sample the pair-label broadcast process; root uniform when unspecified."""
    return LabelArray(shape=shape, m=3600, levels=pair_model_levels(shape, seed.key(), root))


def pair_model_levels(shape: TreeShape, key: int, root: int | None = None) -> list[np.ndarray]:
    """The level arrays of `generate_pair_model` on the stream key `key`."""
    if root is None:  # words 0 and 1 of the root address
        b, s = _uniform60(progression_words(key, 1, 0, 2)).tolist()
        root = pair_code(b, s)
    if not 0 <= root < 3600:
        raise ValueError(f"root pair code {root} outside [0, 3600)")
    levels = [np.array([root], dtype=np.uint16)]
    for lvl in range(1, shape.d + 1):
        count = shape.nodes_at(lvl)
        branch = _FIRST_BRANCH.below(level_words(key, lvl, count, word_index=1))
        first = _uniform60(level_words(key, lvl, count, word_index=0))
        levels.append(_child_codes(levels[-1], shape.k, branch, first))
    return levels


def pair_model_child_law(root_code: int) -> LawView:
    """Exact one-child law given the parent pair, over pair codes: integer
    numerators over 180, 2 for each factorization of the first element and
    1 for each of the second."""
    first, second = pair_decode(root_code)
    law: dict[int, int] = {}
    for b in range(60):
        c1 = pair_code(b, int(A5.mul[A5.inv[b], first]))
        law[c1] = law.get(c1, 0) + 2
        c2 = pair_code(b, int(A5.mul[A5.inv[b], second]))
        law[c2] = law.get(c2, 0) + 1
    return LawView(law, 180)


# --- product-tree construction --------------------------------------------


def product_tree_generate(
    d: int,
    sigma,
    k: int,
    seed: SeedSpec,
) -> LabelArray:
    """Sample the product-tree construction for a word of length 2^(d+1).

    Node state is (segment start j, boundary randomizers x, u); the label at
    tree level l is (x * seg(j, j+H) * u, u^-1 * seg(j+H, j+2H) * y) with
    H = 2^(d-l) and y the parent's u or right randomizer.  The root's
    randomizers are identities, so its label is the pair of half-word products.
    """
    levels = _product_tree_levels(d, sigma, k, seed, trees=1)
    shape = TreeShape(k=k, d=d)
    return LabelArray(shape=shape, m=3600, levels=[lvl[0] for lvl in levels])


def _product_tree_levels(
    d: int, sigma, k: int, seed: SeedSpec, trees: int
) -> list[np.ndarray]:
    """Batch sampler; returns per-level arrays of pair codes, shape (trees, k^l)."""
    TreeShape(k=k, d=d)  # the size rule, before the word check and any draw
    sigma = np.asarray(sigma, dtype=np.uint8)
    if len(sigma) != 2 ** (d + 1):
        raise ValueError(f"word length must be 2^(d+1) = {2 ** (d + 1)}, got {len(sigma)}")
    if sigma.size and int(sigma.max()) >= 60:
        raise ValueError("word entries must be element indices in [0, 60)")
    tkeys = trial_keys(seed.key(), trees)
    times = A5.times
    codes = np.full((trees, 1), pair_code(*A5.products(sigma.reshape(2, -1)).tolist()), np.uint16)
    out = [codes]
    block = np.zeros((trees, 1), dtype=np.intp)  # of the node's first half, at its level
    x = u = np.full((trees, 1), A5.identity, dtype=np.intp)
    for level in range(1, d + 1):
        count = k**level
        branch = _FIRST_BRANCH.below(trial_level_words(tkeys, level, count, word_index=1))
        # x is the parent's x on the first branch and its u^-1 on the second:
        # the element on `branch` of the pair (x, u^-1), as `_child_codes` picks.
        x = _HALF.take(np.repeat(2 * (60 * x + A5.inv.take(u)), k, axis=1) + branch)
        block = np.repeat(2 * block + 2, k, axis=1) - 2 * branch
        u = _uniform60(trial_level_words(tkeys, level, count, word_index=0))
        blocks = A5.products(sigma.reshape(-1, 1 << (d - level)))
        codes = _child_codes(codes, k, branch, times(times(x, blocks.take(block)), u))
        out.append(codes)
    return out


def product_tree_child_law(sigma) -> LawView:
    """Exact one-child law of the depth-1 product tree for a length-4 word:
    integer numerators over 180, 2 for each of the 60 boundary randomizers
    of the first half and 1 for each of the second half."""
    sigma = np.asarray(sigma, dtype=np.uint8)
    if len(sigma) != 4:
        raise ValueError("the depth-1 child law needs a length-4 word")
    law: dict[int, int] = {}
    for b in range(60):
        first = pair_code(int(A5.mul[sigma[0], b]), int(A5.mul[A5.inv[b], sigma[1]]))
        law[first] = law.get(first, 0) + 2
        second = pair_code(int(A5.mul[sigma[2], b]), int(A5.mul[A5.inv[b], sigma[3]]))
        law[second] = law.get(second, 0) + 1
    return LawView(law, 180)
