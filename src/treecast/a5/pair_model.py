"""The 3600-label pair model and its product-tree twin.

Pair labels are ordered pairs (first, second) of group elements, coded as
first * 60 + second.  A child of a node labeled (s, s') picks a uniform b and
becomes (b, b^-1 s) with probability 2/3 and (b, b^-1 s') with probability
1/3 -- i.e. a uniformly random factorization of s or of s'.

`product_tree_generate` realizes the same conditional law a second way: the
root label is implicitly the pair (product of the first half of a supplied
word, product of the second half), and each child halves its parent's
segment with a fresh uniform boundary randomizer, choosing the first-segment
branch with probability 2/3.  Per node it stores only the segment start and
the three boundary randomizers; actual labels are resolved level by level
from the products of the word's aligned blocks.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from ..channels import cut63, uniform_tables
from ..generators import check_node_budget
from ..labels import LabelArray
from ..oracle import LawView
from ..rng import SeedSpec, level_words, node_counters, trial_keys, trial_level_words, words_vec
from ..trees import TreeShape
from .group import A5

_TWO_THIRDS_CUT = np.uint64(cut63(Fraction(2, 3)))


def pair_code(first: int, second: int) -> int:
    return first * 60 + second


def pair_decode(code: int) -> tuple[int, int]:
    return code // 60, code % 60


def _uniform60(w: np.ndarray) -> np.ndarray:
    """Uniform element indices from 64-bit words via the fixed-point cuts."""
    return uniform_tables(60).draw(0, w >> np.uint64(1)).astype(np.uint8)


def generate_pair_model(
    shape: TreeShape, seed: SeedSpec, root: int | None = None
) -> LabelArray:
    """Sample the pair-label broadcast process; root uniform when unspecified."""
    check_node_budget(shape)
    key = seed.key()
    if root is None:  # words 0 and 1 of the root address
        b, s = _uniform60(words_vec(key, node_counters(0, 0, np.arange(2)))).tolist()
        root = pair_code(b, s)
    if not 0 <= root < 3600:
        raise ValueError(f"root pair code {root} outside [0, 3600)")
    mul = A5.mul
    inv = A5.inv
    levels = [np.array([root], dtype=np.uint16)]
    for lvl in range(1, shape.d + 1):
        count = shape.nodes_at(lvl)
        parents = np.repeat(levels[-1], shape.k)
        first = (parents // 60).astype(np.uint8)
        second = (parents % 60).astype(np.uint8)
        b = _uniform60(level_words(key, lvl, count, word_index=0))
        branch = (level_words(key, lvl, count, word_index=1) >> np.uint64(1)) < _TWO_THIRDS_CUT
        target = np.where(branch, first, second)
        child_second = mul[inv[b], target]
        codes = b.astype(np.uint16) * 60 + child_second.astype(np.uint16)
        levels.append(codes)
    return LabelArray(shape=shape, m=3600, levels=levels)


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

    Node state is (segment start j, boundary randomizers x, y, z); the label
    at tree level l is (x * seg(j, j+H) * y, y^-1 * seg(j+H, j+2H) * z) with
    H = 2^(d-l).  The root's randomizers are identities, so its label is the
    pair of half-word products.
    """
    levels = _product_tree_levels(d, sigma, k, seed, trees=1)
    shape = TreeShape(k=k, d=d)
    return LabelArray(shape=shape, m=3600, levels=[lvl[0] for lvl in levels])


def _product_tree_levels(
    d: int, sigma, k: int, seed: SeedSpec, trees: int
) -> list[np.ndarray]:
    """Batch sampler; returns per-level arrays of pair codes, shape (trees, k^l)."""
    sigma = np.asarray(sigma, dtype=np.uint8)
    if len(sigma) != 2 ** (d + 1):
        raise ValueError(f"word length must be 2^(d+1) = {2 ** (d + 1)}, got {len(sigma)}")
    if sigma.size and int(sigma.max()) >= 60:
        raise ValueError("word entries must be element indices in [0, 60)")
    tkeys = trial_keys(seed.key(), trees)
    mul = A5.mul
    inv = A5.inv
    j = np.zeros((trees, 1), dtype=np.int64)
    x = y = z = np.full((trees, 1), A5.identity, dtype=np.uint8)

    def resolve(level: int) -> np.ndarray:
        H = 1 << (d - level)  # segments are aligned blocks j // H and j // H + 1
        blocks = A5.products(sigma.reshape(-1, H))
        first = mul[mul[x, blocks[j // H]], y]
        second = mul[mul[inv[y], blocks[j // H + 1]], z]
        return first.astype(np.uint16) * 60 + second.astype(np.uint16)

    out = [resolve(0)]
    for level in range(1, d + 1):
        count = k**level
        H = 1 << (d - level + 1)  # parent half-length
        j, x, y, z = (np.repeat(a, k, axis=1) for a in (j, x, y, z))
        b3 = _uniform60(trial_level_words(tkeys, level, count, word_index=0))
        branch = (
            trial_level_words(tkeys, level, count, word_index=1) >> np.uint64(1)
        ) < _TWO_THIRDS_CUT
        j = j + np.where(branch, 0, H)
        x, y, z = np.where(branch, x, inv[y]), b3, np.where(branch, y, z)
        out.append(resolve(level))
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
