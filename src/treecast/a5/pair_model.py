"""The 3600-label pair model and its product-tree twin.

Pair labels are ordered pairs (first, second) of group elements, coded as
first * 60 + second.  A child of a node labeled (s, s') picks a uniform b and
becomes (b, b^-1 s) with probability 2/3 and (b, b^-1 s') with probability
1/3 -- i.e. a uniformly random factorization of s or of s'.

`_product_tree_levels` realizes the same conditional law a second way: the
root label is the pair (product of the first half of a supplied word,
product of the second half), and each child halves its parent's segment
with a fresh uniform boundary randomizer u, choosing the first-segment
branch with probability 2/3: two randomizers per node, as in the pair model.
A child's first element is x * seg(j, j+H) * u, x the left randomizer it
inherits; its second is fixed by the parent's element on its branch.

Both samplers take that child step as one gather into one flat table
(`_step_table`, 60^3 uint16, built on first use): entry (t * 60 + left) * 60
+ u is `_CHILD[60 t + left * u]`, the code (b, b^-1 t) of the child that
factors t with first element b = left * u, where `_HALF[2 c + branch]` is
the element of pair code c that a child on `branch` (1 for the first)
factors.  Per parent and branch, (t * 60 + left) * 60 is one row entry
(`_child_step`); the pair model is the case left = identity, the product
tree's left is x * seg(j, j+H).  A level's two words per node, word 0 for u
and word 1 for the branch, come from one keyed pass
(`rng.level_words`, `rng.trial_level_words` at rows = 2).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np

from ..channels import Threshold, uniform_draw
from ..labels import LabelArray
from ..oracle import LawView
from ..rng import SeedSpec, level_words, trial_keys, trial_level_words, word
from ..trees import TreeShape
from .group import A5

_FIRST_BRANCH = Threshold(Fraction(2, 3))
_FIRST, _SECOND = np.divmod(np.arange(3600), 60)  # of each pair code
_HALF = np.stack([_SECOND, _FIRST], axis=1).reshape(-1)
_CHILD = (60 * _SECOND + A5.times(A5.inv[_SECOND], _FIRST)).astype(np.uint16)
# (t * 60 + left) * 60 of each (code, branch) at left = the identity, index 0:
# the pair model's row entries into the step table, as (3600, 2) uint64.
_ROWS = (3600 * _HALF).astype(np.uint64).reshape(3600, 2)


@lru_cache(maxsize=1)
def _step_table() -> np.ndarray:
    """Entry (t * 60 + left) * 60 + u is `_CHILD[60 * t + A5.mul[left, u]]`."""
    table = _CHILD.reshape(60, 60)[:, A5.mul].reshape(-1)
    table.setflags(write=False)
    return table


def pair_code(first: int, second: int) -> int:
    return first * 60 + second


def pair_decode(code: int) -> tuple[int, int]:
    return code // 60, code % 60


def _uniform60(w: np.ndarray) -> np.ndarray:
    """Uniform element indices from raw 64-bit counter words."""
    return uniform_draw(60, w).astype(np.uint8)


def _branch_index(parents: int, k: int, branch: np.ndarray) -> np.ndarray:
    """2 p + b for each child of `parents` parents, k each in order: p its
    parent and b its branch (the branches alone under one parent)."""
    if parents == 1:
        return branch
    return np.repeat(np.arange(0, 2 * parents, 2), k).reshape(branch.shape) + branch


def _child_step(rows: np.ndarray, index: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Children's codes `_step_table()[rows.flat[index] + u]`: `rows` holds
    (t * 60 + left) * 60 per parent and branch as uint64, `index` is
    `_branch_index` and u the uniform draws, a fresh uint64 array that this
    overwrites."""
    u += rows.reshape(-1).take(index)
    return _step_table().take(u)


def generate_pair_model(
    shape: TreeShape, seed: SeedSpec, root: int | None = None
) -> LabelArray:
    """Sample the pair-label broadcast process; root uniform when unspecified."""
    return LabelArray(shape=shape, m=3600, levels=pair_model_levels(shape, seed.key(), root))


def pair_model_levels(shape: TreeShape, key: int, root: int | None = None) -> list[np.ndarray]:
    """The level arrays of `generate_pair_model` on the stream key `key`."""
    if root is None:  # words 0 and 1 of the root address
        b, s = (uniform_draw(60, word(key, c)) for c in (0, 1))
        root = pair_code(b, s)
    if not 0 <= root < 3600:
        raise ValueError(f"root pair code {root} outside [0, 3600)")
    levels = [np.array([root], dtype=np.uint16)]
    for lvl in range(1, shape.d + 1):
        words = level_words(key, lvl, shape.nodes_at(lvl), rows=2)
        index = _branch_index(levels[-1].size, shape.k, _FIRST_BRANCH.below(words[1]))
        levels.append(_child_step(_ROWS[levels[-1]], index, uniform_draw(60, words[0])))
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


def _product_tree_levels(
    d: int, sigma, k: int, seed: SeedSpec, trees: int
) -> list[np.ndarray]:
    """Sample `trees` product trees for a word of length 2^(d+1); returns
    per-level arrays of pair codes, shape (trees, k^l).  The root's
    randomizers are identities, so its label is the pair of half-word
    products."""
    TreeShape(k=k, d=d)  # the size rule, before the word check and any draw
    sigma = np.asarray(sigma, dtype=np.uint8)
    if len(sigma) != 2 ** (d + 1):
        raise ValueError(f"word length must be 2^(d+1) = {2 ** (d + 1)}, got {len(sigma)}")
    if sigma.size and int(sigma.max()) >= 60:
        raise ValueError("word entries must be element indices in [0, 60)")
    tkeys = trial_keys(seed.key(), trees)
    codes = np.full((trees, 1), pair_code(*A5.products(sigma.reshape(2, -1)).tolist()), np.uint16)
    out = [codes]
    # Per node and branch (0 second, 1 first): the child's left randomizer x,
    # the node's u^-1 or x, and its first-half block at the child's level.
    x = np.full((trees, 1, 2), A5.identity, dtype=np.intp)
    block = np.full((trees, 1, 2), (2, 0), dtype=np.intp)
    for level in range(1, d + 1):
        words = trial_level_words(tkeys, level, k**level, rows=2)
        index = _branch_index(codes.size, k, _FIRST_BRANCH.below(words[1]))
        u = uniform_draw(60, words[0])
        blocks = A5.products(sigma.reshape(-1, 1 << (d - level)))
        rows = _ROWS[codes]
        rows += np.multiply(A5.times(x, blocks.take(block)), 60, dtype=np.uint64)
        if level < d:  # the children's own x and block, per branch
            x = np.stack([A5.inv.take(u), x.reshape(-1).take(index)], axis=-1)
            block = 2 * block.reshape(-1).take(index)[..., None] + np.array([2, 0])
        codes = _child_step(rows, index, u)
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
