"""The 16-label conjugacy-class quotient of the pair model.

Labels are ordered pairs of class codes, coded c1 * 4 + c2.  A child of a
node labeled (C1, C2) is produced by drawing sigma from class C1 with
probability 2/3 (else C2), splitting it uniformly as sigma' * sigma'' =
sigma, and recording the pair of classes of the factors.

`quotient_channel` builds the 16x16 transmission matrix exactly from one
integer table: for each of the 60 elements g, the class pairs of its 60
splits.  The child law of pair label (g1, g2) sends 2 T[g1] + T[g2] out of
180 into the parts.  Before that becomes a column, the build checks the
lumpability condition on all 3600 pair labels: the mass a label sends into
each part is the same for every label of its own part.  It also checks each
column against `pair_model_child_law` for one label of the part.  The
resulting matrix is column stochastic with identical columns in its square,
hence a second eigenvalue of exactly zero.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np

from ..channels import Channel
from ..rng import SeedSpec
from .group import A5, classify
from .pair_model import pair_code, pair_decode, pair_model_child_law


def class_pair_code(c1: int, c2: int) -> int:
    if not (0 <= c1 < 4 and 0 <= c2 < 4):
        raise ValueError("class codes lie in [0, 4)")
    return c1 * 4 + c2


def pair_to_class_pair(code: int) -> int:
    first, second = pair_decode(code)
    return class_pair_code(classify(first), classify(second))


def _split_table() -> np.ndarray:
    """T[g, part]: how many of the 60 splits sigma' * sigma'' = g have the
    class pair `part` = class_pair_code(class of sigma', class of sigma'')."""
    sp = np.arange(60)
    spp = A5.mul[A5.inv[sp][None, :], sp[:, None]]  # [g, sigma'] = sigma'^-1 g
    classes = A5.class_code.astype(np.int64)
    parts = classes[sp][None, :] * 4 + classes[spp]
    return np.bincount((sp[:, None] * 16 + parts).ravel(), minlength=960).reshape(60, 16)


@lru_cache(maxsize=1)
def quotient_channel() -> Channel:
    """Exact 16x16 class-pair transmission matrix, lumpability verified.

    Raises AssertionError if some pair label sends other masses into the
    parts than the rest of its part (which would falsify the quotient
    construction), or if a column disagrees with `pair_model_child_law`.
    """
    table = _split_table()
    masses = 2 * table[:, None, :] + table[None, :, :]  # [g1, g2]: numerators over 180
    columns = []
    for c1 in range(4):
        for c2 in range(4):
            members1 = A5.elements_of_class(c1)
            members2 = A5.elements_of_class(c2)
            block = masses[np.ix_(members1, members2)]
            col = block[0, 0]
            if not (block == col).all():
                raise AssertionError(f"lumpability fails inside part {(c1, c2)}")
            law = pair_model_child_law(pair_code(members1[0], members2[0]))
            sent = [0] * 16
            for child, n in law.numerators.items():
                sent[pair_to_class_pair(child)] += n
            if sent != col.tolist():
                raise AssertionError(f"quotient column {(c1, c2)} disagrees with the pair model")
            columns.append([Fraction(int(n), 180) for n in col])
    return Channel.from_columns(columns)


def generate_class16(shape, seed: SeedSpec, root: int | None = None):
    """Sample the 16-label quotient model via the generic direct generator."""
    from ..generators import generate_direct

    return generate_direct(shape, quotient_channel(), seed, root=root)
