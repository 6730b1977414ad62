"""Tables for the alternating group on 5 points.

Elements are the 60 even permutations of {0,..,4} in lexicographic order of
their one-line tuples, indexed 0..59 (index 0 is the identity).  All group
arithmetic is table lookups: a 60x60 multiplication table, a 60-entry inverse
table, and a 60-entry conjugacy-class code.  Class codes follow cycle type:

    0  identity            (size 1)
    1  double transposition (size 15)
    2  three-cycle          (size 20)
    3  five-cycle           (size 24)

These are the classes under conjugation by all of S5 (cycle type), which is
what the 16-label quotient model uses.  Tables are built once per process and
shared; a full 60^3 associativity sweep runs on first demand and is cached.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

CLASS_SIZES = (1, 15, 20, 24)
_TYPE_TO_CODE = {(1, 1, 1, 1, 1): 0, (2, 2, 1): 1, (3, 1, 1): 2, (5,): 3}


def _parity(p: tuple[int, ...]) -> int:
    inversions = sum(
        1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j]
    )
    return inversions % 2


def _cycle_type(p: tuple[int, ...]) -> tuple[int, ...]:
    seen = [False] * len(p)
    lens = []
    for start in range(len(p)):
        if seen[start]:
            continue
        length, cur = 0, start
        while not seen[cur]:
            seen[cur] = True
            cur = p[cur]
            length += 1
        lens.append(length)
    return tuple(sorted(lens, reverse=True))


@dataclass
class GroupTables:
    elements: tuple[tuple[int, ...], ...]
    mul: np.ndarray  # (60, 60) uint8
    inv: np.ndarray  # (60,) uint8
    class_code: np.ndarray  # (60,) uint8
    _verified: bool = field(default=False, repr=False)
    # `mul` as nested lists: Python-int lookups make the scalar fold in
    # `product` about 8x faster than indexing numpy scalars.
    _mul_rows: list[list[int]] = field(init=False, repr=False, compare=False)
    # `mul` flattened: entry 60 g + h is g h, so a pair code indexes its
    # product directly, and one `take` on an intp index multiplies arrays.
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._mul_rows = self.mul.tolist()
        self.flat = self.mul.reshape(-1)

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def identity(self) -> int:
        return 0

    def product(self, word) -> int:
        """Product of one word, as a Python int (the identity when empty)."""
        rows = self._mul_rows
        out = self.identity
        for g in word.tolist() if isinstance(word, np.ndarray) else word:
            out = rows[out][g]
        return out

    def times(self, g, h) -> np.ndarray:
        """Elementwise products g h of two broadcasting element arrays, as
        uint8: one `take` from `flat` at 60 g + h."""
        return self.flat.take(np.multiply(g, 60, dtype=np.intp) + h)

    def products(self, words) -> np.ndarray:
        """Products of the rows of a (..., r) array, as uint8 of shape (...):
        adjacent columns multiply pairwise (an odd last one folds into the
        last pair) until one is left; the identity at r = 0."""
        rows = np.asarray(words)
        if rows.shape[-1] == 0:
            return np.full(rows.shape[:-1], self.identity, dtype=np.uint8)
        while rows.shape[-1] > 1:
            paired = self.times(rows[..., :-1:2], rows[..., 1::2])
            if rows.shape[-1] % 2:
                paired[..., -1] = self.times(paired[..., -1], rows[..., -1])
            rows = paired
        return rows[..., 0].astype(np.uint8)

    def elements_of_class(self, code: int) -> list[int]:
        return [g for g in range(self.order) if self.class_code[g] == code]

    def five_cycles(self) -> list[int]:
        return self.elements_of_class(3)

    def verify(self) -> None:
        """Exhaustive group-axiom check over the full tables (cached)."""
        if self._verified:
            return
        n = self.order
        idx = np.arange(n, dtype=np.intp)
        a = idx[:, None, None]
        b = idx[None, :, None]
        c = idx[None, None, :]
        if not np.array_equal(self.mul[self.mul[a, b], c], self.mul[a, self.mul[b, c]]):
            raise AssertionError("multiplication table is not associative")
        if not np.array_equal(self.mul[idx, self.inv[idx]], np.zeros(n, dtype=self.mul.dtype)):
            raise AssertionError("inverse table is wrong")
        if not np.array_equal(self.mul[0, idx], idx) or not np.array_equal(
            self.mul[idx, 0], idx
        ):
            raise AssertionError("identity is not neutral")
        sizes = tuple(int((self.class_code == code).sum()) for code in range(4))
        if sizes != CLASS_SIZES:
            raise AssertionError(f"class sizes {sizes} != {CLASS_SIZES}")
        self._verified = True


def _build() -> GroupTables:
    elements = tuple(sorted(p for p in permutations(range(5)) if _parity(p) == 0))
    index = {p: i for i, p in enumerate(elements)}
    n = len(elements)
    mul = np.empty((n, n), dtype=np.uint8)
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            mul[i, j] = index[tuple(a[b[x]] for x in range(5))]
    inv = np.empty(n, dtype=np.uint8)
    for i in range(n):
        inv[i] = int(np.nonzero(mul[i] == 0)[0][0])
    class_code = np.array([_TYPE_TO_CODE[_cycle_type(p)] for p in elements], dtype=np.uint8)
    return GroupTables(elements=elements, mul=mul, inv=inv, class_code=class_code)


A5: GroupTables = _build()


def classify(g: int) -> int:
    """Conjugacy-class code of element g, by cycle type."""
    return int(A5.class_code[g])
