"""Transmission channels for label propagation.

A channel is an m x m column-stochastic matrix of exact rationals, with
M[i][j] = P[child = i | parent = j].  The binary symmetric case is
M = theta*I + ((1-theta)/2)*J, i.e. a child copies its parent with
probability (1+theta)/2.

Columns are exact; sampling cuts each column once, by `cumulative_cuts` on
integer numerators, into a fixed-point table of 63-bit cut points (per-label
error below 2^-60) that `CutTables` draws from.  These tables, the binomial
ones included, are the only approximation anywhere in generation.  Samplers
pass raw 64-bit counter words w, and only this module reads them, as w >> 1.

A uniform law over m labels needs no table: `uniform_draw` computes the
draw of the cuts floor(2^63 i / m) in closed form.  Every other law is drawn
through `CutTables` or, for two outcomes, a `Threshold`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import ceil, floor, isqrt, lcm
from numbers import Rational

import numpy as np

from .rng import BLOCK_WORDS

FractionLike = Fraction | int | float | str


def as_fraction(x: FractionLike) -> Fraction:
    """Convert to an exact Fraction.

    Floats are read through their shortest decimal representation, so 0.8
    means 4/5 (the grid value the caller typed), not the binary double
    0.8000000000000000444...  Pass a Fraction directly when that distinction
    matters.
    """
    if isinstance(x, Rational):
        return Fraction(x)
    if isinstance(x, float):  # numpy floats too, whose repr is not the number
        return Fraction(repr(float(x)))
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational")


def fraction_text(text: str) -> str:
    """`text` stripped, once it reads as a Fraction within float range.

    Raises ValueError otherwise, also for a zero denominator or a value past
    float range, so the text never reaches a later `float` or `as_fraction`
    that would fail with another error class.
    """
    text = text.strip()
    try:
        float(Fraction(text))
    except (ZeroDivisionError, OverflowError) as exc:
        raise ValueError(text) from exc
    return text


def binary_theta(theta: FractionLike) -> Fraction:
    """Exact correlation parameter of the binary channel, checked to lie in [-1, 1]."""
    t = as_fraction(theta)
    if not -1 <= t <= 1:
        raise ValueError(f"theta must lie in [-1, 1], got {t}")
    return t


@dataclass(frozen=True)
class Channel:
    """Column-stochastic transmission matrix over m labels."""

    m: int
    matrix: tuple[tuple[Fraction, ...], ...]  # matrix[i][j] = P[child=i | parent=j]
    _tables: "CutTables | None" = field(default=None, init=False, repr=False, compare=False)
    _ints: tuple[tuple, int] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _square: "Channel | None" = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("label count m must be >= 1")
        if len(self.matrix) != self.m or any(len(row) != self.m for row in self.matrix):
            raise ValueError(f"matrix must be {self.m}x{self.m}")
        for j in range(self.m):
            col = [self.matrix[i][j] for i in range(self.m)]
            if any(p < 0 for p in col):
                raise ValueError(f"column {j} has a negative entry")
            if sum(col) != 1:
                raise ValueError(f"column {j} sums to {sum(col)}, not 1")

    @classmethod
    def from_columns(cls, columns: list[list[FractionLike]]) -> "Channel":
        m = len(columns)
        cols = [[as_fraction(p) for p in col] for col in columns]
        if any(len(col) != m for col in cols):
            raise ValueError("columns must form a square matrix")
        matrix = tuple(tuple(cols[j][i] for j in range(m)) for i in range(m))
        return cls(m=m, matrix=matrix)

    @classmethod
    def binary(cls, theta: FractionLike) -> "Channel":
        t = binary_theta(theta)
        keep = (1 + t) / 2
        flip = (1 - t) / 2
        return cls(m=2, matrix=((keep, flip), (flip, keep)))

    def column(self, j: int) -> tuple[Fraction, ...]:
        return tuple(self.matrix[i][j] for i in range(self.m))

    @property
    def is_binary_symmetric(self) -> bool:
        return (
            self.m == 2
            and self.matrix[0][0] == self.matrix[1][1]
            and self.matrix[0][1] == self.matrix[1][0]
        )

    @property
    def theta(self) -> Fraction:
        """Correlation parameter of a binary symmetric channel."""
        if not self.is_binary_symmetric:
            raise ValueError("theta is only defined for binary symmetric channels")
        return self.matrix[0][0] - self.matrix[0][1]

    def to_float(self) -> np.ndarray:
        return np.array([[float(p) for p in row] for row in self.matrix], dtype=np.float64)

    def sampling_cuts(self) -> np.ndarray:
        """Per-column cumulative cut points in 63-bit fixed point, shape (m, m-1).

        A word w63 uniform on [0, 2^63) samples label
        searchsorted(cuts[j], w63, 'right') from column j; each label
        probability is within 2^-60 of the exact column entry, and columns
        with dyadic cumulative sums (in particular deterministic columns) are
        sampled exactly.  The read-only cuts of `sampling_tables`.
        """
        return self.sampling_tables().cuts

    def sampling_tables(self) -> "CutTables":
        """`sampling_cuts` behind a guide: row j draws from column j.  Built
        once per channel."""
        if self._tables is None:
            cols = [cumulative_cuts(*integer_numerators(self.column(j))) for j in range(self.m)]
            cuts = np.array(cols, dtype=np.uint64).reshape(self.m, self.m - 1)
            object.__setattr__(self, "_tables", CutTables(cuts))
        return self._tables

    def integer_columns(self) -> tuple[tuple[tuple[tuple[int, int], ...], ...], int]:
        """The matrix as integer numerators over one denominator, by column:
        (cols, den) with matrix[b][a] = w / den for each (b, w) in cols[a],
        and zero for the rows b that cols[a] leaves out.  Built once per
        channel."""
        if self._ints is None:
            m = self.m
            nums, den = integer_numerators([p for row in self.matrix for p in row])
            cols = tuple(
                tuple((b, nums[b * m + a]) for b in range(m) if nums[b * m + a]) for a in range(m)
            )
            object.__setattr__(self, "_ints", (cols, den))
        return self._ints

    def square(self) -> "Channel":
        """The exact two-step channel.  Built once per channel."""
        if self._square is None:
            m = self.m
            matrix = tuple(
                tuple(sum(self.matrix[i][t] * self.matrix[t][j] for t in range(m)) for j in range(m))
                for i in range(m)
            )
            object.__setattr__(self, "_square", Channel(m=m, matrix=matrix))
        return self._square

    def has_identical_columns(self) -> bool:
        return all(
            self.matrix[i][j] == self.matrix[i][0] for i in range(self.m) for j in range(self.m)
        )


def integer_numerators(probs: list[Fraction]) -> tuple[list[int], int]:
    """Exact probabilities as integer numerators over the lcm of their denominators."""
    ratios = [p.as_integer_ratio() for p in probs]
    den = lcm(*[q for _, q in ratios])
    return [n * (den // q) for n, q in ratios], den


def cut63(p: Fraction) -> int:
    """Fixed-point image floor(p * 2^63) of a probability."""
    if not 0 <= p <= 1:
        raise ValueError(f"probability {p} outside [0, 1]")
    return (p.numerator << 63) // p.denominator


class Threshold:
    """`below(w)`: the event (w >> 1) < cut63(p) on raw counter words w, of
    probability floor(2^63 p) / 2^63, read as w < 2 cut63(p), one compare of
    the words as given; `above(w)` is its complement.  At p = 1 the doubled
    cut 2^64 is past uint64, so they read w <= 2^64 - 1 and w > 2^64 - 1."""

    def __init__(self, p: Fraction) -> None:
        cut = cut63(p) << 1
        full = cut >> 64
        self._cut = np.uint64(cut - full)
        self._below, self._above = (np.less_equal, np.greater) if full else (np.less, np.greater_equal)

    def below(self, words: np.ndarray) -> np.ndarray:
        return self._below(words, self._cut)

    def above(self, words: np.ndarray) -> np.ndarray:
        return self._above(words, self._cut)


FAIR = Threshold(Fraction(1, 2))  # above(w) is the top bit of w


def unit_float(w: int) -> float:
    """The top 53 bits of a raw counter word, as a float in [0, 1)."""
    return (w >> 11) / (1 << 53)


def cumulative_cuts(numerators, den: int) -> np.ndarray:
    """Cut points floor(2^63 (n_0 + ... + n_i) / den) of every prefix but the
    full one, as uint64: `cut63` of each cumulative probability, on Python
    ints.  A word w63 uniform on [0, 2^63) draws i with probability within
    2^-63 of n_i / den as searchsorted(cuts, w63, 'right').  `numerators` may
    be any iterable; only the running sum is kept."""
    cuts = [(c << 63) // den for c in accumulate(numerators)]
    return np.array(cuts[:-1], dtype=np.uint64)


_TAIL = 1 << 64  # bound on each tail `_pmf_floors` leaves out


def _pmf_floors(n: int, a: int, c: int, x: int, until: int) -> list[int]:
    """Floors of 2^160 f(y) / f(x) for the Bin(n, a/(a + c)) pmf f, at
    y = x + 1, x + 2, ..., from the mode x upward, each from the one before.

    f falls above the mode by ratios r <= 1, so the j-th floor is less than j
    below the exact value: each step scales the error by r and adds under 1.
    Past `until` the walk stops once the rest of the tail is below 2^64: the
    ratios fall too, so the tail beyond y is below (its bound at y) *
    r / (1 - r).  The walk down from the mode is this walk of n - X.
    """
    low = 1 << 160
    lows = []
    num, den = (n - x) * a, (x + 1) * c  # f(y + 1) / f(y) = num / den at y = x
    inside = (n - until) * a  # num > inside while y < until
    while num and (num > inside or (low + len(lows)) * num >= (den - num) * _TAIL):
        low = low * num // den
        lows.append(low)
        num, den = num - a, den + c
    return lows


def _bounded_binomial_cuts(n: int, a: int, b: int, lo: int, hi: int) -> np.ndarray | None:
    """floor(2^63 P[X <= x]) for lo <= x < hi, X ~ Bin(n, a/b) with 0 < a < b,
    from `_pmf_floors` around the mode; None if the bounds of some cut differ.

    With S(x) the sum of the floors from the leftmost walked y to x, E =
    L^2 + R^2 above the summed errors of walks of L and R steps, and both
    tails below T = 2^64, P[X <= x] lies between S(x) / (S(end) + E + 2T) and
    (S(x) + E + T) / (S(end) + T), and below 1 as x < n.  The bounds are
    within about 2^-96 of each other, so they straddle a cut only where
    2^63 P[X <= x] is within about 2^-33 of an integer, or is one.
    """
    mode = (n + 1) * a // b
    left = _pmf_floors(n, b - a, a, n - mode, n - lo)
    right = _pmf_floors(n, a, b - a, mode, hi - 1)
    start = len(left) + lo - mode  # the walk's index of x = lo
    low = list(accumulate([*left[::-1], 1 << 160, *right]))
    slack = len(left) ** 2 + len(right) ** 2
    low_end, high_end = low[-1] + _TAIL, low[-1] + slack + 2 * _TAIL
    cuts = [(s << 63) // high_end for s in low[start : start + hi - lo]]
    for cut, s in zip(cuts, low[start:]):
        if cut < (1 << 63) - 1 and (s + slack + _TAIL) << 63 >= (cut + 1) * low_end:
            return None
    return np.array(cuts, dtype=np.uint64)


def binomial_cuts(n: int, p: Fraction) -> tuple[int, np.ndarray]:
    """Offset lo and 63-bit CDF cut table that sample Bin(n, p) from one word.

    A word w63 uniform on [0, 2^63) draws lo + searchsorted(cuts, w63,
    'right'), where cuts[i] = floor(2^63 * P[X <= lo + i]) exactly.  The table
    spans only n*p -/+ sqrt(23 n): by Hoeffding's bound the CDF is within
    e^-46 < 2^-66 of 0 left of it and of 1 right of it, where the cuts would
    read 0 and 2^63 - 1 or 2^63, so dropping them moves at most the one word
    2^63 - 1 to lo + len(cuts), and the table grows as sqrt(n), not n.

    The cuts come from 160-bit bounds on the pmf (`_bounded_binomial_cuts`),
    in time and memory that grow as sqrt(n).  Where the bounds of a cut
    straddle an integer (2^63 P[X <= x] can be one for dyadic p), the pmf
    numerators C(n, x) a^x (b - a)^(n - x) over b^n (p = a/b) go through
    `cumulative_cuts` instead, exact but in time that grows as n^2.
    Read-only; the class16 tallies and `binomial_tables` build on it.
    """
    a, b = p.numerator, p.denominator
    half = isqrt(23 * n) + 1
    lo = max(0, floor(n * p) - half)
    hi = min(n, ceil(n * p) + half)
    if a in (0, b):  # X = n p: the CDF is 0 below it and 1 from it on
        cuts = np.full(hi - lo, 0 if a else 1 << 63, dtype=np.uint64)
    elif (cuts := _bounded_binomial_cuts(n, a, b, lo, hi)) is None:

        def next_pmf(pmf: int, x: int) -> int:  # numerator of x + 1 from that of x
            return pmf * (n - x) * a // ((x + 1) * (b - a))

        cuts = cumulative_cuts(accumulate(range(hi), next_pmf, initial=(b - a) ** n), b**n)[lo:]
    cuts.setflags(write=False)
    return lo, cuts


_LOW32 = np.uint64(0xFFFFFFFF)


def uniform_draw(m: int, w: int | np.ndarray) -> int | np.ndarray:
    """The uniform draw over m labels of raw counter words w:
    searchsorted(cumulative_cuts([1] * m, m), w >> 1, 'right'), exactly.

    With x = w >> 1 < 2^63, cut floor(2^63 i / m) <= x exactly when 2^63 i <
    m (x + 1), so the draw is floor((m x + m - 1) / 2^63).  A Python int w
    draws a Python int.  An array draws a uint64 array of its shape on the
    32-bit halves x = 2^32 h + l: m h < 2^63 and m l + m - 1 < 2^64 for m <
    2^32, so floor((m h + ((m l + m - 1) >> 32)) / 2^31) takes no product
    past 64 bits.
    """
    if not 1 <= m < 1 << 32:
        raise ValueError(f"uniform draws need 1 <= m < 2^32, got {m}")
    if isinstance(w, int):
        return (m * (w >> 1) + m - 1) >> 63
    w = np.asarray(w, dtype=np.uint64)
    low = w >> np.uint64(1)
    low &= _LOW32
    low *= np.uint64(m)
    low += np.uint64(m - 1)
    low >>= np.uint64(32)
    out = w >> np.uint64(33)
    out *= np.uint64(m)
    out += low
    out >>= np.uint64(31)
    return out


@lru_cache(maxsize=128)
def binomial_tables(n: int, p: Fraction) -> tuple[int, "CutTables"]:
    """`binomial_cuts(n, p)` as its offset and a one-row `CutTables`, built on first use."""
    lo, cuts = binomial_cuts(n, p)
    return lo, CutTables(cuts[None])


class CutTables:
    """A (rows, L) array of `cumulative_cuts` rows behind a guide table.

    draw(rows, w)[i] = searchsorted(cuts[rows[i]], w[i] >> 1, 'right') for
    raw counter words w, in arrays of any shape.  The guide (Chen and Asau,
    1974) splits each row's words into 2^bits buckets by their top bits
    (w >> shift), 16 or more per cut within GUIDE_CELLS entries, and holds the
    count of the row's cuts below the end of each bucket, bit-inverted if a
    cut falls inside it.  Words in a bucket without a cut take one lookup.
    Only the rest (misses) are shifted to 63 bits, and searched only within
    their bucket: below the entry's count, and at most C cuts below it, C the
    most cuts in one bucket.  So every miss takes the same `rounds`, the bit
    length of C, fixed when the table is built, and a draw without misses
    skips the search.  A cut of 2^63 is above every w >> 1, so rows of
    different lengths may be padded with it.

    The budget of 2^18 entries (1 MiB) gives mc-scan's code tables 2 x 2^17
    buckets and the quotient channel 16 x 2^8, 16 per cut for both, and
    caps the class16 split tallies' guide (hundreds of rows) at 1 MiB.

    `cuts` and `guide` are read-only views.  `put` fills a row of padding in
    place, so a table built with spare rows takes new rows without a rebuild.
    """

    GUIDE_CELLS = 1 << 18  # int32 entries, 1 MiB

    def __init__(self, cuts: np.ndarray) -> None:
        self._cuts = np.array(cuts, dtype=np.uint64)  # a copy, written only by `put`
        rows, width = self._cuts.shape
        self.bits = min(width.bit_length() + 4, (self.GUIDE_CELLS // rows).bit_length() - 1)
        self.shift = np.uint64(64 - self.bits)
        self._guide = np.empty((rows, 1 << self.bits), dtype=np.int32)
        self._most = 0
        first = self._bucket_starts()
        for row in range(rows):
            self._place(row, first)
        self.cuts, self.guide = self._cuts.view(), self._guide.view()
        self.cuts.setflags(write=False)
        self.guide.setflags(write=False)

    def put(self, row: int, cuts: np.ndarray) -> None:
        """Write ascending `cuts`, at most the table's width of them, into
        row `row` (all padding until now) and its guide entries."""
        self._cuts[row, : len(cuts)] = cuts
        self._place(row, self._bucket_starts())

    def _bucket_starts(self) -> np.ndarray:
        """The 63-bit words that start each bucket, and 2^63 after the last."""
        return np.arange((1 << self.bits) + 1, dtype=np.uint64) << np.uint64(63 - self.bits)

    def _place(self, row: int, first: np.ndarray) -> None:
        """Row `row`'s guide entries, from its cuts; `rounds` grows to cover it."""
        below = self._cuts[row].searchsorted(first).astype(np.int32)
        guide = self._guide[row]
        guide[:] = below[1:]
        np.invert(guide, out=guide, where=below[:-1] != guide)
        self._most = max(self._most, int(np.diff(below).max()))
        self.rounds = self._most.bit_length()

    def draw(self, rows: np.ndarray | int, words: np.ndarray) -> np.ndarray:
        """Row rows[i]'s draw from raw word words[i], as an int32 array of
        words' shape; an integer `rows` is one row for all."""
        rows = np.asarray(rows)
        shape, words = words.shape, words.reshape(-1)
        if rows.ndim:
            rows = rows.reshape(-1)
        # The flat guide index (row << bits) | (word >> shift), built one
        # block at a time in a scratch buffer, read as int64 by `take`.
        found = np.empty(words.size, dtype=np.int32)
        flat = self.guide.reshape(-1)
        row_shift = np.uint64(self.bits)
        index = np.empty(min(words.size, BLOCK_WORDS), dtype=np.uint64)
        scratch = np.empty_like(index)
        for start in range(0, words.size, BLOCK_WORDS):
            part = slice(start, start + BLOCK_WORDS)
            n = min(BLOCK_WORDS, words.size - start)
            idx, tmp = index[:n], scratch[:n]
            np.right_shift(words[part], self.shift, out=idx)
            if rows.ndim:
                tmp[...] = rows[part]
                tmp <<= row_shift
                idx |= tmp
            elif rows:
                idx |= rows.astype(np.uint64) << row_shift
            flat.take(idx.view(np.int64), out=found[part])
        miss = (found < 0).nonzero()[0]
        if miss.size:
            found[miss] = self._search(rows[miss] if rows.ndim else rows, words[miss] >> np.uint64(1), found[miss])
        return found.reshape(shape)

    def _search(self, rows: np.ndarray, w63: np.ndarray, entry: np.ndarray) -> np.ndarray:
        """Draws of words whose bucket holds a cut, from their guide entries
        ~hi, hi the row's cuts below the bucket's end.

        The draw lies in [hi - C, hi], C the most cuts in one bucket: cuts
        below the bucket are below the word and cuts from hi on above it.  A
        branchless search with steps 2^(rounds-1), ..., 1 finds `last`, the
        flat index of the last cut at most the word; a probe past hi - 1
        tests hi - 1 instead, which keeps it in the word's row.
        """
        before = rows.astype(np.int64) * self.cuts.shape[1] - 1  # flat index of cut -1
        top = ~entry.astype(np.int64)
        top += before  # flat index of cut hi - 1
        last = top - self._most
        np.maximum(last, before, out=last)
        flat = self.cuts.reshape(-1)
        for i in reversed(range(self.rounds)):
            probe = last + (1 << i)
            np.minimum(probe, top, out=probe)
            np.copyto(last, probe, where=flat.take(probe) <= w63)
        last -= before
        return last


def ks_parameter(channel: Channel, k: int) -> float:
    """Kesten-Stigum parameter k * lambda2(M)^2.

    lambda2 is the second-largest eigenvalue magnitude.  Two cases resolve
    exactly: a binary symmetric channel has lambda2 = theta, and a channel
    whose exact square has identical columns is nilpotent off the stationary
    direction, so lambda2 = 0.  Everything else is computed numerically
    (documented accuracy 1e-9); the exact shortcuts matter because defective
    zero eigenvalues are only recovered to ~1e-8 by floating-point solvers.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if channel.is_binary_symmetric:
        return float(k * channel.theta**2)
    if channel.has_identical_columns() or channel.square().has_identical_columns():
        return 0.0
    eigs = np.linalg.eigvals(channel.to_float())
    mags = np.sort(np.abs(eigs))[::-1]
    lam2 = mags[1] if len(mags) > 1 else 0.0
    return float(k * lam2 * lam2)
