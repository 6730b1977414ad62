"""Recursive root reconstruction for the pair and class-pair models.

Working level by level toward the root, each node's label is estimated from
its children's (estimated) labels:

* pair mode: tally the pair-products of the children; the most common
  product is the parent's first element (it appears with probability 2/3),
  the runner-up is the second.
* class mode: among children whose first class is the identity class, tally
  the second classes; the top class is the parent's first class, the
  runner-up its second.

In both modes, a runner-up count below tau times the top count declares a
diagonal label (second = first); tau defaults to 1/5, between the 1/3-vs-2/3
split of distinct parents and the all-one-value diagonal case.  A class-mode
node with no identity-first children gets a uniformly random estimate and is
flagged.

`class16_reconstruction_trial` samples only what the class-mode decoder
reads.  It draws levels 0..d-1 as `generate_direct` does from the trial key,
then for each bottom node i only the tallies of the identity-first codes
0..3 among its k children: those tallies are all the decoder reads of the
leaf level.  In the quotient channel every parent (C1, C2) sends 1/60 of its
mass to those codes, 2/3 of it to (e, C1) and 1/3 to (e, C2), or all of it
to (e, C1) when C1 = C2, so the tallies are N ~ Bin(k, 1/60) and
A | N ~ Bin(N, 2/3) at the heavier code (the laws are read from rows 0..3 of
the channel).  N reads the counter word at the unused leaf-level address
`node_counters(d, i, 0)` and A the one at `node_counters(d, i, 1)`, each
inverted through exact binomial cuts (`channels.binomial_cuts`).  Both
draws are one `channels.CutTables.draw` each, from two tables cached per k
and built on first use (`_tally_tables`): N's, one row per distinct mass,
and A's, one row per distinct share and per n that a draw of N has met.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from ..channels import CutTables, FractionLike, as_fraction, binomial_cuts, uniform_draw
from ..generators import direct_levels
from ..rng import SeedSpec, level_words, subkey, words_vec
from ..trees import TreeShape
from .group import A5
from .pair_model import pair_model_levels
from .quotient import quotient_channel

DEFAULT_TAU = Fraction(1, 5)


@dataclass(frozen=True)
class ReconstructionResult:
    root_estimate: int
    flagged_nodes: int


def _top_two(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-node top and runner-up values and their counts, of (width, nodes) tallies.

    Ties break toward the lower value index (argmax convention): with 2^b >=
    width, the keys count * 2^b + (2^b - 1 - value) are distinct within a
    node, so a column-wise max finds the top, and one more, with the top's
    key zeroed, the runner-up.  Unlike a row-wise argmax, no per-row cost.
    """
    bits = (len(counts) - 1).bit_length()
    keys = np.array(counts, dtype=np.int64, order="C")
    keys <<= bits
    keys |= np.arange((1 << bits) - 1, (1 << bits) - 1 - len(counts), -1)[:, None]
    two = np.empty((2, keys.shape[1]), dtype=np.int64)
    np.maximum.reduce(keys, axis=0, out=two[0])
    keys *= keys != two[0]
    np.maximum.reduce(keys, axis=0, out=two[1])
    count, value = two >> bits, ~two & ((1 << bits) - 1)
    return value[0], count[0], value[1], count[1]


def _tally(values: np.ndarray, k: int, width: int) -> np.ndarray:
    """Counts of each value in [0, width) among each node's k children (the
    values grouped k at a time), value-major, shape (width, nodes): one
    bincount over the flat index nodes * value + node."""
    if values.size % k:
        raise ValueError(f"{values.size} children do not group into nodes of arity {k}")
    nodes = values.size // k
    index = values.reshape(nodes, k) * np.intp(nodes) + np.arange(nodes, dtype=np.intp)[:, None]
    return np.bincount(index.reshape(-1), minlength=width * nodes).reshape(width, nodes)


def reconstruct_level_pair(
    child_labels: np.ndarray, k: int, tau: Fraction
) -> np.ndarray:
    """Estimate one level of pair labels from children grouped k at a time;
    `A5.flat` at a child's code is its pair product."""
    counts = _tally(A5.flat.take(child_labels), k, 60)
    top, top_count, runner, runner_count = _top_two(counts)
    diagonal = runner_count * tau.denominator < tau.numerator * top_count
    second_el = np.where(diagonal, top, runner)
    return (top * 60 + second_el).astype(np.uint16)


def reconstruct_level_class16_from_counts(
    counts16: np.ndarray, tau: Fraction, tie_key: int
) -> tuple[np.ndarray, np.ndarray]:
    """Estimate class-pair labels from per-node child-label tallies.

    `counts16` has one row per node and 16 columns (class-pair code order),
    or only the first 4: the identity-first columns (codes 0..3) carry the
    signal and are the only ones read.  A row with no identity-first
    children is flagged and labelled `uniform_draw(16, w)`, w the word of
    its row index under `tie_key`.
    """
    top, top_count, runner, runner_count = _top_two(np.asarray(counts16)[:, 0:4].T)
    diagonal = runner_count * tau.denominator < tau.numerator * top_count
    second_cl = np.where(diagonal, top, runner)
    labels = (top * 4 + second_cl).astype(np.uint8)
    empty = top_count == 0
    if empty.any():
        idx = np.nonzero(empty)[0]
        w = words_vec(tie_key, idx.astype(np.uint64))
        labels[idx] = uniform_draw(16, w).astype(np.uint8)
    return labels, empty


def reconstruct_level_class16(
    child_labels: np.ndarray, k: int, tau: Fraction, tie_key: int
) -> tuple[np.ndarray, np.ndarray]:
    counts = _tally(np.asarray(child_labels, dtype=np.intp), k, 16)
    return reconstruct_level_class16_from_counts(counts.T, tau, tie_key)


class _BinomialTables:
    """Draws from the laws Bin(*params(0)), Bin(*params(1)), ... through one
    padded `CutTables` that holds a row for each law drawn from so far.

    Each row is `binomial_cuts(n, p)` less its cuts of 0, which every word
    draws past (the law's offset `lo` moves up by their count), and of 2^63,
    which none does; shorter rows are padded with 2^63.  Row 0 is all
    padding: a law left with no cuts draws its offset alone.
    """

    def __init__(self, params: Callable[[int], tuple[int, Fraction]], count: int) -> None:
        self.params = params
        self.row = np.full(count, -1, dtype=np.intp)  # -1 until the law is first drawn
        self.lo = np.zeros(count, dtype=np.int64)
        self.tables = CutTables(np.zeros((1, 0), dtype=np.uint64))

    def draw(self, law: np.ndarray, words: np.ndarray) -> np.ndarray:
        """X_i ~ law law[i] by inverting the raw word words[i]."""
        row = self.row[law]
        if (row < 0).any():
            self._add(np.unique(law[row < 0]).tolist())
            row = self.row[law]
        return self.tables.draw(row, words) + self.lo[law]

    def _add(self, laws: list[int]) -> None:
        """Rows for `laws`, in a table rebuilt around the rows it holds."""
        old, rows, placed = self.tables.cuts, [], []
        for i in laws:
            low, cuts = binomial_cuts(*self.params(i))
            kept = cuts[(cuts != 0) & (cuts != 1 << 63)]  # a middle run: cuts ascend
            row = len(old) + len(rows) if kept.size else 0
            placed.append((i, row, low + np.count_nonzero(cuts == 0)))
            if kept.size:
                rows.append(kept)
        if rows:
            width = max(old.shape[1], *map(len, rows))
            cuts = np.full((len(old) + len(rows), width), 1 << 63, dtype=np.uint64)
            cuts[: len(old), : old.shape[1]] = old
            for r, kept in enumerate(rows, len(old)):
                cuts[r, : len(kept)] = kept
            self.tables = CutTables(cuts)
        for i, row, lo in placed:  # only once the table holds their rows
            self.row[i], self.lo[i] = row, lo


@lru_cache(maxsize=4)
def _tally_tables(k: int) -> tuple[_BinomialTables, _BinomialTables, int, int]:
    """The tables of the identity-first tallies at arity k, built on first use.

    The first draws N ~ Bin(k, q), law m for the m-th distinct mass q.  Its
    draws of the words 0 and 2^64 - 1 bound what N can take to [low, low +
    span).  The second draws A ~ Bin(n, p), law s * span + n - low for the
    s-th distinct share p and each n there, and grows a row for each (p, n)
    a draw meets: a trial over few nodes builds few rows, not all of them.
    Returns (N's tables, A's tables, low, span).
    """
    (masses, _), (shares, _), _, _ = _identity_first_laws()
    total = _BinomialTables(lambda m: (k, masses[m]), len(masses))
    every = np.arange(len(masses))
    low = int(total.draw(every, np.zeros(every.size, dtype=np.uint64)).min())
    span = int(total.draw(every, np.full(every.size, 2**64 - 1, dtype=np.uint64)).max()) - low + 1
    split = _BinomialTables(lambda i: (low + i % span, shares[i // span]), len(shares) * span)
    return total, split, low, span


def _distinct(values: list[Fraction]) -> tuple[tuple[Fraction, ...], np.ndarray]:
    """The distinct values, and the index of each value among them."""
    distinct = sorted(set(values))
    return tuple(distinct), np.array([distinct.index(v) for v in values], dtype=np.intp)


@lru_cache(maxsize=1)
def _identity_first_laws():
    """Per parent label, the law of its children's identity-first tallies.

    Read from rows 0..3 of the quotient channel: column j puts mass q_j on
    the identity-first codes, spread over at most two of them (a_j and b_j,
    a_j the heavier; a_j = b_j for a diagonal label), with share p_j on a_j.
    """
    channel = quotient_channel()
    mass, share, heavy, light = [], [], [], []
    for j in range(channel.m):
        col = channel.column(j)[:4]
        rows = sorted((r for r in range(4) if col[r]), key=lambda r: -col[r]) or [0]
        if len(rows) > 2:
            raise AssertionError(f"column {j} spreads identity-first mass over {rows}")
        total = sum(col)
        mass.append(total)
        share.append(col[rows[0]] / total if total else Fraction(1))
        heavy.append(rows[0])
        light.append(rows[-1])
    return _distinct(mass), _distinct(share), np.array(heavy), np.array(light)


def identity_first_tallies(parents: np.ndarray, k: int, key: int, level: int) -> np.ndarray:
    """Sample how many of each parent's k children carry codes 0..3.

    Returns shape (len(parents), 4).  The children of parent i sit at `level`
    and are never materialized: the identity-first count N ~ Bin(k, q) reads
    word `node_counters(level, i, 0)`, and the count A ~ Bin(N, p) at the
    heavier code reads `node_counters(level, i, 1)` (laws from
    `_identity_first_laws`); the lighter code gets N - A.
    """
    parents = np.asarray(parents, dtype=np.intp)
    (masses, mass_of), (shares, share_of), heavy, light = _identity_first_laws()
    count = parents.size
    total_tables, split_tables, low, span = _tally_tables(k)
    total = total_tables.draw(mass_of[parents], level_words(key, level, count, 0))
    first = split_tables.draw(share_of[parents] * span + total - low, level_words(key, level, count, 1))
    tallies = np.zeros((4, count), dtype=np.int64)  # value-major, returned transposed
    rows = np.arange(count)
    tallies[heavy[parents], rows] = first
    tallies[light[parents], rows] += total - first
    return tallies.T


def class16_reconstruction_trial(
    k: int, d: int, key: int, tau: Fraction = DEFAULT_TAU
) -> tuple[int, int, int]:
    """One quotient-model reconstruction trial; returns (root, estimate, flags).

    Levels 0..d-1 are `direct_levels` of the quotient channel on `key`, so the
    root and labels equal `generate_class16`'s on a seed with that key.  The
    leaf level enters reconstruction only through each bottom node's tallies
    of the identity-first codes 0..3 (children are i.i.d. given the parent,
    and the decoder reads no other code), so it is sampled as those tallies:
    two binomials per node, from counter words at the unused leaf-level
    addresses `node_counters(d, i, 0)` and `node_counters(d, i, 1)` (see
    `identity_first_tallies`).  Tie words of level j use `subkey(key, j)`.
    """
    if d < 1:
        raise ValueError("reconstruction needs depth >= 1")
    # Before any draw: k >= 1 (TreeShape), and the k^(d-1) bottom labels and
    # one node's k children (its tally tables grow with k) within the budget.
    TreeShape(k, max(d - 1, 1))
    levels = direct_levels(TreeShape(k, d - 1), quotient_channel(), key)
    tallies = identity_first_tallies(levels[-1], k, key, d)
    level, empty = reconstruct_level_class16_from_counts(tallies, tau, subkey(key, 1))
    root, flagged = _class16_climb(level, k, tau, key, 1, int(empty.sum()))
    return int(levels[0][0]), root, flagged


def pair_reconstruction_trial(k: int, d: int, key: int) -> tuple[int, int, int]:
    """One pair-model reconstruction trial; returns (root, estimate, flags).

    The tree is `generate_pair_model`'s on a seed with key `key`, decoded
    from its leaves in pair mode, which flags no node.
    """
    levels = pair_model_levels(TreeShape(k, d), key)
    est = recursive_reconstruct(levels[-1], k, "pair3600")
    return int(levels[0][0]), est.root_estimate, est.flagged_nodes


def _check_shrinks(size: int, k: int) -> None:
    """Raise unless grouping `size` labels k at a time reaches one root: a
    level of arity k < 2 never shrinks."""
    if size > 1 and k < 2:
        raise ValueError(f"arity k = {k} cannot reduce {size} labels to one root")


def _class16_climb(
    level: np.ndarray, k: int, tau: Fraction, tie_key: int, depth: int, flagged: int
) -> tuple[int, int]:
    """Apply `reconstruct_level_class16` level by level up to the root, the
    j-th level above `depth` with ties from `subkey(tie_key, depth + j)`.

    Returns (root estimate, `flagged` plus the flagged nodes on the way).
    """
    _check_shrinks(level.size, k)
    while level.size > 1:
        depth += 1
        level, empty = reconstruct_level_class16(level, k, tau, subkey(tie_key, depth))
        flagged += int(empty.sum())
    return int(level[0]), flagged


def recursive_reconstruct(
    labels: np.ndarray,
    k: int,
    model: str,
    tau: FractionLike = DEFAULT_TAU,
    seed: SeedSpec | None = None,
) -> ReconstructionResult:
    """Run the tally rule level by level from estimated labels up to the root.

    `labels` holds the (estimated) labels of one full level; its length must
    be a power of k.
    """
    tau_f = as_fraction(tau)
    if model not in ("pair3600", "class16"):
        raise ValueError(f"unknown model {model!r}; expected pair3600 or class16")
    level = np.asarray(labels)
    if model == "class16":
        tie_key = subkey(seed.key(), 0) if seed is not None else subkey(0, 0)
        root, flagged = _class16_climb(level, k, tau_f, tie_key, 0, 0)
        return ReconstructionResult(root_estimate=root, flagged_nodes=flagged)
    _check_shrinks(level.size, k)
    while level.size > 1:
        level = reconstruct_level_pair(level, k, tau_f)
    return ReconstructionResult(root_estimate=int(level[0]), flagged_nodes=0)
