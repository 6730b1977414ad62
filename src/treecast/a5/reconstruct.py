"""Recursive root reconstruction for the pair and class-pair models.

Working level by level toward the root, each node's label is estimated from
its children's (estimated) labels:

* pair mode: tally the pair-products of the children; the most common
  product is the parent's first element (it appears with probability 2/3),
  the runner-up is the second.
* class mode: among children whose first class is the identity class, tally
  the second classes; the top class is the parent's first class, the
  runner-up its second.

In both modes, a runner-up count below tau = 1/5 of the top count declares a
diagonal label (second = first): tau is a constant, between the 1/3-vs-2/3
split of distinct parents and the all-one-value diagonal case.  A class-mode
node with no identity-first children gets a uniformly random estimate and is
flagged.  One loop, `_climb`, runs either rule up to the root, and
`trial_shape` refuses d < 1 and k < 2 before a trial's first draw.

`class16_reconstruction_trial` samples only what the class-mode decoder
reads.  It draws levels 0..d-1 as `generate_direct` does from the trial key,
then for each bottom node i only the two draws that fix its tallies of the
identity-first codes 0..3 among its k children.  In the quotient channel
every parent (C1, C2) sends 1/60 of its mass to those codes, 2/3 of it to
(e, C1) and 1/3 to (e, C2), or all of it to (e, C1) when C1 = C2, so the
draws are N ~ Bin(k, 1/60) and A | N ~ Bin(N, 2/3) at the heavier code, or
A = N for a diagonal parent (the one mass and share are read from rows
0..3 of the channel).  N reads the counter word at the unused leaf-level
address `node_counters(d, i, 0)` and A the one at `node_counters(d, i, 1)`,
each inverted through exact binomial cuts (`channels.binomial_cuts`): N
through `channels.binomial_tables(k, 1/60)`, A through one table per k,
built on first use (`_tally_tables`), with a row for each n that a draw of
N has met.  The class rule then reads the node's label off (N, A) and its
parent's two codes (`decode_identity_first`), with no tally built.

A trial keeps levels 0..d-2 whole and streams the bottom level in blocks of
whole level-(d-2) parents, at most BLOCK_NODES nodes (2^16) or one
parent's k: each block's labels, words, draws and decoded labels live
only while it is decoded into its parents' estimates, about 60 bytes per
node, so a block peaks near 4 MiB.  A trial holds k^(d-2) decoded bytes
besides, and the blocks' first passes go through `rng`'s pass memo (at most
16 MiB).  A level with one node tallies its children with one `bincount`
and takes its top two by two argmaxes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from ..channels import CutTables, binomial_cuts, binomial_tables, uniform_draw
from ..generators import direct_level, direct_levels
from ..rng import SeedSpec, level_words, subkey, words_vec
from ..trees import TreeShape
from .group import A5
from .pair_model import pair_model_levels
from .quotient import quotient_channel

@dataclass(frozen=True)
class ReconstructionResult:
    root_estimate: int
    flagged_nodes: int


def _top_two(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-node top and runner-up values and their counts, of (width, nodes)
    tallies, or of one node's 1-D tally.

    Ties break toward the lower value index (argmax convention).  One node
    takes two argmaxes, the second with the top's count masked.  Over many,
    with 2^b >= width, the keys count * 2^b + (2^b - 1 - value) are distinct
    within a node, so a column-wise max finds the top, and one more, with the
    top's key zeroed, the runner-up.  Unlike a row-wise argmax, no per-row cost.
    """
    if counts.ndim == 1:
        top = int(counts.argmax())
        rest = counts.astype(np.int64)
        rest[top] = -1
        runner = int(rest.argmax())
        return np.array([top]), counts[top : top + 1], np.array([runner]), counts[runner : runner + 1]
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


def _top_and_second(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per node of `_top_two`'s tallies: the top value, the second element
    (the runner-up, or the top again when the runner-up's count is below
    1/5 of the top's, a diagonal label) and the top's count."""
    top, top_count, runner, runner_count = _top_two(counts)
    return top, np.where(5 * runner_count < top_count, top, runner), top_count


def _tally(values: np.ndarray, k: int, width: int) -> np.ndarray:
    """Counts of each value in [0, width) among each node's k children (the
    values grouped k at a time), value-major, shape (width, nodes): one
    bincount over the flat index nodes * value + node.  One node's counts
    are the plain bincount, shape (width,)."""
    if values.size % k:
        raise ValueError(f"{values.size} children do not group into nodes of arity {k}")
    nodes = values.size // k
    if nodes == 1:
        return np.bincount(values, minlength=width)
    index = values.reshape(nodes, k) * np.intp(nodes) + np.arange(nodes, dtype=np.intp)[:, None]
    return np.bincount(index.reshape(-1), minlength=width * nodes).reshape(width, nodes)


def reconstruct_level_pair(child_labels: np.ndarray, k: int) -> np.ndarray:
    """Estimate one level of pair labels from children grouped k at a time;
    `A5.flat` at a child's code is its pair product."""
    top, second, _ = _top_and_second(_tally(A5.flat.take(child_labels), k, 60))
    return (top * 60 + second).astype(np.uint16)


def _flag_empty(labels: np.ndarray, empty: np.ndarray, tie_key: int, start: int) -> np.ndarray:
    """Label each empty node i (node start + i of its level) by
    `uniform_draw(16, w)`, w its index's word under `tie_key`; returns `empty`."""
    if empty.any():
        idx = np.nonzero(empty)[0]
        w = words_vec(tie_key, idx.astype(np.uint64) + np.uint64(start))
        labels[idx] = uniform_draw(16, w).astype(np.uint8)
    return empty


def _class_level(counts4: np.ndarray, tie_key: int, start: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """The class rule on `_top_two`'s tallies of the identity-first codes
    0..3: labels and the empty (flagged) nodes, node i being node start + i
    of its level."""
    top, second, top_count = _top_and_second(counts4)
    labels = (top * 4 + second).astype(np.uint8)
    return labels, _flag_empty(labels, top_count == 0, tie_key, start)


def reconstruct_level_class16_from_counts(counts16: np.ndarray, tie_key: int) -> tuple[np.ndarray, np.ndarray]:
    """Estimate class-pair labels from per-node child-label tallies.

    `counts16` has one row per node and 16 columns (class-pair code order),
    or only the first 4: the identity-first columns (codes 0..3) carry the
    signal and are the only ones read.  A row with no identity-first
    children is flagged and labelled `uniform_draw(16, w)`, w the word of
    its row index under `tie_key`.
    """
    return _class_level(np.asarray(counts16)[:, 0:4].T, tie_key)


def reconstruct_level_class16(
    child_labels: np.ndarray, k: int, tie_key: int, start: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """The class rule on children grouped k at a time, the first group's
    node being node `start` of its level (it keys the tie words)."""
    return _class_level(_tally(np.asarray(child_labels, dtype=np.intp), k, 16)[:4], tie_key, start)


class _BinomialTables:
    """Draws from the laws Bin(base, p), Bin(base + 1, p), ... through one
    padded `CutTables` that holds a row for each law drawn from so far.

    Each row is `binomial_cuts(n, p)` less its cuts of 0, which every word
    draws past (the law's offset `lo` moves up by their count), and of 2^63,
    which none does; shorter rows are padded with 2^63.  A new row goes into
    a spare row of padding in place (`CutTables.put`); only when none is
    left, or the row is too wide, is the table rebuilt, with its row count
    and width doubled until the rows fit, so a run rebuilds O(log rows)
    times.
    """

    def __init__(self, base: int, p: Fraction, count: int) -> None:
        self.base, self.p = base, p
        self.row = np.full(count, -1, dtype=np.intp)  # -1 until the law is first drawn
        self.lo = np.zeros(count, dtype=np.int64)
        self.used = 0  # rows that hold a law's cuts
        self.tables = CutTables(np.zeros((1, 0), dtype=np.uint64))

    def draw(self, law: np.ndarray, words: np.ndarray) -> np.ndarray:
        """X_i ~ Bin(base + law[i], p) by inverting the raw word words[i]."""
        row = self.row[law]
        if (row < 0).any():
            self._add(np.unique(law[row < 0]).tolist())
            row = self.row[law]
        return self.tables.draw(row, words) + self.lo[law]

    def _add(self, laws: list[int]) -> None:
        """Rows for `laws`, put into spare rows of the table."""
        rows, offsets = [], []
        for i in laws:
            low, cuts = binomial_cuts(self.base + i, self.p)
            rows.append(cuts[(cuts != 0) & (cuts != 1 << 63)])  # a middle run: cuts ascend
            offsets.append(low + np.count_nonzero(cuts == 0))
        old = self.tables.cuts
        height, width = old.shape
        while height < self.used + len(rows):
            height *= 2
        while width < max(map(len, rows)):
            width = 2 * width or 1
        if (height, width) != old.shape:
            cuts = np.full((height, width), 1 << 63, dtype=np.uint64)
            cuts[: self.used, : old.shape[1]] = old[: self.used]
            self.tables = CutTables(cuts)
        for r, kept in enumerate(rows, self.used):
            self.tables.put(r, kept)
        # The laws are marked drawn only once the table holds their rows.
        self.row[laws], self.lo[laws] = np.arange(self.used, self.used + len(rows)), offsets
        self.used += len(rows)


@lru_cache(maxsize=4)
def _tally_tables(k: int) -> tuple[int, CutTables, _BinomialTables]:
    """The tables of the identity-first tallies at arity k, built on first use.

    N ~ Bin(k, q) is lo plus the draw of `binomial_tables(k, q)`, so it lies
    in [lo, lo + len(cuts)].  A ~ Bin(n, p) is law n - lo of the family
    Bin(lo + i, p), which grows a row for each n a draw meets: a trial over
    few nodes builds few rows, not all of them.  Returns (lo, N's table, A's
    tables).
    """
    q, p, *_ = _identity_first_laws()
    lo, total = binomial_tables(k, q)
    return lo, total, _BinomialTables(lo, p, total.cuts.shape[1] + 1)


@lru_cache(maxsize=1)
def _identity_first_laws() -> tuple[Fraction, Fraction, np.ndarray, np.ndarray, np.ndarray]:
    """The one law of every parent's identity-first tallies.

    Read from rows 0..3 of the quotient channel: each column j puts the same
    mass q on the identity-first codes, spread over at most two of them
    (heavy_j and light_j, heavy_j the heavier): the same share p on heavy_j,
    or all of it when label j is diagonal (heavy_j = light_j).  Returns (q,
    p, heavy, light, diagonal); a second mass or share raises.
    """
    channel = quotient_channel()
    masses, shares, heavy, light = set(), set(), [], []
    for j in range(channel.m):
        col = channel.column(j)[:4]
        rows = sorted((r for r in range(4) if col[r]), key=lambda r: -col[r]) or [0]
        if len(rows) > 2:
            raise AssertionError(f"column {j} spreads identity-first mass over {rows}")
        masses.add(sum(col))
        if len(rows) == 2:
            shares.add(col[rows[0]] / sum(col))
        heavy.append(rows[0])
        light.append(rows[-1])
    if len(masses) != 1 or len(shares) != 1:
        raise AssertionError(f"identity-first masses {sorted(masses)} and shares {sorted(shares)}, not one of each")
    heavy, light = np.array(heavy), np.array(light)
    return masses.pop(), shares.pop(), heavy, light, heavy == light


def identity_first_draws(
    parents: np.ndarray, k: int, key: int, level: int, start: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Sample how many of each parent's k children carry codes 0..3.

    Returns (N, A): the identity-first count N ~ Bin(k, q) and the count
    A ~ Bin(N, p) at the parent's heavier code (the one law of
    `_identity_first_laws`; A = N for a diagonal parent), the lighter code
    getting N - A.  The children of parent i, node start + i of its level,
    sit at `level` and are never materialized: N reads word
    `node_counters(level, start + i, 0)` and A word
    `node_counters(level, start + i, 1)`, both from one keyed pass
    (`level_words` at rows = 2).
    """
    _, _, _, _, diagonal = _identity_first_laws()
    lo, total_table, split = _tally_tables(k)
    words = level_words(key, level, np.size(parents), rows=2, start=start)
    above = total_table.draw(0, words[0])  # N - lo
    total = above + lo
    return total, np.where(diagonal[parents], total, split.draw(above, words[1]))


def identity_first_tallies(parents: np.ndarray, k: int, key: int, level: int) -> np.ndarray:
    """`identity_first_draws` as tallies of codes 0..3, shape (len(parents), 4)."""
    parents = np.asarray(parents, dtype=np.intp)
    _, _, heavy, light, _ = _identity_first_laws()
    total, first = identity_first_draws(parents, k, key, level)
    tallies = np.zeros(4 * parents.size, dtype=np.int64)
    rows = np.arange(0, 4 * parents.size, 4)
    tallies[rows + light[parents]] = total - first  # 0 where light = heavy
    tallies[rows + heavy[parents]] = first
    return tallies.reshape(parents.size, 4)


@lru_cache(maxsize=1)
def _draw_rule() -> tuple[np.ndarray, np.ndarray]:
    """The class rule on one parent's draws (N, A) as two tables: lower[j]
    is 1 when parent j's heavier code is the lower of its two, and
    labels[4 j + 2 t + s] is the label with the heavier code on top (t) or
    the lighter, and with the top as second (s, or a diagonal parent) or
    the other code."""
    _, _, heavy, light, diagonal = _identity_first_laws()
    heavy_top, lone = np.array([0, 0, 1, 1], dtype=bool), np.array([0, 1, 0, 1], dtype=bool)
    top = np.where(heavy_top, heavy[:, None], light[:, None])
    second = np.where(lone | diagonal[:, None], top, heavy[:, None] + light[:, None] - top)
    return (heavy < light).astype(np.int64), (4 * top + second).astype(np.uint8).reshape(-1)


def decode_identity_first(
    parents: np.ndarray, total: np.ndarray, first: np.ndarray, tie_key: int, start: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """The class rule on each node's draws (N, A) (`identity_first_draws`):
    the labels and flags `reconstruct_level_class16_from_counts` gives their
    tallies, without them.  The heavier code, with count A, is on top when
    A > N - A, or on a tie when it is the lower code; the second is the
    other code unless 5 min(A, N - A) < max(A, N - A), that is 6 min < N, or
    the parent is diagonal.  N = 0 is an empty node, labelled by the tie
    word of its index start + i under `tie_key`."""
    lower, labels = _draw_rule()
    heavy_top = 2 * first + lower[parents] > total
    lone = 6 * np.minimum(first, total - first) < total
    labels = labels[4 * parents.astype(np.intp) + 2 * heavy_top + lone]
    return labels, _flag_empty(labels, total == 0, tie_key, start)


def trial_shape(model: str, k: int, d: int) -> TreeShape:
    """Check a `model` trial's shape before any draw: `TreeShape`'s budget on
    the pair tree, or on class16's k^(d-1) bottom labels and one node's k
    children (its tally tables grow with k); then d >= 1 and k >= 2."""
    shape = TreeShape(k, max(d - 1, 1)) if model == "class16" else TreeShape(k, d)
    if d < 1:
        raise ValueError("reconstruction needs depth >= 1")
    if k < 2:
        raise ValueError(f"reconstruction needs arity k >= 2, got {k}")
    return shape


# Most bottom nodes of a class16 trial held at once: the bottom level is
# drawn and decoded in blocks of whole level-(d - 2) parents, at least one.
BLOCK_NODES = 1 << 16


def class16_reconstruction_trial(k: int, d: int, key: int) -> tuple[int, int, int]:
    """One quotient-model reconstruction trial; returns (root, estimate, flags).

    Levels 0..d-1 are `direct_levels` of the quotient channel on `key`, so
    the root and labels equal `generate_class16`'s on a seed with that key.
    The leaf level enters reconstruction only through each bottom node's
    tallies of the identity-first codes 0..3 (children are i.i.d. given the
    parent, and the decoder reads no other code), so it is sampled as their
    two draws (`identity_first_draws`) and decoded from them
    (`decode_identity_first`).  Tie words of level j use `subkey(key, j)` at
    each node's index in its level.

    Levels 0..d-2 are kept whole; the bottom level is drawn, decoded and
    decoded again into its parents' estimates one block of parents at a time
    (at most BLOCK_NODES bottom nodes, or one parent's k), from the words of
    the block's own addresses, so the blocks change no draw.
    """
    trial_shape("class16", k, d)  # before any draw
    channel = quotient_channel()
    levels = direct_levels(TreeShape(k, max(d - 2, 0)), channel, key)
    bottom_ties, upper_ties = subkey(key, 1), subkey(key, 2)
    if d == 1:  # the root is the one bottom node
        labels, empty = decode_identity_first(
            levels[0], *identity_first_draws(levels[0], k, key, 1), bottom_ties
        )
        return int(levels[0][0]), int(labels[0]), int(empty[0])
    parents = levels[-1]
    step = max(1, BLOCK_NODES // k)
    decoded, flagged = np.empty(parents.size, dtype=np.uint8), 0
    for s in range(0, parents.size, step):
        block = parents[s : s + step]
        bottom = direct_level(block, k, channel, key, d - 1, s * k)
        labels, empty = decode_identity_first(
            bottom, *identity_first_draws(bottom, k, key, d, s * k), bottom_ties, s * k
        )
        decoded[s : s + block.size], above = reconstruct_level_class16(labels, k, upper_ties, s)
        flagged += int(empty.sum()) + int(above.sum())
    root, flagged = _climb(decoded, k, "class16", key, 2, flagged)
    return int(levels[0][0]), root, flagged


def pair_reconstruction_trial(k: int, d: int, key: int) -> tuple[int, int, int]:
    """One pair-model reconstruction trial; returns (root, estimate, flags).

    The tree is `generate_pair_model`'s on a seed with key `key`, decoded
    from its leaves in pair mode, which flags no node.
    """
    levels = pair_model_levels(trial_shape("pair3600", k, d), key)
    root, flagged = _climb(levels[-1], k, "pair3600", 0)
    return int(levels[0][0]), root, flagged


def _climb(level: np.ndarray, k: int, model: str, tie_key: int, depth: int = 0, flagged: int = 0) -> tuple[int, int]:
    """Apply the `model` level rule up to the root, class16 ties of the j-th
    level above `depth` from `subkey(tie_key, depth + j)`.  Returns (root
    estimate, `flagged` plus the flagged nodes on the way)."""
    if level.size > 1 and k < 2:
        raise ValueError(f"arity k = {k} cannot reduce {level.size} labels to one root")
    while level.size > 1:
        depth += 1
        if model == "class16":
            level, empty = reconstruct_level_class16(level, k, subkey(tie_key, depth))
            flagged += int(empty.sum())
        else:
            level = reconstruct_level_pair(level, k)
    return int(level[0]), flagged


def recursive_reconstruct(
    labels: np.ndarray, k: int, model: str, seed: SeedSpec | None = None
) -> ReconstructionResult:
    """Run the tally rule level by level from estimated labels up to the root.

    `labels` holds the (estimated) labels of one full level; its length must
    be a power of k.
    """
    if model not in ("pair3600", "class16"):
        raise ValueError(f"unknown model {model!r}; expected pair3600 or class16")
    tie_key = 0  # the pair rule breaks no ties
    if model == "class16":
        tie_key = subkey(seed.key() if seed is not None else 0, 0)
    root, flagged = _climb(np.asarray(labels), k, model, tie_key)
    return ReconstructionResult(root_estimate=root, flagged_nodes=flagged)
