"""Generation mechanisms for broadcast processes on trees.

Three provably equivalent generators for the binary process are exposed as
first-class citizens, not test scaffolding:

* `generate_direct` walks the tree top-down drawing each child from its
  parent's channel column (works for any label count);
* `generate_path_product` draws one flip bit per node and XORs bits along
  root-to-leaf paths;
* `generate_via_restrictions` composes per-level random restrictions with
  symbols in {0, 1, *}, where * copies the parent's value.

Their exact leaf laws coincide, and are checked equal with zero tolerance.
Each `*_leaf_law` sums its generator's own per-node symbol rules (flip bits,
restriction symbols) into the 2x2 channel they put on every edge, and
returns the oracle's tabulation of that channel: `oracle.enumerate_joint`,
in integer numerators over one denominator, as an `oracle.LawView`, with
the oracle's configuration cap.  `total_variation` compares two laws on
their numerators.

Also here: the leaf noise channel, survival counting under composed
restrictions, the exact/approximate biased-bit samplers, and the batched
Monte Carlo sampler `generate_binary_batch`.  It returns either leaves or,
with `height=h`, the integer code of every height-h subtree that batched BP
builds, each drawn from one counter word through a `channels.CutTables` of
its exact `code_law` (as `generate_direct` draws its labels), so the Monte
Carlo estimators never materialize the leaf level.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from math import comb

import numpy as np

from .channels import (
    FAIR,
    Channel,
    CutTables,
    FractionLike,
    Threshold,
    as_fraction,
    binary_theta,
    cumulative_cuts,
    integer_numerators,
    uniform_draw,
)
from .labels import LabelArray, code_dtype
from .oracle import LawView, enumerate_joint
from .rng import (
    BLOCK_WORDS,
    SeedSpec,
    bits_from_word,
    level_blocks,
    level_words,
    node_counters,
    subkey,
    trial_keys,
    trial_level_words,
    word,
    words_vec,
)
from .trees import TreeShape

STAR = 2  # restriction symbol codes: 0, 1, STAR


@dataclass(frozen=True)
class Restriction:
    """One level's restriction symbols; values in {0, 1, STAR}."""

    symbols: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.symbols, dtype=np.uint8)
        if arr.ndim != 1:
            raise ValueError("symbols must be one-dimensional")
        if len(arr) and int(arr.max()) > STAR:
            raise ValueError("symbols must lie in {0, 1, 2}")
        object.__setattr__(self, "symbols", arr)

    def __len__(self) -> int:
        return len(self.symbols)


@dataclass(frozen=True)
class NoiseSpec:
    """Per-leaf independent symmetric flip probability."""

    s: Fraction

    def __post_init__(self) -> None:
        s = as_fraction(self.s)
        if not 0 <= s <= Fraction(1, 2):
            raise ValueError(f"flip probability s must lie in [0, 1/2], got {s}")
        object.__setattr__(self, "s", s)


def _sample_root(key: int, m: int, root: int | None) -> int:
    if root is not None:
        if not 0 <= root < m:
            raise ValueError(f"root label {root} outside [0, {m})")
        return root
    return uniform_draw(m, word(key, 0))  # the root's counter, node_counter(0, 0)


def generate_direct(
    shape: TreeShape,
    channel: Channel,
    seed: SeedSpec,
    root: int | None = None,
) -> LabelArray:
    """Sample the broadcast process by drawing each child from its parent's column."""
    levels = direct_levels(shape, channel, seed.key(), root)
    return LabelArray(shape=shape, m=channel.m, levels=levels)


def direct_levels(
    shape: TreeShape, channel: Channel, key: int, root: int | None = None
) -> list[np.ndarray]:
    """The levels `generate_direct` samples, drawn from the counter key `key`
    (`direct_level` one level at a time)."""
    levels = [np.array([_sample_root(key, channel.m, root)], dtype=code_dtype(channel.m))]
    for lvl in range(1, shape.d + 1):
        levels.append(direct_level(levels[-1], shape.k, channel, key, lvl))
    return levels


def direct_level(parents: np.ndarray, k: int, channel: Channel, key: int, level: int, start: int = 0) -> np.ndarray:
    """The k children of each of `parents` at `level`, the first being node
    `start` of the level: node start + i reads word i of `level_words(key,
    level, ., start=start)` and inverts it through its parent's row of
    `channel.sampling_tables()`, one draw for the block."""
    words = level_words(key, level, len(parents) * k, start=start)
    return channel.sampling_tables().draw(np.repeat(parents, k), words).astype(code_dtype(channel.m))


def generate_path_product(
    shape: TreeShape,
    theta: FractionLike,
    seed: SeedSpec,
    root: int | None = None,
) -> LabelArray:
    """Sample the binary process from per-node flip bits XORed along paths.

    Each non-root node carries an independent Bernoulli((1-theta)/2) flip
    bit; a node's label is the root XOR the flip bits on its path.
    """
    t = binary_theta(theta)
    key = seed.key()
    flip = Threshold((1 - t) / 2)
    levels = [np.array([_sample_root(key, 2, root)], dtype=np.uint8)]
    for lvl in range(1, shape.d + 1):
        levels.append(np.repeat(levels[-1], shape.k) ^ flip.below(level_words(key, lvl, shape.nodes_at(lvl))))
    return LabelArray(shape=shape, m=2, levels=levels)


@lru_cache(maxsize=64)
def restriction_rule(theta: FractionLike) -> tuple[Fraction, Threshold, Threshold]:
    """(theta, zero, one) for theta in [0, 1], else ValueError: the one rule
    by which every restriction sampler, law and survivor count reads a raw
    counter word w as symbol 0 if `zero.below(w)`, else 1 if `one.below(w)`,
    else * (probabilities (1-theta)/2, (1-theta)/2 and theta, within 2^-63)."""
    t = as_fraction(theta)
    if not 0 <= t <= 1:
        raise ValueError(f"restriction distributions need theta in [0, 1], got {t}")
    return t, Threshold((1 - t) / 2), Threshold(1 - t)


def sample_restriction(count: int, theta: FractionLike, seed: SeedSpec, level: int) -> Restriction:
    """Draw `count` symbols: 0 and 1 with probability (1-theta)/2 each, * with theta."""
    _, zero, one = restriction_rule(theta)
    words = level_words(seed.key(), level, count)
    sym = np.full(count, STAR, dtype=np.uint8)
    sym[one.below(words)] = 1
    sym[zero.below(words)] = 0
    return Restriction(symbols=sym)


def apply_restriction(x: np.ndarray, r: Restriction, k: int) -> np.ndarray:
    """Fill one level: child v gets r_v when r_v is a constant, else its parent's label."""
    x = np.asarray(x, dtype=np.uint8)
    if len(r) != k * len(x):
        raise ValueError(
            f"restriction has {len(r)} symbols for {len(x)} parents of arity {k}"
        )
    out = np.repeat(x, k)
    const = r.symbols != STAR
    out[const] = r.symbols[const]
    return out


def generate_via_restrictions(
    shape: TreeShape,
    theta: FractionLike,
    seed: SeedSpec,
    root: int | None = None,
) -> LabelArray:
    """Sample the binary process as a composition of per-level restrictions."""
    key = seed.key()
    levels = [np.array([_sample_root(key, 2, root)], dtype=np.uint8)]
    for lvl in range(1, shape.d + 1):
        r = sample_restriction(shape.nodes_at(lvl), theta, seed, lvl)
        levels.append(apply_restriction(levels[-1], r, shape.k))
    return LabelArray(shape=shape, m=2, levels=levels)


def live_inputs_after(
    shape: TreeShape,
    tracked: set[int] | list[int],
    h: int,
    theta: FractionLike,
    seed: SeedSpec,
    trial=0,
):
    """Count distinct variables still affecting the tracked leaves after h rounds.

    A tracked input survives one composed restriction iff its symbol is *, in
    which case its dependence moves to the parent variable; survivors landing
    on the same ancestor merge.  `trial` is an int (the count is an int) or a
    1-D integer array (one count per entry, equal to the scalar calls).  Entry
    t reads, by `restriction_rule`, the symbols that trial t of the batch
    sampler's "restrictions" method draws on levels d-h+1..d: at h = d one
    tracked leaf counts 1 exactly when flipping the root flips it.
    """
    if h < 0 or h > shape.d:
        raise ValueError(f"rounds h must lie in [0, {shape.d}]")
    if np.ndim(trial) > 1:
        raise ValueError("trial must be an int or a 1-D integer array")
    tracked = sorted(set(int(i) for i in tracked))
    if tracked and (tracked[0] < 0 or tracked[-1] >= shape.n):
        raise ValueError("tracked indices must be leaf indices")
    one = restriction_rule(theta)[2]
    tkeys = np.asarray(subkey(seed.key(), trial), dtype=np.uint64).reshape(-1)
    # One (row, variable) pair per live variable; a row is one entry of `trial`.
    row = np.repeat(np.arange(len(tkeys), dtype=np.int64), len(tracked))
    live = np.tile(np.asarray(tracked, dtype=np.int64), len(tkeys))
    for round_idx in range(h):
        level = shape.d - round_idx
        if len(live) == 0:
            break
        kept = one.above(words_vec(tkeys[row], node_counters(level, live)))
        merged = np.unique(row[kept] * shape.n + live[kept] // shape.k)
        row, live = merged // shape.n, merged % shape.n
    counts = np.bincount(row, minlength=len(tkeys))
    return int(counts[0]) if np.ndim(trial) == 0 else counts


def add_leaf_noise(x: LabelArray, spec: NoiseSpec, seed: SeedSpec) -> LabelArray:
    """Flip each leaf independently with probability s; inner levels untouched.

    Pass a stream tag distinct from the generator's (e.g. "noise"), so the
    flip pattern does not reuse the words that produced the labels.
    """
    if x.m != 2:
        raise ValueError("leaf noise is defined for binary labels only")
    levels = [lvl.copy() for lvl in x.levels]
    levels[-1] ^= Threshold(spec.s).below(level_words(seed.key(), x.shape.d, len(x.leaves)))
    return LabelArray(shape=x.shape, m=2, levels=levels)


# --- biased-bit samplers ------------------------------------------------


def _exact_bit_budget(theta: FractionLike) -> tuple[Fraction, int]:
    """theta = a/2^b in [0, 1) and the b + 1 bits its exact coin reads."""
    t = as_fraction(theta)
    if not 0 <= t < 1:
        raise ValueError(f"theta must lie in [0, 1), got {t}")
    b = t.denominator.bit_length() - 1
    if t.denominator != 1 << b:
        raise ValueError(f"theta = {t} is not dyadic; use biased_bit_approx for general biases")
    return t, b + 1


def biased_bit_exact_from_bits(theta: FractionLike, bits: list[int]) -> int:
    """Exact Bernoulli((1+theta)/2) bit from b+1 fair bits, theta = a/2^b.

    Reads the leading b+1 bits as an integer u in [0, 2^(b+1)) and returns
    1 iff u < 2^b + a; exactly 2^b + a of the 2^(b+1) inputs map to 1.  That
    is `biased_bit_approx_from_bits` at b+1 bits, whose cut
    ceil((1+theta)/2 * 2^(b+1)) is 2^b + a exactly.
    """
    t, need = _exact_bit_budget(theta)
    if len(bits) < need:
        raise ValueError(f"need {need} bits for theta = {t}, got {len(bits)}")
    return biased_bit_approx_from_bits(t, need, bits)


def biased_bit_exact(theta: FractionLike, seed: SeedSpec, draw: int = 0) -> int:
    """Exact dyadic-bias coin using the counter stream at index `draw`:
    `biased_bit_approx` at b+1 bits, as `biased_bit_exact_from_bits`."""
    t, need = _exact_bit_budget(theta)
    return biased_bit_approx(t, need, seed, draw)


def biased_bit_approx_from_bits(theta: FractionLike, t_bits: int, bits: list[int]) -> int:
    """Threshold t_bits fair bits against (1+theta)/2; bias error <= 2^-t_bits."""
    if t_bits < 1:
        raise ValueError("bit budget must be >= 1")
    th = binary_theta(theta)
    if len(bits) < t_bits:
        raise ValueError(f"need {t_bits} bits, got {len(bits)}")
    u = 0
    for bit in bits[:t_bits]:
        u = (u << 1) | (bit & 1)
    p = (1 + th) / 2
    cut = -((-p.numerator << t_bits) // p.denominator)  # ceil(p * 2^t)
    return 1 if u < cut else 0


def biased_bit_approx(theta: FractionLike, t_bits: int, seed: SeedSpec, draw: int = 0) -> int:
    if t_bits > 64:
        raise ValueError("bit budgets above 64 are not supported")
    w = word(seed.key(), draw)
    return biased_bit_approx_from_bits(theta, t_bits, bits_from_word(w, t_bits))


# --- batched sampling for Monte Carlo ------------------------------------

BATCH_METHODS = ("direct", "path", "restrictions")


@lru_cache(maxsize=64)
def code_law(
    k: int, h: int, theta: FractionLike, s: FractionLike = 0
) -> tuple[tuple[np.ndarray, ...], int]:
    """Exact law of a height-h subtree's code given its root label.

    The code is the one `bp.bp_posterior_batch_binary` reads: at height 1
    the ones count of the k children, at height j+1 the mixed-radix number
    of the k child codes, child 0 most significant, so there are V_h codes
    (V_1 = k + 1, V_{j+1} = V_j^k).  Edges carry the binary channel of bias
    theta; the last one also flips with probability s, as
    `estimators.noisy_leaf_channel` composes it.  Returns (laws, den) with
    P[code = v | label a] = laws[a][v] / den: read-only object arrays of
    integer numerators over one denominator, built level by level as
    law_{j+1}^a = (keep law_j^a + flip law_j^(1-a))^(outer k).
    """
    t, sf = binary_theta(theta), NoiseSpec(s).s
    last = t * (1 - 2 * sf)
    (agree, differ), den = integer_numerators([(1 + last) / 2, (1 - last) / 2])
    laws = [
        np.array([comb(k, c) * agree ** (k - c) * differ**c for c in range(k + 1)], dtype=object),
        np.array([comb(k, c) * agree**c * differ ** (k - c) for c in range(k + 1)], dtype=object),
    ]
    den = den**k
    (keep, flip), step = integer_numerators([(1 + t) / 2, (1 - t) / 2])
    for _ in range(1, h):
        mixed = [keep * laws[a] + flip * laws[1 - a] for a in (0, 1)]
        laws = [_outer_power(mix, k, np.multiply) for mix in mixed]
        den = (step * den) ** k
    for law in laws:
        law.flags.writeable = False
    return tuple(laws), den


@lru_cache(maxsize=64)
def code_ones(k: int, h: int) -> np.ndarray:
    """Read-only table of the leaf ones count of each height-h code, in the
    smallest unsigned dtype that holds k^h."""
    ones = np.arange(k + 1, dtype=np.int64)
    for _ in range(1, h):
        ones = _outer_power(ones, k, np.add)
    ones = ones.astype(np.min_scalar_type(k**h))
    ones.flags.writeable = False
    return ones


def _outer_power(x: np.ndarray, k: int, op) -> np.ndarray:
    """op over k independent copies of x, flattened with copy 0 most significant."""
    return reduce(lambda a, b: op.outer(a, b).ravel(), [x] * k)


@lru_cache(maxsize=64)
def _code_tables(k: int, h: int, theta: Fraction, s: Fraction) -> CutTables:
    """Both labels' `code_law` as cut tables, row a for root label a."""
    laws, den = code_law(k, h, theta, s)
    return CutTables(np.array([cumulative_cuts(law, den) for law in laws], dtype=np.uint64))


def generate_binary_batch(
    shape: TreeShape,
    theta: FractionLike,
    seed: SeedSpec,
    trials: int,
    method: str = "direct",
    roots: np.ndarray | None = None,
    start: int = 0,
    height: int = 0,
    s: FractionLike = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample trees start..start+trials-1 of the stream `seed`; returns (roots, leaves).

    `leaves` has shape (trials, n).  Methods mirror the three single-tree
    generators' randomness (column draw, path-product flip bits, restriction
    symbols); each trial consumes the key derived from its global index, so
    trees are independent streams and results do not depend on batch
    boundaries or the trial count.  `s` composes a flip(s) channel into the
    last edge, as `estimators.noisy_leaf_channel` does; s = 0 leaves it as is.
    At d = 0 the root is flipped with the word at `word_index` 1 instead.

    With `height` h > 0 the second array holds the height-h subtree codes
    instead, shape (trials, nodes_at(d - h)) (see `code_law`).  Levels
    1..d-h take the same words as the leaf sampler; then each height-h node
    draws its code from one word, `word_index` 1 at its address, inverted
    through its label's cumulative code law.  That law is cut by
    `cumulative_cuts`, so each code's probability is within 2^-63 of exact,
    and a code of probability zero is never drawn.

    No level's word array is built: `rng.level_blocks` streams each level
    through one buffer pair, and each block of raw words goes through the
    level's `channels.Threshold`s into its rows of the labels, or through
    `CutTables.draw` into its rows of the codes.
    """
    t, sf = binary_theta(theta), NoiseSpec(s).s
    if method not in BATCH_METHODS:
        raise ValueError(f"unknown method {method!r}")
    if method == "restrictions":
        restriction_rule(t)  # raises outside [0, 1] before any word is drawn
    if not 0 <= height <= shape.d:
        raise ValueError(f"height must lie in [0, {shape.d}], got {height}")
    tkeys = trial_keys(seed.key(), trials, start)
    if roots is None:
        roots = FAIR.above(trial_level_words(tkeys, 0, 1)[:, 0]).astype(np.uint8)
    else:
        roots = np.asarray(roots)
        if roots.shape != (trials,):
            raise ValueError("roots must have one entry per trial")
        if (bad := roots[(roots != 0) & (roots != 1)]).size:
            raise ValueError(f"root label {bad[0]} outside [0, 2)")
        roots = roots.astype(np.uint8)
    labels = roots.reshape(-1, 1)
    if shape.d == 0 and sf:
        # The one leaf is the root itself, seen through flip(s).
        labels = labels ^ Threshold(sf).below(trial_level_words(tkeys, 0, 1, word_index=1))
    buffers = np.empty((2, min(BLOCK_WORDS, trials * shape.n)), dtype=np.uint64)
    if height:
        # Allocated before the levels' labels, so the codes, which outlive
        # them, do not sit above them on the heap.
        code_type = np.min_scalar_type(len(code_ones(shape.k, height)) - 1)
        codes = np.empty((trials, shape.nodes_at(shape.d - height)), code_type)
    for lvl in range(1, shape.d - height + 1):
        lt = t * (1 - 2 * sf) if lvl == shape.d else t
        if method == "restrictions":
            _, zero, one = restriction_rule(lt)
        else:
            flip, keep = Threshold((1 - lt) / 2), Threshold((1 + lt) / 2)
        labels = np.repeat(labels, shape.k, axis=1)
        for first, w in level_blocks(tkeys, lvl, shape.nodes_at(lvl), 0, buffers):
            part = labels.reshape(-1)[first : first + w.size]
            if method == "direct":
                # Column draw: the keep probability is (1+theta)/2 for both columns.
                part ^= keep.above(w)
            elif method == "path":
                part ^= flip.below(w)
            else:
                # Symbols 0 and 1 set the label, * keeps the parent's.
                part |= one.below(w)
                part &= zero.above(w)
    if height == 0:
        return roots, labels
    tables = _code_tables(shape.k, height, t, sf)
    for first, w in level_blocks(tkeys, shape.d - height, labels.shape[1], 1, buffers):
        part = slice(first, first + w.size)
        codes.reshape(-1)[part] = tables.draw(labels.reshape(-1)[part], w)
    return roots, codes


# --- exact per-generator leaf laws ---------------------------------------


@lru_cache(maxsize=64)
def _edge_channel(symbols: tuple[tuple[tuple[int, int], Fraction], ...]) -> Channel:
    """The 2x2 edge channel of a generator that draws one symbol per non-root
    node: `symbols` lists each as (child label given parent 0 and 1,
    probability), and each adds its probability to both of its entries."""
    columns = [[0, 0], [0, 0]]
    for children, p in symbols:
        for parent, child in enumerate(children):
            columns[parent][child] += p
    return Channel.from_columns(columns)


def _symbol_leaf_law(shape: TreeShape, root: int, symbols: tuple) -> LawView:
    """The oracle's leaf law, given the root, of the symbols' edge channel:
    each node draws its symbol independently, so every edge carries that
    channel."""
    if root not in (0, 1):
        raise ValueError(f"root label {root} outside [0, 2)")
    return enumerate_joint(shape, _edge_channel(symbols)).cond[root]


def path_product_leaf_law(shape: TreeShape, theta: FractionLike, root: int) -> LawView:
    """Exact leaf law of the path-product generator: the oracle's law of the
    channel that its flip bits put on each edge."""
    t = binary_theta(theta)
    p_flip = (1 - t) / 2
    # Flip bit 0 keeps the parent's label; flip bit 1 inverts it.
    return _symbol_leaf_law(shape, root, (((0, 1), 1 - p_flip), ((1, 0), p_flip)))


def restriction_leaf_law(shape: TreeShape, theta: FractionLike, root: int) -> LawView:
    """Exact leaf law of the restriction generator: the oracle's law of the
    channel that its symbols put on each edge."""
    t = restriction_rule(theta)[0]
    p_const = (1 - t) / 2
    # Symbols 0 and 1 set the child; STAR copies the parent.
    return _symbol_leaf_law(shape, root, (((0, 0), p_const), ((1, 1), p_const), ((0, 1), t)))


def total_variation(a: LawView, b: LawView) -> Fraction:
    """Exact total variation distance: sum_x |a_x * d_b - b_x * d_a| over
    integers, then one Fraction over 2 * d_a * d_b."""
    an, ad, bn, bd = a.numerators, a.denominator, b.numerators, b.denominator
    diff = sum(abs(an.get(x, 0) * bd - bn.get(x, 0) * ad) for x in an.keys() | bn.keys())
    return Fraction(diff, 2 * ad * bd)
