"""Root estimators for the binary broadcast process.

Leaf majority, linearized BP and BP rounding each have one implementation,
a batched kernel (`*_decisions`) over a (trials, n) leaf batch whose rows
are the global trials start, start+1, ...  Every tie takes the top bit of a
counter word keyed by the global trial index, so decisions depend neither
on the chunking (`trial_chunks`) nor on which other estimators run.
`majority_estimate` and `linearized_bp` are their one-tree wrappers.  With
`height` h > 0 a kernel reads the height-h subtree codes that
`generate_binary_batch` draws instead of leaves, with decisions identical to
those on the leaves behind the codes; the Monte Carlo paths
(`estimate_P_sd` and `experiments.score_estimators_point`) score their
kernels in one loop, `sampled_hits`, which samples at h = `code_height(k, d)`.

* linearized BP: subtree majorities at the reduced depth
  d' = floor(log_k(log2(n))), then Bayes decoding of those majority bits on
  the depth-d' tree, treating them as observations through a symmetric flip
  channel.
* `estimate_flip_rate`: Monte Carlo estimate of P[subtree majority != subtree
  root], together with the analytic variance bound 1/(theta^2 k - 1) that is
  valid when k theta^2 > 2.
* `estimate_P_sd`: optimal accuracy of recovering the root from noisy leaves,
  exact under the enumeration cap, Monte Carlo otherwise.
* `ones_count_law`: the exact law of the leaf ones count at any depth, from
  its generating polynomial; `exact_majority_error` reads it.

The majority-miss and flip-rate statistics use a per-level ones-count chain
(sums of two binomials) rather than materialized trees: the leaf ones-count
given the root is a Markov chain in the level counts, so the chain sampler
has exactly the law of counting ones in a sampled tree, at a tiny fraction
of the cost.  Its binomials are sums of exact Bin(2^j, p) counter-word draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from math import sqrt

import numpy as np

from .bp import bp_posterior_batch_binary
from .channels import FAIR, Channel, FractionLike, as_fraction, binary_theta, binomial_tables, integer_numerators
from .generators import code_ones, generate_binary_batch
from .oracle import DEFAULT_CONFIG_CAP, bayes_accuracy, config_count, likelihood_law
from .rng import BLOCK_WORDS, SeedSpec, node_counters, trial_keys, words_vec
from .trees import TreeShape


@dataclass(frozen=True)
class EstimatorReport:
    estimator: str
    trials: int
    accuracy: float
    m: int = 2

    def __post_init__(self) -> None:
        if not 0 <= self.accuracy <= 1:
            raise ValueError("accuracy must lie in [0, 1]")

    @property
    def stderr(self) -> float:
        return sqrt(self.accuracy * (1 - self.accuracy) / self.trials)

    @property
    def advantage(self) -> float:
        return self.accuracy - 1 / self.m


CHUNK_CELLS = 1 << 23  # leaf cells per Monte Carlo batch, bounding its memory


def trial_chunks(trials: int, n: int):
    """(start, stop) ranges of 1 + CHUNK_CELLS // n trials covering [0, trials)."""
    size = 1 + CHUNK_CELLS // n
    for start in range(0, trials, size):
        yield start, min(start + size, trials)


def sampled_hits(
    shape: TreeShape,
    theta: FractionLike,
    seed: SeedSpec,
    trials: int,
    kernels: dict,
    s: FractionLike = 0,
) -> dict[str, int]:
    """How often each kernel finds the root of the same `trials` sampled trees.

    Trials go in `trial_chunks`; each chunk's trees (trials start..stop-1 of
    the stream `seed`, leaves seen through flip(s)) are drawn once as their
    `code_height` subtree codes and scored by every `kernels[name](codes,
    start, height=h)`.
    """
    h = code_height(shape.k, shape.d)
    hits = dict.fromkeys(kernels, 0)
    for start, stop in trial_chunks(trials, shape.n):
        roots, codes = generate_binary_batch(
            shape, theta, seed, stop - start, start=start, height=h, s=s
        )
        for name, kernel in kernels.items():
            hits[name] += int((kernel(codes, start, height=h) == roots).sum())
    return hits


def _decide(above: np.ndarray, tied: np.ndarray, tie_word) -> np.ndarray:
    """1 where `above`, else 0; tied entries take a fair coin of the words that
    `tie_word(*np.nonzero(tied))` computes for them alone."""
    guess = above.astype(np.uint8)
    where = np.nonzero(tied)
    if where[0].size:
        guess[where] = FAIR.above(tie_word(*where))
    return guess


def _trial_tie(key: int, start: int):
    """Tie words `word(key, i << 1)` for the global trial i = start + row."""
    return lambda rows: words_vec(key, (rows + start) << 1)


def _ones(leaves: np.ndarray, k: int, height: int) -> np.ndarray:
    """Leaf ones of each column: the leaves themselves, or each height-h code's
    ones count (`code_ones`, in its small dtype: sum with dtype=np.int64).

    `take` copies its index to intp, so the codes go in blocks of rows.
    """
    if height == 0:
        return leaves
    table = code_ones(k, height)
    ones = np.empty(leaves.shape, dtype=table.dtype)
    block = max(1, BLOCK_WORDS // max(1, leaves.shape[1]))
    for start in range(0, len(leaves), block):
        table.take(leaves[start : start + block], out=ones[start : start + block])
    return ones


def majority_decisions(
    leaves: np.ndarray, start: int, seed: SeedSpec, k: int = 2, height: int = 0
) -> np.ndarray:
    """Leaf majority of each row; a tie takes `word(seed.key(), i << 1)`, i = start + row.

    With `height` h > 0 the rows hold the height-h codes of a k-ary tree.
    """
    n = leaves.shape[1] * k**height
    ones = _ones(leaves, k, height).sum(axis=1, dtype=np.int64)
    return _decide(2 * ones > n, 2 * ones == n, _trial_tie(seed.key(), start))


def _round_posterior(post1: np.ndarray, key: int, start: int) -> np.ndarray:
    """1 above a posterior of 1/2, 0 below, a `_trial_tie` word at exactly 1/2.

    A NaN posterior (evidence of probability zero) raises, as `bp_posterior` does.
    """
    if np.isnan(post1).any():
        raise ValueError("evidence has zero probability under the model")
    return _decide(post1 > 0.5, post1 == 0.5, _trial_tie(key, start))


def linearized_bp_decisions(
    shape: TreeShape,
    theta: float,
    leaves: np.ndarray,
    start: int,
    seed: SeedSpec,
    s_hat: float,
    height: int = 0,
) -> np.ndarray:
    """Majorities of the depth-d' subtrees, then BP on the depth-d' tree.

    Each majority bit is observed through a flip channel of rate s_hat.  With
    key = the stream `seed.stream_tag + "/tie"`, a subtree tie at node j of
    trial i takes `word(subkey(key, i), j)` and a posterior tie
    `word(key, i << 1)`.  With d' = 0 this is a leaf majority.  With
    `height` h > 0 the rows hold height-h codes, h <= d - d', so each
    depth-d' subtree holds whole codes.
    """
    tie_seed = SeedSpec(seed.master_seed, seed.stream_tag + "/tie")
    d_prime = reduced_depth(shape.k, shape.d)
    if d_prime == 0:
        return majority_decisions(leaves, start, tie_seed, shape.k, height)
    if height > shape.d - d_prime:
        raise ValueError(f"height {height} splits the depth-{d_prime} subtrees")
    key = tie_seed.key()
    trials = leaves.shape[0]
    count = shape.nodes_at(d_prime)
    block = shape.n // count
    sums = _ones(leaves, shape.k, height).reshape(trials, count, -1).sum(axis=2, dtype=np.int64)

    def subtree_tie(rows, nodes):
        return words_vec(trial_keys(key, trials, start)[rows], nodes)

    bits = _decide(2 * sums > block, 2 * sums == block, subtree_tie)
    post1 = bp_posterior_batch_binary(TreeShape(k=shape.k, d=d_prime), theta, bits, s=s_hat)
    return _round_posterior(post1, key, start)


def bp_rounding_decisions(
    shape: TreeShape,
    theta: float,
    leaves: np.ndarray,
    start: int,
    seed: SeedSpec,
    s: float = 0.0,
    height: int = 0,
) -> np.ndarray:
    """Rounded BP posterior, leaves seen through a flip channel of rate s.

    A posterior of exactly 1/2 takes the top bit of `word(seed.key(), i << 1)`.
    With `height` h > 0 the rows hold height-h codes.
    """
    post1 = bp_posterior_batch_binary(shape, theta, leaves, s, height)
    return _round_posterior(post1, seed.key(), start)


def majority_estimate(leaves, seed: SeedSpec, trial: int = 0) -> int:
    """`majority_decisions` of one tree, as global trial `trial`."""
    return int(majority_decisions(np.asarray(leaves).reshape(1, -1), trial, seed)[0])


CODE_LAW_FACTORS = 1 << 18  # most codes x numerator factors a sampled code law may have


def code_height(k: int, d: int) -> int:
    """Height h of the subtree codes the Monte Carlo estimators sample.

    The largest h <= d - d' (d' = `reduced_depth`, so linearized BP's blocks
    hold whole codes) whose exact code law is small: V_h codes (V_1 = k + 1,
    V_{j+1} = V_j^k), each numerator a product of one factor per edge of the
    subtree (E_1 = k, E_{j+1} = k E_j + k), with V_h E_h <= CODE_LAW_FACTORS.
    The law's size and build time grow with V_h E_h (at k = 6000, h = 1 the
    build took 17 s), so from k = 512 on this is 0, the leaves.  k = 2 gives
    h = 4 (6561 codes).  It depends on (k, d) only, never on a batch, so
    draws do not depend on chunking.
    """
    limit = d - reduced_depth(k, d)
    h, size, edges = 0, k + 1, k
    while h < limit and size * edges <= CODE_LAW_FACTORS:
        h, size, edges = h + 1, size**k, k * edges + k
    return h


def reduced_depth(k: int, d: int) -> int:
    """d' = floor(log_k(log2(n))) for n = k^d, in exact integer arithmetic.

    k^t <= log2(n) iff 2^(k^t) <= k^d, so the floor is the largest t passing
    the right-hand integer test.
    """
    if k < 2:
        return 0
    n = k**d
    t = 0
    while True:
        if 2 ** (k ** (t + 1)) <= n:
            t += 1
        else:
            return t


def default_flip_rate(k: int, theta: float) -> float:
    """Flip-rate policy when none is supplied: the variance bound, clipped."""
    kt2 = k * theta * theta
    if kt2 > 2:
        return min(1.0 / (theta * theta * k - 1), 0.49)
    return 0.25


def pilot_flip_rate(shape: TreeShape, theta: FractionLike, seed: SeedSpec) -> float:
    """s_hat from a 2000-trial `estimate_flip_rate` pilot where d' > 0 and
    k theta^2 > 2, else `default_flip_rate`."""
    t = float(theta)
    d_prime = reduced_depth(shape.k, shape.d)
    if d_prime == 0 or shape.k * t * t <= 2:
        return default_flip_rate(shape.k, t)
    pilot = estimate_flip_rate(shape, theta, d_prime, 2000, SeedSpec(seed.master_seed, seed.stream_tag + "/fliprate"))
    return min(max(pilot.estimate, 1e-6), 0.49)


def linearized_bp(
    shape: TreeShape,
    theta: FractionLike,
    leaves,
    seed: SeedSpec,
    s_hat: float | None = None,
    trial: int = 0,
) -> int:
    """`linearized_bp_decisions` of one tree, s_hat by default `default_flip_rate`."""
    t = float(binary_theta(theta))
    if s_hat is None:
        s_hat = default_flip_rate(shape.k, t)
    if not 0 <= s_hat <= 0.5:
        raise ValueError(f"s_hat must lie in [0, 1/2], got {s_hat}")
    row = np.asarray(leaves).reshape(1, -1)
    return int(linearized_bp_decisions(shape, t, row, trial, seed, s_hat)[0])


# --- ones-count chain ------------------------------------------------------


def _binomial_draws(n: np.ndarray, p: Fraction, tkeys: np.ndarray, level: int, word_index: int) -> np.ndarray:
    """Bin(n[i], p) as a sum over the set bits j of n[i] of Bin(2^j, p) draws, draw j
    inverting word `node_counters(level, j, word_index)` of key tkeys[i] by `binomial_tables`."""
    out = np.zeros(n.shape, dtype=np.int64)
    for j in range(int(n.max(initial=0)).bit_length()):
        rows = np.flatnonzero((n >> j) & 1)
        lo, table = binomial_tables(1 << j, p)
        out[rows] += lo + table.draw(0, words_vec(tkeys[rows], node_counters(level, j, word_index)))
    return out


def leaf_ones_counts(k: int, depth: int, theta: FractionLike, root: int, trials: int, seed: SeedSpec) -> np.ndarray:
    """Sample leaf ones-counts of depth-`depth` trees given the root label.

    Level by level, the ones among children of the c current ones are
    Binomial(c*k, (1+theta)/2) and the ones among children of zeros are
    Binomial((K-c)*k, (1-theta)/2); their sum is the next level's count.
    Trial i draws them from `subkey(seed.key(), i)` by `_binomial_draws`, at
    word_index 0 for the children of ones and 1 for those of zeros.
    """
    t = binary_theta(theta)
    if root not in (0, 1):
        raise ValueError(f"root label must be 0 or 1, got {root}")
    # Before any draw: k^depth within the node budget (the tables grow as
    # 2^(j/2)), and the levels drawn below `rng.node_counters`' limit.
    TreeShape(k=k, d=depth)
    tkeys = trial_keys(seed.key(), trials)
    ones, total = np.full(trials, root, dtype=np.int64), 1
    for level in range(depth):
        from_ones = _binomial_draws(ones * k, (1 + t) / 2, tkeys, level, 0)
        from_zeros = _binomial_draws((total - ones) * k, (1 - t) / 2, tkeys, level, 1)
        ones, total = from_ones + from_zeros, total * k
    return ones


def _chain_miss_rate(k: int, depth: int, theta: FractionLike, trials: int, seed: SeedSpec) -> float:
    """P[leaf majority != root | root = 1] at depth `depth`, over
    `leaf_ones_counts` from root 1; a tie takes a `_trial_tie` word."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    ones = leaf_ones_counts(k, depth, theta, 1, trials, seed)
    n = k**depth
    right = _decide(2 * ones > n, 2 * ones == n, _trial_tie(seed.key(), 0))
    return float(trials - int(right.sum())) / trials


def majority_misclassification(
    shape: TreeShape,
    theta: FractionLike,
    trials: int,
    seed: SeedSpec,
) -> EstimatorReport:
    """Monte Carlo P[leaf majority != root | root], via the ones-count chain."""
    err = _chain_miss_rate(shape.k, shape.d, theta, trials, seed)
    return EstimatorReport(estimator="majority-miss", trials=trials, accuracy=1 - err)


@dataclass(frozen=True)
class FlipRateEstimate:
    estimate: float
    bound: float | None
    stderr: float
    trials: int


def estimate_flip_rate(
    shape: TreeShape,
    theta: FractionLike,
    d_prime: int,
    trials: int,
    seed: SeedSpec,
) -> FlipRateEstimate:
    """Estimate P[depth-(d-d') subtree majority != subtree root].

    Also returns the analytic bound 1/(theta^2 k - 1), which applies when
    k theta^2 > 2.
    """
    if not 0 <= d_prime <= shape.d:
        raise ValueError(f"d' must lie in [0, {shape.d}]")
    t = float(binary_theta(theta))
    est = _chain_miss_rate(shape.k, shape.d - d_prime, theta, trials, seed)
    bound = 1.0 / (t * t * shape.k - 1) if shape.k * t * t > 2 else None
    return FlipRateEstimate(
        estimate=est,
        bound=bound,
        stderr=sqrt(max(est * (1 - est), 1e-12) / trials),
        trials=trials,
    )


def ones_count_law(
    k: int, d: int, theta: FractionLike, root: int = 1, exact: bool = True
) -> tuple[np.ndarray, int | float]:
    """Law of the leaf ones count of a depth-d k-ary tree given its root label.

    The count of a subtree with root label a has generating polynomial
    f_d^a = (keep f_{d-1}^a + flip f_{d-1}^(1-a))^k, f_0^1 = x, f_0^0 = 1,
    keep = (1 + theta)/2, expanded by convolution.  Returns (coeffs, den)
    with P[c ones] = coeffs[c] / den.  Exact: integer numerators in an
    object array over an int den.  exact=False runs the same recursion in
    float64 with den = 1.0; every coefficient is a sum of products of
    nonnegative terms, so its relative error is at most about
    (2n + 3kd) * 2^-53 (n = k^d), except that coefficients below ~1e-300
    underflow (an absolute error below that).  At k=2, d=12, theta=4/5 the
    majority accuracy summed from them is within 1e-13 of exact.
    """
    t = binary_theta(theta)
    if root not in (0, 1):
        raise ValueError(f"root label must be 0 or 1, got {root}")
    if exact:
        (keep, flip), step = integer_numerators([(1 + t) / 2, (1 - t) / 2])
        dtype, den = object, 1
    else:
        keep, flip, step = float((1 + t) / 2), float((1 - t) / 2), 1.0
        dtype, den = np.float64, 1.0
    f = [np.array([1], dtype=dtype), np.array([0, 1], dtype=dtype)]
    for _ in range(d):
        mixed = []
        for a in (0, 1):
            mix = np.zeros(len(f[1]), dtype=dtype)
            mix[: len(f[a])] += keep * f[a]
            mix[: len(f[1 - a])] += flip * f[1 - a]
            mixed.append(mix)
        f = [reduce(np.convolve, [mix] * k) for mix in mixed]
        den = (step * den) ** k
    return f[root], den


def exact_majority_error(shape: TreeShape, theta: FractionLike) -> Fraction:
    """Exact P[leaf majority != root | root = 1], ties counted half."""
    law, den = ones_count_law(shape.k, shape.d, theta)
    n = shape.n
    # Twice the error numerator, so ties weigh one half.
    twice = 2 * sum(law[: (n + 1) // 2]) + (law[n // 2] if n % 2 == 0 else 0)
    return Fraction(int(twice), 2 * den)


# --- P_{s,d} ---------------------------------------------------------------


def noisy_leaf_channel(theta: FractionLike, s: FractionLike) -> Channel:
    """Composition flip(s) after broadcast(theta): the last-level edge channel,
    the binary channel of bias theta * (1 - 2s)."""
    return Channel.binary(as_fraction(theta) * (1 - 2 * as_fraction(s)))


def exact_P_sd(shape: TreeShape, theta: FractionLike, s: FractionLike) -> Fraction:
    """Exact optimal accuracy of recovering the root from s-noisy leaves.

    The Bayes accuracy over `oracle.likelihood_law`, with flip(s) composed
    into the last level's edges: it recurses on the law of the likelihood
    vector, not on the 2^n leaf configurations, but keeps the enumeration
    oracle's configuration cap, `DEFAULT_CONFIG_CAP` (and its error), so
    the shapes it covers are those `enumerate_joint` covers.  At d = 0 the
    one leaf is the root seen through flip(s), with no edge to compose the
    noise into, so the answer is max(s, 1 - s).
    """
    if shape.d == 0:
        sf = as_fraction(s)
        return max(sf, 1 - sf)
    channel = Channel.binary(as_fraction(theta))
    law = likelihood_law(shape, channel, leaf_channel=noisy_leaf_channel(theta, s))
    return bayes_accuracy(law)


@dataclass(frozen=True)
class PsdEstimate:
    estimate: float
    stderr: float
    trials: int
    method: str
    exact: Fraction | None = None


def estimate_P_sd(
    shape: TreeShape,
    theta: FractionLike,
    s: FractionLike,
    trials: int,
    seed: SeedSpec,
    method: str = "auto",
) -> PsdEstimate:
    """P_{s,d} by exact enumeration when the cap permits, else Monte Carlo.

    Monte Carlo trial i draws its root and its `code_height` subtree codes,
    leaves seen through flip(s), from the key derived from i in the stream
    `seed`, and scores `bp_rounding_decisions` against the true root, so
    results do not depend on chunking.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    t = as_fraction(theta)
    sf = as_fraction(s)
    if not 0 <= sf <= Fraction(1, 2):
        raise ValueError(f"s must lie in [0, 1/2], got {sf}")
    if method not in ("auto", "exact", "mc"):
        raise ValueError(f"unknown method {method!r}")
    if method in ("auto", "exact"):
        if config_count(shape.n, 2) <= DEFAULT_CONFIG_CAP:
            val = exact_P_sd(shape, t, sf)
            return PsdEstimate(
                estimate=float(val), stderr=0.0, trials=0, method="exact", exact=val
            )
        if method == "exact":
            raise ValueError("tree too large for exact P_{s,d}; use Monte Carlo")
    kernel = partial(bp_rounding_decisions, shape, float(t), seed=seed, s=float(sf))
    acc = sampled_hits(shape, t, seed, trials, {"bp-rounding": kernel}, sf)["bp-rounding"] / trials
    return PsdEstimate(
        estimate=acc,
        stderr=sqrt(max(acc * (1 - acc), 1e-12) / trials),
        trials=trials,
        method="mc",
    )

