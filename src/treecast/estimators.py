"""Root estimators for the binary broadcast process.

* `majority_estimate`: leaf majority with a fresh random bit on exact ties.
* `linearized_bp`: the two-stage estimator -- subtree majorities at the
  reduced depth d' = floor(log_k(log2(n))), then Bayes decoding of those
  majority bits on the depth-d' tree, treating them as observations through
  a symmetric flip channel.
* `estimate_flip_rate`: Monte Carlo estimate of P[subtree majority != subtree
  root], together with the analytic variance bound 1/(theta^2 k - 1) that is
  valid when k theta^2 > 2.
* `estimate_P_sd`: optimal accuracy of recovering the root from noisy leaves,
  exact under the enumeration cap, Monte Carlo otherwise.

Monte Carlo majority statistics use a per-level ones-count chain (sums of two
binomials) rather than materialized trees: the leaf ones-count given the root
is a Markov chain in the level counts, so the chain sampler has exactly the
law of counting ones in a sampled tree, at a tiny fraction of the cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import sqrt

import numpy as np

from .bp import LeafLikelihood, bp_posterior, bp_posterior_batch_binary
from .channels import Channel, FractionLike, as_fraction, binary_theta
from .oracle import DEFAULT_CONFIG_CAP, bayes_accuracy, config_count, enumerate_joint
from .rng import SeedSpec, subkey, word
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


def majority_from_count(ones: int, n: int, tie_bit: int) -> int:
    """Majority decision from the ones count; `tie_bit` settles exact ties."""
    if 2 * ones > n:
        return 1
    if 2 * ones < n:
        return 0
    return tie_bit & 1


def majority_estimate(leaves, seed: SeedSpec, trial: int = 0) -> int:
    """1 if ones exceed half the leaves, 0 if fewer, fresh random bit on a tie."""
    arr = np.asarray(leaves)
    ones = int(arr.sum())
    tie_bit = word(seed.key(), trial << 1) >> 63
    return majority_from_count(ones, arr.size, int(tie_bit))


def _decide(above: np.ndarray, tied: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Batched binary decisions: 1 where `above`, else 0, and a fair bit at ties.

    The tie bits are one `rng.integers(0, 2, size=ties)` draw, taken only
    when some entry is tied, and assigned in index order.
    """
    guess = above.astype(np.int64)
    if tied.any():
        guess[tied] = rng.integers(0, 2, size=int(tied.sum()))
    return guess


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


def subtree_majorities(
    shape: TreeShape, leaves: np.ndarray, d_prime: int, seed: SeedSpec, trial: int = 0
) -> np.ndarray:
    """Majority bit of each depth-d' node's descendant leaves, random tie-breaks."""
    count = shape.nodes_at(d_prime)
    block = shape.n // count
    sums = np.asarray(leaves).reshape(count, block).sum(axis=1)
    out = np.where(2 * sums > block, 1, 0).astype(np.uint8)
    ties = np.nonzero(2 * sums == block)[0]
    if len(ties):
        key = subkey(seed.key(), trial)
        bits = np.array([word(key, int(i)) >> 63 for i in ties], dtype=np.uint8)
        out[ties] = bits
    return out


def linearized_bp(
    shape: TreeShape,
    theta: FractionLike,
    leaves,
    seed: SeedSpec,
    s_hat: float | None = None,
    trial: int = 0,
) -> int:
    """Two-stage root estimate: reduced-depth majorities, then Bayes decoding.

    With d' = 0 (tiny n) this degenerates to a global leaf majority.  The
    decoder is exact BP on the depth-d' tree with each majority bit observed
    through a symmetric flip channel of rate s_hat (supplied, or the analytic
    bound policy of `default_flip_rate`).
    """
    t = as_fraction(theta)
    d_prime = reduced_depth(shape.k, shape.d)
    if d_prime == 0:
        return majority_estimate(leaves, SeedSpec(seed.master_seed, seed.stream_tag + "/tie"), trial)
    bits = subtree_majorities(shape, leaves, d_prime, SeedSpec(seed.master_seed, seed.stream_tag + "/tie"), trial)
    if s_hat is None:
        s_hat = default_flip_rate(shape.k, float(t))
    s_frac = as_fraction(min(max(s_hat, 1e-9), 0.5))
    reduced = TreeShape(k=shape.k, d=d_prime)
    evidence = LeafLikelihood.from_noisy_bits(bits, s_frac)
    report = bp_posterior(reduced, Channel.binary(t), evidence, mode="auto")
    return report.argmax


# --- ones-count chain ------------------------------------------------------


def leaf_ones_counts(
    k: int, depth: int, theta_float: float, root: int, trials: int, rng: np.random.Generator
) -> np.ndarray:
    """Sample leaf ones-counts of depth-`depth` trees given the root label.

    Level by level, the ones among children of the c current ones are
    Binomial(c*k, (1+theta)/2) and the ones among children of zeros are
    Binomial((K-c)*k, (1-theta)/2); their sum is the next level's count.
    """
    p_keep = (1 + theta_float) / 2
    p_gain = (1 - theta_float) / 2
    ones = np.full(trials, root, dtype=np.int64)
    total = 1
    for _ in range(depth):
        from_ones = rng.binomial(ones * k, p_keep)
        from_zeros = rng.binomial((total - ones) * k, p_gain)
        ones = from_ones + from_zeros
        total *= k
    return ones


def majority_misclassification(
    shape: TreeShape,
    theta: FractionLike,
    trials: int,
    seed: SeedSpec,
) -> EstimatorReport:
    """Monte Carlo P[leaf majority != root | root], via the ones-count chain."""
    t = float(as_fraction(theta))
    rng = np.random.Generator(np.random.PCG64(seed.key()))
    ones = leaf_ones_counts(shape.k, shape.d, t, root=1, trials=trials, rng=rng)
    n = shape.n
    wrong = (2 * ones < n).sum()
    ties = (2 * ones == n).sum()
    if ties:
        wrong += rng.integers(0, 2, size=int(ties)).sum()
    err = float(wrong) / trials
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
    depth = shape.d - d_prime
    rng = np.random.Generator(np.random.PCG64(seed.key()))
    ones = leaf_ones_counts(shape.k, depth, t, root=1, trials=trials, rng=rng)
    n = shape.k**depth
    wrong = (2 * ones < n).sum()
    ties = (2 * ones == n).sum()
    if ties:
        wrong += rng.integers(0, 2, size=int(ties)).sum()
    est = float(wrong) / trials
    kt2 = shape.k * t * t
    bound = 1.0 / (t * t * shape.k - 1) if kt2 > 2 else None
    return FlipRateEstimate(
        estimate=est,
        bound=bound,
        stderr=sqrt(max(est * (1 - est), 1e-12) / trials),
        trials=trials,
    )


def exact_majority_error(shape: TreeShape, theta: FractionLike) -> Fraction:
    """Exact P[leaf majority != root | root = 1], ties counted half."""
    joint = enumerate_joint(shape, Channel.binary(as_fraction(theta)))
    n = shape.n
    twice = 0  # twice the error numerator, so ties weigh one half
    for cfg, p in joint.numerators[1].items():
        ones = sum(cfg)
        if 2 * ones < n:
            twice += 2 * p
        elif 2 * ones == n:
            twice += p
    return Fraction(twice, 2 * joint.denominator)


# --- P_{s,d} ---------------------------------------------------------------


def noisy_leaf_channel(theta: FractionLike, s: FractionLike) -> Channel:
    """Composition flip(s) after broadcast(theta): the last-level edge channel."""
    t = as_fraction(theta)
    sf = as_fraction(s)
    keep = (1 + t) / 2
    agree = (1 - sf) * keep + sf * (1 - keep)
    return Channel(m=2, matrix=((agree, 1 - agree), (1 - agree, agree)))


def exact_P_sd(
    shape: TreeShape, theta: FractionLike, s: FractionLike, cap: int = DEFAULT_CONFIG_CAP
) -> Fraction:
    """Exact optimal accuracy of recovering the root from s-noisy leaves."""
    channel = Channel.binary(as_fraction(theta))
    joint = enumerate_joint(shape, channel, cap=cap, leaf_channel=noisy_leaf_channel(theta, s))
    return bayes_accuracy(joint)


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

    Monte Carlo trials generate the leaf ones pattern, flip each leaf with
    probability s, decode with BP under flip-channel likelihoods, and score
    the argmax against the true root.
    """
    t = as_fraction(theta)
    sf = as_fraction(s)
    if not 0 <= sf <= Fraction(1, 2):
        raise ValueError(f"s must lie in [0, 1/2], got {sf}")
    if method not in ("auto", "exact", "mc"):
        raise ValueError(f"unknown method {method!r}")
    if method in ("auto", "exact"):
        if config_count(shape, 2) <= DEFAULT_CONFIG_CAP:
            val = exact_P_sd(shape, t, sf)
            return PsdEstimate(
                estimate=float(val), stderr=0.0, trials=0, method="exact", exact=val
            )
        if method == "exact":
            raise ValueError("tree too large for exact P_{s,d}; use Monte Carlo")
    tf = float(t)
    s_float = float(sf)
    rng = np.random.Generator(np.random.PCG64(seed.key()))
    correct = 0
    # Cap batch memory: each trial holds O(n) floats through the BP pass.
    chunk = max(1, min(trials, 1 + (1 << 23) // max(shape.n, 1)))
    done = 0
    while done < trials:
        batch = min(chunk, trials - done)
        roots = rng.integers(0, 2, size=batch)
        leaves = _sample_leaves_binary(shape, tf, roots, rng)
        if s_float > 0:
            flips = rng.random((batch, shape.n)) < s_float
            leaves = leaves ^ flips.astype(np.uint8)
        post1 = bp_posterior_batch_binary(shape, tf, leaves, s=s_float)
        guess = _decide(post1 > 0.5, post1 == 0.5, rng)
        correct += int((guess == roots).sum())
        done += batch
    acc = correct / trials
    return PsdEstimate(
        estimate=acc,
        stderr=sqrt(max(acc * (1 - acc), 1e-12) / trials),
        trials=trials,
        method="mc",
    )


def _sample_leaves_binary(
    shape: TreeShape, theta_float: float, roots: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Leaf labels for a batch of trees with given roots, shape (batch, n)."""
    p_flip = (1 - theta_float) / 2
    labels = roots.astype(np.uint8).reshape(-1, 1)
    for lvl in range(1, shape.d + 1):
        count = shape.nodes_at(lvl)
        flips = (rng.random((labels.shape[0], count)) < p_flip).astype(np.uint8)
        labels = np.repeat(labels, shape.k, axis=1) ^ flips
    return labels
