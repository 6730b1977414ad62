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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from ..channels import FractionLike, as_fraction
from ..rng import SeedSpec, subkey, words_vec
from .group import A5

DEFAULT_TAU = Fraction(1, 5)


@dataclass(frozen=True)
class ReconstructionResult:
    root_estimate: int
    flagged_nodes: int


def _top_two(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-row top and runner-up value indices and their counts.

    Ties break toward the lower value index (argmax convention), keeping
    reconstruction deterministic given the tallies.
    """
    counts = np.asarray(counts).astype(np.int64, copy=False)
    top = counts.argmax(axis=1)
    top_count = counts[np.arange(len(counts)), top]
    rest = counts.astype(np.int64, copy=True)
    rest[np.arange(len(counts)), top] = -1
    runner = rest.argmax(axis=1)
    runner_count = counts[np.arange(len(counts)), runner]
    return top, top_count, runner, runner_count


def reconstruct_level_pair(
    child_labels: np.ndarray, k: int, tau: Fraction
) -> np.ndarray:
    """Estimate one level of pair labels from children grouped k at a time."""
    codes = np.asarray(child_labels)
    if codes.size % k:
        raise ValueError(f"{codes.size} children do not group into nodes of arity {k}")
    first = (codes // 60).astype(np.intp)
    second = (codes % 60).astype(np.intp)
    products = A5.mul[first, second].astype(np.intp)
    nodes = codes.size // k
    offsets = np.repeat(np.arange(nodes, dtype=np.intp) * 60, k)
    counts = np.bincount(offsets + products, minlength=nodes * 60).reshape(nodes, 60)
    top, top_count, runner, runner_count = _top_two(counts)
    diagonal = runner_count * tau.denominator < tau.numerator * top_count
    second_el = np.where(diagonal, top, runner)
    return (top * 60 + second_el).astype(np.uint16)


def reconstruct_level_class16_from_counts(
    counts16: np.ndarray, tau: Fraction, tie_key: int
) -> tuple[np.ndarray, np.ndarray]:
    """Estimate class-pair labels from per-node child-label tallies.

    `counts16` has one row per node and 16 columns (class-pair code order).
    Only the identity-first columns (codes 0..3) carry the signal.  Rows with
    no identity-first children draw a uniform label and are flagged.
    """
    counts16 = np.asarray(counts16)
    id_first = counts16[:, 0:4]
    top, top_count, runner, runner_count = _top_two(id_first)
    diagonal = runner_count * tau.denominator < tau.numerator * top_count
    second_cl = np.where(diagonal, top, runner)
    labels = (top * 4 + second_cl).astype(np.uint8)
    empty = top_count == 0
    if empty.any():
        idx = np.nonzero(empty)[0]
        w = words_vec(tie_key, idx.astype(np.uint64))
        labels[idx] = (w % np.uint64(16)).astype(np.uint8)
    return labels, empty


def reconstruct_level_class16(
    child_labels: np.ndarray, k: int, tau: Fraction, tie_key: int
) -> tuple[np.ndarray, np.ndarray]:
    codes = np.asarray(child_labels, dtype=np.intp)
    if codes.size % k:
        raise ValueError(f"{codes.size} children do not group into nodes of arity {k}")
    nodes = codes.size // k
    offsets = np.repeat(np.arange(nodes, dtype=np.intp) * 16, k)
    counts = np.bincount(offsets + codes, minlength=nodes * 16).reshape(nodes, 16)
    return reconstruct_level_class16_from_counts(counts, tau, tie_key)


@lru_cache(maxsize=1)
def _class16_child_laws() -> tuple[np.ndarray, np.ndarray]:
    """Read-only float child laws of the quotient model, one row per parent
    label, and their cumulative sums."""
    from .quotient import quotient_channel

    cols = quotient_channel().to_float().T.copy()  # cols[parent] = child law
    cols /= cols.sum(axis=1, keepdims=True)
    cdf = np.cumsum(cols, axis=1)
    cols.setflags(write=False)
    cdf.setflags(write=False)
    return cols, cdf


def class16_reconstruction_trial(
    k: int, d: int, key: int, tau: Fraction = DEFAULT_TAU
) -> tuple[int, int, int]:
    """One quotient-model reconstruction trial; returns (root, estimate, flags).

    Levels above the leaves are materialized; the leaf level enters
    reconstruction only through per-parent label tallies, so it is sampled
    directly as one multinomial per bottom internal node (children are i.i.d.
    given the parent, making the tally a sufficient statistic).  This keeps
    k in the thousands cheap without changing the sampled law.
    """
    if d < 1:
        raise ValueError("reconstruction needs depth >= 1")
    rng = np.random.Generator(np.random.PCG64(key))
    cols, cdf = _class16_child_laws()
    root = int(rng.integers(0, 16))
    labels = np.array([root], dtype=np.int64)
    for _ in range(d - 1):
        parents = np.repeat(labels, k)
        u = rng.random(parents.size)
        out = np.empty(parents.size, dtype=np.int64)
        for v in range(16):
            mask = parents == v
            if mask.any():
                out[mask] = np.searchsorted(cdf[v], u[mask], side="right")
        labels = np.minimum(out, 15)
    counts = rng.multinomial(k, cols[labels])
    est, empty = reconstruct_level_class16_from_counts(counts, tau, subkey(key, 1))
    flagged = int(empty.sum())
    level = est
    depth_ctr = 1
    while level.size > 1:
        depth_ctr += 1
        level, empty = reconstruct_level_class16(level, k, tau, subkey(key, depth_ctr))
        flagged += int(empty.sum())
    return root, int(level[0]), flagged


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
    tie_key = subkey(seed.key(), 0) if seed is not None else subkey(0, 0)
    flagged = 0
    depth = 0
    while level.size > 1:
        if level.size % k:
            raise ValueError(f"level of {level.size} labels is not divisible by k = {k}")
        if model == "pair3600":
            level = reconstruct_level_pair(level, k, tau_f)
        else:
            depth += 1
            level, empty = reconstruct_level_class16(level, k, tau_f, subkey(tie_key, depth))
            flagged += int(empty.sum())
    return ReconstructionResult(root_estimate=int(level[0]), flagged_nodes=flagged)
