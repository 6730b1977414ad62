"""Randomized self-reduction harness for the group word problem.

`randomize_word` telescopes fresh uniform randomizers into a word:
(s1 b1, b1^-1 s2 b2, ..., b_{r-1}^-1 s_r b_r).  For a fixed input word the
map from randomizers to outputs is a bijection, so the randomized word is
uniform; its product is (product of the word) * b_r.

`amplify_oracle` turns any word->element guesser with advantage over random
guessing into a decision procedure for promise instances (product is the
identity or a fixed target c).  It randomizes the word for all trials in one
table pass (one row per trial), queries the guesser once per row, and
accepts a vote only when the answer equals b_r (identity vote) or c * b_r
(target vote); the majority of accepted votes decides.

`detection_to_word` runs a root detector on product-tree leaves and scores
it against the half-word products, the composition that makes detection at
least as hard as the word problem.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..rng import SeedSpec, subkey, words_vec
from .group import A5
from .pair_model import _product_tree_levels, _uniform60, pair_code


@dataclass(frozen=True)
class WordInstance:
    """A promise instance: the word's product is the identity or `target`."""

    word: tuple[int, ...]
    promise: str  # "identity" | "target"
    target: int

    def __post_init__(self) -> None:
        if self.promise not in ("identity", "target"):
            raise ValueError(f"unknown promise {self.promise!r}")
        if self.target == A5.identity:
            raise ValueError("the promise target must differ from the identity")
        if not self.word:
            raise ValueError("the word must be nonempty")
        prod = A5.product(self.word)
        expect = A5.identity if self.promise == "identity" else self.target
        if prod != expect:
            raise ValueError(
                f"word product {prod} does not match the declared promise {self.promise}"
            )

    def to_json(self) -> str:
        return json.dumps(
            {"word": list(self.word), "promise": self.promise, "target": self.target},
            separators=(",", ":"),
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "WordInstance":
        doc = json.loads(text)
        return cls(
            word=tuple(int(g) for g in doc["word"]),
            promise=str(doc["promise"]),
            target=int(doc["target"]),
        )


def make_instance(r: int, promise: str, target: int, seed: SeedSpec) -> WordInstance:
    """Uniform word of length r conditioned on the promised product."""
    if r < 1:
        raise ValueError("word length must be >= 1")
    key = seed.key()
    prefix = _uniform60(words_vec(key, np.arange(r - 1, dtype=np.uint64)))
    prod = A5.product(prefix)
    want = A5.identity if promise == "identity" else target
    last = int(A5.mul[A5.inv[prod], want])
    return WordInstance(word=tuple(int(g) for g in prefix) + (last,), promise=promise, target=target)


def randomize_word(word, seed: SeedSpec, trial=0):
    """Return (s1 b1, b1^-1 s2 b2, ..., b_{r-1}^-1 s_r b_r) and (b1, ..., br).

    `trial` is an int (two tuples of ints) or a 1-D integer array (two
    (len(trial), r) uint8 arrays whose row i is the scalar result for
    trial[i]).  The randomizers of trial t are drawn under `subkey(key, t)`.
    """
    word = np.asarray(word, dtype=np.intp)
    r = len(word)
    if r < 1:
        raise ValueError("the word must be nonempty")
    if np.ndim(trial) > 1:
        raise ValueError("trial must be an int or a 1-D integer array")
    tkeys = np.asarray(subkey(seed.key(), trial), dtype=np.uint64).reshape(-1)
    bs = _uniform60(words_vec(tkeys[:, None], np.arange(r, dtype=np.uint64)))
    prev_b = np.empty_like(bs)
    prev_b[:, 0] = A5.identity
    prev_b[:, 1:] = bs[:, :-1]
    out = A5.mul[A5.mul[A5.inv[prev_b], word], bs]
    if np.ndim(trial) == 0:
        return tuple(out[0].tolist()), tuple(bs[0].tolist())
    return out, bs


@dataclass(frozen=True)
class AmplifyResult:
    decision: str  # "identity" | "target" | "undecided"
    votes_identity: int
    votes_target: int
    trials: int

    @property
    def accepted(self) -> int:
        return self.votes_identity + self.votes_target


def amplify_oracle(
    oracle: Callable[[tuple[int, ...]], int],
    instance: WordInstance,
    trials: int,
    seed: SeedSpec,
) -> AmplifyResult:
    """Majority-vote decision of a promise instance through a product guesser.

    A trial votes only when the guess lands on one of the two values
    consistent with the promise; an all-miss run returns "undecided".
    """
    randomized, bs = randomize_word(instance.word, seed, trial=np.arange(trials))
    answers = np.fromiter(
        (int(oracle(row)) for row in map(tuple, randomized.tolist())),
        dtype=np.int64,
        count=trials,
    )
    b_r = bs[:, -1]
    # The target c is not the identity, so c * b_r != b_r and no answer
    # counts for both sides.
    votes_id = int((answers == b_r).sum())
    votes_tg = int((answers == A5.mul[instance.target, b_r]).sum())
    if votes_id == votes_tg:
        decision = "undecided"
    else:
        decision = "identity" if votes_id > votes_tg else "target"
    return AmplifyResult(
        decision=decision, votes_identity=votes_id, votes_target=votes_tg, trials=trials
    )


def synthetic_oracle(epsilon: float, seed: SeedSpec) -> Callable[[tuple[int, ...]], int]:
    """A guesser correct with probability 1/60 + epsilon, else uniformly wrong.

    Stateless in the query: the coin and the wrong answer are hashed from the
    query word itself, so repeated queries answer consistently.
    """
    from hashlib import blake2b

    key_bytes = seed.key().to_bytes(8, "little")

    def oracle(word) -> int:
        word = tuple(int(g) for g in word)
        h = blake2b(bytes(word), digest_size=16, key=key_bytes).digest()
        coin = int.from_bytes(h[:8], "little")
        pick = int.from_bytes(h[8:], "little")
        u = (coin >> 11) * (1.0 / 9007199254740992.0)
        truth = A5.product(word)
        if u < 1 / 60 + epsilon:
            return truth
        return (truth + 1 + pick % 59) % 60

    return oracle


@dataclass(frozen=True)
class DetectionRecord:
    guess: int
    truth: int

    @property
    def correct(self) -> bool:
        return self.guess == self.truth


def detection_to_word(
    detector: Callable[[np.ndarray], int],
    sigma,
    k: int,
    d: int,
    seed: SeedSpec,
) -> DetectionRecord:
    """Feed product-tree leaves to a detector and score the root-pair guess."""
    sigma = np.asarray(sigma, dtype=np.uint8)
    levels = _product_tree_levels(d, sigma, k, seed, trees=1)
    leaves = levels[-1][0]
    half = len(sigma) // 2
    truth = pair_code(A5.product(sigma[:half]), A5.product(sigma[half:]))
    guess = int(detector(leaves))
    return DetectionRecord(guess=guess, truth=truth)
