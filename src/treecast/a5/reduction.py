"""Randomized self-reduction harness for the group word problem.

`randomize_word` telescopes fresh uniform randomizers into a word:
(s1 b1, b1^-1 s2 b2, ..., b_{r-1}^-1 s_r b_r).  For a fixed input word the
map from randomizers to outputs is a bijection, so the randomized word is
uniform; its product is (product of the word) * b_r.

`amplify_oracle` turns any word->element guesser with advantage over random
guessing into a decision procedure for promise instances (product is the
identity or a fixed target c).  It randomizes the word for all trials in one
table pass, hands the guesser the whole (trials, r) table in one call, and
accepts a vote only when the answer equals b_r (identity vote) or c * b_r
(target vote); the majority of accepted votes decides.

`detection_to_word` runs a root detector on product-tree leaves and scores
it against the half-word products, the composition that makes detection at
least as hard as the word problem.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from ..channels import cut63
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
        if not 0 <= self.target < A5.order:
            raise ValueError(f"target {self.target} outside [0, {A5.order})")
        if self.target == A5.identity:
            raise ValueError("the promise target must differ from the identity")
        if not self.word:
            raise ValueError("the word must be nonempty")
        if not all(0 <= g < A5.order for g in self.word):
            raise ValueError(f"word symbols must be element indices in [0, {A5.order})")
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
        try:
            return cls(
                word=tuple(int(g) for g in doc["word"]),
                promise=str(doc["promise"]),
                target=int(doc["target"]),
            )
        except KeyError as exc:
            raise ValueError(f"word instance JSON lacks the key {exc}") from None


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
    if word.min() < 0 or word.max() >= A5.order:
        raise ValueError(f"word symbols must be element indices in [0, {A5.order})")
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
    oracle: Callable[[np.ndarray], np.ndarray],
    instance: WordInstance,
    trials: int,
    seed: SeedSpec,
) -> AmplifyResult:
    """Majority-vote decision of a promise instance through a product guesser.

    The guesser gets the (trials, r) uint8 table of randomized words in one
    call and answers with `trials` guesses.  A trial votes only when its guess
    lands on one of the two values consistent with the promise; an all-miss
    run returns "undecided".
    """
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    randomized, bs = randomize_word(instance.word, seed, trial=np.arange(trials))
    answers = np.asarray(oracle(randomized))
    if answers.shape != (trials,):
        raise ValueError(f"the oracle gave answers of shape {answers.shape}, not ({trials},)")
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


def synthetic_oracle(epsilon: float, seed: SeedSpec) -> Callable[[np.ndarray], np.ndarray]:
    """A guesser correct with probability 1/60 + epsilon, else uniformly wrong.

    It maps a (..., r) array of words to the (...) uint8 array of its guesses,
    statelessly: word w hashes to h = sum_i w_i (word i of subkey(key, r) | 1)
    mod 2^64; it is answered right when counter word 2h >> 1 falls below
    cut63(1/60 + epsilon), else word 2h + 1 mod 59 offsets the wrong answer
    from the product.  A query answers the same in any batch.
    """
    p = Fraction(1, 60) + Fraction(epsilon) if math.isfinite(epsilon) else None
    if p is None or not 0 <= p <= 1:
        raise ValueError(f"epsilon must be a finite number in [-1/60, 59/60], got {epsilon}")
    cut = np.uint64(cut63(p))
    key = seed.key()

    def oracle(words) -> np.ndarray:
        words = np.asarray(words)
        lead, r = words.shape[:-1], words.shape[-1]
        flat = words.reshape(math.prod(lead), r)
        mults = words_vec(subkey(key, r), np.arange(r, dtype=np.uint64)) | np.uint64(1)
        h2 = (flat.astype(np.uint64) * mults).sum(axis=1, dtype=np.uint64) << np.uint64(1)
        truth = A5.products(flat)
        wrong = (truth + 1 + words_vec(key, h2 | np.uint64(1)) % np.uint64(59)) % np.uint64(60)
        correct = (words_vec(key, h2) >> np.uint64(1)) < cut
        return np.where(correct, truth, wrong).astype(np.uint8).reshape(lead)

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
