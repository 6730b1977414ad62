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

from ..channels import Threshold, uniform_draw
from ..rng import SeedSpec, subkey, words_vec
from .group import A5
from .pair_model import _product_tree_levels, _uniform60, pair_code

# Most cells of a word, and of `amplify_oracle`'s trials x length table:
# 2^26, as many as a tree may have nodes (`trees.MAX_TREE_NODES`).
MAX_WORD_CELLS = 1 << 26


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
        if min(self.word) < 0 or max(self.word) >= A5.order:
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
        """`to_json`'s form; a word entry or target that is no JSON integer raises ValueError."""
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("a word instance must be a JSON object")
        try:
            word, promise, target = doc["word"], doc["promise"], doc["target"]
        except KeyError as exc:
            raise ValueError(f"word instance JSON lacks the key {exc}") from None
        if not isinstance(word, list) or any(type(x) is not int for x in [*word, target]):
            raise ValueError("the word must be a list of JSON integers, and the target one")
        return cls(word=tuple(word), promise=str(promise), target=target)


def make_instance(r: int, promise: str, target: int, seed: SeedSpec) -> WordInstance:
    """Uniform word of length r conditioned on the promised product."""
    if r < 1:
        raise ValueError("word length must be >= 1")
    if r > MAX_WORD_CELLS:
        raise ValueError(f"word length {r} is past the cap of {MAX_WORD_CELLS} symbols")
    key = seed.key()
    prefix = _uniform60(words_vec(key, np.arange(r - 1, dtype=np.uint64)))
    prod = int(A5.products(prefix))
    want = A5.identity if promise == "identity" else target
    last = int(A5.mul[A5.inv[prod], want])
    return WordInstance(word=(*prefix.tolist(), last), promise=promise, target=target)


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
    if trials * len(instance.word) > MAX_WORD_CELLS:
        raise ValueError(
            f"{trials} trials of a length-{len(instance.word)} word are past the cap of {MAX_WORD_CELLS} table cells"
        )
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
    mod 2^64; it is answered right when counter word 2h falls below the
    `Threshold` of 1/60 + epsilon, else it answers product + 1 + u mod 60,
    with u = `uniform_draw(59, w)` of counter word 2h + 1, one of the 59
    other elements.  A query answers the same in any batch.
    """
    p = Fraction(1, 60) + Fraction(epsilon) if math.isfinite(epsilon) else None
    if p is None or not 0 <= p <= 1:
        raise ValueError(f"epsilon must be a finite number in [-1/60, 59/60], got {epsilon}")
    coin = Threshold(p)
    key = seed.key()

    def oracle(words) -> np.ndarray:
        words = np.asarray(words)
        lead, r = words.shape[:-1], words.shape[-1]
        flat = words.reshape(math.prod(lead), r)
        mults = words_vec(subkey(key, r), np.arange(r, dtype=np.uint64)) | np.uint64(1)
        h2 = (flat.astype(np.uint64) * mults).sum(axis=1, dtype=np.uint64) << np.uint64(1)
        truth = A5.products(flat)
        wrong = (truth + 1 + uniform_draw(59, words_vec(key, h2 | np.uint64(1)))) % np.uint64(60)
        correct = coin.below(words_vec(key, h2))
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
