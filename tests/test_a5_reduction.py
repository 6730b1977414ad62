import json
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from treecast.a5.group import A5
from treecast.a5.pair_model import _uniform60, pair_code
from treecast.a5.reconstruct import recursive_reconstruct
from treecast.a5.reduction import (
    WordInstance,
    amplify_oracle,
    detection_to_word,
    make_instance,
    randomize_word,
    synthetic_oracle,
)
from treecast.rng import SeedSpec, subkey
from treecast.rng import word as word_at

FIVE = int(A5.five_cycles()[0])


def test_randomized_word_is_bijection_at_r2():
    # Over all 3600 randomizer pairs the outputs are 3600 distinct tuples.
    word = (7, 42)
    mul, inv = A5.mul, A5.inv
    outputs = set()
    for b1 in range(60):
        for b2 in range(60):
            outputs.add((int(mul[word[0], b1]), int(mul[mul[inv[b1], word[1]], b2])))
    assert len(outputs) == 3600


def test_randomize_word_telescopes():
    word = (3, 19, 55, 21)
    randomized, bs = randomize_word(word, SeedSpec(5, "rw"), trial=9)
    assert A5.product(randomized) == int(A5.mul[A5.product(word), bs[-1]])


@given(
    st.lists(st.integers(0, 59), min_size=1, max_size=12),
    st.integers(0, 1000),
)
def test_randomize_word_telescoping_property(word, trial):
    randomized, bs = randomize_word(tuple(word), SeedSpec(44, "rw"), trial=trial)
    assert len(randomized) == len(word)
    assert A5.product(randomized) == int(A5.mul[A5.product(word), bs[-1]])


def _randomize_word_reference(word, seed, trial):
    """The per-trial scalar loop: Python-int keys and one lookup per symbol."""
    key = subkey(seed.key(), trial)
    bs = [int(_uniform60(np.array([word_at(key, i)], dtype=np.uint64))[0]) for i in range(len(word))]
    out, prev_b = [], A5.identity
    for s, b in zip(word, bs):
        out.append(int(A5.mul[A5.mul[A5.inv[prev_b], s], b]))
        prev_b = b
    return tuple(out), tuple(bs)


@given(
    st.lists(st.integers(0, 59), min_size=1, max_size=70),
    st.lists(st.integers(0, 2000), min_size=0, max_size=8),
    st.integers(0, 2**32),
)
@example([5], [9, 0, 9], 1)
def test_randomize_word_trial_array_rows_match_scalar_calls(word, trials, master):
    seed = SeedSpec(master, "rw")
    randomized, bs = randomize_word(word, seed, trial=np.array(trials, dtype=np.int64))
    assert randomized.shape == bs.shape == (len(trials), len(word))
    assert randomized.dtype == bs.dtype == np.uint8
    for row, t in enumerate(trials):
        scalar = randomize_word(word, seed, trial=t)
        assert all(type(g) is int for part in scalar for g in part)
        assert scalar == _randomize_word_reference(word, seed, t)
        assert (tuple(randomized[row].tolist()), tuple(bs[row].tolist())) == scalar


def test_amplify_queries_a_batched_oracle_once():
    seen = []

    def oracle(words):
        seen.append(words.copy())
        return A5.products(words)

    inst = make_instance(10, "identity", FIVE, SeedSpec(12, "mi"))
    result = amplify_oracle(oracle, inst, 7, SeedSpec(12, "amp"))
    assert result.votes_identity == 7 and len(seen) == 1
    assert seen[0].dtype == np.uint8 and seen[0].shape == (7, 10)
    randomized, _ = randomize_word(inst.word, SeedSpec(12, "amp"), trial=np.arange(7))
    assert np.array_equal(seen[0], randomized)


@pytest.mark.parametrize("answer", [lambda w: np.zeros(len(w) + 1), lambda w: np.zeros((len(w), 1))])
def test_amplify_rejects_an_answer_of_the_wrong_shape(answer):
    inst = make_instance(10, "identity", FIVE, SeedSpec(12, "mi"))
    with pytest.raises(ValueError, match="shape"):
        amplify_oracle(answer, inst, 5, SeedSpec(12, "amp"))


def test_amplify_with_no_trials_is_undecided():
    inst = make_instance(10, "identity", FIVE, SeedSpec(12, "mi"))
    result = amplify_oracle(lambda words: np.zeros(len(words)), inst, 0, SeedSpec(12, "amp"))
    assert (result.decision, result.accepted, result.trials) == ("undecided", 0, 0)
    oracle = synthetic_oracle(0.1, SeedSpec(12, "or"))
    assert amplify_oracle(oracle, inst, 0, SeedSpec(12, "amp")).decision == "undecided"


def test_amplify_rejects_negative_trials():
    inst = make_instance(10, "identity", FIVE, SeedSpec(12, "mi"))
    with pytest.raises(ValueError, match="trials"):
        amplify_oracle(A5.products, inst, -5, SeedSpec(12, "amp"))


def test_single_element_word_uniform():
    randomized, _ = randomize_word((13,), SeedSpec(8, "rw"), trial=np.arange(30_000))
    counts = np.bincount(randomized[:, 0], minlength=60)
    expected = 30_000 / 60
    stat = float(((counts - expected) ** 2 / expected).sum())
    from scipy.stats import chi2

    assert stat <= chi2.ppf(0.999, 59)


@pytest.mark.parametrize("word", [(-1, 59), (3, 60), (99,)])
def test_out_of_range_symbols_are_rejected(word):
    with pytest.raises(ValueError, match=r"\[0, 60\)"):
        WordInstance(word=word, promise="identity", target=FIVE)
    with pytest.raises(ValueError, match=r"\[0, 60\)"):
        randomize_word(word, SeedSpec(1, "rw"))


@pytest.mark.parametrize("target", [-1, 60])
def test_out_of_range_target_is_rejected(target):
    with pytest.raises(ValueError, match="target"):
        WordInstance(word=(0,), promise="identity", target=target)


@pytest.mark.parametrize("missing", ["word", "promise", "target"])
def test_word_instance_json_missing_key_is_a_value_error(missing):
    doc = {"word": [FIVE], "promise": "target", "target": FIVE}
    del doc[missing]
    with pytest.raises(ValueError, match=missing):
        WordInstance.from_json(json.dumps(doc))


def test_make_instance_respects_promise():
    inst = make_instance(16, "identity", FIVE, SeedSpec(3, "mi"))
    assert A5.product(inst.word) == A5.identity
    inst2 = make_instance(16, "target", FIVE, SeedSpec(4, "mi"))
    assert A5.product(inst2.word) == FIVE
    with pytest.raises(ValueError):
        WordInstance(word=(5,), promise="identity", target=FIVE)


def test_word_instance_json_roundtrip():
    inst = make_instance(8, "target", FIVE, SeedSpec(9, "mi"))
    assert WordInstance.from_json(inst.to_json()) == inst


def test_amplify_with_perfect_oracle():
    for promise in ("identity", "target"):
        inst = make_instance(12, promise, FIVE, SeedSpec(11, "mi"))
        result = amplify_oracle(A5.products, inst, 50, SeedSpec(11, "amp"))
        assert result.decision == promise
        assert result.accepted == 50  # every trial votes


def test_amplify_with_constant_oracle():
    def stubborn(words):
        return np.full(len(words), 17)

    inst = make_instance(12, "target", FIVE, SeedSpec(13, "mi"))
    result = amplify_oracle(stubborn, inst, 200, SeedSpec(13, "amp"))
    # Votes land only by chance; the vote margin carries no signal.
    assert result.accepted <= 25
    assert abs(result.votes_identity - result.votes_target) <= 12


def test_amplify_with_weak_synthetic_oracle():
    oracle = synthetic_oracle(0.1, SeedSpec(21, "or"))
    hits = 0
    n_instances = 30
    for i in range(n_instances):
        promise = "identity" if i % 2 else "target"
        inst = make_instance(32, promise, FIVE, SeedSpec(100 + i, "mi"))
        result = amplify_oracle(oracle, inst, 400, SeedSpec(200 + i, "amp"))
        hits += result.decision == promise
    assert hits >= n_instances - 1


def test_synthetic_oracle_advantage():
    oracle = synthetic_oracle(0.1, SeedSpec(31, "or"))
    words = np.random.default_rng(3).integers(0, 60, size=(20_000, 6)).astype(np.uint8)
    answers = oracle(words)
    assert answers.shape == (20_000,) and answers.dtype == np.uint8
    acc = float((answers == A5.products(words)).mean())
    assert abs(acc - (1 / 60 + 0.1)) < 0.01


@given(
    st.sampled_from([(), (5,), (3, 4)]),
    st.integers(0, 9),
    st.integers(0, 2**32),
    st.data(),
)
def test_synthetic_oracle_answers_batched_as_row_by_row(lead, r, master, data):
    oracle = synthetic_oracle(0.3, SeedSpec(master, "or"))
    words = data.draw(arrays(np.uint8, lead + (r,), elements=st.integers(0, 59)))
    answers = oracle(words)
    assert answers.shape == lead and answers.dtype == np.uint8
    for idx in np.ndindex(*lead):
        assert oracle(words[idx]) == answers[idx]
        assert oracle(words[idx][None])[0] == answers[idx]
    assert np.array_equal(oracle(words), answers)


def test_synthetic_oracle_answers_repeated_queries_identically():
    oracle = synthetic_oracle(0.1, SeedSpec(31, "or"))
    words = np.random.default_rng(5).integers(0, 60, size=(50, 8)).astype(np.uint8)
    repeated = np.concatenate([words, words[::-1], words])
    answers = oracle(repeated)
    assert np.array_equal(answers[:50], answers[100:])
    assert np.array_equal(answers[:50], answers[50:100][::-1])


@pytest.mark.parametrize("epsilon", [-1 / 60, 59 / 60])
def test_synthetic_oracle_accepts_the_ends_of_the_epsilon_range(epsilon):
    words = np.random.default_rng(6).integers(0, 60, size=(500, 4)).astype(np.uint8)
    hits = synthetic_oracle(epsilon, SeedSpec(1, "or"))(words) == A5.products(words)
    assert hits.all() if epsilon > 0 else not hits.any()


@pytest.mark.parametrize("epsilon", [math.nan, math.inf, -math.inf, -0.02, 0.99])
def test_synthetic_oracle_rejects_epsilon_outside_its_range(epsilon):
    with pytest.raises(ValueError, match="epsilon"):
        synthetic_oracle(epsilon, SeedSpec(1, "or"))


def test_detection_to_word_oblivious_detector():
    hits = 0
    trials = 400
    rng = np.random.default_rng(8)
    for i in range(trials):
        sigma = rng.integers(0, 60, size=4)
        record = detection_to_word(lambda leaves: 1234, sigma, 8, 1, SeedSpec(i, "pt"))
        hits += record.correct
    # Constant guess against a uniform root pair: ~1/3600.
    assert hits <= 4


def test_detection_to_word_with_reconstructor():
    k = 3600
    hits = 0
    trials = 25
    rng = np.random.default_rng(15)
    for i in range(trials):
        sigma = rng.integers(0, 60, size=4)
        record = detection_to_word(
            lambda leaves: recursive_reconstruct(
                leaves, k, "pair3600", seed=SeedSpec(i, "rec")
            ).root_estimate,
            sigma,
            k,
            1,
            SeedSpec(1000 + i, "pt"),
        )
        assert record.truth == pair_code(
            A5.product(sigma[:2]), A5.product(sigma[2:])
        )
        hits += record.correct
    assert hits >= 23
