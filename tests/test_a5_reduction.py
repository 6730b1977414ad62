import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

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


def test_amplify_queries_a_scalar_oracle_with_tuples_of_ints():
    seen = []

    def oracle(word):
        seen.append(word)
        return A5.product(word)

    inst = make_instance(10, "identity", FIVE, SeedSpec(12, "mi"))
    result = amplify_oracle(oracle, inst, 7, SeedSpec(12, "amp"))
    assert result.votes_identity == 7 and len(seen) == 7
    assert all(type(w) is tuple and len(w) == 10 for w in seen)
    assert all(type(g) is int for w in seen for g in w)
    randomized, _ = randomize_word(inst.word, SeedSpec(12, "amp"), trial=np.arange(7))
    assert seen == [tuple(row) for row in randomized.tolist()]


def test_amplify_with_no_trials_is_undecided():
    inst = make_instance(10, "identity", FIVE, SeedSpec(12, "mi"))
    result = amplify_oracle(lambda word: 0, inst, 0, SeedSpec(12, "amp"))
    assert (result.decision, result.accepted, result.trials) == ("undecided", 0, 0)


def test_single_element_word_uniform():
    counts = np.zeros(60, dtype=np.int64)
    for t in range(30_000):
        randomized, _ = randomize_word((13,), SeedSpec(8, "rw"), trial=t)
        counts[randomized[0]] += 1
    expected = 30_000 / 60
    stat = float(((counts - expected) ** 2 / expected).sum())
    from scipy.stats import chi2

    assert stat <= chi2.ppf(0.999, 59)


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
    def perfect(word):
        return A5.product(word)

    for promise in ("identity", "target"):
        inst = make_instance(12, promise, FIVE, SeedSpec(11, "mi"))
        result = amplify_oracle(perfect, inst, 50, SeedSpec(11, "amp"))
        assert result.decision == promise
        assert result.accepted == 50  # every trial votes


def test_amplify_with_constant_oracle():
    def stubborn(word):
        return 17

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
    rng = np.random.default_rng(3)
    correct = 0
    trials = 20_000
    for _ in range(trials):
        word = tuple(int(x) for x in rng.integers(0, 60, size=6))
        correct += oracle(word) == A5.product(word)
    acc = correct / trials
    assert abs(acc - (1 / 60 + 0.1)) < 0.01


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
