import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import treecast.rng as rng
from treecast.rng import (
    BLOCK_WORDS,
    MEMO_BYTES,
    SeedSpec,
    bits_from_word,
    level_blocks,
    level_words,
    node_counter,
    node_counters,
    subkey,
    trial_keys,
    trial_level_words,
    word,
    words_vec,
)


def test_same_inputs_same_block():
    key = SeedSpec(123456789, "gen").key()
    a = level_words(key, 3, 1, rows=4, start=17)
    assert np.array_equal(a, level_words(key, 3, 1, rows=4, start=17))
    assert a[:, 0].tolist() == [word(key, node_counter(3, 17, j)) for j in range(4)]


def test_stream_tag_changes_block():
    a = level_words(SeedSpec(42, "gen").key(), 2, 1, start=5)
    b = level_words(SeedSpec(42, "tie").key(), 2, 1, start=5)
    assert a != b


def test_seed_changes_block():
    a = level_words(SeedSpec(1, "gen").key(), 2, 1, start=5)
    b = level_words(SeedSpec(2, "gen").key(), 2, 1, start=5)
    assert a != b


def test_bit_frequency_across_addresses():
    # One bit per address over 1e5 distinct addresses: frequency 0.5 +- 0.01.
    key = SeedSpec(2024, "gen").key()
    w = level_words(key, 7, 100_000)
    freq = (w >> np.uint64(63)).astype(np.float64).mean()
    assert abs(freq - 0.5) < 0.01
    # and across all 64 bit positions, pooled
    bits = np.unpackbits(w.view(np.uint8))
    assert abs(bits.mean() - 0.5) < 0.001


def test_scalar_vector_agreement():
    key = SeedSpec(99, "x").key()
    idx = np.arange(1000, dtype=np.uint64)
    ctrs = (idx * np.uint64(64) + np.uint64(5)) * np.uint64(4)
    vec = words_vec(key, ctrs)
    for i in (0, 1, 17, 999):
        assert int(vec[i]) == word(key, node_counter(5, i))


def test_words_vec_broadcasts_a_key_array():
    keys = np.array([subkey(3, t) for t in range(4)], dtype=np.uint64)
    ctrs = np.array([0, 5, 9], dtype=np.uint64)
    grid = words_vec(keys[:, None], ctrs[None, :])
    assert grid.shape == (4, 3)
    for t in range(4):
        for j, c in enumerate((0, 5, 9)):
            assert int(grid[t, j]) == word(subkey(3, t), c)


def test_node_counter_injective_sample():
    seen = set()
    for level in range(6):
        for index in range(50):
            for j in range(4):
                seen.add(node_counter(level, index, j))
    assert len(seen) == 6 * 50 * 4


def test_subkey_distinct():
    key = SeedSpec(11, "t").key()
    keys = {subkey(key, i) for i in range(1000)}
    assert len(keys) == 1000


def test_subkey_of_an_index_array_matches_the_scalar_form():
    key = SeedSpec(11, "t").key()
    index = np.array([9, 0, 9, 2**40, 7])
    keys = subkey(key, index)
    assert keys.dtype == np.uint64 and keys.shape == (5,)
    assert [int(k) for k in keys] == [subkey(key, int(i)) for i in index]
    assert subkey(key, np.arange(0)).shape == (0,)


def test_bits_from_word_msb_first():
    assert bits_from_word(1 << 63, 3) == [1, 0, 0]
    assert bits_from_word(0b101 << 61, 3) == [1, 0, 1]


def test_trial_words_compose_from_subkeys():
    from treecast.rng import trial_keys, trial_level_words

    key = SeedSpec(314, "t").key()
    tkeys = trial_keys(key, 8)
    grid = trial_level_words(tkeys, level=2, count=5, word_index=1)
    for t in range(8):
        assert int(tkeys[t]) == subkey(key, t)
        for i in range(5):
            assert int(grid[t, i]) == word(subkey(key, t), node_counter(2, i, 1))


def test_trial_words_no_reuse_across_many_trials():
    # Regression: packing trial indices into counter bits wrapped mod 2^64
    # at 65536 trials and silently reused earlier trials' randomness.
    from treecast.rng import trial_keys, trial_level_words

    key = SeedSpec(7, "t").key()
    tkeys = trial_keys(key, 70_000)
    w = trial_level_words(tkeys, level=1, count=2)
    assert len(np.unique(w[:, 0])) == 70_000
    flat = np.unique(w.reshape(-1))
    assert len(flat) == 140_000


@pytest.mark.parametrize("size", [0, 1, BLOCK_WORDS - 1, BLOCK_WORDS, BLOCK_WORDS + 1, 3 * BLOCK_WORDS + 7])
def test_blocked_words_vec_equals_the_scalar_word(size):
    # Sizes around the in-place pass's block boundaries, counters as a
    # strided view, a scalar key and a (T, 1) key array.
    key = SeedSpec(5, "blocks").key()
    base = np.arange(2 * size, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15) + np.uint64(3)
    ctrs = base[::2]
    assert not ctrs.flags.c_contiguous or size <= 1
    want = [word(key, c) for c in ctrs.tolist()]
    assert words_vec(key, ctrs).tolist() == want
    keys = np.array([key, subkey(key, 1)], dtype=np.uint64)[:, None]
    grid = words_vec(keys, ctrs)
    assert grid.shape == (2, size) and grid.flags.c_contiguous
    assert grid[0].tolist() == want
    assert grid[1].tolist() == [word(subkey(key, 1), c) for c in ctrs.tolist()]


def test_words_vec_on_a_transposed_counter_grid():
    key = SeedSpec(6, "grid").key()
    ctrs = np.arange(3 * (BLOCK_WORDS + 5), dtype=np.uint64).reshape(3, -1).T
    got = words_vec(key, ctrs)
    assert got.shape == ctrs.shape
    assert got.ravel().tolist() == [word(key, c) for c in ctrs.ravel().tolist()]
    counters = ctrs.copy()
    words_vec(key, ctrs)
    assert np.array_equal(ctrs, counters)  # the caller's counters are left alone


@given(
    level=st.integers(0, 63),
    word_index=st.integers(0, 3),
    count=st.sampled_from([0, 1, 2, 3600, 8193]),
)
def test_fused_level_pass_equals_the_counter_pass(level, word_index, count):
    want = rng._counter_pass(node_counters(level, np.arange(count), word_index))
    got = rng._progression_pass(256, 4 * level + word_index, count)
    assert got.dtype == np.uint64 and got.tobytes() == want.tobytes()
    key = SeedSpec(level, "fused").key()
    assert level_words(key, level, count, word_index).tobytes() == words_vec(
        key, node_counters(level, np.arange(count), word_index)
    ).tobytes()


@given(
    level=st.integers(0, 63),
    word_index=st.integers(0, 2),
    start=st.integers(0, 2**40),
    count=st.sampled_from([0, 1, 4, 5, 3600]),
    rows=st.integers(1, 2),
)
def test_level_words_from_a_start_are_the_nodes_counter_words(level, word_index, start, count, rows):
    # A block of a level's words, nodes start..start+count-1, as a streamed
    # class16 trial draws them.
    key = SeedSpec(level, "start").key()
    nodes = start + np.arange(count, dtype=np.uint64)
    want = np.stack([words_vec(key, node_counters(level, nodes, word_index + j)) for j in range(rows)])
    got = level_words(key, level, count, word_index, rows=rows, start=start)
    assert got.tobytes() == (want[0] if rows == 1 else want).tobytes()


def test_memoized_level_pass_is_shared_and_read_only():
    first = rng._progression_pass(256, 21, 3600)
    assert rng._progression_pass(256, 21, 3600) is first
    with pytest.raises(ValueError):
        first[0] = 0
    # A pair-model leaf level of 250,000 nodes (k = 500, d = 2) is kept: its
    # second call is served from the memo.
    big = rng._progression_pass(256, 8, 250_000, 2)
    assert rng._progression_pass(256, 8, 250_000, 2) is big and not big.flags.writeable
    # A pass past the whole budget is built writable and not kept.
    huge = MEMO_BYTES // 8 + 1
    assert rng._progression_pass(2, 1, huge).flags.writeable
    assert rng._progression_pass(2, 1, huge) is not rng._progression_pass(2, 1, huge)


def test_memo_never_exceeds_its_budget():
    memo = rng._ByteLRU(1 << 16)
    for count in [1000, 3000, 5000, 8192, 7, 4000, 8193, 2000]:
        memo.get(("pass", count), lambda: np.zeros(count, dtype=np.uint64))
        assert memo.nbytes == sum(v.nbytes for v in memo.items.values()) <= memo.budget
    assert ("pass", 8193) not in memo.items  # 65,544 bytes: over the budget
    assert list(memo.items) == [("pass", 7), ("pass", 4000), ("pass", 2000)]
    kept = memo.items[("pass", 7)]
    assert memo.get(("pass", 7), None) is kept  # a hit builds nothing and is used last
    memo.get(("pass", 3000), lambda: np.zeros(3000, dtype=np.uint64))
    assert list(memo.items) == [("pass", 2000), ("pass", 7), ("pass", 3000)]
    assert rng._PASSES.budget == MEMO_BYTES
    assert rng._PASSES.nbytes == sum(v.nbytes for v in rng._PASSES.items.values()) <= MEMO_BYTES


@given(level=st.integers(0, 63), count=st.sampled_from([0, 1, 2, 3, 3600]), trials=st.integers(1, 5))
def test_word_pairs_equal_the_two_word_indices(level, count, trials):
    key = SeedSpec(level, "pairs").key()
    want = np.stack([level_words(key, level, count, j) for j in (0, 1)])
    got = level_words(key, level, count, rows=2)
    assert got.shape == (2, count) and got.tobytes() == want.tobytes()
    tkeys = trial_keys(key, trials)
    want = np.stack([trial_level_words(tkeys, level, count, j) for j in (0, 1)])
    got = trial_level_words(tkeys, level, count, rows=2)
    assert got.shape == (2, trials, count) and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("start", [0, 5])
@pytest.mark.parametrize("n", [0, 1, 2049, 8193])
def test_trial_keys_equal_the_subkeys(n, start):
    key = SeedSpec(17, "progression").key()
    want = subkey(key, np.arange(start, start + n))
    got = trial_keys(key, n, start)
    assert got.dtype == np.uint64 and got.tobytes() == want.tobytes()
    assert trial_keys(key, n, start).tobytes() == want.tobytes()  # again, from the memo
    if n:
        assert int(got[-1]) == subkey(key, start + n - 1)


@given(
    step=st.integers(1, 2**64),
    offset=st.integers(0, 2**70),
    count=st.sampled_from([0, 1, 2, 3, 257]),
)
def test_progression_words_equal_words_vec(step, offset, count):
    key = SeedSpec(step % 997, "progression").key()
    counters = [(offset + step * i) % 2**64 for i in range(count)]
    want = words_vec(key, np.array(counters, dtype=np.uint64))
    assert rng.progression_words(key, step, offset, count).tobytes() == want.tobytes()
    assert [int(w) for w in want] == [word(key, c) for c in counters]


def test_root_words_equal_the_node_counter_draw():
    # Words 0 and 1 of node (0, 0), the pair model's root words, are the
    # progression (step 1, offset 0, count 2).
    for seed in range(20):
        key = SeedSpec(seed, "pair/root").key()
        want = words_vec(key, node_counters(0, 0, np.arange(2)))
        assert rng.progression_words(key, 1, 0, 2).tobytes() == want.tobytes()


def test_writes_to_words_leave_the_memoized_pass_alone():
    key = SeedSpec(3, "memo").key()
    tkeys = trial_keys(key, 3)
    want = words_vec(tkeys[:, None], node_counters(2, np.arange(100)))
    words = level_words(key, 2, 100)
    words >>= np.uint64(1)  # callers shift their words in place
    grid = trial_level_words(tkeys, 2, 100)
    grid ^= grid
    buffers = np.empty((2, 300), dtype=np.uint64)
    blocks = [block.copy() for _, block in level_blocks(tkeys, 2, 100, 0, buffers)]
    assert np.concatenate(blocks).tobytes() == want.tobytes()
    assert trial_level_words(tkeys, 2, 100).tobytes() == want.tobytes()


# Keys at the edges of the fold key ^ (key >> 30), and two drawn ones.
EDGE_KEYS = [0, 1, 1 << 63, (1 << 64) - 1, SeedSpec(1, "edge").key(), SeedSpec(2, "edge").key()]
TINY = rng._TINY_WORDS


@pytest.mark.parametrize("size", [0, 1, 2, TINY, TINY + 1, BLOCK_WORDS - 1, BLOCK_WORDS + 1])
def test_keyed_passes_equal_the_scalar_word(size):
    # Every vector path folds its keys and runs the short keyed pass, or the
    # tiny int-key path; each must equal `word` under int keys and (n, 1)
    # key arrays alike.
    level, word_index = 5, 2
    counters = node_counters(level, np.arange(size), word_index)
    want = np.array(
        [[word(key, c) for c in counters.tolist()] for key in EDGE_KEYS], dtype=np.uint64
    ).reshape(len(EDGE_KEYS), size)
    keys = np.array(EDGE_KEYS, dtype=np.uint64)
    for key, row in zip(EDGE_KEYS, want):
        assert words_vec(key, counters).tobytes() == row.tobytes()
        assert rng.progression_words(key, 256, 4 * level + word_index, size).tobytes() == row.tobytes()
        assert level_words(key, level, size, word_index).tobytes() == row.tobytes()
        sub = [subkey(key, i) for i in range(size)]
        assert subkey(key, np.arange(size)).tolist() == sub
        assert trial_keys(key, size).tolist() == sub
    assert words_vec(keys[:, None], counters).tobytes() == want.tobytes()
    assert trial_level_words(keys, level, size, word_index).tobytes() == want.tobytes()
    buffers = np.empty((2, max(1, min(BLOCK_WORDS, want.size))), dtype=np.uint64)
    blocks = [(start, block.copy()) for start, block in level_blocks(keys, level, size, word_index, buffers)]
    assert [start for start, _ in blocks] == sorted(start for start, _ in blocks)
    flat = np.concatenate([np.zeros(0, dtype=np.uint64), *(block for _, block in blocks)])
    assert flat.tobytes() == want.tobytes()


def test_tiny_keyed_passes_return_fresh_writeable_arrays():
    key = SeedSpec(4, "tiny").key()
    counters = np.arange(TINY, dtype=np.uint64).reshape(2, -1)
    grid = words_vec(key, counters)
    assert grid.dtype == np.uint64 and grid.shape == counters.shape and grid.flags.writeable
    assert grid.ravel().tolist() == [word(key, c) for c in range(TINY)]
    assert words_vec(key, np.uint64(7)).shape == () and int(words_vec(key, np.uint64(7))) == word(key, 7)
    a, b = rng.progression_words(key, 1, 0, 2), rng.progression_words(key, 1, 0, 2)
    assert a.flags.writeable and not np.shares_memory(a, b)
    a ^= a
    assert b.tolist() == [word(key, 0), word(key, 1)] and not a.any()
    assert not np.shares_memory(grid, counters) and counters.ravel().tolist() == list(range(TINY))
