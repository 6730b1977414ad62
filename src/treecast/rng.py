"""Counter-based deterministic randomness.

Every word drawn here is a pure function of a 64-bit master seed, a short
stream tag naming the consumer ("gen", "tie", "noise", ...), and a counter
(a tree node address, or a global Monte Carlo trial index).  There is no
sequential state: the bits drawn for a node or a trial do not depend on how
many others were drawn first, so generation is order-independent and safe to
parallelize; blake2b only derives a stream's key (`stream_key`).  Every
sampler in the package draws from these words, and nothing else.

The word function is a double application of the splitmix64 avalanche
finalizer: one pass decorrelates the counter, an xor folds in the stream key,
and a second pass decorrelates streams.  This is not cryptographic, but its
statistical quality is far beyond what the Monte Carlo tolerances here need,
and it vectorizes cleanly in numpy (the scalar and vector paths are verified
bit-identical in the test suite).

The finalizer opens with the xorshift z ^= z >> 30, which is linear over
GF(2): fold(a ^ key) = fold(a) ^ fold(key).  So the vector paths move the
second pass's fold out of the keyed work, bit for bit: the first pass stores
fold(fin(counter)), each call folds its int key or array of trial keys once,
and the keyed pass runs only the rest of the finalizer (multiply, xorshift
27, multiply, xorshift 31) after the key xor: six array passes where the
whole finalizer takes eight.  A pass over at most _TINY_WORDS words under an
int key skips numpy and runs `word` on Python ints instead.

`words_vec` allocates only its output and one scratch block.  The first
pass runs on a copy of the counters alone; the key xor writes the output
array, and the keyed pass runs in place over it, BLOCK_WORDS words at a
time, so each block stays in cache through its operations.  `level_blocks`
streams the same (trial, node) words one block at a time through two
buffers its caller reuses, so no level's word array is ever built.  A word
is a pure function of (key, counter), so the blocking cannot change one.
`channels` alone turns the raw words into draws.

The first pass does not depend on the key, and every counter run drawn here
is a progression offset + step * i (a level's nodes: 256, 4 * level +
word_index; trial keys: 2, 2 * start + 1), so all share `_progression_pass`:
one `arange` times step * C1 plus a constant per row, no counter array.
Rows are consecutive offsets, so a level's words 0 and 1 are one (2, count)
pass and one keyed pass (`level_words` and `trial_level_words` at rows = 2).
Each pass is kept as a read-only array in an LRU of at most MEMO_BYTES in
all, reused by every key that hashes it.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from hashlib import blake2b

import numpy as np

_M64 = (1 << 64) - 1
_C1 = 0x9E3779B97F4A7C15  # golden-ratio increment, odd
_C2 = 0xD1B54A32D192ED03  # second stream constant, odd


@dataclass(frozen=True)
class SeedSpec:
    """A master seed plus a stream tag naming the consumer of the bits."""

    master_seed: int
    stream_tag: str

    def __post_init__(self) -> None:
        if not 0 <= self.master_seed < (1 << 64):
            raise ValueError(f"master_seed must be a 64-bit integer, got {self.master_seed}")

    def key(self) -> int:
        return stream_key(self.master_seed, self.stream_tag)


@lru_cache(maxsize=4096)
def stream_key(master_seed: int, stream_tag: str) -> int:
    """Derive the 64-bit key for one (seed, tag) stream."""
    h = blake2b(
        stream_tag.encode("utf-8"),
        digest_size=8,
        key=(master_seed & _M64).to_bytes(8, "little"),
    )
    return int.from_bytes(h.digest(), "little")


def _fin(z: int) -> int:
    """splitmix64 finalizer on a masked Python int."""
    z &= _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def word(key: int, counter: int) -> int:
    """One uniform 64-bit word for (key, counter)."""
    return _fin(_fin((counter * _C1 + _C2) & _M64) ^ key)


# Words per block of the in-place passes: two uint64 blocks (the words and
# one scratch buffer) stay within a typical L2 cache.
BLOCK_WORDS = 1 << 15
# Int-key passes over at most this many words run `word` on Python ints,
# which costs less than the numpy calls of one keyed pass.
_TINY_WORDS = 4
_MULT_1, _MULT_2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_S27, _S30, _S31 = np.uint64(27), np.uint64(30), np.uint64(31)
_UC1, _UC2 = np.uint64(_C1), np.uint64(_C2)


def _fin_inplace(z: np.ndarray, scratch: np.ndarray | None = None, first: bool = False) -> np.ndarray:
    """The finalizer after its fold, over a fresh C-contiguous uint64 array,
    in place: multiply, xorshift 27, multiply, xorshift 31, the six array
    passes of the keyed pass on folded words.  With `first` it runs the whole
    first pass instead: the fold, those steps, and the fold of the result.
    One BLOCK_WORDS block at a time through one scratch buffer (`scratch`,
    else a new one).  Integer array arithmetic wraps modulo 2^64 without a
    warning."""
    flat = z.reshape(-1)
    if scratch is None:
        scratch = np.empty(min(flat.size, BLOCK_WORDS), dtype=np.uint64)
    for start in range(0, flat.size, BLOCK_WORDS):
        block = flat[start : start + BLOCK_WORDS]
        tmp = scratch[: block.size]
        if first:
            np.right_shift(block, _S30, out=tmp)
            block ^= tmp
        block *= _MULT_1
        np.right_shift(block, _S27, out=tmp)
        block ^= tmp
        block *= _MULT_2
        np.right_shift(block, _S31, out=tmp)
        block ^= tmp
        if first:
            np.right_shift(block, _S30, out=tmp)
            block ^= tmp
    return z


def _counter_pass(counters) -> np.ndarray:
    """The first pass, fold(fin(counter)), on a fresh copy of the counters."""
    z = np.array(counters, dtype=np.uint64, order="C")
    z *= _UC1
    z += _UC2
    return _fin_inplace(z, first=True)


# The first passes of progressions are kept while they fit in MEMO_BYTES:
# a pair model level of 250,000 nodes takes 4 MB of it.
MEMO_BYTES = 16 << 20


class _ByteLRU:
    """An LRU of read-only arrays of at most `budget` bytes in all.  An
    array larger than the budget is returned writable and not kept."""

    def __init__(self, budget: int) -> None:
        self.budget, self.nbytes = budget, 0
        self.items: OrderedDict[tuple, np.ndarray] = OrderedDict()

    def get(self, key: tuple, build) -> np.ndarray:
        value = self.items.get(key)
        if value is not None:
            self.items.move_to_end(key)
            return value
        value = build()
        if value.nbytes <= self.budget:
            while self.nbytes + value.nbytes > self.budget:
                self.nbytes -= self.items.popitem(last=False)[1].nbytes
            value.setflags(write=False)
            self.items[key] = value
            self.nbytes += value.nbytes
        return value


_PASSES = _ByteLRU(MEMO_BYTES)


def _fused_pass(step: int, offset: int, count: int, rows: int) -> np.ndarray:
    starts = np.array([((offset + r) * _C1 + _C2) & _M64 for r in range(rows)], dtype=np.uint64)
    z = np.add.outer(starts, np.arange(count, dtype=np.uint64) * np.uint64((step * _C1) & _M64))
    return _fin_inplace(z if rows > 1 else z.reshape(-1), first=True)


def _progression_pass(step: int, offset: int, count: int, rows: int = 1) -> np.ndarray:
    """`_counter_pass(offset + r + step * np.arange(count))` in row r < rows,
    shape (count,) at rows = 1 and (rows, count) past it, from one `arange`:
    (offset + r + step * i) * C1 + C2 is i * (step * C1) + ((offset + r) * C1
    + C2) modulo 2^64.  Read-only and shared while it fits the memo."""
    return _PASSES.get((step, offset, count, rows), lambda: _fused_pass(step, offset, count, rows))


def _folded_keys(key: int | np.ndarray) -> np.uint64 | np.ndarray:
    """key ^ (key >> 30) of an int key, or of each key of a uint64 array."""
    if isinstance(key, np.ndarray):
        key = key.astype(np.uint64, copy=False)
        return key ^ (key >> _S30)
    key = int(key) & _M64
    return np.uint64(key ^ (key >> 30))


def _keyed_pass(key: int | np.ndarray, first: np.ndarray) -> np.ndarray:
    """The folded key xor into a fresh output array, then the rest of the
    second pass in place."""
    return _fin_inplace(np.bitwise_xor(first, _folded_keys(key), order="C"))


def _tiny_words(key: int, counters: list[int]) -> np.ndarray:
    """`word(key, c)` for each counter, on Python ints, as a fresh uint64 array."""
    return np.array([word(key, c) for c in counters], dtype=np.uint64)


def words_vec(key: int | np.ndarray, counters: np.ndarray) -> np.ndarray:
    """Vectorized `word`; `key` may be an array that broadcasts against `counters`.

    The first pass runs on the counters alone; the folded key xor writes the
    one output array, and the keyed pass runs on it in place.
    """
    if np.ndim(key) == 0 and np.size(counters) <= _TINY_WORDS:
        counters = np.asarray(counters, dtype=np.uint64)
        return _tiny_words(int(key), counters.ravel().tolist()).reshape(counters.shape)
    return _keyed_pass(key, _counter_pass(counters))


def trial_keys(key: int, trials: int, start: int = 0) -> np.ndarray:
    """Derived keys of trials start..start+trials-1 (`subkey`), as uint64."""
    return progression_words(key, 2, 2 * start + 1, trials)


def progression_words(key: int, step: int, offset: int, count: int) -> np.ndarray:
    """`words_vec(key, offset + step * np.arange(count))` from the shared pass."""
    if count <= _TINY_WORDS:
        return _tiny_words(int(key), [offset + step * i for i in range(count)])
    return _keyed_pass(key, _progression_pass(step, offset, count))


def trial_level_words(tkeys: np.ndarray, level: int, count: int, word_index: int = 0, rows: int = 1) -> np.ndarray:
    """Per-(trial, node) words, shape (len(tkeys), count); past rows = 1,
    word word_index + j in row j of a (rows, len(tkeys), count) array, from
    one keyed pass.

    Trials are separated by their derived keys rather than by counter bits,
    so no trial count can wrap the counter space into reuse.
    """
    first = _progression_pass(256, 4 * level + word_index, count, rows)
    return _keyed_pass(tkeys[:, None], first[:, None] if rows > 1 else first)


def level_blocks(tkeys: np.ndarray, level: int, count: int, word_index: int, buffers: np.ndarray):
    """Yield (start, block) over `trial_level_words(tkeys, level, count,
    word_index)` flattened: blocks of whole rows, or of one wide row, of at
    most BLOCK_WORDS words, `start` the flat index of the first.  The first
    pass is the level's shared one (`_progression_pass`), the keys are folded
    once per call; the key xor and keyed pass write each block into
    `buffers[0]` (scratch `buffers[1]`), a (2, >= min(BLOCK_WORDS, len(tkeys)
    * count)) uint64 array the caller reuses across levels.  An empty level
    yields nothing."""
    first = _progression_pass(256, 4 * level + word_index, count)
    tkeys = _folded_keys(tkeys)
    width = max(1, min(count, BLOCK_WORDS))
    rows = BLOCK_WORDS // width
    for r0 in range(0, len(tkeys), rows):
        keys = tkeys[r0 : r0 + rows, None]
        for c0 in range(0, count, width):
            cols = first[c0 : c0 + width]
            block = buffers[0, : len(keys) * len(cols)]
            np.bitwise_xor(keys, cols, out=block.reshape(len(keys), len(cols)))
            yield r0 * count + c0, _fin_inplace(block, buffers[1])


def subkey(key: int, index):
    """Independent-behaving child key, e.g. one per Monte Carlo trial.

    `index` is an int (the key is an int) or an integer array (the keys are
    a uint64 array of its shape, elementwise equal to the scalar form).
    """
    if np.ndim(index) == 0:
        return word(key, (int(index) << 1) | 1)
    idx = np.asarray(index).astype(np.uint64)
    return words_vec(key, (idx << np.uint64(1)) | np.uint64(1))


def node_counters(level: int, index, word_index: int = 0) -> np.ndarray:
    """Counters of the nodes `index` (an int or an array) of one level, as uint64.

    (index * 64 + level) * 4 + word_index: injective in (level, index,
    word_index) for level < 64 and word_index < 4, and independent of the
    tree arity, so the bits at an address are a pure function of (seed, tag,
    address) as the reproducibility contract requires.

    The level has six bits, which is why `trees.MAX_DEPTH` is 64: past it a
    level would wrap into the index bits and reuse another node's counter.
    The ones-count chain draws levels 0..d-1 < 64; the samplers also draw a
    depth-64 tree's leaf level, whose counters are those of level 0 at index
    >= 1, addresses no tree has.
    """
    with np.errstate(over="ignore"):
        idx = np.asarray(index, dtype=np.uint64)
        return (idx * np.uint64(64) + np.uint64(level)) * np.uint64(4) + np.uint64(word_index)


def node_counter(level: int, index: int, word_index: int = 0) -> int:
    """Counter for one node address (see `node_counters`), range-checked."""
    if not 0 <= word_index < 4:
        raise ValueError("word_index must be in [0, 4)")
    if level < 0 or level >= 64:
        raise ValueError(f"level must be in [0, 64), got {level}")
    return int(node_counters(level, index, word_index))


def level_words(
    key: int, level: int, count: int, word_index: int = 0, rows: int = 1, start: int = 0
) -> np.ndarray:
    """Uniform words for nodes start..start+count-1 of one level, in index
    order; past rows = 1, word word_index + j in row j of a (rows, count)
    array, from one keyed pass."""
    offset = 256 * start + 4 * level + word_index  # `node_counters(level, start, word_index)`
    if rows == 1:
        return progression_words(key, 256, offset, count)
    return _keyed_pass(key, _progression_pass(256, offset, count, rows))


def bits_from_word(w: int, nbits: int) -> list[int]:
    """Leading `nbits` of a 64-bit word, most significant first."""
    if not 0 < nbits <= 64:
        raise ValueError("nbits must be in [1, 64]")
    return [(w >> (63 - i)) & 1 for i in range(nbits)]
