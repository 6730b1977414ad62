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

`words_vec` allocates only its output and one scratch block.  The first
finalizer pass runs on a copy of the counters alone; the key xor writes the
output array, and the second pass runs in place over it, BLOCK_WORDS words
at a time, so each block stays in cache through the pass's eight
operations.  `level_blocks` streams the same (trial, node) words one block
at a time through two buffers its caller reuses, so no level's word array
is ever built.  A word is a pure function of (key, counter), so the blocking
cannot change one.  `channels` alone turns the raw words into draws.

The first pass does not depend on the key, and every counter run drawn here
is a progression offset + step * i (a level's nodes: 256, 4 * level +
word_index; trial keys: 2, 2 * start + 1; a root's two words: 1, 0), so all
share `_progression_pass`: one `arange` times step * C1 plus a constant, no
counter array, and a run of at most MEMO_WORDS counters keeps its pass in a
small LRU as a read-only array, reused by every key that hashes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from hashlib import blake2b

import numpy as np

_M64 = (1 << 64) - 1
_C1 = 0x9E3779B97F4A7C15  # golden-ratio increment, odd
_C2 = 0xD1B54A32D192ED03  # second stream constant, odd

MAX_WIDTH = 256


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


# Words per block of the in-place second pass: two uint64 blocks (the words
# and one scratch buffer) stay within a typical L2 cache.
BLOCK_WORDS = 1 << 15
_FIN_STEPS = tuple(
    (np.uint64(shift), np.uint64(mult))
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB))
)
_FIN_LAST = np.uint64(31)
_UC1, _UC2 = np.uint64(_C1), np.uint64(_C2)


def _fin_inplace(z: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """splitmix64 finalizer over a fresh C-contiguous uint64 array, in place,
    one BLOCK_WORDS block at a time through one scratch buffer (`scratch`,
    else a new one).  Integer array arithmetic wraps modulo 2^64 without a
    warning."""
    flat = z.reshape(-1)
    if scratch is None:
        scratch = np.empty(min(flat.size, BLOCK_WORDS), dtype=np.uint64)
    for start in range(0, flat.size, BLOCK_WORDS):
        block = flat[start : start + BLOCK_WORDS]
        tmp = scratch[: block.size]
        for shift, mult in _FIN_STEPS:
            np.right_shift(block, shift, out=tmp)
            block ^= tmp
            block *= mult
        np.right_shift(block, _FIN_LAST, out=tmp)
        block ^= tmp
    return z


def _counter_pass(counters) -> np.ndarray:
    """The first finalizer pass, on a fresh copy of the counters."""
    z = np.array(counters, dtype=np.uint64, order="C")
    z *= _UC1
    z += _UC2
    return _fin_inplace(z)


# Progressions of at most MEMO_WORDS counters keep their first pass in an
# LRU of MEMO_LEVELS entries: at most 2 MiB of uint64.
MEMO_WORDS = 8192
MEMO_LEVELS = 32


def _fused_pass(step: int, offset: int, count: int) -> np.ndarray:
    z = np.arange(count, dtype=np.uint64)
    z *= np.uint64((step * _C1) & _M64)
    z += np.uint64((offset * _C1 + _C2) & _M64)
    return _fin_inplace(z)


@lru_cache(maxsize=MEMO_LEVELS)
def _memo_progression_pass(step: int, offset: int, count: int) -> np.ndarray:
    z = _fused_pass(step, offset, count)
    z.setflags(write=False)
    return z


def _progression_pass(step: int, offset: int, count: int) -> np.ndarray:
    """`_counter_pass(offset + step * np.arange(count))` from one `arange`:
    (offset + step * i) * C1 + C2 is i * (step * C1) + (offset * C1 + C2)
    modulo 2^64.  Read-only and shared when count <= MEMO_WORDS."""
    if count <= MEMO_WORDS:
        return _memo_progression_pass(step, offset, count)
    return _fused_pass(step, offset, count)


def _second_pass(key: int | np.ndarray, first: np.ndarray) -> np.ndarray:
    """The key xor into a fresh output array, then the second pass in place."""
    return _fin_inplace(np.bitwise_xor(first, np.asarray(key, dtype=np.uint64), order="C"))


def words_vec(key: int | np.ndarray, counters: np.ndarray) -> np.ndarray:
    """Vectorized `word`; `key` may be an array that broadcasts against `counters`.

    The first finalizer pass runs on the counters alone; the key xor writes
    the one output array, and the second pass runs on it in place.
    """
    return _second_pass(key, _counter_pass(counters))


def trial_keys(key: int, trials: int, start: int = 0) -> np.ndarray:
    """Derived keys of trials start..start+trials-1 (`subkey`), as uint64."""
    return progression_words(key, 2, 2 * start + 1, trials)


def progression_words(key: int, step: int, offset: int, count: int) -> np.ndarray:
    """`words_vec(key, offset + step * np.arange(count))` from the shared pass."""
    return _second_pass(key, _progression_pass(step, offset, count))


def trial_level_words(tkeys: np.ndarray, level: int, count: int, word_index: int = 0) -> np.ndarray:
    """Per-(trial, node) words, shape (len(tkeys), count).

    Trials are separated by their derived keys rather than by counter bits,
    so no trial count can wrap the counter space into reuse.
    """
    return _second_pass(tkeys[:, None], _progression_pass(256, 4 * level + word_index, count))


def level_blocks(tkeys: np.ndarray, level: int, count: int, word_index: int, buffers: np.ndarray):
    """Yield (start, block) over `trial_level_words(tkeys, level, count,
    word_index)` flattened: blocks of whole rows, or of one wide row, of at
    most BLOCK_WORDS words, `start` the flat index of the first.  The first
    pass is the level's shared one (`_progression_pass`); the key xor and second
    pass write each block into `buffers[0]` (scratch `buffers[1]`), a (2, >=
    min(BLOCK_WORDS, len(tkeys) * count)) uint64 array the caller reuses
    across levels."""
    first = _progression_pass(256, 4 * level + word_index, count)
    rows, width = max(1, BLOCK_WORDS // count), min(count, BLOCK_WORDS)
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


def node_randomness(seed: SeedSpec, addr, width: int) -> int:
    """`width` uniform bits for one node address, as a nonnegative int.

    `addr` is anything with `level` and `index` attributes (a NodeAddr) or a
    (level, index) pair.  Deterministic in (seed, address, width); the first
    64 bits are `word(seed.key(), node_counter(level, index))`, so scalar
    callers and the vectorized generators consume the same bit stream.
    """
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    if width > MAX_WIDTH:
        raise ValueError(f"width {width} exceeds the {MAX_WIDTH}-bit limit")
    level, index = _addr_parts(addr)
    key = seed.key()
    out = 0
    nwords = (width + 63) // 64
    for j in range(nwords):
        out |= word(key, node_counter(level, index, j)) << (64 * j)
    return out & ((1 << width) - 1)


def _addr_parts(addr) -> tuple[int, int]:
    if hasattr(addr, "level") and hasattr(addr, "index"):
        return int(addr.level), int(addr.index)
    level, index = addr
    return int(level), int(index)


def level_words(key: int, level: int, count: int, word_index: int = 0) -> np.ndarray:
    """Uniform words for all `count` nodes of one level, in index order."""
    return progression_words(key, 256, 4 * level + word_index, count)


def bits_from_word(w: int, nbits: int) -> list[int]:
    """Leading `nbits` of a 64-bit word, most significant first."""
    if not 0 < nbits <= 64:
        raise ValueError("nbits must be in [1, 64]")
    return [(w >> (63 - i)) & 1 for i in range(nbits)]
