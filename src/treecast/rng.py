"""Counter-based deterministic randomness.

Every word drawn here is a pure function of a 64-bit master seed, a short
stream tag naming the consumer ("gen", "tie", "noise", ...), and a counter
(a tree node address, or a global Monte Carlo trial index).  There is no
sequential state: the bits drawn for a node or a trial do not depend on how
many others were drawn first, so generation is order-independent and safe to
parallelize.  A few Monte Carlo samplers (the ones-count chain, the class16
sampler and the gadget corpus) still run sequential PCG64 streams seeded
with a stream key; they are reproducible from the seed too, but each draw
depends on those before it in its stream.

The word function is a double application of the splitmix64 avalanche
finalizer: one pass decorrelates the counter, an xor folds in the stream key,
and a second pass decorrelates streams.  This is not cryptographic, but its
statistical quality is far beyond what the Monte Carlo tolerances here need,
and it vectorizes cleanly in numpy (the scalar and vector paths are verified
bit-identical in the test suite).
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


def _fin_vec(z: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
            z = (z ^ (z >> np.uint64(shift))) * np.uint64(mult)
        return z ^ (z >> np.uint64(31))


def words_vec(key: int | np.ndarray, counters: np.ndarray) -> np.ndarray:
    """Vectorized `word`; `key` may be an array that broadcasts against `counters`."""
    with np.errstate(over="ignore"):
        z = counters.astype(np.uint64, copy=True)
        z = z * np.uint64(_C1) + np.uint64(_C2)
        return _fin_vec(_fin_vec(z) ^ np.asarray(key, dtype=np.uint64))


def trial_keys(key: int, trials: int, start: int = 0) -> np.ndarray:
    """Derived keys of trials start..start+trials-1 (the vector form of `subkey`)."""
    idx = np.arange(start, start + trials, dtype=np.uint64)
    return words_vec(key, (idx << np.uint64(1)) | np.uint64(1))


def trial_level_words(tkeys: np.ndarray, level: int, count: int, word_index: int = 0) -> np.ndarray:
    """Per-(trial, node) words, shape (len(tkeys), count).

    Trials are separated by their derived keys rather than by counter bits,
    so no trial count can wrap the counter space into reuse.
    """
    idx = np.arange(count, dtype=np.uint64)
    with np.errstate(over="ignore"):
        ctr = (idx * np.uint64(64) + np.uint64(level)) * np.uint64(4) + np.uint64(word_index)
        inner = _fin_vec(ctr * np.uint64(_C1) + np.uint64(_C2))
        return _fin_vec(inner[None, :] ^ tkeys[:, None])


def subkey(key: int, index: int) -> int:
    """Independent-behaving child key, e.g. one per Monte Carlo trial."""
    return word(key, (index << 1) | 1)


def node_counter(level: int, index: int, word_index: int = 0) -> int:
    """Counter for one node address.

    Injective in (level, index, word_index) for level < 64 and word_index < 4,
    and independent of the tree arity, so the bits at an address are a pure
    function of (seed, tag, address) as the reproducibility contract requires.
    """
    if not 0 <= word_index < 4:
        raise ValueError("word_index must be in [0, 4)")
    if level < 0 or level >= 64:
        raise ValueError(f"level must be in [0, 64), got {level}")
    return (index * 64 + level) * 4 + word_index


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
    idx = np.arange(count, dtype=np.uint64)
    with np.errstate(over="ignore"):
        ctr = (idx * np.uint64(64) + np.uint64(level)) * np.uint64(4) + np.uint64(word_index)
    return words_vec(key, ctr)


def bits_from_word(w: int, nbits: int) -> list[int]:
    """Leading `nbits` of a 64-bit word, most significant first."""
    if not 0 < nbits <= 64:
        raise ValueError("nbits must be in [1, 64]")
    return [(w >> (63 - i)) & 1 for i in range(nbits)]
