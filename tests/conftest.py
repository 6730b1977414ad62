import hypothesis
import numpy as np
import pytest

hypothesis.settings.register_profile(
    "ci", derandomize=True, max_examples=60, deadline=None
)
hypothesis.settings.load_profile("ci")


def _subtree_codes(leaves, k, h):
    """Height-h codes of (trials, n) leaves in the layout of the sampler's
    codes (`generators.code_law`): the children's ones count at height 1,
    then mixed radix, child 0 first."""
    if h == 0:
        return leaves.astype(np.int64)
    trials = len(leaves)
    codes = leaves.reshape(trials, -1, k).sum(axis=2, dtype=np.int64)
    radix = k + 1
    for _ in range(1, h):
        codes = codes.reshape(trials, -1, k) @ (radix ** np.arange(k - 1, -1, -1, dtype=np.int64))
        radix **= k
    return codes


@pytest.fixture
def subtree_codes():
    return _subtree_codes


def _raw_words(w63, seed=0):
    """Raw 64-bit counter words whose 63-bit value w >> 1, the one
    `CutTables.draw` reads, is w63: each shifted left one bit, with a random
    low bit that the draw must ignore."""
    w63 = np.asarray(w63, dtype=np.uint64)
    low = np.random.default_rng(seed).integers(0, 2, w63.shape, dtype=np.uint64)
    return (w63 << np.uint64(1)) | low


@pytest.fixture(scope="session")
def raw_words():
    return _raw_words
