import json

import numpy as np
import pytest

from treecast.labels import LabelArray, code_dtype
from treecast.trees import TreeShape


def _demo(m=2):
    shape = TreeShape(k=2, d=2)
    dtype = code_dtype(m)
    levels = [
        np.array([1], dtype=dtype),
        np.array([0, 1], dtype=dtype),
        np.array([0, 1, 1, 0], dtype=dtype),
    ]
    return LabelArray(shape=shape, m=m, levels=levels)


def test_code_dtype_rule():
    assert code_dtype(2) == np.uint8
    assert code_dtype(256) == np.uint8
    assert code_dtype(257) == np.uint16
    assert code_dtype(3600) == np.uint16
    with pytest.raises(ValueError):
        code_dtype(70000)


def test_json_roundtrip():
    arr = _demo()
    back = LabelArray.from_json(arr.to_json())
    assert back.shape == arr.shape and back.m == arr.m
    for a, b in zip(arr.levels, back.levels):
        assert np.array_equal(a, b)
    assert arr.to_json() == back.to_json()


def test_binary_roundtrip_and_magic():
    arr = _demo(m=3600)
    blob = arr.to_bytes()
    assert blob.startswith(b"BCAST1")
    back = LabelArray.from_bytes(blob)
    assert back.m == 3600
    for a, b in zip(arr.levels, back.levels):
        assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        LabelArray.from_bytes(b"NOPE" + blob)
    with pytest.raises(ValueError):
        LabelArray.from_bytes(blob + b"\x00")


def test_code_range_enforced():
    shape = TreeShape(k=2, d=1)
    with pytest.raises(ValueError):
        LabelArray(
            shape=shape,
            m=2,
            levels=[np.array([1], dtype=np.uint8), np.array([2, 0], dtype=np.uint8)],
        )


def test_level_count_enforced():
    shape = TreeShape(k=2, d=1)
    with pytest.raises(ValueError):
        LabelArray(shape=shape, m=2, levels=[np.array([1], dtype=np.uint8)])


@pytest.mark.parametrize("codes", [[0, -1], [0, 2], [0, 300], [0, 2**70], [0, 1.5], [[0], [1]]])
def test_from_json_range_checks_before_cast(codes):
    doc = {"k": 2, "d": 1, "m": 2, "levels": [[1], codes]}
    with pytest.raises(ValueError, match=r"level 1 must be a list of integer codes in \[0, 2\)"):
        LabelArray.from_json(json.dumps(doc))
