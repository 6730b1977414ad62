"""Per-level label arrays and their serialization.

A LabelArray holds one realization of a broadcast process: for each level l
in [0, d], an array of k^l label codes.  Codes are 8-bit for m <= 256 and
16-bit otherwise.  Two on-disk formats are supported: a JSON document with
levels as plain integer arrays, and a compact binary dump (magic "BCAST1",
then k, d, m as 32-bit little-endian, then the level arrays concatenated in
level order, little-endian).
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from .trees import TreeShape

_MAGIC = b"BCAST1"


def code_dtype(m: int):
    if m < 1:
        raise ValueError("label count m must be >= 1")
    if m <= 256:
        return np.uint8
    if m <= 65536:
        return np.uint16
    raise ValueError(f"label count {m} exceeds the 16-bit code limit")


@dataclass
class LabelArray:
    shape: TreeShape
    m: int
    levels: list[np.ndarray]

    def __post_init__(self) -> None:
        if len(self.levels) != self.shape.d + 1:
            raise ValueError(
                f"expected {self.shape.d + 1} levels, got {len(self.levels)}"
            )
        dtype = code_dtype(self.m)
        for lvl, arr in enumerate(self.levels):
            if len(arr) != self.shape.nodes_at(lvl):
                raise ValueError(
                    f"level {lvl} has {len(arr)} codes, expected {self.shape.nodes_at(lvl)}"
                )
            if arr.dtype != dtype:
                self.levels[lvl] = arr.astype(dtype)
            if len(arr) and int(arr.max()) >= self.m:
                raise ValueError(f"level {lvl} contains a code >= m = {self.m}")

    @property
    def root(self) -> int:
        return int(self.levels[0][0])

    @property
    def leaves(self) -> np.ndarray:
        return self.levels[-1]

    def to_json(self) -> str:
        doc = {
            "k": self.shape.k,
            "d": self.shape.d,
            "m": self.m,
            "levels": [arr.tolist() for arr in self.levels],
        }
        return json.dumps(doc, separators=(",", ":"), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "LabelArray":
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("label dump JSON must be an object with keys k, d, m and levels")
        try:
            k, d, m, codes_by_level = doc["k"], doc["d"], doc["m"], doc["levels"]
        except KeyError as exc:
            raise ValueError(f"label dump JSON lacks the key {exc}") from None
        if any(type(x) is not int for x in (k, d, m)):
            raise ValueError("label dump k, d and m must be JSON integers")
        if not isinstance(codes_by_level, list):
            raise ValueError("label dump levels must be a JSON list of levels")
        shape = TreeShape(k=k, d=d)
        dtype = code_dtype(m)
        levels = []
        for lvl, codes in enumerate(codes_by_level):
            arr = np.asarray(codes)
            # Check before the cast: a narrowing cast of an out-of-range code overflows.
            if arr.size and (
                arr.ndim != 1 or arr.dtype.kind not in "iu" or arr.min() < 0 or arr.max() >= m
            ):
                raise ValueError(f"level {lvl} must be a list of integer codes in [0, {m})")
            levels.append(arr.astype(dtype))
        return cls(shape=shape, m=m, levels=levels)

    def to_bytes(self) -> bytes:
        head = _MAGIC + struct.pack("<III", self.shape.k, self.shape.d, self.m)
        body = b"".join(arr.astype(arr.dtype.newbyteorder("<")).tobytes() for arr in self.levels)
        return head + body

    @classmethod
    def from_bytes(cls, blob: bytes) -> "LabelArray":
        offset = len(_MAGIC) + 12
        if blob[: len(_MAGIC)] != _MAGIC:
            raise ValueError("not a BCAST1 dump (bad magic)")
        if len(blob) < offset:
            raise ValueError(f"BCAST1 dump has {len(blob)} bytes, fewer than its {offset}-byte header")
        k, d, m = struct.unpack_from("<III", blob, len(_MAGIC))
        shape = TreeShape(k=k, d=d)
        dtype = np.dtype(code_dtype(m)).newbyteorder("<")
        levels = []
        for lvl in range(d + 1):
            count = shape.nodes_at(lvl)
            arr = np.frombuffer(blob, dtype=dtype, count=count, offset=offset)
            offset += count * dtype.itemsize
            levels.append(arr.astype(code_dtype(m)))
        if offset != len(blob):
            raise ValueError(f"dump has {len(blob) - offset} trailing bytes")
        return cls(shape=shape, m=m, levels=levels)
