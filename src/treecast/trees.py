"""Regular k-ary tree shapes and level-order node addressing.

Nodes are addressed by (level, index) with index in [0, k^level).  The parent
of (level, i) is (level-1, i // k) and its children are (level+1, i*k + j) for
j in [0, k), which is the order of the level arrays everywhere; all node
counts are exact integers (no floating point anywhere).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TreeShape:
    """Arity k and depth d; the leaf count n = k^d is derived exactly."""

    k: int
    d: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"arity k must be >= 1, got {self.k}")
        if self.d < 0:
            raise ValueError(f"depth d must be >= 0, got {self.d}")

    @property
    def n(self) -> int:
        """Leaf count k^d."""
        return self.nodes_at(self.d)

    def nodes_at(self, level: int) -> int:
        if not 0 <= level <= self.d:
            raise ValueError(f"level {level} outside [0, {self.d}]")
        out = 1
        for _ in range(level):
            out *= self.k
        return out

    @property
    def total_nodes(self) -> int:
        return sum(self.nodes_at(level) for level in range(self.d + 1))


@dataclass(frozen=True)
class NodeAddr:
    level: int
    index: int

    def __post_init__(self) -> None:
        if self.level < 0:
            raise ValueError(f"level must be >= 0, got {self.level}")
        if self.index < 0:
            raise ValueError(f"index must be >= 0, got {self.index}")

    def validate(self, shape: TreeShape) -> None:
        if self.level > shape.d:
            raise ValueError(f"level {self.level} exceeds tree depth {shape.d}")
        if self.index >= shape.nodes_at(self.level):
            raise ValueError(
                f"index {self.index} out of range at level {self.level} "
                f"(level has {shape.nodes_at(self.level)} nodes)"
            )
