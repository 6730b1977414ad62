"""Regular k-ary tree shapes and level-order node addressing.

Nodes are addressed by (level, index) with index in [0, k^level).  The parent
of (level, i) is (level-1, i // k) and its children are (level+1, i*k + j) for
j in [0, k), which is the order of the level arrays everywhere; all node
counts are exact integers (no floating point anywhere).
"""

from __future__ import annotations

from dataclasses import dataclass

# Node limit of every tree: admits the 16-label k=6000, d=2 tree (36M nodes);
# a binary tree peaks near 24 bytes/node in the generators, so ~1.6 GB here.
MAX_TREE_NODES = 1 << 26
# Depth limit: `rng.node_counters` keeps counters distinct only below level 64.
MAX_DEPTH = 64


@dataclass(frozen=True)
class TreeShape:
    """Arity k and depth d; the leaf count n = k^d is derived exactly.

    The package's one tree-size rule: a shape of more than `MAX_TREE_NODES`
    nodes (decided in closed form, at any d) or `MAX_DEPTH` levels raises.
    """

    k: int
    d: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"arity k must be >= 1, got {self.k}")
        if self.d < 0:
            raise ValueError(f"depth d must be >= 0, got {self.d}")
        # At k >= 2 a depth-d tree has more than 2^d nodes, so the closed form
        # is evaluated only at depths the budget can hold.
        if self.k > 1 and self.d >= MAX_TREE_NODES.bit_length() or self.total_nodes > MAX_TREE_NODES:
            raise ValueError(f"tree k={self.k}, d={self.d} has more than {MAX_TREE_NODES} nodes")
        if self.d > MAX_DEPTH:
            raise ValueError(f"tree k={self.k}, d={self.d} is deeper than {MAX_DEPTH} levels")

    @property
    def n(self) -> int:
        """Leaf count k^d."""
        return self.nodes_at(self.d)

    def nodes_at(self, level: int) -> int:
        if not 0 <= level <= self.d:
            raise ValueError(f"level {level} outside [0, {self.d}]")
        return self.k**level

    @property
    def total_nodes(self) -> int:
        """(k^(d+1) - 1) / (k - 1), or d + 1 at k = 1."""
        if self.k == 1:
            return self.d + 1
        return (self.k ** (self.d + 1) - 1) // (self.k - 1)
