"""Exact small-instance enumeration of the broadcast process.

This is the ground-truth oracle the rest of the package is checked against:
for every root label a it tabulates the exact rational probability
P[leaves = x | root = a] of every leaf configuration x, by bottom-up dynamic
programming over subtrees.  Enumeration is only permitted while the
configuration count m^(k^d) stays within the constant cap
`DEFAULT_CONFIG_CAP` = 2^20, which keeps oracle runs under a second; every
exact law in the package is refused past it by this module alone.

The dynamic program runs on integers: each channel matrix is scaled to
integer numerators over the lcm of its denominators, so every probability of
one run is an `int` numerator over a single shared denominator.  `LawView`,
the package's one exact-law type (the oracle's, the generators' leaf laws
and the A5 child laws), holds such numerators and reads them as `Fraction`s
only at the API edge; two views compare numerator by numerator.  The
summaries below build one `Fraction` per result.

`enumerate_joint(..., leaves=...)` tracks a subset of the leaves: a subtree
holding no tracked leaf weighs 1, and the cap counts only the tracked
leaves' configurations.  The chi-square checks track three leaves of (3,5).

The posterior, and so the Bayes accuracy, depends on x only through its
likelihood vector (P[x | root = a])_a.  `likelihood_law` runs the same
recursion keyed by that vector, so configurations with equal vectors merge
into one entry with their count: the distributional recursion of
Mezard-Montanari (J. Stat. Phys. 2006).  At k = 2, d = 4, theta = 9/10 it
holds 216 vectors in place of 65,536 configurations.  It keeps the oracle's
configuration cap, so both agree on which shapes are exact.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterator, Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from types import MappingProxyType

from .channels import Channel
from .trees import TreeShape

DEFAULT_CONFIG_CAP = 1 << 20

Numerators = dict[tuple[int, ...], int]


class LawView(Mapping):
    """An exact law: integer numerators over one denominator, read as Fractions.

    Outcomes of probability zero are absent.  Two views are equal when they
    have the same outcomes and a_x * d_b == b_x * d_a for each; any other
    mapping compares as a mapping of Fractions.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, numerators: dict[Hashable, int], denominator: int) -> None:
        self._num = numerators
        self._den = denominator

    @property
    def numerators(self) -> Mapping[Hashable, int]:
        return MappingProxyType(self._num)

    @property
    def denominator(self) -> int:
        return self._den

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LawView):
            return Mapping.__eq__(self, other)
        a, da, b, db = self._num, self._den, other._num, other._den
        return len(a) == len(b) and all(x in b and p * db == b[x] * da for x, p in a.items())

    def __getitem__(self, outcome: Hashable) -> Fraction:
        return Fraction(self._num[outcome], self._den)

    def __contains__(self, outcome: object) -> bool:
        return outcome in self._num

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._num)

    def __len__(self) -> int:
        return len(self._num)

    def __repr__(self) -> str:
        return f"LawView({self._num!r}, {self._den})"


@dataclass
class JointDistribution:
    """Exact conditional leaf laws, one per root label.

    P[leaves = x | root = a] is numerators[a][x] / denominator; configurations
    of probability zero are absent.  `cond[a]` is the same law read as
    Fractions.
    """

    shape: TreeShape
    channel: Channel
    numerators: list[Numerators] = field(repr=False)
    denominator: int
    cond: list[LawView] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.cond = [LawView(num, self.denominator) for num in self.numerators]

    @property
    def m(self) -> int:
        return self.channel.m

    def configurations(self):
        return sorted(set().union(*self.numerators))

    def mixture_prob(self, leaves: tuple[int, ...]) -> Fraction:
        """P[leaves] under the uniform root prior."""
        x = tuple(leaves)
        return Fraction(sum(num.get(x, 0) for num in self.numerators), self.denominator * self.m)

    def posterior(self, leaves: tuple[int, ...]) -> list[Fraction]:
        """Exact P[root = a | leaves] under the uniform root prior."""
        x = tuple(leaves)
        weights = [num.get(x, 0) for num in self.numerators]
        total = sum(weights)
        if total == 0:
            raise ValueError(f"leaf configuration {x} has probability zero")
        return [Fraction(w, total) for w in weights]

    def likelihood_law(self) -> "LikelihoodLaw":
        """The configurations grouped by their likelihood vector."""
        counts: dict[tuple[int, ...], int] = {}
        for x in set().union(*self.numerators):
            vec = tuple(num.get(x, 0) for num in self.numerators)
            counts[vec] = counts.get(vec, 0) + 1
        return LikelihoodLaw(self.m, counts, self.denominator)


@dataclass
class LikelihoodLaw:
    """Law of the likelihood vector (P[leaves = x | root = a])_a over x.

    `counts` maps each vector, as integer numerators over `denominator`, to
    the number of leaf configurations x of nonzero probability that have it.
    """

    m: int
    counts: dict[tuple[int, ...], int]
    denominator: int


def config_count(n: int, m: int) -> int:
    """m^n configurations of n leaves over m labels, or a value past 2^64."""
    if m == 1:
        return 1
    out = 1
    for _ in range(n):
        out *= m
        if out > (1 << 64):
            break
    return out


def _edge_columns(shape: TreeShape, channel: Channel, leaf_channel: Channel | None, leaves: int):
    """Each level's `integer_columns`, from the leaves up, with `leaf_channel`
    on the first step; raises first if the configurations of `leaves` leaves
    are over `DEFAULT_CONFIG_CAP`."""
    m = channel.m
    if leaf_channel is not None and leaf_channel.m != m:
        raise ValueError("leaf_channel must have the same label count")
    count = config_count(leaves, m)
    if count > DEFAULT_CONFIG_CAP:
        raise ValueError(
            f"enumeration needs {count} configurations, above the cap of {DEFAULT_CONFIG_CAP}"
        )
    return [
        (leaf_channel if step == 0 and leaf_channel is not None else channel).integer_columns()
        for step in range(shape.d)
    ]


def enumerate_joint(
    shape: TreeShape,
    channel: Channel,
    leaf_channel: Channel | None = None,
    leaves: tuple[int, ...] | None = None,
) -> JointDistribution:
    """Tabulate P[leaves | root] exactly for every configuration and root.

    `leaf_channel`, when given, replaces the transmission matrix on the last
    level's edges; composing the per-leaf noise channel with the broadcast
    channel there yields the exact law of noisy leaves.  `leaves`, when
    given, selects the leaves to track: configurations then list those
    leaves in increasing index order, and the cap counts m^len(leaves).
    """
    m = channel.m
    if leaves is not None:
        leaves = tuple(sorted(leaves))
        if not leaves or leaves[0] < 0 or leaves[-1] >= shape.n or len(set(leaves)) < len(leaves):
            raise ValueError(f"leaves must be distinct indices in [0, {shape.n}), got {leaves}")
    tracked = range(shape.n) if leaves is None else leaves
    steps = _edge_columns(shape, channel, leaf_channel, len(tracked))
    # law[offsets] = (num, den) for the subtrees of the current height whose
    # tracked leaves sit at these offsets within them: num[a] maps each
    # tracked-leaf tuple to its conditional probability given subtree root a,
    # times den.  Subtrees holding no tracked leaf weigh 1 and are skipped.
    law = {(0,): ([{(a,): 1} for a in range(m)], 1)}
    block = 1  # leaves under one subtree of the current height
    for cols, scale in steps:
        # seen[offsets] = (mix, den * scale): mix[a] is the law of one such
        # subtree given its parent's label a.
        seen = {}
        for offsets, (num, den) in law.items():
            mix: list[Numerators] = []
            for col in cols:
                part: Numerators = {}
                for b, w in col:  # col = cols[a]; w / scale = P[child = b | parent = a]
                    for cfg, p in num[b].items():
                        part[cfg] = part.get(cfg, 0) + w * p
                mix.append(part)
            seen[offsets] = (mix, den * scale)
        span = block * shape.k
        parents: dict[int, list[int]] = {}
        for i in tracked:
            parents.setdefault(i // span, []).append(i % span)
        law = {}
        for offsets in {tuple(offs) for offs in parents.values()}:
            children: dict[int, list[int]] = {}
            for o in offsets:
                children.setdefault(o // block, []).append(o % block)
            # Independent children: keys of equal-length parts concatenate
            # injectively, so the product needs no accumulation.
            acc: list[Numerators] = [{(): 1}] * m
            den = 1
            for sub in children.values():
                mix, sub_den = seen[tuple(sub)]
                acc = [
                    {cfg + ccfg: p * q for cfg, p in acc[a].items() for ccfg, q in mix[a].items()}
                    for a in range(m)
                ]
                den *= sub_den
            law[offsets] = (acc, den)
        block = span
    num, den = law[tuple(tracked)]
    return JointDistribution(shape=shape, channel=channel, numerators=num, denominator=den)


def likelihood_law(
    shape: TreeShape, channel: Channel, leaf_channel: Channel | None = None
) -> LikelihoodLaw:
    """The law of the likelihood vector, by `enumerate_joint`'s recursion
    keyed by vector: equal vectors merge, and vectors of probability zero
    under every root are dropped, as the oracle drops their configurations."""
    m = channel.m
    steps = _edge_columns(shape, channel, leaf_channel, shape.n)
    counts = {tuple(int(a == b) for a in range(m)): 1 for b in range(m)}
    den = 1
    for cols, scale in steps:
        # One child subtree seen from its parent: u[a] = sum_b matrix[b][a] v[b].
        mix: dict[tuple[int, ...], int] = {}
        for vec, count in counts.items():
            u = tuple(sum(w * vec[b] for b, w in col) for col in cols)
            if any(u):
                mix[u] = mix.get(u, 0) + count
        # k independent children: vectors multiply entrywise, counts multiply.
        acc = {(1,) * m: 1}
        for _ in range(shape.k):
            nxt: dict[tuple[int, ...], int] = {}
            for vec, count in acc.items():
                for u, c in mix.items():
                    prod = tuple(map(mul, vec, u))
                    if any(prod):
                        nxt[prod] = nxt.get(prod, 0) + count * c
            acc = nxt
        counts = acc
        den = (den * scale) ** shape.k
    return LikelihoodLaw(m, counts, den)


def bayes_accuracy(law: LikelihoodLaw | JointDistribution) -> Fraction:
    """Optimal detection accuracy sum_x max_a P[x|a] / m; lies in [1/m, 1].

    A JointDistribution is first grouped into its likelihood law.
    """
    if isinstance(law, JointDistribution):
        law = law.likelihood_law()
    total = sum(count * max(vec) for vec, count in law.counts.items())
    return Fraction(total, law.denominator * law.m)


def pair_equal_probability(joint: JointDistribution, i: int, j: int) -> Fraction:
    """P[leaf i == leaf j] under the uniform-root mixture."""
    total = sum(p for num in joint.numerators for cfg, p in num.items() if cfg[i] == cfg[j])
    return Fraction(total, joint.denominator * joint.m)


def expected_leaf_sum(joint: JointDistribution, root: int) -> Fraction:
    """E[sum of leaf codes | root]; for binary labels, the expected ones count."""
    total = sum(p * sum(cfg) for cfg, p in joint.numerators[root].items())
    return Fraction(total, joint.denominator)
