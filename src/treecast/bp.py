"""Exact and float belief propagation on regular trees.

Bottom-up message passing computes the exact conditional law of the root
given per-leaf likelihood weights, a `LeafLikelihood`: each distinct row of
weights once and a row index per leaf.  Two arithmetic modes are supported:

* rational -- exact, on Python ints: the channel is scaled once to integer
  numerators over one denominator (`Channel.integer_columns`), each distinct
  leaf row by the lcm of its own denominators (hard evidence reads cached
  integer unit rows).  Every scale factor is common to all root labels, so
  the normalized posterior is exactly the rational one.  A parent's message
  is a pure function of the channel's integer columns and its k children's
  messages, so each distinct one is computed once, in a memo of at most
  `PARENT_MEMO_SIZE` entries shared by all calls and equal channels.  The
  argmax and tie are read on the root's integers, which share one positive
  denominator, and the m masses become `Fraction`s once, at the end.  This
  is the verification path and is auto-selected while the tree is small;
* float -- for a binary symmetric channel only: one log-odds per node, the
  recursion of `bp_posterior_batch_binary` on one row, immune to underflow
  at depth, within 1e-9 relative of the rational mode where both run.

`bp_posterior` raises ValueError in both modes on evidence of probability
zero under the model.

`bp_posterior_batch_binary` is the Monte Carlo path for the symmetric binary
channel, one log-odds per node across a batch of trees.  On hard or
symmetric-noise evidence a low-level message takes only a few values (the
finite-support observation behind the Mezard-Montanari distributional
recursion), so the levels up to the height of the codes it is given (the
subtree codes `generate_binary_batch` samples, or height 1 for leaves) carry
integer codes into a small log-odds table: the edge map runs once per table
entry rather than once per node.  Above that height the per-node float
recursion finishes the tree.  Its operations depend on the tree, the code
height, theta and s, never on the batch, and table entries are built by the
same float operations in the same order as the per-node recursion, so the
output is bit-identical to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import attrgetter

import numpy as np

from .channels import Channel, FractionLike, as_fraction, integer_numerators
from .trees import TreeShape

# Above this many tree nodes, mode="auto" switches to float BP.
AUTO_RATIONAL_NODE_LIMIT = 20_000
# Entries of rational BP's parent-message memo, least recently used evicted.
# A depth-5 gadget check over all assignments of 10 variables meets up to
# about 1,200 distinct messages; an entry of small messages costs a few
# hundred bytes.
PARENT_MEMO_SIZE = 1 << 14


@dataclass(frozen=True)
class LeafLikelihood:
    """Per-leaf, per-label likelihood weights (exact rationals).

    `rows` holds each distinct row of m nonnegative weights, not all zero,
    once; `index` holds each leaf's observed label, the number of its row.
    Hard evidence is the m unit rows, and flip evidence of rate s the rows
    (1-s, s) and (s, 1-s), at any number of leaves.  Equality compares this
    layout, so the same weights in another row order compare unequal.
    """

    m: int
    rows: tuple[tuple[Fraction, ...], ...]
    index: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.rows)
        if not set(self.index).issubset(range(n)):
            leaf, bad = next((i, x) for i, x in enumerate(self.index) if not 0 <= x < n)
            raise ValueError(f"leaf {leaf}: observed label {bad} outside [0, {n})")
        # Each row once; a bad row is reported at the first leaf that reads it.
        for r, row in enumerate(self.rows):
            if len(row) == self.m and any(row) and min(map(_numerator, row)) >= 0:
                continue
            problem = (f"has {len(row)} weights, expected {self.m}" if len(row) != self.m
                       else "has a negative likelihood weight" if any(row) else "has an all-zero likelihood")
            where = f"leaf {self.index.index(r)}" if r in self.index else f"row {r}"
            raise ValueError(f"{where} {problem}")

    def __len__(self) -> int:
        return len(self.index)

    @classmethod
    def from_labels(cls, labels, m: int) -> "LeafLikelihood":
        """Hard evidence: the m shared unit rows, each label its leaf's row."""
        return cls(m, _unit_rows(m), _ints(labels))

    @classmethod
    def from_noisy_bits(cls, bits, s: FractionLike) -> "LeafLikelihood":
        """Binary observations seen through a symmetric flip channel of rate s."""
        sf = as_fraction(s)
        if not 0 <= sf <= 1:
            raise ValueError(f"flip rate must lie in [0, 1], got {sf}")
        return cls(2, ((1 - sf, sf), (sf, 1 - sf)), _ints(bits))


_numerator = attrgetter("numerator")  # a weight's sign, without comparing Fractions


def _ints(values) -> tuple[int, ...]:
    """Labels or bits as a tuple of ints; an array converts in one `tolist`."""
    return tuple(values.astype(np.intp).tolist() if isinstance(values, np.ndarray) else map(int, values))


@lru_cache(maxsize=16)
def _unit_rows(m: int) -> tuple[tuple[Fraction, ...], ...]:
    """The point masses on labels 0, ..., m-1, the rows of all hard evidence."""
    zero, one = Fraction(0), Fraction(1)
    return tuple(tuple(one if a == x else zero for a in range(m)) for x in range(m))


@dataclass(frozen=True)
class PosteriorReport:
    """Root posterior masses, the arithmetic mode used, and the argmax label.

    Ties break toward the lowest label code and set `tie`.
    """

    masses: tuple
    mode: str
    argmax: int
    tie: bool


def _argmax_with_tie(masses, float_tol: float = 0.0) -> tuple[int, bool]:
    best = 0
    for a in range(1, len(masses)):
        if masses[a] > masses[best]:
            best = a
    if float_tol:
        tie = any(
            a != best and abs(float(masses[a]) - float(masses[best])) <= float_tol
            for a in range(len(masses))
        )
    else:
        tie = any(a != best and masses[a] == masses[best] for a in range(len(masses)))
    return best, tie


def bp_rational_root(shape: TreeShape, channel: Channel, evidence: LeafLikelihood):
    """Rational BP: the root's integer masses and their positive sum, the
    denominator common to all of them."""
    cols, _ = channel.integer_columns()
    # Each message is scaled by a factor common to every label, so the
    # normalized posterior is unchanged: a leaf row by its own lcm, a sum by
    # the channel denominator.
    if evidence.rows == _unit_rows(evidence.m):
        scaled = _unit_ints(evidence.m)
    else:
        scaled = [tuple(integer_numerators(row)[0]) for row in evidence.rows]
    msgs = [scaled[r] for r in evidence.index]
    for _ in range(shape.d):
        # zip over k references to one iterator groups the k children of each parent.
        msgs = [_parent_message(cols, children) for children in zip(*[iter(msgs)] * shape.k)]
    root = msgs[0]
    total = sum(root)
    if total == 0:
        raise ValueError("evidence has zero probability under the model")
    return root, total


@lru_cache(maxsize=PARENT_MEMO_SIZE)
def _parent_message(cols, children: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """A parent's integer message: for each label a, the product over its
    children of sum_b w * msg[b] over the (b, w) in cols[a].  A pure function
    of its arguments, so the memo is exact; each column's numerators sum to
    the channel's denominator, so cols fix the channel, and equal channels
    share entries."""
    vals = []
    for col in cols:
        prod = 1
        for msg in children:
            prod *= sum(w * msg[b] for b, w in col if msg[b])
        vals.append(prod)
    return tuple(vals)


@lru_cache(maxsize=16)
def _unit_ints(m: int) -> tuple[tuple[int, ...], ...]:
    """`_unit_rows(m)` as integer leaf messages."""
    return tuple(tuple(int(a == x) for a in range(m)) for x in range(m))


def bp_posterior(
    shape: TreeShape,
    channel: Channel,
    evidence: LeafLikelihood,
    mode: str = "auto",
) -> PosteriorReport:
    """Exact root posterior given leaf evidence, by bottom-up message passing."""
    if len(evidence) != shape.n:
        raise ValueError(f"evidence covers {len(evidence)} leaves, tree has {shape.n}")
    if evidence.m != channel.m:
        raise ValueError("evidence and channel disagree on label count")
    if resolve_mode(shape, mode) == "rational":
        root, total = bp_rational_root(shape, channel, evidence)
        # One positive denominator: the integers order as the masses do.
        argmax, tie = _argmax_with_tie(root)
        masses = tuple(Fraction(w, total) for w in root)
        return PosteriorReport(masses=masses, mode="exact-rational", argmax=argmax, tie=tie)
    if not channel.is_binary_symmetric:
        raise ValueError('float BP takes a binary symmetric channel; use mode="rational"')
    with np.errstate(divide="ignore"):
        w = np.log(np.array(evidence.rows, dtype=np.float64))
    leaf = (w[:, 1] - w[:, 0]).take(evidence.index)[None]  # each distinct row's log-odds, gathered
    lam = _log_odds_up(leaf, shape.k, float(channel.theta), shape.d)[0, 0]
    if np.isnan(lam):
        raise ValueError("evidence has zero probability under the model")
    masses = tuple(_sigmoid(np.array([-lam, lam])).tolist())
    argmax, tie = _argmax_with_tie(masses, float_tol=1e-12)
    return PosteriorReport(masses=masses, mode="float-log-domain", argmax=argmax, tie=tie)


def resolve_mode(shape: TreeShape, mode: str) -> str:
    """The arithmetic `mode` runs on `shape`: "auto" is rational up to
    AUTO_RATIONAL_NODE_LIMIT tree nodes and float above."""
    if mode == "auto":
        return "rational" if shape.total_nodes <= AUTO_RATIONAL_NODE_LIMIT else "float"
    if mode in ("rational", "float"):
        return mode
    raise ValueError(f"unknown mode {mode!r}; expected auto, rational, or float")


def bp_posterior_batch_binary(
    shape: TreeShape, theta_float: float, leaves: np.ndarray, s: float = 0.0, height: int = 0
) -> np.ndarray:
    """P[root = 1] for a batch of binary leaf observations, log-odds domain.

    `leaves` has shape (trials, n); observations enter through a symmetric
    flip channel of rate s (s = 0 means hard evidence).  For the symmetric
    binary channel the BP message is a single log-odds per node: an edge maps
    lam to 2 artanh(theta tanh(lam / 2)) and a node sums its children.

    The low levels run on integer codes (see the module docstring).  With
    `height` h > 0, `leaves` holds the height-h codes that
    `generators.generate_binary_batch` draws, shape (trials, nodes_at(d - h)):
    at height 1 the ones count c of the k children, log-odds
    `leaf_up * (2 c - k)` with leaf_up = 2 artanh(theta (1 - 2s)); at height
    j+1 the mixed-radix number of the k child codes (see `_parent_table`).
    Leaves (h = 0) are summed into height-1 counts first.  The output is
    bit-identical to running on the leaves that produce the codes, and agrees
    with the rational mode to float precision.

    NaN marks evidence of probability zero: at theta = +-1 with s = 0 a
    table entry or a sum meets inf - inf exactly where leaves conflict.  The
    tables hold such entries even when no row uses them, so the arithmetic
    runs with numpy's invalid-value warnings off.  At theta = +-1 the edge
    map is applied exactly, as lam -> theta lam, so with 0 < s < 1/2 every
    log-odds stays finite and no row gives NaN.  A theta outside [-1, 1] or
    an s outside [0, 1] (NaN included) raises ValueError.
    """
    if not -1 <= theta_float <= 1:
        raise ValueError(f"theta must lie in [-1, 1], got {theta_float}")
    if not 0 <= s <= 1:
        raise ValueError(f"flip rate s must lie in [0, 1], got {s}")
    n = leaves.shape[1]
    if not 0 <= height <= shape.d:
        raise ValueError(f"height must lie in [0, {shape.d}], got {height}")
    want = shape.nodes_at(shape.d - height)
    if n != want:
        raise ValueError(f"leaves have {n} columns, tree has {want} at height {height}")
    k = shape.k
    if shape.d == 0:
        lam_e = 0.0 if s == 0.5 else np.arctanh(1 - 2 * s) if s > 0 else np.inf
        lam = (2.0 * leaves[:, 0] - 1.0) * (2 * lam_e if np.isfinite(lam_e) else np.inf)
        return _sigmoid(lam)
    with np.errstate(divide="ignore", invalid="ignore"):
        leaf_up = 2.0 * np.arctanh(theta_float * (1.0 - 2.0 * s))
        table = leaf_up * (2.0 * np.arange(k + 1) - k)
        codes = leaves
        if height == 0:
            # bool leaves would add as logical or; their bytes add as counts.
            codes = _child_sums(leaves.view(np.uint8) if leaves.dtype == bool else leaves, k)
            height = 1
        for _ in range(1, height):
            table = _parent_table(table, k, theta_float)
        if height == shape.d:
            lam = table[codes]
        else:
            # The first float level maps the table, not each node, through the edge.
            lam = _child_sums(_edge_log_odds(table, theta_float)[codes], k)
        lam = _log_odds_up(lam, k, theta_float, shape.d - height - 1)
    return _sigmoid(lam[:, 0])


def _parent_table(table: np.ndarray, k: int, theta_float: float) -> np.ndarray:
    """Log-odds of each parent code: its k children's edge-mapped entries,
    summed in child order, child 0 the most significant digit."""
    up = _edge_log_odds(table, theta_float)
    digits = np.indices((len(table),) * k).reshape(k, -1).T
    return up[digits].sum(axis=-1)


def _log_odds_up(lam: np.ndarray, k: int, theta_float: float, levels: int) -> np.ndarray:
    """`levels` rounds of the per-node recursion: each node through the edge,
    then each parent's k children summed.  inf - inf gives NaN, unwarned."""
    with np.errstate(invalid="ignore"):
        for _ in range(levels):
            lam = _child_sums(_edge_log_odds(lam, theta_float), k)
    return lam


def _child_sums(up: np.ndarray, k: int) -> np.ndarray:
    """Sums of each node's k consecutive children, shape (trials, nodes / k).

    Below k = 8 numpy's `add.reduce` over a (trials, nodes, k) view adds the
    children left to right, so k strided adds give the same bits without a
    reduction.  From k = 8 on it switches to pairwise summation, whose order
    only the reduction itself reproduces.
    """
    if k == 1 or k >= 8:
        return up.reshape(len(up), -1, k).sum(axis=2)
    lam = up[:, 0::k] + up[:, 1::k]
    for j in range(2, k):
        lam += up[:, j::k]
    return lam


def _edge_log_odds(lam: np.ndarray, theta_float: float) -> np.ndarray:
    """Child log-odds seen from the parent through a binary edge of bias theta,
    2 artanh(theta tanh(lam / 2)), as a new array.

    At theta = +-1 the edge is exactly lam -> theta lam: the float form
    would round tanh to +-1 once |lam| passes ~38 and send finite evidence to
    +-inf.
    """
    if abs(theta_float) == 1:
        return lam * theta_float
    with np.errstate(divide="ignore", invalid="ignore"):
        up = lam / 2.0
        np.tanh(up, out=up)
        up *= theta_float
        np.arctanh(up, out=up)
        up *= 2.0
    return up


def _sigmoid(lam: np.ndarray) -> np.ndarray:
    out = np.empty_like(lam, dtype=np.float64)
    pos = lam >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-lam[pos]))
    ez = np.exp(lam[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out
