"""Exact and float belief propagation on regular trees.

Bottom-up message passing computes the exact conditional law of the root
given per-leaf likelihood weights.  Two arithmetic modes are supported:

* rational -- Fraction arithmetic, bit-exact; this is the verification path
  and is auto-selected while the tree is small;
* float -- log-domain messages (per-node max-shift), immune to underflow at
  depth, within 1e-9 relative of the rational mode where both run.

`bp_posterior_batch_binary` is the Monte Carlo path for the symmetric binary
channel, one log-odds per node across a batch of trees.  On hard or
symmetric-noise evidence a low-level message takes only a few values (the
finite-support observation behind the Mezard-Montanari distributional
recursion), so the low levels carry integer codes into a small log-odds table
instead of floats: the edge map runs once per table entry rather than once
per node.  A level is coded while its table has no more entries than the
batch has nodes at that level; the rest of the tree runs the per-node float
recursion.  Table entries are built by the same float operations in the same
order as the per-node recursion, so the output is bit-identical to it.
The Monte Carlo estimators pass the height-h codes that
`generate_binary_batch` samples directly, and the table stage starts there.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .channels import Channel, FractionLike, as_fraction
from .trees import TreeShape

# Above this many tree nodes, mode="auto" switches to float BP.
AUTO_RATIONAL_NODE_LIMIT = 20_000


@dataclass(frozen=True)
class LeafLikelihood:
    """Per-leaf, per-label likelihood weights (exact rationals).

    Weights must be nonnegative and not all zero for any leaf.  Hard
    observations are point masses; a flip channel with rate s maps an
    observed bit x to weights (1-s) on x and s on 1-x.
    """

    m: int
    weights: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        for i, row in enumerate(self.weights):
            if len(row) != self.m:
                raise ValueError(f"leaf {i} has {len(row)} weights, expected {self.m}")
            if any(w < 0 for w in row):
                raise ValueError(f"leaf {i} has a negative likelihood weight")
            if all(w == 0 for w in row):
                raise ValueError(f"leaf {i} has an all-zero likelihood")

    def __len__(self) -> int:
        return len(self.weights)

    @classmethod
    def from_labels(cls, labels, m: int) -> "LeafLikelihood":
        rows = []
        for x in labels:
            x = int(x)
            if not 0 <= x < m:
                raise ValueError(f"observed label {x} outside [0, {m})")
            rows.append(tuple(Fraction(1) if a == x else Fraction(0) for a in range(m)))
        return cls(m=m, weights=tuple(rows))

    @classmethod
    def from_noisy_bits(cls, bits, s: FractionLike) -> "LeafLikelihood":
        """Binary observations seen through a symmetric flip channel of rate s."""
        sf = as_fraction(s)
        if not 0 <= sf <= 1:
            raise ValueError(f"flip rate must lie in [0, 1], got {sf}")
        rows = []
        for x in bits:
            x = int(x)
            if x not in (0, 1):
                raise ValueError(f"noisy-bit evidence must be binary, got {x}")
            rows.append((1 - sf, sf) if x == 0 else (sf, 1 - sf))
        return cls(m=2, weights=tuple(rows))

    def to_float(self) -> np.ndarray:
        return np.array(
            [[float(w) for w in row] for row in self.weights], dtype=np.float64
        )


@dataclass(frozen=True)
class PosteriorReport:
    """Root posterior masses, the arithmetic mode used, and the argmax label.

    Ties break toward the lowest label code and set `tie`.
    """

    masses: tuple
    mode: str
    argmax: int
    tie: bool

    def mass(self, a: int) -> float:
        return float(self.masses[a])


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


def _bp_rational(shape: TreeShape, channel: Channel, evidence: LeafLikelihood):
    m = channel.m
    msgs = [list(row) for row in evidence.weights]
    for _ in range(shape.d):
        nxt = []
        for base in range(0, len(msgs), shape.k):
            vals = []
            for a in range(m):
                prod = Fraction(1)
                for c in range(base, base + shape.k):
                    s = Fraction(0)
                    for b in range(m):
                        if msgs[c][b]:
                            s += channel.matrix[b][a] * msgs[c][b]
                    prod *= s
                vals.append(prod)
            nxt.append(vals)
        msgs = nxt
    root = msgs[0]
    total = sum(root, Fraction(0))
    if total == 0:
        raise ValueError("evidence has zero probability under the model")
    return tuple(w / total for w in root)


def _bp_float_log(shape: TreeShape, M: np.ndarray, leaf_log: np.ndarray) -> np.ndarray:
    """Log-domain BP; returns root posterior masses (normalized floats)."""
    m = M.shape[0]
    log_msgs = leaf_log
    for _ in range(shape.d):
        shift = log_msgs.max(axis=1, keepdims=True)
        # Guard all -inf rows (cannot happen with valid evidence, but keep finite).
        shift = np.where(np.isfinite(shift), shift, 0.0)
        lin = np.exp(log_msgs - shift)
        up = lin @ M  # up[c, a] = sum_b M[b, a] * msg[c, b]
        with np.errstate(divide="ignore"):
            log_up = np.log(up) + shift
        log_msgs = log_up.reshape(-1, shape.k, m).sum(axis=1)
    root = log_msgs[0]
    root = root - root.max()
    masses = np.exp(root)
    return masses / masses.sum()


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
    if mode == "auto":
        mode = "rational" if shape.total_nodes <= AUTO_RATIONAL_NODE_LIMIT else "float"
    if mode == "rational":
        masses = _bp_rational(shape, channel, evidence)
        argmax, tie = _argmax_with_tie(masses)
        return PosteriorReport(masses=masses, mode="exact-rational", argmax=argmax, tie=tie)
    if mode == "float":
        with np.errstate(divide="ignore"):
            leaf_log = np.log(evidence.to_float())
        masses = _bp_float_log(shape, channel.to_float(), leaf_log)
        argmax, tie = _argmax_with_tie(tuple(masses), float_tol=1e-12)
        return PosteriorReport(
            masses=tuple(float(x) for x in masses),
            mode="float-log-domain",
            argmax=argmax,
            tie=tie,
        )
    raise ValueError(f"unknown mode {mode!r}; expected auto, rational, or float")


def bp_posterior_batch_binary(
    shape: TreeShape, theta_float: float, leaves: np.ndarray, s: float = 0.0, height: int = 0
) -> np.ndarray:
    """P[root = 1] for a batch of binary leaf observations, log-odds domain.

    `leaves` has shape (trials, n); observations enter through a symmetric
    flip channel of rate s (s = 0 means hard evidence).  For the symmetric
    binary channel the BP message is a single log-odds per node: an edge maps
    lam to 2 artanh(theta tanh(lam / 2)) and a node sums its children.

    The low levels run on integer codes (see the module docstring): a height-1
    node's code is its children's ones count, with log-odds
    `leaf_up * (2 c - k)`, leaf_up = 2 artanh(theta (1 - 2s)); a height-h+1
    code is the mixed-radix number of its k child codes, and its table entry
    is the edge-mapped child entries summed in child order.  Coding stops
    before the first level whose table would have more entries than the
    batch has nodes at that level (V^k > trials * nodes), so the depth it
    reaches depends on the batch but the output does not.  From there the
    log-odds are gathered once and the float recursion finishes the tree.
    Each table entry is computed by the same float operations, in the same
    order, as the per-node recursion applies to a node with those children,
    so the result is bit-identical to it.  Agrees with the rational mode to
    float precision.

    With `height` h > 0, `leaves` holds the height-h codes instead, shape
    (trials, nodes_at(d - h)), as `generators.generate_binary_batch` draws
    them: the table stage starts at height h, and the output is
    bit-identical to running on the leaves that produce those codes.

    NaN marks evidence of probability zero: at theta = +-1 with s = 0 a
    table entry or a sum meets inf - inf exactly where leaves conflict.  The
    tables hold such entries even when no row uses them, so the arithmetic
    runs with numpy's invalid-value warnings off.  (At theta = +-1 with
    0 < s < 1/2 the edge map also saturates to inf once |lam| > ~38, so
    sibling subtrees with strong opposite evidence give NaN as well.)
    """
    trials, n = leaves.shape
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
        if height == 0:
            codes = leaves[:, 0::k].astype(np.min_scalar_type(k))
            for j in range(1, k):
                np.add(codes, leaves[:, j::k], out=codes, casting="unsafe")
            height = 1
        else:
            codes = leaves
            for _ in range(1, height):
                table = _parent_table(table, k, theta_float)
        while height < shape.d and len(table) ** k <= trials * shape.nodes_at(shape.d - height - 1):
            radix = len(table)
            table = _parent_table(table, k, theta_float)
            nxt = codes[:, 0::k].astype(np.min_scalar_type(len(table) - 1))
            for j in range(1, k):
                nxt *= radix
                np.add(nxt, codes[:, j::k], out=nxt, casting="unsafe")
            codes = nxt
            height += 1
        lam = table[codes]
        for _ in range(shape.d - height):
            up = _edge_log_odds(lam, theta_float)
            lam = up.reshape(trials, -1, k).sum(axis=2)
    return _sigmoid(lam[:, 0])


def _parent_table(table: np.ndarray, k: int, theta_float: float) -> np.ndarray:
    """Log-odds of each parent code: its k children's edge-mapped entries,
    summed in child order, child 0 the most significant digit."""
    up = _edge_log_odds(table, theta_float)
    digits = np.indices((len(table),) * k).reshape(k, -1).T
    return up[digits].sum(axis=-1)


def _edge_log_odds(lam: np.ndarray, theta_float: float) -> np.ndarray:
    """Child log-odds seen from the parent through a binary edge of bias theta."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return 2.0 * np.arctanh(theta_float * np.tanh(lam / 2.0))


def _sigmoid(lam: np.ndarray) -> np.ndarray:
    out = np.empty_like(lam, dtype=np.float64)
    pos = lam >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-lam[pos]))
    ez = np.exp(lam[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out
