"""Formula-to-leaf-assignment compilation on the (theta=9/10, k=6) tree.

On that tree an edge copies with probability 19/20.  If four of a node's six
children carry posterior mass >= 0.95 for label 1, the node itself carries
mass >= 19/20 -- that closed-form bound is `gadget_posterior_bound`, and
`lemma_grid_check` checks it over a whole grid in closed form, not swept.

`compile_formula` turns a boolean formula into a leaf template over
{const0, const1, var(i), negvar(i)}:

* OR  f g  ->  children (f, f, g, g, 1, 1)
* AND f g  ->  children (f, f, g, g, 0, 0)
* NOT f    ->  compile (f OR f), then complement every entry
* constants are uniform constant subtrees; a shallower subformula is padded
  to depth via self-AND (f, f, f, f, 0, 0).

Instantiating the template under an assignment and running BP then tracks
the formula: root posterior >= 19/20 when it evaluates true, <= 1/20 when
false: `check_all_assignments` checks every assignment, `verify_gadget` one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bp import LeafLikelihood, bp_posterior, bp_posterior_batch_binary, bp_rational_root, resolve_mode
from .channels import Channel, FractionLike, as_fraction
from .estimators import trial_chunks
from .formulas import Const, Formula, Gate, Not, Var, assignments, evaluate_all
from .trees import TreeShape

GADGET_K = 6
GADGET_THETA = Fraction(9, 10)
GADGET_EDGE = Fraction(19, 20)  # copy probability (1 + theta) / 2
TRACK_HIGH = Fraction(19, 20)
TRACK_LOW = Fraction(1, 20)
FLOAT_SLACK = 1e-9  # a float posterior's 1e-6 log-odds error budget is far inside the gap
DEFAULT_MAX_DEPTH = 6
_GADGET_CHANNEL = Channel.binary(GADGET_THETA)

# Entry codes: 0 const0, 1 const1, 2+2i var(i), 3+2i negvar(i), as int32.
CONST0, CONST1 = 0, 1
MAX_VARIABLE = (np.iinfo(np.int32).max - 3) // 2  # the last i whose codes fit int32


def var_entry(i: int) -> int:
    if not 0 <= i <= MAX_VARIABLE:
        raise ValueError(f"variable x{i + 1} is outside x1..x{MAX_VARIABLE + 1}, the int32 entry codes")
    return 2 + 2 * i


def entry_tag(code: int) -> str:
    if code == CONST0:
        return "0"
    if code == CONST1:
        return "1"
    i, neg = divmod(code - 2, 2)
    return f"!x{i + 1}" if neg else f"x{i + 1}"


@dataclass(frozen=True)
class LeafTemplate:
    depth: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.entries, dtype=np.int32)
        if len(arr) != GADGET_K**self.depth:
            raise ValueError(
                f"template of depth {self.depth} must have {GADGET_K ** self.depth} "
                f"entries, got {len(arr)}"
            )
        object.__setattr__(self, "entries", arr)

    def __len__(self) -> int:
        return len(self.entries)

    def instantiate(self, assignment) -> np.ndarray:
        """Leaf bits under an assignment (sequence of 0/1 per variable), or
        one row of leaf bits per row of a 2-D table of assignments."""
        a = np.asarray(assignment, dtype=np.uint8)
        # Entry code c reads column c of (0, 1, a[0], !a[0], a[1], !a[1], ...).
        values = np.empty(a.shape[:-1] + (2 + 2 * a.shape[-1],), dtype=np.uint8)
        values[..., 0], values[..., 1] = CONST0, CONST1
        values[..., 2::2] = a
        values[..., 3::2] = a ^ 1
        top = int(self.entries.max())
        if top >= values.shape[-1]:
            raise ValueError(
                f"template references variable x{(top - 2) // 2 + 1} but the "
                f"assignment binds only {a.shape[-1]}"
            )
        return values.take(self.entries, axis=-1)

    def to_tags(self) -> list[str]:
        return [entry_tag(int(c)) for c in self.entries]


def _is_uniform_const(entries: np.ndarray) -> bool:
    return bool(len(entries)) and entries.max() <= 1 and entries.min() == entries.max()


def _pad_to(entries: np.ndarray, from_depth: int, to_depth: int) -> np.ndarray:
    if _is_uniform_const(entries):
        return np.full(GADGET_K**to_depth, entries[0], dtype=np.int32)
    zeros_depth = from_depth
    out = entries
    for _ in range(to_depth - from_depth):
        zeros = np.zeros(GADGET_K**zeros_depth, dtype=np.int32)
        out = np.concatenate([out, out, out, out, zeros, zeros])
        zeros_depth += 1
    return out


def compile_formula(f: Formula) -> LeafTemplate:
    """Compile a formula of depth at most DEFAULT_MAX_DEPTH into a leaf
    template of length 6^depth(f)."""
    if f.depth > DEFAULT_MAX_DEPTH:
        raise ValueError(f"formula depth {f.depth} exceeds the limit of {DEFAULT_MAX_DEPTH}")
    depth, entries = _compile(f)
    return LeafTemplate(depth=depth, entries=entries)


def _compile(f: Formula) -> tuple[int, np.ndarray]:
    if isinstance(f, Var):
        return 0, np.array([var_entry(f.index)], dtype=np.int32)
    if isinstance(f, Const):
        return 0, np.array([CONST1 if f.value else CONST0], dtype=np.int32)
    if isinstance(f, Not):
        depth, entries = _compile(Gate(op="or", left=f.child, right=f.child))
        return depth, entries ^ 1
    if isinstance(f, Gate):
        dl, left = _compile(f.left)
        dr, right = _compile(f.right)
        depth = 1 + max(dl, dr)
        left = _pad_to(left, dl, depth - 1)
        right = _pad_to(right, dr, depth - 1)
        fill = CONST1 if f.op == "or" else CONST0
        block = np.full(GADGET_K ** (depth - 1), fill, dtype=np.int32)
        return depth, np.concatenate([left, left, right, right, block, block])
    raise TypeError(f"cannot compile node of type {type(f).__name__}")


def gadget_posterior_bound(ps) -> Fraction:
    """Root posterior for label 1 from six child-subtree posteriors, exact.

    P = prod(19/20 p_i + 1/20 (1-p_i)) over that plus the complementary
    product prod(1/20 p_i + 19/20 (1-p_i)).
    """
    ps = [as_fraction(p) for p in ps]
    if len(ps) != GADGET_K:
        raise ValueError(f"need {GADGET_K} child posteriors, got {len(ps)}")
    hi, lo = GADGET_EDGE, 1 - GADGET_EDGE
    num = Fraction(1)
    alt = Fraction(1)
    for p in ps:
        if not 0 <= p <= 1:
            raise ValueError(f"posterior {p} outside [0, 1]")
        num *= hi * p + lo * (1 - p)
        alt *= lo * p + hi * (1 - p)
    return num / (num + alt)


@dataclass(frozen=True)
class GadgetVerdict:
    posterior: float
    tracks: bool
    expected: int
    mode: str
    posterior_exact: Fraction | None = None


def _tracks(expected, m1, total=None):
    """The verdict m1 / total >= TRACK_HIGH where f holds, <= TRACK_LOW where
    it does not: cross-multiplied on exact integers, or with FLOAT_SLACK on
    float posteriors m1 (a scalar or an array) when total is None."""
    if total is None:
        return np.where(expected, m1 >= TRACK_HIGH - FLOAT_SLACK, m1 <= TRACK_LOW + FLOAT_SLACK)
    if expected:
        return m1 * TRACK_HIGH.denominator >= TRACK_HIGH.numerator * total
    return m1 * TRACK_LOW.denominator <= TRACK_LOW.numerator * total


def verify_gadget(
    f: Formula,
    assignment,
    mode: str = "auto",
    template: LeafTemplate | None = None,
) -> GadgetVerdict:
    """Instantiate the compiled template on one assignment; check the posterior tracks f.

    `mode` goes to `bp_posterior`, whose "auto" picks rational BP up to its
    node limit (depth 5 at k = 6) and float log-odds BP above.  A rational
    posterior is compared exactly, a float one with FLOAT_SLACK.
    """
    if template is None:
        template = compile_formula(f)
    leaves = template.instantiate(assignment)
    shape = TreeShape(k=GADGET_K, d=template.depth)
    report = bp_posterior(shape, _GADGET_CHANNEL, LeafLikelihood.from_labels(leaves, 2), mode=mode)
    expected = f.evaluate(assignment)
    post, exact = report.masses[1], report.mode == "exact-rational"
    tracks = _tracks(expected, post.numerator, post.denominator) if exact else _tracks(expected, post)
    return GadgetVerdict(float(post), bool(tracks), expected, report.mode, post if exact else None)


def check_all_assignments(f: Formula, template: LeafTemplate, mode: str = "auto") -> tuple[np.ndarray, np.ndarray]:
    """Root posterior of label 1 and the tracking verdict on every assignment
    of x1..x(max variable, at least 1), in `formulas.assignments` order.

    `mode` resolves as in `bp_posterior`.  Float mode scores one `trial_chunks`
    block of rows at a time through `bp_posterior_batch_binary`.  Rational
    mode runs rational BP row by row (the parent-message memo computes each
    distinct message once) and reads the verdict on the root's integers.
    """
    table = assignments(max(f.variables(), default=0) + 1)
    expected = evaluate_all(f, table.shape[1])
    shape = TreeShape(k=GADGET_K, d=template.depth)
    rational = resolve_mode(shape, mode) == "rational"
    posts = np.empty(len(table))
    tracks = np.empty(len(table), dtype=bool)
    for start, stop in trial_chunks(len(table), len(template)):
        leaves = template.instantiate(table[start:stop])
        if not rational:
            posts[start:stop] = bp_posterior_batch_binary(shape, float(GADGET_THETA), leaves)
            tracks[start:stop] = _tracks(expected[start:stop], posts[start:stop])
            continue
        for i, row in enumerate(leaves, start):
            root, total = bp_rational_root(shape, _GADGET_CHANNEL, LeafLikelihood.from_labels(row, 2))
            posts[i] = root[1] / total
            tracks[i] = _tracks(expected[i], root[1], total)
    return posts, tracks


@dataclass(frozen=True)
class GridCheckResult:
    passed: bool
    min_point: tuple[Fraction, ...]
    min_value: Fraction
    points_checked: int


def lemma_grid_check(h: FractionLike = Fraction(1, 100)) -> GridCheckResult:
    """The bound's minimum over four coordinates in [19/20, 1] and two in
    [0, 1], each axis at step h, in closed form and exact rationals.

    The bound is 1 / (1 + prod r(p_i)), r = b / a > 0 the ratio of its
    complementary factor to its label-1 factor, so over a product grid it is
    smallest at each axis's own argmax of r, and must stay >= 19/20 there.
    """
    step = as_fraction(h)
    if not 0 < step <= Fraction(1, 20):
        raise ValueError(f"step must lie in (0, 0.05], got {step}")
    hi, lo = GADGET_EDGE, 1 - GADGET_EDGE

    def ratio(p: Fraction) -> Fraction:
        return (lo * p + hi * (1 - p)) / (hi * p + lo * (1 - p))

    high_axis, low_axis = ([start + i * step for i in range(int((1 - start) / step) + 1)]
                           for start in (TRACK_HIGH, Fraction(0)))
    min_point = (max(high_axis, key=ratio),) * 4 + (max(low_axis, key=ratio),) * 2
    min_value = gadget_posterior_bound(min_point)
    return GridCheckResult(
        passed=min_value >= TRACK_HIGH,
        min_point=min_point,
        min_value=min_value,
        points_checked=len(high_axis) ** 4 * len(low_axis) ** 2,
    )
