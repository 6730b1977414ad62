"""Formula-to-leaf-assignment compilation on the (theta=9/10, k=6) tree.

On that tree an edge copies with probability 19/20.  If four of a node's six
children carry posterior mass >= 0.95 for label 1, the node itself carries
mass >= 19/20 -- that closed-form bound is `gadget_posterior_bound`, and
`lemma_grid_check` sweeps it over a grid to exhibit the minimizing corner.

`compile_formula` turns a boolean formula into a leaf template over
{const0, const1, var(i), negvar(i)}:

* OR  f g  ->  children (f, f, g, g, 1, 1)
* AND f g  ->  children (f, f, g, g, 0, 0)
* NOT f    ->  compile (f OR f), then complement every entry
* constants are uniform constant subtrees; a shallower subformula is padded
  to depth via self-AND (f, f, f, f, 0, 0).

Instantiating the template under an assignment and running BP then tracks
the formula: root posterior >= 19/20 when it evaluates true, <= 1/20 when
false.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bp import LeafLikelihood, bp_posterior
from .channels import Channel, FractionLike, as_fraction
from .formulas import Const, Formula, Gate, Not, Var
from .trees import TreeShape

GADGET_K = 6
GADGET_THETA = Fraction(9, 10)
GADGET_EDGE = Fraction(19, 20)  # copy probability (1 + theta) / 2
TRACK_HIGH = Fraction(19, 20)
TRACK_LOW = Fraction(1, 20)
DEFAULT_MAX_DEPTH = 6

# Entry codes: 0 const0, 1 const1, 2+2i var(i), 3+2i negvar(i), as int32.
CONST0, CONST1 = 0, 1
MAX_VARIABLE = (np.iinfo(np.int32).max - 3) // 2  # the last i whose codes fit int32


def var_entry(i: int) -> int:
    if not 0 <= i <= MAX_VARIABLE:
        raise ValueError(f"variable x{i + 1} is outside x1..x{MAX_VARIABLE + 1}, the int32 entry codes")
    return 2 + 2 * i


def negvar_entry(i: int) -> int:
    return var_entry(i) + 1


def entry_tag(code: int) -> str:
    if code == CONST0:
        return "0"
    if code == CONST1:
        return "1"
    i, neg = divmod(code - 2, 2)
    return f"!x{i + 1}" if neg else f"x{i + 1}"


def entry_from_tag(tag: str) -> int:
    if tag == "0":
        return CONST0
    if tag == "1":
        return CONST1
    neg = tag.startswith("!")
    body = tag[1:] if neg else tag
    if not body.startswith("x"):
        raise ValueError(f"unknown entry tag {tag!r}")
    i = int(body[1:]) - 1
    return negvar_entry(i) if neg else var_entry(i)


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

    def complement(self) -> "LeafTemplate":
        return LeafTemplate(depth=self.depth, entries=self.entries ^ 1)

    def instantiate(self, assignment) -> np.ndarray:
        """Leaf bits under an assignment (sequence of 0/1 per variable)."""
        a = np.asarray(assignment, dtype=np.uint8)
        out = np.empty(len(self.entries), dtype=np.uint8)
        consts = self.entries < 2
        out[consts] = self.entries[consts]
        varmask = ~consts
        if varmask.any():
            idx = (self.entries[varmask] - 2) // 2
            if idx.size and int(idx.max()) >= len(a):
                raise ValueError(
                    f"template references variable x{int(idx.max()) + 1} but the "
                    f"assignment binds only {len(a)}"
                )
            neg = (self.entries[varmask] - 2) % 2
            out[varmask] = a[idx] ^ neg.astype(np.uint8)
        return out

    def to_tags(self) -> list[str]:
        return [entry_tag(int(c)) for c in self.entries]

    @classmethod
    def from_tags(cls, depth: int, tags) -> "LeafTemplate":
        return cls(depth=depth, entries=np.array([entry_from_tag(t) for t in tags], dtype=np.int32))


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


def gadget_channel() -> Channel:
    return Channel.binary(GADGET_THETA)


def verify_gadget(
    f: Formula,
    assignment,
    mode: str = "auto",
    template: LeafTemplate | None = None,
) -> GadgetVerdict:
    """Instantiate the compiled template and check the posterior tracks f.

    `mode` goes to `bp_posterior`, whose "auto" picks rational BP up to its
    node limit (depth 5 at k = 6) and float log-odds BP above.  A rational
    posterior is compared exactly, a float one with 1e-9 slack (its 1e-6
    log-odds error budget is far inside the 19/20-vs-1/20 gap).
    """
    if template is None:
        template = compile_formula(f)
    leaves = template.instantiate(assignment)
    shape = TreeShape(k=GADGET_K, d=template.depth)
    report = bp_posterior(shape, gadget_channel(), LeafLikelihood.from_labels(leaves, 2), mode=mode)
    expected = f.evaluate(assignment)
    post, exact = report.masses[1], report.mode == "exact-rational"
    slack = 0 if exact else 1e-9
    tracks = post >= TRACK_HIGH - slack if expected else post <= TRACK_LOW + slack
    return GadgetVerdict(float(post), bool(tracks), expected, report.mode, post if exact else None)


@dataclass(frozen=True)
class GridCheckResult:
    passed: bool
    min_point: tuple[Fraction, ...]
    min_value: Fraction
    points_checked: int


def lemma_grid_check(h: FractionLike = Fraction(1, 100)) -> GridCheckResult:
    """Sweep four coordinates over [0.95, 1] and two over [0, 1] at step h.

    The bound must stay >= 19/20 everywhere.  The sweep runs in float (the
    gap at the minimizer is ~8e-3, astronomically above float error); the
    minimizing grid point is then re-evaluated in exact rationals, as is the
    all-low corner, and the verdict uses the exact values.
    """
    step = as_fraction(h)
    if not 0 < step <= Fraction(1, 20):
        raise ValueError(f"step must lie in (0, 0.05], got {step}")
    hi_vals = []
    v = Fraction(19, 20)
    while v <= 1:
        hi_vals.append(v)
        v += step
    lo_vals = []
    v = Fraction(0)
    while v <= 1:
        lo_vals.append(v)
        v += step
    hi_f = np.array([float(x) for x in hi_vals])
    lo_f = np.array([float(x) for x in lo_vals])

    def a(p):  # factor toward label 1
        return 0.95 * p + 0.05 * (1 - p)

    def b(p):  # complementary factor
        return 0.05 * p + 0.95 * (1 - p)

    lo_num = np.multiply.outer(a(lo_f), a(lo_f))
    lo_alt = np.multiply.outer(b(lo_f), b(lo_f))
    best = None  # (value, (i1, i2, i3, i4, j1, j2))
    n_hi = len(hi_f)
    checked = 0
    for i1 in range(n_hi):
        for i2 in range(n_hi):
            for i3 in range(n_hi):
                for i4 in range(n_hi):
                    num4 = a(hi_f[i1]) * a(hi_f[i2]) * a(hi_f[i3]) * a(hi_f[i4])
                    alt4 = b(hi_f[i1]) * b(hi_f[i2]) * b(hi_f[i3]) * b(hi_f[i4])
                    num = num4 * lo_num
                    post = num / (num + alt4 * lo_alt)
                    j = np.unravel_index(np.argmin(post), post.shape)
                    checked += post.size
                    val = post[j]
                    if best is None or val < best[0]:
                        best = (val, (i1, i2, i3, i4, int(j[0]), int(j[1])))
    i1, i2, i3, i4, j1, j2 = best[1]
    min_point = (
        hi_vals[i1],
        hi_vals[i2],
        hi_vals[i3],
        hi_vals[i4],
        lo_vals[j1],
        lo_vals[j2],
    )
    exact_min = gadget_posterior_bound(min_point)
    corner = gadget_posterior_bound(
        [Fraction(19, 20)] * 4 + [Fraction(0), Fraction(0)]
    )
    passed = exact_min >= TRACK_HIGH and corner >= TRACK_HIGH and best[0] >= float(TRACK_HIGH) - 1e-9
    return GridCheckResult(
        passed=bool(passed),
        min_point=min_point,
        min_value=exact_min,
        points_checked=checked,
    )
