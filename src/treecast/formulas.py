"""Small boolean-formula AST shared by the two compilers.

Nodes are AND / OR (fan-in 2), NOT (fan-in 1), VAR(i), and CONST(0|1).
Depth is the compilation cost: every gate, including NOT, consumes one
level; variables and constants sit at depth 0.  Formulas parse from a
minimal prefix syntax: `(and x1 (not x2))`, `(or 1 x3)`, `x2`, `0`.
Variable numbering in the text form is 1-based; `Var.index` is 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class Formula:
    op: str
    _children: tuple[Formula, ...] = ()

    def fold(self, value):
        """`value(node, its children's values)` at every distinct node, each
        once and after its children, by an explicit stack: a formula that
        shares subtrees costs one visit per distinct node, at any depth.
        Returns this node's value."""
        order, seen, stack = [], set(), [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
            elif id(node) not in seen:
                seen.add(id(node))
                stack.append((node, True))
                stack.extend((c, False) for c in node._children)
        done: dict[int, object] = {}  # by id: every node stays alive in self
        for node in order:
            done[id(node)] = value(node, [done[id(c)] for c in node._children])
        return done[id(self)]

    @property
    def depth(self) -> int:
        return self.fold(lambda f, kids: 1 + max(kids) if kids else 0)

    def variables(self) -> frozenset[int]:
        return self.fold(
            lambda f, kids: frozenset((f.index,)) if isinstance(f, Var) else frozenset().union(*kids)
        )

    def gate_count(self) -> int:
        return self.fold(lambda f, kids: 1 + sum(kids) if kids else 0)

    def evaluate(self, assignment) -> int:
        """Truth value under `assignment` (0/1 per variable); each variable node reads it once."""
        return self.fold(lambda f, kids: _truth(f, kids, lambda i: int(assignment[i]) & 1))

    def to_text(self) -> str:
        raise NotImplementedError

    def __hash__(self) -> int:
        """Hash of the op and the children's hashes, once per distinct node (a
        leaf keeps its dataclass hash).  Gate classes set it in their body, or
        `dataclass` would replace it with one that walks every path."""
        return self.fold(lambda f, kids: hash((f.op, *kids)) if kids else hash(f))

    def __eq__(self, other: object) -> bool:
        """Same class and op at each node pair, children pairwise, leaves by
        their dataclass equality; each distinct (node, node) pair is compared
        once, by an explicit stack.  Gate classes set it in their body, as
        `__hash__`."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        seen, stack = set(), [(self, other)]
        while stack:
            a, b = stack.pop()
            if (id(a), id(b)) not in seen:
                seen.add((id(a), id(b)))
                if a.__class__ is not b.__class__ or a.op != b.op or (not a._children and a != b):
                    return False
                stack.extend(zip(a._children, b._children))
        return True


@dataclass(frozen=True)
class Var(Formula):
    index: int
    op: str = "var"

    def to_text(self) -> str:
        return f"x{self.index + 1}"


@dataclass(frozen=True)
class Const(Formula):
    value: int
    op: str = "const"

    def __post_init__(self) -> None:
        if self.value not in (0, 1):
            raise ValueError("constants are 0 or 1")

    def to_text(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class Not(Formula):
    child: Formula
    op: str = "not"

    __hash__ = Formula.__hash__
    __eq__ = Formula.__eq__

    @property
    def _children(self) -> tuple[Formula, ...]:
        return (self.child,)

    def to_text(self) -> str:
        return f"(not {self.child.to_text()})"


@dataclass(frozen=True)
class Gate(Formula):
    op: str
    left: Formula
    right: Formula

    def __post_init__(self) -> None:
        if self.op not in ("and", "or"):
            raise ValueError(f"unknown gate {self.op!r}")

    __hash__ = Formula.__hash__
    __eq__ = Formula.__eq__

    @property
    def _children(self) -> tuple[Formula, ...]:
        return (self.left, self.right)

    def to_text(self) -> str:
        return f"({self.op} {self.left.to_text()} {self.right.to_text()})"


def _truth(f: Formula, kids: list, var):
    """`f`'s truth value from its children's, where `var(i)` reads variable
    i: an int, or a numpy column that the int ops broadcast over."""
    if f.op == "var":
        return var(f.index)
    if f.op == "const":
        return f.value
    if f.op == "not":
        return 1 - kids[0]
    return kids[0] & kids[1] if f.op == "and" else kids[0] | kids[1]


def _tokenize(text: str) -> list[str]:
    return text.replace("(", " ( ").replace(")", " ) ").split()


MAX_NESTING = 200  # gate levels `parse_formula` reads, far inside the recursion limit
MAX_ASSIGNMENT_VARS = 16  # 2^16 rows of `assignments`, a few MiB to build


def parse_formula(text: str) -> Formula:
    tokens = _tokenize(text)
    if not tokens:
        raise ValueError("empty formula")
    pos = 0

    def parse(nesting: int = 0) -> Formula:
        nonlocal pos
        if nesting > MAX_NESTING:
            raise ValueError(f"formula nests deeper than {MAX_NESTING} gates")
        if pos >= len(tokens):
            raise ValueError("unexpected end of formula")
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            if pos >= len(tokens):
                raise ValueError("unexpected end of formula")
            head = tokens[pos]
            pos += 1
            if head == "not":
                out: Formula = Not(parse(nesting + 1))
            elif head in ("and", "or"):  # keyword arguments run left to right
                out = Gate(op=head, left=parse(nesting + 1), right=parse(nesting + 1))
            else:
                raise ValueError(f"unknown operator {head!r}")
            if pos >= len(tokens) or tokens[pos] != ")":
                raise ValueError("missing closing parenthesis")
            pos += 1
            return out
        if tok == ")":
            raise ValueError("unexpected closing parenthesis")
        if tok in ("0", "1"):
            return Const(int(tok))
        if tok.startswith("x"):
            idx = int(tok[1:])
            if idx < 1:
                raise ValueError("variables are numbered from x1")
            return Var(idx - 1)
        raise ValueError(f"cannot parse token {tok!r}")

    out = parse()
    if pos != len(tokens):
        raise ValueError(f"trailing tokens after formula: {tokens[pos:]}")
    return out


def assignments(n_vars: int) -> np.ndarray:
    """All 2^n_vars assignments as (2^n_vars, n_vars) uint8 rows: row u holds
    the bits of u, most significant first, so variable 0 is the high bit."""
    if not 0 <= n_vars <= MAX_ASSIGNMENT_VARS:
        raise ValueError(f"cannot enumerate the assignments of {n_vars} variables; the limit is {MAX_ASSIGNMENT_VARS}")
    rows = np.arange(1 << n_vars)[:, None] >> np.arange(n_vars - 1, -1, -1)
    return (rows & 1).astype(np.uint8)


def evaluate_all(formula: Formula, n_vars: int) -> np.ndarray:
    """Truth column over `assignments(n_vars)`, one fold over uint8 columns."""
    columns = assignments(n_vars).T.copy()
    return np.full(1 << n_vars, formula.fold(lambda f, kids: _truth(f, kids, columns.__getitem__)), dtype=np.uint8)


def random_formula(rng, n_vars: int, max_gates: int, max_depth: int) -> Formula:
    """A random formula within the gate and depth budgets, from `rng.random()`
    and `rng.integers(lo, hi)`; a leaf is a constant w.p. 0.15, else a variable."""
    if n_vars < 1:
        raise ValueError("need at least one variable")

    def leaf() -> Formula:
        if rng.random() < 0.15:
            return Const(int(rng.integers(0, 2)))
        return Var(int(rng.integers(0, n_vars)))

    def build(gates_left: int, depth_left: int) -> tuple[Formula, int]:
        if gates_left <= 0 or depth_left <= 0 or rng.random() < 0.2:
            return leaf(), 0
        op = ("and", "or", "not")[int(rng.integers(0, 3))]
        if op == "not":
            child, used = build(gates_left - 1, depth_left - 1)
            return Not(child), used + 1
        left, used_l = build(gates_left - 1, depth_left - 1)
        right, used_r = build(gates_left - 1 - used_l, depth_left - 1)
        return Gate(op=op, left=left, right=right), used_l + used_r + 1

    f, _ = build(max_gates, max_depth)
    return f
