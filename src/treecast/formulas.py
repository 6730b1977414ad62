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

    @property
    def depth(self) -> int:
        raise NotImplementedError

    def evaluate(self, assignment) -> int:
        raise NotImplementedError

    def variables(self) -> set[int]:
        raise NotImplementedError

    def gate_count(self) -> int:
        raise NotImplementedError

    def to_text(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class Var(Formula):
    index: int
    op: str = "var"

    @property
    def depth(self) -> int:
        return 0

    def evaluate(self, assignment) -> int:
        return int(assignment[self.index]) & 1

    def variables(self) -> set[int]:
        return {self.index}

    def gate_count(self) -> int:
        return 0

    def to_text(self) -> str:
        return f"x{self.index + 1}"


@dataclass(frozen=True)
class Const(Formula):
    value: int
    op: str = "const"

    def __post_init__(self) -> None:
        if self.value not in (0, 1):
            raise ValueError("constants are 0 or 1")

    @property
    def depth(self) -> int:
        return 0

    def evaluate(self, assignment) -> int:
        return self.value

    def variables(self) -> set[int]:
        return set()

    def gate_count(self) -> int:
        return 0

    def to_text(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class Not(Formula):
    child: Formula
    op: str = "not"

    @property
    def depth(self) -> int:
        return 1 + self.child.depth

    def evaluate(self, assignment) -> int:
        return 1 - self.child.evaluate(assignment)

    def variables(self) -> set[int]:
        return self.child.variables()

    def gate_count(self) -> int:
        return 1 + self.child.gate_count()

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

    @property
    def depth(self) -> int:
        return 1 + max(self.left.depth, self.right.depth)

    def evaluate(self, assignment) -> int:
        a = self.left.evaluate(assignment)
        b = self.right.evaluate(assignment)
        return a & b if self.op == "and" else a | b

    def variables(self) -> set[int]:
        return self.left.variables() | self.right.variables()

    def gate_count(self) -> int:
        return 1 + self.left.gate_count() + self.right.gate_count()

    def to_text(self) -> str:
        return f"({self.op} {self.left.to_text()} {self.right.to_text()})"


def _tokenize(text: str) -> list[str]:
    return text.replace("(", " ( ").replace(")", " ) ").split()


def parse_formula(text: str) -> Formula:
    tokens = _tokenize(text)
    if not tokens:
        raise ValueError("empty formula")
    pos = 0

    def parse() -> Formula:
        nonlocal pos
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
                child = parse()
                out: Formula = Not(child)
            elif head in ("and", "or"):
                left = parse()
                right = parse()
                out = Gate(op=head, left=left, right=right)
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
    rows = np.arange(1 << n_vars)[:, None] >> np.arange(n_vars - 1, -1, -1)
    return (rows & 1).astype(np.uint8)


def evaluate_all(formula: Formula, n_vars: int) -> np.ndarray:
    """Truth column over `assignments(n_vars)`."""
    return np.array([formula.evaluate(a) for a in assignments(n_vars)], dtype=np.uint8)


def random_formula(rng: np.random.Generator, n_vars: int, max_gates: int, max_depth: int) -> Formula:
    """A random well-formed formula within the gate and depth budgets; a leaf
    is a constant with probability 0.15, else a uniform variable."""
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
