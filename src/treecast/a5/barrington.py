"""Compilation of boolean formulas to group programs over the 60-element
tables.

A group program is a sequence of instructions (var, g0, g1); on input x it
multiplies out g_{x[var]} left to right.  A program computes formula f with
target c when the product is c on satisfying inputs and the identity
otherwise.  The compilation is the classic recursion:

* variables map to a single input-conditioned instruction;
* NOT(f) compiles f with target c^-1 and appends the constant c;
* AND(f, g) is the conjugated commutator
  q . P_f(a) . P_g(b) . P_f(a)^-1 . P_g(b)^-1 . q^-1, where the five-cycles
  a, b and the conjugator q with q [a,b] q^-1 = c are found by exhaustive
  search at first use (and cached), never hard-coded;
* OR rewrites through De Morgan.

Program length is 4^depth up to constants, so the compiler refuses formulas
deeper than a budget (default 20 levels).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..formulas import Const, Formula, Gate, Not, Var
from .group import A5

MAX_COMPILE_DEPTH = 20
# The inverse table as Python ints: the compiler's scalar lookups are much
# faster than indexing numpy scalars.
_INV = A5.inv.tolist()
# Entries of the (assignments x instructions) choice matrix that
# `evaluate_program_batch` holds at once.
EVAL_BLOCK_CELLS = 1 << 18


@dataclass(frozen=True)
class Instruction:
    var: int
    g0: int
    g1: int


Program = list[Instruction]


def constant_instruction(g: int) -> Instruction:
    return Instruction(var=0, g0=g, g1=g)


@lru_cache(maxsize=64)
def commutator_witness(target: int) -> tuple[int, int, int]:
    """Five-cycles a, b and q in the group with q (a b a^-1 b^-1) q^-1 = target."""
    if A5.class_code[target] != 3:
        raise ValueError(f"element {target} is not a five-cycle")
    mul, inv = A5.mul, A5.inv
    fives = A5.five_cycles()
    for a in fives:
        for b in fives:
            comm = mul[mul[a, b], mul[inv[a], inv[b]]]
            if A5.class_code[comm] != 3:
                continue
            for q in range(60):
                if mul[mul[q, comm], inv[q]] == target:
                    return int(a), int(b), int(q)
    raise RuntimeError(
        f"no five-cycle commutator is conjugate to element {target}"
    )


def invert_program(program: Program) -> Program:
    """Program whose product is the inverse of the input program's product."""
    return [Instruction(var=ins.var, g0=_INV[ins.g0], g1=_INV[ins.g1]) for ins in reversed(program)]


def barrington_compile(formula: Formula, target: int) -> Program:
    """Compile a formula so the program multiplies to `target` iff it is true."""
    if A5.class_code[target] != 3:
        raise ValueError("the compilation target must be a five-cycle")
    if formula.depth > MAX_COMPILE_DEPTH:
        raise ValueError(
            f"formula depth {formula.depth} exceeds the budget of {MAX_COMPILE_DEPTH}"
        )
    return _compile(formula, target)


def _compile(f: Formula, target: int) -> Program:
    ident = A5.identity
    if isinstance(f, Var):
        return [Instruction(var=f.index, g0=ident, g1=target)]
    if isinstance(f, Const):
        return [constant_instruction(target if f.value else ident)]
    if isinstance(f, Not):
        inner = _compile(f.child, _INV[target])
        return inner + [constant_instruction(target)]
    if isinstance(f, Gate):
        if f.op == "or":
            rewritten = Not(Gate(op="and", left=Not(f.left), right=Not(f.right)))
            return _compile(rewritten, target)
        a, b, q = commutator_witness(target)
        left = _compile(f.left, a)
        right = _compile(f.right, b)
        body = left + right + invert_program(left) + invert_program(right)
        return [constant_instruction(q)] + body + [constant_instruction(_INV[q])]
    raise TypeError(f"cannot compile node of type {type(f).__name__}")


def evaluate_program(program: Program, assignment) -> int:
    return A5.product(ins.g1 if assignment[ins.var] else ins.g0 for ins in program)


def evaluate_program_batch(program: Program, assignments: np.ndarray) -> np.ndarray:
    """Products over a batch of assignments (rows of a 0/1 matrix).

    Block by block of instructions, the elements each instruction chooses
    on each assignment form an (assignments, instructions) matrix whose rows
    `A5.products` multiplies out, folded into the running product.  A block
    holds at most EVAL_BLOCK_CELLS choices, so memory stays bounded for any
    program.
    """
    out = np.full(len(assignments), A5.identity, dtype=np.uint8)
    block = max(1, EVAL_BLOCK_CELLS // max(1, len(assignments)))
    for start in range(0, len(program), block):
        part = program[start : start + block]
        var = np.array([ins.var for ins in part], dtype=np.intp)
        g0 = np.array([ins.g0 for ins in part], dtype=np.uint8)
        g1 = np.array([ins.g1 for ins in part], dtype=np.uint8)
        out = A5.times(out, A5.products(np.where(assignments[:, var] == 1, g1, g0)))
    return out


def program_to_json(program: Program) -> list[list[int]]:
    return [[ins.var, ins.g0, ins.g1] for ins in program]


def program_from_json(doc) -> Program:
    return [Instruction(var=int(v), g0=int(g0), g1=int(g1)) for v, g0, g1 in doc]
