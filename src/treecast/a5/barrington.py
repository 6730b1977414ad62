"""Compilation of boolean formulas to group programs over the 60-element
tables.

A group program is a sequence of instructions (var, g0, g1); on input x it
multiplies out g_{x[var]} left to right.  A `Program` holds them as three
aligned read-only arrays, `var`, `g0` and `g1`, one entry per instruction.  A
program computes formula f with target c when the product is c on
satisfying inputs and the identity otherwise.  The compilation is the
classic recursion, concatenating instruction columns:

* a variable is one input-conditioned column;
* NOT(f) compiles f with target c^-1 and appends the constant column c;
* AND(f, g) is the conjugated commutator
  q . P_f(a) . P_g(b) . P_f(a)^-1 . P_g(b)^-1 . q^-1, where the five-cycles
  a, b and the conjugator q with q [a,b] q^-1 = c are found by exhaustive
  search at first use (and cached), never hard-coded, and a program's
  inverse is its columns reversed with g0 and g1 mapped through `A5.inv`;
* OR rewrites through De Morgan.

Program length is 4^depth up to constants: `program_length` reads it off
the formula, L(and) = 2 L(f) + 2 L(g) + 2 and L(or) = 2 L(f) + 2 L(g) + 7.
The compiler refuses a formula deeper than MAX_COMPILE_DEPTH levels, or one
whose program would exceed MAX_PROGRAM_LENGTH instructions, before it
allocates anything.

Batch evaluation works on blocks of EVAL_BLOCK consecutive instructions: a
table holds each block's product under each of its 2^EVAL_BLOCK choice
patterns, an assignment's pattern is read from its packed choice bits, and
one lookup per (assignment, block) leaves a short word to multiply out.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..formulas import Const, Formula, Gate, Not, Var
from .group import A5

MAX_COMPILE_DEPTH = 20
# Instructions a compiled program may hold.  A program of 2^20 takes 10 MiB,
# its compilation peaks near 50 MiB, and its JSON rows are ~120 MiB of
# Python objects; a complete AND/OR formula of depth 9 (786,431) fits.
MAX_PROGRAM_LENGTH = 1 << 20
# Largest variable index an instruction may read (it must fit an intp).
MAX_VAR = int(np.iinfo(np.intp).max)
# The inverse table as Python ints: the compiler's scalar lookups are much
# faster than indexing numpy scalars.
_INV = A5.inv.tolist()
# Entries of the (assignments x instructions) choice matrix that
# `evaluate_program_batch` holds at once (at least one block per assignment).
EVAL_BLOCK_CELLS = 1 << 18
# Instructions per block of `evaluate_program_batch`: 2^4 table entries a
# block.  At most 8, so that a block's choice pattern fits in one byte.
EVAL_BLOCK = 4


@dataclass(frozen=True, eq=False)
class Program:
    """Instructions (var[i], g0[i], g1[i]): intp variable indices and uint8
    group elements, each array read-only.  Built from any integer arrays of
    one length, with var >= 0 and g0, g1 in [0, 60); else ValueError."""

    var: np.ndarray
    g0: np.ndarray
    g1: np.ndarray

    def __post_init__(self) -> None:
        cols = [np.asarray(c) for c in (self.var, self.g0, self.g1)]
        if any(c.ndim != 1 or len(c) != len(cols[0]) for c in cols):
            raise ValueError("a program's var, g0 and g1 must be 1-D arrays of one length")
        if len(cols[0]):
            if any(c.dtype.kind not in "iu" for c in cols):
                raise ValueError("a program's entries must be integers")
            if cols[0].min() < 0 or cols[0].max() > MAX_VAR:
                raise ValueError(f"a program's var entries must lie in [0, {MAX_VAR}]")
            if min(c.min() for c in cols[1:]) < 0 or max(c.max() for c in cols[1:]) >= A5.order:
                raise ValueError(f"a program's g0 and g1 entries must lie in [0, {A5.order})")
        for name, col, dtype in zip(("var", "g0", "g1"), cols, (np.intp, np.uint8, np.uint8)):
            col = col.astype(dtype)  # a copy, frozen below
            col.setflags(write=False)
            object.__setattr__(self, name, col)

    def __len__(self) -> int:
        return len(self.var)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Program):
            return NotImplemented
        return all(np.array_equal(a, b) for a, b in zip(self._columns(), other._columns()))

    def _columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.var, self.g0, self.g1


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


def program_length(formula: Formula) -> int:
    """Instruction count of the formula's compiled program, without compiling,
    from one visit per distinct node (`Formula.fold`)."""

    def length(f: Formula, kids: list[int]) -> int:
        if isinstance(f, (Var, Const)):
            return 1
        if isinstance(f, Not):
            return kids[0] + 1
        if isinstance(f, Gate):
            return 2 * sum(kids) + (7 if f.op == "or" else 2)
        raise TypeError(f"cannot compile node of type {type(f).__name__}")

    return formula.fold(length)


def barrington_compile(formula: Formula, target: int) -> Program:
    """Compile a formula so the program multiplies to `target` iff it is true."""
    if not 0 <= target < A5.order or A5.class_code[target] != 3:
        raise ValueError(f"the compilation target must be a five-cycle in [0, {A5.order}), got {target}")
    if formula.depth > MAX_COMPILE_DEPTH:
        raise ValueError(
            f"formula depth {formula.depth} exceeds the budget of {MAX_COMPILE_DEPTH}"
        )
    length = program_length(formula)
    if length > MAX_PROGRAM_LENGTH:
        raise ValueError(
            f"the program would hold {length} instructions; the limit is {MAX_PROGRAM_LENGTH}"
        )
    return Program(*_compile(formula, int(target)))


def _constant(g: int) -> np.ndarray:
    return np.array([[0], [g], [g]])


def _invert(cols: np.ndarray) -> np.ndarray:
    """(3, n) columns (var, g0, g1) reversed, g0 and g1 through `A5.inv`."""
    out = cols[:, ::-1].copy()
    out[1:] = A5.inv.take(out[1:])
    return out


def _compile(f: Formula, target: int) -> np.ndarray:
    """The program of f with `target` as (3, n) int64 columns (var, g0, g1)."""
    if isinstance(f, Var):
        if f.index > MAX_VAR:
            raise ValueError(f"variable index {f.index} exceeds {MAX_VAR}")
        return np.array([[f.index], [A5.identity], [target]])
    if isinstance(f, Const):
        return _constant(target if f.value else A5.identity)
    if isinstance(f, Not):
        return np.concatenate([_compile(f.child, _INV[target]), _constant(target)], axis=1)
    if isinstance(f, Gate):
        if f.op == "or":
            rewritten = Not(Gate(op="and", left=Not(f.left), right=Not(f.right)))
            return _compile(rewritten, target)
        a, b, q = commutator_witness(target)
        left = _compile(f.left, a)
        right = _compile(f.right, b)
        return np.concatenate(
            [_constant(q), left, right, _invert(left), _invert(right), _constant(_INV[q])], axis=1
        )
    raise TypeError(f"cannot compile node of type {type(f).__name__}")


def evaluate_program(program: Program, assignment) -> int:
    choices = zip(program.var.tolist(), program.g0.tolist(), program.g1.tolist())
    return A5.product(g1 if assignment[var] else g0 for var, g0, g1 in choices)


def evaluate_program_batch(program: Program, assignments: np.ndarray) -> np.ndarray:
    """Products over a batch of assignments (rows of a 0/1 matrix), as uint8.

    The program is padded with identity instructions to whole blocks of
    B = EVAL_BLOCK instructions, and read chunk by chunk of blocks:

    * a (blocks, 2^B) table holds each block's product under each choice
      pattern, instruction j choosing g1 at bit B-1-j of the pattern;
    * the assignments' choice bits, variable-major and in uint64 words of 8
      assignments, are shifted and or-ed into one pattern byte per
      (block, assignment), 8 assignments a word operation;
    * the (blocks, assignments) table lookups are multiplied out and folded
      into the running product.

    A chunk holds at most EVAL_BLOCK_CELLS choices (or B per assignment), so
    memory stays bounded for any program.  Raises ValueError if an
    instruction reads a variable at or past the assignments' width.
    """
    assignments = np.asarray(assignments)
    rows = len(assignments)
    out = np.full(rows, A5.identity, dtype=np.uint8)
    if not len(program):
        return out
    width = assignments.shape[1]
    if program.var.max() >= width:
        raise ValueError(
            f"the program reads variable {int(program.var.max())} of assignments {width} wide"
        )
    bits = np.zeros((width, -(-rows // 8) * 8), dtype=np.uint8)
    bits[:, :rows] = assignments.T == 1
    pad = -len(program) % EVAL_BLOCK
    var = np.concatenate([program.var, np.zeros(pad, dtype=np.intp)])
    choices = np.full((len(var), 2), A5.identity, dtype=np.uint8)
    choices[: len(program), 0], choices[: len(program), 1] = program.g0, program.g1
    step = max(EVAL_BLOCK, EVAL_BLOCK_CELLS // max(1, rows) // EVAL_BLOCK * EVAL_BLOCK)
    for start in range(0, len(var), step):
        part = slice(start, start + step)
        blocks = len(var[part]) // EVAL_BLOCK
        block_choices = choices[part].reshape(blocks, EVAL_BLOCK, 2)
        table = block_choices[:, 0]
        words = bits[var[part]].view(np.uint64).reshape(blocks, EVAL_BLOCK, -1)
        pattern = words[:, 0].copy()
        for j in range(1, EVAL_BLOCK):
            table = A5.times(table[:, :, None], block_choices[:, j, None, :]).reshape(blocks, -1)
            pattern <<= np.uint64(1)
            pattern |= words[:, j]
        lookup = pattern.view(np.uint8)[:, :rows] + np.arange(0, table.size, table.shape[1])[:, None]
        out = A5.times(out, A5.products(table.reshape(-1).take(lookup).T))
    return out


def program_to_json(program: Program) -> list[list[int]]:
    return np.stack(program._columns(), axis=1).tolist()
