import numpy as np
import pytest

import treecast.a5.barrington as barrington
from treecast.a5.barrington import (
    EVAL_BLOCK,
    MAX_PROGRAM_LENGTH,
    Program,
    barrington_compile,
    commutator_witness,
    evaluate_program,
    evaluate_program_batch,
    program_length,
    program_to_json,
)
from treecast.a5.group import A5
from treecast.formulas import Const, Gate, Not, Var, parse_formula, random_formula

TARGET = A5.five_cycles()[0]
INV = A5.inv.tolist()


def _reference_compile(f, target):
    """The compiler as a recursion over lists of (var, g0, g1) tuples, with
    inverses built instruction by instruction: the array compiler must equal
    it exactly."""
    ident = A5.identity
    if isinstance(f, Var):
        return [(f.index, ident, target)]
    if isinstance(f, Const):
        g = target if f.value else ident
        return [(0, g, g)]
    if isinstance(f, Not):
        return _reference_compile(f.child, INV[target]) + [(0, target, target)]
    if f.op == "or":
        return _reference_compile(Not(Gate(op="and", left=Not(f.left), right=Not(f.right))), target)
    a, b, q = commutator_witness(target)
    left = _reference_compile(f.left, a)
    right = _reference_compile(f.right, b)

    def inverse(program):
        return [(v, INV[g0], INV[g1]) for v, g0, g1 in reversed(program)]

    return [(0, q, q)] + left + right + inverse(left) + inverse(right) + [(0, INV[q], INV[q])]


def _random_program(rng, length, n_vars):
    return Program(
        var=rng.integers(0, n_vars, length), g0=rng.integers(0, 60, length), g1=rng.integers(0, 60, length)
    )


def _all_assignments(n):
    return np.array(
        [[(u >> (n - 1 - i)) & 1 for i in range(n)] for u in range(1 << n)], dtype=np.uint8
    )


def _check(formula, n_vars, target=TARGET):
    program = barrington_compile(formula, target)
    assignments = _all_assignments(n_vars)
    products = evaluate_program_batch(program, assignments)
    for row, prod in zip(assignments, products):
        want = target if formula.evaluate(row) else A5.identity
        assert int(prod) == want, (formula.to_text(), row.tolist())
    return program


def test_single_variable():
    program = _check(Var(0), 1)
    assert len(program) == 1
    assert evaluate_program(program, [1]) == TARGET
    assert evaluate_program(program, [0]) == A5.identity


def test_and_gate_all_inputs():
    _check(Gate(op="and", left=Var(0), right=Var(1)), 2)


def test_not_and_or():
    _check(Not(Var(0)), 1)
    _check(Gate(op="or", left=Var(0), right=Var(1)), 2)
    _check(Gate(op="or", left=Not(Var(0)), right=Var(1)), 2)
    _check(Const(1), 1)
    _check(Const(0), 1)


def test_nested_formula():
    f = parse_formula("(and (or x1 (not x2)) (and x3 (not (and x1 x3))))")
    _check(f, 3)


def test_every_five_cycle_target():
    f = Gate(op="and", left=Var(0), right=Not(Var(1)))
    for target in A5.five_cycles():
        a, b, q = commutator_witness(target)
        comm = A5.mul[A5.mul[a, b], A5.mul[A5.inv[a], A5.inv[b]]]
        assert A5.mul[A5.mul[q, comm], A5.inv[q]] == target
        _check(f, 2, target=target)


def test_random_formulas_exhaustive():
    rng = np.random.default_rng(42)
    for _ in range(25):
        n_vars = int(rng.integers(1, 9))
        f = random_formula(rng, n_vars=n_vars, max_gates=32, max_depth=8)
        _check(f, n_vars)


def test_depth_budget():
    f = Var(0)
    for _ in range(21):
        f = Not(f)
    with pytest.raises(ValueError, match="depth"):
        barrington_compile(f, TARGET)


def test_target_must_be_five_cycle():
    with pytest.raises(ValueError):
        barrington_compile(Var(0), A5.identity)
    with pytest.raises(ValueError):
        barrington_compile(Var(0), A5.elements_of_class(1)[0])


def test_program_length_scaling():
    # AND doubles both operands (plus conjugation constants): length 4^depth * O(1).
    f1 = Gate(op="and", left=Var(0), right=Var(1))
    f2 = Gate(op="and", left=f1, right=f1)
    p1 = barrington_compile(f1, TARGET)
    p2 = barrington_compile(f2, TARGET)
    assert len(p2) <= 4 * len(p1) + 6


@pytest.mark.parametrize("block", [1, 4, 7])
def test_batch_product_tree_equals_the_sequential_product(monkeypatch, block):
    # Random programs (not compiled ones, so every product is reachable) of
    # length 0, 1, odd and block size +/- 1, in chunks of `block` instructions
    # (rounded to whole block-table blocks).
    assignments = _all_assignments(3)
    monkeypatch.setattr(barrington, "EVAL_BLOCK_CELLS", block * len(assignments))
    rng = np.random.default_rng(block)
    for length in sorted({0, 1, 3, 9, block - 1, block, block + 1, 2 * block + 1, 5 * block}):
        program = _random_program(rng, length, 3)
        got = evaluate_program_batch(program, assignments)
        assert got.dtype == np.uint8
        assert got.tolist() == [evaluate_program(program, row) for row in assignments], length


def test_batch_evaluation_of_no_assignments():
    program = barrington_compile(Var(0), TARGET)
    assert evaluate_program_batch(program, np.zeros((0, 1), dtype=np.uint8)).shape == (0,)


def test_array_compiler_equals_the_reference_recursion():
    rng = np.random.default_rng(7)
    fives = A5.five_cycles()
    for i in range(200):
        n_vars = int(rng.integers(1, 9))
        f = random_formula(rng, n_vars=n_vars, max_gates=24, max_depth=7)
        target = fives[i % len(fives)]
        program = barrington_compile(f, target)
        want = _reference_compile(f, target)
        assert program_to_json(program) == [list(ins) for ins in want], f.to_text()
        assert len(program) == program_length(f)


def test_program_columns_are_read_only_and_typed():
    program = barrington_compile(parse_formula("(or x1 (not x3))"), TARGET)
    assert (program.var.dtype, program.g0.dtype, program.g1.dtype) == (np.intp, np.uint8, np.uint8)
    for column in (program.var, program.g0, program.g1):
        with pytest.raises(ValueError):
            column[0] = 1


def test_inverse_program_multiplies_to_the_inverse():
    rng = np.random.default_rng(11)
    assignments = _all_assignments(4)
    for length in (0, 1, 5, 33):
        program = _random_program(rng, length, 4)
        products = evaluate_program_batch(program, assignments)
        inverse = Program(*barrington._invert(np.stack(program._columns())))
        assert evaluate_program_batch(inverse, assignments).tolist() == A5.inv[products].tolist()


@pytest.mark.parametrize("rows", [1, 7, 8, 9, 37])
def test_block_tables_equal_the_sequential_product(rows):
    # Lengths around the block size, and assignment counts around the
    # 8-assignment words the choice bits are packed in.
    rng = np.random.default_rng(rows)
    assignments = rng.integers(0, 2, (rows, 5)).astype(np.uint8)
    for length in (0, 1, EVAL_BLOCK - 1, EVAL_BLOCK, EVAL_BLOCK + 1, 5 * EVAL_BLOCK):
        program = _random_program(rng, length, 5)
        got = evaluate_program_batch(program, assignments)
        assert got.tolist() == [evaluate_program(program, row) for row in assignments], length


def test_batch_evaluation_refuses_a_variable_past_the_assignments():
    program = barrington_compile(parse_formula("(and x1 x3)"), TARGET)
    with pytest.raises(ValueError, match="variable 2"):
        evaluate_program_batch(program, np.zeros((4, 2), dtype=np.uint8))


def _complete_formula(depth):
    """A complete formula of the given depth, AND and OR levels alternating,
    its two subtrees one shared object (so it costs `depth` nodes to hold)."""
    f = Var(0)
    for level in range(depth):
        f = Gate(op="or" if level % 2 == 0 else "and", left=f, right=f)
    return f


def test_program_length_follows_the_recursion():
    assert program_length(_complete_formula(2)) == 2 * (2 + 2 + 7) + 2 * (2 + 2 + 7) + 2
    assert program_length(_complete_formula(12)) == 50_331_646
    for depth in range(5):
        f = _complete_formula(depth)
        assert len(barrington_compile(f, TARGET)) == program_length(f)


def test_program_past_the_length_cap_is_refused_before_it_is_built(monkeypatch):
    def never(*args):
        raise AssertionError("the compiler ran")

    monkeypatch.setattr(barrington, "_compile", never)
    f = _complete_formula(12)
    assert program_length(f) > MAX_PROGRAM_LENGTH
    with pytest.raises(ValueError, match="instructions; the limit is"):
        barrington_compile(f, TARGET)
