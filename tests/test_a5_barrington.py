import numpy as np
import pytest

import treecast.a5.barrington as barrington
from treecast.a5.barrington import (
    Instruction,
    barrington_compile,
    commutator_witness,
    evaluate_program,
    evaluate_program_batch,
    program_from_json,
    program_to_json,
)
from treecast.a5.group import A5
from treecast.formulas import Const, Gate, Not, Var, parse_formula, random_formula

TARGET = A5.five_cycles()[0]


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
        assert A5.conjugate(int(comm), q) == target
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


def test_program_json_roundtrip():
    program = barrington_compile(parse_formula("(and x1 x2)"), TARGET)
    doc = program_to_json(program)
    assert program_from_json(doc) == program


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
    # length 0, 1, odd and block size +/- 1, in blocks of `block` instructions.
    assignments = _all_assignments(3)
    monkeypatch.setattr(barrington, "EVAL_BLOCK_CELLS", block * len(assignments))
    rng = np.random.default_rng(block)
    for length in sorted({0, 1, 3, 9, block - 1, block, block + 1, 2 * block + 1, 5 * block}):
        program = [
            Instruction(var=int(v), g0=int(g0), g1=int(g1))
            for v, g0, g1 in zip(
                rng.integers(0, 3, length), rng.integers(0, 60, length), rng.integers(0, 60, length)
            )
        ]
        got = evaluate_program_batch(program, assignments)
        assert got.dtype == np.uint8
        assert got.tolist() == [evaluate_program(program, row) for row in assignments], length


def test_batch_evaluation_of_no_assignments():
    program = barrington_compile(Var(0), TARGET)
    assert evaluate_program_batch(program, np.zeros((0, 1), dtype=np.uint8)).shape == (0,)
