import numpy as np
import pytest

from treecast.formulas import (
    Const,
    Gate,
    Not,
    Var,
    assignments,
    evaluate_all,
    parse_formula,
    random_formula,
)


def test_parse_and_roundtrip():
    text = "(and x1 (not x2))"
    f = parse_formula(text)
    assert f.to_text() == text
    assert f.evaluate([1, 0]) == 1
    assert f.evaluate([1, 1]) == 0
    assert f.variables() == {0, 1}


def test_parse_constants_and_or():
    f = parse_formula("(or 0 (and 1 x3))")
    assert f.evaluate([0, 0, 1]) == 1
    assert f.evaluate([0, 0, 0]) == 0


def test_depth_convention():
    assert Var(0).depth == 0
    assert Const(1).depth == 0
    assert Not(Var(0)).depth == 1
    assert Gate(op="and", left=Var(0), right=Not(Var(1))).depth == 2


def test_gate_count():
    f = parse_formula("(and (not x1) (or x2 x3))")
    assert f.gate_count() == 3


def test_parse_errors():
    for bad in ("", "(and x1)", "(xor x1 x2)", "x0", "(not x1))", "(and x1 x2 x3)"):
        with pytest.raises(ValueError):
            parse_formula(bad)


def test_evaluate_all_column():
    f = parse_formula("(and x1 x2)")
    assert evaluate_all(f, 2).tolist() == [0, 0, 0, 1]


@pytest.mark.parametrize("n_vars", [0, 1, 3, 8])
def test_assignments_are_the_bits_of_each_row_index_high_bit_first(n_vars):
    table = assignments(n_vars)
    assert table.dtype == np.uint8 and table.shape == (1 << n_vars, n_vars)
    want = [[(u >> (n_vars - 1 - i)) & 1 for i in range(n_vars)] for u in range(1 << n_vars)]
    assert table.tolist() == want


def test_random_formula_budgets():
    rng = np.random.default_rng(0)
    for _ in range(50):
        f = random_formula(rng, n_vars=5, max_gates=12, max_depth=4)
        assert f.depth <= 4
        assert f.gate_count() <= 12
        f.evaluate([0, 1, 0, 1, 1])
