import time
import tracemalloc

import numpy as np
import pytest

from treecast.a5.barrington import barrington_compile, program_length
from treecast.a5.group import A5
from treecast.formulas import (
    MAX_ASSIGNMENT_VARS,
    MAX_NESTING,
    Const,
    Gate,
    Not,
    Var,
    assignments,
    evaluate_all,
    parse_formula,
    random_formula,
)
from treecast.gadgets import compile_formula


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


def test_parse_nesting_limit():
    assert parse_formula("(not " * MAX_NESTING + "x1" + ")" * MAX_NESTING).depth == MAX_NESTING
    deeper = "(not " * (MAX_NESTING + 1) + "x1" + ")" * (MAX_NESTING + 1)
    with pytest.raises(ValueError, match=f"formula nests deeper than {MAX_NESTING} gates"):
        parse_formula(deeper)


def test_evaluate_all_column():
    f = parse_formula("(and x1 x2)")
    assert evaluate_all(f, 2).tolist() == [0, 0, 0, 1]


@pytest.mark.parametrize("n_vars", [0, 1, 3, 8])
def test_assignments_are_the_bits_of_each_row_index_high_bit_first(n_vars):
    table = assignments(n_vars)
    assert table.dtype == np.uint8 and table.shape == (1 << n_vars, n_vars)
    want = [[(u >> (n_vars - 1 - i)) & 1 for i in range(n_vars)] for u in range(1 << n_vars)]
    assert table.tolist() == want


@pytest.mark.parametrize("n_vars", [MAX_ASSIGNMENT_VARS + 1, 25, 40, 99999999999, -1])
def test_assignments_past_the_cap_raise_before_allocating(n_vars):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"{n_vars} variables; the limit is {MAX_ASSIGNMENT_VARS}"):
            assignments(n_vars)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def test_random_formula_budgets():
    rng = np.random.default_rng(0)
    for _ in range(50):
        f = random_formula(rng, n_vars=5, max_gates=12, max_depth=4)
        assert f.depth <= 4
        assert f.gate_count() <= 12
        f.evaluate([0, 1, 0, 1, 1])


def _path_walks(f):
    """(depth, variables, gate count, program length) by plain recursion over
    every root-to-leaf path: the reference for trees, where paths are nodes."""
    if isinstance(f, Var):
        return 0, {f.index}, 0, 1
    if isinstance(f, Const):
        return 0, set(), 0, 1
    if isinstance(f, Not):
        d, v, g, n = _path_walks(f.child)
        return d + 1, v, g + 1, n + 1
    dl, vl, gl, nl = _path_walks(f.left)
    dr, vr, gr, nr = _path_walks(f.right)
    return 1 + max(dl, dr), vl | vr, 1 + gl + gr, 2 * nl + 2 * nr + (7 if f.op == "or" else 2)


def test_walks_on_random_tree_formulas_match_the_path_recursion():
    rng = np.random.default_rng(3)
    for _ in range(200):
        f = random_formula(rng, n_vars=6, max_gates=30, max_depth=7)
        assert (f.depth, f.variables(), f.gate_count(), program_length(f)) == _path_walks(f)


def _shared_formula(levels):
    """`levels` AND gates, each with one object as both children: 2^levels
    leaves held in levels + 1 objects."""
    f = Var(0)
    for _ in range(levels):
        f = Gate(op="and", left=f, right=f)
    return f


def test_walks_visit_each_distinct_node_once():
    f = _shared_formula(60)
    assert (f.depth, f.variables(), f.gate_count()) == (60, {0}, 2**60 - 1)
    assert program_length(f) == 4**60 + 2 * (4**60 - 1) // 3  # L = 4 L' + 2, L(x) = 1
    chain = Var(0)
    for _ in range(5000):  # far past the recursion limit: the walks use a stack
        chain = Not(chain)
    assert (chain.depth, chain.gate_count(), program_length(chain)) == (5000, 5000, 5001)


class _CountingAssignment:
    """0/1 per variable, counting the reads of each."""

    def __init__(self, bits):
        self.bits, self.reads = bits, [0] * len(bits)

    def __getitem__(self, i):
        self.reads[i] += 1
        return self.bits[i]


def test_evaluate_reads_each_variable_once_on_a_shared_formula():
    # 2^16 paths reach x1; level i gives f or (f and x_{i+1}) = f, or
    # f and (f and x_{i+1}), so f = x1 and x3 and ... and x17.
    f = Var(0)
    for i in range(1, 17):
        f = Gate(op="or" if i % 2 else "and", left=f, right=Gate(op="and", left=f, right=Var(i)))
    for bits, want in (([1] * 17, 1), ([1] * 16 + [0], 0), ([1, 0] * 8 + [1], 1)):
        assignment = _CountingAssignment(bits)
        assert f.evaluate(assignment) == want
        assert assignment.reads == [1] * 17


def test_hash_visits_each_distinct_node_once_on_a_shared_formula(monkeypatch):
    # The formula of the test above: 2^16 paths reach x1.
    def shared():
        f = Var(0)
        for i in range(1, 17):
            f = Gate(op="or" if i % 2 else "and", left=f, right=Gate(op="and", left=f, right=Var(i)))
        return f

    f, g = shared(), shared()
    var_hash, hashed = Var.__hash__, []

    def counting_hash(self):
        hashed.append(self.index)
        return var_hash(self)

    monkeypatch.setattr(Var, "__hash__", counting_hash)
    assert hash(f) == hash(g)
    assert sorted(hashed) == sorted(list(range(17)) * 2)
    assert hash(_shared_formula(60)) == hash(_shared_formula(60))
    assert len({f, g, Not(f), Not(g), Gate(op="or", left=f, right=g)}) == 3


def test_eq_visits_each_distinct_node_pair_once_on_shared_formulas(monkeypatch):
    var_eq, compared = Var.__eq__, []

    def counting_eq(self, other):
        compared.append(self.index)
        return var_eq(self, other)

    monkeypatch.setattr(Var, "__eq__", counting_eq)
    # 2^20 paths reach the one Var of each tower; 21 node pairs.
    assert _shared_formula(20) == _shared_formula(20)
    assert compared == [0]

    # The formula of the hash test: 2^16 paths reach x1, each Var pair once.
    def shared():
        f = Var(0)
        for i in range(1, 17):
            f = Gate(op="or" if i % 2 else "and", left=f, right=Gate(op="and", left=f, right=Var(i)))
        return f

    compared.clear()
    assert shared() == shared()
    assert sorted(compared) == list(range(17))


def test_eq_tells_formulas_apart():
    deep = Var(1)
    for _ in range(20):
        deep = Gate(op="and", left=deep, right=deep)
    assert _shared_formula(20) != deep  # differ only at the deepest Var
    x, y = Var(0), Var(1)
    assert Gate(op="and", left=x, right=y) != Gate(op="or", left=x, right=y)
    assert Not(x) != Gate(op="and", left=x, right=x) and Not(x) != x
    assert Not(x).__eq__(x) is NotImplemented


def test_evaluate_all_equals_each_assignment_evaluated():
    rng = np.random.default_rng(5)
    for _ in range(100):
        f = random_formula(rng, n_vars=5, max_gates=20, max_depth=6)
        column = evaluate_all(f, 5)
        assert column.dtype == np.uint8
        assert column.tolist() == [f.evaluate(a) for a in assignments(5)]
    assert evaluate_all(Const(1), 0).tolist() == [1]
    assert evaluate_all(Not(Const(1)), 2).tolist() == [0, 0, 0, 0]


@pytest.mark.parametrize("compile_", [compile_formula, lambda f: barrington_compile(f, A5.five_cycles()[0])])
def test_compilers_refuse_a_deep_shared_formula_at_once(compile_):
    f = _shared_formula(20)
    start = time.perf_counter()
    with pytest.raises(ValueError):
        compile_(f)
    assert time.perf_counter() - start < 0.1

