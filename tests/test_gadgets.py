import itertools
from fractions import Fraction

import numpy as np
import pytest

import treecast.gadgets as gadgets
from treecast.estimators import CHUNK_CELLS
from treecast.formulas import Const, Gate, Not, Var, assignments, parse_formula, random_formula
from treecast.gadgets import (
    CONST0,
    CONST1,
    MAX_VARIABLE,
    GridCheckResult,
    LeafTemplate,
    check_all_assignments,
    compile_formula,
    gadget_posterior_bound,
    lemma_grid_check,
    var_entry,
    verify_gadget,
)

HIGH = Fraction(19, 20)
LOW = Fraction(1, 20)


class TestPosteriorBound:
    def test_four_high_two_zero(self):
        val = gadget_posterior_bound([HIGH] * 4 + [0, 0])
        assert val > HIGH

    def test_all_high_beats_partial(self):
        partial = gadget_posterior_bound([1, 1, 1, 1, 0, 0])
        full = gadget_posterior_bound([1] * 6)
        assert partial > HIGH
        assert full > partial

    def test_symmetric_half(self):
        assert gadget_posterior_bound([Fraction(1, 2)] * 6) == Fraction(1, 2)

    def test_complement_symmetry(self):
        ps = [Fraction(9, 10), Fraction(1, 5), 1, 0, Fraction(1, 2), Fraction(3, 4)]
        val = gadget_posterior_bound(ps)
        comp = gadget_posterior_bound([1 - p for p in ps])
        assert val + comp == 1

    def test_input_validation(self):
        with pytest.raises(ValueError):
            gadget_posterior_bound([Fraction(3, 2)] + [Fraction(1, 2)] * 5)
        with pytest.raises(ValueError):
            gadget_posterior_bound([Fraction(1, 2)] * 5)


class TestCompile:
    def test_var_base_case(self):
        t = compile_formula(Var(0))
        assert t.depth == 0
        assert t.entries.tolist() == [var_entry(0)]

    def test_not_var_template(self):
        t = compile_formula(Not(Var(0)))
        assert t.depth == 1
        assert t.entries.tolist() == [var_entry(0) + 1] * 4 + [CONST0] * 2

    def test_template_lengths(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            f = random_formula(rng, n_vars=4, max_gates=10, max_depth=4)
            t = compile_formula(f)
            assert len(t) == 6**t.depth == 6**f.depth

    def test_depth_overflow(self):
        f = Var(0)
        for _ in range(7):
            f = Not(f)
        with pytest.raises(ValueError):
            compile_formula(f)

    def test_unbound_variable(self):
        t = compile_formula(Gate(op="and", left=Var(0), right=Var(3)))
        with pytest.raises(ValueError):
            t.instantiate([1, 0])


class TestTracking:
    def test_and_gate_all_assignments(self):
        f = Gate(op="and", left=Var(0), right=Var(1))
        for bits in range(4):
            a = [(bits >> 1) & 1, bits & 1]
            verdict = verify_gadget(f, a, mode="rational")
            assert verdict.tracks
            if f.evaluate(a):
                assert verdict.posterior_exact >= HIGH
            else:
                assert verdict.posterior_exact <= LOW

    def test_complement_duality_exact(self):
        f = parse_formula("(or x1 (and x2 (not x1)))")
        template = compile_formula(f)
        comp = LeafTemplate(template.depth, template.entries ^ 1)
        from treecast.bp import LeafLikelihood, bp_posterior
        from treecast.trees import TreeShape

        shape = TreeShape(k=6, d=template.depth)
        for bits in range(4):
            a = [(bits >> 1) & 1, bits & 1]
            p = bp_posterior(
                shape,
                gadgets._GADGET_CHANNEL,
                LeafLikelihood.from_labels(template.instantiate(a), 2),
                mode="rational",
            ).masses[1]
            q = bp_posterior(
                shape,
                gadgets._GADGET_CHANNEL,
                LeafLikelihood.from_labels(comp.instantiate(a), 2),
                mode="rational",
            ).masses[1]
            assert p + q == 1

    def test_all_const_one_depth_three(self):
        template = LeafTemplate(depth=3, entries=np.full(216, CONST1, dtype=np.int32))
        verdict = verify_gadget(Const(1), [0], mode="rational", template=template)
        assert verdict.posterior_exact > HIGH

    def test_small_corpus_tracks(self):
        rng = np.random.default_rng(7)
        for _ in range(12):
            f = random_formula(rng, n_vars=4, max_gates=10, max_depth=4)
            template = compile_formula(f)
            n_vars = (max(f.variables()) + 1) if f.variables() else 1
            for bits in range(1 << n_vars):
                a = [(bits >> (n_vars - 1 - i)) & 1 for i in range(n_vars)]
                verdict = verify_gadget(f, a, mode="float", template=template)
                assert verdict.tracks, (f.to_text(), a)
                # never in the ambiguous band
                assert not (float(LOW) + 1e-9 < verdict.posterior < float(HIGH) - 1e-9)

    def test_float_matches_rational_spot(self):
        f = parse_formula("(and (or x1 x2) (not x3))")
        template = compile_formula(f)
        for a in ([1, 0, 0], [0, 0, 1], [1, 1, 0]):
            r = verify_gadget(f, a, mode="rational", template=template)
            fl = verify_gadget(f, a, mode="float", template=template)
            assert fl.posterior == pytest.approx(r.posterior, abs=1e-9)


def _random_formulas(seed, count, max_depth, min_depth=0):
    """Seeded random formulas over x1..x4, negated until at least `min_depth` deep."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        f = random_formula(rng, n_vars=4, max_gates=10, max_depth=max_depth)
        while f.depth < min_depth:
            f = Not(f)
        out.append(f)
    return out


class TestCheckAllAssignments:
    @pytest.mark.parametrize("mode", ["rational", "float"])
    def test_matches_verify_gadget_row_by_row(self, mode):
        formulas = _random_formulas(11, 20, max_depth=4)
        if mode == "float":
            formulas += _random_formulas(12, 3, max_depth=4, min_depth=6)
        depths = set()
        for f in formulas:
            template = compile_formula(f)
            depths.add(template.depth)
            posts, tracks = check_all_assignments(f, template, mode)
            table = assignments(max(f.variables(), default=0) + 1)
            assert posts.shape == tracks.shape == (len(table),)
            for post, track, a in zip(posts, tracks, table):
                verdict = verify_gadget(f, a, mode=mode, template=template)
                assert track == verdict.tracks, (f.to_text(), a)
                if mode == "rational":
                    assert post == float(verdict.posterior_exact)
                else:
                    assert post == pytest.approx(verdict.posterior, abs=1e-9)
        assert max(depths) == (6 if mode == "float" else 4)

    @pytest.mark.parametrize("mode", ["rational", "float"])
    def test_complemented_templates_track_nowhere(self, mode):
        for f in _random_formulas(13, 6, max_depth=3):
            template = compile_formula(f)
            assert check_all_assignments(f, template, mode)[1].all()
            assert not check_all_assignments(f, LeafTemplate(template.depth, template.entries ^ 1), mode)[1].any()

    def test_auto_resolves_as_bp_posterior(self):
        f = parse_formula("(and (or x1 x2) (not x3))")
        template = compile_formula(f)
        exact = check_all_assignments(f, template, "rational")[0]
        assert np.array_equal(check_all_assignments(f, template)[0], exact)
        with pytest.raises(ValueError, match="unknown mode"):
            check_all_assignments(f, template, "exact")

    def test_float_mode_scores_one_chunk_of_rows_at_a_time(self, monkeypatch):
        rows_per_call = []
        real = gadgets.bp_posterior_batch_binary

        def spy(shape, theta, leaves, *args):
            rows_per_call.append(len(leaves))
            return real(shape, theta, leaves, *args)

        monkeypatch.setattr(gadgets, "bp_posterior_batch_binary", spy)
        f = Not(Not(parse_formula("(or (and x1 (or x2 x3)) (and (or x4 x5) (and x6 (or x7 x8))))")))
        template = compile_formula(f)
        assert template.depth == 6
        posts, tracks = check_all_assignments(f, template, "auto")
        assert tracks.all() and len(posts) == 256
        assert sum(rows_per_call) == 256 and len(rows_per_call) > 1
        assert max(rows_per_call) <= 1 + CHUNK_CELLS // len(template)


class TestGrid:
    def test_coarse_grid_passes_with_corner_minimizer(self):
        result = lemma_grid_check(Fraction(1, 20))
        assert result.passed
        assert result.min_point == (HIGH, HIGH, HIGH, HIGH, Fraction(0), Fraction(0))
        assert result.min_value >= HIGH

    def test_complement_grid_spot(self):
        # Four coordinates <= 0.05 push the posterior below 1/20.
        for lows in ([0, 0, 0, 0], [Fraction(1, 20)] * 4):
            ps = list(lows) + [Fraction(1), Fraction(1, 2)]
            assert gadget_posterior_bound(ps) <= LOW

    def test_step_validation(self):
        with pytest.raises(ValueError):
            lemma_grid_check(Fraction(1, 10))

    def test_closed_form_equals_the_exact_brute_force_minimum(self):
        high = [HIGH, Fraction(1)]
        low = [Fraction(i, 20) for i in range(21)]
        points = list(itertools.product(*[high] * 4, *[low] * 2))
        values = [gadget_posterior_bound(p) for p in points]
        best = min(range(len(points)), key=values.__getitem__)
        result = lemma_grid_check(Fraction(1, 20))
        assert result.points_checked == len(points) == 7_056
        assert (result.min_point, result.min_value) == (points[best], values[best])
        assert result.passed == (values[best] >= HIGH)

    def test_fine_grid_result(self):
        corner = (HIGH,) * 4 + (Fraction(0),) * 2
        assert lemma_grid_check(Fraction(1, 100)) == GridCheckResult(
            passed=True,
            min_point=corner,
            min_value=Fraction(1_073_283_121, 1_120_329_002),
            points_checked=13_220_496,
        )
        assert gadget_posterior_bound(corner) == Fraction(1_073_283_121, 1_120_329_002)


def test_gadget_corpus_counts_at_the_default_seed():
    # Formula f of the corpus draws from the counter words of
    # subkey(SeedSpec(seed, "gadget-corpus").key(), f); these counts pin them.
    from treecast.experiments import GadgetCorpusReport, run_gadget_corpus

    assert run_gadget_corpus() == GadgetCorpusReport(
        formulas=100, assignments_checked=13_568, violations=0
    )


def test_gadget_corpus_formula_is_a_function_of_seed_and_index():
    from treecast.experiments import _CounterDraws
    from treecast.rng import SeedSpec, subkey, word

    def formula(seed, f):  # formula f of the corpus of `seed`
        draws = _CounterDraws(subkey(SeedSpec(seed, "gadget-corpus").key(), f))
        return random_formula(draws, n_vars=8, max_gates=24, max_depth=5).to_text()

    forward = [formula(1, f) for f in range(8)]
    assert [formula(1, f) for f in reversed(range(8))] == forward[::-1]
    assert len(set(forward)) > 1
    assert [formula(2, f) for f in range(8)] != forward
    # Draw i inverts word(key, i), whatever the draws before it asked for.
    draws = _CounterDraws(77)
    assert draws.random() == (word(77, 0) >> 11) / 2**53
    assert {draws.integers(2, 7) for _ in range(500)} == {2, 3, 4, 5, 6}
    assert draws.random() == (word(77, 501) >> 11) / 2**53


def test_variables_past_the_int32_entry_codes_are_value_errors():
    last = compile_formula(Var(MAX_VARIABLE))
    assert last.entries.tolist() == [var_entry(MAX_VARIABLE)]
    assert var_entry(MAX_VARIABLE) + 1 == np.iinfo(np.int32).max
    for f in (Var(MAX_VARIABLE + 1), Not(Var(99999999998)), parse_formula("(and x1 x99999999999)")):
        with pytest.raises(ValueError, match="int32 entry codes"):
            compile_formula(f)
