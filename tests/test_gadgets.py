from fractions import Fraction

import numpy as np
import pytest

from treecast.formulas import Const, Gate, Not, Var, parse_formula, random_formula
from treecast.gadgets import (
    CONST0,
    CONST1,
    LeafTemplate,
    compile_formula,
    gadget_posterior_bound,
    lemma_grid_check,
    negvar_entry,
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
        assert t.entries.tolist() == [negvar_entry(0)] * 4 + [CONST0] * 2

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

    def test_tags_roundtrip(self):
        t = compile_formula(parse_formula("(or x1 (not x2))"))
        back = LeafTemplate.from_tags(t.depth, t.to_tags())
        assert np.array_equal(back.entries, t.entries)


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
        comp = template.complement()
        from treecast.bp import LeafLikelihood, bp_posterior
        from treecast.gadgets import gadget_channel
        from treecast.trees import TreeShape

        shape = TreeShape(k=6, d=template.depth)
        for bits in range(4):
            a = [(bits >> 1) & 1, bits & 1]
            p = bp_posterior(
                shape,
                gadget_channel(),
                LeafLikelihood.from_labels(template.instantiate(a), 2),
                mode="rational",
            ).masses[1]
            q = bp_posterior(
                shape,
                gadget_channel(),
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


def test_gadget_corpus_counts_at_the_default_seed():
    # The corpus draws its formulas from the PCG64 stream of
    # SeedSpec(seed, "gadget-corpus"); these counts pin that stream.
    from treecast.experiments import GadgetCorpusReport, run_gadget_corpus

    assert run_gadget_corpus() == GadgetCorpusReport(
        formulas=100, assignments_checked=16_112, violations=0
    )
