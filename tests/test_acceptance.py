"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Criterion 7 asserts, among other things, that the exact
noisy-recovery accuracy is nonincreasing in the depth at every fixed noise
level; that sub-claim is mathematically false for s in (0, 1/2) (deeper
levels supply more noisy observations), so the test fails honestly on that
part.  See the repository notes for the worked counterexample.
"""

import time
from fractions import Fraction
from math import sqrt
from pathlib import Path

import numpy as np
from scipy.stats import chi2

from treecast.bp import LeafLikelihood, bp_posterior
from treecast.channels import Channel, as_fraction, ks_parameter
from treecast.estimators import (
    estimate_P_sd,
    exact_P_sd,
    leaf_ones_counts,
    majority_misclassification,
)
from treecast.experiments import (
    ExperimentConfig,
    emit,
    run_gadget_corpus,
    run_ks_scan,
)
from treecast.generators import (
    biased_bit_approx_from_bits,
    biased_bit_exact_from_bits,
    generate_binary_batch,
    path_product_leaf_law,
    restriction_leaf_law,
    total_variation,
)
from treecast.oracle import enumerate_joint, expected_leaf_sum, pair_equal_probability
from treecast.rng import SeedSpec, subkey
from treecast.trees import TreeShape

SEED = 20240817


def _report(criterion: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    line = f"[acceptance] {status} {criterion}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)
    assert passed, f"{criterion}: {detail}"


def _bits(u: int, n: int):
    return [(u >> (n - 1 - i)) & 1 for i in range(n)]


def test_c01_bp_exact_vs_oracle():
    t0 = time.perf_counter()
    mismatches = 0
    total = 0
    for k, dmax in ((2, 3), (3, 2)):
        for d in range(1, dmax + 1):
            shape = TreeShape(k=k, d=d)
            for theta in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
                channel = Channel.binary(theta)
                joint = enumerate_joint(shape, channel)
                for cfg in joint.configurations():
                    want = tuple(joint.posterior(cfg))
                    got = bp_posterior(
                        shape, channel, LeafLikelihood.from_labels(cfg, 2), mode="rational"
                    ).masses
                    total += 1
                    mismatches += got != want
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 1: rational BP equals the enumeration oracle",
        mismatches == 0 and elapsed < 5,
        f"{total} configurations, {mismatches} mismatches, {elapsed:.2f}s",
    )


def test_c02_generator_equivalence_exact():
    t0 = time.perf_counter()
    shape = TreeShape(k=2, d=2)
    worst = Fraction(0)
    for theta in (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)):
        joint = enumerate_joint(shape, Channel.binary(theta))
        for root in (0, 1):
            for law_fn in (path_product_leaf_law, restriction_leaf_law):
                tv = total_variation(joint.cond[root], law_fn(shape, theta, root))
                worst = max(worst, tv)
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 2: direct/path-product/restriction leaf laws identical",
        worst == 0 and elapsed < 5,
        f"worst TV = {worst}, {elapsed:.2f}s",
    )


def test_c03_correlation_and_mean_laws():
    t0 = time.perf_counter()
    # Exact on small trees.
    exact_ok = True
    for k, d in ((2, 3), (3, 2)):
        shape = TreeShape(k=k, d=d)
        theta = Fraction(4, 5)
        joint = enumerate_joint(shape, Channel.binary(theta))
        n = shape.n
        exact_ok &= expected_leaf_sum(joint, 1) == Fraction(n, 2) + n * theta**d / 2
        for r in range(1, d + 1):
            j = k ** (r - 1)
            want = Fraction(1, 2) + theta ** (2 * r) / 2
            exact_ok &= pair_equal_probability(joint, 0, j) == want
    # Monte Carlo at k=3, d=6, theta=0.8 with 1e5 samples.
    shape = TreeShape(k=3, d=6)
    theta = Fraction(4, 5)
    trials = 100_000
    _, leaves = generate_binary_batch(
        shape, theta, SeedSpec(SEED, "c3/corr"), trials, "direct"
    )
    corr_ok = True
    corr_detail = []
    for r in (1, 3, 6):
        j = 3 ** (r - 1)
        agree = (leaves[:, 0] == leaves[:, j]).mean()
        want = 0.5 + float(theta) ** (2 * r) / 2
        stderr = sqrt(max(agree * (1 - agree), 1e-9) / trials)
        corr_ok &= abs(agree - want) <= 3 * stderr
        corr_detail.append(f"r={r}: {agree:.4f} vs {want:.4f}")
    _, leaves1 = generate_binary_batch(
        shape, theta, SeedSpec(SEED, "c3/mean"), trials, "direct",
        roots=np.ones(trials, dtype=np.uint8),
    )
    sums = leaves1.sum(axis=1)
    want_mean = shape.n / 2 + shape.n * float(theta) ** shape.d / 2
    mean_err = abs(sums.mean() - want_mean)
    mean_band = 3 * sums.std(ddof=1) / sqrt(trials)
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 3: pairwise-correlation and conditional-mean laws",
        exact_ok and corr_ok and mean_err <= mean_band and elapsed < 30,
        f"mean {sums.mean():.2f} vs {want_mean:.2f} (band {mean_band:.2f}); "
        + "; ".join(corr_detail)
        + f"; {elapsed:.1f}s",
    )


def test_c04_majority_deviation_bound():
    t0 = time.perf_counter()
    rep = majority_misclassification(
        TreeShape(k=10, d=6), Fraction(3, 5), trials=10_000, seed=SeedSpec(SEED, "c4")
    )
    miss = 1 - rep.accuracy
    bound = 1 / (0.6**2 * 10 - 1)
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 4: majority misclassification under the variance bound",
        miss <= bound + 3 * rep.stderr and elapsed < 60,
        f"miss = {miss:.4f}, bound = {bound:.4f}, {elapsed:.1f}s",
    )


def test_c05_ks_phase_behavior():
    t0 = time.perf_counter()
    trials = 10_000
    advantages = {}
    for theta in (0.5, 0.8):
        for d in (4, 6, 8, 10):
            seed = SeedSpec(SEED, f"c5/{int(theta * 10) * 100 + d}")
            ones = leaf_ones_counts(2, d, theta, root=1, trials=trials, seed=seed)
            n = 2**d
            acc = float(
                (2 * ones > n).sum() + 0.5 * (2 * ones == n).sum()
            ) / trials
            advantages[(theta, d)] = acc - 0.5
    subcritical_ok = advantages[(0.5, 10)] < 0.02
    supercritical_ok = all(advantages[(0.8, d)] >= 0.05 for d in (4, 6, 8, 10))
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 5: majority advantage dies below the threshold, survives above",
        subcritical_ok and supercritical_ok and elapsed < 300,
        f"adv(0.5, d=10) = {advantages[(0.5, 10)]:.4f}; "
        f"min adv(0.8) = {min(advantages[(0.8, d)] for d in (4, 6, 8, 10)):.4f}; {elapsed:.1f}s",
    )


def test_c06_linearized_bp_near_optimal():
    t0 = time.perf_counter()
    from treecast.experiments import score_estimators_point

    accs = score_estimators_point(
        15, as_fraction("7/10"), 4, 10_000, SeedSpec(SEED, "c6")
    )
    gap_bp = abs(accs["linearized-bp"] - accs["bp-rounding"])
    gap_maj = accs["linearized-bp"] - accs["majority"]
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 6: linearized BP is near Bayes rounding and not behind majority",
        gap_bp <= 0.02 and gap_maj >= -0.01 and elapsed < 600,
        f"lbp = {accs['linearized-bp']:.4f}, bp = {accs['bp-rounding']:.4f}, "
        f"majority = {accs['majority']:.4f}, {elapsed:.0f}s",
    )


def _c07_exact_grid():
    shape_theta = Fraction(9, 10)
    s_grid = [Fraction(i, 10) for i in range(6)]
    d_grid = [1, 2, 3]
    exact = {
        (d, s): exact_P_sd(TreeShape(k=2, d=d), shape_theta, s)
        for d in d_grid
        for s in s_grid
    }
    return shape_theta, s_grid, d_grid, exact


def test_c07_noisy_recovery_structure():
    t0 = time.perf_counter()
    shape_theta, s_grid, d_grid, exact = _c07_exact_grid()
    mono_s = all(
        exact[(d, s_grid[i])] >= exact[(d, s_grid[i + 1])]
        for d in d_grid
        for i in range(len(s_grid) - 1)
    )
    _report(
        "criterion 7a: exact noisy-recovery accuracy nonincreasing in s",
        mono_s,
        "verified on the full (d, s) grid",
    )
    mc_ok = True
    mc_detail = []
    for d, s in ((2, Fraction(1, 5)), (3, Fraction(1, 10)), (3, Fraction(2, 5))):
        est = estimate_P_sd(
            TreeShape(k=2, d=d), shape_theta, s, 4000, SeedSpec(SEED, f"c7/{d}/{s}"),
            method="mc",
        )
        want = float(exact[(d, s)])
        mc_ok &= abs(est.estimate - want) <= 3 * est.stderr
        mc_detail.append(f"d={d},s={s}: {est.estimate:.3f} vs {want:.3f}")
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 7c: Monte Carlo estimates agree with exact values",
        mc_ok and elapsed < 60,
        "; ".join(mc_detail) + f"; {elapsed:.1f}s",
    )


def test_c07b_monotone_in_depth_known_defect():
    """The stated in-d monotonicity is mathematically false for 0 < s < 1/2.

    Accuracy from noisy observations one level deeper is NOT a degradation of
    accuracy from noisy observations at the shallower level: the deeper level
    supplies k noisy copies per shallow node, and above the reconstruction
    threshold those extra copies win.  Exact rational values at (k=2,
    theta=9/10): s=1/10 gives 0.8600, 0.9020, 0.9221 for d=1,2,3 --
    increasing.  The assertion is kept as stated and fails honestly; see the
    repository notes for the full analysis.
    """
    _, s_grid, d_grid, exact = _c07_exact_grid()
    violations = [
        (str(s), d_grid[i], d_grid[i + 1])
        for s in s_grid
        for i in range(len(d_grid) - 1)
        if exact[(d_grid[i], s)] < exact[(d_grid[i + 1], s)]
    ]
    _report(
        "criterion 7b: exact noisy-recovery accuracy nonincreasing in d at fixed s",
        not violations,
        "false for s in (0, 1/2): more noisy observations beat fewer; "
        f"counterexamples (s, d, d+1): {violations[:4]}",
    )


def test_c08_a5_algebra():
    t0 = time.perf_counter()
    from treecast.a5.group import A5, CLASS_SIZES
    from treecast.a5.quotient import quotient_channel

    A5.verify()
    sizes = tuple(int((A5.class_code == c).sum()) for c in range(4))
    ch = quotient_channel()  # raises if lumpability fails
    stochastic = all(sum(ch.column(j)) == 1 for j in range(16))
    squared = ch.square()
    identical = squared.has_identical_columns()
    ks_zero = all(ks_parameter(ch, k) == 0.0 for k in (2, 60, 6000, 60000))
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 8: group tables, lumpability, and zero second eigenvalue",
        sizes == CLASS_SIZES and stochastic and identical and ks_zero and elapsed < 120,
        f"class sizes {sizes}, M'^2 columns identical = {identical}, {elapsed:.1f}s",
    )


def test_c09_product_tree_child_law():
    t0 = time.perf_counter()
    from treecast.a5.group import A5
    from treecast.a5.pair_model import (
        _product_tree_levels,
        pair_code,
        pair_model_child_law,
        product_tree_child_law,
    )

    sigma = np.array([12, 5, 33, 48], dtype=np.uint8)
    law = product_tree_child_law(sigma)
    root = pair_code(A5.product(sigma[:2]), A5.product(sigma[2:]))
    exact_equal = law == pair_model_child_law(root)

    k = 4
    trees = 250_000  # one million child samples
    levels = _product_tree_levels(1, sigma, k, SeedSpec(SEED, "c9"), trees)
    children = levels[1].reshape(-1).astype(np.int64)
    counts = np.bincount(children, minlength=3600)
    in_support = sum(int(counts[c]) for c in law) == children.size
    stat = 0.0
    for code, p in law.items():
        expected = float(p) * children.size
        stat += (counts[code] - expected) ** 2 / expected
    threshold = float(chi2.ppf(0.999, len(law) - 1))

    # Product invariant on every generated edge of a deeper tree.
    rng = np.random.default_rng(SEED)
    sigma3 = rng.integers(0, 60, size=16).astype(np.uint8)
    lvls = _product_tree_levels(3, sigma3, 3, SeedSpec(SEED, "c9/deep"), 200)
    invariant = True
    for lvl in range(1, 4):
        parents = np.repeat(lvls[lvl - 1].astype(np.int64), 3, axis=1)
        pf, ps = parents // 60, parents % 60
        cf, cs = lvls[lvl].astype(np.int64) // 60, lvls[lvl].astype(np.int64) % 60
        prod = A5.mul[cf, cs]
        invariant &= bool(np.all((prod == pf) | (prod == ps)))
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 9: product-tree child law matches the pair model",
        exact_equal and in_support and stat <= threshold and invariant and elapsed < 120,
        f"chi2 = {stat:.1f} (threshold {threshold:.1f}), exact laws equal = {exact_equal}, "
        f"invariant = {invariant}, {elapsed:.1f}s",
    )


def test_c10_recursive_reconstruction_accuracy():
    t0 = time.perf_counter()
    from treecast.a5.reconstruct import class16_reconstruction_trial

    key = SeedSpec(SEED, "c10").key()
    trials = 200
    hits = sum(
        root == est
        for root, est, _ in (
            class16_reconstruction_trial(6000, 2, subkey(key, t)) for t in range(trials)
        )
    )
    acc = hits / trials
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 10: 16-label recursive reconstruction at k=6000, d=2",
        acc >= 0.9 and elapsed < 600,
        f"accuracy = {acc:.3f} over {trials} trials, {elapsed:.1f}s",
    )


def test_c11_reductions():
    t0 = time.perf_counter()
    from treecast.a5.group import A5
    from treecast.a5.pair_model import _uniform60, generate_pair_model
    from treecast.a5.reconstruct import recursive_reconstruct
    from treecast.a5.reduction import (
        amplify_oracle,
        detection_to_word,
        make_instance,
        synthetic_oracle,
    )
    from treecast.rng import words_vec

    # Bijection at r=2, exact over all 3600 randomizer pairs.
    mul, inv = A5.mul, A5.inv
    outputs = {
        (int(mul[7, b1]), int(mul[mul[inv[b1], 42], b2]))
        for b1 in range(60)
        for b2 in range(60)
    }
    bijection = len(outputs) == 3600

    # Amplification of a weak synthetic oracle.
    five = int(A5.five_cycles()[0])
    oracle = synthetic_oracle(0.1, SeedSpec(SEED, "c11/oracle"))
    instances = 200
    correct = 0
    for i in range(instances):
        promise = "identity" if i % 2 == 0 else "target"
        inst = make_instance(64, promise, five, SeedSpec(SEED, f"c11/inst{i}"))
        result = amplify_oracle(oracle, inst, 500, SeedSpec(SEED, f"c11/amp{i}"))
        correct += result.decision == promise
    amp_acc = correct / instances

    # Detection accuracy through the word pipeline vs the direct pair model.
    k, d, trials = 3600, 1, 1000
    shape = TreeShape(k=k, d=d)
    direct_hits = 0
    word_hits = 0
    for i in range(trials):
        tree = generate_pair_model(shape, SeedSpec(SEED, f"c11/pair{i}"))
        est = recursive_reconstruct(
            tree.leaves, k, "pair3600", seed=SeedSpec(SEED, f"c11/rec{i}")
        )
        direct_hits += est.root_estimate == tree.root
        sigma = _uniform60(
            words_vec(SeedSpec(SEED, f"c11/sigma{i}").key(), np.arange(4, dtype=np.uint64))
        )
        record = detection_to_word(
            lambda leaves: recursive_reconstruct(
                leaves, k, "pair3600", seed=SeedSpec(SEED, f"c11/recw{i}")
            ).root_estimate,
            sigma,
            k,
            d,
            SeedSpec(SEED, f"c11/pt{i}"),
        )
        word_hits += record.correct
    p1, p2 = direct_hits / trials, word_hits / trials
    band = 3 * sqrt(
        max(p1 * (1 - p1), 1e-9) / trials + max(p2 * (1 - p2), 1e-9) / trials
    )
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 11: word-problem reductions",
        bijection and amp_acc >= 0.99 and abs(p1 - p2) <= band and p2 >= 0.9 and elapsed < 300,
        f"bijection = {bijection}, amplified accuracy = {amp_acc:.3f}, "
        f"direct = {p1:.3f} vs via-word = {p2:.3f} (band {band:.3f}), {elapsed:.0f}s",
    )


def test_c12_barrington_compiler():
    t0 = time.perf_counter()
    from treecast.a5.barrington import barrington_compile, evaluate_program_batch
    from treecast.a5.group import A5
    from treecast.formulas import random_formula

    rng = np.random.default_rng(SEED)
    fives = A5.five_cycles()
    failures = 0
    formulas = 0
    while formulas < 100:
        n_vars = int(rng.integers(1, 11))
        f = random_formula(rng, n_vars=n_vars, max_gates=32, max_depth=8)
        if f.gate_count() > 32:
            continue
        formulas += 1
        target = int(fives[int(rng.integers(0, len(fives)))])
        program = barrington_compile(f, target)
        assignments = np.array(
            [[(u >> (n_vars - 1 - i)) & 1 for i in range(n_vars)] for u in range(1 << n_vars)],
            dtype=np.uint8,
        )
        products = evaluate_program_batch(program, assignments)
        want = np.where(
            np.array([f.evaluate(a) for a in assignments], dtype=bool), target, A5.identity
        )
        failures += int((products != want).sum() > 0)
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 12: compiled group programs match formula truth tables",
        failures == 0 and elapsed < 60,
        f"100 formulas, {failures} failures, {elapsed:.1f}s",
    )


def test_c13_gadget_compiler():
    t0 = time.perf_counter()
    from treecast.gadgets import lemma_grid_check

    report = run_gadget_corpus(SEED)
    grid = lemma_grid_check(Fraction(1, 100))
    corner = (
        Fraction(19, 20),
        Fraction(19, 20),
        Fraction(19, 20),
        Fraction(19, 20),
        Fraction(0),
        Fraction(0),
    )
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 13: leaf-template compiler tracks every formula",
        report.violations == 0
        and report.formulas == 100
        and grid.passed
        and grid.min_point == corner
        and elapsed < 600,
        f"{report.assignments_checked} assignments, {report.violations} violations; "
        f"grid min {float(grid.min_value):.6f} at corner, {elapsed:.0f}s",
    )


def test_c14_biased_bit_samplers():
    t0 = time.perf_counter()
    exact_ok = True
    for theta in (Fraction(0), Fraction(1, 2), Fraction(3, 4), Fraction(5, 8)):
        b = theta.denominator.bit_length() - 1
        ones = sum(
            biased_bit_exact_from_bits(theta, _bits(u, b + 1)) for u in range(1 << (b + 1))
        )
        expect_ones = (1 << b) + theta.numerator * ((1 << b) // theta.denominator)
        exact_ok &= ones == expect_ones
    approx_ok = True
    for t in range(1, 13):
        for theta in (Fraction(1, 3), Fraction(2, 7), Fraction(9, 10)):
            ones = sum(
                biased_bit_approx_from_bits(theta, t, _bits(u, t)) for u in range(1 << t)
            )
            err = abs(Fraction(ones, 1 << t) - (1 + theta) / 2)
            approx_ok &= err <= Fraction(1, 1 << t)
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 14: biased-bit samplers exact and within budget",
        exact_ok and approx_ok and elapsed < 5,
        f"{elapsed:.2f}s",
    )


def test_c15_reproducibility(tmp_path):
    t0 = time.perf_counter()
    base = dict(
        experiment="ks-scan", seed=SEED, trials=200, k=(2,), theta=("1/2", "4/5"), d=(3, 4)
    )
    paths = []
    for i, jobs in enumerate((1, 1, 2)):
        cfg = ExperimentConfig(jobs=jobs, **base)
        rows = run_ks_scan(cfg)
        path = str(tmp_path / f"run{i}.csv")
        emit(rows, path)
        paths.append(path)
    blobs = [Path(p).read_bytes() for p in paths]
    identical = blobs[0] == blobs[1] == blobs[2]
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 15: byte-identical re-runs, independent of worker count",
        identical,
        f"3 runs compared, {elapsed:.1f}s",
    )
