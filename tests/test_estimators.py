from fractions import Fraction
from math import exp, isqrt, lgamma, log, sqrt

import numpy as np
import pytest
from scipy.stats import chi2

import treecast.estimators as estimators
from treecast.bp import bp_posterior_batch_binary
from treecast.channels import Channel
from treecast.estimators import (
    EstimatorReport,
    bp_rounding_decisions,
    code_height,
    estimate_flip_rate,
    estimate_P_sd,
    exact_majority_error,
    exact_P_sd,
    leaf_ones_counts,
    linearized_bp,
    linearized_bp_decisions,
    majority_decisions,
    majority_estimate,
    majority_misclassification,
    noisy_leaf_channel,
    ones_count_law,
    reduced_depth,
)
from treecast.experiments import DEFAULT_EXACT_SHAPES
from treecast.generators import generate_binary_batch, generate_direct
from treecast.oracle import bayes_accuracy, enumerate_joint, likelihood_law
from treecast.rng import SeedSpec, trial_keys
from treecast.trees import TreeShape


def test_majority_basics():
    assert majority_estimate([1, 1, 0], SeedSpec(1, "tie")) == 1
    assert majority_estimate([0, 0, 1], SeedSpec(1, "tie")) == 0


def test_majority_tie_is_fair_over_seeds():
    outs = [majority_estimate([1, 0], SeedSpec(17, "tie"), trial=t) for t in range(4000)]
    assert abs(np.mean(outs) - 0.5) < 0.03


@pytest.mark.parametrize("d", [1, 4])
@pytest.mark.parametrize("theta", [Fraction(0), Fraction(4, 5)])
def test_scalar_wrappers_are_the_kernels_at_one_trial(d, theta):
    # k=2 gives even leaf counts and even d'-blocks, so majority and subtree
    # ties are common; at theta=0 every linearized posterior is exactly 1/2.
    shape = TreeShape(k=2, d=d)
    seed = SeedSpec(21, "est")
    start = 1000
    _, leaves = generate_binary_batch(shape, theta, SeedSpec(21, "gen"), 300, start=start)
    ones = leaves.sum(axis=1)
    assert (2 * ones == shape.n).sum() > 20
    maj = majority_decisions(leaves, start, seed)
    s_hat = 0.25
    lin = linearized_bp_decisions(shape, float(theta), leaves, start, seed, s_hat)
    for i in range(len(leaves)):
        assert majority_estimate(leaves[i], seed, trial=start + i) == maj[i]
        assert linearized_bp(shape, theta, leaves[i], seed, s_hat=s_hat, trial=start + i) == lin[i]


def test_reduced_depth_formula():
    # d' = floor(log_k(log2(n))): k=3, d=8 gives n=6561, log2 ~ 12.68, d'=2.
    assert reduced_depth(3, 8) == 2
    assert reduced_depth(2, 1) == 0
    assert reduced_depth(2, 4) == 2  # log2(16)=4, log2(4)=2 exactly
    assert reduced_depth(15, 4) == 1
    assert reduced_depth(2, 10) == 3


def test_linearized_bp_theta_one_exact():
    shape = TreeShape(k=3, d=4)
    arr = generate_direct(shape, Channel.binary(1), SeedSpec(5, "gen"), root=1)
    assert linearized_bp(shape, 1, arr.leaves, SeedSpec(5, "est")) == 1
    arr0 = generate_direct(shape, Channel.binary(1), SeedSpec(5, "gen"), root=0)
    assert linearized_bp(shape, 1, arr0.leaves, SeedSpec(5, "est")) == 0


def test_linearized_bp_degenerates_to_majority():
    shape = TreeShape(k=2, d=1)  # d' = 0
    assert reduced_depth(2, 1) == 0
    assert linearized_bp(shape, Fraction(1, 2), [1, 1], SeedSpec(3, "est")) == 1
    assert linearized_bp(shape, Fraction(1, 2), [0, 0], SeedSpec(3, "est")) == 0


def test_chain_and_wrapper_inputs_rejected():
    shape, seed = TreeShape(k=2, d=4), SeedSpec(1, "m")
    with pytest.raises(ValueError, match="theta must lie in"):
        majority_misclassification(shape, 3, 100, seed)
    with pytest.raises(ValueError, match="trials must be >= 1, got 0"):
        majority_misclassification(shape, Fraction(1, 2), 0, seed)
    with pytest.raises(ValueError, match="trials must be >= 1, got 0"):
        estimate_flip_rate(shape, Fraction(1, 2), 1, 0, seed)
    with pytest.raises(ValueError, match="s_hat must lie in"):
        linearized_bp(shape, Fraction(1, 2), np.zeros(16, dtype=np.uint8), seed, s_hat=0.7)


def test_flip_rate_theta_one_is_zero():
    est = estimate_flip_rate(TreeShape(k=3, d=4), 1, 1, trials=500, seed=SeedSpec(1, "f"))
    assert est.estimate == 0.0


def test_flip_rate_bound_arithmetic():
    est = estimate_flip_rate(
        TreeShape(k=10, d=3), Fraction(3, 5), 1, trials=500, seed=SeedSpec(2, "f")
    )
    assert est.bound == pytest.approx(1 / 2.6)


def test_flip_rate_matches_exact_small_tree():
    # Depth-4 binary-arity subtree at theta = 0.9, against the enumeration oracle.
    shape = TreeShape(k=2, d=4)
    exact = exact_majority_error(shape, Fraction(9, 10))
    est = estimate_flip_rate(shape, Fraction(9, 10), 0, trials=40_000, seed=SeedSpec(3, "f"))
    band = 3 * max(est.stderr, 1e-4)
    assert abs(est.estimate - float(exact)) <= band


def test_ones_count_chain_mean():
    ones = leaf_ones_counts(3, 4, 0.8, root=1, trials=30_000, seed=SeedSpec(7, "chain"))
    n = 3**4
    want = n / 2 + n * 0.8**4 / 2
    assert abs(ones.mean() - want) <= 3 * ones.std(ddof=1) / sqrt(30_000)


def _assert_follows(draws: np.ndarray, law: dict[int, float]) -> None:
    """Every draw has positive probability under `law`, and a chi-square
    over cells of expected count >= 5, the rest pooled, passes at p = 1e-9."""
    values, counts = np.unique(draws, return_counts=True)
    seen = dict(zip(values.tolist(), counts.tolist()))
    assert {x for x in seen if law.get(x, 0) <= 0} == set()
    cells, pooled_obs, pooled_exp = [], 0, 0.0
    for x, prob in law.items():
        expected = len(draws) * prob
        if expected >= 5:
            cells.append((seen.get(x, 0), expected))
        else:
            pooled_obs, pooled_exp = pooled_obs + seen.get(x, 0), pooled_exp + expected
    if pooled_exp > 0:
        cells.append((pooled_obs, pooled_exp))
    if len(cells) > 1:
        stat = sum((o - e) ** 2 / e for o, e in cells)
        assert stat <= chi2.isf(1e-9, len(cells) - 1), (stat, len(cells))


@pytest.mark.parametrize("k, d", [(2, 3), (3, 2), (5, 2)])
@pytest.mark.parametrize("theta", [Fraction(-1, 2), Fraction(0), Fraction(4, 5), Fraction(1)])
@pytest.mark.parametrize("root", [0, 1])
def test_ones_count_chain_follows_the_exact_law(k, d, theta, root):
    ones = leaf_ones_counts(k, d, theta, root, 20_000, SeedSpec(5, f"chain/{k}/{d}/{theta}/{root}"))
    coeffs, den = ones_count_law(k, d, theta, root)
    _assert_follows(ones, {c: int(w) / den for c, w in enumerate(coeffs) if w})


@pytest.mark.parametrize("n", [0, 1, 5, 1000, 2**20 + 3])
@pytest.mark.parametrize("p", [Fraction(1, 4), Fraction(9, 10)])
def test_dyadic_binomial_draw_follows_the_exact_pmf(n, p):
    trials = 20_000
    tkeys = trial_keys(SeedSpec(6, f"bin/{n}/{p}").key(), trials)
    draws = estimators._binomial_draws(np.full(trials, n), p, tkeys, 0, 0)
    half = 8 * isqrt(n) + 8  # beyond it the pmf sums below 1e-20
    low, high = max(0, round(n * p) - half), min(n, round(n * p) + half)
    log_pmf = [
        lgamma(n + 1) - lgamma(x + 1) - lgamma(n - x + 1) + x * log(p) + (n - x) * log(1 - p)
        for x in range(low, high + 1)
    ]
    _assert_follows(draws, {x: exp(v) for x, v in zip(range(low, high + 1), log_pmf)})


def test_ones_count_trial_does_not_depend_on_the_trial_count():
    seed = SeedSpec(8, "prefix")
    short = leaf_ones_counts(3, 5, Fraction(3, 5), 1, 100, seed)
    assert short.tolist() == leaf_ones_counts(3, 5, Fraction(3, 5), 1, 2000, seed)[:100].tolist()


@pytest.mark.parametrize(
    "k, depth, theta, root, message",
    [
        (2, 3, Fraction(1, 2), 2, "root label must be 0 or 1, got 2"),
        (2, 3, Fraction(3, 2), 1, r"theta must lie in \[-1, 1\]"),
        (2, 3, Fraction(-2), 0, r"theta must lie in \[-1, 1\]"),
        (2, 26, Fraction(1, 2), 1, "more than 67108864 nodes"),
        (1, 65, Fraction(1, 2), 1, "deeper than 64 levels"),
    ],
)
def test_ones_count_chain_rejects_inputs_before_drawing(monkeypatch, k, depth, theta, root, message):
    def no_draws(*args):
        raise AssertionError("drew before checking its inputs")

    monkeypatch.setattr(estimators, "trial_keys", no_draws)
    with pytest.raises(ValueError, match=message):
        leaf_ones_counts(k, depth, theta, root, 10, SeedSpec(1, "bad"))


def test_ones_count_chain_reads_level_63():
    ones = leaf_ones_counts(1, 64, Fraction(1, 2), 1, 50, SeedSpec(2, "unary"))
    assert set(ones.tolist()) <= {0, 1}


def test_majority_misclassification_bound_point():
    rep = majority_misclassification(
        TreeShape(k=10, d=6), Fraction(3, 5), trials=2000, seed=SeedSpec(11, "m")
    )
    miss = 1 - rep.accuracy
    assert miss <= 1 / 2.6 + 3 * rep.stderr


class TestPsd:
    @pytest.mark.parametrize("shape", [TreeShape(2, 3), TreeShape(2, 8)])
    def test_rejects_fewer_than_one_trial(self, shape):
        with pytest.raises(ValueError, match="trials must be >= 1, got 0"):
            estimate_P_sd(shape, Fraction(4, 5), Fraction(1, 10), 0, SeedSpec(1, "p"))

    def test_half_noise_is_coin(self):
        est = estimate_P_sd(
            TreeShape(k=2, d=4), Fraction(3, 5), Fraction(1, 2), 4000, SeedSpec(5, "p"),
            method="mc",
        )
        assert abs(est.estimate - 0.5) <= 3 * est.stderr + 1e-9

    def test_zero_noise_matches_bayes_accuracy(self):
        shape = TreeShape(k=2, d=3)
        theta = Fraction(9, 10)
        val = exact_P_sd(shape, theta, 0)
        assert val == bayes_accuracy(enumerate_joint(shape, Channel.binary(theta)))
        est = estimate_P_sd(shape, theta, 0, 1000, SeedSpec(6, "p"))
        assert est.method == "exact" and est.exact == val

    # Every binary shape of depth >= 1 with at most 12 leaves.
    @pytest.mark.parametrize(
        "k,d", [(1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2)] + [(k, 1) for k in range(4, 13)]
    )
    def test_exact_equals_bayes_accuracy_of_oracle(self, k, d):
        shape = TreeShape(k=k, d=d)
        for theta in (Fraction(-1), Fraction(-3, 5), Fraction(0), Fraction(1, 2), Fraction(1)):
            for s in (Fraction(0), Fraction(1, 10), Fraction(1, 2)):
                leaf = noisy_leaf_channel(theta, s)
                joint = enumerate_joint(shape, Channel.binary(theta), leaf_channel=leaf)
                assert exact_P_sd(shape, theta, s) == bayes_accuracy(joint), (theta, s)
                law = likelihood_law(shape, Channel.binary(theta), leaf_channel=leaf)
                assert sum(law.counts.values()) == len(joint.configurations())

    def test_exact_keeps_the_oracle_cap(self, monkeypatch):
        # The cap is checked before any edge matrix or vector is built.
        def unreachable(channel):
            raise AssertionError("built an edge matrix past the cap")

        monkeypatch.setattr(Channel, "integer_columns", unreachable)
        for d in (5, 25):
            with pytest.raises(ValueError, match="configurations, above the cap of 1048576"):
                exact_P_sd(TreeShape(k=2, d=d), Fraction(9, 10), Fraction(1, 10))
        with pytest.raises(ValueError, match="enumeration needs 4294967296 configurations"):
            exact_P_sd(TreeShape(k=2, d=5), Fraction(9, 10), 0)

    def test_exact_monotone_in_s(self):
        shape = TreeShape(k=2, d=3)
        theta = Fraction(9, 10)
        grid = [Fraction(i, 10) for i in range(6)]
        vals = [exact_P_sd(shape, theta, s) for s in grid]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert vals[-1] == Fraction(1, 2)

    def test_mc_agrees_with_exact(self):
        shape = TreeShape(k=2, d=3)
        theta = Fraction(9, 10)
        s = Fraction(1, 5)
        want = float(exact_P_sd(shape, theta, s))
        est = estimate_P_sd(shape, theta, s, 6000, SeedSpec(7, "p"), method="mc")
        assert abs(est.estimate - want) <= 3 * est.stderr

    def test_noise_free_accuracy_nonincreasing_in_depth(self):
        # Data processing: the depth-(d+1) leaves are a noisy function of the
        # depth-d leaves, so noise-free Bayes accuracy cannot grow with d.
        for theta in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(9, 10)):
            vals = [exact_P_sd(TreeShape(k=2, d=d), theta, 0) for d in (1, 2, 3, 4)]
            assert all(type(v) is Fraction for v in vals)
            assert all(a >= b for a, b in zip(vals, vals[1:])), (theta, vals)
            assert vals[-1] > Fraction(1, 2)

    @pytest.mark.parametrize("s", [Fraction(0), Fraction(1, 10), Fraction(1, 2)])
    def test_depth_zero_sees_the_root_through_the_noise(self, s):
        shape = TreeShape(2, 0)
        assert exact_P_sd(shape, Fraction(4, 5), s) == 1 - s
        est = estimate_P_sd(shape, Fraction(4, 5), s, 20_000, SeedSpec(8, "p"), method="mc")
        assert est.method == "mc"
        assert abs(est.estimate - float(1 - s)) <= 4 * est.stderr

    def test_mc_golden(self):
        # Seeded golden float: a change to the root or code draws, the
        # tie-break draws or batched BP's decisions and ties shows here.
        est = estimate_P_sd(TreeShape(2, 8), Fraction(4, 5), Fraction(1, 10), 3000, SeedSpec(7, "golden"))
        assert est.method == "mc"
        assert est.estimate == 0.813

    @pytest.mark.parametrize("s", [Fraction(0), Fraction(1, 10)])
    def test_mc_chunk_size_does_not_change_results(self, monkeypatch, s):
        shape, theta, seed = TreeShape(2, 8), Fraction(3, 5), SeedSpec(7, "psd-chunks")
        monkeypatch.setattr(estimators, "CHUNK_CELLS", 1 << 23)
        whole = estimate_P_sd(shape, theta, s, 400, seed, method="mc")
        monkeypatch.setattr(estimators, "CHUNK_CELLS", 1 << 12)
        assert 400 > 3 * (1 + (1 << 12) // shape.n)  # at least 3 chunks
        assert estimate_P_sd(shape, theta, s, 400, seed, method="mc") == whole

    def test_noisy_channel_composition(self):
        ch = noisy_leaf_channel(Fraction(9, 10), Fraction(1, 10))
        # agree = (1-s)(1+theta)/2 + s(1-theta)/2 = 0.9*0.95 + 0.1*0.05
        assert ch.matrix[1][1] == Fraction(9, 10) * Fraction(19, 20) + Fraction(1, 10) * Fraction(1, 20)

    @pytest.mark.parametrize("theta", [Fraction(i, 6) for i in range(-6, 7)])
    def test_noisy_channel_is_the_binary_channel_of_the_leaf_edge_bias(self, theta):
        # (1-s) keep + s (1-keep) = (1 + theta (1-2s)) / 2: the bias that
        # `code_law` and the batch sampler give the leaf edge.
        for s in [Fraction(i, 20) for i in range(11)]:
            keep = (1 + theta) / 2
            agree = (1 - s) * keep + s * (1 - keep)
            composed = ((agree, 1 - agree), (1 - agree, agree))
            assert noisy_leaf_channel(theta, s).matrix == composed
            assert noisy_leaf_channel(theta, s) == Channel.binary(theta * (1 - 2 * s))

    def test_noise_robustness_well_above_threshold(self):
        # Pilot-pinned regression point: at k=15, theta=0.7, d=4 (k theta^2 =
        # 7.35), noise s=0.3 costs essentially nothing (pilot: 0.9993 both).
        shape = TreeShape(k=15, d=4)
        theta = Fraction(7, 10)
        clean = estimate_P_sd(shape, theta, 0, 1500, SeedSpec(31, "pr0"), method="mc")
        noisy = estimate_P_sd(
            shape, theta, Fraction(3, 10), 1500, SeedSpec(31, "pr3"), method="mc"
        )
        assert abs(clean.estimate - noisy.estimate) <= 0.05
        assert clean.estimate >= 0.99


def test_estimator_report_fields():
    rep = EstimatorReport(estimator="x", trials=400, accuracy=0.75)
    assert rep.stderr == pytest.approx(sqrt(0.75 * 0.25 / 400))
    assert rep.advantage == pytest.approx(0.25)
    with pytest.raises(ValueError):
        EstimatorReport(estimator="x", trials=10, accuracy=1.5)


# --- estimators on height-h subtree codes --------------------------------------


def test_code_height_table():
    # V_h * E_h: k=2 gives 3*2, 9*6, 81*14, 6561*30 (the next, 43M codes, is
    # over 2^18); k=3 gives 4*3, 64*12; k=16 gives 17*16; k=1 gives 2*h;
    # k=511 gives 512*511 and k=512 513*512 > 2^18, so no codes at all.
    want = {
        (2, 0): 0, (2, 1): 1, (2, 3): 2, (2, 8): 4, (2, 12): 4, (2, 20): 4,
        (3, 2): 1, (3, 4): 2, (3, 8): 2, (5, 4): 2, (6, 3): 1,
        (16, 1): 1, (16, 2): 1, (16, 4): 1,
        (1, 0): 0, (1, 1): 1, (1, 7): 7,
        (511, 1): 1, (512, 1): 0, (6000, 2): 0,
    }
    for (k, d), h in want.items():
        assert code_height(k, d) == h, (k, d)
        assert h <= d - reduced_depth(k, d)


@pytest.mark.parametrize("k,d", [(2, 8), (2, 5), (3, 4), (1, 3)])
@pytest.mark.parametrize("theta", [Fraction(0), Fraction(4, 5)])
def test_code_kernels_equal_leaf_kernels(k, d, theta, subtree_codes):
    # theta = 0 makes every BP posterior exactly 1/2 and majority ties common,
    # so the tie words are compared as well.
    shape, seed, start = TreeShape(k=k, d=d), SeedSpec(23, "codes"), 500
    tf = float(theta)
    _, leaves = generate_binary_batch(shape, theta, SeedSpec(23, "gen"), 300, start=start)
    maj = majority_decisions(leaves, start, seed)
    lin = linearized_bp_decisions(shape, tf, leaves, start, seed, 0.25)
    bp = bp_rounding_decisions(shape, tf, leaves, start, seed, 0.1)
    for h in range(1, code_height(k, d) + 1):
        codes = subtree_codes(leaves, k, h)
        assert np.array_equal(majority_decisions(codes, start, seed, k, h), maj)
        assert np.array_equal(linearized_bp_decisions(shape, tf, codes, start, seed, 0.25, h), lin)
        assert np.array_equal(bp_rounding_decisions(shape, tf, codes, start, seed, 0.1, h), bp)
        for rows in (slice(None), slice(0, 2)):  # a small batch codes fewer levels itself
            assert np.array_equal(
                bp_posterior_batch_binary(shape, tf, codes[rows], 0.1, h),
                bp_posterior_batch_binary(shape, tf, leaves[rows], 0.1),
            )


@pytest.mark.parametrize("theta", [1.0, -1.0])
def test_zero_probability_evidence_is_nan_and_raises(theta, subtree_codes):
    # At theta = +-1 with s = 0 the leaves of a depth-4 tree all equal the
    # root, so a row with two different leaves has probability zero.
    shape, seed = TreeShape(k=2, d=4), SeedSpec(3, "nan")
    leaves = np.ones((6, 16), dtype=np.uint8)
    leaves[1, 5] = 0  # one leaf differs
    leaves[2, :4] = 0  # one depth-2 block differs: the linearized bits conflict
    leaves[3] = 0
    leaves[4, 8:] = 0
    conflict = np.array([False, True, True, False, True, False])
    post = bp_posterior_batch_binary(shape, theta, leaves)  # a RuntimeWarning fails the test
    assert np.array_equal(np.isnan(post), conflict)
    assert np.array_equal(post[~conflict], leaves[~conflict, 0].astype(float))
    for h in (1, 2):
        from_codes = bp_posterior_batch_binary(shape, theta, subtree_codes(leaves, 2, h), 0.0, h)
        assert np.array_equal(from_codes, post, equal_nan=True)
    good = leaves[~conflict]
    assert np.array_equal(bp_rounding_decisions(shape, theta, good, 0, seed), good[:, 0])
    assert np.array_equal(linearized_bp_decisions(shape, theta, good, 0, seed, 0.0), good[:, 0])
    with pytest.raises(ValueError, match="evidence has zero probability"):
        bp_rounding_decisions(shape, theta, leaves, 0, seed)
    with pytest.raises(ValueError, match="evidence has zero probability"):
        linearized_bp_decisions(shape, theta, leaves[2:3], 0, seed, 0.0)


@pytest.mark.parametrize("k,d", DEFAULT_EXACT_SHAPES)
@pytest.mark.parametrize("theta", [Fraction(-1, 2), Fraction(0), Fraction(3, 5), Fraction(1)])
def test_exact_majority_error_equals_enumeration(k, d, theta):
    shape = TreeShape(k=k, d=d)
    joint = enumerate_joint(shape, Channel.binary(theta))
    twice = sum(
        (2 if 2 * sum(cfg) < shape.n else 1) * p
        for cfg, p in joint.numerators[1].items()
        if 2 * sum(cfg) <= shape.n
    )
    assert exact_majority_error(shape, theta) == Fraction(twice, 2 * joint.denominator)


@pytest.mark.parametrize("k,d", [(2, 8), (3, 5), (5, 3)])
@pytest.mark.parametrize("root", [0, 1])
def test_ones_count_law_float_within_its_bound(k, d, root):
    exact, den = ones_count_law(k, d, Fraction(4, 5), root)
    approx, one = ones_count_law(k, d, Fraction(4, 5), root, exact=False)
    assert one == 1.0 and approx.dtype == np.float64 and sum(exact) == den
    want = np.array([float(Fraction(int(c), den)) for c in exact])
    rel = (2 * k**d + 3 * k * d) * 2.0**-53
    assert np.all(np.abs(approx - want) <= rel * want)
