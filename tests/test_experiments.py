import json
import os
from fractions import Fraction
from itertools import combinations
from math import sqrt
from pathlib import Path

import numpy as np
import pytest

import treecast.estimators as estimators
from treecast.channels import Channel
from treecast.experiments import (
    CSV_HEADER,
    EXPERIMENT_KINDS,
    EXPERIMENTS,
    ExperimentConfig,
    ResultRow,
    _SUITE_P_VALUE,
    VERIFY_CHECKS,
    CheckResult,
    _chi_square_vs_exact,
    _resolve_jobs,
    chi_square_check,
    chi_square_quantile,
    chi_square_sf,
    emit,
    exact_joint_of_leaves,
    read_csv,
    run_a5_accuracy,
    run_equivalence_suite,
    run_ks_scan,
    run_check,
    run_noise_scan,
    score_estimators_point,
    suite_failures,
    tally,
    verify_all,
)
from treecast.generators import generate_binary_batch
from treecast.oracle import LawView, enumerate_joint
from treecast.rng import SeedSpec, subkey
from treecast.trees import TreeShape


class TestConfig:
    def test_unknown_keys_rejected(self):
        doc = {"experiment": "ks-scan", "seed": 1, "trails": 100}
        with pytest.raises(ValueError, match="trails"):
            ExperimentConfig.from_json(json.dumps(doc))

    @pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
    def test_omitted_keys_are_the_kinds_defaults(self, kind):
        cfg = ExperimentConfig(experiment=kind)
        defaults = EXPERIMENTS[kind][0]
        assert {name: getattr(cfg, name) for name in defaults} == defaults
        unread = {"trials", "k", "theta", "d", "s", "model"} - set(defaults)
        assert unread and all(getattr(cfg, name) is None for name in unread)

    @pytest.mark.parametrize(
        "kind, fields, words",
        [
            ("ks-scan", {"s": ("0",)}, "ks-scan reads no config key 's'"),
            ("noise-scan", {"model": "class16", "trials": 100}, "noise-scan reads no config key 'model'"),
            ("a5-accuracy", {"theta": ("1/2",), "s": ("0",)}, "a5-accuracy reads no config key 's', 'theta'"),
        ],
    )
    def test_a_key_the_kind_does_not_read_is_refused(self, kind, fields, words):
        with pytest.raises(ValueError, match=words):
            ExperimentConfig(experiment=kind, **fields)

    def test_trials_floor(self):
        with pytest.raises(ValueError, match="trials"):
            ExperimentConfig(experiment="ks-scan", trials=99)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="grid"):
            ExperimentConfig(experiment="ks-scan", k=())

    def test_schema_version(self):
        with pytest.raises(ValueError, match="schema_version"):
            ExperimentConfig(experiment="ks-scan", schema_version=2)

    @pytest.mark.parametrize("d", [(0,), (2, 0), (-1,)])
    def test_a5_depth_below_one_raises_at_construction(self, d):
        with pytest.raises(ValueError, match="depth >= 1"):
            ExperimentConfig(experiment="a5-accuracy", d=d)
        if min(d) < 0:  # every kind checks each point's `TreeShape` up front
            with pytest.raises(ValueError, match="depth d must be >= 0, got -1"):
                ExperimentConfig(experiment="ks-scan", d=d)
        else:
            ExperimentConfig(experiment="ks-scan", d=d)  # the rule is a5-accuracy's

    @pytest.mark.parametrize(
        "name, values, value",
        [
            ("k", [2, 3, 2], "2"),
            ("k", ["2", 2], "2"),
            ("d", [3, 3], "3"),
            ("theta", ["4/5", "0.8"], "'0.8'"),
            ("theta", ["1/2", "2/4"], "'2/4'"),
            ("s", ["0", "-0"], "'-0'"),
        ],
    )
    def test_repeated_grid_value_rejected(self, name, values, value):
        doc = {"experiment": "noise-scan", name: values}
        with pytest.raises(ValueError, match=f"grid '{name}' repeats the value {value}"):
            ExperimentConfig.from_json(json.dumps(doc))

    def test_grids_from_flag_text_are_normalized(self):
        cfg = ExperimentConfig(
            experiment="noise-scan", k=["2", " 3"], theta=[" 9/10", 0.5], d=[4], s=("0 ",)
        )
        assert (cfg.k, cfg.theta, cfg.d, cfg.s) == ((2, 3), ("9/10", "0.5"), (4,), ("0",))

    def test_from_json_roundtrip(self):
        doc = {
            "schema_version": 1,
            "experiment": "noise-scan",
            "seed": 7,
            "trials": 500,
            "k": [2],
            "theta": ["9/10"],
            "d": [1, 2],
            "s": ["0", "1/10"],
        }
        cfg = ExperimentConfig.from_json(json.dumps(doc))
        assert {name: getattr(cfg, name) for name in doc} == {
            **doc, "k": (2,), "theta": ("9/10",), "d": (1, 2), "s": ("0", "1/10")
        }


class TestEmit:
    def _rows(self):
        cfg_seed = 3
        return [
            ResultRow(
                experiment="ks-scan", k=2, theta_or_channel="1/2", d=4, s="0",
                estimator="majority", trials=100, accuracy=0.625,
                stderr=0.048412291827592711, advantage=0.125, seed=cfg_seed,
            )
        ]

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit([], str(tmp_path / "x.csv"))

    def test_header_and_roundtrip(self, tmp_path):
        path = str(tmp_path / "rows.csv")
        emit(self._rows(), path)
        with open(path) as fh:
            text = fh.read()
        assert text.splitlines()[0] == CSV_HEADER
        rows = read_csv(path)
        path2 = str(tmp_path / "rows2.csv")
        emit(rows, path2)
        with open(path2) as fh:
            assert fh.read() == text

    def test_json_emit(self, tmp_path):
        path = str(tmp_path / "rows.json")
        emit(self._rows(), path, fmt="json")
        doc = json.loads(Path(path).read_text())
        assert doc[0]["estimator"] == "majority"
        assert set(doc[0]) == set(CSV_HEADER.split(","))

    def test_unwritable_path(self):
        with pytest.raises(OSError):
            emit(self._rows(), "/nonexistent-dir/rows.csv")


class TestKsScan:
    def test_extreme_thetas(self):
        cfg = ExperimentConfig(
            experiment="ks-scan", seed=5, trials=400, k=(2,), theta=("0", "1"), d=(4,), jobs=1
        )
        rows = run_ks_scan(cfg)
        by = {(r.theta_or_channel, r.estimator): r for r in rows}
        for est in ("majority", "linearized-bp", "bp-rounding"):
            r0 = by[("0", est)]
            assert abs(r0.accuracy - 0.5) <= 3 * max(r0.stderr, 1e-6)
            assert by[("1", est)].accuracy == 1.0

    def test_jobs_do_not_change_rows(self, tmp_path):
        cfg1 = ExperimentConfig(
            experiment="ks-scan", seed=9, trials=200, k=(2,), theta=("1/2", "4/5"), d=(3, 4), jobs=1
        )
        cfg2 = ExperimentConfig(
            experiment="ks-scan", seed=9, trials=200, k=(2,), theta=("1/2", "4/5"), d=(3, 4), jobs=2
        )
        rows1 = run_ks_scan(cfg1)
        rows2 = run_ks_scan(cfg2)
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        emit(rows1, p1)
        emit(rows2, p2)
        assert Path(p1).read_text() == Path(p2).read_text()

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="ks-scan", seed=11, trials=200, k=(2,), theta=("3/5",), d=(4,), jobs=1
        )
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        emit(run_ks_scan(cfg), p1)
        emit(run_ks_scan(cfg), p2)
        assert Path(p1).read_text() == Path(p2).read_text()

    def test_no_estimator_beats_bp_rounding(self):
        # Bayes-rounding optimality within Monte Carlo error on shared trees.
        cfg = ExperimentConfig(
            experiment="ks-scan", seed=13, trials=2000, k=(2, 3), theta=("3/5", "4/5"),
            d=(4,), jobs=1,
        )
        rows = run_ks_scan(cfg)
        by = {(r.k, r.theta_or_channel, r.estimator): r for r in rows}
        for k in (2, 3):
            for theta in ("3/5", "4/5"):
                bp = by[(k, theta, "bp-rounding")]
                for other in ("majority", "linearized-bp"):
                    o = by[(k, theta, other)]
                    band = 3 * (bp.stderr**2 + o.stderr**2) ** 0.5
                    assert o.accuracy <= bp.accuracy + band


def test_score_estimators_point_golden():
    # Seeded golden floats: a change to the sampler draws, the tie-break
    # draws or batched BP's decisions and ties shows here.
    got = score_estimators_point(2, Fraction(4, 5), 8, 3000, SeedSpec(7, "golden"))
    assert got == {
        "majority": 0.8253333333333334,
        "linearized-bp": 0.8056666666666666,
        "bp-rounding": 0.834,
    }


def test_majority_at_depth_12_matches_the_exact_law():
    # The majority accuracy 1 - exact_majority_error at k=2, d=12, theta=4/5,
    # as the benchmark's mc-scan stores it (its smoke run recomputes it); the
    # exact law of 4097 ones counts takes minutes at this depth.
    p = 0.8168466972199109
    trials = 100_000
    seed = SeedSpec(12, "majority-d12")
    acc = score_estimators_point(2, Fraction(4, 5), 12, trials, seed, estimators=("majority",))
    assert abs(acc["majority"] - p) <= 6 * sqrt(p * (1 - p) / trials)


class TestScoreKeyedByTrial:
    # k=2, d=8: leaf counts and d'=3 blocks are even, so majority and subtree
    # ties occur; at theta=0 every BP posterior is exactly 1/2.
    POINTS = [(Fraction(4, 5), 8), (Fraction(0), 8), (Fraction(3, 5), 6)]

    @pytest.mark.parametrize("theta,d", POINTS)
    def test_chunk_size_does_not_change_results(self, monkeypatch, theta, d):
        seed = SeedSpec(7, "chunks")
        monkeypatch.setattr(estimators, "CHUNK_CELLS", 1 << 23)
        whole = score_estimators_point(2, theta, d, 400, seed)
        monkeypatch.setattr(estimators, "CHUNK_CELLS", 1 << 12)
        assert 400 > 3 * (1 + (1 << 12) // 2**d)  # at least 3 chunks
        assert score_estimators_point(2, theta, d, 400, seed) == whole

    @pytest.mark.parametrize("theta,d", POINTS)
    def test_each_estimator_alone_matches_the_joint_run(self, theta, d):
        seed = SeedSpec(7, "alone")
        joint = score_estimators_point(2, theta, d, 400, seed)
        for name, acc in joint.items():
            assert score_estimators_point(2, theta, d, 400, seed, estimators=(name,)) == {name: acc}

    def test_unknown_estimator_rejected(self):
        with pytest.raises(ValueError, match="unknown estimator 'median'"):
            score_estimators_point(2, Fraction(4, 5), 3, 10, SeedSpec(1, "x"), estimators=("median",))


class TestResolveJobs:
    def test_zero_means_cpus_in_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert _resolve_jobs(0) == 2
        assert _resolve_jobs(5) == 5

    def test_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert _resolve_jobs(0) == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _resolve_jobs(0) == 1


class TestNoiseScan:
    def test_exact_small_tree_scan(self):
        cfg = ExperimentConfig(
            experiment="noise-scan", seed=3, trials=400, k=(2,), theta=("9/10",),
            d=(1, 2), s=("0", "1/5", "1/2"), jobs=1,
        )
        report = run_noise_scan(cfg)
        assert all(r.estimator == "p-sd-exact" for r in report.rows)
        assert all(report.monotone_in_s.values())
        half = [r for r in report.rows if r.s == "1/2"]
        assert all(r.accuracy == 0.5 for r in half)


class TestEquivalenceSuite:
    def test_default_suite_passes(self):
        results = run_equivalence_suite(seed=2, statistical_trials=20_000)
        assert not suite_failures(results)

    def test_corrupted_generator_is_caught_and_named(self):
        def corrupted(shape, theta, seed, trials, method="direct", roots=None):
            # theta off by 0.05 on the path generator only
            if method == "path":
                theta = Fraction(theta) - Fraction(1, 20)
            return generate_binary_batch(shape, theta, seed, trials, method=method, roots=roots)

        results = run_equivalence_suite(
            seed=2, statistical_trials=60_000, batch_sampler=corrupted
        )
        bad = suite_failures(results)
        assert bad
        assert any("path" in r.name for r in bad)
        assert all("path" in r.name for r in bad if r.name.startswith("chi-square"))


class TestVerifyChecks:
    def test_each_entry_runs_alone(self):
        # Run last to first, each entry alone; in table order they are the suite.
        alone = {name: run_check(name, seed=3, quick=True) for name in reversed(VERIFY_CHECKS)}
        assert all(alone.values())
        assert [r for name in VERIFY_CHECKS for r in alone[name]] == verify_all(seed=3, quick=True)

    @pytest.mark.parametrize(
        "name, target",
        [("a5-tables", "treecast.a5.group.A5.verify"), ("quotient-channel", "treecast.a5.quotient.quotient_channel")],
    )
    def test_an_assertion_is_one_failed_check_named_after_its_entry(self, monkeypatch, name, target):
        def broken(*args):
            raise AssertionError("broken table")

        monkeypatch.setattr(target, broken)
        assert run_check(name) == [CheckResult(name, "", False, "broken table")]

    def test_bp_vs_oracle_names_the_first_mismatch(self, monkeypatch):
        import dataclasses

        import treecast.experiments as experiments

        real = experiments.bp_posterior
        corrupt = {(2, 2, Fraction(1, 2), (0, 0, 0, 1)), (3, 1, Fraction(3, 4), (1, 1, 0))}

        def corrupted(shape, channel, evidence, mode):
            report = real(shape, channel, evidence, mode=mode)
            if (shape.k, shape.d, channel.theta, evidence.index) in corrupt:
                return dataclasses.replace(report, masses=report.masses[::-1])
            return report

        monkeypatch.setattr(experiments, "bp_posterior", corrupted)
        (result,) = run_check("bp-vs-oracle", quick=True)
        configurations = 3 * (2**2 + 2**4 + 2**3)  # three thetas on (2, 1), (2, 2) and (3, 1)
        assert not result.passed
        assert result.detail == f"k=2 d=2 theta=1/2 x=(0, 0, 0, 1); 2 of {configurations} configurations differ"


class TestChiSquare:
    @pytest.mark.parametrize(
        "samples",
        [
            np.random.default_rng(1).integers(-3, 5, size=200),
            np.random.default_rng(2).integers(0, 2, size=(500, 3)).astype(np.uint8),
            np.random.default_rng(3).integers(0, 60, size=(300, 1)).astype(np.uint16),
            np.array([[7, 1 << 40], [7, 0], [7, 1 << 40]]),
            np.zeros(0, dtype=np.int64),
            np.zeros((0, 3), dtype=np.uint8),
        ],
        ids=["1-D", "2-D", "one-column", "wide-range", "empty-1-D", "empty-2-D"],
    )
    def test_tally_equals_the_row_sort(self, samples):
        keys, counts = np.unique(samples, axis=0, return_counts=True)
        want = {(tuple(key) if samples.ndim > 1 else key): c for key, c in zip(keys.tolist(), counts.tolist())}
        got = tally(samples)
        assert list(got.items()) == list(want.items())
        assert all(type(v) is int for key in got for v in (key if samples.ndim > 1 else (key,)))

    def test_samples_outside_the_support_fail_against_the_real_threshold(self):
        threshold = chi_square_quantile(1 - 1e-3, 1)
        got = _chi_square_vs_exact({0: 4, 1: 4, 2: 2}, {0: Fraction(1, 2), 1: Fraction(1, 2)}, 10, 1e-3)
        assert got == (False, f"stat=inf threshold={threshold:.2f} outside-support=2")
        # A cell of probability zero in the law is outside the support too.
        law = {0: Fraction(1, 2), 1: Fraction(1, 2), 2: Fraction(0)}
        assert _chi_square_vs_exact({0: 5, 2: 1}, law, 6, 1e-3)[1].endswith(" outside-support=1")

    def test_passing_detail_names_no_outside_count(self):
        got = _chi_square_vs_exact({0: 4, 1: 6}, {0: Fraction(1, 2), 1: Fraction(1, 2)}, 10, 1e-3)
        assert got == (True, f"stat=0.40 threshold={chi_square_quantile(1 - 1e-3, 1):.2f}")

    def test_check_line_counts_the_leaves_outside_the_support(self):
        def off_support(shape, theta, seed, trials, method="direct", roots=None):
            roots, leaves = generate_binary_batch(shape, theta, seed, trials, method=method, roots=roots)
            leaves[:3, 0] = 2  # a label the binary law never takes
            return roots, leaves

        result = chi_square_check(2, "path", 2000, batch_sampler=off_support)
        assert not result.passed
        assert result.detail == "stat=inf threshold=24.32 outside-support=3"


class TestExactLeafJoint:
    def test_matches_oracle_on_small_tree(self):
        shape = TreeShape(k=2, d=2)
        theta = Fraction(4, 5)
        sel = (0, 1, 3)
        joint = enumerate_joint(shape, Channel.binary(theta))
        for root in (0, 1):
            law = exact_joint_of_leaves(shape, theta, sel, root)
            assert sum(law.values()) == 1
            for cfg, p in law.items():
                direct = sum(
                    pr
                    for full, pr in joint.cond[root].items()
                    if tuple(full[i] for i in sel) == cfg
                )
                assert p == direct

    @staticmethod
    def _assert_every_subset_is_the_marginal(shape, channel):
        joint = enumerate_joint(shape, channel)
        for size in range(1, shape.n + 1):
            for sel in combinations(range(shape.n), size):
                tracked = enumerate_joint(shape, channel, leaves=sel)
                for root, num in enumerate(joint.numerators):
                    marginal = {}
                    for full, p in num.items():
                        cell = tuple(full[i] for i in sel)
                        marginal[cell] = marginal.get(cell, 0) + p
                    assert tracked.cond[root] == LawView(marginal, joint.denominator)

    @pytest.mark.parametrize("k,d", [(2, 2), (3, 1), (2, 3)])
    @pytest.mark.parametrize("theta", ["-1", "-1/2", "0", "1/3", "1"])
    def test_tracked_leaves_are_the_full_joint_marginal(self, k, d, theta):
        channel = Channel.binary(Fraction(theta))
        self._assert_every_subset_is_the_marginal(TreeShape(k=k, d=d), channel)

    def test_tracked_leaves_three_labels(self):
        channel = Channel.from_columns(
            [["1/2", "1/2", "0"], ["1/3", "1/3", "1/3"], ["0", "1/4", "3/4"]]
        )
        self._assert_every_subset_is_the_marginal(TreeShape(k=2, d=2), channel)

    @pytest.mark.parametrize("sel", [(0, 9), (1, 1), (-1, 2)])
    def test_rejects_bad_leaf_selection(self, sel):
        shape = TreeShape(k=2, d=2)
        with pytest.raises(ValueError, match="distinct indices"):
            enumerate_joint(shape, Channel.binary(Fraction(1, 2)), leaves=sel)
        with pytest.raises(ValueError, match="distinct indices"):
            exact_joint_of_leaves(shape, Fraction(1, 2), sel, 0)

    def test_cap_counts_tracked_leaves(self):
        channel = Channel.binary(Fraction(4, 5))
        with pytest.raises(ValueError, match="above the cap"):
            enumerate_joint(TreeShape(k=3, d=3), channel, leaves=tuple(range(21)))
        shape = TreeShape(k=3, d=5)  # 2^243 configurations of all leaves
        law = exact_joint_of_leaves(shape, Fraction(4, 5), (0, 121, 242), 1)
        assert len(law) == 8 and sum(law.values()) == 1


class TestA5Accuracy:
    def test_small_run(self):
        cfg = ExperimentConfig(
            experiment="a5-accuracy", seed=5, trials=100, k=(3000,), d=(2,), jobs=1
        )
        rows = run_a5_accuracy(cfg)
        assert len(rows) == 1
        assert rows[0].accuracy >= 0.9

    def test_pair3600_rows_count_the_trials_of_each_point(self, monkeypatch):
        import treecast.a5.reconstruct as reconstruct

        keys = []

        def spy(k, d, key):
            keys.append(key)
            return (1, 1 if len(keys) % 4 else 2, 0)

        monkeypatch.setattr(reconstruct, "pair_reconstruction_trial", spy)
        cfg = ExperimentConfig(
            experiment="a5-accuracy", model="pair3600", seed=5, trials=100, k=(3, 4), d=(2,), jobs=1
        )
        rows = run_a5_accuracy(cfg)
        assert [(r.k, r.theta_or_channel, r.estimator, r.accuracy) for r in rows] == [
            (3, "pair3600", "pair3600-recursive", 0.75), (4, "pair3600", "pair3600-recursive", 0.75)
        ]
        assert rows[0].advantage == 0.75 - 1 / 3600
        point_keys = [SeedSpec(5, f"a5-accuracy/{i}").key() for i in range(2)]
        assert keys == [subkey(key, t) for key in point_keys for t in range(100)]


@pytest.mark.parametrize("p", [1 - _SUITE_P_VALUE, 1 - 1e-9, 0.5, 0.05])
def test_chi_square_quantile_matches_scipy(p):
    from scipy.stats import chi2

    for dof in range(1, 201):
        got, want = chi_square_quantile(p, dof), chi2.ppf(p, dof)
        assert abs(got - want) <= 1e-9 * want, (p, dof, got, want)
        assert chi_square_sf(got, dof) == pytest.approx(chi2.sf(got, dof), rel=1e-9)


def test_chi_square_quantile_rejects_bad_arguments():
    for p, dof in ((0.0, 3), (1.0, 3), (0.5, 0)):
        with pytest.raises(ValueError):
            chi_square_quantile(p, dof)
