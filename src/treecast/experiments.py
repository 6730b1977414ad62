"""Declarative experiment harness: parameter scans, statistics, emitters.

Every experiment is a pure function of (config, master seed): per-grid-point
substreams are derived by stable indices, rows are sorted by a canonical key
before emission, and the emitted wall_ms column is deterministically zero
(measured timings go to the log) so that re-runs are byte-identical
regardless of worker count.

Within one grid point all estimators score the same sampled trees, so
estimator comparisons are paired: the scans sample tree chunks and call the
batched kernels of `estimators`.  Trees and tie-breaks are keyed by the
global trial index, so a row does not depend on the chunk size or on which
other estimators run.
"""

from __future__ import annotations

import json
import logging
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import numpy as np
from scipy.stats import chi2

from .channels import Channel, as_fraction, ks_parameter
from .estimators import (
    EstimatorReport,
    bp_rounding_decisions,
    code_height,
    estimate_P_sd,
    linearized_bp_decisions,
    majority_decisions,
    pilot_flip_rate,
    trial_chunks,
)
from .generators import (
    generate_binary_batch,
    path_product_leaf_law,
    restriction_leaf_law,
    total_variation,
)
from .oracle import enumerate_joint
from .rng import SeedSpec, subkey, words_vec
from .trees import TreeShape

log = logging.getLogger("treecast.experiments")

EXPERIMENT_KINDS = (
    "ks-scan",
    "noise-scan",
    "a5-accuracy",
    "equivalence-suite",
    "gadget-corpus",
    "reduction-demo",
)

CSV_HEADER = "experiment,k,theta_or_channel,d,s,estimator,trials,accuracy,stderr,advantage,seed,wall_ms"

_CONFIG_FIELDS = {
    "schema_version",
    "experiment",
    "seed",
    "trials",
    "k",
    "theta",
    "d",
    "s",
    "out",
    "format",
    "jobs",
    "p_value",
    "stderr_band",
}


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    seed: int = 1
    trials: int = 10_000
    k: tuple[int, ...] = (2,)
    theta: tuple[str, ...] = ("1/2",)
    d: tuple[int, ...] = (4,)
    s: tuple[str, ...] = ("0",)
    out: str | None = None
    format: str = "csv"
    jobs: int = 0  # 0 means available parallelism
    p_value: float = 0.001
    stderr_band: float = 3.0
    schema_version: int = 1

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENT_KINDS:
            raise ValueError(
                f"unknown experiment {self.experiment!r}; expected one of {EXPERIMENT_KINDS}"
            )
        if self.schema_version != 1:
            raise ValueError(f"unsupported schema_version {self.schema_version}")
        if self.trials < 100:
            raise ValueError("trials must be >= 100 for any asserted statistic")
        for grid_name in ("k", "theta", "d", "s"):
            if not getattr(self, grid_name):
                raise ValueError(f"grid {grid_name!r} must be non-empty")
        if self.format not in ("csv", "json"):
            raise ValueError(f"format must be csv or json, got {self.format!r}")

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        doc = json.loads(text)
        unknown = set(doc) - _CONFIG_FIELDS
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(doc)
        for grid in ("k", "d"):
            if grid in kwargs:
                kwargs[grid] = tuple(int(x) for x in kwargs[grid])
        for grid in ("theta", "s"):
            if grid in kwargs:
                kwargs[grid] = tuple(str(x) for x in kwargs[grid])
        return cls(**kwargs)

    def thetas(self) -> list[Fraction]:
        return [as_fraction(t) for t in self.theta]

    def s_values(self) -> list[Fraction]:
        return [as_fraction(x) for x in self.s]


@dataclass(frozen=True)
class ResultRow:
    experiment: str
    k: int
    theta_or_channel: str
    d: int
    s: str
    estimator: str
    trials: int
    accuracy: float
    stderr: float
    advantage: float
    seed: int
    wall_ms: int = 0

    def sort_key(self):
        return (
            self.experiment,
            self.k,
            self.theta_or_channel,
            self.d,
            self.s,
            self.estimator,
        )

    def to_csv_line(self) -> str:
        return ",".join(
            [
                self.experiment,
                str(self.k),
                self.theta_or_channel,
                str(self.d),
                self.s,
                self.estimator,
                str(self.trials),
                repr(self.accuracy),
                repr(self.stderr),
                repr(self.advantage),
                str(self.seed),
                str(self.wall_ms),
            ]
        )

    @classmethod
    def from_csv_line(cls, line: str) -> "ResultRow":
        parts = line.split(",")
        if len(parts) != 12:
            raise ValueError(f"expected 12 CSV fields, got {len(parts)}")
        return cls(
            experiment=parts[0],
            k=int(parts[1]),
            theta_or_channel=parts[2],
            d=int(parts[3]),
            s=parts[4],
            estimator=parts[5],
            trials=int(parts[6]),
            accuracy=float(parts[7]),
            stderr=float(parts[8]),
            advantage=float(parts[9]),
            seed=int(parts[10]),
            wall_ms=int(parts[11]),
        )


def _row(
    cfg: ExperimentConfig, k: int, theta_or_channel: str, d: int, s: str, name: str,
    trials: int, accuracy: float, m: int = 2, exact: bool = False,
) -> ResultRow:
    rep = EstimatorReport(estimator=name, trials=trials, accuracy=accuracy, m=m)
    return ResultRow(
        experiment=cfg.experiment,
        k=k,
        theta_or_channel=theta_or_channel,
        d=d,
        s=s,
        estimator=name,
        trials=trials,
        accuracy=rep.accuracy,
        stderr=0.0 if exact else rep.stderr,
        advantage=rep.advantage,
        seed=cfg.seed,
    )


def emit(rows: list[ResultRow], path: str, fmt: str = "csv") -> None:
    """Write rows in a byte-stable format with the canonical header/order."""
    if not rows:
        raise ValueError("refusing to emit an empty row set")
    ordered = sorted(rows, key=ResultRow.sort_key)
    try:
        if fmt == "csv":
            text = CSV_HEADER + "\n" + "\n".join(r.to_csv_line() for r in ordered) + "\n"
        elif fmt == "json":
            text = json.dumps(
                [
                    {
                        "experiment": r.experiment,
                        "k": r.k,
                        "theta_or_channel": r.theta_or_channel,
                        "d": r.d,
                        "s": r.s,
                        "estimator": r.estimator,
                        "trials": r.trials,
                        "accuracy": r.accuracy,
                        "stderr": r.stderr,
                        "advantage": r.advantage,
                        "seed": r.seed,
                        "wall_ms": r.wall_ms,
                    }
                    for r in ordered
                ],
                indent=1,
                sort_keys=True,
            ) + "\n"
        else:
            raise ValueError(f"unknown format {fmt!r}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write results to {path}: {exc}") from exc


def read_csv(path: str) -> list[ResultRow]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("missing or wrong CSV header")
    return [ResultRow.from_csv_line(line) for line in lines[1:] if line]


def append_rows(rows: list[ResultRow], path: str) -> None:
    """Append rows to an experiment CSV, writing the header on first use."""
    if not rows:
        raise ValueError("refusing to append an empty row set")
    try:
        exists = os.path.exists(path) and os.path.getsize(path) > 0
        if exists:
            with open(path, encoding="utf-8") as fh:
                if fh.readline().rstrip("\n") != CSV_HEADER:
                    raise ValueError(f"{path} is not an experiment CSV")
        with open(path, "a", encoding="utf-8") as fh:
            if not exists:
                fh.write(CSV_HEADER + "\n")
            for r in rows:
                fh.write(r.to_csv_line() + "\n")
    except OSError as exc:
        raise OSError(f"cannot append results to {path}: {exc}") from exc


# --- shared-tree estimator scoring ----------------------------------------


def _grid_seed(cfg: ExperimentConfig, index: int) -> SeedSpec:
    return SeedSpec(cfg.seed, f"{cfg.experiment}/{index}")


ESTIMATORS = ("majority", "linearized-bp", "bp-rounding")


def score_estimators_point(
    k: int,
    theta: Fraction,
    d: int,
    trials: int,
    seed: SeedSpec,
    estimators: tuple[str, ...] = ESTIMATORS,
) -> dict[str, float]:
    """Accuracy of each estimator on one shared set of sampled trees.

    Each chunk's trees (trials start..stop-1 of the stream `seed`, drawn as
    their `code_height` subtree codes) are scored by every requested kernel,
    with ties from a stream named for the estimator.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    shape = TreeShape(k=k, d=d)
    tf = float(theta)
    h = code_height(k, d)
    kernels = {}
    for name in estimators:
        tie = SeedSpec(seed.master_seed, f"{seed.stream_tag}/{name}")
        if name == "majority":
            kernels[name] = partial(majority_decisions, seed=tie, k=k, height=h)
        elif name == "linearized-bp":
            s_hat = pilot_flip_rate(shape, theta, seed)
            kernels[name] = partial(
                linearized_bp_decisions, shape, tf, seed=tie, s_hat=s_hat, height=h
            )
        elif name == "bp-rounding":
            kernels[name] = partial(bp_rounding_decisions, shape, tf, seed=tie, height=h)
        else:
            raise ValueError(f"unknown estimator {name!r}; choose from {list(ESTIMATORS)}")
    correct = dict.fromkeys(estimators, 0)
    for start, stop in trial_chunks(trials, shape.n):
        roots, codes = generate_binary_batch(
            shape, theta, seed, stop - start, start=start, height=h
        )
        for name, kernel in kernels.items():
            correct[name] += int((kernel(codes, start) == roots).sum())
    return {name: correct[name] / trials for name in estimators}


def _ks_point(args) -> list[ResultRow]:
    cfg, index, k, theta_str, d = args
    theta = as_fraction(theta_str)
    t0 = time.perf_counter()
    accs = score_estimators_point(k, theta, d, cfg.trials, _grid_seed(cfg, index))
    ks = ks_parameter(Channel.binary(theta), k)
    elapsed = (time.perf_counter() - t0) * 1000
    log.info(
        "ks-scan point k=%d theta=%s d=%d ks=%.3f done in %.0f ms", k, theta_str, d, ks, elapsed
    )
    return [
        _row(cfg, k, theta_str, d, "0", name, cfg.trials, acc)
        for name, acc in accs.items()
    ]


def _resolve_jobs(jobs: int) -> int:
    """`jobs` if positive, else the CPUs this process may run on."""
    if jobs and jobs > 0:
        return jobs
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_points(worker, points, jobs: int):
    if jobs == 1 or len(points) <= 1:
        return [worker(p) for p in points]
    with ProcessPoolExecutor(max_workers=min(jobs, len(points))) as pool:
        return list(pool.map(worker, points))


def run_ks_scan(cfg: ExperimentConfig) -> list[ResultRow]:
    """Majority, linearized BP, and Monte Carlo BP rounding on shared trees."""
    if cfg.experiment != "ks-scan":
        raise ValueError("config is not a ks-scan")
    points = []
    index = 0
    for k in cfg.k:
        for theta_str in cfg.theta:
            for d in cfg.d:
                points.append((cfg, index, k, theta_str, d))
                index += 1
    rows: list[ResultRow] = []
    for batch in _map_points(_ks_point, points, _resolve_jobs(cfg.jobs)):
        rows.extend(batch)
    return sorted(rows, key=ResultRow.sort_key)


# --- noise scan ------------------------------------------------------------


@dataclass(frozen=True)
class NoiseScanReport:
    rows: list[ResultRow]
    monotone_in_s: dict[tuple[int, str, int], bool]
    monotone_in_d: dict[tuple[int, str, str], bool]


def _noise_point(args):
    cfg, index, k, theta_str, d, s_str = args
    shape = TreeShape(k=k, d=d)
    theta = as_fraction(theta_str)
    s = as_fraction(s_str)
    est = estimate_P_sd(shape, theta, s, cfg.trials, _grid_seed(cfg, index))
    name = "p-sd-exact" if est.method == "exact" else "p-sd-mc"
    trials = est.trials if est.method == "mc" else cfg.trials
    return _row(
        cfg, k, theta_str, d, s_str, name, trials, est.estimate,
        exact=est.method == "exact",
    )


def run_noise_scan(cfg: ExperimentConfig) -> NoiseScanReport:
    """P_{s,d} over the (s, d) grid, with monotonicity verdicts.

    Exact values are substituted wherever the enumeration cap permits.  The
    verdicts report observed monotonicity: nonincreasing in s at fixed (k,
    theta, d), and nonincreasing in d at fixed (k, theta, s).  The in-s law
    always holds for exact columns; the in-d direction genuinely fails for
    s > 0 (more noisy observations can beat fewer), so it is reported, not
    asserted.
    """
    if cfg.experiment != "noise-scan":
        raise ValueError("config is not a noise-scan")
    points = []
    index = 0
    for k in cfg.k:
        for theta_str in cfg.theta:
            for d in cfg.d:
                for s_str in cfg.s:
                    points.append((cfg, index, k, theta_str, d, s_str))
                    index += 1
    rows = _map_points(_noise_point, points, _resolve_jobs(cfg.jobs))
    rows = sorted(rows, key=ResultRow.sort_key)
    by_key = {(r.k, r.theta_or_channel, r.d, r.s): r.accuracy for r in rows}
    mono_s: dict[tuple[int, str, int], bool] = {}
    mono_d: dict[tuple[int, str, str], bool] = {}
    s_order = list(cfg.s)
    d_order = list(cfg.d)
    for k in cfg.k:
        for theta_str in cfg.theta:
            for d in cfg.d:
                vals = [by_key[(k, theta_str, d, s_str)] for s_str in s_order]
                mono_s[(k, theta_str, d)] = all(
                    vals[i] >= vals[i + 1] - 1e-12 for i in range(len(vals) - 1)
                )
            for s_str in cfg.s:
                vals = [by_key[(k, theta_str, d, s_str)] for d in d_order]
                mono_d[(k, theta_str, s_str)] = all(
                    vals[i] >= vals[i + 1] - 1e-12 for i in range(len(vals) - 1)
                )
    return NoiseScanReport(rows=rows, monotone_in_s=mono_s, monotone_in_d=mono_d)


# --- equivalence suite -----------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    params: str
    passed: bool
    detail: str = ""


# Every regular shape with at most eight leaves.
DEFAULT_EXACT_SHAPES = (
    (1, 3),
    (2, 1),
    (2, 2),
    (2, 3),
    (3, 1),
    (4, 1),
    (5, 1),
    (6, 1),
    (7, 1),
    (8, 1),
)
DEFAULT_EXACT_THETAS = ("0", "1/4", "1/2", "3/4", "1")


def exact_joint_of_leaves(
    shape: TreeShape, theta: Fraction, leaf_indices: tuple[int, ...], root: int
) -> dict[tuple[int, ...], Fraction]:
    """Exact joint law of selected leaves given the root, by branch recursion."""
    keep = (1 + theta) / 2

    def law(level: int, index: int, a: int, tracked: tuple[int, ...]):
        if not tracked:
            return {(): Fraction(1)}
        if level == shape.d:
            return {(a,): Fraction(1)}
        block = shape.k ** (shape.d - level - 1)
        out = {(): Fraction(1)}
        for child in range(shape.k):
            lo = (index * shape.k + child) * block
            sub = tuple(i for i in tracked if lo <= i < lo + block)
            if not sub:
                continue
            child_mix: dict[tuple[int, ...], Fraction] = {}
            for b in range(2):
                p_b = keep if b == a else 1 - keep
                for cfg, p in law(level + 1, index * shape.k + child, b, sub).items():
                    child_mix[cfg] = child_mix.get(cfg, Fraction(0)) + p_b * p
            out = {
                cfg + ccfg: p * q
                for cfg, p in out.items()
                for ccfg, q in child_mix.items()
            }
        return out

    tracked = tuple(sorted(leaf_indices))
    return law(0, 0, root, tracked)


def _chi_square_vs_exact(
    counts: dict, exact: dict, total: int, p_value: float
) -> tuple[bool, float, float]:
    """Goodness of fit against an exact law; fails on out-of-support mass."""
    support = set(exact)
    if any(c not in support for c in counts):
        return False, float("inf"), 0.0
    stat = 0.0
    for cell, p in exact.items():
        expected = float(p) * total
        observed = counts.get(cell, 0)
        if expected == 0:
            if observed:
                return False, float("inf"), 0.0
            continue
        stat += (observed - expected) ** 2 / expected
    dof = max(sum(1 for p in exact.values() if p > 0) - 1, 1)
    threshold = float(chi2.ppf(1 - p_value, dof))
    return stat <= threshold, stat, threshold


_GENERATOR_METHODS = ("direct", "path", "restrictions")


def run_equivalence_suite(
    cfg: ExperimentConfig | None = None,
    seed: int = 1,
    statistical_trials: int = 100_000,
    p_value: float = 0.001,
    methods: tuple[str, ...] = _GENERATOR_METHODS,
    batch_sampler=generate_binary_batch,
) -> list[CheckResult]:
    """All exact generator-equivalence checks plus the statistical ones.

    `batch_sampler` is injectable so a deliberately corrupted generator can
    be shown to fail the suite; the default is the real sampler.
    """
    if cfg is not None:
        seed = cfg.seed
        statistical_trials = max(cfg.trials, 1000)
        p_value = cfg.p_value
    results: list[CheckResult] = []

    # Exact: the three leaf laws coincide with the enumeration oracle.
    for k, d in DEFAULT_EXACT_SHAPES:
        shape = TreeShape(k=k, d=d)
        for theta_str in DEFAULT_EXACT_THETAS:
            theta = as_fraction(theta_str)
            joint = enumerate_joint(shape, Channel.binary(theta))
            for root in (0, 1):
                direct_law = joint.cond[root]
                for name, law_fn in (
                    ("path-product", path_product_leaf_law),
                    ("restrictions", restriction_leaf_law),
                ):
                    tv = total_variation(direct_law, law_fn(shape, theta, root))
                    results.append(
                        CheckResult(
                            name=f"exact-law:{name}",
                            params=f"k={k} d={d} theta={theta_str} root={root}",
                            passed=tv == 0,
                            detail=f"TV={tv}",
                        )
                    )

    # Statistical: joint law of three fixed leaves at k=3, d=5.
    shape = TreeShape(k=3, d=5)
    theta = as_fraction("4/5")
    leaf_sel = (0, shape.n // 2, shape.n - 1)
    exact = {}
    for root in (0, 1):
        for cfg_bits, p in exact_joint_of_leaves(shape, theta, leaf_sel, root).items():
            exact[cfg_bits] = exact.get(cfg_bits, Fraction(0)) + p / 2
    for method in methods:
        _, leaves = batch_sampler(
            shape, theta, SeedSpec(seed, f"equiv/{method}"), statistical_trials, method=method
        )
        picked = leaves[:, list(leaf_sel)]
        keys, counts = np.unique(picked, axis=0, return_counts=True)
        counted = {tuple(int(b) for b in row): int(c) for row, c in zip(keys, counts)}
        ok, stat, threshold = _chi_square_vs_exact(counted, exact, statistical_trials, p_value)
        results.append(
            CheckResult(
                name=f"chi-square:{method}",
                params=f"k=3 d=5 theta=4/5 leaves={leaf_sel}",
                passed=ok,
                detail=f"stat={stat:.2f} threshold={threshold:.2f}",
            )
        )

    # Pair model vs product tree: exact child law at depth 1, then chi-square.
    from .a5 import pair_model_child_law, product_tree_child_law
    from .a5.group import A5
    from .a5.pair_model import _product_tree_levels, pair_code

    sigma = (3, 17, 42, 9)
    law_tree = product_tree_child_law(sigma)
    root_pair = pair_code(A5.product(sigma[:2]), A5.product(sigma[2:]))
    law_pair = pair_model_child_law(root_pair)
    results.append(
        CheckResult(
            name="pair-vs-product-tree:exact",
            params=f"sigma={sigma}",
            passed=law_tree == law_pair,
            detail=f"support={len(law_tree)}",
        )
    )
    k_chi = 3
    trees = max(statistical_trials // k_chi, 1)
    levels = _product_tree_levels(1, np.array(sigma, dtype=np.uint8), k_chi, SeedSpec(seed, "equiv/ptree"), trees)
    children = levels[1].reshape(-1)
    keys, counts = np.unique(children, return_counts=True)
    counted = {int(c): int(n) for c, n in zip(keys, counts)}
    ok, stat, threshold = _chi_square_vs_exact(counted, law_tree, children.size, p_value)
    results.append(
        CheckResult(
            name="pair-vs-product-tree:chi-square",
            params=f"sigma={sigma} samples={children.size}",
            passed=ok,
            detail=f"stat={stat:.2f} threshold={threshold:.2f}",
        )
    )
    return results


def suite_failures(results: list[CheckResult]) -> list[CheckResult]:
    return [r for r in results if not r.passed]


# --- A5 reconstruction accuracy ---------------------------------------------


def run_a5_accuracy(cfg: ExperimentConfig) -> list[ResultRow]:
    """Recursive-reconstruction accuracy on the 16-label quotient model."""
    if cfg.experiment != "a5-accuracy":
        raise ValueError("config is not an a5-accuracy run")
    from .a5.reconstruct import class16_reconstruction_trial

    rows = []
    index = 0
    for k in cfg.k:
        for d in cfg.d:
            key = _grid_seed(cfg, index).key()
            correct = 0
            for trial in range(cfg.trials):
                root, est, _ = class16_reconstruction_trial(k, d, subkey(key, trial))
                correct += root == est
            rows.append(
                _row(
                    cfg, k, "class16", d, "0", "class16-recursive", cfg.trials,
                    correct / cfg.trials, m=16,
                )
            )
            index += 1
    return sorted(rows, key=ResultRow.sort_key)


# --- gadget corpus -----------------------------------------------------------


@dataclass(frozen=True)
class GadgetCorpusReport:
    formulas: int
    assignments_checked: int
    violations: int
    rows: list[ResultRow]


def run_gadget_corpus(cfg: ExperimentConfig) -> GadgetCorpusReport:
    """Verify posterior tracking on a corpus of random formulas.

    Assignments are verified in one batched float BP per formula (the 1e-6
    error budget sits far inside the 19/20-vs-1/20 gap); a few rational
    cross-checks guard the float path itself.
    """
    if cfg.experiment != "gadget-corpus":
        raise ValueError("config is not a gadget-corpus run")
    from .bp import bp_posterior_batch_binary
    from .formulas import random_formula
    from .gadgets import GADGET_K, GADGET_THETA, compile_formula, verify_gadget

    n_formulas = min(cfg.trials, 100)
    rng = np.random.Generator(np.random.PCG64(SeedSpec(cfg.seed, "gadget-corpus").key()))
    checked = 0
    violations = 0
    high = 19 / 20 - 1e-9
    low = 1 / 20 + 1e-9
    rational_spot_checks = 0
    for findex in range(n_formulas):
        f = random_formula(rng, n_vars=8, max_gates=24, max_depth=5)
        template = compile_formula(f)
        n_vars = (max(f.variables()) + 1) if f.variables() else 1
        assignments = [
            [(bits >> (n_vars - 1 - i)) & 1 for i in range(n_vars)]
            for bits in range(1 << n_vars)
        ]
        leaves = np.stack([template.instantiate(a) for a in assignments])
        shape = TreeShape(k=GADGET_K, d=template.depth)
        posts = bp_posterior_batch_binary(shape, float(GADGET_THETA), leaves)
        truth = np.array([f.evaluate(a) for a in assignments], dtype=bool)
        bad = np.where(truth, posts < high, posts > low)
        checked += len(assignments)
        violations += int(bad.sum())
        if findex % 25 == 0 and template.depth <= 4:
            verdict = verify_gadget(f, assignments[0], mode="rational", template=template)
            if abs(verdict.posterior - float(posts[0])) > 1e-9:
                violations += 1
            rational_spot_checks += 1
    acc = 1.0 - violations / max(checked, 1)
    row = _row(cfg, 6, "9/10", 5, "0", "gadget-tracking", checked, acc)
    log.info(
        "gadget corpus: %d formulas, %d assignments, %d rational spot checks",
        n_formulas, checked, rational_spot_checks,
    )
    return GadgetCorpusReport(
        formulas=n_formulas, assignments_checked=checked, violations=violations, rows=[row]
    )


# --- reduction demo ----------------------------------------------------------


@dataclass(frozen=True)
class ReductionDemoReport:
    amplify_accuracy: float
    amplify_instances: int
    detection_direct: float
    detection_via_word: float
    rows: list[ResultRow]


def run_reduction_demo(
    cfg: ExperimentConfig,
    r: int = 64,
    oracle_epsilon: float = 0.1,
    amplify_trials: int = 500,
) -> ReductionDemoReport:
    """Amplify a weak synthetic product guesser and run the detection pipeline."""
    if cfg.experiment != "reduction-demo":
        raise ValueError("config is not a reduction-demo run")
    from .a5 import (
        amplify_oracle,
        detection_to_word,
        make_instance,
        synthetic_oracle,
    )
    from .a5.group import A5
    from .a5.pair_model import _uniform60, generate_pair_model
    from .a5.reconstruct import recursive_reconstruct

    seed = SeedSpec(cfg.seed, "reduction")
    oracle = synthetic_oracle(oracle_epsilon, SeedSpec(cfg.seed, "reduction/oracle"))
    instances = min(cfg.trials, 200)
    correct = 0
    five_cycle = int(A5.five_cycles()[0])
    for i in range(instances):
        promise = "identity" if i % 2 == 0 else "target"
        inst = make_instance(r, promise, five_cycle, SeedSpec(cfg.seed, f"reduction/inst{i}"))
        result = amplify_oracle(
            oracle, inst, amplify_trials, SeedSpec(cfg.seed, f"reduction/amp{i}")
        )
        correct += result.decision == promise
    amp_acc = correct / instances

    # Detection accuracy, direct pair model vs the product-tree pipeline.
    k, d = 3600, 1
    trials = min(cfg.trials, 1000)
    shape = TreeShape(k=k, d=d)
    direct_hits = 0
    via_word_hits = 0
    for i in range(trials):
        tree = generate_pair_model(shape, SeedSpec(cfg.seed, f"reduction/pair{i}"))
        est = recursive_reconstruct(
            tree.leaves, k, "pair3600", seed=SeedSpec(cfg.seed, f"reduction/rec{i}")
        )
        direct_hits += est.root_estimate == tree.root
        sig_words = words_vec(
            SeedSpec(cfg.seed, f"reduction/sigma{i}").key(), np.arange(4, dtype=np.uint64)
        )
        sigma = _uniform60(sig_words)
        record = detection_to_word(
            lambda leaves: recursive_reconstruct(
                leaves, k, "pair3600", seed=SeedSpec(cfg.seed, f"reduction/recw{i}")
            ).root_estimate,
            sigma,
            k,
            d,
            SeedSpec(cfg.seed, f"reduction/ptree{i}"),
        )
        via_word_hits += record.correct
    rows = [
        _row(cfg, r, "a5-word", 0, "0", "amplified-oracle", instances, amp_acc, m=2),
        _row(cfg, k, "pair3600", d, "0", "recursive-direct", trials, direct_hits / trials, m=3600),
        _row(cfg, k, "pair3600", d, "0", "recursive-via-word", trials, via_word_hits / trials, m=3600),
    ]
    return ReductionDemoReport(
        amplify_accuracy=amp_acc,
        amplify_instances=instances,
        detection_direct=direct_hits / trials,
        detection_via_word=via_word_hits / trials,
        rows=rows,
    )


# --- self-verification -------------------------------------------------------


def verify_all(seed: int = 1, quick: bool = False) -> list[CheckResult]:
    """The oracle/property suite behind the `verify` CLI subcommand."""
    from fractions import Fraction as F

    from .a5.group import A5
    from .a5.quotient import quotient_channel
    from .bp import LeafLikelihood, bp_posterior
    from .gadgets import gadget_posterior_bound
    from .generators import biased_bit_approx_from_bits, biased_bit_exact_from_bits, generate_direct

    results: list[CheckResult] = []

    def check(name: str, params: str, passed: bool, detail: str = "") -> None:
        results.append(CheckResult(name=name, params=params, passed=bool(passed), detail=detail))

    # Group algebra.
    try:
        A5.verify()
        check("a5-tables", "60^3 associativity, inverses, identity, class sizes", True)
    except AssertionError as exc:
        check("a5-tables", "", False, str(exc))

    # Quotient channel: lumpability, stochasticity, zero second eigenvalue.
    try:
        ch = quotient_channel()
        sq = ch.square()
        check(
            "quotient-channel",
            "16-label lumpability + M'^2 column equality",
            sq.has_identical_columns(),
            "columns identical" if sq.has_identical_columns() else "columns differ",
        )
        check("quotient-ks", "k=60000", ks_parameter(ch, 60000) == 0.0)
    except AssertionError as exc:
        check("quotient-channel", "", False, str(exc))

    # BP equals the enumeration oracle on every configuration.
    shapes = ((2, 1), (2, 2), (3, 1)) if quick else ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2))
    bp_ok = True
    worst = ""
    for k, d in shapes:
        shape = TreeShape(k=k, d=d)
        for theta_str in ("1/4", "1/2", "3/4"):
            theta = as_fraction(theta_str)
            channel = Channel.binary(theta)
            joint = enumerate_joint(shape, channel)
            for cfg_bits in joint.configurations():
                want = joint.posterior(cfg_bits)
                got = bp_posterior(
                    shape, channel, LeafLikelihood.from_labels(cfg_bits, 2), mode="rational"
                ).masses
                if tuple(want) != tuple(got):
                    bp_ok = False
                    worst = f"k={k} d={d} theta={theta_str} x={cfg_bits}"
    check("bp-vs-oracle", f"shapes={shapes}", bp_ok, worst)

    # Generator equivalence.
    for res in run_equivalence_suite(
        seed=seed, statistical_trials=20_000 if quick else 100_000
    ):
        results.append(res)

    # Biased-bit samplers, exhaustive.
    exact_ok = True
    for theta_str, b in (("0", 0), ("1/2", 1), ("3/4", 2), ("5/8", 3)):
        theta = as_fraction(theta_str)
        ones = sum(
            biased_bit_exact_from_bits(theta, [(u >> (b - i)) & 1 for i in range(b + 1)])
            for u in range(1 << (b + 1))
        )
        expect = (1 << b) + theta.numerator * ((1 << b) // theta.denominator)
        exact_ok &= ones == expect
    check("biased-bit-exact", "theta in {0, 1/2, 3/4, 5/8}", exact_ok)
    approx_ok = True
    for t_bits in (1, 4, 8):
        theta = F(1, 3)
        ones = sum(
            biased_bit_approx_from_bits(
                theta, t_bits, [(u >> (t_bits - 1 - i)) & 1 for i in range(t_bits)]
            )
            for u in range(1 << t_bits)
        )
        approx_ok &= abs(F(ones, 1 << t_bits) - (1 + theta) / 2) <= F(1, 1 << t_bits)
    check("biased-bit-approx", "theta=1/3, t in {1, 4, 8}", approx_ok)

    # Gadget posterior floor at the extreme grid corner.
    corner = gadget_posterior_bound([F(19, 20)] * 4 + [F(0), F(0)])
    check("gadget-corner", "(0.95, 0.95, 0.95, 0.95, 0, 0)", corner >= F(19, 20), f"value={float(corner):.6f}")

    # Reproducibility: identical dumps from identical seeds.
    shape = TreeShape(k=2, d=3)
    a = generate_direct(shape, Channel.binary(F(1, 2)), SeedSpec(seed, "verify"))
    b = generate_direct(shape, Channel.binary(F(1, 2)), SeedSpec(seed, "verify"))
    check("reproducibility", "gen twice, same seed", a.to_bytes() == b.to_bytes())
    return results


def run_experiment(cfg: ExperimentConfig):
    """Dispatch a config to its runner; returns (rows, extra report or None)."""
    if cfg.experiment == "ks-scan":
        return run_ks_scan(cfg), None
    if cfg.experiment == "noise-scan":
        report = run_noise_scan(cfg)
        return report.rows, report
    if cfg.experiment == "a5-accuracy":
        return run_a5_accuracy(cfg), None
    if cfg.experiment == "equivalence-suite":
        results = run_equivalence_suite(cfg)
        rows = [
            _row(
                cfg, 0, "equivalence", i, "0", r.name.replace(",", ";"), max(cfg.trials, 100),
                1.0 if r.passed else 0.0,
            )
            for i, r in enumerate(results)
        ]
        return rows, results
    if cfg.experiment == "gadget-corpus":
        report = run_gadget_corpus(cfg)
        return report.rows, report
    if cfg.experiment == "reduction-demo":
        report = run_reduction_demo(cfg)
        return report.rows, report
    raise ValueError(f"unknown experiment {cfg.experiment!r}")
