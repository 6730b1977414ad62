"""Declarative experiment harness: parameter scans, statistics, emitters.

A config names one of three kinds (`EXPERIMENT_KINDS`): `ks-scan`,
`noise-scan` and `a5-accuracy`, which the `scan-ks`, `scan-noise` and `a5`
subcommands run.  `a5-accuracy` covers both A5 models (`A5_MODELS`), chosen
by the config's `model`.  The generator-equivalence suite, the gadget corpus
and `verify_all` are plain seeded functions, not config kinds.  `emit`
writes every row set.

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
import math
import operator
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields
from fractions import Fraction
from functools import partial
from itertools import count, product
from typing import get_type_hints

import numpy as np

from .channels import Channel, as_fraction, fraction_text, ks_parameter, uniform_draw, unit_float
from .estimators import (
    EstimatorReport,
    bp_rounding_decisions,
    estimate_P_sd,
    linearized_bp_decisions,
    majority_decisions,
    pilot_flip_rate,
    sampled_hits,
)
from .generators import (
    generate_binary_batch,
    path_product_leaf_law,
    restriction_leaf_law,
    total_variation,
)
from .oracle import LawView, enumerate_joint
from .rng import SeedSpec, subkey, word
from .trees import TreeShape

log = logging.getLogger("treecast.experiments")

EXPERIMENT_KINDS = ("ks-scan", "noise-scan", "a5-accuracy")
A5_MODELS = {"class16": 16, "pair3600": 3600}  # label count m of each a5-accuracy model


def _parse_grid(name: str, values) -> tuple:
    """One grid, from the flags or a config file alike: a non-empty list whose
    k and d entries are ints and whose theta and s entries are the stripped
    strings that `fraction_text` accepts."""
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"grid {name!r} must be a list, got {values!r}")
    if not values:
        raise ValueError(f"grid {name!r} must be non-empty")
    parsed = []
    for value in values:
        try:
            if name in ("k", "d"):
                parsed.append(int(value) if isinstance(value, str) else operator.index(value))
            else:
                parsed.append(fraction_text(str(value)))
        except (TypeError, ValueError):
            raise ValueError(f"grid {name!r} has an invalid value {value!r}") from None
    return tuple(parsed)


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
    model: str = "class16"
    schema_version: int = 1

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENT_KINDS:
            raise ValueError(
                f"unknown experiment {self.experiment!r}; expected one of {EXPERIMENT_KINDS}"
            )
        for name in ("seed", "trials", "jobs", "schema_version"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"config key {name!r} must be an integer, got {value!r}")
        if self.out is not None and not isinstance(self.out, str):
            raise ValueError(f"config key 'out' must be a path string or null, got {self.out!r}")
        if self.schema_version != 1:
            raise ValueError(f"unsupported schema_version {self.schema_version}")
        if self.jobs < 0:
            raise ValueError(f"jobs must be >= 0 (0 means available parallelism), got {self.jobs}")
        if self.model not in (models := tuple(A5_MODELS)):
            raise ValueError(f"unknown model {self.model!r}; expected one of {models}")
        if self.trials < 100:
            raise ValueError("trials must be >= 100 for any asserted statistic")
        for name in ("k", "theta", "d", "s"):
            object.__setattr__(self, name, _parse_grid(name, getattr(self, name)))
        if self.format not in ("csv", "json"):
            raise ValueError(f"format must be csv or json, got {self.format!r}")

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("experiment config JSON must be an object")
        unknown = set(doc) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**doc)


@dataclass(frozen=True)
class ResultRow:
    """One result row.  Its fields, in order, are the CSV columns, and the
    fields before `trials` identify the row (`sort_key`)."""

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
        return tuple(getattr(self, name) for name in _KEY_COLUMNS)

    def to_csv_line(self) -> str:
        # str of a float is its shortest round-trip repr.
        return ",".join(str(getattr(self, name)) for name in _COLUMNS)

    @classmethod
    def from_csv_line(cls, line: str) -> "ResultRow":
        parts = line.split(",")
        if len(parts) != len(_COLUMNS):
            raise ValueError(f"expected {len(_COLUMNS)} CSV fields, got {len(parts)}")
        return cls(**{name: _COLUMN_TYPES[name](part) for name, part in zip(_COLUMNS, parts)})


_COLUMNS = tuple(f.name for f in fields(ResultRow))
_COLUMN_TYPES = get_type_hints(ResultRow)
_KEY_COLUMNS = _COLUMNS[: _COLUMNS.index("trials")]
CSV_HEADER = ",".join(_COLUMNS)


def _row(
    experiment: str, seed: int, k: int, theta_or_channel: str, d: int, s: str, name: str,
    trials: int, accuracy: float, m: int = 2, exact: bool = False,
) -> ResultRow:
    rep = EstimatorReport(estimator=name, trials=trials, accuracy=accuracy, m=m)
    return ResultRow(
        experiment=experiment,
        k=k,
        theta_or_channel=theta_or_channel,
        d=d,
        s=s,
        estimator=name,
        trials=trials,
        accuracy=rep.accuracy,
        stderr=0.0 if exact else rep.stderr,
        advantage=rep.advantage,
        seed=seed,
    )


def emit(rows: list[ResultRow], path: str | None = None, fmt: str = "csv") -> None:
    """Write rows in a byte-stable format with the canonical header/order.

    With no `path` the rows go to standard output, byte for byte as a file
    would hold them.
    """
    if not rows:
        raise ValueError("refusing to emit an empty row set")
    ordered = sorted(rows, key=ResultRow.sort_key)
    if fmt == "csv":
        text = CSV_HEADER + "\n" + "\n".join(r.to_csv_line() for r in ordered) + "\n"
    elif fmt == "json":
        text = json.dumps([asdict(r) for r in ordered], indent=1, sort_keys=True) + "\n"
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if not path:
        sys.stdout.write(text)
        return
    try:
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


def _grid(cfg: ExperimentConfig, *axes):
    """(cfg, index, *values) for each point of the product of `axes`, in
    order; the index names the point's stream (`_grid_seed`)."""
    for index, values in enumerate(product(*axes)):
        yield (cfg, index, *values)


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
    """Accuracy of each estimator on one shared set of sampled trees (the
    trials of the stream `seed`, scored by `sampled_hits`), with ties from a
    stream named for the estimator.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    shape = TreeShape(k=k, d=d)
    tf = float(theta)
    kernels = {}
    for name in estimators:
        tie = SeedSpec(seed.master_seed, f"{seed.stream_tag}/{name}")
        if name == "majority":
            kernels[name] = partial(majority_decisions, seed=tie, k=k)
        elif name == "linearized-bp":
            s_hat = pilot_flip_rate(shape, theta, seed)
            kernels[name] = partial(linearized_bp_decisions, shape, tf, seed=tie, s_hat=s_hat)
        elif name == "bp-rounding":
            kernels[name] = partial(bp_rounding_decisions, shape, tf, seed=tie)
        else:
            raise ValueError(f"unknown estimator {name!r}; choose from {list(ESTIMATORS)}")
    hits = sampled_hits(shape, theta, seed, trials, kernels)
    return {name: hits[name] / trials for name in estimators}


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
        _row(cfg.experiment, cfg.seed, k, theta_str, d, "0", name, cfg.trials, acc)
        for name, acc in accs.items()
    ]


def _resolve_jobs(jobs: int) -> int:
    """`jobs` if positive, else the CPUs this process may run on."""
    if jobs > 0:
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
    points = list(_grid(cfg, cfg.k, cfg.theta, cfg.d))
    batches = _map_points(_ks_point, points, _resolve_jobs(cfg.jobs))
    return sorted((row for batch in batches for row in batch), key=ResultRow.sort_key)


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
        cfg.experiment, cfg.seed, k, theta_str, d, s_str, name, trials, est.estimate,
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
    points = list(_grid(cfg, cfg.k, cfg.theta, cfg.d, cfg.s))
    rows = sorted(_map_points(_noise_point, points, _resolve_jobs(cfg.jobs)), key=ResultRow.sort_key)
    by_key = {(r.k, r.theta_or_channel, r.d, r.s): r.accuracy for r in rows}

    def nonincreasing(vals: list[float]) -> bool:
        return all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    mono_s = {
        (k, t, d): nonincreasing([by_key[k, t, d, s] for s in cfg.s])
        for _, _, k, t, d in _grid(cfg, cfg.k, cfg.theta, cfg.d)
    }
    mono_d = {
        (k, t, s): nonincreasing([by_key[k, t, d, s] for d in cfg.d])
        for _, _, k, t, s in _grid(cfg, cfg.k, cfg.theta, cfg.s)
    }
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
) -> LawView:
    """Exact joint law of selected leaves given the root: the oracle tracking
    only those leaves, listed in increasing index order."""
    return enumerate_joint(shape, Channel.binary(theta), leaves=tuple(leaf_indices)).cond[root]


def chi_square_sf(x: float, dof: int) -> float:
    """P[X > x] for X chi-square with an integer `dof` >= 1, in closed form.

    With half = x / 2 and a = (dof mod 2) / 2 it is erfc(sqrt(half)) (odd
    dof only) plus the dof // 2 terms e^-half half^(i+a) / Gamma(i+1+a),
    i = 0, 1, ...: positive terms, each from the one before.
    """
    if x <= 0:
        return 1.0
    half = x / 2
    a = dof % 2 / 2
    total = math.erfc(math.sqrt(half)) if a else 0.0
    term = math.exp(-half) * half**a / math.gamma(1 + a)
    for i in range(dof // 2):
        total += term
        term *= half / (i + 1 + a)
    return total


def chi_square_quantile(p: float, dof: int) -> float:
    """The x with P[X <= x] = p for X chi-square with an integer `dof` >= 1:
    `chi_square_sf` inverted by bisection down to adjacent floats.  The
    tail 1 - p is exact for p >= 1/2, so upper quantiles keep full precision."""
    if not 0 < p < 1:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    if dof < 1:
        raise ValueError(f"dof must be >= 1, got {dof}")
    tail = 1.0 - p
    lo, hi = 0.0, float(dof)
    while chi_square_sf(hi, dof) > tail:
        lo, hi = hi, 2 * hi
    while (mid := (lo + hi) / 2) not in (lo, hi):
        if chi_square_sf(mid, dof) > tail:
            lo = mid
        else:
            hi = mid
    return mid


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
    threshold = chi_square_quantile(1 - p_value, dof)
    return stat <= threshold, stat, threshold


_GENERATOR_METHODS = ("direct", "path", "restrictions")
_SUITE_P_VALUE = 0.001


def run_equivalence_suite(
    seed: int = 1,
    statistical_trials: int = 100_000,
    batch_sampler=generate_binary_batch,
) -> list[CheckResult]:
    """All exact generator-equivalence checks plus the statistical ones.

    Each chi-square test rejects at p = `_SUITE_P_VALUE`.  `batch_sampler`
    is injectable so a deliberately corrupted generator can be shown to fail
    the suite; the default is the real sampler.
    """
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
    joint = enumerate_joint(shape, Channel.binary(theta), leaves=leaf_sel)
    exact = {cfg: joint.mixture_prob(cfg) for num in joint.numerators for cfg in num}
    for method in _GENERATOR_METHODS:
        _, leaves = batch_sampler(
            shape, theta, SeedSpec(seed, f"equiv/{method}"), statistical_trials, method=method
        )
        picked = leaves[:, list(leaf_sel)]
        keys, counts = np.unique(picked, axis=0, return_counts=True)
        counted = {tuple(int(b) for b in row): int(c) for row, c in zip(keys, counts)}
        ok, stat, threshold = _chi_square_vs_exact(counted, exact, statistical_trials, _SUITE_P_VALUE)
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
    ok, stat, threshold = _chi_square_vs_exact(counted, law_tree, children.size, _SUITE_P_VALUE)
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


def _a5_point(args) -> ResultRow:
    cfg, index, k, d = args
    from .a5.reconstruct import class16_reconstruction_trial, pair_reconstruction_trial

    trial = class16_reconstruction_trial if cfg.model == "class16" else pair_reconstruction_trial
    key = _grid_seed(cfg, index).key()
    correct = 0
    for t in range(cfg.trials):
        root, est, _ = trial(k, d, subkey(key, t))
        correct += root == est
    return _row(
        cfg.experiment, cfg.seed, k, cfg.model, d, "0", f"{cfg.model}-recursive",
        cfg.trials, correct / cfg.trials, m=A5_MODELS[cfg.model],
    )


def run_a5_accuracy(cfg: ExperimentConfig) -> list[ResultRow]:
    """Recursive-reconstruction accuracy of `cfg.model`: the 3600-label pair
    model or its 16-label quotient, one row per (k, d) point, trial t keyed
    by `subkey(key, t)` of the point's stream."""
    if cfg.experiment != "a5-accuracy":
        raise ValueError("config is not an a5-accuracy run")
    if min(cfg.d) < 1:
        raise ValueError("reconstruction needs depth >= 1")
    points = list(_grid(cfg, cfg.k, cfg.d))
    return sorted(_map_points(_a5_point, points, _resolve_jobs(cfg.jobs)), key=ResultRow.sort_key)


# --- gadget corpus -----------------------------------------------------------


@dataclass(frozen=True)
class GadgetCorpusReport:
    formulas: int
    assignments_checked: int
    violations: int


class _CounterDraws:
    """`random_formula`'s `random()` and `integers(lo, hi)`, draw i from `word(key, i)`."""

    def __init__(self, key: int) -> None:
        self.words = (word(key, i) for i in count())

    def random(self) -> float:
        return unit_float(next(self.words))

    def integers(self, lo: int, hi: int) -> int:
        return lo + uniform_draw(hi - lo, next(self.words))


def run_gadget_corpus(seed: int = 1) -> GadgetCorpusReport:
    """Verify posterior tracking on 100 random formulas drawn from `seed`.

    Assignments are verified in one batched float BP per formula (the 1e-6
    error budget sits far inside the 19/20-vs-1/20 gap); every 25th formula
    is cross-checked by `verify_gadget`'s own BP, rational wherever
    `bp_posterior` picks it, to guard the float path itself.
    """
    from .bp import bp_posterior_batch_binary
    from .formulas import assignments, random_formula
    from .gadgets import GADGET_K, GADGET_THETA, compile_formula, verify_gadget

    n_formulas = 100
    key = SeedSpec(seed, "gadget-corpus").key()
    checked = violations = rational_spot_checks = 0
    high, low = 19 / 20 - 1e-9, 1 / 20 + 1e-9
    for findex in range(n_formulas):
        f = random_formula(_CounterDraws(subkey(key, findex)), n_vars=8, max_gates=24, max_depth=5)
        template = compile_formula(f)
        table = assignments(max(f.variables(), default=0) + 1)
        leaves = np.stack([template.instantiate(a) for a in table])
        shape = TreeShape(k=GADGET_K, d=template.depth)
        posts = bp_posterior_batch_binary(shape, float(GADGET_THETA), leaves)
        truth = np.array([f.evaluate(a) for a in table], dtype=bool)
        bad = np.where(truth, posts < high, posts > low)
        checked += len(table)
        violations += int(bad.sum())
        if findex % 25 == 0:
            verdict = verify_gadget(f, table[0], template=template)
            if abs(verdict.posterior - float(posts[0])) > 1e-9:
                violations += 1
            rational_spot_checks += verdict.mode == "exact-rational"
    log.info(
        "gadget corpus: %d formulas, %d assignments, %d rational spot checks",
        n_formulas, checked, rational_spot_checks,
    )
    return GadgetCorpusReport(formulas=n_formulas, assignments_checked=checked, violations=violations)


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

