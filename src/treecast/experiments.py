"""Declarative experiment harness: parameter scans, statistics, emitters.

A config names one of three kinds: `ks-scan`, `noise-scan` and `a5-accuracy`,
which the `scan-ks`, `scan-noise` and `a5` subcommands run.  One table,
`EXPERIMENTS`, gives each kind the keys it reads, with their defaults, and
its point function, and one runner, `run_experiment`, runs them all.
`a5-accuracy` covers both A5 models (`A5_MODELS`), chosen by the config's
`model`.  `verify_all` runs one ordered table of checks, `VERIFY_CHECKS`,
whose families printed per parameter point each have a function of one point.
The gadget corpus is a plain seeded function.  `emit` writes every row set.

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

from .bp import LeafLikelihood, bp_posterior
from .channels import Channel, as_fraction, binary_theta, fraction_text, ks_parameter, uniform_draw, unit_float
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
    BATCH_METHODS,
    NoiseSpec,
    biased_bit_approx_from_bits,
    biased_bit_exact_from_bits,
    generate_binary_batch,
    generate_direct,
    path_product_leaf_law,
    restriction_leaf_law,
    total_variation,
)
from .oracle import LawView, enumerate_joint
from .rng import SeedSpec, subkey, word
from .trees import TreeShape

log = logging.getLogger("treecast.experiments")

A5_MODELS = {"class16": 16, "pair3600": 3600}  # label count m of each a5-accuracy model


def _parse_grid(name: str, values) -> tuple:
    """One grid, from the flags or a config file alike: a non-empty list whose
    k and d entries are ints (not bools) and whose theta and s entries are
    the stripped strings that `fraction_text` accepts, theta in [-1, 1] and
    s in [0, 1/2] as the points check, no value twice (`4/5` and `0.8` are
    one value)."""
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"grid {name!r} must be a list, got {values!r}")
    if not values:
        raise ValueError(f"grid {name!r} must be non-empty")
    parsed: dict = {}  # each value's number: its int, or its Fraction
    for value in values:
        try:
            if name in ("k", "d"):
                if isinstance(value, bool):
                    raise TypeError
                item = int(value) if isinstance(value, str) else operator.index(value)
            else:
                item = fraction_text(str(value))
        except (TypeError, ValueError):
            raise ValueError(f"grid {name!r} has an invalid value {value!r}") from None
        if (number := as_fraction(item)) in parsed:
            raise ValueError(f"grid {name!r} repeats the value {value!r}")
        if name == "theta":
            binary_theta(number)
        if name == "s":
            NoiseSpec(number)
        parsed[number] = item
    return tuple(parsed.values())


@dataclass(frozen=True)
class ExperimentConfig:
    """One run of a kind: each key the kind reads (`EXPERIMENTS`) left None
    takes the kind's default, and every other key stays None."""

    experiment: str
    seed: int = 1
    trials: int | None = None
    k: tuple[int, ...] | None = None
    theta: tuple[str, ...] | None = None
    d: tuple[int, ...] | None = None
    s: tuple[str, ...] | None = None
    out: str | None = None
    format: str = "csv"
    jobs: int = 0  # 0 means available parallelism
    model: str | None = None
    schema_version: int = 1

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENT_KINDS:
            raise ValueError(
                f"unknown experiment {self.experiment!r}; expected one of {EXPERIMENT_KINDS}"
            )
        reads = EXPERIMENTS[self.experiment][0]
        if unread := sorted(n for n in (*GRID_KEYS, "model") if n not in reads and getattr(self, n) is not None):
            raise ValueError(f"{self.experiment} reads no config key {', '.join(map(repr, unread))}")
        for name, default in reads.items():
            if getattr(self, name) is None:
                object.__setattr__(self, name, default)
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
        if self.model not in (None, *A5_MODELS):
            raise ValueError(f"unknown model {self.model!r}; expected one of {tuple(A5_MODELS)}")
        if self.trials < 100:
            raise ValueError("trials must be >= 100 for any asserted statistic")
        for name in filter(GRID_KEYS.__contains__, reads):  # in point order
            object.__setattr__(self, name, _parse_grid(name, getattr(self, name)))
        shape = TreeShape  # every point's shape passes the check its run makes
        if self.model is not None:
            from .a5.reconstruct import trial_shape

            shape = partial(trial_shape, self.model)
        for k, d in product(self.k, self.d):
            shape(k, d)
        if self.format not in ("csv", "json"):
            raise ValueError(f"format must be csv or json, got {self.format!r}")

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("experiment config JSON must be an object")
        if unknown := set(doc) - {f.name for f in fields(cls)}:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if "experiment" not in doc:
            raise ValueError("experiment config JSON lacks the key 'experiment'")
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


# --- the grid runner ---------------------------------------------------------


def _grid(cfg: ExperimentConfig, *axes):
    """(cfg, index, *values) for each point of the product of `axes`, in
    order; the index names the point's stream (`_grid_seed`)."""
    for index, values in enumerate(product(*axes)):
        yield (cfg, index, *values)


def _grid_seed(cfg: ExperimentConfig, index: int) -> SeedSpec:
    return SeedSpec(cfg.seed, f"{cfg.experiment}/{index}")


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


def _noise_point(args) -> list[ResultRow]:
    cfg, index, k, theta_str, d, s_str = args
    shape, theta, s = TreeShape(k=k, d=d), as_fraction(theta_str), as_fraction(s_str)
    est = estimate_P_sd(shape, theta, s, cfg.trials, _grid_seed(cfg, index))
    return [_row(
        cfg.experiment, cfg.seed, k, theta_str, d, s_str, f"p-sd-{est.method}", cfg.trials, est.estimate,
        exact=est.method == "exact",
    )]


def _a5_point(args) -> list[ResultRow]:
    cfg, index, k, d = args
    from .a5.reconstruct import class16_reconstruction_trial, pair_reconstruction_trial

    trial = class16_reconstruction_trial if cfg.model == "class16" else pair_reconstruction_trial
    key = _grid_seed(cfg, index).key()
    correct = sum(root == est for root, est, _ in (trial(k, d, subkey(key, t)) for t in range(cfg.trials)))
    return [_row(
        cfg.experiment, cfg.seed, k, cfg.model, d, "0", f"{cfg.model}-recursive",
        cfg.trials, correct / cfg.trials, m=A5_MODELS[cfg.model],
    )]


# Each kind's keys with their defaults, which a config's None takes and which
# are its command's defaults: the grid axes in point order, then `trials` (and
# `model`).  Then its point function, from (cfg, index, *axis values) to that
# point's rows: majority, linearized BP and Monte Carlo BP rounding on shared
# trees; P_{s,d}, exact wherever the enumeration cap permits; and the
# reconstruction accuracy of `cfg.model`, trial t keyed by `subkey(key, t)`.
EXPERIMENTS = {
    "ks-scan": ({"k": (2,), "theta": ("1/2", "4/5"), "d": (4, 6), "trials": 10_000}, _ks_point),
    "noise-scan": ({"k": (2,), "theta": ("9/10",), "d": (1, 2, 3), "s": ("0", "1/10", "1/5", "3/10", "2/5", "1/2"),
                    "trials": 2000}, _noise_point),
    "a5-accuracy": ({"k": (500,), "d": (2,), "trials": 200, "model": "class16"}, _a5_point),
}
EXPERIMENT_KINDS = tuple(EXPERIMENTS)
GRID_KEYS = ("k", "theta", "d", "s")


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


def run_experiment(cfg: ExperimentConfig) -> list[ResultRow]:
    """The rows of `cfg`'s kind: its point function over the product of its
    axes, spread over `cfg.jobs` workers, sorted by `ResultRow.sort_key`."""
    keys, point = EXPERIMENTS[cfg.experiment]
    points = list(_grid(cfg, *(getattr(cfg, axis) for axis in keys if axis in GRID_KEYS)))
    batches = _map_points(point, points, _resolve_jobs(cfg.jobs))
    return sorted((row for batch in batches for row in batch), key=ResultRow.sort_key)


run_ks_scan = run_experiment


@dataclass(frozen=True)
class NoiseScanReport:
    rows: list[ResultRow]
    monotone_in_s: dict[tuple[int, str, int], bool]
    monotone_in_d: dict[tuple[int, str, str], bool]


def run_noise_scan(cfg: ExperimentConfig) -> NoiseScanReport:
    """A noise-scan's rows, with monotonicity verdicts.

    The verdicts report observed monotonicity: nonincreasing in s at fixed
    (k, theta, d), and nonincreasing in d at fixed (k, theta, s).  The in-s
    law always holds for exact columns; the in-d direction genuinely fails
    for s > 0 (more noisy observations can beat fewer), so it is reported,
    not asserted.
    """
    rows = run_experiment(cfg)
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


# Every regular shape with at most eight leaves, k = 1 once, at d = 3.
DEFAULT_EXACT_SHAPES = ((1, 3), *((k, d) for k in range(2, 9) for d in (1, 2, 3) if k**d <= 8))
DEFAULT_EXACT_THETAS = ("0", "1/4", "1/2", "3/4", "1")


def exact_joint_of_leaves(
    shape: TreeShape, theta: Fraction, leaf_indices: tuple[int, ...], root: int
) -> LawView:
    """Exact joint law of selected leaves given the root: the oracle tracking
    only those leaves, listed in increasing index order."""
    if root not in (0, 1):
        raise ValueError(f"root label {root} outside [0, 2)")
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


def _chi_square_vs_exact(counts: dict, exact: dict, total: int, p_value: float) -> tuple[bool, str]:
    """Goodness of fit of `total` samples, tallied in `counts`, against the
    exact law `exact` at `p_value`: the verdict, and a detail naming the
    statistic, the threshold and any samples outside the support."""
    outside = sum(c for cell, c in counts.items() if not exact.get(cell))
    stat = sum((counts.get(cell, 0) - float(p) * total) ** 2 / (float(p) * total) for cell, p in exact.items() if p)
    dof = max(sum(1 for p in exact.values() if p > 0) - 1, 1)
    threshold = chi_square_quantile(1 - p_value, dof)
    if outside:
        return False, f"stat=inf threshold={threshold:.2f} outside-support={outside}"
    return stat <= threshold, f"stat={stat:.2f} threshold={threshold:.2f}"


def tally(samples: np.ndarray) -> dict:
    """Each distinct sample's count, in sorted order: a row of a 2-D array
    keyed by its tuple of ints, an entry of a 1-D array by its int.  Rows are
    sorted as their indices in the box of the columns' value ranges, which
    `np.ravel_multi_index` refuses past 2^63 cells."""
    if not len(samples):
        return {}
    rows = samples.reshape(len(samples), -1)
    low = rows.min(axis=0)
    dims = tuple((rows.max(axis=0) - low + 1).tolist())
    cells, counts = np.unique(np.ravel_multi_index(tuple((rows - low).T), dims), return_counts=True)
    keys = np.stack(np.unravel_index(cells, dims), axis=1) + low
    return {(tuple(key) if samples.ndim > 1 else key[0]): c for key, c in zip(keys.tolist(), counts.tolist())}


def chi_square_of_samples(samples: np.ndarray, exact: dict, p_value: float) -> tuple[bool, str]:
    """`samples` (`tally`'s cells) against the exact law `exact`."""
    return _chi_square_vs_exact(tally(samples), exact, len(samples), p_value)


_SUITE_P_VALUE = 0.001


def exact_law_checks(k: int, d: int, theta: str, root: int) -> list[CheckResult]:
    """The path-product and restriction leaf laws of the (k, d) tree at
    `theta` given `root`, each against the enumeration oracle's."""
    shape, value = TreeShape(k=k, d=d), as_fraction(theta)
    direct_law = enumerate_joint(shape, Channel.binary(value)).cond[root]
    results = []
    for name, law_fn in (("path-product", path_product_leaf_law), ("restrictions", restriction_leaf_law)):
        tv = total_variation(direct_law, law_fn(shape, value, root))
        results.append(CheckResult(f"exact-law:{name}", f"k={k} d={d} theta={theta} root={root}", tv == 0, f"TV={tv}"))
    return results


def chi_square_check(seed: int, method: str, trials: int, batch_sampler=generate_binary_batch) -> CheckResult:
    """One batch method's joint law of three fixed leaves at k=3, d=5,
    theta=4/5 against the oracle's, over `trials` sampled trees."""
    shape, theta = TreeShape(k=3, d=5), Fraction(4, 5)
    leaf_sel = (0, shape.n // 2, shape.n - 1)
    joint = enumerate_joint(shape, Channel.binary(theta), leaves=leaf_sel)
    exact = {cfg: joint.mixture_prob(cfg) for num in joint.numerators for cfg in num}
    _, leaves = batch_sampler(shape, theta, SeedSpec(seed, f"equiv/{method}"), trials, method=method)
    passed, detail = chi_square_of_samples(leaves[:, list(leaf_sel)], exact, _SUITE_P_VALUE)
    return CheckResult(f"chi-square:{method}", f"k=3 d=5 theta=4/5 leaves={leaf_sel}", passed, detail)


def pair_vs_product_tree_checks(seed: int, trials: int) -> list[CheckResult]:
    """The pair model's child law against the product tree's at depth 1,
    exactly, then by chi-square over the children of `trials` // 3 trees."""
    from .a5 import pair_model_child_law, product_tree_child_law
    from .a5.group import A5
    from .a5.pair_model import _product_tree_levels, pair_code

    sigma = (3, 17, 42, 9)
    law_tree = product_tree_child_law(sigma)
    law_pair = pair_model_child_law(pair_code(A5.product(sigma[:2]), A5.product(sigma[2:])))
    trees = max(trials // 3, 1)
    children = _product_tree_levels(1, np.array(sigma, dtype=np.uint8), 3, SeedSpec(seed, "equiv/ptree"), trees)[1]
    passed, detail = chi_square_of_samples(children.reshape(-1), law_tree, _SUITE_P_VALUE)
    return [
        CheckResult("pair-vs-product-tree:exact", f"sigma={sigma}", law_tree == law_pair, f"support={len(law_tree)}"),
        CheckResult("pair-vs-product-tree:chi-square", f"sigma={sigma} samples={children.size}", passed, detail),
    ]


def run_equivalence_suite(
    seed: int = 1,
    statistical_trials: int = 100_000,
    batch_sampler=generate_binary_batch,
) -> list[CheckResult]:
    """The generator families of `verify`: the exact leaf laws at each
    (shape, theta, root) of `DEFAULT_EXACT_SHAPES` x `DEFAULT_EXACT_THETAS`,
    each batch method's chi-square and the pair model against the product
    tree.  `batch_sampler` is injectable so a deliberately corrupted
    generator can be shown to fail the suite."""
    points = product(DEFAULT_EXACT_SHAPES, DEFAULT_EXACT_THETAS, (0, 1))
    return [
        *(result for (k, d), theta, root in points for result in exact_law_checks(k, d, theta, root)),
        *(chi_square_check(seed, method, statistical_trials, batch_sampler) for method in BATCH_METHODS),
        *pair_vs_product_tree_checks(seed, statistical_trials),
    ]


def suite_failures(results: list[CheckResult]) -> list[CheckResult]:
    return [r for r in results if not r.passed]


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

    Each formula is checked on all its assignments by one float
    `check_all_assignments`; every 25th formula's first assignment is
    cross-checked by `verify_gadget`'s own BP, rational wherever
    `bp_posterior` picks it, to guard the float path itself.
    """
    from .formulas import random_formula
    from .gadgets import check_all_assignments, compile_formula, verify_gadget

    n_formulas = 100
    key = SeedSpec(seed, "gadget-corpus").key()
    checked = violations = rational_spot_checks = 0
    for findex in range(n_formulas):
        f = random_formula(_CounterDraws(subkey(key, findex)), n_vars=8, max_gates=24, max_depth=5)
        template = compile_formula(f)
        posts, tracks = check_all_assignments(f, template, mode="float")
        checked += len(tracks)
        violations += int((~tracks).sum())
        if findex % 25 == 0:
            verdict = verify_gadget(f, [0] * (max(f.variables(), default=0) + 1), template=template)
            if abs(verdict.posterior - float(posts[0])) > 1e-9:
                violations += 1
            rational_spot_checks += verdict.mode == "exact-rational"
    log.info(
        "gadget corpus: %d formulas, %d assignments, %d rational spot checks",
        n_formulas, checked, rational_spot_checks,
    )
    return GadgetCorpusReport(formulas=n_formulas, assignments_checked=checked, violations=violations)


# --- self-verification -------------------------------------------------------


def _a5_tables(seed: int, quick: bool) -> list[CheckResult]:
    from .a5.group import A5

    A5.verify()
    return [CheckResult("a5-tables", "60^3 associativity, inverses, identity, class sizes", True)]


def _quotient_channel(seed: int, quick: bool) -> list[CheckResult]:
    """Lumpability and stochasticity (checked as the channel is built), and
    the zero second eigenvalue."""
    from .a5.quotient import quotient_channel

    ch = quotient_channel()
    flat = ch.square().has_identical_columns()
    return [
        CheckResult("quotient-channel", "16-label lumpability + M'^2 column equality", flat,
                    "columns identical" if flat else "columns differ"),
        CheckResult("quotient-ks", "k=60000", ks_parameter(ch, 60000) == 0.0),
    ]


def bp_oracle_mismatches(k: int, d: int, theta: str) -> tuple[list[tuple[int, ...]], int]:
    """The leaf configurations of the (k, d) tree at `theta` on which
    rational BP's posterior differs from the enumeration oracle's, in the
    oracle's order, and the count of configurations."""
    shape, channel = TreeShape(k=k, d=d), Channel.binary(as_fraction(theta))
    joint = enumerate_joint(shape, channel)
    configs = joint.configurations()
    masses = [bp_posterior(shape, channel, LeafLikelihood.from_labels(x, 2), mode="rational").masses for x in configs]
    return [x for x, got in zip(configs, masses) if tuple(joint.posterior(x)) != tuple(got)], len(configs)


def _bp_vs_oracle(seed: int, quick: bool) -> list[CheckResult]:
    """BP equals the oracle on every configuration: one line for all shapes."""
    shapes = ((2, 1), (2, 2), (3, 1)) if quick else ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2))
    differ, total = [], 0
    for (k, d), theta in product(shapes, ("1/4", "1/2", "3/4")):
        configs, count = bp_oracle_mismatches(k, d, theta)
        differ += [f"k={k} d={d} theta={theta} x={x}" for x in configs]
        total += count
    detail = f"{differ[0]}; {len(differ)} of {total} configurations differ" if differ else ""
    return [CheckResult("bp-vs-oracle", f"shapes={shapes}", not differ, detail)]


def _biased_bits(seed: int, quick: bool) -> list[CheckResult]:
    """Both biased-bit samplers' rate of ones, (1 + theta) / 2, over every
    string of their input bits."""
    def rate(sampler, width: int) -> Fraction:  # strings of `width` bits, most significant first
        ones = sum(sampler([(u >> (width - 1 - i)) & 1 for i in range(width)]) for u in range(1 << width))
        return Fraction(ones, 1 << width)

    exact = ((Fraction(0), 0), (Fraction(1, 2), 1), (Fraction(3, 4), 2), (Fraction(5, 8), 3))
    exact_ok = all(rate(partial(biased_bit_exact_from_bits, theta), b + 1) == (1 + theta) / 2 for theta, b in exact)
    theta = Fraction(1, 3)
    approx_ok = all(
        abs(rate(partial(biased_bit_approx_from_bits, theta, t), t) - (1 + theta) / 2) <= Fraction(1, 1 << t)
        for t in (1, 4, 8)
    )
    return [
        CheckResult("biased-bit-exact", "theta in {0, 1/2, 3/4, 5/8}", exact_ok),
        CheckResult("biased-bit-approx", "theta=1/3, t in {1, 4, 8}", approx_ok),
    ]


def _gadget_corner(seed: int, quick: bool) -> list[CheckResult]:
    """The gadget posterior floor at the bound's minimum over the lemma grid."""
    from .gadgets import lemma_grid_check

    corner = lemma_grid_check()
    return [CheckResult("gadget-corner", "(0.95, 0.95, 0.95, 0.95, 0, 0)", corner.passed,
                        f"value={float(corner.min_value):.6f}")]


def _reproducibility(seed: int, quick: bool) -> list[CheckResult]:
    """Identical dumps from identical seeds."""
    shape, channel = TreeShape(k=2, d=3), Channel.binary(Fraction(1, 2))
    a, b = (generate_direct(shape, channel, SeedSpec(seed, "verify")).to_bytes() for _ in "ab")
    return [CheckResult("reproducibility", "gen twice, same seed", a == b)]


# Every check `verify` runs, in order, each a function of (seed, quick).
VERIFY_CHECKS = {
    "a5-tables": _a5_tables,
    "quotient-channel": _quotient_channel,
    "bp-vs-oracle": _bp_vs_oracle,
    "generator-equivalence": lambda seed, quick: run_equivalence_suite(seed, 20_000 if quick else 100_000),
    "biased-bits": _biased_bits,
    "gadget-corner": _gadget_corner,
    "reproducibility": _reproducibility,
}


def run_check(name: str, seed: int = 1, quick: bool = False) -> list[CheckResult]:
    """The results of one `VERIFY_CHECKS` entry; an AssertionError it raises
    is one failed check named after the entry."""
    try:
        return VERIFY_CHECKS[name](seed, quick)
    except AssertionError as exc:
        return [CheckResult(name, "", False, str(exc))]


def verify_all(seed: int = 1, quick: bool = False) -> list[CheckResult]:
    """The oracle/property suite behind the `verify` CLI subcommand."""
    return [result for name in VERIFY_CHECKS for result in run_check(name, seed, quick)]
