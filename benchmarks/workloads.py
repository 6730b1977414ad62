"""The benchmark's workloads: seeded task lists over treecast's public functions.

Every workload is a closed loop: one client runs its task list in order, each
task starting when the previous one has finished.  A task is a few parts run
in order; the tuple of their outputs (plain values) is the task's output, and
its check returns None when the output is right, else the reason it is
wrong.  Task costs do not depend on the seed, so runs with different seeds
measure the same work.

Treecast functions are looked up through their modules at call time, so the
traced run sees the wrappers that `trace.install` puts in place.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import sqrt
from typing import Callable, NamedTuple

import numpy as np
from scipy.stats import chi2

import treecast.a5.barrington as bar
import treecast.a5.pair_model as pm
import treecast.a5.quotient as quo
import treecast.a5.reconstruct as rec
import treecast.a5.reduction as red
import treecast.bp as bpm
import treecast.estimators as est
import treecast.experiments as ex
import treecast.generators as gen
import treecast.oracle as orc
import treecast.rng as rng
from treecast.a5.group import A5
from treecast.channels import Channel
from treecast.formulas import Gate, Var
from treecast.rng import SeedSpec
from treecast.trees import TreeShape

# Statistical checks use a 6-sigma band (two-sided tail 2e-9 per check) and
# chi-square at p = 1e-9, so a correct program fails a check about once in
# 10^8 checks, while a biased sampler still fails the pooled band.
Z = 6.0
CHI_P = 1e-9


class Check(NamedTuple):
    """One checked computation: `run` returns an output, `check` judges it."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass(frozen=True)
class Task:
    kind: str
    parts: tuple[Callable[[], object], ...]
    check: Callable[[tuple], str | None]

    def run(self) -> tuple:
        return tuple(part() for part in self.parts)


@dataclass(frozen=True)
class Workload:
    name: str
    task_size: str
    nominal_cycle_s: float  # one cycle on the reference machine; sets the cycle count
    cycle: Callable[[int, str, int, bool], list[Task]]  # (seed, tag, index, smoke)
    warmup: Callable[[], None]  # keeps lazy set-up and first-call costs out of the loop
    pooled_check: Callable[[list[tuple]], str | None]  # over every output of the run
    expected_spans: tuple[str, ...]
    dominant_layers: tuple[str, ...]
    # Whether task times are reported at the reference speed (see
    # worker.SpeedProbe); only for workloads whose speed the probe tracks.
    speed_scaled: bool


# A measured run has at least this many tasks, so that the latency tail
# (the highest percentile with ten samples beyond it) exists.
MIN_TASKS = 11


def task_list(
    w: Workload, seed: int, seconds: float, tag: str, smoke: bool = False, min_tasks: int = 1
) -> list[Task]:
    """The fixed task list of one run: whole cycles, as many as fit `seconds`
    on the reference machine but at least `min_tasks` tasks, so every count
    is a function of the arguments."""
    if smoke:
        return w.cycle(seed, tag, 0, True)
    tasks: list[Task] = []
    cycles = max(1, round(seconds / w.nominal_cycle_s))
    index = 0
    while index < cycles or len(tasks) < min_tasks:
        tasks += w.cycle(seed, tag, index, False)
        index += 1
    return tasks


def _band(ok: bool, what: str) -> str | None:
    return None if ok else what


def _run_small_cycle(cycle) -> Callable[[], None]:
    return lambda: [task.run() for task in cycle(0, "warmup", 0, True)]


def _bundle(kind: str, checks: list[Check]) -> Task:
    """One task whose parts are several checked computations.

    Workloads whose checks differ widely in cost bundle them into tasks of
    equal cost, so that the latency percentiles do not fall on the boundary
    between two kinds of check and jump from run to run.
    """

    def check(out: tuple) -> str | None:
        for c, part_out in zip(checks, out):
            reason = c.check(part_out)
            if reason:
                return f"{c.kind}: {reason}"
        return None

    return Task(kind, tuple(c.run for c in checks), check)


# --- mc-scan ----------------------------------------------------------------

MC_K, MC_D, MC_THETA, MC_S = 2, 12, Fraction(4, 5), Fraction(1, 10)
# One full chunk of the production path: score_estimators_point and
# estimate_P_sd batch 1 + 2^23 // n = 2049 trees of n = 4096 leaves at a
# time, so each call here moves one 2^23-cell batch, as every chunk but the
# last of a 10_000-trial scan does.
MC_TRIALS = 1 + (1 << 23) // MC_K**MC_D


def exact_majority_accuracy(k: int, d: int, theta: Fraction) -> float:
    """P[leaf majority = root] with random tie-breaks, from the exact law of
    the leaf ones count.

    The ones count of a depth-d subtree with root label a has generating
    polynomial f_d^a = (keep f_{d-1}^a + flip f_{d-1}^(1-a))^k, f_0^1 = x,
    f_0^0 = 1.  This uses no sampler, so it checks the sampled accuracy
    independently.  Float64 throughout; every coefficient is a nonnegative
    probability, so the rounding error stays near 1e-13.
    """
    keep = float((1 + theta) / 2)
    f1, f0 = np.array([0.0, 1.0]), np.array([1.0])
    for _ in range(d):
        one = np.zeros(max(len(f1), len(f0)))
        zero = np.zeros_like(one)
        one[: len(f1)] += keep * f1
        one[: len(f0)] += (1 - keep) * f0
        zero[: len(f0)] += keep * f0
        zero[: len(f1)] += (1 - keep) * f1
        g1, g0 = np.array([1.0]), np.array([1.0])
        for _ in range(k):
            g1, g0 = np.convolve(g1, one), np.convolve(g0, zero)
        f1, f0 = g1, g0
    n = k**d
    above = f1[n // 2 + 1:].sum() if n % 2 == 0 else f1[(n + 1) // 2:].sum()
    tie = f1[n // 2] / 2 if n % 2 == 0 else 0.0
    return float(above + tie)


# exact_majority_accuracy(2, 12, 4/5), stored so that a run checks against a
# fixed number; smoke mode recomputes it.
MC_MAJORITY_EXACT = 0.8168466972199109


def _mc_check(out: tuple) -> str | None:
    (maj, lin, bp, t), (psd, method, psd_trials) = out
    if method != "mc" or psd_trials != t:
        return f"P_sd took the {method} path with {psd_trials} trials"
    p = MC_MAJORITY_EXACT
    if abs(maj - p) > Z * sqrt(p * (1 - p) / t):
        return f"majority accuracy {maj} outside the band around exact {p:.6f}"
    # Paired: both estimators score the same trees, and a disagreement needs
    # at least one of them wrong, so Var(difference) <= (err_a + err_b) / t.
    for name, other in (("majority", maj), ("linearized-bp", lin)):
        if bp < other - Z * sqrt(max(2 - bp - other, 1.0 / t) / t):
            return f"bp-rounding {bp} below {name} {other} beyond the paired band"
    # Independent samples: noisy leaves (s = 1/10) cannot beat noise-free ones.
    var = (psd * (1 - psd) + bp * (1 - bp)) / t
    if psd > bp + Z * sqrt(max(var, 1.0 / t**2)):
        return f"noisy-leaf accuracy {psd} above noise-free {bp} beyond the band"
    return None


def _mc_cycle(seed: int, tag: str, index: int, smoke: bool) -> list[Task]:
    trials = 40 if smoke else MC_TRIALS
    shape = TreeShape(k=MC_K, d=MC_D)

    def score() -> tuple:
        acc = ex.score_estimators_point(
            MC_K, MC_THETA, MC_D, trials, SeedSpec(seed, f"{tag}/{index}/score")
        )
        return (acc["majority"], acc["linearized-bp"], acc["bp-rounding"], trials)

    def psd() -> tuple:
        r = est.estimate_P_sd(shape, MC_THETA, MC_S, trials, SeedSpec(seed, f"{tag}/{index}/psd"))
        return (r.estimate, r.method, r.trials)

    return [Task("grid-point", (score, psd), _mc_check)]


def _mc_pooled(outs: list[tuple]) -> str | None:
    trials = sum(score[3] for score, _ in outs)
    maj = sum(score[0] * score[3] for score, _ in outs) / trials
    p = MC_MAJORITY_EXACT
    return _band(
        abs(maj - p) <= Z * sqrt(p * (1 - p) / trials),
        f"pooled majority accuracy {maj:.6f} over {trials} trials outside the band around {p:.6f}",
    )


MC_SCAN = Workload(
    name="mc-scan",
    task_size=(
        f"one grid point k={MC_K} theta={MC_THETA} d={MC_D} (n={MC_K**MC_D} leaves): "
        f"3 estimators on {MC_TRIALS} shared trees, then Monte Carlo P_sd at s={MC_S} "
        f"on {MC_TRIALS} trees"
    ),
    nominal_cycle_s=1.3,
    cycle=_mc_cycle,
    warmup=_run_small_cycle(_mc_cycle),
    pooled_check=_mc_pooled,
    # No estimators.pilot: at k=2, theta=4/5, k theta^2 = 1.28 <= 2, so
    # linearized BP takes the analytic flip rate and runs no pilot.
    expected_spans=(
        "experiments.score", "generators.batch", "bp.batch",
        "estimators.psd_mc", "rng.trial_keys", "rng.trial_level_words", "rng.stream_key",
    ),
    dominant_layers=("rng", "generators", "bp", "estimators"),
    # Its 2^23-cell numpy passes are memory-bound, and their speed does not
    # follow the pure-Python probe: scaling by it tripled the run-to-run
    # spread of task_s.p50, so its task times are reported as measured.
    speed_scaled=False,
)


# --- exact-verify -----------------------------------------------------------

EXACT_THETAS = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
EXACT_SHAPES = tuple(TreeShape(k=k, d=d) for k, d in ex.DEFAULT_EXACT_SHAPES)
BP_SHAPES = (TreeShape(k=2, d=3), TreeShape(k=3, d=2))
PSD_THETA = Fraction(9, 10)
PSD_S = (Fraction(0), Fraction(1, 10), Fraction(3, 10))
CHI_SHAPE, CHI_THETA, CHI_TRIALS = TreeShape(k=3, d=5), Fraction(4, 5), 20_000
CHI_LEAVES = (0, CHI_SHAPE.n // 2, CHI_SHAPE.n - 1)

# Exact P_{s,d} at k=2, theta=9/10, from treecast.estimators.exact_P_sd when
# the benchmark was defined.  Exact results may never change, so any
# difference is a failure.
PSD_GOLDEN = {
    (1, Fraction(0)): Fraction("19/20"),
    (1, Fraction(1, 10)): Fraction("43/50"),
    (1, Fraction(3, 10)): Fraction("17/25"),
    (2, Fraction(0)): Fraction("37739/40000"),
    (2, Fraction(1, 10)): Fraction("281881/312500"),
    (2, Fraction(3, 10)): Fraction("228907/312500"),
    (3, Fraction(0)): Fraction("30108327523/32000000000"),
    (3, Fraction(1, 10)): Fraction("1800963807439/1953125000000"),
    (3, Fraction(3, 10)): Fraction("1532923699423/1953125000000"),
    (4, Fraction(0)): Fraction("96229664018510865046847/102400000000000000000000"),
    (4, Fraction(1, 10)): Fraction(
        "1776558095185934118795359911/1907348632812500000000000000"
    ),
    (4, Fraction(3, 10)): Fraction(
        "1590101213516817532436030659/1907348632812500000000000000"
    ),
}


def _leaf_law_check(shape: TreeShape, theta: Fraction, root: int) -> Check:
    def run() -> tuple:
        joint = orc.enumerate_joint(shape, Channel.binary(theta))
        direct = joint.cond[root]
        tv_path = gen.total_variation(direct, gen.path_product_leaf_law(shape, theta, root))
        tv_restr = gen.total_variation(direct, gen.restriction_leaf_law(shape, theta, root))
        return (str(tv_path), str(tv_restr))

    return Check("leaf-law", run, lambda out: _band(out == ("0", "0"), f"TV = {out}"))


def _bp_oracle_check(shape: TreeShape, theta: Fraction) -> Check:
    def run() -> tuple:
        channel = Channel.binary(theta)
        joint = orc.enumerate_joint(shape, channel)
        configs = joint.configurations()
        mismatches = sum(
            tuple(joint.posterior(x))
            != tuple(
                bpm.bp_posterior(
                    shape, channel, bpm.LeafLikelihood.from_labels(x, 2), mode="rational"
                ).masses
            )
            for x in configs
        )
        return (len(configs), mismatches)

    want = 2**shape.n
    return Check(
        "bp-oracle", run,
        lambda out: _band(out == (want, 0), f"{out[1]} of {out[0]} configurations differ"),
    )


def _psd_check(d: int, s: Fraction) -> Check:
    def run() -> tuple:
        r = est.estimate_P_sd(TreeShape(k=2, d=d), PSD_THETA, s, 1000, SeedSpec(0, "psd"))
        return (r.method, str(r.exact))

    want = ("exact", str(PSD_GOLDEN[(d, s)]))
    return Check("psd-exact", run, lambda out: _band(out == want, f"got {out}, want {want}"))


def _chi_check(seed: int, tag: str, index: int, method: str, trials: int) -> Check:
    def run() -> tuple:
        _, leaves = gen.generate_binary_batch(
            CHI_SHAPE, CHI_THETA, SeedSpec(seed, f"{tag}/{index}/chi/{method}"), trials,
            method=method,
        )
        exact: dict[tuple[int, ...], Fraction] = {}
        for root in (0, 1):
            law = ex.exact_joint_of_leaves(CHI_SHAPE, CHI_THETA, CHI_LEAVES, root)
            for cell, p in law.items():
                exact[cell] = exact.get(cell, Fraction(0)) + p / 2
        cells, counts = np.unique(leaves[:, list(CHI_LEAVES)], axis=0, return_counts=True)
        observed = {tuple(int(b) for b in c): int(n) for c, n in zip(cells, counts)}
        stat = sum(
            (observed.get(cell, 0) - float(p) * trials) ** 2 / (float(p) * trials)
            for cell, p in exact.items()
        )
        outside = sum(n for cell, n in observed.items() if exact.get(cell, 0) == 0)
        return (method, stat, outside, len(exact))

    def check(out: tuple) -> str | None:
        _, stat, outside, cells = out
        threshold = float(chi2.ppf(1 - CHI_P, cells - 1))
        return _band(
            outside == 0 and stat <= threshold,
            f"chi-square {stat:.2f} > {threshold:.2f} or {outside} samples outside the support",
        )

    return Check("chi-square", run, check)


# Each exact-verify task is about 2.5 s at the reference speed: for one root,
# the leaf-law check at (2,3), which takes nearly all of it, with the shapes
# of fewer than 7 leaves; or exact P_sd at d = 1..4, the chi-square check,
# both rational-BP checks and the leaf-law checks at (7,1) and (8,1).
HEAVY_LEAF_LAW = TreeShape(k=2, d=3)
MIXED_LEAF_LAW = tuple(s for s in EXACT_SHAPES if s.n >= 7 and s != HEAVY_LEAF_LAW)
LIGHT_LEAF_LAW = tuple(s for s in EXACT_SHAPES if s.n < 7)


def _exact_cycle(seed: int, tag: str, index: int, smoke: bool) -> list[Task]:
    """Three tasks of about equal cost at one theta (cycle i takes the i-th
    of EXACT_THETAS, round robin, with its noise rate and chi-square
    generator); together they run every exact check at that theta once."""
    if smoke:
        small = TreeShape(k=2, d=2)
        return [_bundle("verify", [
            _leaf_law_check(small, EXACT_THETAS[0], 1),
            _bp_oracle_check(small, EXACT_THETAS[1]),
            _psd_check(2, PSD_S[1]),
            _chi_check(seed, tag, index, "direct", 2000),
        ])]
    j = index % len(EXACT_THETAS)
    theta, s, method = EXACT_THETAS[j], PSD_S[j], ("direct", "path", "restrictions")[j]
    return [
        _bundle("verify", [
            *(_psd_check(d, s) for d in (1, 2, 3, 4)),
            _chi_check(seed, tag, index, method, CHI_TRIALS),
            *(_bp_oracle_check(shape, theta) for shape in BP_SHAPES),
            *(_leaf_law_check(shape, theta, root) for shape in MIXED_LEAF_LAW for root in (0, 1)),
        ]),
        *(
            _bundle("verify", [
                *(_leaf_law_check(shape, theta, root) for shape in (HEAVY_LEAF_LAW, *LIGHT_LEAF_LAW)),
            ])
            for root in (0, 1)
        ),
    ]


EXACT_VERIFY = Workload(
    name="exact-verify",
    task_size=(
        "a third of the exact checks at one theta in {1/4, 1/2, 3/4}: either exact P_sd at "
        "k=2 theta=9/10 d=1..4 for one s, one generator's chi-square at k=3 d=5 with 20k "
        "trials, rational BP vs the oracle on every configuration of (2,3) and (3,2) and "
        "the leaf-law equivalence on (7,1) and (8,1) for both roots, or, for one root, the "
        "leaf-law equivalence on (2,3) and the 7 shapes with < 7 leaves"
    ),
    nominal_cycle_s=7.9,
    cycle=_exact_cycle,
    warmup=_run_small_cycle(_exact_cycle),
    pooled_check=lambda outs: None,
    expected_spans=(
        "oracle.enumerate", "generators.exact_law", "generators.total_variation",
        "bp.rational", "oracle.posterior", "estimators.psd_exact", "estimators.exact_psd",
        "oracle.bayes", "generators.batch", "experiments.exact_joint",
    ),
    dominant_layers=("generators", "oracle", "bp"),
    speed_scaled=True,
)


# --- a5-reduction -----------------------------------------------------------

AMP_R, AMP_EPS, AMP_TRIALS = 64, 0.1, 500
PAIR_K, PAIR_TREES = 3600, 40
C16_K, C16_D, C16_TRIALS = 6000, 2, 8
C16_TREE = TreeShape(k=4, d=8)
BAR_DEPTH, BAR_VARS = 5, 8
ASSIGNMENTS = np.array(
    [[(b >> (BAR_VARS - 1 - i)) & 1 for i in range(BAR_VARS)] for b in range(1 << BAR_VARS)],
    dtype=np.uint8,
)
FIVE_CYCLES = tuple(A5.five_cycles())


def _draws(seed: int, label: str, count: int) -> np.ndarray:
    """`count` uniform 64-bit words for one input of the benchmark itself."""
    return rng.words_vec(SeedSpec(seed, label).key(), np.arange(count, dtype=np.uint64))


def _five_cycle(seed: int, label: str) -> int:
    return FIVE_CYCLES[int(_draws(seed, label, 1)[0] % np.uint64(len(FIVE_CYCLES)))]


def _amplify_check(seed: int, tag: str, index: int, trials: int) -> Check:
    base = f"{tag}/{index}/amp"
    promise = "identity" if index % 2 == 0 else "target"
    target = _five_cycle(seed, base)

    def run() -> tuple:
        inst = red.make_instance(AMP_R, promise, target, SeedSpec(seed, f"{base}/inst"))
        oracle = red.synthetic_oracle(AMP_EPS, SeedSpec(seed, f"{base}/oracle"))
        res = red.amplify_oracle(oracle, inst, trials, SeedSpec(seed, f"{base}/votes"))
        return (promise, res.decision, res.votes_identity, res.votes_target, res.trials)

    return Check(
        "amplify", run,
        lambda out: _band(out[1] == out[0], f"decided {out[1]} on a {out[0]} instance"),
    )


def _pair_check(seed: int, tag: str, index: int, trees: int) -> Check:
    base = f"{tag}/{index}/pair"
    shape = TreeShape(k=PAIR_K, d=1)
    words = [
        tuple(int(w % np.uint64(60)) for w in _draws(seed, f"{base}/sigma{j}", 4))
        for j in range(trees)
    ]

    def run() -> tuple:
        out = []
        for j, sigma in enumerate(words):
            tree = pm.generate_pair_model(shape, SeedSpec(seed, f"{base}/tree{j}"))
            direct = rec.recursive_reconstruct(
                tree.leaves, PAIR_K, "pair3600", seed=SeedSpec(seed, f"{base}/rec{j}")
            )
            detector_seed = SeedSpec(seed, f"{base}/recw{j}")
            record = red.detection_to_word(
                lambda leaves: rec.recursive_reconstruct(
                    leaves, PAIR_K, "pair3600", seed=detector_seed
                ).root_estimate,
                sigma, PAIR_K, 1, SeedSpec(seed, f"{base}/ptree{j}"),
            )
            out.append((tree.root, direct.root_estimate, record.guess, record.truth))
        return tuple(out)

    def check(out: tuple) -> str | None:
        wrong = sum(root != guess or g != truth for root, guess, g, truth in out)
        return _band(wrong == 0, f"{wrong} of {len(out)} pair3600 detections wrong")

    return Check("pair3600", run, check)


def _class16_check(seed: int, tag: str, index: int, trials: int, shape: TreeShape) -> Check:
    base = f"{tag}/{index}/c16"
    internal = (shape.n - 1) // (shape.k - 1)

    def run() -> tuple:
        key = SeedSpec(seed, base).key()
        batch = tuple(
            rec.class16_reconstruction_trial(C16_K, C16_D, rng.subkey(key, t))
            for t in range(trials)
        )
        tree = quo.generate_class16(shape, SeedSpec(seed, f"{base}/tree"))
        decoded = rec.recursive_reconstruct(
            tree.leaves, shape.k, "class16", seed=SeedSpec(seed, f"{base}/rec")
        )
        return batch + ((tree.root, decoded.root_estimate, decoded.flagged_nodes),)

    def check(out: tuple) -> str | None:
        *batch, (_, estimate, flagged) = out
        hits = sum(root == guess for root, guess, _ in batch)
        if not (0 <= estimate < 16 and 0 <= flagged <= internal):
            return f"class16 decode gave label {estimate} with {flagged} flagged nodes"
        # Misses at k=6000, d=2 are rare (2 in 3000 trials) but real, so one
        # batch only has to beat chance by far; the bar of the acceptance
        # suite, accuracy >= 0.9, is the pooled check over the whole run.
        return _band(2 * hits >= len(batch), f"class16 batch: {hits} of {len(batch)} roots")

    return Check("class16", run, check)


def _formula(seed: int, label: str, depth: int):
    """A complete formula of the given depth over BAR_VARS seeded variables.

    Levels alternate AND and OR, so the program length, and with it the
    task's cost, is the same for every seed.
    """
    draws = iter(_draws(seed, label, 1 << depth))

    def build(level: int):
        if level == depth:
            return Var(int(next(draws) % np.uint64(BAR_VARS)))
        op = "and" if level % 2 == 0 else "or"
        return Gate(op=op, left=build(level + 1), right=build(level + 1))

    return build(0)


def _barrington_check(seed: int, tag: str, index: int, depth: int) -> Check:
    base = f"{tag}/{index}/bar"
    formula = _formula(seed, base, depth)
    target = _five_cycle(seed, f"{base}/target")
    truth = np.array([formula.evaluate(list(a)) for a in ASSIGNMENTS], dtype=bool)

    def run() -> tuple:
        program = bar.barrington_compile(formula, target)
        products = bar.evaluate_program_batch(program, ASSIGNMENTS)
        return (target, len(program), tuple(int(g) for g in products))

    def check(out: tuple) -> str | None:
        want = np.where(truth, out[0], A5.identity)
        wrong = int((np.array(out[2]) != want).sum())
        return _band(wrong == 0, f"program disagrees with the truth table on {wrong} assignments")

    return Check("barrington", run, check)


def _a5_cycle(seed: int, tag: str, index: int, smoke: bool) -> list[Task]:
    """One task: a round of the four kinds in a fixed order."""
    if smoke:
        parts = [
            _amplify_check(seed, tag, index, 50),
            _pair_check(seed, tag, index, 2),
            _class16_check(seed, tag, index, 1, TreeShape(k=4, d=4)),
            _barrington_check(seed, tag, index, 3),
        ]
    else:
        parts = [
            _amplify_check(seed, tag, index, AMP_TRIALS),
            _pair_check(seed, tag, index, PAIR_TREES),
            _class16_check(seed, tag, index, C16_TRIALS, C16_TREE),
            _barrington_check(seed, tag, index, BAR_DEPTH),
        ]
    return [_bundle("round", parts)]


def _a5_warmup() -> None:
    for target in FIVE_CYCLES:  # the compiler caches one witness per target
        bar.commutator_witness(target)
    _run_small_cycle(_a5_cycle)()


def _a5_pooled(outs: list[tuple]) -> str | None:
    batches = [out[2][:-1] for out in outs]  # the class16 part, less its k=4 tree
    hits = sum(root == guess for batch in batches for root, guess, _ in batch)
    trials = sum(len(batch) for batch in batches)
    return _band(
        hits >= 0.9 * trials,
        f"class16 accuracy {hits}/{trials} below 0.9 at k={C16_K}, d={C16_D}",
    )


A5_REDUCTION = Workload(
    name="a5-reduction",
    task_size=(
        f"one round of four kinds: amplify ({AMP_TRIALS} votes, r={AMP_R}, eps={AMP_EPS}); "
        f"{PAIR_TREES} pair3600 detections at k={PAIR_K} d=1; {C16_TRIALS} class16 trials at "
        f"k={C16_K} d={C16_D} plus one k=4 d=8 tree; a depth-{BAR_DEPTH} Barrington program on "
        f"all {1 << BAR_VARS} assignments"
    ),
    nominal_cycle_s=0.25,
    cycle=_a5_cycle,
    warmup=_a5_warmup,
    pooled_check=_a5_pooled,
    expected_spans=(
        "a5.reduction.make_instance", "a5.reduction.synthetic_oracle", "a5.reduction.oracle",
        "a5.reduction.amplify", "a5.reduction.randomize", "a5.group.product",
        "a5.pair_model.generate", "a5.reconstruct", "a5.reduction.detect",
        "a5.reconstruct.trial", "a5.quotient.generate_class16", "generators.direct",
        "a5.barrington.compile", "a5.barrington.eval", "rng.words_vec", "rng.subkey",
    ),
    dominant_layers=("a5.reduction", "a5.group", "a5.reconstruct", "rng"),
    speed_scaled=True,
)

WORKLOADS = {w.name: w for w in (MC_SCAN, EXACT_VERIFY, A5_REDUCTION)}
