"""In-memory span tracing of treecast's public functions, from outside the package.

`install` wraps, in place, the public functions of the treecast modules
(the layers) that the workloads reach: each call records one span (name,
start, end, parent, task) and, for functions that do countable work, a small
dict of work counts computed from the call's arguments and result.  Private
helpers are not wrapped, so their time is self time of the public function
that calls them (the PCG64 leaf sampler inside `estimate_P_sd`, for one).
Nothing under `src/` changes; the wrappers replace the module attributes,
including the copies that other treecast modules bound with
`from .x import y`.

Spans stay in memory and are written out when the run ends.  A span's self
time is its duration minus the time its child spans cover.  `layer_metrics`
turns the spans into the per-layer metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter
from types import ModuleType

def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _shape_nodes(args, kwargs, result):
    return {"nodes": _arg(args, kwargs, 0, "shape").total_nodes}


def _exact_law_patterns(args, kwargs, result, base):
    """Patterns the leaf-law enumeration visits: at each level, every
    configuration of the previous level times every flip (base 2) or
    restriction-symbol (base 3) pattern of the new level."""
    shape = _arg(args, kwargs, 0, "shape")
    prev = 1
    patterns = 0
    for lvl in range(1, shape.d + 1):
        count = shape.nodes_at(lvl)
        patterns += prev * base**count
        prev = 2**count
    return {"patterns": patterns}


def _reconstructed_nodes(level_size: int, k: int) -> int:
    """Internal nodes above a full level of `level_size` labels."""
    nodes, size = 0, level_size
    while size > 1:
        size //= k
        nodes += size
    return nodes


def _score_chunks(args, kwargs, result):
    shape_n = _arg(args, kwargs, 0, "k") ** _arg(args, kwargs, 2, "d")
    trials = _arg(args, kwargs, 3, "trials")
    chunk_cells = kwargs.get("chunk_cells", args[6] if len(args) > 6 else 1 << 23)
    chunk = max(1, min(trials, 1 + chunk_cells // max(shape_n, 1)))
    return {"chunks": -(-trials // chunk)}


def _instrumentation():
    """(owner, attribute, span name or namer, work function[, span of the
    returned function]) for every public function the workloads reach."""
    import treecast.a5.barrington as barrington
    import treecast.a5.pair_model as pair_model
    import treecast.a5.quotient as quotient
    import treecast.a5.reconstruct as reconstruct
    import treecast.a5.reduction as reduction
    import treecast.bp as bp
    import treecast.channels as channels
    import treecast.estimators as estimators
    import treecast.experiments as experiments
    import treecast.generators as generators
    import treecast.oracle as oracle
    import treecast.rng as rng
    from treecast.a5.group import A5

    one_word = lambda a, k, r: {"words": 1}  # noqa: E731
    return [
        # rng: words are counted where they are produced, so wrappers that
        # delegate (level_words -> words_vec, subkey -> word) count none.
        (rng, "stream_key", "rng.stream_key", one_word),
        (rng, "word", "rng.word", one_word),
        (rng, "words_vec", "rng.words_vec", lambda a, k, r: {"words": int(r.size)}),
        (rng, "trial_level_words", "rng.trial_level_words", lambda a, k, r: {"words": int(r.size)}),
        (rng, "trial_keys", "rng.trial_keys", None),
        (rng, "level_words", "rng.level_words", None),
        (rng, "subkey", "rng.subkey", None),
        # generators
        (generators, "generate_binary_batch", "generators.batch",
         lambda a, k, r: {"leaf_trials": int(r[1].size)}),
        (generators, "path_product_leaf_law", "generators.exact_law",
         lambda a, k, r: _exact_law_patterns(a, k, r, 2)),
        (generators, "restriction_leaf_law", "generators.exact_law",
         lambda a, k, r: _exact_law_patterns(a, k, r, 3)),
        (generators, "generate_direct", "generators.direct", _shape_nodes),
        (generators, "total_variation", "generators.total_variation", None),
        # bp: the rational/float split is read from the report's mode.
        (bp, "bp_posterior",
         lambda r: "bp.rational" if r.mode == "exact-rational" else "bp.float", _shape_nodes),
        (bp, "bp_posterior_batch_binary", "bp.batch",
         lambda a, k, r: {"leaf_trials": int(_arg(a, k, 2, "leaves").size)}),
        (bp.LeafLikelihood, "from_labels", "bp.evidence", None),
        # estimators: estimate_P_sd is named by the path it took.
        (estimators, "estimate_P_sd",
         lambda r: "estimators.psd_mc" if r.method == "mc" else "estimators.psd_exact",
         lambda a, k, r: {"leaf_trials": r.trials * _arg(a, k, 0, "shape").n}),
        (estimators, "exact_P_sd", "estimators.exact_psd", None),
        (estimators, "estimate_flip_rate", "estimators.pilot", None),
        # oracle
        (oracle, "enumerate_joint", "oracle.enumerate",
         lambda a, k, r: {"configs": sum(len(law) for law in r.cond)}),
        (oracle, "bayes_accuracy", "oracle.bayes", None),
        (oracle.JointDistribution, "posterior", "oracle.posterior", None),
        (oracle.JointDistribution, "configurations", "oracle.configurations", None),
        # experiments
        (experiments, "score_estimators_point", "experiments.score", _score_chunks),
        (experiments, "exact_joint_of_leaves", "experiments.exact_joint", None),
        # channels
        (channels.Channel, "binary", "channels.binary", None),
        (channels.Channel, "sampling_cuts", "channels.sampling_cuts", None),
        (channels.Channel, "to_float", "channels.to_float", None),
        # a5
        (A5, "product", "a5.group.product", None),
        (pair_model, "generate_pair_model", "a5.pair_model.generate", _shape_nodes),
        (quotient, "quotient_channel", "a5.quotient.channel", None),
        (quotient, "generate_class16", "a5.quotient.generate_class16", None),
        (reconstruct, "recursive_reconstruct", "a5.reconstruct",
         lambda a, k, r: {
             "nodes": _reconstructed_nodes(len(_arg(a, k, 0, "labels")), _arg(a, k, 1, "k")),
             "flagged": r.flagged_nodes,
         }),
        (reconstruct, "class16_reconstruction_trial", "a5.reconstruct.trial",
         lambda a, k, r: {
             "nodes": _reconstructed_nodes(_arg(a, k, 0, "k") ** _arg(a, k, 1, "d"), _arg(a, k, 0, "k")),
             "flagged": r[2],
         }),
        (barrington, "barrington_compile", "a5.barrington.compile", None),
        (barrington, "evaluate_program_batch", "a5.barrington.eval",
         lambda a, k, r: {"steps": len(_arg(a, k, 0, "program")) * len(r)}),
        (reduction, "randomize_word", "a5.reduction.randomize",
         lambda a, k, r: {"symbols": len(r[0])}),
        (reduction, "amplify_oracle", "a5.reduction.amplify",
         lambda a, k, r: {"accepted": r.accepted, "trials": r.trials}),
        (reduction, "make_instance", "a5.reduction.make_instance", None),
        (reduction, "detection_to_word", "a5.reduction.detect", None),
        (reduction, "synthetic_oracle", "a5.reduction.synthetic_oracle", None,
         "a5.reduction.oracle"),
    ]


class Tracer:
    """Spans and work counts of one traced pass, kept in memory."""

    def __init__(self) -> None:
        # Each span: [name, start, end, parent index or -1, task id, work dict or None].
        self.spans: list[list] = []
        self.task: int | None = None
        self._stack: list[int] = []

    def span(self, name, fn, work=None, returns=None):
        """Wrap `fn` so every call records one span under `name`.

        `name` may be a function of the call's result, for calls whose layer
        is only known afterwards (the BP arithmetic mode, the P_sd path).
        `returns` names the span of a function that `fn` returns, for
        factories such as `synthetic_oracle`.
        """

        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            rec = [name if isinstance(name, str) else "?", 0.0, 0.0, parent, self.task, None]
            self.spans.append(rec)
            self._stack.append(idx)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                self._stack.pop()
            if not isinstance(name, str):
                rec[0] = name(result)
            if work is not None:
                rec[5] = work(args, kwargs, result)
            if returns is not None:
                return self.span(returns, result)
            return result

        return traced

    def run_task(self, task_id: int, kind: str, fn):
        """Run one benchmark task as a root span `task.<kind>`."""
        self.task = task_id
        try:
            return self.span(f"task.{kind}", fn)()
        finally:
            self.task = None


class Patch:
    """The places a wrapper replaces an original; `on` and `off` switch them."""

    def __init__(self, sites: list[tuple]) -> None:
        self.sites = sites  # (object, attribute, original, wrapper)

    def on(self) -> None:
        for obj, attr, _, wrapped in self.sites:
            setattr(obj, attr, wrapped)

    def off(self) -> None:
        for obj, attr, orig, _ in self.sites:
            setattr(obj, attr, orig)


def install(tracer: Tracer) -> Patch:
    """Replace every instrumented treecast function by its traced wrapper.

    Module-level functions are replaced in every treecast module that holds
    them; methods are replaced on their class.  Returns the switched-on patch.
    """
    modules = [m for n, m in sys.modules.items() if n == "treecast" or n.startswith("treecast.")]
    sites = []
    for owner, attr, name, work, *returns in _instrumentation():
        raw = vars(owner).get(attr) if isinstance(owner, type) else None
        if isinstance(raw, classmethod):
            sites.append((owner, attr, raw, classmethod(tracer.span(name, raw.__func__, work))))
            continue
        orig = getattr(owner, attr)
        wrapped = tracer.span(name, orig, work, *returns)
        sites.append((owner, attr, orig, wrapped))
        if not isinstance(owner, ModuleType):
            continue
        for mod in modules:
            if mod is not owner:
                sites += [(mod, key, orig, wrapped) for key, val in vars(mod).items() if val is orig]
    patch = Patch(sites)
    patch.on()
    return patch


def in_group(name: str, group: str) -> bool:
    """A group covers the spans named exactly so or with a further ".suffix"."""
    return name == group or name.startswith(group + ".")


def layer_of(name: str) -> str:
    """Layers are modules: a5 ones are named by two components (a5.reduction),
    the rest by one (rng); benchmark tasks form the layer "task"."""
    parts = name.split(".")
    return ".".join(parts[:2]) if parts[0] == "a5" else parts[0]


class SpanStats:
    """Self times, durations and work totals over a list of spans."""

    def __init__(self, spans: list[list]) -> None:
        self.spans = spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _task, _work in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self.self_time = [s[2] - s[1] - c for s, c in zip(spans, child_time)]

    def _members(self, group: str):
        for i, s in enumerate(self.spans):
            if in_group(s[0], group):
                yield i, s

    def count(self, group: str) -> int:
        return sum(1 for _ in self._members(group))

    def self_s(self, group: str) -> float:
        return sum(self.self_time[i] for i, _ in self._members(group))

    def total(self, group: str, key: str) -> float:
        return sum((s[5] or {}).get(key, 0) for _, s in self._members(group))

    def outer(self, group: str):
        """Spans of the group not called from inside the same group."""
        for i, s in self._members(group):
            if s[3] < 0 or not in_group(self.spans[s[3]][0], group):
                yield s

    def calls(self, group: str) -> int:
        return sum(1 for _ in self.outer(group))

    def busy_s(self, group: str) -> float:
        return sum(s[2] - s[1] for s in self.outer(group))

    def rate(self, group: str, key: str) -> float:
        busy = self.busy_s(group)
        return self.total(group, key) / busy if busy > 0 else 0.0

    def ratio(self, group: str, num: str, den: str) -> float:
        d = self.total(group, den)
        return self.total(group, num) / d if d else 0.0

    def self_by_layer(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for s, t in zip(self.spans, self.self_time):
            out[layer_of(s[0])] += t
        return dict(out)


# (metric, unit, function of SpanStats).  Rates are work over the time the
# layer was busy, counted from its outermost spans.
LAYER_METRICS = [
    ("rng.words", "count", lambda s: s.total("rng", "words")),
    ("rng.calls", "count", lambda s: s.calls("rng")),
    ("rng.self_s", "s", lambda s: s.self_s("rng")),
    ("rng.words_per_s", "1/s", lambda s: s.rate("rng", "words")),
    ("generators.batch.leaf_trials", "count", lambda s: s.total("generators.batch", "leaf_trials")),
    ("generators.batch.self_s", "s", lambda s: s.self_s("generators.batch")),
    ("generators.batch.leaf_trials_per_s", "1/s", lambda s: s.rate("generators.batch", "leaf_trials")),
    ("generators.exact_law.patterns", "count", lambda s: s.total("generators.exact_law", "patterns")),
    ("generators.exact_law.self_s", "s", lambda s: s.self_s("generators.exact_law")),
    ("generators.direct.nodes_per_s", "1/s", lambda s: s.rate("generators.direct", "nodes")),
    ("a5.pair_model.nodes_per_s", "1/s", lambda s: s.rate("a5.pair_model.generate", "nodes")),
    ("bp.batch.leaf_trials", "count", lambda s: s.total("bp.batch", "leaf_trials")),
    ("bp.batch.self_s", "s", lambda s: s.self_s("bp.batch")),
    ("bp.batch.leaf_trials_per_s", "1/s", lambda s: s.rate("bp.batch", "leaf_trials")),
    ("bp.rational.nodes", "count", lambda s: s.total("bp.rational", "nodes")),
    ("bp.rational.self_s", "s", lambda s: s.self_s("bp.rational")),
    ("bp.rational.nodes_per_s", "1/s", lambda s: s.rate("bp.rational", "nodes")),
    ("estimators.pilot.self_s", "s", lambda s: s.self_s("estimators.pilot")),
    ("estimators.psd_mc.self_s", "s", lambda s: s.self_s("estimators.psd_mc")),
    ("estimators.psd_mc.leaf_trials_per_s", "1/s", lambda s: s.rate("estimators.psd_mc", "leaf_trials")),
    ("estimators.psd.path_exact", "count", lambda s: s.count("estimators.psd_exact")),
    ("estimators.psd.path_mc", "count", lambda s: s.count("estimators.psd_mc")),
    ("oracle.enumerate.configs", "count", lambda s: s.total("oracle.enumerate", "configs")),
    ("oracle.enumerate.self_s", "s", lambda s: s.self_s("oracle.enumerate")),
    ("oracle.configs_per_s", "1/s", lambda s: s.rate("oracle.enumerate", "configs")),
    ("experiments.score.self_s", "s", lambda s: s.self_s("experiments.score")),
    ("experiments.score.chunks", "count",
     lambda s: s.total("experiments.score", "chunks") / max(s.count("experiments.score"), 1)),
    ("a5.reconstruct.nodes", "count", lambda s: s.total("a5.reconstruct", "nodes")),
    ("a5.reconstruct.self_s", "s", lambda s: s.self_s("a5.reconstruct")),
    ("a5.reconstruct.flagged_ratio", "ratio", lambda s: s.ratio("a5.reconstruct", "flagged", "nodes")),
    ("a5.reduction.randomize.calls", "count", lambda s: s.calls("a5.reduction.randomize")),
    ("a5.reduction.randomize.symbols_per_s", "1/s", lambda s: s.rate("a5.reduction.randomize", "symbols")),
    ("a5.reduction.accept_ratio", "ratio", lambda s: s.ratio("a5.reduction.amplify", "accepted", "trials")),
    ("a5.group.product.calls", "count", lambda s: s.calls("a5.group.product")),
    ("a5.barrington.compile.self_s", "s", lambda s: s.self_s("a5.barrington.compile")),
    ("a5.barrington.eval.steps_per_s", "1/s", lambda s: s.rate("a5.barrington.eval", "steps")),
]


def layer_metrics(spans: list[list]) -> dict[str, tuple[float, str]]:
    stats = SpanStats(spans)
    return {name: (float(fn(stats)), unit) for name, unit, fn in LAYER_METRICS}
