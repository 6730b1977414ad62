"""Command-line entry point.

One binary, subcommand style; every subcommand is non-interactive and
deterministic given its flags and seed.  Exit codes: 0 success, 1 usage
error, 2 assertion/verification failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import logging
import re
import sys

from .channels import fraction_text

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_IO = 3


class _StderrHandler(logging.StreamHandler):
    """Writes to whatever sys.stderr is at emit time (not at setup time)."""

    @property
    def stream(self):
        return sys.stderr

    @stream.setter
    def stream(self, value):
        pass


def _setup_logging() -> None:
    root = logging.getLogger("treecast")
    if not any(isinstance(h, _StderrHandler) for h in root.handlers):
        handler = _StderrHandler()
        handler.setFormatter(logging.Formatter("%(name)s: %(message)s"))
        root.addHandler(handler)
        root.setLevel(logging.INFO)
        root.propagate = False


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads only -N and -N.N as values; also read -p/q and
        # grids such as -1/2,4/5, so `--theta -1/2` is not taken for a flag.
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        raise SystemExit2(message)


class SystemExit2(Exception):
    pass


def fraction(text: str) -> str:
    """Type of every rational option: the text itself, once each of its
    comma-separated values passes `channels.fraction_text`.  The ValueError
    becomes argparse's usage error, not a traceback."""
    for item in text.split(","):
        fraction_text(item)
    return text


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="treecast", description="Broadcast processes on trees: generate, infer, compile, reduce, verify.")
    p.add_argument("--seed", type=int, default=1, help="64-bit master seed")
    p.add_argument("--config", type=str, default=None, help="JSON experiment config path")
    p.add_argument("--out", type=str, default=None, help="output path")
    p.add_argument("--format", choices=("csv", "json", "bin"), default=None, help="output format")
    p.add_argument("--mode", choices=("float", "rational", "auto"), default="auto", help="BP arithmetic")
    p.add_argument("--jobs", type=int, default=0, help="worker count (0 = available parallelism); results are independent of it")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate one tree and dump its labels")
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--d", type=int, required=True)
    g.add_argument("--theta", type=fraction, default="1/2")
    g.add_argument("--generator", choices=("direct", "path-product", "restrictions", "pair3600", "class16"), default="direct")
    g.add_argument("--root", type=int, default=None)

    b = sub.add_parser("bp", help="posterior for a dumped tree's leaves")
    b.add_argument("--leaves", type=str, required=True, help="LabelArray dump (.json or binary)")
    b.add_argument("--theta", type=fraction, default="1/2")
    b.add_argument("--flip-rate", type=fraction, default="0", help="leaf observation flip rate")

    t = sub.add_parser("detect", help="run an estimator on generated trees")
    t.add_argument("--k", type=int, required=True)
    t.add_argument("--d", type=int, required=True)
    t.add_argument("--theta", type=fraction, required=True)
    t.add_argument("--trials", type=int, default=1000)
    t.add_argument("--estimator", choices=("majority", "linearized-bp", "bp-rounding"), default="majority")

    ks = sub.add_parser("scan-ks", help="estimator scan over a (k, theta, d) grid")
    ks.add_argument("--k", type=str, default="2")
    ks.add_argument("--theta", type=fraction, default="1/2,4/5")
    ks.add_argument("--d", type=str, default="4,6")
    ks.add_argument("--trials", type=int, default=10_000)

    ns = sub.add_parser("scan-noise", help="noisy-recovery accuracy over an (s, d) grid")
    ns.add_argument("--k", type=str, default="2")
    ns.add_argument("--theta", type=fraction, default="9/10")
    ns.add_argument("--d", type=str, default="1,2,3")
    ns.add_argument("--s", type=fraction, default="0,1/10,1/5,3/10,2/5,1/2")
    ns.add_argument("--trials", type=int, default=2000)

    a = sub.add_parser("a5", help="pair/class model runs and recursive reconstruction")
    a.add_argument("--k", type=int, default=500)
    a.add_argument("--d", type=int, default=2)
    a.add_argument("--trials", type=int, default=200)
    a.add_argument("--model", choices=("class16", "pair3600"), default="class16")

    cg = sub.add_parser("compile-gadget", help="compile a formula to a leaf template")
    cg.add_argument("--formula", type=str, required=True, help="prefix syntax, e.g. '(and x1 (not x2))'")
    cg.add_argument("--check", action="store_true", help="verify tracking on all assignments")

    cb = sub.add_parser("compile-barrington", help="compile a formula to a group program")
    cb.add_argument("--formula", type=str, required=True)
    cb.add_argument("--target", type=int, default=None, help="five-cycle element index")
    cb.add_argument("--check", action="store_true", help="verify on all assignments")

    rw = sub.add_parser("reduce-word", help="randomize + amplify demo on a promise instance")
    rw.add_argument("--length", type=int, default=64)
    rw.add_argument("--promise", choices=("identity", "target"), default="target")
    rw.add_argument("--epsilon", type=float, default=0.1)
    rw.add_argument("--trials", type=int, default=500)
    rw.add_argument("--instance", type=str, default=None, help="WordInstance JSON path")

    v = sub.add_parser("verify", help="run the full oracle/property suite")
    v.add_argument("--quick", action="store_true")
    return p


def _write_or_print(text: str, out: str | None) -> None:
    if out is None:
        print(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def _cmd_gen(args) -> int:
    from .channels import Channel, as_fraction
    from .generators import generate_direct, generate_path_product, generate_via_restrictions
    from .rng import SeedSpec
    from .trees import TreeShape

    shape = TreeShape(k=args.k, d=args.d)
    seed = SeedSpec(args.seed, f"gen/{args.generator}")
    if args.generator == "direct":
        arr = generate_direct(shape, Channel.binary(as_fraction(args.theta)), seed, root=args.root)
    elif args.generator == "path-product":
        arr = generate_path_product(shape, as_fraction(args.theta), seed, root=args.root)
    elif args.generator == "restrictions":
        arr = generate_via_restrictions(shape, as_fraction(args.theta), seed, root=args.root)
    elif args.generator == "pair3600":
        from .a5 import generate_pair_model

        arr = generate_pair_model(shape, seed, root=args.root)
    else:
        from .a5.quotient import generate_class16

        arr = generate_class16(shape, seed, root=args.root)
    if args.format == "bin":
        if args.out is None:
            raise SystemExit2("--format bin requires --out")
        with open(args.out, "wb") as fh:
            fh.write(arr.to_bytes())
    else:
        _write_or_print(arr.to_json(), args.out)
    return EXIT_OK


def _load_labels(path: str):
    from .labels import LabelArray

    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:6] == b"BCAST1":
        return LabelArray.from_bytes(blob)
    return LabelArray.from_json(blob.decode("utf-8"))


def _cmd_bp(args) -> int:
    from .bp import LeafLikelihood, bp_posterior
    from .channels import Channel, as_fraction

    arr = _load_labels(args.leaves)
    if arr.m != 2:
        raise SystemExit2("bp works on binary trees")
    s = as_fraction(args.flip_rate)
    if s == 0:
        evidence = LeafLikelihood.from_labels(arr.leaves, 2)
    else:
        evidence = LeafLikelihood.from_noisy_bits(arr.leaves, s)
    mode = args.mode
    report = bp_posterior(arr.shape, Channel.binary(as_fraction(args.theta)), evidence, mode=mode)
    masses = [str(x) if report.mode == "exact-rational" else repr(float(x)) for x in report.masses]
    doc = {"mode": report.mode, "argmax": report.argmax, "tie": report.tie, "masses": masses}
    _write_or_print(json.dumps(doc, sort_keys=True), args.out)
    return EXIT_OK


def _cmd_detect(args) -> int:
    from .channels import as_fraction
    from .experiments import _row, append_rows, score_estimators_point
    from .rng import SeedSpec

    if args.format == "csv" and not args.out:
        raise SystemExit2("detect --format csv appends rows to --out; give --out")
    accs = score_estimators_point(
        args.k,
        as_fraction(args.theta),
        args.d,
        args.trials,
        SeedSpec(args.seed, "detect"),
        estimators=(args.estimator,),
    )
    acc = accs[args.estimator]
    if args.out and args.format in (None, "csv"):
        # Rows append to the experiment CSV so repeated runs build one table.
        row = _row("ks-scan", args.seed, args.k, args.theta, args.d, "0", args.estimator, args.trials, acc)
        append_rows([row], args.out)
        return EXIT_OK
    doc = {
        "estimator": args.estimator,
        "k": args.k,
        "d": args.d,
        "theta": args.theta,
        "trials": args.trials,
        "accuracy": acc,
        "advantage": acc - 0.5,
    }
    _write_or_print(json.dumps(doc, sort_keys=True), args.out)
    return EXIT_OK


def _experiment_config(args, experiment: str):
    """The `--config` file's config, else one from the global flags and the
    subcommand's flags of the same names as config keys (a grid flag holds
    comma-separated values)."""
    from .experiments import ExperimentConfig

    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            cfg = ExperimentConfig.from_json(fh.read())
        if cfg.experiment != experiment:
            raise SystemExit2(f"config is for {cfg.experiment!r}, not {experiment!r}")
        return cfg
    flags = {name: getattr(args, name) for name in ("trials", "model") if hasattr(args, name)}
    for name in ("k", "theta", "d", "s"):
        if hasattr(args, name):
            flags[name] = str(getattr(args, name)).split(",")
    return ExperimentConfig(
        experiment=experiment, seed=args.seed, jobs=args.jobs, format=args.format or "csv", out=args.out, **flags
    )


def _cmd_scan_ks(args) -> int:
    from .experiments import emit, run_ks_scan

    cfg = _experiment_config(args, "ks-scan")
    emit(run_ks_scan(cfg), cfg.out, cfg.format)
    return EXIT_OK


def _cmd_scan_noise(args) -> int:
    from .experiments import emit, run_noise_scan

    cfg = _experiment_config(args, "noise-scan")
    report = run_noise_scan(cfg)
    emit(report.rows, cfg.out, cfg.format)
    for key, ok in sorted(report.monotone_in_s.items()):
        print(f"# monotone-in-s k={key[0]} theta={key[1]} d={key[2]}: {'yes' if ok else 'no'}", file=sys.stderr)
    for key, ok in sorted(report.monotone_in_d.items()):
        print(f"# monotone-in-d k={key[0]} theta={key[1]} s={key[2]}: {'yes' if ok else 'no'}", file=sys.stderr)
    return EXIT_OK


def _cmd_a5(args) -> int:
    from .experiments import emit, run_a5_accuracy

    cfg = _experiment_config(args, "a5-accuracy")
    emit(run_a5_accuracy(cfg), cfg.out, cfg.format)
    return EXIT_OK


def _cmd_compile_gadget(args) -> int:
    from .formulas import assignments, parse_formula
    from .gadgets import compile_formula, verify_gadget

    f = parse_formula(args.formula)
    template = compile_formula(f)
    doc = {"depth": template.depth, "entries": template.to_tags()}
    if args.check:
        table = assignments(max(f.variables(), default=0) + 1)
        doc["tracks_all_assignments"] = all(
            verify_gadget(f, a, mode=args.mode, template=template).tracks for a in table
        )
    _write_or_print(json.dumps(doc, sort_keys=True), args.out)
    return EXIT_OK if doc.get("tracks_all_assignments", True) else EXIT_VERIFY


def _cmd_compile_barrington(args) -> int:
    from .a5.barrington import barrington_compile, evaluate_program_batch, program_to_json
    from .a5.group import A5
    from .formulas import assignments, parse_formula

    f = parse_formula(args.formula)
    target = args.target if args.target is not None else int(A5.five_cycles()[0])
    program = barrington_compile(f, target)
    doc = {"target": target, "length": len(program), "program": program_to_json(program)}
    if args.check:
        table = assignments(max(f.variables(), default=0) + 1)
        want = [target if f.evaluate(a) else A5.identity for a in table]
        ok = evaluate_program_batch(program, table).tolist() == want
        doc["matches_truth_table"] = ok
    _write_or_print(json.dumps(doc, sort_keys=True), args.out)
    return EXIT_OK if doc.get("matches_truth_table", True) else EXIT_VERIFY


def _cmd_reduce_word(args) -> int:
    from .a5 import amplify_oracle, make_instance, synthetic_oracle
    from .a5.group import A5
    from .a5.reduction import WordInstance
    from .rng import SeedSpec

    if args.instance:
        with open(args.instance, encoding="utf-8") as fh:
            inst = WordInstance.from_json(fh.read())
    else:
        inst = make_instance(
            args.length, args.promise, int(A5.five_cycles()[0]), SeedSpec(args.seed, "reduce/inst")
        )
    oracle = synthetic_oracle(args.epsilon, SeedSpec(args.seed, "reduce/oracle"))
    result = amplify_oracle(oracle, inst, args.trials, SeedSpec(args.seed, "reduce/amp"))
    doc = {
        "promise": inst.promise,
        "decision": result.decision,
        "votes_identity": result.votes_identity,
        "votes_target": result.votes_target,
        "accepted": result.accepted,
        "trials": result.trials,
        "correct": result.decision == inst.promise,
    }
    _write_or_print(json.dumps(doc, sort_keys=True), args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .experiments import suite_failures, verify_all

    results = verify_all(seed=args.seed, quick=args.quick)
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = f"{status}  {r.name:<{width}}  {r.params}"
        if r.detail:
            line += f"  [{r.detail}]"
        print(line)
    failures = suite_failures(results)
    print(f"{len(results) - len(failures)}/{len(results)} checks passed")
    return EXIT_OK if not failures else EXIT_VERIFY


# Each command and the formats it writes; any other --format is a usage error.
_COMMANDS = {
    "gen": (_cmd_gen, ("json", "bin")),
    "bp": (_cmd_bp, ("json",)),
    "detect": (_cmd_detect, ("json", "csv")),
    "scan-ks": (_cmd_scan_ks, ("csv", "json")),
    "scan-noise": (_cmd_scan_noise, ("csv", "json")),
    "a5": (_cmd_a5, ("csv", "json")),
    "compile-gadget": (_cmd_compile_gadget, ("json",)),
    "compile-barrington": (_cmd_compile_barrington, ("json",)),
    "reduce-word": (_cmd_reduce_word, ("json",)),
    "verify": (_cmd_verify, ("text",)),
}


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help and friends
        code = exc.code if isinstance(exc.code, int) else 0
        return code
    command, formats = _COMMANDS[args.command]
    try:
        if args.format not in (None, *formats):
            raise SystemExit2(f"{args.command} writes {' or '.join(formats)}, not --format {args.format}")
        return command(args)
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
