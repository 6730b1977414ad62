"""treecast benchmark: seeded workloads through the public API, with checked outputs.

    python3 benchmarks/run.py --workload mc-scan --seed 1 --seconds 25 --trace 0
    python3 benchmarks/run.py --workload all --seed 1
    python3 benchmarks/run.py --workload a5-reduction --seed 1 --trace 1
    python3 benchmarks/run.py --workload exact-verify --seed 1 --profile 30
    python3 benchmarks/run.py --smoke

Each run starts the workload in a fresh interpreter (worker.py), so peak RSS
and set-up time belong to that workload, and times set-up in two more fresh
interpreters; `setup_s` is the median of the three.  The workload is a closed
loop of one client over a fixed task list that the seed generates; the list
holds as many whole cycles of the workload as fit `--seconds` on the
reference machine, but at least 11 tasks so that the latency tail has
samples beyond it, and counts repeat exactly for a seed.  `--trace 0` prints
the end-to-end metrics of BENCHMARK.json, `--trace 1` the per-layer ones from
a separate traced run (tracing.py).  The last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}; a result file with the machine
fingerprint, every latency and every failure goes to benchmarks/out/.
Timed end-to-end metrics are scaled to the reference machine's speed by a
speed probe timed during the run (worker.SpeedProbe), task times by the
probes near each task, except on workloads whose speed the probe does not
track (mc-scan); the times as measured are printed beside them and kept in
the result file.

`--profile N` runs the loop under cProfile and writes the top-N tottime table
beside the result file; such runs are never measured runs.  `--smoke` runs a
tiny version of every workload in this process (under 5 s) and checks the
output schema against BENCHMARK.json.

Thread pools of the workload processes are pinned to one thread: every task
is a single client's serial work.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SPEC = ROOT / "BENCHMARK.json"
WORKER = HERE / "worker.py"

THREAD_PINS = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
}
SETUP_SAMPLES = 3
# Median worker.SpeedProbe time on the reference machine (a 2-vCPU Xeon
# virtual machine) when the benchmark was defined.  Timed metrics are reported at
# this speed: measured seconds times PROBE_REF_S / the probe median, taken over
# the probes near each task for task times and over the whole run for setup_s.
PROBE_REF_S = 0.0090
PROBE_WINDOW_S = 0.5
PROBES_PER_TASK = 5


class BenchError(RuntimeError):
    pass


# --- fingerprint --------------------------------------------------------------


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _version(pkg: str) -> str | None:
    try:
        return version(pkg)
    except PackageNotFoundError:
        return None


def fingerprint() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "cpu": cpu or platform.processor() or None,
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "thread_pins": THREAD_PINS,
        "git_commit": _git_commit(),
        "platform": platform.platform(),
    }


# --- child processes ------------------------------------------------------------


def child_timeout_s(seconds: float) -> float:
    """How long a worker may take: its task list is sized to about `seconds`
    of busy time on the reference machine (at least MIN_TASKS tasks, which
    is about 32 s on exact-verify), and set-up, warm-up, the determinism
    rerun and a host up to twice as slow come on top."""
    return 3 * max(seconds, 30.0) + 60.0


def _spawn(args: list[str], timeout_s: float) -> tuple[float, dict, dict | None]:
    """Run worker.py; return (spawn-to-READY seconds, READY payload, RESULT payload)."""
    env = dict(os.environ, PYTHONHASHSEED="0", **THREAD_PINS)
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args],
        stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
    )
    try:
        line = proc.stdout.readline()
        ready_s = perf_counter() - t0
        if not line.startswith("READY "):
            proc.wait(timeout=timeout_s)
            raise BenchError(f"worker failed during set-up (exit {proc.returncode})")
        rest, _ = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker still running after {timeout_s:.0f} s; stopped") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    result = None
    for ln in rest.splitlines():
        if ln.startswith("RESULT "):
            result = json.loads(ln[7:])
    return ready_s, json.loads(line[6:]), result


# --- metrics ----------------------------------------------------------------------


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond); with fewer than eleven
    samples the maximum is reported with its real count beyond (zero).
    """
    xs = sorted(latencies)
    rank = len(xs) - 10 if len(xs) > 10 else len(xs)
    return xs[rank - 1], 100.0 * rank / len(xs), len(xs) - rank


def task_scales(res: dict) -> list[float]:
    """Per task, PROBE_REF_S over the median of the speed probes started while
    it ran or within PROBE_WINDOW_S of it, the window widened until it holds
    PROBES_PER_TASK probes: the host's speed changes within seconds."""
    probes = list(zip(res["probe_starts"], res["probe_s"]))
    scales = []
    for start, end in res["task_spans"]:
        h = PROBE_WINDOW_S
        while True:
            near = [t for at, t in probes if start - h <= at <= end + h]
            if len(near) >= PROBES_PER_TASK or len(near) == len(probes):
                break
            h += PROBE_WINDOW_S
        scales.append(PROBE_REF_S / statistics.median(near))
    return scales


def end_to_end(res: dict, setup_samples: list[float]) -> tuple[dict, list[str], dict]:
    lat = res["latencies"]
    n = len(lat)
    failed = len(res["failures"])
    attempted = res["attempted"]
    probe_s = statistics.median(res["probe_s"])
    run_scale = PROBE_REF_S / probe_s
    scales = task_scales(res) if res["speed_scaled"] else [1.0] * n
    ref_lat = [x * f for x, f in zip(lat, scales)]
    tail_s, pct, beyond = tail(ref_lat)
    measured = {
        "throughput": n / res["elapsed"],
        "task_s.p50": statistics.median(lat),
        "task_s.tail": tail(lat)[0],
        "setup_s": statistics.median(setup_samples),
    }
    metrics = {
        "throughput": (n / sum(ref_lat), "tasks/s"),
        "task_s.p50": (statistics.median(ref_lat), "s"),
        "task_s.tail": (tail_s, "s"),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024.0, "MB"),
        "setup_s": (measured["setup_s"] * run_scale, "s"),
        "ok_frac": ((attempted - failed) / attempted, "fraction"),
    }
    task_note = (
        f"task times x {min(scales):.4f}..{max(scales):.4f} by the probes near each task"
        if res["speed_scaled"] else "task times as measured (this workload's speed does not follow the probe)"
    )
    notes = [
        f"times are at the reference speed: setup_s x {run_scale:.4f} (speed probe median "
        f"{1000 * probe_s:.2f} ms over {len(res['probe_s'])} probes, reference "
        f"{1000 * PROBE_REF_S:.2f} ms), {task_note}; as measured: "
        + ", ".join(f"{k} {v:.6g}" for k, v in measured.items()),
        f"task_s.tail is p{pct:.1f}: {beyond} of {n} task samples lie beyond it",
        f"setup_s is the median of {len(setup_samples)} fresh interpreters: "
        + ", ".join(f"{s:.3f}" for s in setup_samples),
        f"failed_frac = {failed / attempted:.4g} ({failed} of {attempted} attempted; "
        "ok_frac is its complement)",
    ]
    return metrics, notes, measured


def per_layer(res: dict) -> tuple[dict, list[str], None]:
    tr = res["trace"]
    metrics = {name: tuple(v) for name, v in tr["layer_metrics"].items()}
    for name, (value, unit) in (("setup.import_s", (res["setup"]["import_s"], "s")),
                                ("setup.a5_tables_s", (res["setup"]["a5_tables_s"], "s")),
                                ("setup.quotient_channel_s", (res["setup"]["quotient_channel_s"], "s")),
                                ("trace.overhead", (tr["overhead"], "ratio"))):
        metrics[name] = (value, unit)
    notes = [
        f"{tr['spans']} spans; self time by layer: "
        + ", ".join(f"{k} {v:.3f}s" for k, v in tr["self_s_by_layer"].items()),
        f"dominant layers {', '.join(tr['dominant_layers'])}: "
        f"{100 * tr['dominant_share']:.1f}% of traced self time",
    ]
    notes += [f"MISSING span {name}: expected on this workload, never recorded"
              for name in tr["missing_spans"]]
    return metrics, notes, None


def summary_line(metrics: dict, failures: list[str], attempted: int) -> dict:
    """The result object of one run, as the last line of stdout carries it."""
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


# --- one run ------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: int, profile: int) -> dict:
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{name}-seed{seed}-trace{trace}"
    args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        args += ["--spans-out", f"{stem}.spans.jsonl"]
    if profile:
        args += ["--profile", str(profile), "--profile-out", f"{stem}.profile.txt"]
    timeout_s = child_timeout_s(seconds)
    setup_samples = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            setup_samples.append(_spawn(["--setup-only", *args], timeout_s)[0])
    ready_s, _, res = _spawn(args, timeout_s)
    if res is None:
        raise BenchError("worker printed no result")
    setup_samples.append(ready_s)
    metrics, notes, measured = per_layer(res) if trace else end_to_end(res, setup_samples)
    if profile:
        notes.append(f"profiled run: timings include cProfile's cost; table in {stem.name}.profile.txt")
    summary = summary_line(metrics, res["failures"], res["attempted"])
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "profiled": bool(profile), "fingerprint": fingerprint(), "summary": summary,
        "notes": notes, "as_measured": measured, "probe_s": res.get("probe_s"),
        "probe_starts": res.get("probe_starts"), "task_spans": res.get("task_spans"),
        "speed_scaled": res.get("speed_scaled"),
        "failures": res["failures"], "setup_samples_s": setup_samples,
        "setup": res["setup"], "latencies_s": res["latencies"], "task_kinds": res["kinds"],
        "task_size": res["task_size"], "busy_s": res["elapsed"], "trace_detail": res.get("trace"),
    }
    (stem.with_suffix(".json")).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return {"summary": summary, "notes": notes, "failures": res["failures"],
            "task_size": res["task_size"], "file": stem.with_suffix(".json")}


def report(name: str, seed: int, out: dict) -> None:
    s = out["summary"]
    print(f"workload {name}  seed {seed}  task = {out['task_size']}")
    for metric, mv in s["metrics"].items():
        print(f"  {metric:40s} {mv['value']:.6g} {mv['unit']}")
    for note in out["notes"]:
        print(f"  {note}")
    for failure in out["failures"][:20]:
        print(f"  FAILED {failure}")
    print(f"  result file: {out['file'].relative_to(ROOT)}")


# --- smoke -------------------------------------------------------------------------


def load_spec() -> dict:
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        raise BenchError(f"BENCHMARK.json keys {sorted(spec)} != {sorted(keys)}")
    return spec


def check_result(summary: dict, wanted: list[dict]) -> list[str]:
    problems = []
    if set(summary) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(summary)}")
    if not (isinstance(summary["attempted"], int) and summary["attempted"] >= 1):
        problems.append("attempted must be a whole number >= 1")
    names = {m["name"]: m["unit"] for m in wanted}
    got = summary["metrics"]
    if set(got) != set(names):
        problems.append(f"metrics missing {sorted(set(names) - set(got))}, extra {sorted(set(got) - set(names))}")
    for name, mv in got.items():
        if name in names and mv["unit"] != names[name]:
            problems.append(f"{name} unit {mv['unit']} != {names[name]}")
        if not (isinstance(mv["value"], (int, float)) and math.isfinite(mv["value"])):
            problems.append(f"{name} value {mv['value']!r} is not a finite number")
    if not isinstance(summary["correct"], bool):
        problems.append("correct must be true or false")
    return problems


def smoke() -> int:
    t0 = perf_counter()
    spec = load_spec()
    sys.path.insert(0, str(HERE))
    import worker

    setup_times = worker.setup()
    setup_s = perf_counter() - t0
    import tracing
    import workloads

    problems = []
    if {w["name"] for w in spec["workloads"]} != set(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    recomputed = workloads.exact_majority_accuracy(workloads.MC_K, workloads.MC_D, workloads.MC_THETA)
    if abs(recomputed - workloads.MC_MAJORITY_EXACT) > 1e-12:
        problems.append(f"stored exact majority {workloads.MC_MAJORITY_EXACT} != {recomputed}")
    for name, w in workloads.WORKLOADS.items():
        w.warmup()
        tasks = workloads.task_list(w, 1, 0, "smoke", smoke=True)
        probe = worker.SpeedProbe()
        run = worker.run_tasks(tasks, probe)
        res = worker.finish_checks(w, tasks, run)
        res.update(worker.speed_record(w, probe, run))
        res["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics, _, _ = end_to_end(res, [setup_s])
        summary = summary_line(metrics, res["failures"], res["attempted"])
        problems += [f"{name} trace 0: {p}" for p in check_result(summary, spec["end_to_end"])]
        problems += [f"{name}: {f}" for f in res["failures"]]
    tracer = tracing.Tracer()
    patch = tracing.install(tracer)
    for name, w in workloads.WORKLOADS.items():
        tracer.spans.clear()
        plain_tasks = workloads.task_list(w, 1, 0, "smoke-untraced", smoke=True)
        tasks = workloads.task_list(w, 1, 0, "smoke", smoke=True)
        plain, traced = worker.run_paired(plain_tasks, tasks, tracer, patch)
        res = worker.finish_checks(w, tasks, traced, probe=False)
        res["setup"] = setup_times
        res["trace"] = worker.trace_summary(w, tracer, traced["elapsed"], plain["elapsed"])
        metrics, _, _ = per_layer(res)
        summary = summary_line(metrics, res["failures"], res["attempted"])
        problems += [f"{name} trace 1: {p}" for p in check_result(summary, spec["per_layer"])]
        problems += [f"{name}: missing span {s}" for s in res["trace"]["missing_spans"]]
    elapsed = perf_counter() - t0
    for p in problems:
        print(f"SMOKE FAILED {p}")
    print(f"smoke {'ok' if not problems else 'FAILED'}: {len(workloads.WORKLOADS)} workloads, "
          f"{len(spec['end_to_end'])} end-to-end and {len(spec['per_layer'])} per-layer metrics "
          f"in {elapsed:.2f} s")
    return 0 if not problems else 1


# --- main ----------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", help="a workload name from BENCHMARK.json, or 'all'")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, help="run length; BENCHMARK.json's run_seconds if unset")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--profile", type=int, default=0, metavar="N",
                    help="cProfile the workload loop and write the top-N tottime rows")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "treecast" / "__init__.py").is_file():
        print(f"benchmark: no treecast sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if not 0 <= args.seed < 1 << 64:
        ap.error("--seed must be a 64-bit unsigned integer")
    if args.seconds is not None and args.seconds <= 0:
        ap.error("--seconds must be positive")
    try:
        if args.smoke:
            return smoke()
        spec = load_spec()
        seconds = args.seconds or spec["run_seconds"]
        names = [w["name"] for w in spec["workloads"]]
        if args.workload == "all":
            chosen = names
        elif args.workload in names:
            chosen = [args.workload]
        else:
            ap.error(f"--workload must be one of {names} or 'all'")
        for name in chosen:
            out = run_workload(name, args.seed, seconds, args.trace, args.profile)
            report(name, args.seed, out)
            print(json.dumps(out["summary"]), flush=True)
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
