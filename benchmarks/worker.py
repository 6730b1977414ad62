"""One workload run in a fresh interpreter; `run.py` starts it and reads its stdout.

It prints `READY <json>` as soon as set-up is done (the parent times the
interval from spawning it to this line as one `setup_s` sample), then runs
the workload and prints `RESULT <json>`.  With `--setup-only` it stops after
the READY line.

    python3 benchmarks/worker.py --workload mc-scan --seed 1 --seconds 25 --trace 0
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
PROBE_EVERY_S = 0.25  # at most one speed probe per this many seconds


def setup() -> dict[str, float]:
    """Import treecast from this checkout's `src/` and build its tables.

    Covers everything a workload needs before its first task: the package
    and scipy.stats (through `treecast.experiments`), the A5 tables (built
    when `treecast.a5` is imported) and the 16-label quotient channel.
    """
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    t0 = perf_counter()
    import treecast
    import treecast.experiments  # noqa: F401  (pulls in scipy.stats)

    t1 = perf_counter()
    import treecast.a5  # noqa: F401  (builds the group tables)

    t2 = perf_counter()
    from treecast.a5.quotient import quotient_channel

    quotient_channel()
    t3 = perf_counter()
    if Path(treecast.__file__).resolve().parent != (src / "treecast").resolve():
        raise ImportError(f"treecast was imported from {treecast.__file__}, not from {src}")
    return {"import_s": t1 - t0, "a5_tables_s": t2 - t1, "quotient_channel_s": t3 - t2}


def _timed(i: int, task, call) -> tuple[float, object, str | None]:
    """Run one task through `call`; a task that raises is a failed task."""
    t0 = perf_counter()
    try:
        out, failure = call(), None
    except Exception as exc:  # the loop must go on and report the failure
        out, failure = None, f"{task.kind} #{i} raised {exc!r}"
    return perf_counter() - t0, out, failure


def _checked(tasks, latencies, outs, failures) -> dict:
    """Check every output; `elapsed` is the summed latency of the tasks."""
    failures = [f for f in failures if f]
    for i, (task, out) in enumerate(zip(tasks, outs)):
        if out is not None:
            reason = task.check(out)
            if reason:
                failures.append(f"{task.kind} #{i}: {reason}")
    return {
        "latencies": latencies,
        "kinds": [t.kind for t in tasks],
        "outs": outs,
        "failures": failures,
        "elapsed": sum(latencies),
    }


class SpeedProbe:
    """Times a fixed unit of reference work that touches no treecast code.

    The host's speed drifts by tens of percent over minutes (other tenants
    share its cores), and every task slows with it.  Timing this probe
    between task parts, evenly over the run, measures that drift, so run.py
    can report times at the reference speed.  The unit mixes a pure-Python
    integer loop with numpy uint64 arithmetic, as the workloads do.
    """

    def __init__(self) -> None:
        import numpy as np

        self._np = np
        # 512 KiB arrays stay in L2, and in-place ufuncs allocate nothing, so
        # neither the cache nor the allocator state a task leaves behind
        # changes the probe's speed.
        self._buf = np.arange(1 << 16, dtype=np.uint64)
        self._tmp = np.empty_like(self._buf)
        self.times: list[float] = []
        self.starts: list[float] = []
        self._last = float("-inf")

    def maybe(self) -> None:
        """Probe unless the last probe started under PROBE_EVERY_S ago."""
        if perf_counter() - self._last >= PROBE_EVERY_S:
            self()

    def __call__(self) -> None:
        np, buf, tmp = self._np, self._buf, self._tmp
        mult, shift = np.uint64(0x9E3779B97F4A7C15), np.uint64(29)
        t0 = self._last = perf_counter()
        self.starts.append(t0)
        x = 0
        for i in range(50_000):
            x += i * i % 7
        for _ in range(70):
            np.multiply(buf, mult, out=tmp)
            np.right_shift(tmp, shift, out=tmp)
            np.bitwise_xor(tmp, buf, out=tmp)
        self.times.append(perf_counter() - t0)


def _timed_parts(i: int, task, probe) -> tuple[float, object, str | None]:
    """Run one task part by part, probing the machine's speed between parts;
    the task's latency is the time spent in its parts."""
    busy = 0.0
    outs = []
    try:
        for part in task.parts:
            probe.maybe()
            t0 = perf_counter()
            try:
                outs.append(part())
            finally:
                busy += perf_counter() - t0
    except Exception as exc:  # the loop must go on and report the failure
        return busy, None, f"{task.kind} #{i} raised {exc!r}"
    return busy, tuple(outs), None


def run_tasks(tasks, probe: SpeedProbe, profiler=None) -> dict:
    """Run the task list as one closed loop, then check every output."""
    if profiler is not None:
        profiler.enable()
    runs, spans = [], []
    for i, task in enumerate(tasks):
        t0 = perf_counter()
        runs.append(_timed_parts(i, task, probe))
        spans.append((t0, perf_counter()))
    if profiler is not None:
        profiler.disable()
    res = _checked(tasks, *map(list, zip(*runs)))
    res["task_spans"] = spans
    return res


def speed_record(w, probe: SpeedProbe, res: dict) -> dict:
    """What run.py needs to put task times at the reference speed."""
    return {
        "speed_scaled": w.speed_scaled,
        "probe_s": probe.times,
        "probe_starts": probe.starts,
        "task_spans": res["task_spans"],
    }


def run_paired(plain_tasks, traced_tasks, tracer, patch) -> tuple[dict, dict]:
    """Run two equal-shaped task lists task by task, one untraced and one
    traced, alternating which goes first, so both see the same machine."""
    runs: tuple[list, list] = ([], [])
    for i, pair in enumerate(zip(plain_tasks, traced_tasks)):
        for side in (0, 1) if i % 2 == 0 else (1, 0):
            task = pair[side]
            if side:
                patch.on()
                runs[1].append(_timed(i, task, lambda: tracer.run_task(i, task.kind, task.run)))
            else:
                patch.off()
                runs[0].append(_timed(i, task, task.run))
    patch.off()
    return tuple(
        _checked(tasks, *map(list, zip(*r))) for tasks, r in zip((plain_tasks, traced_tasks), runs)
    )


def finish_checks(w, tasks, res: dict, probe: bool = True) -> dict:
    """Add the determinism probe and the pooled check to a run's failures.

    The probe reruns the first task of every kind and compares its output
    bit for bit: outputs must be a pure function of (config, seed).
    """
    failures = list(res["failures"])
    probes = 0
    seen: set[str] = set()
    for i, (task, out) in enumerate(zip(tasks, res["outs"])):
        if not probe or task.kind in seen or out is None:
            continue
        seen.add(task.kind)
        probes += 1
        _, again, failure = _timed(i, task, task.run)
        if failure or repr(again) != repr(out):
            failures.append(failure or f"determinism: {task.kind} #{i} gave {again!r} on rerun, first {out!r}")
    outs = [o for o in res["outs"] if o is not None]
    pooled = w.pooled_check(outs) if outs else None
    if pooled:
        failures.append(f"pooled: {pooled}")
    return {
        "latencies": res["latencies"],
        "kinds": res["kinds"],
        "elapsed": res["elapsed"],
        "failures": failures,
        "attempted": len(tasks) + probes + 1,
    }


def trace_summary(w, tracer, traced_elapsed: float, untraced_elapsed: float) -> dict:
    import tracing

    stats = tracing.SpanStats(tracer.spans)
    names = {s[0] for s in tracer.spans}
    by_layer = stats.self_by_layer()
    total_self = sum(by_layer.values()) or 1.0
    dominant = sum(
        t for layer, t in by_layer.items()
        if any(tracing.in_group(layer, d) for d in w.dominant_layers)
    )
    return {
        "layer_metrics": tracing.layer_metrics(tracer.spans),
        "overhead": traced_elapsed / untraced_elapsed,
        "missing_spans": [
            g for g in w.expected_spans if not any(tracing.in_group(n, g) for n in names)
        ],
        "self_s_by_layer": dict(sorted(by_layer.items(), key=lambda kv: -kv[1])),
        "dominant_layers": list(w.dominant_layers),
        "dominant_share": dominant / total_self,
        "spans": len(tracer.spans),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out", help="file for the traced run's spans (JSON lines)")
    ap.add_argument("--profile", type=int, default=0, help="cProfile the loop; top-N rows")
    ap.add_argument("--profile-out", help="file for the cProfile table")
    args = ap.parse_args(argv)

    setup_times = setup()
    print("READY " + json.dumps(setup_times), flush=True)
    if args.setup_only:
        return 0

    import workloads

    w = workloads.WORKLOADS[args.workload]
    w.warmup()
    result: dict = {"setup": setup_times, "task_size": w.task_size}
    if args.trace:
        import tracing

        # The untraced twin of each task has the same shape on another seed
        # stream, so no cache it fills can serve the traced task.
        half = args.seconds / 2
        plain_tasks = workloads.task_list(w, args.seed, half, "untraced")
        tasks = workloads.task_list(w, args.seed, half, "run")
        tracer = tracing.Tracer()
        plain, traced = run_paired(plain_tasks, tasks, tracer, tracing.install(tracer))
        plain = finish_checks(w, plain_tasks, plain)
        traced = finish_checks(w, tasks, traced, probe=False)
        result.update(
            latencies=traced["latencies"],
            kinds=traced["kinds"],
            elapsed=traced["elapsed"],
            failures=plain["failures"] + traced["failures"],
            attempted=plain["attempted"] + traced["attempted"],
            trace=trace_summary(w, tracer, traced["elapsed"], plain["elapsed"]),
        )
        if args.spans_out:
            with open(args.spans_out, "w", encoding="utf-8") as fh:
                for name, start, end, parent, task, work in tracer.spans:
                    fh.write(json.dumps([name, start, end, parent, task, work]) + "\n")
    else:
        tasks = workloads.task_list(w, args.seed, args.seconds, "run", min_tasks=workloads.MIN_TASKS)
        profiler = None
        if args.profile:
            import cProfile

            profiler = cProfile.Profile()
        probe = SpeedProbe()
        res = run_tasks(tasks, probe, profiler=profiler)
        result.update(finish_checks(w, tasks, res))
        result.update(speed_record(w, probe, res))
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if profiler is not None and args.profile_out:
            import io
            import pstats

            buf = io.StringIO()
            pstats.Stats(profiler, stream=buf).sort_stats("tottime").print_stats(args.profile)
            Path(args.profile_out).write_text(buf.getvalue(), encoding="utf-8")
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
