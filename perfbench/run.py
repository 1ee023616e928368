#!/usr/bin/env python3
"""Benchmark of betaorbit: named workloads run through the CLI entry point.

    python3 perfbench/run.py --workload certify --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

Run it from the root of a source checkout; betaorbit is imported from ./src,
with no install step.  `certify`, `orbit` and `spectrum` call
`betaorbit.cli.main` in this process, one task at a time; `cli` starts every
task as a cold `python -m betaorbit` process.  Passes over the task list
repeat until the next pass would overrun --seconds (one pass always runs);
an untraced run fills the rest with single tasks that still fit.
Every invocation is checked against frozen references (oracles.py).
End-to-end timings are adjusted to a reference host speed (hostspeed.py).

--trace 0 reports the end-to-end metrics named in BENCHMARK.json.  --trace 1
runs every task both untraced and traced (spans.py) and reports the
per-layer metrics, among them the tracing overhead.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPANS_DIR = os.path.join(HERE, "out")
COUNTERS = os.path.join(HERE, "counters.json")
WORKLOADS = ("certify", "orbit", "spectrum", "cli")
SETUP_PROBES = 7

import hostspeed  # noqa: E402
import oracles  # noqa: E402
import spans  # noqa: E402
import tasks as tasklists  # noqa: E402


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


@dataclass
class Cold:
    rc: int
    wall: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def run_cold(cmd: list[str], work: str) -> Cold:
    """Run one process to completion; its own peak RSS comes from wait4."""
    out_path, err_path = os.path.join(work, "cold.stdout"), os.path.join(work, "cold.stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as fh_out, open(err_path) as fh_err:
        return Cold(proc.returncode, wall, usage.ru_maxrss / 1024, fh_out.read(), fh_err.read())


def numpy_import_s(importtime_log: str) -> float:
    """numpy's cumulative import time from a `-X importtime` log, 0 if absent."""
    for line in importtime_log.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[2].strip() == "numpy":
            return int(parts[1]) / 1e6
    return 0.0


def call_cli(argv: list[str]) -> tuple[int | None, str, str]:
    """One in-process `betaorbit.cli.main(argv)`: exit code (None if it
    raised), stdout and stderr."""
    import betaorbit.cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = betaorbit.cli.main(argv)
        except Exception:  # a crash is a failed task, reported with its traceback
            rc = None
            traceback.print_exc()
    return rc, out.getvalue(), err.getvalue()


@dataclass
class Pass:
    wall: float = 0.0         # sum of the untraced invocation times
    traced_wall: float = 0.0  # sum of the traced invocation times
    # host-speed-adjusted time of each untraced invocation, by task index;
    # the last pass of an untraced run may hold only the first tasks
    adjusted: dict[int, float] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    stats: spans.Stats = field(default_factory=spans.Stats)
    mismatched_counters: int = 0
    numpy_import_s: float = 0.0


class Runner:
    """Runs passes over one workload's task list and checks every answer."""

    def __init__(self, workload: str, task_list: list, work: str):
        self.workload = workload
        self.tasks = task_list
        self.work = work
        self.refs = oracles.load_references()
        with open(COUNTERS) as fh:
            self.counters = json.load(fh)
        self.cold = workload == "cli"
        self.peak_child_mb = 0.0
        self.tracer = None if self.cold else spans.Tracer()
        self.passes = 0
        self.meter = hostspeed.Meter(ticks=not self.cold)
        self.last_s = [0.0] * len(task_list)  # each task's last run, probes and check included

    def warm_up(self) -> None:
        warmup = tasklists.WARMUP.get(self.workload)
        if warmup is not None:
            call_cli(warmup.expand(self.work))

    def run_pass(self, trace: bool) -> Pass:
        """One pass over the task list.  With `trace`, every task runs twice,
        untraced and traced, in alternating order, so that drift in the
        host's speed falls on both timings alike."""
        p = Pass()
        for i in range(len(self.tasks)):
            self.run_one(i, trace, p)
        self.passes += 1
        return p

    def run_one(self, i: int, trace: bool, p: Pass) -> None:
        """Task i, untraced (and traced, with `trace`), into pass `p`."""
        t0 = time.perf_counter()
        task = self.tasks[i]
        argv = task.expand(self.work)
        modes = (False, True) if (i + self.passes) % 2 == 0 else (True, False)
        for traced in modes if trace else (False,):
            rc, dt, adjusted, stdout = self._run_task(i, argv, traced, p)
            if traced:
                p.traced_wall += dt
            else:
                p.wall += dt
                p.adjusted[i] = adjusted
            reason = oracles.check(self.refs[task.key], argv, rc, stdout)
            if reason:
                p.failures.append(f"{task.key}: {reason}")
        self.last_s[i] = time.perf_counter() - t0

    def _run_task(self, i: int, argv: list[str], traced: bool, p: Pass):
        """Task i once: exit code, wall time, time at reference host speed
        (None when traced: the tracer's spans must not hold the meter's
        probes) and stdout."""
        if self.cold:
            return self._run_cold_task(i, argv, traced, p)
        if not traced:
            (rc, stdout, stderr), dt, adjusted = self.meter.time(lambda: call_cli(argv))
        else:
            self.tracer.install()
            self.tracer.task = i
            try:
                t0 = time.perf_counter()
                rc, stdout, stderr = call_cli(argv)
                dt = time.perf_counter() - t0
            finally:
                self.tracer.uninstall()
            self._add_stats(p, self.tasks[i], self.tracer.finish())
            adjusted = None
        if rc is None:
            print(stderr, file=sys.stderr)
        return rc, dt, adjusted, stdout

    def _run_cold_task(self, i: int, argv: list[str], traced: bool, p: Pass):
        if traced:
            stats_path = os.path.join(self.work, "child-stats.json")
            spans_path = os.path.join(SPANS_DIR, f"cli-task{i}.spans")
            cmd = [sys.executable, "-X", "importtime", os.path.join(HERE, "child.py"),
                   "trace", stats_path, spans_path, *argv]
        else:
            cmd = [sys.executable, "-m", "betaorbit", *argv]
        if traced:
            res, adjusted = run_cold(cmd, self.work), None
            p.numpy_import_s += numpy_import_s(res.stderr)
            with open(stats_path) as fh:
                self._add_stats(p, self.tasks[i], spans.Stats.from_json(json.load(fh)))
        else:
            res, _, adjusted = self.meter.time(lambda: run_cold(cmd, self.work))
            self.peak_child_mb = max(self.peak_child_mb, res.peak_rss_mb)
        return res.rc, res.wall, adjusted, res.stdout

    def _add_stats(self, p: Pass, task, stats: spans.Stats) -> None:
        p.stats.merge(stats)
        if stats.exact() != self.counters.get(task.key):
            p.mismatched_counters += 1

    def dump_spans(self) -> None:
        if self.tracer is not None:
            self.tracer.dump(os.path.join(SPANS_DIR, f"{self.workload}.spans"))


def measure(runner: Runner, seconds: float, trace: bool) -> list[Pass]:
    """Passes until the next one would overrun `seconds`; one always runs.
    An untraced run then goes on with single tasks in list order, for as
    long as the next one, at its last duration, still fits."""
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        passes.append(runner.run_pass(trace))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            break
    if trace:
        return passes
    tail = Pass()
    for i in range(len(runner.tasks)):
        t0 = time.perf_counter()
        if t0 - start + runner.last_s[i] > seconds:
            break
        runner.run_one(i, False, tail)
    if tail.adjusted:
        passes.append(tail)
    return passes


def probe_setup(workload: str, seed: int, work: str) -> tuple[float, float]:
    """Median host-speed-adjusted time of fresh interpreters that import
    betaorbit and build the task list, and the median import time they report."""
    meter = hostspeed.Meter(ticks=False)
    times, imports = [], []
    for _ in range(SETUP_PROBES):
        res, _, adjusted = meter.time(lambda: run_cold(
            [sys.executable, os.path.join(HERE, "child.py"), "probe", workload, str(seed)], work))
        if res.rc != 0:
            raise RuntimeError(f"set-up probe failed: {res.stderr.strip()}")
        times.append(adjusted)
        imports.append(json.loads(res.stdout)["import_s"])
    return statistics.median(times), statistics.median(imports)


def probe_interpreter(work: str) -> float:
    return statistics.median(run_cold([sys.executable, "-c", "pass"], work).wall
                             for _ in range(SETUP_PROBES))


def percentile(values: list[float], pct: int) -> float:
    """Nearest-rank percentile: a value that was measured.  Over a mix of
    tasks it picks the same task whatever the number of passes, where an
    interpolated one would shift with it."""
    ranked = sorted(values)
    return ranked[max(0, math.ceil(pct / 100 * len(ranked)) - 1)]


def end_to_end(runner: Runner, passes: list[Pass], setup_s: float) -> tuple[dict, list[str]]:
    n_tasks = len(runner.tasks)
    whole = [p for p in passes if len(p.adjusted) == n_tasks]
    walls = [p.wall for p in whole]
    # latencies from whole passes only, so that every task weighs the same
    lat = [x for p in whole for x in p.adjusted.values()]
    # each task's median over all its runs, so one slow pass moves no task far
    runs = [[p.adjusted[i] for p in passes if i in p.adjusted] for i in range(n_tasks)]
    pass_s = sum(statistics.median(r) for r in runs)
    attempted = sum(len(r) for r in runs)
    failed = sum(len(p.failures) for p in passes)
    if runner.cold:
        peak = runner.peak_child_mb
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    p90 = percentile(lat, 90)
    metrics = {
        "pass_s": pass_s,
        "setup_s": setup_s,
        "peak_rss_mb": peak,
        "ok_frac": (attempted - failed) / attempted,
        "cmd_p50_s": statistics.median(lat),
        "cmd_p90_s": p90,
    }
    notes = [
        f"pass_s: sum of per-task medians over {len(walls)} passes and "
        f"{attempted - len(lat)} more invocations, at reference host speed",
        f"wall clock: median pass {statistics.median(walls):.4f} s, quartiles "
        f"{percentile(walls, 25):.4f} .. {percentile(walls, 75):.4f} s; host speed "
        f"{runner.meter.speed():.3f} x reference",
        f"cmd latency: {len(lat)} invocations of {len(runner.tasks)} tasks; "
        f"{sum(x > p90 for x in lat)} samples above p90",
    ]
    return metrics, notes


def per_layer(runner: Runner, passes: list[Pass], work: str,
              import_s: float) -> tuple[dict, list[str]]:
    merged = spans.Stats()
    for p in passes:
        merged.merge(p.stats)
    n = len(passes)
    traced_s = statistics.median(p.traced_wall for p in passes)
    untraced_s = statistics.median(p.wall for p in passes)
    metrics = spans.layer_metrics(merged, sum(p.traced_wall for p in passes), n)
    invocations = n * len(runner.tasks)
    metrics.update({
        "cli.interpreter_s": probe_interpreter(work),
        "cli.import_s": import_s,
        "cli.numpy_import_s": sum(p.numpy_import_s for p in passes) / n,
        "trace.pass_s": traced_s,
        "trace.untraced_pass_s": untraced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.counters_match": 1 - sum(p.mismatched_counters for p in passes) / invocations,
    })
    notes = [f"{n} passes, each task untraced and traced; "
             f"self-time shares: " + ", ".join(
                 f"{layer} {metrics[layer + '.self_share']:.3f}" for layer in spans.LAYERS)]
    return metrics, notes


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_workload(args, spec: dict) -> int:
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    task_list = tasklists.build(args.workload, args.seed)
    os.makedirs(SPANS_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        setup_s, import_s = probe_setup(args.workload, args.seed, work)
        runner = Runner(args.workload, task_list, work)
        runner.warm_up()
        passes = measure(runner, args.seconds, bool(args.trace))
        if args.trace:
            metrics, notes = per_layer(runner, passes, work, import_s)
            runner.dump_spans()
        else:
            metrics, notes = end_to_end(runner, passes, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = [f for p in passes for f in p.failures]
    attempted = sum(len(p.adjusted) for p in passes) * (2 if args.trace else 1)
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, {len(task_list)} tasks")
    for note in notes:
        print("  " + note)
    result = {}
    for m in wanted:
        value = metrics[m["name"]]
        result[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<48} {value:>14.6g} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": result}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process (so peak RSS is per workload)."""
    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            code = 1
    return code


def main() -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=tasklists.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, spec)


if __name__ == "__main__":
    if not os.path.isdir(os.path.join(SRC, "betaorbit")):
        print(f"betaorbit sources not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    sys.exit(main())
