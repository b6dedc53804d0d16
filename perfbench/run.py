#!/usr/bin/env python3
"""Benchmark of the affext lab: five seeded workloads through the entry
points users call, every output checked against an independent reference.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload in turn
    python3 perfbench/run.py --smoke --workload all  # tiny shapes, self-test

Run it from the root of a checkout; it imports the package from `src/`.
With --trace 0 it reports the end-to-end metrics, with --trace 1 the
per-layer ones (see perfbench/README.md).  Human-readable lines come first;
the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 when every op passed
the correctness gate, 1 when one did not, and 2 when the benchmark could
not run at all (no result line).

Inputs, references and per-process files go to .bench_work/ (removed at
the end); one JSON result per run, with the environment block, every op
record and the recorded spans, goes to .bench_out/.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import envinfo
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")

END_TO_END = (("items_per_s", "items/s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))
# The workers are the single-threaded baseline, BLAS included.  OpenBLAS's
# default pool starts a spinning thread at `import numpy`, which doubled
# that import's cost and made set-up follow the load on the other core.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 7  # at least this many set-ups per run; setup_s is their median
BATCH_SLOTS = 4  # batch_q31 runs its ops in this many processes ...
SETUPS_PER_SLOT = 3  # ... each after this many set-up-only processes
MIN_OPS = 3  # CLI ops per run, so items_per_s is a median of at least three
MAX_OPS = 200
CHILD_TIMEOUT_S = 150


class Run:
    """The processes of one workload run and what they reported."""

    def __init__(self, job_file: str, trace: bool) -> None:
        self.job_file = job_file
        self.trace = trace
        self.setups: list[float] = []
        self.setup_layers: list[dict] = []
        self.ops: list[dict] = []
        self.peaks_kb: list[int] = []
        self.failures: list[str] = []  # processes that died without an op record
        self.index = 0

    def spawn(self, mode: str, budget: float = 0.0) -> float:
        """Run one worker process to its end; return its wall time."""
        index = self.index
        self.index += 1
        work = os.path.dirname(self.job_file)
        cmd = [sys.executable, WORKER, self.job_file, mode, str(index), str(budget),
               "1" if self.trace else "0"]
        env = dict(os.environ, PYTHONPATH=SRC, **WORKER_ENV)
        err_path = os.path.join(work, f"stderr-{index}.txt")
        start = time.perf_counter()
        with open(err_path, "w", encoding="utf-8") as err:
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=env,
                                    cwd=ROOT, text=True)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                records = []
                for line in proc.stdout:
                    record = json.loads(line)
                    if record["event"] == "ready":
                        self.setups.append(record["setup_s"])
                        if self.trace:
                            self.setup_layers.append(record)
                    else:
                        records.append(record)
                code = proc.wait()
            finally:
                watchdog.cancel()
                proc.stdout.close()
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        self.ops += records
        if records:
            self.peaks_kb.append(max(r["maxrss_kb"] for r in records))
        if code != 0 or (mode == "ops" and not records):
            with open(err_path, encoding="utf-8", errors="replace") as fh:
                tail = fh.read()[-2000:]
            self.failures.append(f"worker {index} ({mode}) exited with code {code}: {tail}")
        return time.perf_counter() - start

    def enough(self) -> bool:
        if self.trace:
            kinds = {op["traced"] for op in self.ops}
            return len(kinds) == 2 and len(self.ops) >= MIN_OPS
        return len(self.ops) >= MIN_OPS

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if op["problems"]) + len(self.failures)

    @property
    def attempted(self) -> int:
        return len(self.ops) + len(self.failures)


def measure(job: dict, job_file: str, seconds: float, trace: bool) -> Run:
    run = Run(job_file, trace)
    start = time.perf_counter()
    if job["kind"] == "batch":
        # the run is cut into slots, each of set-ups then ops, so that the
        # set-up samples are spread through the run as the op samples are
        for slot in range(1, BATCH_SLOTS + 1):
            for _ in range(SETUPS_PER_SLOT):
                setup_wall = run.spawn("setup")
            if run.failed:
                break
            end = start + seconds * slot / BATCH_SLOTS
            run.spawn("ops", budget=end - time.perf_counter() - setup_wall)
            if run.failed:
                break
    else:  # every CLI op is a fresh process, which reports its set-up too
        while not run.failed and len(run.ops) < MAX_OPS:
            t0 = time.perf_counter()
            run.spawn("ops")
            last = time.perf_counter() - t0
            if run.enough() and time.perf_counter() - start + last > seconds:
                break
    while len(run.setups) < SETUP_SAMPLES and not run.failed:
        run.spawn("setup")
    return run


@functools.cache
def listed_per_layer() -> frozenset[str]:
    """The per-layer metrics BENCHMARK.json lists, which are those some listed
    workload moves; every one of tracing.PER_LAYER when it is not there."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            return frozenset(m["name"] for m in json.load(fh)["per_layer"])
    except FileNotFoundError:
        return frozenset(name for name, _ in tracing.PER_LAYER)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(run: Run) -> dict:
    ops = [op for op in run.ops if not op["problems"]]
    return {
        "items_per_s": statistics.median(op["items"] / op["wall_s"] for op in ops),
        "setup_s": statistics.median(run.setups),
        "peak_rss_mb": statistics.median(run.peaks_kb) / 1024,
    }


def run_workload(wl, seed: int, seconds: float, trace: bool, out_dir: str, env: dict) -> dict:
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=os.path.join(ROOT, ".bench_work"))
    try:
        job = workloads.prepare(wl, seed, work)
        run = measure(job, os.path.join(work, "job.json"), seconds, trace)
        spans, missing, hook_errors = [], set(), set()
        for name in sorted(os.listdir(work)):
            if name.startswith("spans-"):
                with open(os.path.join(work, name), encoding="ascii") as fh:
                    data = json.load(fh)
                spans += data["spans"]
                missing |= set(data["missing"])
                hook_errors |= set(data["hook_errors"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = []
    problems = run.failures + [p for op in run.ops for p in op["problems"]]
    correct = not problems
    metrics = {}
    if correct and trace:
        traced = [op for op in run.ops if op["traced"]]
        plain = [op for op in run.ops if not op["traced"]]
        values = tracing.per_layer(run.setup_layers, traced, plain)
        metrics = {name: _metric(values[name], unit) for name, unit in tracing.PER_LAYER}
        lines += tracing.report(wl.name, traced, plain, spans,
                                values["trace.overhead_ratio"], missing, hook_errors)
    elif correct:
        values = end_to_end(run)
        metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END}
    for name, metric in metrics.items():
        lines.append(f"{wl.name} {name} = {metric['value']:.6g} {metric['unit']}")
    if trace:  # the others are printed above but left out of the result line
        metrics = {name: m for name, m in metrics.items() if name in listed_per_layer()}
    lines.append(
        f"{wl.name} failed_ratio = {run.failed / max(1, run.attempted):.6g} ratio "
        f"({run.failed} of {run.attempted} ops failed)"
    )
    lines += [f"{wl.name} FAILED: {p}" for p in problems]
    result = {
        "correct": correct,
        "attempted": max(1, run.attempted),
        "failed": run.failed,
        "metrics": metrics,
    }
    record = dict(result, workload=wl.name, seed=seed, seconds=seconds, trace=trace,
                  environment=env, argv=job.get("argv"), items=job["items"],
                  setup_s=run.setups, ops=run.ops, problems=problems, spans=spans)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{wl.name}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w", encoding="ascii") as fh:
        json.dump(record, fh)
    return {"lines": lines, "result": result}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny shapes of every workload, for the self-test")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "affext", "__init__.py")):
        print(f"error: no affext package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    table = workloads.SMOKE if args.smoke else workloads.WORKLOADS
    names = list(table) if args.workload == "all" else [args.workload]
    unknown = [name for name in names if name not in table]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; choose from {', '.join(table)} or all",
              file=sys.stderr)
        return 2
    env = envinfo.environment(ROOT, [table[name] for name in names], WORKER_ENV)
    print("environment " + json.dumps(env))
    out_dir = os.path.join(ROOT, ".bench_out", "smoke" if args.smoke else "")
    done = []
    for name in names:
        outcome = run_workload(table[name], args.seed, args.seconds, bool(args.trace),
                               out_dir, env)
        print("\n".join(outcome["lines"]), flush=True)
        done.append((name, outcome["result"]))
    if len(done) == 1:
        final = done[0][1]
    else:
        final = {
            "correct": all(r["correct"] for _, r in done),
            "attempted": sum(r["attempted"] for _, r in done),
            "failed": sum(r["failed"] for _, r in done),
            "metrics": {f"{name}.{key}": m for name, r in done for key, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
