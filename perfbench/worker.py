"""One benchmark process: set up, say "ready", run ops, check each.

    python3 worker.py JOB MODE INDEX BUDGET_S TRACE

MODE "setup" exits after set-up; MODE "ops" then runs ops: one cold
`affext.cli.main` call for the CLI workloads (each `affext` invocation is
its own process), or `evaluate_batch` calls until BUDGET_S seconds of ops
have run for `batch_q31`.  Each op is reported as one JSON line on stdout
and checked against the reference after its clock stops.

Set-up is what a user pays from a fresh interpreter to the first op:
importing the package, building or loading the spec, and for the batch
API one small warm-up call.  It is timed here, from the top of this file
(after a few standard-library imports) to the "ready" line, which carries
the figure; the spawn and the interpreter's own start-up are left out.
Nothing of the benchmark's own is imported before that line.
"""

import gc
import json
import os
import resource
import sys
import time

START = time.perf_counter()  # before any numpy or affext import

WARMUP_ROWS = 64
MIN_BATCH_OPS = 3
ROTATE_ROWS = 4_099  # batch rows move up by this much between calls


def _setup(job: dict):
    if job["kind"] == "batch":
        import affext.extractor
        import numpy as np

        q, n, k, m, seed_points = job["build"]
        spec = affext.extractor.build_spec(q, n, k, m, seed_points=seed_points)
        warm = np.random.default_rng(job["warmup_seed"]).integers(0, q, size=(WARMUP_ROWS, n))
        affext.extractor.evaluate_batch(spec, warm)
        return spec
    import affext.cli
    import affext.extractor

    return affext.extractor.load_spec(job["spec_file"])


def _rotate(a, step: int) -> None:
    """Move the rows of `a` up by `step` in place, as np.roll(a, -step, axis=0)
    would, with a scratch copy of `step` rows only, so that the benchmark
    holds one input array and no second one shows in the peak RSS."""
    n = len(a)
    head = a[:step].copy()
    for i in range(0, n - step, step):
        j = min(i + step, n - step)
        a[i:j] = a[i + step:j + step]
    a[n - step:] = head


class _GcClock:
    """Time spent in the collector, from gc.callbacks."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.collections = 0
        self._start = 0.0
        gc.callbacks.append(self)

    def __call__(self, phase, info) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._start
            self.collections += 1


def main(job_file: str, mode: str, index: int, budget: float, trace: bool) -> int:
    with open(job_file, encoding="ascii") as fh:
        job = json.load(fh)
    # fd 1 carries the records; what the CLI or a library prints goes to devnull
    proto = os.fdopen(os.dup(1), "w")
    os.dup2(os.open(os.devnull, os.O_WRONLY), 1)

    def emit(record: dict) -> None:
        proto.write(json.dumps(record) + "\n")
        proto.flush()

    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.begin("setup")
    spec = _setup(job)
    ready = {"event": "ready", "setup_s": time.perf_counter() - START}
    if tracer is not None:
        ready.update(tracer.end())
        tracer.uninstall()
    emit(ready)
    if mode == "setup":
        return 0

    import affext.cli
    import affext.extractor
    import gate

    gc_clock = _GcClock() if trace else None
    work = os.path.dirname(job_file)
    if job["kind"] == "batch":
        import numpy as np

        rows = np.load(job["rows"])
        want = np.load(job["expected"])
        oracle_rows = np.array(job["oracle_rows"])
        step = ROTATE_ROWS % len(rows) or 1

        def evaluate(x):
            return affext.extractor.evaluate(spec, x)

    first = time.perf_counter()
    last = 0.0
    op = 0
    while True:
        if job["kind"] == "batch":
            _rotate(rows, step)  # fresh rows per call
            _rotate(want, step)
        else:
            out = os.path.join(work, f"out-{index}")
            argv = [out if a == "{out}" else a for a in job["argv"]]
        traced = tracer is not None and (index + op) % 2 == 1
        if gc_clock is not None:
            gc_clock.seconds, gc_clock.collections = 0.0, 0
        if traced:
            tracer.install()
            tracer.begin(f"{index}.{op}")
        r0 = resource.getrusage(resource.RUSAGE_SELF)
        error = None
        t0 = time.perf_counter()
        try:
            if job["kind"] == "batch":
                result = affext.extractor.evaluate_batch(spec, rows)
            else:
                code = affext.cli.main(argv)
                if code != 0:
                    error = f"affext {argv[0]} exited with code {code}"
        except Exception as exc:  # the op failed; report it and stop
            error = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        r1 = resource.getrusage(resource.RUSAGE_SELF)
        record = {
            "event": "op",
            "op": f"{index}.{op}",
            "traced": traced,
            "wall_s": t1 - t0,
            "items": job["items"],
            "user_s": r1.ru_utime - r0.ru_utime,
            "sys_s": r1.ru_stime - r0.ru_stime,
            "minflt": r1.ru_minflt - r0.ru_minflt,
            "maxrss_kb": r1.ru_maxrss,
        }
        if traced:
            record.update(tracer.end())
            tracer.uninstall()
        if gc_clock is not None:
            record.update(gc_s=gc_clock.seconds, gc_collections=gc_clock.collections)
        if error is None:
            if job["kind"] == "batch":
                problems = gate.check_batch(result, want)
                problems += gate.check_oracle(result, rows, oracle_rows, evaluate)
            elif job["kind"] == "extract":
                with open(out, encoding="ascii") as fh:
                    got = fh.read().splitlines()
                with open(job["expected"], encoding="ascii") as fh:
                    problems = gate.check_lines(got, fh.read().splitlines())
                os.remove(out)
            else:
                from reference import VerifyReference

                ref = VerifyReference.load(job["reference"])
                with open(os.path.join(out, "verify_report.csv"), encoding="ascii") as fh:
                    report = fh.read()
                with open(os.path.join(out, "verify_summary.txt"), encoding="ascii") as fh:
                    summary = fh.read()
                problems = gate.check_verify(report, summary, ref)
                for name in os.listdir(out):
                    os.remove(os.path.join(out, name))
                os.rmdir(out)
        else:
            problems = [error]
        record["problems"] = problems
        emit(record)
        last = t1 - t0
        op += 1
        if problems or job["kind"] != "batch":
            break
        elapsed = time.perf_counter() - first
        if op >= MIN_BATCH_OPS and elapsed + last > budget:
            break
    if tracer is not None:
        with open(os.path.join(work, f"spans-{index}.json"), "w", encoding="ascii") as fh:
            json.dump({"spans": tracer.spans, "missing": sorted(tracer.missing),
                       "hook_errors": sorted(tracer.hook_errors)}, fh)
    return 0


if __name__ == "__main__":
    job_file, mode, index, budget, trace = sys.argv[1:]
    sys.exit(main(job_file, mode, int(index), float(budget), trace == "1"))
