"""Layer spans recorded from outside the package.

`Tracer.install` replaces module attributes that `affext` resolves at call
time (for example `affext.analysis.basis_at`, which the sweep engine looks
up in its own module globals) with wrappers that time each call.  No file
of the package changes, and `uninstall` restores the originals.

Two kinds of wrapper:
  * span: one record per call (name, start, end, self time, parent span,
    op id), kept in memory and written when the process ends;
  * aggregate: per-point calls (`extractor.evaluate`, the sweep's
    `Parametrization.evaluate`) run hundreds of thousands of times per op,
    so they add to their layer's totals and to the enclosing span's child
    time without a record each.

Self time is a call's duration minus the time spent in wrapped calls it
made.  A target that a later version of the package no longer has is
skipped and reported as missing; its metrics read 0.  A counter hook that
raises (say, on a changed signature) leaves the op alone and is reported
with its error, since the counters it feeds then understate.
"""

from __future__ import annotations

import importlib
import os
import statistics
import time
from collections import defaultdict

# (layer name, module, attribute, kind); one layer may wrap several
# call sites that resolve the same function.
TARGETS = (
    ("cli.main", "affext.cli", "main", "span"),
    ("extractor.build_spec", "affext.extractor", "build_spec", "span"),
    ("extractor.load_spec", "affext.extractor", "load_spec", "span"),
    ("numtheory.prime_modulus", "affext.extractor", "prime_modulus", "span"),
    ("extractor.evaluate_batch", "affext.extractor", "evaluate_batch", "span"),
    ("batch.batch_apply", "affext.batch", "batch_apply", "span"),
    ("extractor.evaluate", "affext.extractor", "evaluate", "aggregate"),
    ("extractor.evaluate", "affext.analysis", "evaluate", "aggregate"),
    ("analysis.verify_extractor", "affext.analysis", "verify_extractor", "span"),
    ("subspace.basis_at", "affext.analysis", "basis_at", "span"),
    ("subspace.offsets_for_pattern", "affext.analysis", "offsets_for_pattern", "span"),
    ("subspace.random_subspace", "affext.analysis", "random_subspace", "span"),
    ("subspace.parametrize", "affext.analysis", "parametrize", "span"),
    ("subspace.Parametrization.evaluate", "affext.subspace", "Parametrization.evaluate",
     "aggregate"),
    ("analysis.change_of_vars", "affext.analysis", "_change_of_vars_all", "span"),
    ("analysis.substitution_form_check", "affext.analysis", "substitution_form_check", "span"),
    ("analysis.write_reports_csv", "affext.analysis", "write_reports_csv", "span"),
    ("analysis.write_summary", "affext.analysis", "write_summary", "span"),
)
AGGREGATED = sorted({name for name, _, _, kind in TARGETS if kind == "aggregate"})


def _batch_counts(counters, args, kwargs, result) -> None:
    xs, exps, rows = args[0], args[1], args[2]
    count = len(xs)
    per_row = sum(int(e).bit_length() - 1 + bin(int(e)).count("1") for e in exps)
    counters["batch.rows"] += count
    counters["batch.modmul_count"] += count * (per_row + len(exps) * len(rows))
    counters["batch.bytes_computed"] += count * (len(exps) + len(rows)) * 8


def _sweep_counts(counters, args, kwargs, result) -> None:
    counters["analysis.subspaces_processed"] += result.processed
    counters["analysis.points_computed"] += result.processed * result.spec_q**result.spec_k


def _report_counts(counters, args, kwargs, result) -> None:
    counters["analysis.report_rows"] += len(args[0].reports)
    counters["analysis.report_bytes"] += os.path.getsize(args[1])


def _summary_counts(counters, args, kwargs, result) -> None:
    counters["analysis.report_bytes"] += os.path.getsize(args[1])


HOOKS = {
    "batch.batch_apply": _batch_counts,
    "analysis.verify_extractor": _sweep_counts,
    "analysis.write_reports_csv": _report_counts,
    "analysis.write_summary": _summary_counts,
}


class Tracer:
    def __init__(self) -> None:
        self.layers = {name: [0, 0.0, 0.0] for name, *_ in TARGETS}  # calls, busy, self
        self.counters: defaultdict[str, int] = defaultdict(int)
        self.spans: list = []
        self.missing: set[str] = set()
        self.hook_errors: set[str] = set()  # counter hooks that raised
        self.op = None
        self._stack: list[list] = []
        self._patches: list = []

    def install(self) -> None:
        for name, module, attr, kind in TARGETS:
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf, None)
            if original is None:
                self.missing.add(name)
                continue
            setattr(owner, leaf, self._wrap(original, name, kind == "span"))
            self._patches.append((owner, leaf, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, leaf, original = self._patches.pop()
            setattr(owner, leaf, original)

    def begin(self, op) -> None:
        self.op = op
        for cell in self.layers.values():
            cell[:] = [0, 0.0, 0.0]
        self.counters = defaultdict(int)

    def end(self) -> dict:
        """Totals of the op that `begin` started."""
        return {
            "layers": {name: list(cell) for name, cell in self.layers.items()},
            "counters": dict(self.counters),
        }

    def _wrap(self, fn, name: str, keep_span: bool):
        cell = self.layers[name]
        stack = self._stack
        spans = self.spans
        hook = HOOKS.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if keep_span:
                parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
                frame = [0.0, len(spans)]
                spans.append(None)
            else:
                frame = [0.0, None]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                cell[0] += 1
                cell[1] += dur
                cell[2] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if keep_span:
                    spans[frame[1]] = (name, t0, t1, dur - frame[0], parent, self.op)
            if hook is not None:
                try:
                    hook(self.counters, args, kwargs, result)
                except Exception as exc:  # a changed signature must not break the op
                    self.hook_errors.add(f"{name}: {type(exc).__name__}: {exc}")
            return result

        return wrapper


# ---------------------------------------------------------------------------
# per-layer metrics from op records

PER_LAYER = (
    ("batch.batch_apply.calls", "count"),
    ("batch.batch_apply.busy_s", "s"),
    ("batch.rows", "count"),
    ("batch.modmul_count", "count"),
    ("batch.bytes_computed", "B"),
    ("batch.modmul_per_s", "1/s"),
    ("extractor.evaluate_batch.self_s", "s"),
    ("extractor.evaluate.calls", "count"),
    ("extractor.evaluate.busy_s", "s"),
    ("extractor.build_spec.busy_s", "s"),
    ("extractor.load_spec.busy_s", "s"),
    ("numtheory.prime_modulus.busy_s", "s"),
    ("subspace.basis_at.calls", "count"),
    ("subspace.basis_at.busy_s", "s"),
    ("subspace.offsets_for_pattern.calls", "count"),
    ("subspace.offsets_for_pattern.busy_s", "s"),
    ("subspace.random_subspace.calls", "count"),
    ("subspace.random_subspace.busy_s", "s"),
    ("subspace.parametrize.calls", "count"),
    ("subspace.parametrize.busy_s", "s"),
    ("subspace.Parametrization.evaluate.calls", "count"),
    ("subspace.Parametrization.evaluate.busy_s", "s"),
    ("analysis.verify_extractor.busy_s", "s"),
    ("analysis.verify_extractor.self_s", "s"),
    ("analysis.change_of_vars.calls", "count"),
    ("analysis.change_of_vars.busy_s", "s"),
    ("analysis.substitution_form_check.calls", "count"),
    ("analysis.substitution_form_check.busy_s", "s"),
    ("analysis.write_reports_csv.busy_s", "s"),
    ("analysis.write_summary.busy_s", "s"),
    ("analysis.report_rows", "count"),
    ("analysis.report_bytes", "B"),
    ("analysis.subspaces_processed", "count"),
    ("analysis.points_computed", "count"),
    ("cli.main.busy_s", "s"),
    ("cli.main.self_s", "s"),
    ("proc.user_s", "s"),
    ("proc.sys_s", "s"),
    ("proc.minflt", "count"),
    ("proc.cpu_util", "ratio"),
    ("python.gc_s", "s"),
    ("python.gc_collections", "count"),
    ("trace.overhead_ratio", "ratio"),
)
SETUP_LAYERS = ("extractor.build_spec", "extractor.load_spec", "numtheory.prime_modulus")
_FIELDS = {"calls": 0, "busy_s": 1, "self_s": 2}


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def per_layer(setups: list[dict], traced: list[dict], plain: list[dict]) -> dict[str, float]:
    """Every PER_LAYER metric for one op: the median over traced ops (over
    traced set-ups for the set-up layers), with process counters from the
    untraced ops, whose times tracing does not inflate."""
    out = {}
    for metric, _ in PER_LAYER:
        head, _, field = metric.rpartition(".")
        if head in SETUP_LAYERS:
            out[metric] = _median(s["layers"][head][_FIELDS[field]] for s in setups)
        elif field in _FIELDS and head in traced[0]["layers"]:
            out[metric] = _median(op["layers"][head][_FIELDS[field]] for op in traced)
        elif metric.startswith(("batch.", "analysis.")):
            out[metric] = _median(op["counters"].get(metric, 0) for op in traced)
    out["batch.modmul_per_s"] = _median(
        op["counters"].get("batch.modmul_count", 0) / op["layers"]["batch.batch_apply"][1]
        if op["layers"]["batch.batch_apply"][1] else 0.0
        for op in traced
    )
    for key in ("user_s", "sys_s", "minflt", "gc_s", "gc_collections"):
        prefix = "python." if key.startswith("gc") else "proc."
        out[prefix + key] = _median(op[key] for op in plain)
    out["proc.cpu_util"] = _median((op["user_s"] + op["sys_s"]) / op["wall_s"] for op in plain)
    out["trace.overhead_ratio"] = (
        _median(op["wall_s"] for op in traced) / _median(op["wall_s"] for op in plain) - 1
    )
    return out


def report(name: str, traced: list[dict], plain: list[dict], spans: list,
           overhead: float, missing: set[str], hook_errors: set[str]) -> list[str]:
    """Human-readable outside-in breakdown of the traced ops."""
    wall = _median(op["wall_s"] for op in traced)
    lines = [
        f"[{name}] traced ops {len(traced)}, untraced ops {len(plain)}, "
        f"trace.overhead_ratio = {overhead:.4f}",
    ]
    rows = []
    for layer in sorted({n for n, *_ in TARGETS}):
        calls = _median(op["layers"][layer][0] for op in traced)
        if calls:
            busy = _median(op["layers"][layer][1] for op in traced)
            self_s = _median(op["layers"][layer][2] for op in traced)
            rows.append((self_s, layer, calls, busy))
    covered = sum(r[0] for r in rows)
    lines.append(
        f"  op wall {wall:.4f} s (median of traced ops); layer self times sum to "
        f"{covered:.4f} s ({100 * covered / wall:.1f}% of wall), the rest is the "
        "benchmark's own call and timing"
    )
    lines.append(f"  {'layer':<40}{'calls':>10}{'busy_s':>11}{'self_s':>11}{'self/wall':>11}")
    for self_s, layer, calls, busy in sorted(rows, reverse=True):
        tag = " (aggregate)" if layer in AGGREGATED else ""
        lines.append(
            f"  {layer + tag:<40}{calls:>10.0f}{busy:>11.4f}{self_s:>11.4f}"
            f"{100 * self_s / wall:>10.1f}%"
        )
    top = sorted((s for s in spans if s[5] != "setup"), key=lambda s: -s[3])[:5]
    lines.append("  top self-time spans: " + ", ".join(
        f"{s[0]} {s[3]:.4f} s (op {s[5]})" for s in top))
    lines.append(
        "  aggregate layers (" + ", ".join(AGGREGATED) + ") are per-point calls timed "
        "in total, not as individual spans"
    )
    if missing:
        lines.append("  targets missing from this version: " + ", ".join(sorted(missing)))
    for error in sorted(hook_errors):
        lines.append(f"  counter hook failed, its counters understate: {error}")
    return lines
