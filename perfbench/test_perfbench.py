"""Self-test of the benchmark: the gate rejects corrupted outputs, and every
metric of BENCHMARK.json is emitted with its unit.

    python3 -m pytest -q perfbench
"""

import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import gate  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from affext import build_spec, cli, evaluate, evaluate_batch, save_spec  # noqa: E402

Q31 = 2**31 - 1


def _spec(tmp_path, q, n, k, m, seed_points=None):
    spec = build_spec(q, n, k, m, seed_points=seed_points)
    path = str(tmp_path / "spec.txt")
    save_spec(spec, path)
    with open(path, encoding="ascii") as fh:
        return spec, path, reference.parse_spec(fh.read())


def test_batch_gate_rejects_a_flipped_value(tmp_path):
    spec, _, params = _spec(tmp_path, Q31, 8, 8, 2, seed_points=[5, 3, 9, 11, 2, 7, 4, 6])
    xs = np.random.default_rng(1).integers(0, Q31, size=(300, 8))
    out = evaluate_batch(spec, xs)
    expected = reference.apply_map(xs, params)
    assert gate.check_batch(out, expected) == []
    rows = np.arange(0, 300, 37)
    assert gate.check_oracle(out, xs, rows, lambda x: evaluate(spec, x)) == []
    bad = out.copy()
    bad[123, 1] ^= 1
    assert gate.check_batch(bad, expected)
    assert gate.check_oracle(bad, xs, np.array([123]), lambda x: evaluate(spec, x))


def test_extract_gate_rejects_an_edited_line(tmp_path):
    _, spec_file, params = _spec(tmp_path, Q31, 8, 8, 2)
    xs = np.random.default_rng(2).integers(0, Q31, size=(50, 8))
    vectors = tmp_path / "in.txt"
    vectors.write_text("\n".join(reference.format_lines(xs)) + "\n")
    out = tmp_path / "out.txt"
    argv = ["extract", "--spec-file", spec_file, "--input", str(vectors), "--output", str(out)]
    assert cli.main(argv) == 0
    got = out.read_text().splitlines()
    expected = reference.format_lines(reference.apply_map(xs, params))
    assert gate.check_lines(got, expected) == []
    edited = list(got)
    edited[17] += "0"
    assert gate.check_lines(edited, expected)
    assert gate.check_lines(got[:-1], expected)


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    """A real m=2 exhaustive sweep and its reference."""
    tmp_path = tmp_path_factory.mktemp("sweep")
    _, spec_file, params = _spec(tmp_path, 5, 3, 2, 2, seed_points=[4, 2, 3])
    checks = "sd,char_max,xor,zero_coordinate"
    out = tmp_path / "report"
    argv = ["verify", "--spec-file", spec_file, "--exhaustive", "--checks", checks,
            "--report-dir", str(out)]
    assert cli.main(argv) == 0
    ref = reference.exhaustive_reference(params, checks.split(","), 1e-6)
    return ((out / "verify_report.csv").read_text(),
            (out / "verify_summary.txt").read_text(), ref)


def test_verify_gate_passes_the_real_sweep(sweep):
    report, summary, ref = sweep
    assert gate.check_verify(report, summary, ref) == []


def test_verify_gate_rejects_an_edited_max_sd_exact(sweep):
    report, summary, ref = sweep
    key, value = next(kv for kv in ref.summary() if kv[0] == "max_sd_exact")
    edited = summary.replace(f"{key} = {value}", f"{key} = 1{value}")
    assert edited != summary
    assert gate.check_verify(report, edited, ref)


def test_verify_gate_rejects_an_edited_sd_cell(sweep):
    report, summary, ref = sweep
    lines = report.splitlines()
    row = next(i for i, line in enumerate(lines) if line.startswith("sd,7,"))
    cells = lines[row].split(",")
    cells[3] = repr(float(cells[3]) + 1e-12)  # inside TOL, but sd must be exact
    lines[row] = ",".join(cells)
    assert gate.check_verify("\n".join(lines), summary, ref)


def test_verify_gate_tolerates_last_bits_of_character_magnitudes(sweep):
    report, summary, ref = sweep
    lines = report.splitlines()
    row = next(i for i, line in enumerate(lines) if line.startswith("char_max,7,"))
    cells = lines[row].split(",")
    cells[3] = repr(float(cells[3]) + 1e-12)
    lines[row] = ",".join(cells)
    assert gate.check_verify("\n".join(lines), summary, ref) == []
    cells[3] = repr(float(cells[3]) + 1e-6)
    lines[row] = ",".join(cells)
    assert gate.check_verify("\n".join(lines), summary, ref)


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_emits_every_metric_with_its_unit(trace):
    """The result line carries exactly the metrics BENCHMARK.json lists; the
    human-readable lines carry every per-layer metric, for every workload."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        bench = json.load(fh)
    wanted = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    printed = dict(tracing.PER_LAYER) if trace else wanted
    names = [w["name"] for w in bench["workloads"]]
    done = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--smoke", "--workload",
                           "all", "--seconds", "0.5", "--trace", str(trace)],
                          capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    for name in names:
        got = {key.split(".", 1)[1]: m["unit"]
               for key, m in result["metrics"].items() if key.startswith(name + ".")}
        assert got == wanted, name
    for name in workloads.SMOKE:
        for metric, unit in printed.items():
            line = rf"^{name} {re.escape(metric)} = \S+ {re.escape(unit)}$"
            assert re.search(line, done.stdout, re.M), (name, metric)


def test_bare_benchmark_directory_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep_m1",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_a_failing_counter_hook_is_reported(monkeypatch):
    def broken(counters, args, kwargs, result):
        raise ZeroDivisionError("changed signature")

    monkeypatch.setitem(tracing.HOOKS, "extractor.build_spec", broken)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin("0.0")
        import affext.extractor

        affext.extractor.build_spec(7, 3, 2, 1)
        op = dict(tracer.end(), wall_s=1.0)
    finally:
        tracer.uninstall()
    assert tracer.hook_errors == {"extractor.build_spec: ZeroDivisionError: changed signature"}
    lines = tracing.report("w", [op], [op], [], 0.0, set(), tracer.hook_errors)
    assert any("counter hook failed" in line and "build_spec" in line for line in lines)
