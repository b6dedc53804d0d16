"""End-to-end tests of the command-line front end.

Everything goes through main(argv) in-process so exit codes and the exact
bytes of written files can be asserted.
"""

import hashlib
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from affext import analysis, batch, cli, numtheory
from affext.config import parse_ints
from affext.extractor import build_spec, evaluate, evaluate_batch, load_spec, save_spec
from affext.numtheory import factorize, is_prime, typicality_threshold
from affext.subspace import random_subspace, save_subspaces
from conftest import HAVE_CC


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def spec_path(tmp_path):
    path = tmp_path / "spec.txt"
    save_spec(build_spec(13, 3, 2, 1), path)
    return str(path)


class TestPlan:
    def test_planner_contract_example(self, tmp_path, capsys):
        out_file = tmp_path / "spec.txt"
        code, out, err = run(
            capsys,
            "plan", "--q", "31", "--n", "3", "--k", "3", "--beta", "0.4",
            "--spec-file", str(out_file),
        )
        assert code == 0
        assert "q = 31, n = 3, k = 3, m = 1" in out
        assert "d = 77,11,7" in out
        assert "lcm_bound_satisfied = false" in out
        assert "warning:" in err  # lcm bound not in force at this scale
        spec = load_spec(out_file)
        assert (spec.n, spec.k, spec.m) == (3, 3, 1)
        assert spec.beta == 0.4

    def test_direct_m_path(self, tmp_path, capsys):
        out_file = tmp_path / "spec.txt"
        code, out, _ = run(
            capsys,
            "plan", "--q", "13", "--n", "4", "--k", "2", "--m", "1",
            "--spec-file", str(out_file),
        )
        assert code == 0
        assert load_spec(out_file).m == 1

    def test_strict_lcm_exit_code(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "plan", "--q", "31", "--n", "3", "--k", "3", "--beta", "0.4",
            "--strict-lcm", "--spec-file", str(tmp_path / "s.txt"),
        )
        assert code == 2
        assert "error:" in err

    def test_strict_lcm_applies_to_direct_m(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "plan", "--q", "13", "--n", "3", "--k", "2", "--m", "1",
            "--strict-lcm", "--spec-file", str(tmp_path / "s.txt"),
        )
        assert code == 2

    def test_strict_lcm_message_is_the_same_on_both_paths(self, tmp_path, capsys):
        errs = []
        for rate in (("--m", "1"), ("--beta", "0.4")):
            code, _, err = run(
                capsys,
                "plan", "--q", "31", "--n", "3", "--k", "3", *rate,
                "--strict-lcm", "--spec-file", str(tmp_path / "s.txt"),
            )
            assert code == 2
            errs.append(err)
        tail = "; the error bound q**-epsilon is not guaranteed at this scale\n"
        # lcm(d) = 77 on both; epsilon = 1/4 - beta/2 with beta = 1/3 or 0.4
        assert errs == [
            f"error: lcm(d)=77 exceeds q**epsilon={31 ** (0.25 - 1 / 6):.6g}{tail}",
            f"error: lcm(d)=77 exceeds q**epsilon={31 ** 0.05:.6g}{tail}",
        ]

    def test_typicality_flags_are_gone(self, tmp_path, capsys):
        for flag, value in (("--c-prime", "0"), ("--floor-threshold", "5")):
            code, _, err = run(
                capsys,
                "plan", "--q", "2311", "--n", "3", "--k", "3", "--beta", "0.4",
                flag, value, "--spec-file", str(tmp_path / "s.txt"),
            )
            assert code == 1 and flag in err

    def test_nonprime_modulus(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "plan", "--q", "32", "--n", "3", "--k", "2", "--m", "1",
            "--spec-file", str(tmp_path / "s.txt"),
        )
        assert code == 1
        assert "not prime" in err

    def test_custom_seed_points(self, tmp_path, capsys):
        out_file = tmp_path / "spec.txt"
        code, _, _ = run(
            capsys,
            "plan", "--q", "13", "--n", "3", "--k", "2", "--m", "1",
            "--seed-points", "5,7,11", "--spec-file", str(out_file),
        )
        assert code == 0
        assert load_spec(out_file).A.seed_points == (5, 7, 11)

    def test_malformed_seed_points_is_argument_error(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "plan", "--q", "13", "--n", "3", "--k", "2", "--m", "1",
            "--seed-points", "1,x", "--spec-file", str(tmp_path / "s.txt"),
        )
        assert code == 1
        assert err == "error: --seed-points: not a comma-separated integer list: '1,x'\n"
        assert not (tmp_path / "s.txt").exists()

    def test_missing_required_arguments(self, capsys):
        code, _, _ = run(capsys, "plan", "--q", "13")
        assert code == 1


class TestExtract:
    def test_known_vector(self, spec_path, tmp_path, capsys):
        inp = tmp_path / "in.txt"
        inp.write_text("2,1,1\n0,0,0\n", encoding="ascii")
        out = tmp_path / "out.txt"
        code, _, _ = run(
            capsys,
            "extract", "--spec-file", spec_path,
            "--input", str(inp), "--output", str(out),
        )
        assert code == 0
        assert out.read_text(encoding="ascii") == "9\n0\n"

    def test_stdout_output_and_comments(self, spec_path, tmp_path, capsys):
        inp = tmp_path / "in.txt"
        inp.write_text("# comment\n\n1,1,1\n", encoding="ascii")
        code, out, _ = run(
            capsys, "extract", "--spec-file", spec_path, "--input", str(inp)
        )
        assert code == 0
        assert out == "3\n"

    def test_empty_input_writes_nothing(self, spec_path, tmp_path, capsys):
        inp = tmp_path / "in.txt"
        inp.write_text("# only a comment\n\n", encoding="ascii")
        out = tmp_path / "out.txt"
        code, _, _ = run(
            capsys,
            "extract", "--spec-file", spec_path,
            "--input", str(inp), "--output", str(out),
        )
        assert code == 0
        assert out.read_text(encoding="ascii") == ""

    def test_error_reports_line_number(self, spec_path, tmp_path, capsys):
        inp = tmp_path / "in.txt"
        for text, message in (
            ("1,1,1\n1,2\n", "input line 2: expected 3 entries, got 2"),
            ("1,1,1\n# note\n\n1,x,1\n", "input line 4: not a comma-separated integer list: '1,x,1'"),
            ("\n1,-1,1\n", "input line 2: -1 is not a canonical residue mod 13"),
        ):
            inp.write_text(text, encoding="ascii")
            code, out, err = run(capsys, "extract", "--spec-file", spec_path, "--input", str(inp))
            assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("digit", ("\u0663", "\uff13"))  # Arabic-Indic and fullwidth 3
    def test_stdin_and_a_file_take_one_ascii_grammar(self, digit, spec_path, tmp_path, capsys):
        # int() reads the digits of other scripts; a non-ASCII byte is refused
        # with its line, from stdin as from a file, as are such digits in text
        data = f"1,2,3\n1,2,{digit}\n".encode("utf-8")
        line = data.decode("ascii", "surrogateescape").splitlines()[1]
        want = f"error: input line 2: not a comma-separated integer list: {line!a}\n"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        extract = [sys.executable, "-m", "affext.cli", "extract", "--spec-file", spec_path]
        done = subprocess.run(extract, input=data, capture_output=True, env=env, timeout=120)
        assert (done.returncode, done.stdout, done.stderr.decode("ascii")) == (1, b"", want)
        inp = tmp_path / "in.txt"
        inp.write_bytes(data)
        assert run(capsys, "extract", "--spec-file", spec_path, "--input", str(inp)) == (1, "", want)
        with pytest.raises(ValueError, match=r"^x: not a comma-separated integer list: '1,\\u"):
            parse_ints(f"1,{digit}", "x")
        done = subprocess.run(extract, input=b"2,1,1\n", capture_output=True, env=env, timeout=120)
        assert (done.returncode, done.stdout) == (0, b"9\n")  # stdin is read

    def test_non_ascii_spec_file_names_the_line(self, spec_path, tmp_path, capsys):
        spec_file = tmp_path / "bad_spec.txt"
        spec_file.write_bytes(Path(spec_path).read_bytes().replace(b"d = ", b"d = \xd9"))
        code, out, err = run(capsys, "extract", "--spec-file", str(spec_file))
        assert (code, out) == (1, "")
        assert err == ("error: spec line 7: malformed d value: not a comma-separated integer "
                       "list: '\\udcd935,7,5'\n")

    def test_noncanonical_residue_rejected(self, spec_path, tmp_path, capsys):
        inp = tmp_path / "in.txt"
        inp.write_text("1,1,13\n", encoding="ascii")
        code, _, err = run(
            capsys, "extract", "--spec-file", spec_path, "--input", str(inp)
        )
        assert code == 1
        assert "canonical residue" in err

    def test_chunks_give_the_same_bytes_and_line_numbers(self, spec_path, tmp_path, capsys,
                                                         monkeypatch):
        rows = [((5 * i) % 13, (7 * i + 1) % 13, i % 13) for i in range(cli._EXTRACT_CHUNK + 3)]
        text = "".join(f"{a},{b},{c}\n" for a, b, c in rows)
        calls = []
        real = cli.extractor.evaluate_batch
        monkeypatch.setattr(cli.extractor, "evaluate_batch",
                            lambda spec, xs: calls.append(len(xs)) or real(spec, xs))
        inp, out = tmp_path / "in.txt", tmp_path / "out.txt"
        inp.write_text("# header\n" + text, encoding="ascii")
        code, _, _ = run(capsys, "extract", "--spec-file", spec_path,
                         "--input", str(inp), "--output", str(out))
        assert code == 0 and calls == [cli._EXTRACT_CHUNK - 1, 4]  # one call per chunk
        want = evaluate_batch(load_spec(spec_path), rows).tolist()
        assert out.read_text(encoding="ascii") == "".join(f"{z}\n" for (z,) in want)
        # a bad line after the first chunk is named by its line in the whole input
        inp.write_text(text + "1,2\n" + text, encoding="ascii")
        code, _, err = run(capsys, "extract", "--spec-file", spec_path,
                           "--input", str(inp), "--output", str(out))
        assert code == 1
        assert f"input line {cli._EXTRACT_CHUNK + 4}: expected 3 entries, got 2" in err

    def test_batch_route_goes_to_stderr_once(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_EXTRACT_CHUNK", 2)  # three chunks, one route line
        for q, route in ((2**31 - 1, "c (mersenne)"), (13, "c (montgomery)")):
            if batch.c_build().fn is None:
                route = "numpy"
            spec_file, out = tmp_path / f"spec{q}.txt", tmp_path / f"out{q}.txt"
            save_spec(build_spec(q, 3, 2, 1), spec_file)
            rows = [(0, 1, q - 1), (q - 1, q - 1, q - 1), (2, 1, 1), (q - 2, 0, 1), (5, 6, 7)]
            inp = tmp_path / f"in{q}.txt"
            inp.write_text("".join(f"{a},{b},{c}\n" for a, b, c in rows), encoding="ascii")
            code, stdout, err = run(capsys, "extract", "--spec-file", str(spec_file),
                                    "--input", str(inp), "--output", str(out))
            assert (code, stdout, err) == (0, "", f"batch_route = {route}\n"), q
            spec = load_spec(spec_file)
            want = [evaluate(spec, row) for row in rows]
            assert out.read_bytes() == "".join(f"{z}\n" for (z,) in want).encode("ascii"), q
            code, stdout, err = run(capsys, "extract", "--spec-file", str(spec_file),
                                    "--input", str(inp))
            assert (code, err) == (0, f"batch_route = {route}\n"), q
            assert stdout.encode("ascii") == out.read_bytes(), q

    def test_missing_spec_file(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "extract", "--spec-file", str(tmp_path / "absent.txt")
        )
        assert code == 1


class TestVerify:
    def test_exhaustive_clean_run(self, spec_path, tmp_path, capsys):
        report_dir = tmp_path / "reports"
        code, out, err = run(
            capsys,
            "verify", "--spec-file", spec_path, "--exhaustive",
            "--report-dir", str(report_dir),
        )
        assert code == 0
        assert "violations_total = 0" in out
        assert "elapsed_seconds = " in out
        csv = (report_dir / "verify_report.csv").read_text(encoding="ascii")
        assert csv.startswith("check_name,subspace_id,c_encoded,quantity,bound,satisfied")
        summary = (report_dir / "verify_summary.txt").read_text(encoding="ascii")
        assert "processed = " in summary
        # timing is stdout-only; written artifacts stay run-independent
        assert "elapsed" not in csv and "elapsed" not in summary
        # the count route goes to stderr only
        assert err.count("count_route = ") == 1
        assert "count_route" not in out + csv + summary

    def test_count_points_go_to_stderr_and_leave_the_reports(
        self, tmp_path, capsys, monkeypatch, fresh_c_build
    ):
        # the published digests on both routes: C counts and C writer where a
        # compiler exists, then the numpy count loop and the python writer
        spec_file = str(tmp_path / "spec.txt")
        run(capsys, "plan", "--q", "31", "--n", "3", "--k", "2", "--m", "1",
            "--spec-file", spec_file)
        why = "C kernels unavailable: no C compiler found (tried cc, gcc)"
        routes = [("c", "c")] * HAVE_CC + [(f"numpy ({why})", f"python ({why})")]
        for count_route, report_route in routes:
            if count_route != "c":
                monkeypatch.setattr(batch, "_find_compiler", lambda: None)
                batch.c_build.cache_clear()
            report_dir = tmp_path / count_route[:5]
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code, out, err = run(capsys, "verify", "--spec-file", spec_file, "--exhaustive",
                                     "--report-dir", str(report_dir))
            assert code == 0
            assert len(caught) == (count_route != "c")  # the one fallback warning
            # one offset of each +- pair: 993 blocks of 16 of the 31 offsets, 961 points each
            assert err.splitlines()[-3:] == [f"count_route = {count_route}",
                                             f"report_route = {report_route}",
                                             "count_points = 15268368 of 29582463"]
            files = {name: (report_dir / name).read_bytes()
                     for name in sorted(os.listdir(report_dir))}
            assert "count_points =" not in out
            assert all(b"count_points =" not in b for b in files.values())
            digests = {name: hashlib.sha256(b).hexdigest()[:12] for name, b in files.items()}
            assert digests == {"verify_report.csv": "24288dcd1885",
                               "verify_summary.txt": "5870d1df15e5"}, count_route

    def test_sweep_runs_go_to_stderr_and_leave_the_reports(self, tmp_path, capsys):
        # 993 linear subspaces of 31 offsets; a chunk holds at least one full run of
        # 2**18 // (31 * 31) = 272 of them, so 4 chunks and 6 runs: 272, 272, 272,
        # then 145, 31 and 1 at the ends of the three pivot patterns
        spec_file, report_dir = str(tmp_path / "spec.txt"), tmp_path / "reports"
        run(capsys, "plan", "--q", "31", "--n", "3", "--k", "2", "--m", "1",
            "--spec-file", spec_file)
        for workers in ("1", "2"):
            code, out, err = run(capsys, "verify", "--spec-file", spec_file, "--exhaustive",
                                 "--workers", workers, "--report-dir", str(report_dir))
            assert code == 0
            assert err.splitlines().count("sweep_runs = 6 in 4 chunks") == 1
            assert "sweep_runs =" not in out
            assert all(b"sweep_runs =" not in p.read_bytes() for p in report_dir.iterdir())

    def test_no_count_route_when_nothing_was_counted(self, spec_path, capsys, monkeypatch):
        def unbuilt():
            raise AssertionError("the C kernels were looked up")

        monkeypatch.setattr(batch, "c_build", unbuilt)
        code, _, err = run(capsys, "verify", "--spec-file", spec_path, "--exhaustive",
                           "--checks", "zero_coordinate,substitution_form")
        assert code == 0
        assert err.splitlines()[-2:] == ["count_route = none (no check counted points)",
                                         "count_points = 0 of 0"]

    def test_count_route_without_a_compiler(
        self, spec_path, tmp_path, capsys, monkeypatch, fresh_c_build
    ):
        files = []
        for hide in (False, True):
            if hide:
                monkeypatch.setattr(batch, "_find_compiler", lambda: None)
                batch.c_build.cache_clear()
            d = tmp_path / str(hide)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                code, _, err = run(
                    capsys, "verify", "--spec-file", spec_path, "--sample", "20",
                    "--checks", "all", "--report-dir", str(d),
                )
            assert code == 0
            files.append([(d / name).read_bytes() for name in sorted(os.listdir(d))])
        assert "count_route = numpy (C kernels unavailable: no C compiler" in err
        assert files[0] == files[1]

    def test_report_route_goes_to_stderr_only(
        self, spec_path, tmp_path, capsys, monkeypatch, fresh_c_build
    ):
        # verify (9,516 rows) and bounds (24 rows), each on the C writer when it loads
        verify = ("verify", "--spec-file", spec_path, "--exhaustive")
        files = []
        for hide in (False, True):
            if hide:
                monkeypatch.setattr(batch, "_find_compiler", lambda: None)
                batch.c_build.cache_clear()
            d = tmp_path / str(hide)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                route = ("report_route = c" if batch.c_build().write_fn is not None else
                         "report_route = python (C kernels unavailable: no C compiler")
                for argv in (verify, ("bounds",)):
                    code, out, err = run(capsys, *argv, "--report-dir", str(d))
                    assert code == 0
                    [line] = [l for l in err.splitlines() if l.startswith("report_route = ")]
                    assert line.startswith(route), argv
                    assert "report_route =" not in out
                    _, _, err = run(capsys, *argv)  # no report files, no route line
                    assert "report_route =" not in err
            if hide:  # the one fallback warning, shared with the count kernel
                assert [str(w.message) for w in caught if w.category is RuntimeWarning] == [
                    "C kernels unavailable (no C compiler found (tried cc, gcc)); using the "
                    "numpy batch and count kernels and the python report writer instead"]
            files.append({name: (d / name).read_bytes() for name in sorted(os.listdir(d))})
        assert files[0] == files[1] and len(files[0]) == 3
        assert all(b"report_route =" not in b for b in files[0].values())

    def test_one_fallback_warning_in_one_text(
        self, spec_path, tmp_path, capsys, monkeypatch, fresh_c_build
    ):
        # without a compiler each command warns once, in the same words from the
        # same line: verify with the default checks (counts, then 9,516 report
        # rows), with zero_coordinate alone (no counts, 2,379 report rows), and
        # extract (the batch kernel); the route lines stay as they were
        monkeypatch.setattr(batch, "_find_compiler", lambda: None)
        inp = tmp_path / "in.txt"
        inp.write_text("2,1,1\n", encoding="ascii")
        verify = ("verify", "--spec-file", spec_path, "--exhaustive",
                  "--report-dir", str(tmp_path / "r"))
        seen, routes = [], []
        for argv in (verify, (*verify, "--checks", "zero_coordinate"),
                     ("extract", "--spec-file", spec_path, "--input", str(inp))):
            batch.c_build.cache_clear()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code, _, err = run(capsys, *argv)
            assert code == 0
            seen += [(w.category, str(w.message), w.filename, w.lineno) for w in caught]
            routes += [line for line in err.splitlines()
                       if line.startswith(("count_route", "report_route", "batch_route"))]
        assert len(seen) == 3 and len(set(seen)) == 1 and seen[0][0] is RuntimeWarning
        assert seen[0][1] == ("C kernels unavailable (no C compiler found (tried cc, gcc)); using "
                              "the numpy batch and count kernels and the python report writer instead")
        why = "C kernels unavailable: no C compiler found (tried cc, gcc)"
        assert routes == [f"count_route = numpy ({why})", f"report_route = python ({why})",
                          "count_route = none (no check counted points)",
                          f"report_route = python ({why})", "batch_route = numpy"]

    def test_bounds_looks_up_no_c_kernel(self, tmp_path, capsys, monkeypatch):
        # with no report to write; with --report-dir the writer's route is named
        def unbuilt():
            raise AssertionError("the C kernels were looked up")

        with monkeypatch.context() as patched:
            patched.setattr(batch, "c_build", unbuilt)
            code, out, err = run(capsys, "bounds")
        assert code == 0 and "report_route" not in out + err
        code, _, err = run(capsys, "bounds", "--report-dir", str(tmp_path))
        assert code == 0 and f"report_route = {batch.report_route()}" in err.splitlines()

    def test_sampled_run_deterministic_files(self, spec_path, tmp_path, capsys):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            code, _, _ = run(
                capsys,
                "verify", "--spec-file", spec_path, "--sample", "20",
                "--seed", "11", "--checks", "all", "--report-dir", str(d),
            )
            assert code == 0
        a = (dirs[0] / "verify_report.csv").read_bytes()
        b = (dirs[1] / "verify_report.csv").read_bytes()
        assert a == b

    def test_subspace_file_source(self, spec_path, tmp_path, capsys):
        vs = [random_subspace(3, 2, 13, seed=s) for s in range(5)]
        sub_file = tmp_path / "subs.txt"
        save_subspaces(vs, sub_file)
        code, out, _ = run(
            capsys,
            "verify", "--spec-file", spec_path, "--subspace-file", str(sub_file),
        )
        assert code == 0
        assert "total_subspaces = 5" in out

    def test_subspace_file_errors_name_the_line(self, spec_path, tmp_path, capsys):
        for text, message in (("3,2,13\n0,0,x\n1,0,0\n0,1,0\n", "line 2: not a comma-separated"),
                              ("3,2,13\n0,0,\uff13\n1,0,0\n0,1,0\n", "line 2: not a comma-separated"),
                              ("3,1,4\n0,0,0\n2,0,0\n", "line 1: q = 4 is not a prime")):
            sub_file = tmp_path / "subs.txt"
            sub_file.write_text(text, encoding="utf-8")  # a fullwidth 3 was an ascii codec error
            code, out, err = run(
                capsys, "verify", "--spec-file", spec_path, "--subspace-file", str(sub_file),
            )
            assert (code, out) == (1, "")
            assert err.startswith(f"error: {message}")

    def test_tolerance_must_be_finite_and_nonnegative(self, spec_path, capsys):
        # nan made every xor row fail (exit 3) and inf made every one pass untested
        for value in ("nan", "inf", "-0.5"):
            code, out, err = run(capsys, "verify", "--spec-file", spec_path, "--sample", "20",
                                 "--tolerance", value)
            assert (code, out) == (1, "")
            assert "tolerance must be finite and >= 0" in err
        code, out, _ = run(capsys, "verify", "--spec-file", spec_path, "--sample", "20",
                           "--tolerance", "0")
        assert code == 0 and "violations_xor = 0" in out

    def test_repeated_spec_key_is_refused(self, spec_path, capsys):
        # the last copy of q used to win silently: a spec over F_17 was swept
        with open(spec_path, "a", encoding="ascii") as fh:
            fh.write("q = 17\n")
        code, out, err = run(capsys, "verify", "--spec-file", spec_path, "--sample", "3")
        assert (code, out) == (1, "")
        assert err == "error: spec line 11 repeats key 'q' of line 1\n"

    def test_violation_exit_code(self, spec_path, capsys, monkeypatch):
        # force a failed theorem-backed row to drive the exit-code path
        from affext import analysis

        real = analysis.verify_extractor

        def rigged(spec, source, **kwargs):
            result = real(spec, source, **kwargs)
            result.violations["xor"] = 1
            return result

        monkeypatch.setattr(analysis, "verify_extractor", rigged)
        code, out, _ = run(
            capsys, "verify", "--spec-file", spec_path, "--sample", "3"
        )
        assert code == 3

    def test_workers_above_cpu_count_go_to_stderr(self, spec_path, tmp_path, capsys, monkeypatch):
        from affext import analysis

        # one line: --workers above the CPU count, with the pool's min(workers,
        # chunks) threads, else a pool capped by the chunk count
        for cpus, workers, source, line in (
            (1, 2, "--sample=3", "workers = 2 > cpu_count = 1; pool has 2 threads"),
            (1, 4, "--sample=3", "workers = 4 > cpu_count = 1; pool has 3 threads"),  # 3 chunks
            (8, 2, "--sample=3", None),
            (8, 4, "--sample=3", "workers = 4 > chunks = 3; pool capped at 3"),
            (8, 2, "--exhaustive", "workers = 2 > chunks = 1; pool capped at 1"),  # one full run
            (1, 2, "--exhaustive", "workers = 2 > cpu_count = 1; pool has 1 threads"),
        ):
            monkeypatch.setattr(analysis.os, "cpu_count", lambda: cpus)
            d = tmp_path / f"{cpus}-{workers}{source}"
            code, out, err = run(
                capsys, "verify", "--spec-file", spec_path, source,
                "--workers", str(workers), "--report-dir", str(d),
            )
            assert code == 0
            assert [l for l in err.splitlines() if "; pool " in l] == ([line] if line else [])
            files = "".join(p.read_text(encoding="ascii") for p in d.iterdir())
            assert "cpu_count = " not in out + files and "; pool " not in out + files

    def test_worker_fault_names_its_chunk(self, spec_path, capsys, monkeypatch):
        from affext import analysis

        real = analysis._SweepState.run_range

        def faulty(self, lo, hi):
            if lo == 1:
                raise ValueError("injected fault")
            return real(self, lo, hi)

        monkeypatch.setattr(analysis._SweepState, "run_range", faulty)
        code, _, err = run(
            capsys, "verify", "--spec-file", spec_path, "--sample", "3", "--workers", "2"
        )
        assert code == 1  # a ValueError, as without workers
        assert "error: chunk 1 [1, 2): injected fault" in err

    def test_budget_exceeded_is_argument_error(self, spec_path, capsys):
        code, _, err = run(
            capsys,
            "verify", "--spec-file", spec_path, "--exhaustive",
            "--subspace-budget", "10",
        )
        assert code == 1
        assert "budget" in err

    def test_minor_budget_flag_is_rejected(self, spec_path, capsys):
        # no sweep reads a minor budget, so the flag is not accepted
        code, _, err = run(
            capsys,
            "verify", "--spec-file", spec_path, "--sample", "3",
            "--minor-budget", "10",
        )
        assert code == 1
        assert "--minor-budget" in err

    def test_wrong_lcm_line_is_rejected(self, spec_path, capsys):
        with open(spec_path, encoding="ascii") as fh:
            text = fh.read()
        with open(spec_path, "w", encoding="ascii") as fh:
            fh.write(text.replace("lcm = 35", "lcm = 36"))
        code, out, err = run(capsys, "verify", "--spec-file", spec_path, "--sample", "3")
        assert code == 1 and out == ""
        assert "stored lcm 36 is not lcm(35, 7, 5)" in err

    def test_check_names_are_stripped(self, spec_path, capsys):
        outs = []
        for checks in ("sd,xor", "sd, xor", " xor ,sd,"):
            code, out, _ = run(
                capsys,
                "verify", "--spec-file", spec_path, "--sample", "3", "--checks", checks,
            )
            assert code == 0
            outs.append([line for line in out.splitlines() if not line.startswith("elapsed")])
        assert outs[0] == outs[1] == outs[2]
        assert "checks = sd,xor" in outs[0]
        code, out, _ = run(
            capsys, "verify", "--spec-file", spec_path, "--sample", "3", "--checks", " all ",
        )
        assert code == 0
        assert "checks = sd,char_max,xor,zero_coordinate,change_of_vars,substitution_form" in out

    def test_empty_check_list(self, spec_path, capsys):
        for checks in ("", " , "):
            code, _, err = run(
                capsys,
                "verify", "--spec-file", spec_path, "--sample", "3", "--checks", checks,
            )
            assert code == 1
            assert err == "error: no checks selected\n"

    def test_unknown_check_name(self, spec_path, capsys):
        code, _, err = run(
            capsys,
            "verify", "--spec-file", spec_path, "--sample", "3",
            "--checks", "sd,bogus",
        )
        assert code == 1
        assert "unknown checks" in err

    def test_source_group_is_required_and_exclusive(self, spec_path, capsys):
        code, _, _ = run(capsys, "verify", "--spec-file", spec_path)
        assert code == 1
        code, _, _ = run(
            capsys,
            "verify", "--spec-file", spec_path, "--exhaustive", "--sample", "3",
        )
        assert code == 1


class TestBounds:
    def test_battery_and_prachar(self, tmp_path, capsys):
        report_dir = tmp_path / "r"
        code, out, _ = run(
            capsys,
            "bounds", "--prachar-limit", "100", "--prachar-limit", "1000",
            "--report-dir", str(report_dir),
        )
        assert code == 0
        assert out.count("deligne[") >= 20
        assert "FAIL" not in out
        assert "prachar_sum[100] = 51" in out
        assert "prachar_sum[1000]" in out
        battery_csv = (report_dir / "deligne_battery.csv").read_text(encoding="ascii")
        assert battery_csv.count("\ndeligne,") >= 20

    def test_atypical_count_matches_factorization(self, capsys):
        code, out, _ = run(
            capsys, "bounds", "--prachar-limit", "100", "--prachar-limit", "1000"
        )
        assert code == 0
        assert "prachar_atypical[100] = 0\n" in out
        assert "prachar_atypical[1000] = 13\n" in out
        for limit in (100, 1000):
            brute = sum(
                1
                for q in range(2, limit + 1)
                if is_prime(q) and factorize(q - 1).omega > typicality_threshold(q)
            )
            # the new line follows the two lines each limit printed before
            keys = [f"prachar_{key}[{limit}] = " for key in ("sum", "normalized", "atypical")]
            lines = [line for line in out.splitlines() if line.startswith(tuple(keys))]
            assert [line.split(" = ")[0] + " = " for line in lines] == keys
            assert lines[2] == f"prachar_atypical[{limit}] = {brute}"

    def test_only_the_points_budget_is_accepted(self, capsys):
        # the battery reads only --points-budget
        for flag in ("--subspace-budget", "--minor-budget"):
            code, _, err = run(capsys, "bounds", flag, "10")
            assert code == 1
            assert flag in err
        code, _, err = run(capsys, "bounds", "--points-budget", "10")
        assert code == 1
        assert "budget is 10" in err

    def test_tolerance_must_be_finite_and_nonnegative(self, capsys):
        # nan failed the whole battery (exit 3); now nothing runs
        for value in ("nan", "inf", "-0.5"):
            code, out, err = run(capsys, "bounds", "--tolerance", value)
            assert (code, out) == (1, "")
            assert "tolerance must be finite and >= 0" in err
        # 0 is legal, and the rows where |S| equals the bound exactly pass as ties
        code, out, _ = run(capsys, "bounds", "--tolerance", "0")
        rows = [line for line in out.splitlines() if line.startswith("deligne[")]
        assert code == 0 and len(rows) == len(analysis.deligne_battery())
        assert all(line.endswith(" ok") for line in rows)

    def test_prachar_limit_is_held_to_the_points_budget(self, capsys, monkeypatch):
        # the battery fits a budget of 20,000; the prime statistics up to L sieve
        # L integers, and a largest limit over the budget is refused before any work
        code, out, _ = run(capsys, "bounds", "--prachar-limit", "20000", "--points-budget", "20000")
        assert code == 0 and "prachar_sum[20000] = " in out
        monkeypatch.setattr(numtheory, "primes_up_to", lambda limit: pytest.fail("sieved"))
        code, out, err = run(capsys, "bounds", "--prachar-limit", "100", "--prachar-limit",
                             "20001", "--points-budget", "20000")
        assert (code, out, err) == (
            1, "", "error: prime statistics up to 20001 sieve 20001 integers, budget is 20000\n")

    def test_default_prachar_limit(self, capsys):
        code, out, _ = run(capsys, "bounds")
        assert code == 0
        assert "prachar_sum[1000]" in out


class TestTopLevel:
    def test_no_command(self, capsys):
        assert cli.main([]) == 1

    def test_unknown_command(self, capsys):
        assert cli.main(["frobnicate"]) == 1

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0
