"""Unit tests for exponent generation, the Vandermonde matrix, and evaluation."""

import ctypes
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from affext import analysis, batch, numtheory
from affext.config import BudgetExceededError
from affext.extractor import (
    CoefficientMatrix,
    ExponentVector,
    LcmBoundViolation,
    PlanWarning,
    build_matrix,
    build_spec,
    evaluate,
    evaluate_batch,
    gen_exponents,
    load_spec,
    plan_parameters,
    save_spec,
    spec_from_text,
    spec_to_text,
    validate_exponents,
    verify_mds,
)
from conftest import HAVE_CC, needs_cc

small_primes = st.sampled_from([3, 5, 7, 13, 31, 101, 257, 1009])


class TestGenExponents:
    def test_frozen_examples(self):
        ev = gen_exponents(3, 13)
        assert (ev.d, ev.lcm) == ((35, 7, 5), 35)
        ev = gen_exponents(3, 31)
        assert (ev.d, ev.lcm) == ((77, 11, 7), 77)
        ev = gen_exponents(4, 13)
        assert (ev.d, ev.lcm) == ((385, 77, 55, 35), 385)
        ev = gen_exponents(1, 13)
        assert (ev.d, ev.lcm) == ((5,), 5)

    def test_prime_count_follows_bit_length(self):
        for n in (1, 2, 3, 4, 7, 8, 15, 16, 63, 64):
            ev = gen_exponents(n, 101)
            f = numtheory.factorize(ev.lcm)
            assert f.omega == n.bit_length()
            assert all(e == 1 for _, e in f.factors)

    @given(st.integers(min_value=1, max_value=64), small_primes)
    def test_premises_hold(self, n, q):
        ev = gen_exponents(n, q)
        assert len(ev.d) == n
        assert ev.d[0] == ev.lcm == math.lcm(*ev.d)
        assert all(d > 1 for d in ev.d)
        assert all(a > b for a, b in zip(ev.d, ev.d[1:]))
        assert all(ev.lcm % d == 0 for d in ev.d)
        assert all(math.gcd(d, q - 1) == 1 for d in ev.d)
        validate_exponents(ev, q)

    def test_largest_divisors_chosen(self):
        ev = gen_exponents(5, 13)
        all_divs = sorted(sympy.divisors(ev.lcm), reverse=True)
        assert list(ev.d) == all_divs[:5]

    def test_each_power_map_is_a_bijection(self):
        for q in (13, 31):
            for d in gen_exponents(4, q).d:
                image = sorted(pow(x, d, q) for x in range(q))
                assert image == list(range(q))

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            gen_exponents(0, 13)

    def test_validate_rejects_shared_factor(self):
        ev = ExponentVector(d=(15, 5, 3))
        with pytest.raises(ValueError):
            validate_exponents(ev, 31)  # gcd(15, 30) = 15


class TestExponentVectorValidation:
    def test_rejects_nondecreasing(self):
        with pytest.raises(ValueError):
            ExponentVector(d=(5, 7))

    def test_rejects_exponent_one(self):
        with pytest.raises(ValueError):
            ExponentVector(d=(5, 1))

    def test_rejects_wrong_lcm(self):
        # lcm(d) is derived, so an exponent vector cannot hold a wrong one
        assert ExponentVector(d=(35, 7, 5)).lcm == 35
        with pytest.raises(TypeError):
            ExponentVector(d=(35, 7, 5), lcm=7)
        # the spec file's lcm line is the one stored lcm, checked on load
        text = spec_to_text(build_spec(13, 3, 2, 1)).replace("lcm = 35", "lcm = 7")
        with pytest.raises(ValueError, match="stored lcm 7 is not lcm"):
            spec_from_text(text)

    def test_rejects_nondivisor(self):
        # lcm(d) is the one master exponent: an exponent vector holds no other,
        # and a spec file's D_master line that some d_i does not divide is refused
        with pytest.raises(TypeError):
            ExponentVector(d=(6,), D_master=35)
        text = spec_to_text(build_spec(13, 3, 2, 1)).replace("D_master = 35", "D_master = 36")
        with pytest.raises(ValueError, match="^spec line 10: malformed D_master value: 36 is not"):
            spec_from_text(text)

    def test_sequence_protocol(self):
        ev = gen_exponents(3, 13)
        assert len(ev) == 3
        assert list(ev) == [35, 7, 5]
        assert ev[1] == 7


class TestBuildMatrix:
    def test_default_seed_points_small_case(self):
        A = build_matrix(2, 3, 13)
        assert A.seed_points == (1, 2, 3)
        assert A.rows == ((1, 1, 1), (1, 2, 3))

    def test_rows_are_powers_of_seeds(self):
        A = build_matrix(4, 5, 101, seed_points=(3, 7, 11, 42, 99))
        for i in range(4):
            for j, r in enumerate(A.seed_points):
                assert A.rows[i][j] == pow(r, i, 101)

    def test_array_dtype_and_shape(self):
        arr = build_matrix(2, 5, 13).array()
        assert arr.shape == (2, 5)
        assert arr.dtype == np.int64

    def test_requires_n_below_q(self):
        with pytest.raises(ValueError):
            build_matrix(1, 13, 13)

    def test_rejects_duplicate_or_zero_seeds(self):
        with pytest.raises(ValueError):
            build_matrix(1, 2, 13, seed_points=(3, 3))
        with pytest.raises(ValueError):
            build_matrix(1, 2, 13, seed_points=(0, 1))
        with pytest.raises(ValueError):
            build_matrix(1, 2, 13, seed_points=(4, 17))  # 17 = 4 mod 13

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            build_matrix(3, 2, 13)


class TestVerifyMds:
    def test_vandermonde_is_mds(self):
        for q in (13, 31, 101):
            for n in (4, 8):
                for m in (1, 2, 3):
                    assert verify_mds(build_matrix(m, n, q))

    def test_detects_singular_submatrix(self):
        # two equal columns: the 2x2 minor on them vanishes
        bad = CoefficientMatrix(
            q=13, m=2, n=3, seed_points=(1, 2, 3),
            rows=((1, 1, 1), (2, 2, 5)),
        )
        assert not verify_mds(bad)

    def test_budget_guard(self):
        A = build_matrix(4, 40, 101)
        with pytest.raises(BudgetExceededError):
            verify_mds(A, budget=100)

    def test_minor_oracle_against_sympy_determinants(self):
        import itertools

        A = build_matrix(3, 6, 31)
        M = sympy.Matrix(A.rows)
        for cols in itertools.combinations(range(6), 3):
            det = int(M[:, list(cols)].det()) % 31
            assert det != 0  # Vandermonde minors are nonzero


class TestPlanParameters:
    def test_contract_example(self):
        with pytest.warns(PlanWarning):
            spec = plan_parameters(n=3, k=3, beta=0.4, q=31)
        assert spec.m == 1
        assert spec.beta == 0.4
        assert spec.epsilon == pytest.approx(0.05)
        assert spec.d.d == (77, 11, 7)
        assert not spec.lcm_bound_satisfied

    def test_strict_mode_raises(self):
        with pytest.raises(LcmBoundViolation):
            plan_parameters(n=3, k=3, beta=0.4, q=31, strict_lcm=True)

    def test_output_length_rule(self):
        with pytest.warns(PlanWarning):
            spec = plan_parameters(n=8, k=7, beta=0.45, q=101)
        assert spec.m == math.floor(0.45 * 7) == 3
        assert spec.epsilon == pytest.approx(0.25 - 0.45 / 2)

    def test_beta_out_of_range(self):
        with pytest.raises(ValueError):
            plan_parameters(n=4, k=3, beta=0.5, q=13)
        with pytest.raises(ValueError):
            plan_parameters(n=4, k=3, beta=0.0, q=13)

    def test_zero_outputs_rejected(self):
        with pytest.raises(ValueError):
            plan_parameters(n=4, k=2, beta=0.3, q=13)

    def test_atypical_modulus_warns(self):
        # q - 1 = 2310 has five distinct prime factors; the lcm bound fails too
        with pytest.warns(PlanWarning, match="atypical"), pytest.warns(PlanWarning, match="lcm"):
            plan_parameters(n=3, k=3, beta=0.4, q=2311)

    def test_typical_modulus_does_not_warn_atypical(self):
        import warnings as _warnings

        with _warnings.catch_warnings(record=True) as caught:
            _warnings.simplefilter("always")
            plan_parameters(n=3, k=3, beta=0.4, q=31)
        assert not any("atypical" in str(w.message) for w in caught)

    def test_lcm_bound_unreachable_at_desk_scale(self):
        # m >= 1 forces beta >= 1/k, so epsilon <= 1/4 - 1/(2k), and the
        # master product for n >= k coordinates always exceeds q**epsilon
        # for q below the modulus cap; the planner must flag every such
        # call rather than stay quiet.  q - 1 has 3, 7 and 12 distinct prime
        # factors, so the last two moduli are also atypical
        for q, n, k, beta, atypical in [
            (31, 3, 3, 0.4, False),
            (2**31 - 1, 8, 8, 0.2, True),
            (2**61 - 1, 4, 4, 0.3, True),
        ]:
            with pytest.warns(PlanWarning) as caught:
                spec = plan_parameters(n=n, k=k, beta=beta, q=q)
            kinds = ["atypical" if "atypical" in str(w.message) else str(w.message).split("=")[0]
                     for w in caught]
            assert kinds == ["atypical"] * atypical + ["lcm(d)"]
            assert not spec.lcm_bound_satisfied
            assert spec.d.lcm > spec.modulus**spec.epsilon


class TestBuildSpec:
    def test_records_ratio_and_clamped_epsilon(self):
        spec = build_spec(13, 4, 2, 1)
        assert spec.beta == 0.5
        assert spec.epsilon == 0.0
        spec = build_spec(13, 4, 4, 1)
        assert spec.beta == 0.25
        assert spec.epsilon == pytest.approx(0.125)

    def test_shape_constraints(self):
        with pytest.raises(ValueError):
            build_spec(13, 3, 2, 3)  # m > k
        with pytest.raises(ValueError):
            build_spec(13, 3, 4, 1)  # k > n
        with pytest.raises(ValueError):
            build_spec(13, 13, 13, 1)  # n = q

    def test_nonprime_modulus_rejected(self):
        with pytest.raises(ValueError, match="not prime"):
            build_spec(32, 3, 2, 1)

    def test_lcm_bound_is_derived(self):
        spec = build_spec(13, 3, 2, 1)
        assert spec.d.lcm == 35 and spec.epsilon == 0.0
        assert spec.lcm_bound_satisfied is False
        # a derived value cannot be set
        with pytest.raises(TypeError):
            replace(spec, lcm_bound_satisfied=True)
        # it follows epsilon: lcm(d) = 17 <= (2**61 - 1)**0.25, about 38,967
        wide = build_spec(2**61 - 1, 1, 1, 1)
        assert wide.d.lcm == 17 and not wide.lcm_bound_satisfied
        assert replace(wide, epsilon=0.25).lcm_bound_satisfied is True


class TestEvaluate:
    def test_frozen_example(self):
        spec = build_spec(13, 3, 2, 2)
        assert evaluate(spec, (2, 1, 1)) == (9, 12)

    def test_against_direct_formula(self):
        spec = build_spec(31, 4, 3, 2)
        x = (5, 0, 30, 17)
        powed = [pow(xi, di, 31) for xi, di in zip(x, spec.d)]
        want = tuple(sum(a * p for a, p in zip(row, powed)) % 31 for row in spec.A.rows)
        assert evaluate(spec, x) == want

    def test_length_check(self):
        spec = build_spec(13, 3, 2, 1)
        with pytest.raises(ValueError):
            evaluate(spec, (1, 2))

    @given(st.data())
    def test_first_coordinate_bijection_when_others_fixed(self, data):
        # with m = 1 and all but one input frozen, varying that input sweeps
        # a * x^d + const through all q values exactly once
        q = data.draw(st.sampled_from([5, 13]))
        spec = build_spec(q, 2, 2, 1)
        fixed = data.draw(st.integers(min_value=0, max_value=q - 1))
        outs = {evaluate(spec, (x, fixed))[0] for x in range(q)}
        assert outs == set(range(q))


class TestEvaluateBatch:
    def test_matches_scalar_evaluate(self):
        spec = build_spec(101, 5, 3, 2)
        rng = np.random.default_rng(3)
        xs = rng.integers(0, 101, size=(200, 5))
        out = evaluate_batch(spec, xs)
        for i in range(200):
            assert tuple(out[i]) == evaluate(spec, tuple(int(v) for v in xs[i]))

    def test_all_impls_agree(self):
        # each kernel against the python oracle wherever it applies, on edge
        # inputs either side of one 2,048-row chunk of the C kernel
        if HAVE_CC:
            assert batch.c_build().fn is not None, batch.c_build().error
        for q in (13, 2**31 - 19, Q31, 2**31 + 11, 2**32 - 5):
            xs, exps, A = _edge_batch(q, 4)
            want = batch._eval_python(xs, exps, A, q)
            kernels = [batch._eval_numpy] + [batch._eval_c] * (HAVE_CC and q < 2**31)
            for kernel in kernels:
                for rows in (0, 1, 2047, 2048, 2049):
                    got = kernel(xs[:rows], exps, A, q)
                    assert got.dtype == np.int64, (q, kernel.__name__)
                    assert np.array_equal(got, want[:rows]), (q, kernel.__name__, rows)
        for q in (2**32 + 15, 2**61 - 1):  # the python route, against the scalar path
            spec = build_spec(q, 4, 2, 2)
            xs = _edge_batch(q, 4, rows=200)[0]
            want = [list(evaluate(spec, tuple(int(v) for v in x))) for x in xs]
            assert batch._eval_python(xs, spec.d.d, spec.A.rows, q).tolist() == want, q

    def test_every_kernel_validates_its_input(self, monkeypatch):
        # one check runs before every route, python included, and no kernel
        # runs on a batch it refuses.  The kernels disagree off the canonical
        # range (at 2**31 - 1, numpy and C differ on -3; at 2**31 + 11, numpy
        # and python on an entry 2**40 + 1 of A) and on negative exponents,
        # so those are refused too
        for name in ("_eval_c", "_eval_numpy", "_eval_python"):
            monkeypatch.setattr(batch, name, lambda *a: pytest.fail("a kernel ran"))
        for q in (13, 2**31 + 11, 2**61 - 1):  # c (or numpy), numpy, python
            with pytest.raises(ValueError, match="matrix rows must have length 3"):
                batch.batch_apply([[1, 2, 3]], (3, 5), ((1, 1),), q)
            with pytest.raises(ValueError, match="batch must be two-dimensional"):
                batch.batch_apply([1, 2, 3], (3, 5, 7), ((1, 1, 1),), q)
            for bad in ([[-1, 7]], [[q, 1]], [[2**62, 1]], [[1, 2], [-3, 7]]):
                with pytest.raises(ValueError, match="batch contains non-canonical residues"):
                    batch.batch_apply(bad, (3, 5), ((1, 1), (1, 2)), q)
            for exps, rows in (((-1, 5), ((1, 1),)), ((3, 5), ((1, -1),)),
                               ((3, 5), ((1, q),)), ((3, 5), ((1, 1), (2**62, 1)))):
                with pytest.raises(ValueError, match="nonnegative and matrix entries canonical"):
                    batch.batch_apply([[q - 1, 3]], exps, rows, q)
            # non-integers, which a kernel would truncate (0.5 -> 0) or refuse its own way
            for bad in ([[0.5, 1.9]], [[1.0, 2.0]], [["1", "2"]], [[1, None]]):
                with pytest.raises(ValueError, match="batch must hold integers"):
                    batch.batch_apply(bad, (3, 5), ((1, 1),), q)
            for exps, rows in (((1.5, 5), ((1, 1),)), ((3, "5"), ((1, 1),)),
                               ((3, 5), ((1.5, 1),)), ((3, 5), ((1, 1), (1, np.float64(2))))):
                with pytest.raises(ValueError, match="exponents and matrix entries must be integers"):
                    batch.batch_apply([[q - 1, 3]], exps, rows, q)
        with pytest.raises(ValueError, match="batch must hold integers, got dtype float64"):
            evaluate_batch(build_spec(13, 3, 2, 1), [[0.5, 1.9, 2.2]])  # was F(0, 1, 2)

    def test_empty_batch(self):
        spec = build_spec(13, 3, 2, 1)
        out = evaluate_batch(spec, np.zeros((0, 3), dtype=np.int64))
        assert out.shape == (0, 1)

    def test_shape_and_range_validation(self):
        spec = build_spec(13, 3, 2, 1)
        with pytest.raises(ValueError):
            evaluate_batch(spec, np.zeros((4, 2), dtype=np.int64))
        with pytest.raises(ValueError):
            evaluate_batch(spec, np.full((1, 3), 13, dtype=np.int64))
        with pytest.raises(ValueError):
            evaluate_batch(spec, -np.ones((1, 3), dtype=np.int64))


class TestCKernel:
    def test_no_compiler_falls_back_to_numpy_with_one_warning(self, fresh_c_build, monkeypatch):
        monkeypatch.setattr(batch, "_find_compiler", lambda: None)
        with pytest.warns(RuntimeWarning, match="no C compiler.*using the numpy batch and count kernels"):
            assert batch.batch_route(2**31 - 1) == "numpy"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert batch.batch_route(13) == "numpy"  # once per process
            # 2**3 + 3**5 = 251 = 4 mod 13, on the numpy kernel
            assert batch.batch_apply([[2, 3]], (3, 5), ((1, 1),), 13).tolist() == [[4]]

    def test_c_source_compiles_without_warnings(self, tmp_path):
        # every later edit of the one C source stays free of warnings
        cc = batch._find_compiler()
        if cc is None:
            pytest.skip("no C compiler found (tried cc, gcc)")
        done = subprocess.run(
            [cc, *batch._C_FLAGS[-1], "-Wall", "-Wextra", "-Werror", "-shared", "-fPIC",
             "-x", "c", "-", "-o", str(tmp_path / "affext.so")],
            input=batch._C_SOURCE, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr

    @needs_cc
    def test_unique64_matches_np_unique(self):
        # affext_unique64 gives each distinct bit pattern once, in order of
        # first appearance, and each row's index into them: np.unique's
        # values, reordered; -0.0 and 0.0 are two values, as repr tells apart
        rng = np.random.default_rng(0)
        for col in (np.zeros(0), np.array([2.5]), np.full(1000, 0.1),
                    np.array([-0.0, 0.0, -0.0, 0.0]),
                    rng.integers(-(2**63), 2**63, 10**5, dtype=np.int64).view(np.float64),
                    rng.integers(0, 1000, 10**5).astype(np.float64)):  # many repeats
            bits = col.view(np.int64)
            values, at = batch._unique_c(bits)
            want, first = np.unique(bits, return_index=True)
            assert (values == bits[np.sort(first)]).all() and len(values) == len(want)
            assert at.shape == bits.shape and (values[at] == bits).all()
        assert batch._unique_c(np.array([-0.0, 0.0]).view(np.int64))[1].tolist() == [0, 1]

    def test_oracle_tests_pass_on_a_sanitizer_build(self, tmp_path):
        # the oracle tests of the four C functions, in a fresh interpreter on
        # a build with AddressSanitizer and UBSan: a read one cell past a
        # table or a row, which can leave every output right, fails here
        cc = batch._find_compiler()
        asan = cc and subprocess.run([cc, "-print-file-name=libasan.so"], capture_output=True,
                                     text=True, timeout=60).stdout.strip()
        if not asan or not os.path.isabs(asan):
            pytest.skip("libasan.so is missing")
        flags = ("-O1", "-g", "-fsanitize=address,undefined", "-fno-sanitize-recover=all",
                 "-fno-omit-frame-pointer")
        (tmp_path / "affext").mkdir(mode=0o700)
        path = tmp_path / "affext" / batch._object_name(batch._compiler_id(cc), flags)
        assert batch._compile(cc, flags, str(path)) == ""
        here = os.path.dirname(__file__)
        tests = [os.path.join(here, t) for t in (
            "test_analysis.py::TestChangeOfVars::test_direct_route_matches_reference_distribution",
            "test_analysis.py::TestTransformProperties::"
            "test_count_routes_and_transform_match_the_oracles",
            "test_analysis.py::TestNegationPairs::test_partner_rows_are_negated_representatives",
            "test_extractor.py::TestMersenneBody::test_matches_the_oracle_at_the_edges",
            "test_extractor.py::TestCKernel::test_unique64_matches_np_unique",
            "test_analysis.py::TestColumnWriter::test_edge_cells_match_the_row_oracle_as_bytes",
            "test_analysis.py::TestColumnWriter::test_a_report_longer_than_the_buffer")]
        # the child loads the cached sanitizer build, as c_build() finds it, and
        # compiles nothing; --capture=sys leaves a sanitizer report on its stderr
        code = (f"import sys, pytest; from affext import batch; batch._C_FLAGS = ({flags!r},); "
                f"assert batch.c_build().path == {str(path)!r}, batch.c_build().error; "
                f"sys.exit(pytest.main(['-q', '-x', '-p', 'no:cacheprovider', '--capture=sys', "
                f"*{tests!r}]))")
        env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path), LD_PRELOAD=asan,
                   ASAN_OPTIONS="detect_leaks=0:allocator_may_return_null=1",
                   PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=600)
        assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
        assert "12 passed" in done.stdout, done.stdout[-3000:]  # the Mersenne test runs 6 cases

    @needs_cc
    def test_failed_compile_falls_back(self, fresh_c_build, monkeypatch, tmp_path):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(batch, "_C_SOURCE", "this is not C")
        with pytest.warns(RuntimeWarning, match="failed.*using the numpy batch and count kernels"):
            assert batch.batch_route(13) == "numpy"
        assert os.listdir(tmp_path / "affext") == []  # no partial files left

    @needs_cc
    def test_built_once_into_the_cache(self, fresh_c_build, monkeypatch, tmp_path):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        first = batch.c_build()
        assert first.fn is not None, first.error
        assert first.flags in batch._C_FLAGS
        assert os.listdir(tmp_path / "affext") == [os.path.basename(first.path)]
        batch.c_build.cache_clear()
        monkeypatch.setattr(batch, "_compile", lambda *a: pytest.fail("compiled twice"))
        assert batch.c_build().path == first.path

    @needs_cc
    def test_loading_the_cached_library_starts_no_process(self, fresh_c_build, monkeypatch,
                                                          tmp_path):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert batch.c_build().fn is not None  # built into the cache the child reads
        code = ("import sys; from affext import batch; assert batch.c_build().fn is not None; "
                "print(sorted({'subprocess', 'hashlib'} & set(sys.modules)))")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run([sys.executable, "-W", "error", "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr

    def test_a_one_byte_change_of_the_key_names_a_new_library(self, monkeypatch, tmp_path):
        cc = tmp_path / "cc"
        cc.write_bytes(b"compiler")
        compiler, flags = batch._compiler_id(str(cc)), batch._C_FLAGS[0]
        name = batch._object_name(compiler, flags)
        assert name == batch._object_name(compiler, flags)
        names = {name, batch._object_name(compiler, (*flags[:-1], flags[-1][:-1] + "x"))}
        stat = cc.stat()
        os.utime(cc, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1))
        names.add(batch._object_name(batch._compiler_id(str(cc)), flags))
        cc.write_bytes(b"compilers")
        os.utime(cc, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        names.add(batch._object_name(batch._compiler_id(str(cc)), flags))
        source = batch._C_SOURCE
        monkeypatch.setattr(batch, "_C_SOURCE", source[:-1] + chr(ord(source[-1]) ^ 1))
        names.add(batch._object_name(compiler, flags))
        assert len(names) == 5

    @needs_cc
    def test_concurrent_builds_leave_one_whole_library(self, tmp_path):
        # 2**3 + 3**5 = 251 = 4 mod 13
        code = ("import numpy as np; from affext import batch; "
                "assert batch.batch_route(13) == 'c (montgomery)'; "
                "print(batch.batch_apply(np.array([[2, 3]]), (3, 5), ((1, 1),), 13)[0, 0])")
        env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path), PYTHONPATH=os.pathsep.join(sys.path))
        procs = [subprocess.Popen([sys.executable, "-W", "error", "-c", code], env=env,
                                  stdout=subprocess.PIPE, text=True) for _ in range(3)]
        try:
            outs = [proc.communicate(timeout=120)[0] for proc in procs]
        finally:
            for proc in procs:
                proc.kill()
        assert [proc.returncode for proc in procs] == [0, 0, 0]
        assert outs == ["4\n"] * 3
        assert len(os.listdir(tmp_path / "affext")) == 1  # no partial files left

    @needs_cc
    def test_scratch_allocation_failure_is_a_memory_error(self, monkeypatch):
        fn = batch.c_build().fn
        # n this large cannot be allocated: the kernel reports it, not crashes
        assert fn(None, 0, 1 << 50, None, None, 1, 13, 0, 0, 0, None) == -1
        assert fn(None, 0, 1 << 62, None, None, 1, 13, 0, 0, 0, None) == -1
        monkeypatch.setattr(batch, "c_build", lambda: batch.CBuild(fn=lambda *a: -1))
        with pytest.raises(MemoryError):
            evaluate_batch(build_spec(13, 3, 2, 1), np.zeros((4, 3), dtype=np.int64))


Q31 = 2**31 - 1  # the Mersenne prime the C kernel reduces by folding


def _edge_batch(q, n, rows=2049):
    """rows residues, the first 49 of them edge inputs 0, 1, 2, 2**16, 2**30,
    q - 2 and q - 1, each mod q: each in every column, and each pair of them
    in neighbouring columns; exponents from 2 to q - 2; and three rows of A,
    the first and the last column all q - 1."""
    rng = np.random.default_rng(n)
    edge = np.array([0, 1, 2, 2**16, 2**30, q - 2, q - 1], dtype=np.int64) % q
    xs = rng.integers(0, q, size=(rows, n), dtype=np.int64)
    cols = np.arange(n)
    for i in range(len(edge) ** 2):
        xs[i] = edge[(i + (i // len(edge) + 1) * cols) % len(edge)]
    exps = [(q - 2, 3, 2, 65537)[j] if j < 4 else int(rng.integers(2, q)) for j in range(n)]
    A = rng.integers(1, q, size=(3, n))
    A[0], A[:, -1] = q - 1, q - 1
    return xs, exps, A.tolist()


@pytest.fixture(scope="module")
def kernel_probe(tmp_path_factory):
    """The kernel source with exported wrappers around its static helpers:
    fold_probe(t) = fold31(t), width_probe(e) = window_width(e) and
    cost_probe(e, k) = window_cost(e, k)."""
    probe = tmp_path_factory.mktemp("probe") / "probe.so"
    subprocess.run(
        [batch._find_compiler(), "-O2", "-shared", "-fPIC", "-x", "c", "-", "-o", str(probe)],
        input=batch._C_SOURCE + (
            "\nuint32_t fold_probe(uint64_t t) { return fold31(t); }"
            "\nint width_probe(uint64_t e) { return window_width(e); }"
            "\nint cost_probe(uint64_t e, int k) { return window_cost(e, k); }\n"),
        text=True, check=True, timeout=120,
    )
    lib = ctypes.CDLL(str(probe))
    lib.fold_probe.restype, lib.fold_probe.argtypes = ctypes.c_uint32, [ctypes.c_uint64]
    lib.width_probe.restype, lib.width_probe.argtypes = ctypes.c_int, [ctypes.c_uint64]
    lib.cost_probe.restype = ctypes.c_int
    lib.cost_probe.argtypes = [ctypes.c_uint64, ctypes.c_int]
    return lib


class TestMersenneBody:
    """The C kernel folds products at q = 2**31 - 1 and uses Montgomery
    products at every other modulus; both agree with the python oracle."""

    @needs_cc
    @pytest.mark.parametrize("n", (1, 2, 64))
    @pytest.mark.parametrize("q, route", ((Q31, "c (mersenne)"),
                                          (2**31 - 19, "c (montgomery)")))
    def test_matches_the_oracle_at_the_edges(self, q, route, n):
        assert batch.batch_route(q) == route
        xs, exps, A = _edge_batch(q, n)
        want = batch._eval_python(xs, exps, A, q)
        for m in (1, 2, 3):  # the first m rows of A give the first m outputs
            for rows in (0, 1, 2047, 2048, 2049):  # either side of one 2,048-row chunk
                got = batch._eval_c(xs[:rows], exps, A[:m], q)
                assert got.shape == (rows, m), (m, rows)
                assert np.array_equal(got, want[:rows, :m]), (m, rows)

    @needs_cc
    def test_fold_reduces_every_input_below_2_62(self, kernel_probe):
        # fold31 is static in the kernel source, and no product of canonical
        # residues is a nonzero multiple of q, so the kernel alone cannot tell
        # r >= q from r > q; the probe reaches the fold directly.  Its range
        # ends at 2**62 - 2: 2**62 - 1 = q * (2**31 + 1) is no product of two
        # values <= q, and the one fold maps it to q
        fold = kernel_probe.fold_probe
        rng = np.random.default_rng(31)
        ts = [0, 1, Q31 - 1, Q31, Q31 + 1, 2**31, 2 * Q31 - 1, 2 * Q31, 2**32 - 1,
              (Q31 - 1) ** 2, Q31**2, 2**62 - 2]
        ts += [int(t) for t in rng.integers(0, 2**62 - 1, size=2000, dtype=np.uint64)]
        ts += [Q31 * int(c) for c in rng.integers(1, 2**31 + 1, size=200)]  # q * 2**31 < 2**62 - 2
        assert max(ts) == 2**62 - 2
        assert [fold(t) for t in ts] == [t % Q31 for t in ts]

    @needs_cc
    @pytest.mark.parametrize("q", (Q31, 2**31 - 19))
    def test_windows_match_the_oracle_at_the_exponent_edges(self, q, kernel_probe):
        exps = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 32, 33, 127,
                2**32 - 1, 2**32 + 1, 2**63 - 1, 2**63 + 1, 2**64 - 1, q - 2]
        # window_width takes e > 0; the kernel gives one for e = 0 before it
        assert {kernel_probe.width_probe(e) for e in exps if e} == {1, 2, 3}
        rng = np.random.default_rng(q)
        xs = rng.integers(0, q, size=(2049, len(exps)), dtype=np.int64)
        xs[:3] = np.array([0, 1, q - 1])[:, None]
        A = rng.integers(1, q, size=(2, len(exps))).tolist()
        want = batch._eval_python(xs, exps, A, q)
        for rows in (0, 1, 2047, 2048, 2049):
            got = batch._eval_c(xs[:rows], exps, A, q)
            assert np.array_equal(got, want[:rows]), rows

    @needs_cc
    def test_window_widths_of_the_criterion_10_spec(self, kernel_probe):
        # the widths and product count the kernel's documentation quotes
        exps = [int(d) for d in build_spec(Q31, 64, 64, 2).d]
        widths = [kernel_probe.width_probe(e) for e in exps]
        assert [widths.count(k) for k in (1, 2, 3)] == [8, 26, 30]
        assert sum(kernel_probe.cost_probe(e, k) for e, k in zip(exps, widths)) == 1625
        # against bit_length - 1 + popcount by square-and-multiply
        assert sum(e.bit_length() - 1 + bin(e).count("1") for e in exps) == 1856

    @needs_cc
    @pytest.mark.parametrize("flags", batch._C_FLAGS, ids=" ".join)
    def test_every_flag_set_builds_warning_free_and_matches_the_oracle(
            self, flags, fresh_c_build, monkeypatch, tmp_path):
        strict = (*flags, "-Wall", "-Wextra", "-Werror")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(batch, "_C_FLAGS", (strict,))
        build = batch.c_build()
        assert build.fn is not None and build.write_fn is not None, build.error
        assert build.flags == strict
        for q in (Q31, 2**31 - 19):
            xs, exps, A = _edge_batch(q, 8)
            assert np.array_equal(batch._eval_c(xs, exps, A, q),
                                  batch._eval_python(xs, exps, A, q)), (flags, q)
        # one report through this build's writer, against the python writer
        res = analysis.verify_extractor(build_spec(7, 3, 2, 1), analysis.SampledSubspaces(5, 1),
                                        checks=analysis.CHECK_ORDER, collect="full")
        assert batch.report_route() == "c"
        lines = analysis.reports_csv_lines(res)
        monkeypatch.setattr(batch, "report_route", lambda: "python (forced)")
        assert lines == analysis.reports_csv_lines(res), flags

    def test_batch_route_names_the_kernel_and_its_reduction(self, fresh_c_build, monkeypatch):
        if batch.c_build().fn is not None:
            assert [batch.batch_route(q) for q in (Q31, 2**31 - 19, 13)] == [
                "c (mersenne)", "c (montgomery)", "c (montgomery)"]
        assert [batch.batch_route(q) for q in (2, 2**31 + 11, 2**32 - 5)] == ["numpy"] * 3
        assert [batch.batch_route(q) for q in (2**32 + 15, 2**61 - 1)] == ["python"] * 2
        batch.c_build.cache_clear()
        monkeypatch.setattr(batch, "_find_compiler", lambda: None)
        with pytest.warns(RuntimeWarning, match="no C compiler"):
            assert batch.batch_route(Q31) == "numpy"


class TestSpecSerialization:
    def test_round_trip_is_byte_identical(self, tmp_path):
        spec = build_spec(31, 3, 2, 1)
        path = tmp_path / "spec.txt"
        save_spec(spec, path)
        first = path.read_bytes()
        reloaded = load_spec(path)
        save_spec(reloaded, path)
        assert path.read_bytes() == first
        assert reloaded.d.d == spec.d.d
        assert reloaded.A == spec.A
        assert reloaded.modulus == spec.modulus

    def test_comments_and_blank_lines_ignored(self):
        text = spec_to_text(build_spec(13, 3, 2, 1))
        noisy = "# header\n\n" + text + "\n# trailer\n"
        spec = spec_from_text(noisy)
        assert spec.n == 3 and spec.m == 1

    def test_missing_key_reported(self):
        text = spec_to_text(build_spec(13, 3, 2, 1))
        broken = "\n".join(
            line for line in text.splitlines() if not line.startswith("d =")
        )
        with pytest.raises(ValueError, match="missing keys: d"):
            spec_from_text(broken)

    def test_unknown_key_names_its_line(self, tmp_path):
        text = spec_to_text(build_spec(13, 3, 2, 1))  # q on line 1
        with pytest.raises(ValueError) as exc:
            spec_from_text(text + "kk = 5\n")
        assert str(exc.value) == "spec line 11 has unknown key 'kk'"
        # a non-ASCII key was dropped, and the load then missed q without naming a line
        path = tmp_path / "spec.txt"
        path.write_bytes(text.replace("q = 13", "q\xd9 = 13").encode("latin-1"))
        with pytest.raises(ValueError) as exc:
            load_spec(path)
        assert str(exc.value) == "spec line 1 has unknown key 'q\\udcd9'"

    def test_malformed_value_reported(self):
        text = spec_to_text(build_spec(13, 3, 2, 1)).replace("q = 13", "q = thirteen")
        with pytest.raises(ValueError, match="malformed"):
            spec_from_text(text)
        # each malformed value names its line and key
        text = "# comment\n" + spec_to_text(build_spec(13, 3, 2, 1))  # q on line 2
        d = text.splitlines()[7]
        for old, new, message in (
            ("q = 13", "q = thirteen", "spec line 2: malformed q value: 'thirteen'"),
            ("beta = 0.5", "beta = half", "spec line 6: malformed beta value: 'half'"),
            # beta and epsilon were read unchecked: beta = nan with epsilon = inf
            # loaded, and lcm_bound_satisfied read True
            ("beta = 0.5\nepsilon = 0.0", "beta = nan\nepsilon = inf",
             "spec line 6: malformed beta value: nan is not finite"),
            ("beta = 0.5", "beta = -inf", "spec line 6: malformed beta value: -inf is not finite"),
            ("epsilon = 0.0", "epsilon = inf",
             "spec line 7: malformed epsilon value: inf is not max(1/4 - beta/2, 0) = 0.0"),
            ("beta = 0.5", "beta = 0.25",
             "spec line 7: malformed epsilon value: 0.0 is not max(1/4 - beta/2, 0) = 0.125"),
            ("n = 3", "n = 0", "spec line 3: malformed n value: 0 is below 1"),  # not d's fault
            ("n = 3", "n = -2", "spec line 3: malformed n value: -2 is below 1"),
            (d, "d = 35,x,5",
             "spec line 8: malformed d value: not a comma-separated integer list: '35,x,5'"),
            (d, "d = 35,7", "spec line 8: malformed d value: expected 3 entries, got 2"),
            ("seed_points = 1,2,3", "seed_points = 1,,3", "spec line 9: malformed seed_points "
             "value: not a comma-separated integer list: '1,,3'"),
            ("seed_points = 1,2,3", "seed_points = 1,2,3,4",
             "spec line 9: malformed seed_points value: expected 3 entries, got 4"),
        ):
            assert old in text
            with pytest.raises(ValueError) as exc:
                spec_from_text(text.replace(old, new))
            assert str(exc.value) == message

    def test_beta_and_D_master_are_the_ones_plan_writes(self, tmp_path):
        # these loaded: D_master = 0 or 70 (0 and 70 are multiples of every d_i),
        # and beta = -5.0 with epsilon = 2.75, after which lcm_bound_satisfied
        # read true, or beta = 1e308; each is now refused, naming its line
        text = spec_to_text(build_spec(13, 3, 2, 1))  # beta = m/k = 0.5 on line 5
        for old, new, message in (
            ("D_master = 35", "D_master = 0",
             "spec line 10: malformed D_master value: 0 is not lcm(35, 7, 5) = 35"),
            ("D_master = 35", "D_master = 70",
             "spec line 10: malformed D_master value: 70 is not lcm(35, 7, 5) = 35"),
            ("lcm = 35", "lcm = 70", "spec line 9: malformed lcm value: stored lcm 70 is not "
             "lcm(35, 7, 5)"),
            ("beta = 0.5\nepsilon = 0.0", "beta = -5.0\nepsilon = 2.75",
             "spec line 5: malformed beta value: -5.0 is neither in (0, 1/2) nor m/k"),
            ("beta = 0.5", "beta = 1e308",
             "spec line 5: malformed beta value: 1e+308 is neither in (0, 1/2) nor m/k"),
            ("beta = 0.5\nepsilon = 0.0", "beta = 0.0\nepsilon = 0.25",
             "spec line 5: malformed beta value: 0.0 is neither in (0, 1/2) nor m/k"),
        ):
            assert old in text
            with pytest.raises(ValueError) as exc:
                spec_from_text(text.replace(old, new))
            assert str(exc.value) == message
        # every beta that plan writes loads: planned in (0, 1/2), or m/k up to m = k
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PlanWarning)  # the lcm bound fails at q = 13
            planned = plan_parameters(5, 4, 0.3, 13)
        for spec in (planned, build_spec(13, 3, 2, 1),
                     build_spec(13, 3, 3, 3), build_spec(31, 4, 3, 2)):
            save_spec(spec, tmp_path / "spec.txt")
            assert load_spec(tmp_path / "spec.txt") == spec

    @pytest.mark.parametrize("old, new, message", [
        ("q = 13", "q = 4", "spec line 1: malformed q value: modulus 4 is not prime"),
        ("seed_points = 1,2,3", "seed_points = 1,1,1",
         "spec line 8: malformed seed_points value: seed points must be distinct modulo q"),
        ("d = 35,7,5\nseed_points = 1,2,3\nlcm = 35\nD_master = 35",
         "d = 6,4,2\nseed_points = 1,2,3\nlcm = 12\nD_master = 12",
         "spec line 7: malformed d value: exponent 6 shares a factor with q-1=12"),
        # a rule across keys names the later key's line
        ("q = 13", "q = 3", "spec line 2: malformed n value: need n < q, got n=3, q=3"),
        ("k = 2\nm = 1\nbeta = 0.5\nepsilon = 0.0", "k = 0\nm = 1\nbeta = 0.25\nepsilon = 0.125",
         "spec line 4: malformed m value: need 1 <= m <= k <= n, got m=1, k=0, n=3"),
        ("m = 1\nbeta = 0.5", "m = 4\nbeta = 2.0",
         "spec line 4: malformed m value: need 1 <= m <= k <= n, got m=4, k=2, n=3"),
    ], ids=["q", "seed_points", "d", "n", "k", "m"])
    def test_constructor_refusals_name_their_line(self, old, new, message):
        # prime_modulus, build_matrix, ExtractorSpec and validate_exponents
        # refused these with no line
        text = spec_to_text(build_spec(13, 3, 2, 1))
        assert old in text
        with pytest.raises(ValueError) as exc:
            spec_from_text(text.replace(old, new))
        assert str(exc.value) == message

    def test_repeated_key_names_both_lines(self):
        text = spec_to_text(build_spec(13, 3, 2, 1))
        with pytest.raises(ValueError) as exc:
            spec_from_text(text + "\nq = 17\n")
        assert str(exc.value) == "spec line 12 repeats key 'q' of line 1"
        with pytest.raises(ValueError, match="^spec line 3 repeats key 'n' of line 2$"):
            spec_from_text(text.replace("k = 2", "n = 3"))

    def test_non_assignment_line_rejected(self):
        with pytest.raises(ValueError, match="line 1"):
            spec_from_text("just words\n")


class TestWithSeedPoints:
    def test_replaces_matrix_only(self):
        spec = build_spec(13, 3, 2, 2)
        other = build_spec(13, 3, 2, 2, seed_points=(5, 7, 11))
        assert other.A.seed_points == (5, 7, 11)
        assert other.d == spec.d
        assert other.modulus == spec.modulus
        assert evaluate(other, (2, 1, 1)) != evaluate(spec, (2, 1, 1))

    @settings(max_examples=20)
    @given(st.permutations(list(range(1, 6))))
    def test_any_distinct_seeding_stays_mds(self, seeds):
        assert verify_mds(build_matrix(2, 5, 13, seeds))
