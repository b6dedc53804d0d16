"""Correctness gate: every op output against the reference.

Integer and Fraction outputs must match exactly: batch and extract values,
`processed`, `violations_*`, `max_sd_exact`, `max_sd_subspace`, the `sd`
column (the float of an exact Fraction), and the zero-coordinate rows.
Character magnitudes and the xor bound are floats from a transform whose
rounding may change between routes, so they must be within TOL of the
reference, and a reported character index must attain the maximum within
TOL (c and -c tie exactly, so which one wins is rounding noise).

Each check returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

import numpy as np

from reference import VerifyReference

TOL = 1e-9
_SHOWN = 5  # problems listed per output before the rest are summarised


def _capped(problems: list[str], label: str) -> list[str]:
    if len(problems) <= _SHOWN:
        return problems
    return problems[:_SHOWN] + [f"{label}: {len(problems) - _SHOWN} more problems"]


def check_batch(out: np.ndarray, expected: np.ndarray) -> list[str]:
    out = np.asarray(out)
    if out.shape != expected.shape:
        return [f"batch: shape {out.shape}, expected {expected.shape}"]
    bad = np.flatnonzero((out != expected).any(axis=1))
    if bad.size:
        return [f"batch: {bad.size} of {out.shape[0]} rows differ, first is row {bad[0]}"]
    return []


def check_oracle(out: np.ndarray, xs: np.ndarray, rows: np.ndarray, evaluate) -> list[str]:
    """Rows of a batch result against the scalar evaluate(x) oracle."""
    bad = [int(r) for r in rows if tuple(int(v) for v in out[r]) != tuple(evaluate(xs[r].tolist()))]
    if bad:
        return [f"batch: rows {bad} differ from the scalar oracle"]
    return []


def check_lines(lines: list[str], expected: list[str]) -> list[str]:
    problems = []
    if len(lines) != len(expected):
        problems.append(f"extract: {len(lines)} output lines, expected {len(expected)}")
    problems += [
        f"extract: line {i + 1} is {got!r}, expected {want!r}"
        for i, (got, want) in enumerate(zip(lines, expected))
        if got != want
    ]
    return _capped(problems, "extract")


def _close(text: str, want: float) -> bool:
    try:
        return abs(float(text) - want) <= TOL
    except ValueError:
        return False


def _argmax_ok(ref: VerifyReference, sid: int, text: str) -> bool:
    """text names a nontrivial character of subspace sid at its maximum."""
    try:
        c = int(text)
    except ValueError:
        return False
    mags = ref.mags[sid]
    return 0 < c < mags.size and mags[c] >= mags[1:].max() - TOL


def check_reports(lines: list[str], ref: VerifyReference) -> list[str]:
    """Rows of verify_report.csv (header first, summary comments excluded)."""
    meta = ref.meta
    checks = meta["checks"]
    m = meta["m"]
    expected_rows = meta["total"] * len(checks)
    problems = []
    if not lines or lines[0] != "check_name,subspace_id,c_encoded,quantity,bound,satisfied":
        return ["report: missing or wrong header"]
    rows = lines[1:]
    if len(rows) != expected_rows:
        problems.append(f"report: {len(rows)} rows, expected {expected_rows}")
    sd = ref.absdev / float(ref.denom)
    eps = ref.eps
    sqrt_qm = meta["q"] ** (m / 2)
    for pos, line in enumerate(rows[:expected_rows]):
        sid, check = divmod(pos, len(checks))
        name = checks[check]
        cells = line.split(",")
        if len(cells) != 6 or cells[0] != name or cells[1] != str(sid):
            problems.append(f"report row {pos + 1}: expected {name} for subspace {sid}: {line!r}")
            continue
        _, _, c, quantity, bound, satisfied = cells
        if name == "sd":
            ok = (c, bound, satisfied) == ("", "", "") and quantity == repr(float(sd[sid]))
        elif name == "char_max":
            ok = (bound, satisfied) == ("", "") and _close(quantity, eps[sid]) \
                and _argmax_ok(ref, sid, c)
        elif name == "xor":
            ref_bound = float(eps[sid]) * sqrt_qm
            verdict = float(sd[sid]) <= ref_bound + meta["tolerance"]
            ok = quantity == repr(float(sd[sid])) and _close(bound, ref_bound) \
                and satisfied == str(verdict).lower() and _argmax_ok(ref, sid, c)
        elif name == "zero_coordinate":
            w = int(ref.zworst[sid])
            ok = (c, quantity, bound, satisfied) == (
                str(int(ref.zc[sid])), str(w), str(m - 1), str(w <= m - 1).lower())
        else:  # change_of_vars and substitution_form: exact zero by the theorem
            ok = (c, quantity, bound, satisfied) == ("", "0", "0", "true")
        if not ok:
            problems.append(f"report row {pos + 1}: {line!r} does not match the reference")
    return _capped(problems, "report")


def check_summary(lines: list[str], ref: VerifyReference) -> list[str]:
    """verify_summary.txt lines ("key = value")."""
    got = [line.partition(" = ")[::2] for line in lines]
    want = ref.summary()
    if [k for k, _ in got] != [k for k, _ in want]:
        return [f"summary: keys {[k for k, _ in got]}, expected {[k for k, _ in want]}"]
    values = dict(got)
    problems = []
    for key, value in want:
        if key == "max_char_magnitude":
            ok = _close(values[key], float(ref.eps.max()))
        elif key == "max_char_magnitude_subspace":
            ok = values[key].isdigit() and int(values[key]) < ref.eps.size \
                and ref.eps[int(values[key])] >= ref.eps.max() - TOL
        elif key == "max_char_magnitude_c":
            sid = values["max_char_magnitude_subspace"]
            ok = sid.isdigit() and int(sid) < ref.eps.size and _argmax_ok(ref, int(sid), values[key])
        else:
            ok = values[key] == value
        if not ok:
            problems.append(f"summary: {key} = {values[key]}, expected {value}")
    return problems


def check_verify(report_text: str, summary_text: str, ref: VerifyReference) -> list[str]:
    """Both files `affext verify --report-dir` writes."""
    lines = report_text.splitlines()
    body = [line for line in lines if not line.startswith("# ")]
    comments = [line[2:] for line in lines if line.startswith("# ")]
    summary = summary_text.splitlines()
    problems = check_reports(body, ref) + check_summary(summary, ref)
    if comments != summary:
        problems.append("report: trailing summary comments differ from verify_summary.txt")
    return problems
