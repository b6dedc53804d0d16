"""The workloads, and the seeded inputs and reference outputs for each.

Every input comes from the run's --seed; the program sees only the files
written here (spec, vectors, rows) and, for `sampled_all`, a --seed value
drawn from the same stream.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

import reference

SWEEP_CHECKS = "sd,char_max,xor,zero_coordinate"  # the CLI default, pinned
ALL_CHECKS = "sd,char_max,xor,zero_coordinate,change_of_vars,substitution_form"
TOLERANCE = 1e-6  # the CLI default, pinned: it is printed in the summary
ORACLE_ROWS = 16  # batch rows per op checked against the scalar evaluate


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "batch", "verify" or "extract"
    q: int
    n: int
    k: int
    m: int
    size: int = 0  # rows per evaluate_batch call, or input lines to extract
    sample: int = 0  # seeded subspaces; 0 sweeps every subspace
    checks: str = SWEEP_CHECKS


Q31 = 2**31 - 1

WORKLOADS = {
    w.name: w
    for w in (
        Workload("batch_q31", "batch", Q31, 64, 64, 2, size=65_536),
        Workload("sweep_m1", "verify", 31, 3, 2, 1),
        Workload("sweep_m2", "verify", 17, 3, 2, 2),
        Workload("sampled_all", "verify", 13, 4, 2, 1, sample=500, checks=ALL_CHECKS),
        Workload("extract_q31", "extract", Q31, 64, 64, 2, size=5_000),
    )
}

# The same workloads on tiny shapes, for the self-test.
SMOKE = {
    w.name: w
    for w in (
        Workload("batch_q31", "batch", Q31, 8, 8, 2, size=512),
        Workload("sweep_m1", "verify", 7, 3, 2, 1),
        Workload("sweep_m2", "verify", 5, 3, 2, 2),
        Workload("sampled_all", "verify", 7, 3, 2, 1, sample=20, checks=ALL_CHECKS),
        Workload("extract_q31", "extract", Q31, 8, 8, 2, size=100),
    )
}


def prepare(wl: Workload, seed: int, work: str) -> dict:
    """Write the inputs and reference of one run into `work`; return the job
    description the worker processes read."""
    from affext import build_spec, save_spec
    from affext.subspace import random_subspace

    index = list(WORKLOADS).index(wl.name)
    rng = np.random.default_rng([seed, index])
    seed_points = (rng.choice(wl.q - 1, size=wl.n, replace=False) + 1).tolist()
    spec_file = os.path.join(work, "spec.txt")
    save_spec(build_spec(wl.q, wl.n, wl.k, wl.m, seed_points=seed_points), spec_file)
    with open(spec_file, encoding="ascii") as fh:
        params = reference.parse_spec(fh.read())
    job = {"workload": wl.name, "kind": wl.kind, "spec_file": spec_file}

    if wl.kind in ("batch", "extract"):
        xs = rng.integers(0, wl.q, size=(wl.size, wl.n), dtype=np.int64)
        expected = reference.apply_map(xs, params)
        job["items"] = wl.size
    if wl.kind == "batch":
        job.update(
            build=[wl.q, wl.n, wl.k, wl.m, seed_points],
            warmup_seed=int(rng.integers(2**63)),
            rows=os.path.join(work, "rows.npy"),
            expected=os.path.join(work, "expected.npy"),
            oracle_rows=rng.choice(wl.size, size=min(ORACLE_ROWS, wl.size), replace=False).tolist(),
        )
        np.save(job["rows"], xs)
        np.save(job["expected"], expected)
    elif wl.kind == "extract":
        vectors = os.path.join(work, "vectors.txt")
        with open(vectors, "w", encoding="ascii") as fh:
            fh.write("\n".join(reference.format_lines(xs)) + "\n")
        job["expected"] = os.path.join(work, "expected.txt")
        with open(job["expected"], "w", encoding="ascii") as fh:
            fh.write("\n".join(reference.format_lines(expected)) + "\n")
        job["argv"] = ["extract", "--spec-file", spec_file, "--input", vectors,
                       "--output", "{out}"]
    else:
        checks = wl.checks.split(",")
        argv = ["verify", "--spec-file", spec_file]
        if wl.sample:
            sample_seed = int(rng.integers(2**31))
            subspaces = [
                (V.pivots, V.basis, V.offset)
                for V in (random_subspace(wl.n, wl.k, wl.q, seed=sample_seed + i)
                          for i in range(wl.sample))
            ]
            label = f"sample:{wl.sample}:seed:{sample_seed}"
            ref = reference.sampled_reference(params, subspaces, label, checks, TOLERANCE)
            argv += ["--sample", str(wl.sample), "--seed", str(sample_seed)]
        else:
            ref = reference.exhaustive_reference(params, checks, TOLERANCE)
            argv += ["--exhaustive"]
        argv += ["--checks", wl.checks, "--tolerance", repr(TOLERANCE), "--report-dir", "{out}"]
        job["reference"] = os.path.join(work, "reference.npz")
        ref.save(job["reference"])
        job["argv"] = argv
        job["items"] = ref.meta["total"]

    job_file = os.path.join(work, "job.json")
    with open(job_file, "w", encoding="ascii") as fh:
        json.dump(job, fh)
    return job
