"""The environment block written with every result."""

from __future__ import annotations

import ctypes
import importlib.util
import os
import platform
import shutil
import subprocess


def _first_line(cmd: list[str], cwd: str | None = None) -> str | None:
    if shutil.which(cmd[0]) is None:
        return None
    try:
        done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = done.stdout.splitlines()
    return lines[0].strip() if done.returncode == 0 and lines else None


def _cpu_flags() -> dict[str, bool]:
    flags: set[str] = set()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("flags"):
                    flags = set(line.split(":", 1)[1].split())
                    break
    except OSError:
        pass
    return {flag: flag in flags for flag in ("avx2", "avx512f")}


def _blas(worker_env: dict) -> dict:
    """BLAS numpy links, the thread settings the workers get, and the thread
    count the library picks by default (read in this process, which does
    not get those settings)."""
    import numpy as np

    info: dict = {"worker_env": worker_env}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError, AttributeError):
        pass
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["default_threads"] = fn()
                return info
    return info


def _kernel(q: int) -> dict:
    """Which batch kernel `auto` picks for modulus q, and why."""
    try:
        from affext import batch

        chosen = batch.pick_impl(q, "auto")
    except (ImportError, AttributeError, ValueError) as exc:
        return {"kernel": None, "why": f"pick_impl unavailable: {exc}"}
    have_numba = importlib.util.find_spec("numba") is not None
    if chosen == "numba":
        why = "numba present and q is odd and below 2**31"
    elif not have_numba:
        why = "numba is not installed, so auto falls back from the numba kernel"
    else:
        why = f"q = {q} is outside the numba kernel's range"
    return {"kernel": chosen, "why": why}


def environment(root: str, workloads, worker_env: dict) -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(worker_env),
        "kernels": {w.name: _kernel(w.q) for w in workloads},
        "compiler": _first_line(["gcc", "--version"]) or _first_line(["cc", "--version"]),
        "numba": importlib.util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_flags": _cpu_flags(),
        "machine": platform.machine(),
        "git_commit": _first_line(["git", "rev-parse", "HEAD"], cwd=root)
        if os.path.isdir(os.path.join(root, ".git")) else None,
    }
