"""Run manifest: what was measured, with which libraries, on which machine."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
from pathlib import Path

PINNED_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    """One BLAS thread; must run before numpy is imported."""
    for var in PINNED_ENV:
        os.environ[var] = "1"


def _git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _openblas() -> list[dict]:
    """Version and runtime thread count of every OpenBLAS loaded in this process."""
    out = []
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.split()[-1].lower()})
    except OSError:
        return out
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        info = {"library": Path(path).name}
        for prefix in ("openblas_", "scipy_openblas_"):
            for suffix in ("", "64_"):
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype = ctypes.c_int
                    config.restype = ctypes.c_char_p
                    info["threads"] = threads()
                    info["config"] = config().decode(errors="replace")
        out.append(info)
    return out


def _cpu() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = []
    for d in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            caches.append({k: (d / k).read_text().strip() for k in ("level", "type", "size")})
        except OSError:
            continue
    return {"model": model, "caches_cpu0": caches}


def manifest(root: Path, seed: int, workload: str, inputs: dict) -> dict:
    import numpy
    import scipy

    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas(),
        "blas_env": {var: os.environ.get(var) for var in PINNED_ENV},
        "nproc": os.cpu_count(),
        "cpus_allowed": affinity,
        "cpu": _cpu(),
        "seed": seed,
        "workload": workload,
        "inputs": inputs,
    }
