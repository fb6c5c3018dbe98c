"""Process set-up shared by the benchmark scripts.

Import this module before numpy: `pin_blas_threads` only takes effect when it
runs before the BLAS library is loaded.
"""

from __future__ import annotations

import hashlib
import os
import platform
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
PROBE_WORK_DIR = WORK_DIR / "probe"  # the set-up probes' own files
OUT_DIR = ROOT / ".bench_out"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads(environ=os.environ) -> None:
    """One BLAS thread: every workload is one caller in one thread."""
    for var in BLAS_THREAD_VARS:
        environ[var] = "1"


def child_env() -> dict[str, str]:
    """Environment for a fresh interpreter that imports entlap from this checkout."""
    env = dict(os.environ)
    pin_blas_threads(env)
    env["PYTHONPATH"] = str(SRC)
    return env


def import_entlap():
    """Import entlap from this checkout's `src`, never from an installed copy."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import entlap

    where = Path(entlap.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"entlap imported from {where}, not from {SRC}")
    return entlap


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """sha256 over src/entlap/*.py, which identifies the code measured even without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "entlap").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(workload: str, seed: int) -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    uname = platform.uname()
    return {
        "workload": workload,
        "seed": seed,
        "commit": _git_commit(),
        "src_sha256": source_digest(),
        "machine": f"{uname.system} {uname.release} {uname.machine}",
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }
