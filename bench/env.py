"""Environment pinning, program import and the environment record.

Standard library only: ``pin()`` must run before NumPy is imported, because
BLAS and OpenMP read their thread counts once, at load time.
"""

from __future__ import annotations

import hashlib
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# one worker thread everywhere: the benchmark is a single closed-loop client
PINNED = {
    "TABLEMECH_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


class ProgramMissing(RuntimeError):
    """The checkout has no ``src/tablemech`` to benchmark."""


def pin() -> None:
    os.environ.update(PINNED)


def import_program():
    """Import ``tablemech`` from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "tablemech" / "__init__.py").is_file():
        raise ProgramMissing(f"no tablemech package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import tablemech

    if Path(tablemech.__file__).resolve().parent != SRC / "tablemech":
        raise ProgramMissing(f"tablemech was imported from {tablemech.__file__}")
    return tablemech


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git (None if absent)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    """SHA-256 over the package sources, so checkouts without .git are told apart."""
    h = hashlib.sha256()
    for path in sorted((SRC / "tablemech").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def record(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "workload_seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "source_digest": _source_digest(),
        "pinned_env": {k: os.environ.get(k) for k in PINNED},
    }
