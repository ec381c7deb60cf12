"""Paths and the process environment the benchmark fixes.

Kept free of heavy imports: :func:`prepare` must run before NumPy is
first loaded, because the BLAS libraries read their thread-count
variables once, at load time.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Scratch space of a run (fixtures, spools, run dirs, TMPDIR, the
#: compiled-kernel cache); ignored by git, safe to delete.
WORK = HERE / ".work"
OUT = HERE / "out"

#: BLAS threading is pinned for the generator and every process it
#: spawns; unpinned, identical runs on a 2-core box drift by 20 %.
PINNED_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def prepare() -> None:
    """Fix the environment of this process and all its children."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(
            f"benchmarks.e2e: {src} holds no repro package; the benchmark"
            " runs the program from the checkout it lives in"
        )
    for var in PINNED_ENV:
        os.environ[var] = "1"
    # Nothing may be written outside the checkout: temp files and the
    # cffi build cache of the cnative kernel go under the work dir.
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(WORK / "tmp")
    os.environ["REPRO_CNATIVE_CACHE"] = str(WORK / "cnative")
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(src), str(ROOT)] + ([inherited] if inherited else [])
    )
    sys.path.insert(0, str(src))
