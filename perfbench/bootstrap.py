"""Process set-up shared by the benchmark's entry scripts.

Call :func:`prepare` before anything imports numpy: it pins every BLAS and
OpenMP pool to one thread (the benchmark is a plain single-threaded baseline;
`power_sweep` adds parallelism only through its two pool workers) and puts the
checkout's own ``src/`` first on the import path, so the code measured is the
code in this checkout and never an installed copy.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class MissingSourceError(RuntimeError):
    """The checkout has no ``src/isacbeam`` package to measure."""


def prepare() -> None:
    """Pin thread pools to one thread and import isacbeam from ``src/``."""
    if "numpy" in sys.modules:
        raise RuntimeError("prepare() must run before numpy is imported")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "isacbeam" / "__init__.py").is_file():
        raise MissingSourceError(f"no isacbeam package under {SRC}")
    sys.path.insert(0, str(SRC))
    # Forked pool workers and the set-up probes inherit the path this way.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
    )


def check_imported_from_source() -> None:
    """Refuse to measure an isacbeam that was not imported from ``src/``."""
    import isacbeam

    where = Path(isacbeam.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise MissingSourceError(f"isacbeam imported from {where}, not from {SRC}")
