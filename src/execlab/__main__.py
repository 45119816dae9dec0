"""Entry point of the `execlab` console script (and of `python -m execlab`).

Training multiplies many small matrices, for which one OpenBLAS thread is
faster than two and leaves the other CPUs to concurrent runs.  OpenBLAS
reads its thread count once, when numpy is first imported, so the default is
set here, before `execlab.cli` (and with it numpy) is imported.  A user's
OPENBLAS_NUM_THREADS or OMP_NUM_THREADS is left as it is, and importing
execlab as a library changes no environment.
"""

from __future__ import annotations

import os
import sys


def default_blas_threads() -> None:
    """One OpenBLAS thread unless the user has chosen a thread count."""
    if "OPENBLAS_NUM_THREADS" not in os.environ and "OMP_NUM_THREADS" not in os.environ:
        os.environ["OPENBLAS_NUM_THREADS"] = "1"


def main(argv: list[str] | None = None) -> int:
    default_blas_threads()
    from .cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
