"""The suite runs at one OpenBLAS thread, as the CLI does, unless
OPENBLAS_NUM_THREADS or OMP_NUM_THREADS is set: this file sets the first
itself when neither is set.  It is loaded before any test module imports
numpy, and the subprocesses the tests start inherit the setting."""

import os

if "OPENBLAS_NUM_THREADS" not in os.environ and "OMP_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
