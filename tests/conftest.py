"""The suite runs with the console script's BLAS default: one OpenBLAS thread
unless OPENBLAS_NUM_THREADS or OMP_NUM_THREADS is set.  This file is loaded
before any test module imports numpy, and the subprocesses the tests start
inherit the setting."""

from execlab.__main__ import default_blas_threads

default_blas_threads()
