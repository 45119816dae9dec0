"""The BLAS-thread rule of execlab, in one place: one OpenBLAS thread unless
OPENBLAS_NUM_THREADS or OMP_NUM_THREADS is set, which for the many small
matrix products of training is faster than two and leaves the other CPUs to
concurrent runs (README, "Training cost and BLAS threads").  `cli.main` runs
every command under `one_blas_thread`, and `ppo.trainer.train_policy` runs
under it for library callers.  Importing this module changes nothing.
"""

import contextlib
import ctypes
import functools
import os
from pathlib import Path

# (get, set) names of the thread count in the builds of OpenBLAS numpy ships with.
_OPENBLAS_THREADS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def openblas_threads():
    """(get, set) of the thread count of the OpenBLAS that numpy loaded, or
    None when no loaded library has both.  The answer is cached, so the
    first call must come after numpy is imported."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREADS:
            getter, setter = getattr(handle, get_name, None), getattr(handle, set_name, None)
            if getter is not None and setter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                return getter, setter
    return None


@contextlib.contextmanager
def one_blas_thread():
    """The BLAS rule for the length of the block: one OpenBLAS thread unless
    OPENBLAS_NUM_THREADS or OMP_NUM_THREADS is set.  The caller's count is
    restored on exit; without a setter nothing changes.  Yields whether one
    thread is in force."""
    control = openblas_threads()
    if control is None:
        yield False
        return
    get, set_threads = control
    before = get()
    if "OPENBLAS_NUM_THREADS" not in os.environ and "OMP_NUM_THREADS" not in os.environ:
        set_threads(1)
    try:
        yield get() == 1
    finally:
        if get() != before:
            set_threads(before)
