"""Pin BLAS threading and record the environment a run was measured in.

`pin_blas_threads` must run before numpy is imported: OpenBLAS reads its
thread count once, when the library loads. The thread count recorded in
a result is the one the loaded library reports, not the requested one.
"""

from __future__ import annotations

import ctypes
import os
import platform

PINNED_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_GET_THREADS = (
    "openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "scipy_openblas_get_num_threads64_",
)


def pin_blas_threads():
    for var in _THREAD_VARS:
        os.environ[var] = str(PINNED_THREADS)


def _loaded_openblas():
    """Paths of the OpenBLAS builds mapped into this process (Linux only)."""
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            fields = [line.split() for line in fh]
    except OSError:
        return []
    return sorted({f[-1] for f in fields
                   if len(f) >= 6 and f[-1].startswith("/")
                   and "openblas" in os.path.basename(f[-1]).lower()})


def blas_threads_in_force():
    """{library file: thread count it reports} for every loaded OpenBLAS."""
    out = {}
    for path in _loaded_openblas():
        lib = ctypes.CDLL(path)
        for symbol in _GET_THREADS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                out[os.path.basename(path)] = int(fn())
                break
    return out


def describe(load_start):
    """Environment record; call at the end of a run so load covers it."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "blas_threads_in_force": blas_threads_in_force(),
        "thread_env": {v: os.environ.get(v) for v in _THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
    }


def threads_pinned(env):
    """False when a loaded BLAS reports more threads than were pinned."""
    return all(n == PINNED_THREADS for n in env["blas_threads_in_force"].values())
