"""Facts about the machine and libraries that a benchmark result depends on.

Reads only /proc/self, for the loaded BLAS libraries and the thread count,
and asks glibc's sysconf for the cache sizes.  Sets no environment variable
and changes no BLAS setting.
"""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path


def thread_count() -> int:
    """Threads of this process right now (main thread included)."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("Threads:"):
            return int(line.split()[1])
    return -1


def _blas_libraries() -> list[dict]:
    """Every OpenBLAS copy mapped into this process, with its thread pool
    size.  numpy and scipy wheels each bundle one."""
    paths = sorted({line.split()[-1] for line in
                    Path("/proc/self/maps").read_text().splitlines()
                    if "openblas" in line.lower() and "/" in line})
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)  # already loaded: returns the same handle
        entry = {"library": Path(path).name}
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}",
                                      None)
                get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if get_threads is None or get_config is None:
                    continue
                get_threads.restype = ctypes.c_int
                get_config.restype = ctypes.c_char_p
                entry["threads"] = get_threads()
                entry["config"] = get_config().decode()
                break
            if "threads" in entry:
                break
        found.append(entry)
    return found


# glibc's sysconf names _SC_LEVEL{2,3,4}_CACHE_SIZE; answered from cpuid
_SC_CACHE_SIZE = {4: 197, 3: 194, 2: 191}


def _last_level_cache() -> str:
    sysconf = ctypes.CDLL(None).sysconf
    sysconf.restype = ctypes.c_long
    for level, name in _SC_CACHE_SIZE.items():
        size = sysconf(name)
        if size > 0:
            return f"L{level} {size // 1024} KiB"
    return "unknown"


def machine_facts(workers: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_libraries(),
        "last_level_cache": _last_level_cache(),
        "threads_after_import": thread_count(),
        "workers": workers,
    }
