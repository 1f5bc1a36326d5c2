"""What the benchmark records about the machine and the process."""

import ctypes
import os
import platform
from importlib import metadata
from pathlib import Path

import numpy as np

from tracing import MATVEC_BYTES_PER_NNZ, MATVEC_BYTES_PER_ROW

CPU_DIR = Path("/sys/devices/system/cpu")
BLAS_THREAD_QUERIES = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads")


def _version(package):
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def _blas_library():
    """Path of the OpenBLAS library loaded into this process, if any."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            for line in maps:
                path = line.split()[-1]
                if "openblas" in path.lower():
                    return path
    except OSError:
        pass
    return None


def _blas_threads():
    path = _blas_library()
    if path is None:
        return None
    lib = ctypes.CDLL(path)
    for symbol in BLAS_THREAD_QUERIES:
        query = getattr(lib, symbol, None)
        if query is not None:
            query.restype = ctypes.c_int
            query.argtypes = []
            return query()
    return None


def _caches():
    """Size of one cache per level and the number of such caches, as the
    kernel reports them in sysfs."""
    caches = {}
    for index in sorted(CPU_DIR.glob("cpu[0-9]*/cache/index[0-9]*")):
        try:
            level, kind, size, shared = ((index / leaf).read_text().strip() for leaf in
                                         ("level", "type", "size", "shared_cpu_list"))
        except OSError:
            continue
        label = f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")
        caches.setdefault(label, {"size": size, "shared_by": set()})["shared_by"].add(shared)
    return {label: {"size": entry["size"], "instances": len(entry["shared_by"])}
            for label, entry in caches.items()}


def describe():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": _version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "caches": _caches(),
    }


def matrix_record(nnz_dim):
    """Size and computed bytes per matvec of the largest system, if any."""
    if nnz_dim is None:
        return None
    nnz, dim = nnz_dim
    return {"nnz": nnz, "dim": dim,
            "matvec_bytes_computed": MATVEC_BYTES_PER_NNZ * nnz + MATVEC_BYTES_PER_ROW * dim}
