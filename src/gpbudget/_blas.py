"""numpy's bundled OpenBLAS held at one thread while a run works.

numpy and scipy wheels each bundle an OpenBLAS with a thread pool of its
own: numpy's runs the matmuls and dots, scipy's runs LAPACK (``eigh``,
Cholesky). With both pools at the core count, one pool's idle workers hold
the cores while the other pool runs. On a 2-core Xeon one design's
``ImseOperator.imse_scaled`` (fbm, n = 200, 4000 nodes, 12 scales) took a
median 75-81 ms with both pools at two threads and 46-51 ms with numpy's at
one. ``one_numpy_thread`` holds numpy's pool at one thread and leaves scipy's
LAPACK its threads: a 2000 x 2000 eigenvalues-only ``eigh`` took 0.51-0.53 s
at two threads and 0.79-0.83 s at one. It does nothing when only one OpenBLAS is loaded (numpy and
scipy then share one pool) or when numpy's exports no thread-count functions.

The loaded libraries are read from ``/proc/self/maps`` once, on first use,
never at import; gpbudget imports ``scipy.linalg``, so by then both are
mapped. Standard library only.
"""

from __future__ import annotations

import ctypes
import functools
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class _Openblas:
    """One loaded OpenBLAS: its file name and, when it exports them, its
    thread-count getter and setter; ``numpy`` marks numpy's bundled build."""

    library: str
    get_threads: Callable[[], int] | None
    set_threads: Callable[[int], None] | None
    numpy: bool


def _thread_functions(lib: ctypes.CDLL) -> tuple:
    """(getter, setter, is numpy's build) of one library; numpy's bundled
    build exports the ``scipy_openblas_*64_`` names, scipy's the unsuffixed
    ``scipy_openblas_*`` and a system build ``openblas_*``."""
    for prefix, suffix in (("scipy_", "64_"), ("scipy_", ""), ("", "64_"), ("", "")):
        get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
        set_ = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_, (prefix, suffix) == ("scipy_", "64_")
    return None, None, False


@functools.cache
def _loaded() -> tuple[_Openblas, ...]:
    """Each OpenBLAS mapped into this process, looked up on the first call."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return ()
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        found.append(_Openblas(Path(path).name, *_thread_functions(lib)))
    return tuple(found)


def _numpy_pool() -> _Openblas | None:
    """numpy's bundled OpenBLAS when a second OpenBLAS is loaded beside it."""
    libs = _loaded()
    own = [lib for lib in libs if lib.numpy]
    return own[0] if own and len(libs) > 1 else None


@contextmanager
def one_numpy_thread():
    """Hold numpy's bundled OpenBLAS at one thread inside the block and restore
    its count on leaving it, also on an exception; nested use restores each
    level's count. A no-op unless a second OpenBLAS is loaded."""
    lib = _numpy_pool()
    if lib is None:
        yield
        return
    old = lib.get_threads()
    lib.set_threads(1)
    try:
        yield
    finally:
        lib.set_threads(old)


def openblas_report() -> list[dict]:
    """Each loaded OpenBLAS: its file name, its thread count now (None when it
    exports no getter) and whether ``one_numpy_thread`` holds it at one thread."""
    held = _numpy_pool()
    return [
        {"library": lib.library,
         "threads": lib.get_threads() if lib.get_threads else None,
         "held_at_one_thread": lib == held}
        for lib in _loaded()
    ]
