"""Numpy's bundled OpenBLAS, held to one thread inside a block.

The package's numpy products are many and mid-sized. On a shared two-core
machine one that reaches OpenBLAS's default two threads can wait about 8 ms
for the second thread, many times the product itself; one thread gives the
same bits.
"""

import contextlib
import ctypes
import functools
from pathlib import Path

import numpy as np

# (get, set) thread-count pairs, newest numpy wheels first
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _openblas():
    """The thread-count (get, set) of the OpenBLAS in numpy's wheel, or None.

    The wheel keeps it in ``numpy.libs/`` next to the package (Linux,
    Windows) or in ``numpy/.dylibs/`` (macOS); ``ctypes.CDLL`` returns the
    copy numpy has already loaded.
    """
    package = Path(np.__file__).parent
    for path in [*package.with_name("numpy.libs").glob("*openblas*"),
                 *(package / ".dylibs").glob("*openblas*")]:
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for get, set_ in _SYMBOLS:
            if hasattr(lib, get) and hasattr(lib, set_):
                get, set_ = getattr(lib, get), getattr(lib, set_)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with numpy's OpenBLAS on one thread, then restore its count.

    Without a bundled OpenBLAS (MKL, Accelerate, a system BLAS) the block
    runs unchanged. Results never depend on the thread count, only speed
    does. Not thread-safe: when two Python threads are inside the block at
    once, the later exit may restore the count the other one set.
    """
    openblas = _openblas()
    if openblas is None:
        yield
        return
    get, set_ = openblas
    previous = get()
    set_(1)
    try:
        yield
    finally:
        set_(previous)
