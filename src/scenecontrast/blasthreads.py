"""Cap the thread count of numpy's bundled OpenBLAS for a block of code.

numpy's wheels bundle OpenBLAS under ``numpy.libs``; opening that file
through ctypes returns the handle the process already holds, whose
``scipy_openblas_{set,get}_num_threads64_`` change and read the count.
The cap is process-wide: every thread's BLAS calls see it while the block
runs.  With another BLAS the cap does nothing and says so once on stderr.
"""

from __future__ import annotations

import ctypes
import functools
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

_GET = "scipy_openblas_get_num_threads64_"
_SET = "scipy_openblas_set_num_threads64_"


@functools.cache
def _openblas():
    """The (get, set) thread-count functions of numpy's OpenBLAS, or None."""
    for path in sorted(Path(np.__file__).parent.with_name("numpy.libs").glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        if hasattr(lib, _GET) and hasattr(lib, _SET):
            get, set_ = getattr(lib, _GET), getattr(lib, _SET)
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    print("note: numpy's OpenBLAS not found; BLAS threads are not capped", file=sys.stderr)
    return None


@contextmanager
def blas_threads(n: int):
    """Run the block with at most ``n`` BLAS threads, then restore the count."""
    found = _openblas()
    if found is None:
        yield
        return
    get, set_ = found
    before = get()
    set_(min(n, before))
    try:
        yield
    finally:
        set_(before)
