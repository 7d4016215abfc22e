"""Kernel backend selection.

The RNG and eigensolver kernels are written once, in numba-compatible numpy,
and wrapped with ``@numba.njit`` unless the ``ENSAD_NUMBA`` environment
variable disables it (``0``/``false``/``off``/``no``) or numba is not
importable.  Both paths run the same source, so results agree to
floating-point noise and the pure numpy path stays usable on machines
without a working JIT.  The batched adapter kernels are plain numpy.

The flag is read once at import time; flipping it mid-process has no effect.
"""

from __future__ import annotations

import os


def _numba_requested() -> bool:
    raw = os.environ.get("ENSAD_NUMBA", "1").strip().lower()
    return raw not in ("0", "false", "off", "no")


_numba = None
if _numba_requested():
    try:
        import numba as _numba
    except ImportError:
        _numba = None

NUMBA_ENABLED = _numba is not None


def jit(func):
    """Compile ``func`` with numba when enabled, otherwise return it as-is."""
    if _numba is None:
        return func
    return _numba.njit(cache=True, fastmath=False)(func)


def python_impl(func):
    """Return the uncompiled CPython implementation behind a kernel."""
    return getattr(func, "py_func", func)


def set_thread_cap(n: int) -> None:
    """Cap numba's worker threads. No-op on the pure numpy path.

    Kernels here are single-threaded either way, so this cannot change
    results; it only keeps the process from oversubscribing a shared box.
    """
    if _numba is None:
        return
    try:
        _numba.set_num_threads(max(1, min(int(n), _numba.config.NUMBA_NUM_THREADS)))
    except ValueError:
        pass
