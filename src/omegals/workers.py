"""Fork-join over forked worker processes.

A worker runs one function and writes the bytes it returns into its pipe,
then leaves by ``os._exit``. The parent reads the pipes in fork order and
reaps each worker once its pipe is read. The verify suites and the CSV
writer both run their workers through :class:`Workers`, which runs the
caller and every worker on one thread of NumPy's OpenBLAS.
"""

from __future__ import annotations

import ctypes
import os
from functools import cache
from pathlib import Path

import numpy as np


def usable_cpus() -> int:
    """The CPUs this process may run on; 1 where ``os.fork`` is missing, so
    that callers stay in-process."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@cache
def _blas_thread_control():
    """(get, set) of the thread count of NumPy's own OpenBLAS, the functions
    ``openblas_get_num_threads``/``openblas_set_num_threads`` under the
    names of its 64-bit builds (``scipy_openblas`` or ``openblas`` prefix,
    ``64_`` suffix), or None where NumPy ships no such library."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*"))
    for path in libs:
        lib = ctypes.CDLL(str(path))
        for prefix in ("scipy_openblas", "openblas"):
            get = getattr(lib, f"{prefix}_get_num_threads64_", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads64_", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


def pins_blas_threads() -> bool:
    """Whether :class:`Workers` can run its processes on one BLAS thread.
    Where it cannot, work that calls BLAS in every process (the blocks of
    solutions.csv) stays in-process, since the threads of each process
    spin for the same cores."""
    return _blas_thread_control() is not None


class Workers:
    """Forked workers, read in fork order. As a context manager it sets
    NumPy's OpenBLAS to one thread on entry, so the caller and every worker
    it forks (which inherit the setting) each compute on one core; leaving
    it kills and reaps every worker not yet read and then restores the
    caller's thread count, whether the caller returns or raises, so no
    worker outlives it."""

    def __init__(self):
        self._pending = []  # (label, pid, read end of its pipe), in fork order
        self._restore = None  # (set, the caller's BLAS thread count), applied on exit

    def __enter__(self):
        control = _blas_thread_control()
        if control is not None:
            get, set_ = control
            self._restore = set_, get()
            set_(1)
        return self

    def __exit__(self, *exc):
        try:
            for _, pid, pipe in self._pending:
                pipe.close()
                os.kill(pid, 9)  # SIGKILL; a worker that has exited is a zombie until reaped
                os.waitpid(pid, 0)
        finally:
            if self._restore is not None:
                set_, threads = self._restore
                set_(threads)

    def fork(self, label: str, work, *args) -> None:
        """Fork a worker that writes ``work(*args)``, a bytes object, into
        its pipe and exits with status 0, or with status 1 if ``work``
        raises. ``label`` names the worker in the error of :meth:`pipes`."""
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                data = work(*args)
                with os.fdopen(write_fd, "wb") as pipe:
                    pipe.write(data)
                status = 0
            finally:
                os._exit(status)
        os.close(write_fd)
        self._pending.append((label, pid, os.fdopen(read_fd, "rb")))

    def pipes(self):
        """Yield the read end of each worker's pipe in fork order. Once the
        caller has read it and asks for the next, the worker is reaped, and
        one that did not exit with status 0 raises a RuntimeError naming
        it, its pid and its exit code."""
        while self._pending:
            label, pid, pipe = self._pending[0]
            yield pipe
            _, status = os.waitpid(pid, 0)
            self._pending.pop(0)
            pipe.close()
            code = os.waitstatus_to_exitcode(status)
            if code:
                raise RuntimeError(f"{label} (pid {pid}) died without a result, "
                                   f"exit code {code}")
