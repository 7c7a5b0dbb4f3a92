"""Fork-join over forked worker processes.

A worker runs one function and writes the bytes it returns into its pipe,
then leaves by ``os._exit``. The parent reads the pipes in fork order and
reaps each worker once its pipe is read. The verify suites and the CSV
writer both run their workers through :class:`Workers`.
"""

from __future__ import annotations

import os


def usable_cpus() -> int:
    """The CPUs this process may run on; 1 where ``os.fork`` is missing, so
    that callers stay in-process."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class Workers:
    """Forked workers, read in fork order. As a context manager, leaving it
    kills and reaps every worker not yet read, whether the caller returns or
    raises, so no worker outlives it."""

    def __init__(self):
        self._pending = []  # (label, pid, read end of its pipe), in fork order

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for _, pid, pipe in self._pending:
            pipe.close()
            os.kill(pid, 9)  # SIGKILL; a worker that has exited is a zombie until reaped
            os.waitpid(pid, 0)

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
