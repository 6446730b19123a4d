"""Run a list of work units in forked worker processes.

``map_chunks(work, units, jobs)`` returns ``[work(u) for u in units]``.  With
more than one chunk it splits the units into contiguous chunks, runs the first
itself and forks one worker per other chunk.  A forked worker inherits
``work`` and everything it closes over (a lexicon, a pose-set writer), so
nothing but each unit's result travels back, pickled over a pipe.  Results
come back in unit order, so the outcome is the serial one whenever each unit's
work depends only on the unit.

Workers are made with ``os.fork`` and ``os.pipe``, which start no helper
thread in the caller.  ``multiprocessing`` would do the same job, but
importing it (with ``socket``, ``selectors`` and ``subprocess``) costs 12-16 ms
and 1.2 MB of resident memory in every process that forks.
"""

from __future__ import annotations

import os
import pickle
import signal
from contextlib import suppress
from typing import BinaryIO, Callable, Sequence, TypeVar

U = TypeVar("U")
R = TypeVar("R")


def worker_count(jobs: int, n_units: int) -> int:
    """Processes used for ``n_units`` units at ``--jobs jobs``: never more than
    the units or the CPUs."""
    return max(1, min(jobs, n_units, os.cpu_count() or 1))


def _fork(work: Callable[[U], R], chunk: Sequence[U]) -> tuple[int, BinaryIO]:
    """Fork a worker that runs ``chunk`` and pickles its reply, the results or
    the error that stopped it, into a pipe; return its pid and the read end."""
    receive, send = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(receive)
        os.close(send)
        raise
    if pid == 0:  # the worker leaves through os._exit only, never into the caller's frames
        code = 1
        try:
            os.close(receive)
            try:
                reply = [work(unit) for unit in chunk]
            except Exception as exc:  # sent to the caller, which raises it
                reply = exc
            with open(send, "wb") as fh:
                pickle.dump(reply, fh)
            code = 0
        finally:
            os._exit(code)  # and no flush of stdio buffers copied from the caller
    os.close(send)  # the worker holds the only write end: its exit is EOF here
    return pid, open(receive, "rb")


def map_chunks(work: Callable[[U], R], units: Sequence[U], jobs: int) -> list[R]:
    """``[work(u) for u in units]``, in at most ``jobs`` processes.

    The units are split into ``worker_count`` contiguous chunks; chunk 0 runs
    here and each other chunk in a worker forked for it.  A chunk stops at its
    first error, and the error of the lowest failing chunk is raised: the one
    the serial run would raise.  A worker that exits without replying is a
    ChildProcessError.  Every worker has been reaped when this returns or
    raises; after an error the ones still running are killed first.
    """
    n = worker_count(jobs, len(units))
    bounds = [len(units) * k // n for k in range(n + 1)]  # one chunk: no fork
    workers: dict[int, BinaryIO] = {}  # pid -> read end, for workers not yet reaped
    try:
        for start, stop in zip(bounds[1:], bounds[2:]):
            pid, reader = _fork(work, units[start:stop])
            workers[pid] = reader
        results = [work(unit) for unit in units[: bounds[1]]]
        for pid in list(workers):  # in chunk order
            with workers[pid] as reader:
                reply = reader.read()  # to EOF, that is, to the worker's exit
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del workers[pid]
            if code != 0:
                raise ChildProcessError(f"worker {pid} exited with code {code} before replying")
            reply = pickle.loads(reply)
            if isinstance(reply, BaseException):
                raise reply
            results += reply
        return results
    finally:
        for pid, reader in workers.items():  # only after an error
            with suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with suppress(ChildProcessError):
                os.waitpid(pid, 0)
            reader.close()
