"""A forked worker process, for work split over two CPUs.

A boosting fit runs its rounds in lockstep with a worker, each process
searching half of every node's columns, and a random forest leaves half of
its trees to a worker (see learn.py). Both give the trees a fit alone gives.
A cross-validation leaves half of its folds to a worker, each process pinned
to its own half of the CPUs with BLAS on one thread, so that the fits inside
run serially (see evaluate.py); the report is the one a run on one CPU gives.
"""

from __future__ import annotations

import ctypes
import functools
import gc
import glob
import mmap
import os
import pickle
import platform
import signal
import sys

import numpy as np

# A fit forks a worker from these sizes up (see forks). Measured on a 2-vCPU
# x86-64 VM (Python 3.11.7, numpy 2.4.6, default configs; medians of 7
# alternating fits on leading rows and columns of the paper_scale seed-1
# matrix, the same trees either way), in ms alone and with a worker:
# boosting at 180 x 130, 144 and 168; 400 x 130, 245 and 246; 400 x 202,
# 332 and 277; 1,600 x 202, 973 and 600. A forest of 100 trees on 30 x 130,
# 64 and 59; 10 trees on 180 x 130, 49 and 50; 20 trees on 60 x 130, 37 and
# 38; 100 trees on 1,600 x 202, 1,538 and 1,021.
BOOST_CELLS = 80_000  # rows x columns of a boosting fit
FOREST_ROW_TREES = 4_000  # rows x trees of a forest fit
# A cross-validation forks for its folds from FOLD_CELLS up (10 folds, default
# configs, normal random rows; medians of 7 alternating runs, in ms alone and
# with a worker): boosting at 20 x 20, 277 and 191; 40 x 72, 834 and 594; a
# forest at 20 x 20, 196 and 180; logistic regression at 40 x 72, 197 and 161;
# a decision tree at 40 x 72, 17 and 21; 200 x 130, 135 and 76; naive Bayes
# at 20 x 20, 6 and 13; 200 x 130, 9 and 14; 1,000 x 130, 40 and 37. The
# fork costs a few ms, which only the cheapest learners do not win back.
FOLD_CELLS = 2_000  # rows x columns of a cross-validation


def forks(size: int, least: int) -> bool:
    """Whether work of this size runs half of itself in a Worker: from
    `least` up, on Linux x86-64 (fork, and stores that other CPUs see in
    program order, which Worker.exchange relies on), with at least two CPUs
    this process may run on."""
    return size >= least and sys.platform == "linux" and platform.machine() == "x86_64" \
        and len(os.sched_getaffinity(0)) >= 2


@functools.cache
def blas_threads():
    """(get, set) of the thread count of the OpenBLAS that numpy bundles,
    found through ctypes once per process; None where there is none."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            try:
                get, put = (getattr(ctypes.CDLL(path), name.format(verb)) for verb in ("get", "set"))
            except (OSError, AttributeError):
                continue
            get.argtypes, get.restype, put.argtypes, put.restype = [], ctypes.c_int, [ctypes.c_int], None
            return get, put
    return None


class WorkerLost(Exception):
    """A worker could not start, or died before it delivered."""


class Worker:
    """A forked copy of this process that runs work(self) beside the code
    that made it, writes what work returned, pickled, to a pipe, and then
    leaves by os._exit, touching no file or stream of the parent's; its
    cyclic GC is off, so that it runs no finalizer of an object it inherited.

    The two sides, 0 (the parent) and 1 (the worker), swap short lists of
    floats through `exchange`, a spin barrier on a shared anonymous mmap,
    and the parent reads what work returned with `result`. Used as a
    context manager in the parent, it kills the worker if it still runs and
    reaps it on every way out of the block.
    """

    def __init__(self, work, slot: int = 0):
        """`slot` is how many floats an exchange may carry, plus 2."""
        self.parent, self.slot, self.exchanges, self.side = os.getpid(), slot, 0, 0
        if slot:
            # Two slots per side, by the exchange's parity: a side may
            # publish the next exchange before the other has read this one.
            shared = mmap.mmap(-1, 4 * 8 * slot)
            self.words, self.seq = np.frombuffer(shared, dtype=float), memoryview(shared).cast("q")
        self.reader, writer = os.pipe()
        try:
            self.pid = os.fork()
            if not self.pid:
                self._run(work, writer)
        except BaseException as exc:
            if os.getpid() != self.parent:  # a signal before the worker's own handler
                os._exit(1)
            os.close(self.reader)
            os.close(writer)
            if isinstance(exc, OSError):
                raise WorkerLost from exc
            raise
        os.close(writer)

    def _run(self, work, writer):
        code = 1
        try:
            gc.disable()
            os.close(self.reader)
            self.side = 1
            data = memoryview(pickle.dumps(work(self)))
            while data:
                data = data[os.write(writer, data):]
            code = 0
        finally:
            os._exit(code)

    def __enter__(self) -> "Worker":
        return self

    def __exit__(self, *exc_info):
        os.close(self.reader)
        try:
            os.kill(self.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        interrupted = None
        while True:
            try:
                os.waitpid(self.pid, 0)
                break
            except ChildProcessError:
                break
            except BaseException as exc:  # KeyboardInterrupt: reap first
                interrupted = exc
        if interrupted is not None:
            raise interrupted

    def _other_alive(self) -> bool:
        if self.side:
            return os.getppid() == self.parent
        return os.waitid(os.P_PID, self.pid, os.WEXITED | os.WNOHANG | os.WNOWAIT) is None

    def exchange(self, values: list) -> list:
        """Publishes `values` and returns what the other side published in
        its exchange of the same number; WorkerLost if it dies first.

        A side writes its payload into its slot of this exchange's parity,
        then the exchange number into the slot's first word: x86 makes
        stores visible in program order, so the other side, which spins
        until it reads that number, then reads the whole payload. A side
        cannot reach the next exchange of this parity before the other has
        read this one, because it waits for the other's next exchange in
        between."""
        i = self.exchanges = self.exchanges + 1
        mine, theirs = ((2 * side + i % 2) * self.slot for side in (self.side, 1 - self.side))
        self.words[mine + 1] = len(values)
        self.words[mine + 2: mine + 2 + len(values)] = values
        self.seq[mine] = i
        spins = 0
        while self.seq[theirs] != i:
            spins += 1
            if not spins % 16384 and not self._other_alive():
                raise WorkerLost
        count = int(self.words[theirs + 1])
        return self.words[theirs + 2: theirs + 2 + count].tolist()

    def result(self):
        """What work returned in the worker, read until its end of the pipe
        closes, which it does by exiting; WorkerLost if it died before it
        wrote all of it. The bytes unpickled are only ever this process's
        own fork's."""
        chunks = []
        while chunk := os.read(self.reader, 1 << 16):
            chunks.append(chunk)
        try:
            return pickle.loads(b"".join(chunks))
        except (EOFError, pickle.UnpicklingError) as exc:
            raise WorkerLost from exc
