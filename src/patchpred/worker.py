"""A forked worker process, for work split over two CPUs.

A boosting fit runs its rounds in `lockstep` with a worker, each process
searching half of every node's columns (see learn.py). A cross-validation's
folds, a random forest's trees and a corpus inference's stacks of fragments
(see embed._infer_vectors) are split by `halves`: a worker runs half of the
items while this process runs the other half. Either way each process is
pinned to its own half of the CPUs with BLAS on one thread (`pinned`), and
the result is the one a run on one CPU gives. Each kind of work forks from
a size up, measured below.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import gc
import glob
import os
import pickle
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
# A corpus inference forks for half of its stacks from INFER_TOKEN_EPOCHS up
# (see embed._infer_vectors; leading fragments of the README corpus, default
# n and k, a fresh model each call; medians of 7 to 9 alternating runs, in ms
# alone and with a worker): 22,000 tokens x epochs, 9.1 and 11.8; 44,000 at
# 5 epochs, 14.1 and 17.7; 66,000, 17.7 and 20.2; 88,000, 27.8 and 21.2;
# 176,000, 54.6 and 37.8; 880,000 (the whole corpus at 100 epochs), 188
# and 145.
INFER_TOKEN_EPOCHS = 100_000  # tokens x epochs of a corpus inference


def forks(size: int, least: int) -> bool:
    """Whether work of this size runs half of itself in a Worker: from
    `least` up, on Linux (for fork), with at least two CPUs this process may
    run on."""
    return size >= least and sys.platform == "linux" and len(os.sched_getaffinity(0)) >= 2


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
    that made it, sends what work returned, pickled, to the parent, and then
    leaves by os._exit, touching no file or stream of the parent's; its
    cyclic GC is off, so that it runs no finalizer of an object it inherited.

    The two sides, 0 (the parent) and 1 (the worker), talk through one pipe
    in each direction, in messages of an 8-byte length and then that many
    bytes. They swap short lists of floats through `exchange`, and the
    parent reads what work returned with `result`. Each side holds only its
    own ends of the pipes, so the other side's death is an end of file:
    WorkerLost. Used as a context manager in the parent, it kills the
    worker if it still runs and reaps it on every way out of the block.
    """

    def __init__(self, work):
        self.parent, self.side, self.inbox = os.getpid(), 0, bytearray()
        # (read end, write end) of the pipes to the parent and to the worker
        up, down = os.pipe2(os.O_NONBLOCK), os.pipe2(os.O_NONBLOCK)
        try:
            self.pid = os.fork()
            if not self.pid:
                self._run(work, down[0], up[1], (up[0], down[1]))
        except BaseException as exc:
            if os.getpid() != self.parent:  # a signal before the worker's own handler
                os._exit(1)
            for fd in (*up, *down):
                os.close(fd)
            if isinstance(exc, OSError):
                raise WorkerLost from exc
            raise
        self._hold(up[0], down[1], (up[1], down[0]))

    def _hold(self, reader, writer, others):
        """Keeps this side's pipe ends and closes the other side's."""
        self.reader, self.writer = reader, writer
        for fd in others:
            os.close(fd)

    def _run(self, work, *ends):
        code = 1
        try:
            gc.disable()
            self.side = 1
            self._hold(*ends)
            data = pickle.dumps(work(self))
            os.set_blocking(self.writer, True)  # nothing more comes in to take
            self._send(data)
            code = 0
        finally:
            os._exit(code)

    def __enter__(self) -> "Worker":
        return self

    def __exit__(self, *exc_info):
        os.close(self.reader)
        os.close(self.writer)
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

    def _send(self, data):
        """Writes one message: the length of `data`, then `data`."""
        data = memoryview(len(data).to_bytes(8, "little") + data)
        while data:
            try:
                data = data[os.write(self.writer, data):]
            except BlockingIOError:  # the pipe is full: the other side may be sending too
                self._take()
            except BrokenPipeError as exc:
                raise WorkerLost from exc

    def _take(self):
        """Appends what the pipe holds to the inbox; WorkerLost at its end."""
        try:
            chunk = os.read(self.reader, 1 << 16)
        except BlockingIOError:
            return
        if not chunk:
            raise WorkerLost
        self.inbox += chunk

    def _receive(self) -> bytearray:
        """The next message, polled for while the reader is non-blocking."""
        while (len(self.inbox) < 8
               or len(self.inbox) < (end := 8 + int.from_bytes(self.inbox[:8], "little"))):
            self._take()
        message, self.inbox = self.inbox[8:end], self.inbox[end:]
        return message

    def exchange(self, values: list) -> list:
        """Sends `values` as float64 and returns the list the other side
        sent in its exchange of the same number; WorkerLost if it dies
        first. Both sides send before they read, and the read polls: the
        other side is about as far into the same work."""
        self._send(np.array(values, dtype=float).tobytes())
        return np.frombuffer(self._receive()).tolist()

    def result(self):
        """What work returned in the worker, waited for in blocking reads;
        WorkerLost if it died before it sent all of it. The bytes unpickled
        are only ever this process's own fork's."""
        os.set_blocking(self.reader, True)
        try:
            return pickle.loads(self._receive())
        except (EOFError, pickle.UnpicklingError) as exc:
            raise WorkerLost from exc


@contextlib.contextmanager
def _one_blas_thread():
    """Runs the block with numpy's OpenBLAS (where blas_threads finds it)
    on one thread, and restores the thread count on every way out.

    The count is only set where it is not one already. After a fork,
    OpenBLAS restarts its thread pool in the first call that sets a count,
    and a restarted pool thread spins for about 0.1 s on the CPUs of the
    thread that restarted it: inside a pin (pinned), the CPU of the work.
    So _beside sets one thread before it forks, and neither side sets a
    count, or starts a pool, until the worker is gone.
    """
    blas = blas_threads()
    threads = blas[0]() if blas else 1
    if threads != 1:
        blas[1](1)
    try:
        yield
    finally:
        if threads != 1:
            blas[1](threads)


@contextlib.contextmanager
def pinned(cpus):
    """Runs the block on `cpus` only, with numpy's OpenBLAS on one thread
    (_one_blas_thread), and restores this process's CPU set, and then its
    thread count, on every way out. Two processes that work side by side,
    each in its own half (see _beside), never share a CPU."""
    with _one_blas_thread():
        before = os.sched_getaffinity(0)
        os.sched_setaffinity(0, cpus)
        try:
            yield
        finally:
            os.sched_setaffinity(0, before)


@contextlib.contextmanager
def _beside(there):
    """A Worker that runs there(peer) pinned to the second half of this
    process's CPUs; the block gets (peer, the first half) to pin itself to.
    BLAS is on one thread from before the fork until the worker is gone."""
    cpus = sorted(os.sched_getaffinity(0))
    mine, theirs = cpus[:len(cpus) // 2], cpus[len(cpus) // 2:]

    def run_there(peer):
        with pinned(theirs):
            return there(peer)
    with _one_blas_thread(), Worker(run_there) as peer:
        yield peer, mine


def lockstep(work, size: int, least: int):
    """What work(peer) returns, while from `least` up (forks) a Worker runs
    work(peer) too, beside this process (_beside); work(None) alone, on all
    the CPUs, where no worker forks or it is lost."""
    if forks(size, least):
        def there(peer):  # sends nothing: this process returns the same value
            work(peer)
        try:
            with _beside(there) as (peer, mine), pinned(mine):
                return work(peer)
        except WorkerLost:
            pass
    return work(None)


def halves(run, n: int, size: int, least: int) -> list:
    """What run(range(a, b)) gives over consecutive ranges that cover
    range(n), in order. Where forks(size, least) holds and blas_threads
    finds numpy's OpenBLAS, a Worker runs items m .. 2m - 1 (m = n // 2)
    while this process runs items 0 .. m - 1, each pinned to its own half
    of the CPUs with BLAS on one thread, so that no work inside sees a
    second CPU, and no BLAS thread pool restarts inside the pin (see
    _one_blas_thread). This process then restores its CPU set, on every
    way out, before it reads the worker's result, and its thread count
    once the worker is gone, and runs the rest on all of its CPUs: an odd
    last item, and the worker's items if the worker was lost. An item that
    raised in the worker raises here."""
    m, parts = n // 2, []
    if m and forks(size, least) and blas_threads() is not None:
        try:
            with _beside(lambda _peer: run(range(m, 2 * m))) as (peer, mine):
                with pinned(mine):
                    parts.append(run(range(m)))
                parts.append(peer.result())
        except WorkerLost:
            pass
    return parts + [run(range(m * len(parts), n))]
