"""The package's threads: how many a call runs on, and the one pool they
come from.

Every route in filtering and the Pearson kernel in fidelity treat each
channel on its own, so they split a record into contiguous channel blocks
and hand the blocks to run_channel_blocks. The threads come from one pool
per process, built on first use and kept, so a live packet pays a hand-off
to a waiting worker rather than a pool's start-up, and no library's own
thread pool is left spinning after a call. n_threads=None takes
STREAMFILT_THREADS when it is set (1 models a single-core Edge box), else
the CPUs this process may run on when the call has at least
_MIN_THREADED_WORK channel-samples of work, and the caller's thread below
it; either way capped by the channel count. Callers pass their shape and
leave the decision here.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable

from .errors import ValidationError

THREADS_ENV_VAR = "STREAMFILT_THREADS"

# Work, in channel-samples, below which n_threads=None stays on the caller's
# thread. A filtering route counts its padded shape, channels x (samples +
# taps - 1), and the Pearson kernel its raw shape. On 2 CPUs with the
# 991-tap kernel, in a warm heap, a split call below about 60,300 padded
# channel-samples took 0.99-2.03 times as long as on one thread, one from
# 62,481 up 0.70-0.98 times, and 59-channel packets of 44-64 samples
# between them swung either way from run to run. 62,540 is 59 x (70 + 990):
# a live packet of the 59-channel record splits from 70 samples. The README
# has the table.
_MIN_THREADED_WORK = 62_540


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has sched_getaffinity
        return os.cpu_count() or 1


def resolve_threads(n_threads: int | None, shape: tuple[int, int]) -> int:
    """Threads a call of shape (channels, work per channel) runs on.

    An explicit n_threads, else STREAMFILT_THREADS, else the available CPUs
    when channels x work reaches _MIN_THREADED_WORK and 1 below it; capped
    by the channel count.
    """
    channels, work = shape
    if n_threads is None:
        raw = os.environ.get(THREADS_ENV_VAR)
        if raw is not None:
            try:
                n_threads = int(raw)
            except ValueError:
                raise ValidationError(
                    f"{THREADS_ENV_VAR} must be an integer, got {raw!r}"
                ) from None
        elif channels * work < _MIN_THREADED_WORK:
            return 1
        else:
            n_threads = _available_cpus()
    if n_threads < 1:
        raise ValidationError(f"thread count must be >= 1, got {n_threads}")
    return min(n_threads, channels)


class _WorkerPool:
    """The process's one thread pool, built on first use and kept.

    get(workers) returns a pool of at least that many workers, replacing a
    smaller one; a replaced pool's workers exit once the last call that
    holds it lets it go. A forked child starts without a pool, since the
    parent's worker threads do not exist in it.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._pool: ThreadPoolExecutor | None = None
        self._workers = 0

    def get(self, workers: int) -> ThreadPoolExecutor:
        with self._lock:
            if self._workers < workers:
                self._pool = ThreadPoolExecutor(workers, thread_name_prefix="streamfilt")
                self._workers = workers
            return self._pool


_pool = _WorkerPool()


def _forget_pool_in_child() -> None:
    global _pool
    _pool = _WorkerPool()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool_in_child)


def run_channel_blocks(
    shape: tuple[int, int], n_threads: int | None, work: Callable[[slice], None]
) -> None:
    """Run work(rows) on contiguous blocks of shape's channels, one block
    per thread resolved from n_threads and shape (as in resolve_threads).

    The caller's thread runs the first block itself and the process's pool
    the others, so the pool needs one worker fewer than the thread count. A
    worker more would cost one more malloc arena: on 2 CPUs a pool of as
    many workers as threads raised the peak RSS of the batch CLI on the
    default record by 4.7 percent, against 1.0 percent this way. The pool's
    workers, and so their arenas, live as long as the process. Every block
    has finished before an error from any of them reaches the caller.
    """
    threads = resolve_threads(n_threads, shape)
    channels = shape[0]
    if threads <= 1:  # 0 for a record of no channels
        work(slice(0, channels))
        return
    bounds = [i * channels // threads for i in range(threads + 1)]
    blocks = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    pool = _pool.get(threads - 1)
    futures = [pool.submit(work, rows) for rows in blocks[1:]]
    try:
        work(blocks[0])
    finally:
        wait(futures)  # no worker still writes into the caller's arrays
    for future in futures:
        future.result()
