"""The package's threads: how many a call runs on, and the one pool they
come from.

Every route in filtering and the Pearson kernel in fidelity treat each
channel on its own, and per-packet work treats each packet on its own, so a
call splits its count items (channels, or packets) into contiguous ranges
and hands them to run_ranges, one range per thread. The threads come from
one pool per process, built on first use and kept, so a live packet pays a
hand-off to a waiting worker rather than a pool's start-up, and no
library's own thread pool is left spinning after a call. n_threads=None
takes STREAMFILT_THREADS when it is set (1 models a single-core Edge box),
else the CPUs this process may run on when the call has at least
_MIN_THREADED_WORK channel-samples of work, and the caller's thread below
it; either way capped by the item count. Callers pass their shape and
leave the decision here.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable

from .signal_core import _as_count

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


def resolve_threads(
    n_threads: int | None, shape: tuple[int, int], count: int | None = None
) -> int:
    """Threads a call of shape (channels, work per channel) runs on.

    An explicit n_threads, else STREAMFILT_THREADS, else the available CPUs
    when channels x work reaches _MIN_THREADED_WORK and 1 below it; capped
    by count, the items the call splits into ranges (its channels when
    None).
    """
    channels, work = shape
    name = "thread count"
    if n_threads is None:
        raw = os.environ.get(THREADS_ENV_VAR)
        if raw is None:
            if channels * work < _MIN_THREADED_WORK:
                return 1
            n_threads = _available_cpus()
        else:
            name = THREADS_ENV_VAR
            try:
                n_threads = int(raw)
            except ValueError:
                n_threads = raw  # rejected below, by name
    return min(_as_count(n_threads, name), channels if count is None else count)


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


def run_ranges(count: int, threads: int, work: Callable[[slice], None]) -> None:
    """Run work(items) on contiguous ranges of count items, as many as
    threads (from resolve_threads) but no more than count.

    The caller's thread runs the first range itself and the process's pool
    the others, so the pool needs one worker fewer than the thread count. A
    worker more would cost one more malloc arena: on 2 CPUs a pool of as
    many workers as threads raised the peak RSS of the batch CLI on the
    default record by 4.7 percent, against 1.0 percent this way. The pool's
    workers, and so their arenas, live as long as the process. Every range
    has finished before an error from any of them reaches the caller.
    """
    threads = min(threads, count)
    if threads <= 1:  # 0 for no items
        work(slice(0, count))
        return
    bounds = [i * count // threads for i in range(threads + 1)]
    ranges = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    pool = _pool.get(threads - 1)
    futures = [pool.submit(work, items) for items in ranges[1:]]
    try:
        work(ranges[0])
    finally:
        wait(futures)  # no worker still writes into the caller's arrays
    for future in futures:
        future.result()
