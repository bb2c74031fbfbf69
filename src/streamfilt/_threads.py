"""The package's threads: how many a call runs on, and the one pool they
come from.

Every route in filtering and the Pearson kernel in fidelity treat each
channel on its own, so they split a record into contiguous channel blocks
and hand the blocks to run_channel_blocks. The threads come from one pool
per process, built on first use and kept, so a live packet pays a hand-off
to a waiting worker rather than a pool's start-up, and no library's own
thread pool is left spinning after a call. n_threads=None takes
STREAMFILT_THREADS when it is set (1 models a single-core Edge box), else
the CPUs this process may run on, capped by the channel count; a call with
less work than _MIN_THREADED_WORK stays on the caller's thread, and a short
call (a live packet) gets at most one thread per _MIN_CHANNELS_PER_THREAD
channels.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable

from .errors import ValidationError

THREADS_ENV_VAR = "STREAMFILT_THREADS"

# Channel-samples below which n_threads=None stays on the caller's thread:
# 59-channel packets of up to 69 samples. With the process's pool an empty
# hand-off costs 17-26 us at the median. On 2 CPUs with the 991-tap kernel,
# a 2-thread split of 59-channel packets of 32-1024 samples took 10-20
# percent off each call in a fresh process, and 13-14 percent off the
# median of the benchmark's live packets.
_MIN_THREADED_WORK = 4096

# Channels each thread must get before n_threads=None splits a call of at
# most _SHORT_CALL_SAMPLES samples a channel. On 2 CPUs with the 991-tap
# kernel (median of 150 interleaved calls each way), a 2-thread split of 4,
# 8 and 16 channels x 256-1024 samples took 1.07-1.98 times as long as one
# thread. 20-28 channels lost at 256 samples (20 also at 512), 32 channels
# took 0.89-0.97 of the one-thread time from 512 samples, and 59 channels
# 0.85-0.91 at every size. So a live packet of an 8-16 channel headset
# filters on the caller's thread, and one of the 59-channel record splits.
# Longer calls were not timed this way and keep every CPU: a batch filter of
# 8-16 channels x 166,800 samples took 0.55-0.62 of the one-thread time.
_MIN_CHANNELS_PER_THREAD = 16
_SHORT_CALL_SAMPLES = 1024


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has sched_getaffinity
        return os.cpu_count() or 1


def resolve_threads(n_threads: int | None, shape: tuple[int, int]) -> int:
    """Threads a call on a (channels, samples) record runs on.

    An explicit n_threads, else STREAMFILT_THREADS, else the available CPUs
    at or above _MIN_THREADED_WORK channel-samples and 1 below it, with at
    least _MIN_CHANNELS_PER_THREAD channels a thread for a call of at most
    _SHORT_CALL_SAMPLES samples; capped by the channel count. A caller that
    reads a record by channel blocks resolves the count once for the whole
    record and passes it to each block, so a small block is not left single
    threaded.
    """
    channels, samples = shape
    if n_threads is None:
        raw = os.environ.get(THREADS_ENV_VAR)
        if raw is not None:
            try:
                n_threads = int(raw)
            except ValueError:
                raise ValidationError(
                    f"{THREADS_ENV_VAR} must be an integer, got {raw!r}"
                ) from None
        elif channels * samples < _MIN_THREADED_WORK:
            return 1
        else:
            n_threads = _available_cpus()
            if samples <= _SHORT_CALL_SAMPLES:
                n_threads = max(1, min(n_threads, channels // _MIN_CHANNELS_PER_THREAD))
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
    """Run work(rows) on contiguous channel blocks of a (channels, samples)
    record, one block per thread resolved from n_threads and shape.

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
