"""Zero-phase filtering front ends: batch, per-packet and stateful stream.

All three produce exactly sample_count output samples per channel. The
filter delay of (length - 1) / 2 samples is compensated by reflect-padding
and trimming, so output sample k lines up with input sample k.

Each route allocates its output once and writes every piece of work into
its slice of it; none builds a padded copy of the record or a list of parts
to concatenate. Batch convolves the whole record as if reflect-padded once.
Per-packet treats every packet as its own tiny record (reflect-pad, filter,
trim, written into the packet's columns), which reproduces the boundary
artifacts of naive real-time filtering and is deliberately not equivalent
to batch. The stateful stream carries the last length - 1 samples between
packets, seeds that state from the batch left padding and flushes with the
right padding, so its output matches batch at every sample and is bitwise
identical for any packetization of the same signal.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterator, Union

import numpy as np

from .convolution import convolve_reflected, reflect_pad_columns
from .errors import ValidationError
from .fir_design import FirKernel
from .signal_core import SignalMatrix

THREADS_ENV_VAR = "STREAMFILT_THREADS"


@dataclass(frozen=True)
class PacketPlan:
    """How a record of total_samples() splits into transmission packets."""

    packet_size_samples: int
    packet_count: int
    tail_size_samples: int

    def __post_init__(self) -> None:
        if self.packet_size_samples < 1:
            raise ValidationError(
                f"packet_size_samples must be >= 1, got {self.packet_size_samples}"
            )
        if self.packet_count < 1:
            raise ValidationError(f"packet_count must be >= 1, got {self.packet_count}")
        if not 0 <= self.tail_size_samples < self.packet_size_samples:
            raise ValidationError(
                f"tail_size_samples must be in [0, {self.packet_size_samples}), "
                f"got {self.tail_size_samples}"
            )

    def total_samples(self) -> int:
        return self.packet_size_samples * self.packet_count + self.tail_size_samples

    def chunk_count(self) -> int:
        return self.packet_count + (1 if self.tail_size_samples else 0)

    def slices(self) -> Iterator[tuple[int, int]]:
        """Yield (start, stop) for each packet, tail last."""
        for i in range(self.packet_count):
            yield i * self.packet_size_samples, (i + 1) * self.packet_size_samples
        if self.tail_size_samples:
            start = self.packet_count * self.packet_size_samples
            yield start, start + self.tail_size_samples


def packetize(signal: SignalMatrix, packet_size: int) -> PacketPlan:
    """Split a signal into fixed-size packets plus a shorter tail.

    A packet size larger than the record clamps to one whole-record packet.
    """
    if packet_size < 1:
        raise ValidationError(f"packet_size must be >= 1, got {packet_size}")
    total = signal.info.sample_count
    if packet_size >= total:
        return PacketPlan(packet_size_samples=total, packet_count=1, tail_size_samples=0)
    return PacketPlan(
        packet_size_samples=packet_size,
        packet_count=total // packet_size,
        tail_size_samples=total % packet_size,
    )


@dataclass(frozen=True)
class Batch:
    """Filter the whole record at once."""

    def describe(self) -> str:
        return "batch"


@dataclass(frozen=True)
class PerPacket:
    """Filter each packet independently, boundary artifacts included."""

    plan: PacketPlan

    def describe(self) -> str:
        return f"per-packet={self.plan.packet_size_samples}"


@dataclass(frozen=True)
class StatefulStream:
    """Filter packets with carried state, equivalent to batch."""

    plan: PacketPlan

    def describe(self) -> str:
        return f"stateful={self.plan.packet_size_samples}"


FilterMode = Union[Batch, PerPacket, StatefulStream]


def _check_compatible(signal: SignalMatrix, kernel: FirKernel) -> None:
    if kernel.spec.sampling_rate_hz != signal.info.sampling_rate_hz:
        raise ValidationError(
            f"kernel is designed for {kernel.spec.sampling_rate_hz} Hz, "
            f"signal is sampled at {signal.info.sampling_rate_hz} Hz"
        )


def _check_plan(signal: SignalMatrix, plan: PacketPlan) -> None:
    if plan.total_samples() != signal.info.sample_count:
        raise ValidationError(
            f"plan covers {plan.total_samples()} samples, "
            f"signal has {signal.info.sample_count}"
        )


def _resolve_threads(n_threads: int | None, channel_count: int) -> int:
    if n_threads is None:
        raw = os.environ.get(THREADS_ENV_VAR)
        if raw is None:
            return 1
        try:
            n_threads = int(raw)
        except ValueError:
            raise ValidationError(f"{THREADS_ENV_VAR} must be an integer, got {raw!r}") from None
    if n_threads < 1:
        raise ValidationError(f"thread count must be >= 1, got {n_threads}")
    return min(n_threads, channel_count)


def filter_batch(
    signal: SignalMatrix,
    kernel: FirKernel,
    *,
    method: str = "auto",
    n_threads: int | None = None,
) -> SignalMatrix:
    """Zero-phase filter of the whole record.

    Channels are independent, so with n_threads > 1 they are processed in
    contiguous blocks on a thread pool. Per-channel results do not depend on
    the grouping, so the output is identical for any thread count. n_threads
    of None means: use the STREAMFILT_THREADS environment variable, else 1.
    """
    _check_compatible(signal, kernel)
    threads = _resolve_threads(n_threads, signal.info.channel_count)
    delay = kernel.group_delay_samples
    out = np.empty(signal.data.shape, dtype=np.float64)
    bounds = np.linspace(0, signal.info.channel_count, threads + 1).astype(int)

    def run(i: int) -> None:
        rows = slice(bounds[i], bounds[i + 1])
        convolve_reflected(signal.data[rows], kernel.taps, delay, out[rows], method)

    if threads == 1:
        run(0)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run, range(threads)))
    return SignalMatrix._adopt(signal.info, out)


def filter_per_packet(
    signal: SignalMatrix,
    kernel: FirKernel,
    plan: PacketPlan,
    *,
    method: str = "auto",
) -> SignalMatrix:
    """Filter every packet as its own record, into its columns of the output.

    Each packet gets its own reflect padding and trim, so packet boundaries
    leave artifacts. That is the point: this models live filtering that
    restarts on every packet. Packets shorter than the padding (small tails)
    still work, the reflection just wraps.
    """
    _check_compatible(signal, kernel)
    _check_plan(signal, plan)
    delay = kernel.group_delay_samples
    out = np.empty(signal.data.shape, dtype=np.float64)
    for start, stop in plan.slices():
        convolve_reflected(
            signal.data[:, start:stop], kernel.taps, delay, out[:, start:stop], method
        )
    return SignalMatrix._adopt(signal.info, out)


def filter_stateful_stream(
    signal: SignalMatrix,
    kernel: FirKernel,
    plan: PacketPlan,
) -> SignalMatrix:
    """Filter packets while carrying the last length - 1 samples of state.

    The state is seeded with the record's left reflection and flushed with
    the right reflection, so every output window sees exactly the samples it
    would see in filter_batch. Uses the direct engine only: its per-window
    dot products do not depend on packet boundaries, which makes the output
    bitwise identical across packetizations (not merely close).
    """
    _check_compatible(signal, kernel)
    _check_plan(signal, plan)
    data = signal.data
    width = signal.info.sample_count
    delay = kernel.group_delay_samples
    length = kernel.length
    out = np.empty(data.shape, dtype=np.float64)
    state = reflect_pad_columns(data, delay, 0, delay)
    flush = reflect_pad_columns(data, delay, delay + width, 2 * delay + width)
    done = 0
    for chunk in _stream_chunks(data, plan, flush):
        ext = np.concatenate([state, chunk], axis=1)
        ready = ext.shape[1] - (length - 1)
        if ready > 0:
            convolve_reflected(ext, kernel.taps, 0, out[:, done : done + ready], "direct")
            done += ready
            state = ext[:, ready:]
        else:
            state = ext
    return SignalMatrix._adopt(signal.info, out)


def _stream_chunks(
    data: np.ndarray, plan: PacketPlan, flush: np.ndarray
) -> Iterator[np.ndarray]:
    for start, stop in plan.slices():
        yield data[:, start:stop]
    if flush.shape[1]:
        yield flush


def apply_mode(
    signal: SignalMatrix,
    kernel: FirKernel,
    mode: FilterMode,
    *,
    method: str = "auto",
    n_threads: int | None = None,
) -> SignalMatrix:
    """Dispatch to the filtering front end named by mode."""
    if isinstance(mode, Batch):
        return filter_batch(signal, kernel, method=method, n_threads=n_threads)
    if isinstance(mode, PerPacket):
        return filter_per_packet(signal, kernel, mode.plan, method=method)
    if isinstance(mode, StatefulStream):
        return filter_stateful_stream(signal, kernel, mode.plan)
    raise ValidationError(f"unknown filter mode {mode!r}")
