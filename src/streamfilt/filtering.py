"""Zero-phase filtering front ends: batch, per-packet and stateful stream.

All three produce exactly sample_count output samples per channel. The
filter delay of (length - 1) / 2 samples is compensated by reflect-padding
and trimming, so output sample k lines up with input sample k.

Each route allocates its output once, or takes the caller's out, and
writes every piece of work into its slice of it; none builds a padded copy
of the record or a list of parts to concatenate. Batch convolves the whole
record as if reflect-padded once.
Per-packet treats every packet as its own tiny record (reflect-pad, filter,
trim, written into the packet's columns), which reproduces the boundary
artifacts of naive real-time filtering and is deliberately not equivalent
to batch. The stateful stream is direct batch evaluated as packets
arrive: after each packet it writes the outputs whose window of the
reflect-padded samples received so far is complete, so its output matches
batch at every sample and is bitwise identical for any packetization of the
same signal.

Channels are independent, and np.convolve and numpy.fft release the GIL, so
every route splits its channels into contiguous blocks and filters them on
the package's threads (_threads.run_channel_blocks), each block into its
rows of the one output. Per-channel work does not depend on the grouping,
so the output is bitwise the same for any thread count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar, Iterator

import numpy as np

from ._threads import run_channel_blocks
from .convolution import METHODS, ReflectedConvolver, convolve_reflected, reflect_pad_columns
from .errors import ValidationError
from .fir_design import FirKernel
from .signal_core import SignalMatrix, _as_int, _check_out


@dataclass(frozen=True)
class PacketPlan:
    """How a record of total_samples() splits into transmission packets."""

    packet_size_samples: int
    packet_count: int
    tail_size_samples: int

    def __post_init__(self) -> None:
        for name in ("packet_size_samples", "packet_count", "tail_size_samples"):
            value = _as_int(getattr(self, name))
            if value is None:
                raise ValidationError(f"{name} must be an integer, got {getattr(self, name)!r}")
            object.__setattr__(self, name, value)
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
    size = _as_int(packet_size)
    if size is None or size < 1:
        raise ValidationError(f"packet_size must be an integer >= 1, got {packet_size!r}")
    total = signal.info.sample_count
    if size >= total:
        return PacketPlan(packet_size_samples=total, packet_count=1, tail_size_samples=0)
    return PacketPlan(
        packet_size_samples=size, packet_count=total // size, tail_size_samples=total % size
    )


class FilterMode:
    """Base of the three filter modes: a name, and a packet plan (None for batch)."""

    name: ClassVar[str]
    plan: PacketPlan | None

    @property
    def packet_size(self) -> int | None:
        return None if self.plan is None else self.plan.packet_size_samples

    def describe(self) -> str:
        return self.name if self.plan is None else f"{self.name}={self.packet_size}"


@dataclass(frozen=True)
class Batch(FilterMode):
    """Filter the whole record at once."""

    name: ClassVar[str] = "batch"
    plan: ClassVar[None] = None


@dataclass(frozen=True)
class PerPacket(FilterMode):
    """Filter each packet independently, boundary artifacts included."""

    name: ClassVar[str] = "per-packet"
    plan: PacketPlan


@dataclass(frozen=True)
class StatefulStream(FilterMode):
    """Filter packets as they arrive, keeping the past: equivalent to batch."""

    name: ClassVar[str] = "stateful"
    plan: PacketPlan


MODE_NAMES = (Batch.name, PerPacket.name, StatefulStream.name)


def mode_from_name(name: str, signal: SignalMatrix, packet_size: int) -> FilterMode:
    """The mode called name; the two streaming modes packetize signal.

    An unknown name raises ValidationError.
    """
    if name == Batch.name:
        return Batch()
    for mode in (PerPacket, StatefulStream):
        if name == mode.name:
            return mode(packetize(signal, packet_size))
    raise ValidationError(
        f"unknown filter mode {name!r}, expected one of {', '.join(MODE_NAMES)}"
    )


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


def _filter_channel_blocks(
    signal: SignalMatrix,
    kernel: FirKernel,
    n_threads: int | None,
    fill: Callable[[np.ndarray, np.ndarray], None],
    out: np.ndarray | None = None,
) -> SignalMatrix:
    """Run fill(data_rows, out_rows) on contiguous channel blocks of the
    output, one block per thread, and return it. Every route resolves its
    thread count on the record's padded shape, channels x (samples + taps
    - 1).

    The output is allocated once, or is out: a writable C-contiguous
    float64 array of the signal's shape that shares no memory with it,
    else ValidationError. The result's data is then a read-only view of
    out, which changes when the caller writes to out again.
    """
    data = signal.data
    if out is None:
        out = np.empty(data.shape, dtype=np.float64)
    else:
        out = _check_out(out, data.shape, "float64")
        if np.shares_memory(out, data):
            raise ValidationError("out shares memory with the signal it filters")
    channels, samples = data.shape
    padded = (channels, samples + kernel.length - 1)
    run_channel_blocks(padded, n_threads, lambda rows: fill(data[rows], out[rows]))
    return SignalMatrix._adopt(signal.info, out)


def filter_batch(
    signal: SignalMatrix,
    kernel: FirKernel,
    *,
    method: str = "auto",
    n_threads: int | None = None,
    out: np.ndarray | None = None,
) -> SignalMatrix:
    """Zero-phase filter of the whole record.

    n_threads splits the channels into that many blocks (capped by the
    channel count); the output is bitwise the same for any thread count.
    None means STREAMFILT_THREADS when it is set, else one thread per
    available CPU when the padded record has enough channel-samples
    (_threads.resolve_threads), and the caller's thread otherwise. out, if
    given, receives the output, as in _filter_channel_blocks.
    """
    _check_compatible(signal, kernel)
    delay = kernel.group_delay_samples

    def fill(data: np.ndarray, out: np.ndarray) -> None:
        convolve_reflected(data, kernel.taps, delay, out, method, kernel.spectrum)

    return _filter_channel_blocks(signal, kernel, n_threads, fill, out)


def filter_per_packet(
    signal: SignalMatrix,
    kernel: FirKernel,
    plan: PacketPlan,
    *,
    method: str = "auto",
    n_threads: int | None = None,
    out: np.ndarray | None = None,
) -> SignalMatrix:
    """Filter every packet as its own record, into its columns of the output.

    Each packet gets its own reflect padding and trim, so packet boundaries
    leave artifacts. That is the point: this models live filtering that
    restarts on every packet. Packets shorter than the padding (small tails)
    still work, the reflection just wraps. n_threads and out are as in
    filter_batch.
    """
    _check_compatible(signal, kernel)
    _check_plan(signal, plan)
    delay = kernel.group_delay_samples

    def fill(data: np.ndarray, out: np.ndarray) -> None:
        # One convolver per packet length (the packet size and the tail),
        # and per thread, since each holds its own transform buffer.
        convolvers: dict[int, ReflectedConvolver] = {}
        for start, stop in plan.slices():
            size = stop - start
            if size not in convolvers:
                shape = (data.shape[0], size)
                convolvers[size] = ReflectedConvolver(
                    shape, kernel.taps, delay, method, kernel.spectrum
                )
            convolvers[size](data[:, start:stop], out[:, start:stop])

    return _filter_channel_blocks(signal, kernel, n_threads, fill, out)


def filter_stateful_stream(
    signal: SignalMatrix,
    kernel: FirKernel,
    plan: PacketPlan,
    *,
    n_threads: int | None = None,
    out: np.ndarray | None = None,
) -> SignalMatrix:
    """Filter packets as they arrive, each output from the samples received so far.

    After the packet that ends at stop, outputs [done, stop - delay) have
    every input they need, and each is one window of data[:, :stop]
    reflect-padded: no sample after stop is read. The last packet brings
    the right reflection and finishes the record. So every output sees
    exactly the samples it would see in filter_batch; an interior window is
    a view of the record. Uses the direct engine only: its per-window dot
    products do not depend on packet boundaries, which makes the output
    bitwise identical across packetizations (not merely close). n_threads
    and out are as in filter_batch.
    """
    _check_compatible(signal, kernel)
    _check_plan(signal, plan)
    width = signal.info.sample_count
    delay = kernel.group_delay_samples

    def fill(data: np.ndarray, out: np.ndarray) -> None:
        done = 0
        for _, stop in plan.slices():
            ready = width if stop == width else stop - delay
            if ready > done:
                window = reflect_pad_columns(data[:, :stop], delay, done, ready + 2 * delay)
                convolve_reflected(window, kernel.taps, 0, out[:, done:ready], "direct")
                done = ready

    return _filter_channel_blocks(signal, kernel, n_threads, fill, out)


def apply_mode(
    signal: SignalMatrix,
    kernel: FirKernel,
    mode: FilterMode,
    *,
    method: str = "auto",
    n_threads: int | None = None,
    out: np.ndarray | None = None,
) -> SignalMatrix:
    """Dispatch to the filtering front end named by mode.

    method applies to batch and per-packet; the stream always runs on the
    direct engine, so it takes only "auto" or "direct". n_threads and out
    apply to every mode.
    """
    if isinstance(mode, Batch):
        return filter_batch(signal, kernel, method=method, n_threads=n_threads, out=out)
    if isinstance(mode, PerPacket):
        return filter_per_packet(
            signal, kernel, mode.plan, method=method, n_threads=n_threads, out=out
        )
    if isinstance(mode, StatefulStream):
        if method not in METHODS[:2]:
            raise ValidationError(
                f"the stateful stream runs on the direct engine, got method {method!r}"
            )
        return filter_stateful_stream(signal, kernel, mode.plan, n_threads=n_threads, out=out)
    raise ValidationError(f"unknown filter mode {mode!r}")
