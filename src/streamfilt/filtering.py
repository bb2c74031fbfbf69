"""Zero-phase filtering front ends: batch, per-packet and stateful stream.

All three produce exactly sample_count output samples per channel. The
filter delay of (length - 1) / 2 samples is compensated by reflect-padding
and trimming, so output sample k lines up with input sample k.

The three are presets of one packet loop (_filter_packets). After the
packet that ends at stop, it writes the outputs [done, ready) from one
window of the samples it may use, reflect-padded:
- history off (per-packet): the packet alone, with outputs written up to
  stop. Each packet is its own tiny record, which reproduces the boundary
  artifacts of naive real-time filtering; not equivalent to batch.
- batch: history off over one packet that covers the record, so the whole
  record is filtered as if reflect-padded once.
- history on (stateful): every sample received so far, with outputs held
  back by the group delay, to stop - delay; the last packet finishes the
  record. The output equals direct batch bitwise, for any packetization.
None reads a sample after stop. A lookahead between the two (history,
outputs held back by less than the delay) is an open sweep-report item.

The loop allocates its output once, or takes the caller's out, and writes
every piece of work into its slice of it; it builds no padded copy of the
record and no list of parts to concatenate.

Channels are independent, and np.convolve and numpy.fft release the GIL, so
the loop splits its work into contiguous ranges and runs them on the
package's threads (_threads.run_ranges), each range into its part of the
one output. It splits by packets when the plan has at least as many
packets as the record has channels: each thread runs the loop over its
range of packets on every row, so a record of few channels still shares
its Python loop out. It splits by channels otherwise (batch, other
one-packet plans, live packets). Packets without history are independent,
and with history each window is fixed by the outputs it writes, not by
where a range starts; per-channel work does not depend on the grouping
either. So the output is bitwise the same for any thread count.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import ClassVar, Iterator

import numpy as np

from ._threads import resolve_threads, run_ranges
from .convolution import ReflectedConvolver
from .errors import ValidationError
from .fir_design import FirKernel
from .signal_core import SignalMatrix, _as_count, _check_out


@dataclass(frozen=True)
class PacketPlan:
    """How a record of total_samples() splits into transmission packets."""

    packet_size_samples: int
    packet_count: int
    tail_size_samples: int

    def __post_init__(self) -> None:
        for name, minimum in (
            ("packet_size_samples", 1), ("packet_count", 1), ("tail_size_samples", 0)
        ):
            object.__setattr__(self, name, _as_count(getattr(self, name), name, minimum))
        if self.tail_size_samples >= self.packet_size_samples:
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
    size = _as_count(packet_size, "packet_size")
    total = signal.info.sample_count
    if size >= total:
        return PacketPlan(packet_size_samples=total, packet_count=1, tail_size_samples=0)
    return PacketPlan(
        packet_size_samples=size, packet_count=total // size, tail_size_samples=total % size
    )


class FilterMode:
    """Base of the three filter modes, the presets of the packet loop: a
    name, whether the loop keeps history, and a packet plan (None for batch,
    whose plan is one packet that covers the record)."""

    name: ClassVar[str]
    history: ClassVar[bool]
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
    history: ClassVar[bool] = False
    plan: ClassVar[None] = None


@dataclass(frozen=True)
class PerPacket(FilterMode):
    """Filter each packet independently, boundary artifacts included."""

    name: ClassVar[str] = "per-packet"
    history: ClassVar[bool] = False
    plan: PacketPlan


@dataclass(frozen=True)
class StatefulStream(FilterMode):
    """Filter packets as they arrive, keeping the past: equivalent to batch."""

    name: ClassVar[str] = "stateful"
    history: ClassVar[bool] = True
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


def _output(signal: SignalMatrix, out: np.ndarray | None) -> np.ndarray:
    """A fresh output for signal, or out: a writable C-contiguous float64
    array of the signal's shape that shares no memory with it, else
    ValidationError."""
    data = signal.data
    if out is None:
        return np.empty(data.shape, dtype=np.float64)
    out = _check_out(out, data.shape, "float64")
    if np.shares_memory(out, data):
        raise ValidationError("out shares memory with the signal it filters")
    return out


def filter_batch(
    signal: SignalMatrix,
    kernel: FirKernel,
    *,
    method: str = "auto",
    n_threads: int | None = None,
    out: np.ndarray | None = None,
) -> SignalMatrix:
    """Zero-phase filter of the whole record: the packet loop without
    history over one packet that covers it.

    n_threads splits the channels into that many blocks (capped by the
    channel count); the output is bitwise the same for any thread count.
    None means STREAMFILT_THREADS when it is set, else one thread per
    available CPU when the padded record has enough channel-samples
    (_threads.resolve_threads), and the caller's thread otherwise. out, if
    given, receives the output, as in _output.

    A record shorter than the kernel is filtered too, not rejected: live
    packets are whole records, most of them shorter than the kernel. Its
    output is mostly reflection, and a record of at most the group delay
    has too few samples to reflect once, so its reflection wraps (numpy's
    "reflect" padding, periodic with period 2 * (samples - 1)).
    """
    plan = packetize(signal, signal.info.sample_count)
    return _filter_packets(signal, kernel, plan, False, method, n_threads, out)


def _filter_packets(
    signal: SignalMatrix,
    kernel: FirKernel,
    plan: PacketPlan,
    history: bool,
    method: str,
    n_threads: int | None,
    out: np.ndarray | None,
) -> SignalMatrix:
    """The packet loop of the module docstring, with or without history.

    Outputs [done, ready) convolve columns [done - origin, ready - origin +
    2 * delay) of data[:, origin:stop] reflect-padded by delay, through one
    convolver per thread, rebuilt when the shape or the window changes. A
    range of packets starts with done at the ready of the packet before it.
    One thread never asks the plan for its packet count: it reads
    plan.slices() alone, in order, so packets may arrive as it runs.
    """
    _check_compatible(signal, kernel)
    width = signal.info.sample_count
    if plan.total_samples() != width:
        raise ValidationError(f"plan covers {plan.total_samples()} samples, signal has {width}")
    delay = kernel.group_delay_samples
    lag = delay if history else 0
    data, out = signal.data, _output(signal, out)

    def fill(rows: slice, packets: slice) -> None:
        convolver, done = None, 0
        for start, stop in islice(plan.slices(), packets.start, packets.stop):
            done = max(done, start - lag)
            origin = 0 if history else start
            ready = width if stop == width else stop - lag
            if ready <= done:
                continue
            record = data[rows, origin:stop]
            window = (done - origin, ready - origin + 2 * delay)
            if convolver is None or (convolver.shape, convolver.columns) != (record.shape, window):
                convolver = ReflectedConvolver(
                    record.shape, kernel.taps, delay, method, kernel.spectrum, window
                )
            convolver(record, out[rows, done:ready])
            done = ready

    channels, every = data.shape[0], slice(None)
    # No plan has more packets than the record has samples, so this cap
    # holds on either axis until the plan's own count is known.
    padded = (channels, width + kernel.length - 1)
    threads = resolve_threads(n_threads, padded, max(channels, width))
    if threads > 1 and (packets := plan.chunk_count()) >= channels:
        run_ranges(packets, threads, lambda span: fill(every, span))
    else:
        run_ranges(channels, threads, lambda rows: fill(rows, every))
    return SignalMatrix._adopt(signal.info, out)


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
    still work, the reflection just wraps. This is the packet loop without
    history. n_threads and out are as in filter_batch, except that the
    threads split the packets, when there are at least as many as channels.
    """
    return _filter_packets(signal, kernel, plan, False, method, n_threads, out)


def filter_stateful_stream(
    signal: SignalMatrix,
    kernel: FirKernel,
    plan: PacketPlan,
    *,
    n_threads: int | None = None,
    out: np.ndarray | None = None,
) -> SignalMatrix:
    """Filter packets as they arrive, each output from the samples received so far.

    The packet loop with history: every output sees exactly the samples it
    would see in filter_batch, and none after its packet. It runs on the
    direct engine only, whose per-window dot products do not depend on
    packet boundaries, so the output is bitwise identical, not merely close,
    across packetizations. n_threads and out are as in filter_per_packet.
    """
    return _filter_packets(signal, kernel, plan, True, "direct", n_threads, out)


def apply_mode(
    signal: SignalMatrix,
    kernel: FirKernel,
    mode: FilterMode,
    *,
    method: str = "auto",
    n_threads: int | None = None,
    out: np.ndarray | None = None,
) -> SignalMatrix:
    """Run the packet loop with the settings of mode.

    method applies to batch and per-packet; the stream always runs on the
    direct engine, so it takes only "auto" or "direct". n_threads and out
    apply to every mode.
    """
    if not isinstance(mode, (Batch, PerPacket, StatefulStream)):
        raise ValidationError(f"unknown filter mode {mode!r}")
    if mode.history:
        if method not in ("auto", "direct"):
            raise ValidationError(
                f"the stateful stream runs on the direct engine, got method {method!r}"
            )
        method = "direct"
    plan = packetize(signal, signal.info.sample_count) if mode.plan is None else mode.plan
    return _filter_packets(signal, kernel, plan, mode.history, method, n_threads, out)
