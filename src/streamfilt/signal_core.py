"""Multichannel signal containers, synthetic generation and file storage.

A signal is a (channel_count, sample_count) float64 matrix plus metadata.
Stored form is a pair of files sharing one base name: <base>.json holds the
header, <base>.f64 holds the payload as little-endian float64 in channel-major
order (channel 0 complete, then channel 1, ...).

Because the payload is channel-major, a run of channels is one contiguous
run of bytes, so a record can be read and written by channel blocks:
SignalReader checks the header and the payload size up front and then reads
any channel range, validated on its own, into a fresh array or into a
buffer the caller keeps from block to block; signal_writer appends channel
blocks to an atomic temporary file. load_signal and store_signal are their
one-block cases. channel_blocks splits a record into the fewest equal
blocks of at most _BLOCK_CHANNEL_SAMPLES channel-samples, largest first, so
a caller that filters channel by channel holds one block at a time, and can
read and filter every block through the pages of one buffer sized for the
first.
"""

from __future__ import annotations

import csv
import json
import math
import operator
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import (
    HeaderFormatError,
    NyquistViolationError,
    PayloadSizeError,
    SignalFileError,
    SignalFileMissingError,
    ValidationError,
)
from ._fsio import atomic_open, atomic_write_text

FORMAT_VERSION = 1

_HEADER_SUFFIX = ".json"
_PAYLOAD_SUFFIX = ".f64"

# Elements per np.isfinite call when validating, so that validation never
# builds a bool mask the size of the record: 64 KiB of mask for any record.
_FINITE_CHUNK = 1 << 16
# Channel-samples in one block of a record read or written by channel
# blocks (channel_blocks): 16 MiB of float64, 12/12/12/12/11-channel blocks
# on the default record. The CLI holds two blocks: halving them from 2^22
# took a quarter off its peak RSS at the same speed, since a block of few
# channels splits its packet loop by packets. 2^20 saved 16 MB more, but
# made the batch CLI 6 and per-packet 400 19 percent slower.
_BLOCK_CHANNEL_SAMPLES = 1 << 21

# Scratch bytes for one column block of synthetic generation: the block's
# sin/cos basis and its product with the coefficients. Small enough to stay
# in cache and to keep the peak near the record's own size for any number
# of components.
_SYNTH_BLOCK_BYTES = 1 << 17
# BLAS kernels compute the last (width mod unroll) columns of a product in
# another summation order. With every block a multiple of this many columns
# those columns are the record's last ones whatever the block size, so the
# bytes do not depend on it.
_SYNTH_BLOCK_ALIGN = 64


def default_labels(channel_count: int) -> tuple[str, ...]:
    """Generate labels ch00, ch01, ... wide enough for the channel count."""
    width = max(2, len(str(channel_count - 1)))
    return tuple(f"ch{i:0{width}d}" for i in range(channel_count))


@dataclass(frozen=True)
class SignalInfo:
    """Geometry and labeling of a multichannel signal."""

    sampling_rate_hz: float
    channel_count: int
    sample_count: int
    channel_labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if not (np.isfinite(self.sampling_rate_hz) and self.sampling_rate_hz > 0):
            raise ValidationError(
                f"sampling_rate_hz must be finite and positive, got {self.sampling_rate_hz}"
            )
        for name in ("channel_count", "sample_count"):
            object.__setattr__(self, name, _as_count(getattr(self, name), name))
        labels = tuple(self.channel_labels)
        object.__setattr__(self, "channel_labels", labels)
        if len(labels) != self.channel_count:
            raise ValidationError(
                f"expected {self.channel_count} channel labels, got {len(labels)}"
            )
        if any(not isinstance(lab, str) or not lab for lab in labels):
            raise ValidationError("channel labels must be non-empty strings")
        if len(set(labels)) != len(labels):
            raise ValidationError("channel labels must be unique")

    @property
    def duration_s(self) -> float:
        return self.sample_count / self.sampling_rate_hz

    @classmethod
    def with_default_labels(
        cls, sampling_rate_hz: float, channel_count: int, sample_count: int
    ) -> "SignalInfo":
        return cls(
            sampling_rate_hz=sampling_rate_hz,
            channel_count=channel_count,
            sample_count=sample_count,
            channel_labels=default_labels(channel_count),
        )


def _validated(info: SignalInfo, data: np.ndarray) -> np.ndarray:
    """data as a read-only float64 C-order array matching info.

    Copies only when data is not already float64 in C order.
    """
    arr = np.ascontiguousarray(data, dtype=np.float64)
    expected = (info.channel_count, info.sample_count)
    if arr.shape != expected:
        raise ValidationError(f"data shape {arr.shape} does not match info {expected}")
    flat = arr.reshape(-1)
    for start in range(0, flat.size, _FINITE_CHUNK):
        if not np.isfinite(flat[start : start + _FINITE_CHUNK]).all():
            raise ValidationError("signal data contains non-finite samples")
    arr.setflags(write=False)
    return arr


def _check_out(out: np.ndarray, shape: tuple[int, int], dtype: str) -> np.ndarray:
    """A view of out, a caller's buffer to write a result of shape and dtype
    into; anything but a writable C-contiguous array of exactly that shape
    and dtype raises ValidationError.

    The result is wrapped in the view, so making it read-only leaves the
    caller's buffer writable for the next call.
    """
    if not isinstance(out, np.ndarray):
        raise ValidationError(f"out must be a numpy array, got {type(out).__name__}")
    if out.shape != shape or out.dtype != np.dtype(dtype):
        raise ValidationError(
            f"out is {out.dtype} of shape {out.shape}, expected {np.dtype(dtype)} of shape {shape}"
        )
    if not (out.flags.c_contiguous and out.flags.writeable):
        raise ValidationError("out must be C-contiguous and writable")
    return out.view()


@dataclass(frozen=True, eq=False)
class SignalMatrix:
    """Immutable (channel_count, sample_count) float64 sample matrix.

    The constructor copies data, so later changes to the caller's array do
    not show through.
    """

    info: SignalInfo
    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.data, dtype=np.float64, order="C")
        object.__setattr__(self, "data", _validated(self.info, arr))

    @classmethod
    def _adopt(cls, info: SignalInfo, data: np.ndarray) -> "SignalMatrix":
        """Wrap an array without copying it.

        Only for arrays this package has just allocated and no caller can
        reach: the array is made read-only in place and shared as is.
        """
        signal = object.__new__(cls)
        object.__setattr__(signal, "info", info)
        object.__setattr__(signal, "data", _validated(info, data))
        return signal


@dataclass(frozen=True)
class SineComponent:
    """One sinusoidal component of a synthetic signal.

    The phase of channel i is phase_rad + i * channel_phase_step_rad, which
    decorrelates channels without extra randomness.
    """

    frequency_hz: float
    amplitude: float
    phase_rad: float = 0.0
    channel_phase_step_rad: float = 0.0

    def __post_init__(self) -> None:
        if not (np.isfinite(self.frequency_hz) and self.frequency_hz > 0):
            raise ValidationError(
                f"component frequency must be finite and positive, got {self.frequency_hz}"
            )
        for name in ("amplitude", "phase_rad", "channel_phase_step_rad"):
            if not np.isfinite(getattr(self, name)):
                raise ValidationError(f"component {name} must be finite")


def _as_int(value) -> int | None:
    """value as an int when it is an integer (numpy's included), else None:
    a bool, float or str is not."""
    if isinstance(value, bool):
        return None
    try:
        return operator.index(value)
    except TypeError:
        return None


def _as_count(value, name: str, minimum: int = 1) -> int:
    """value as an int when it is an integer >= minimum (see _as_int), else
    ValidationError naming it."""
    count = _as_int(value)
    if count is None or count < minimum:
        raise ValidationError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return count


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a deterministic synthetic multichannel signal."""

    info: SignalInfo
    components: tuple[SineComponent, ...]
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "components", tuple(self.components))
        if not (np.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ValidationError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        seed = _as_int(self.seed)
        if seed is None or not 0 <= seed < 2**64:
            raise ValidationError(
                f"seed must be an integer that fits in an unsigned 64-bit value, got {self.seed!r}"
            )
        object.__setattr__(self, "seed", seed)
        nyquist = self.info.sampling_rate_hz / 2.0
        for comp in self.components:
            if comp.frequency_hz >= nyquist:
                raise NyquistViolationError(
                    f"component frequency {comp.frequency_hz} Hz is not below "
                    f"the Nyquist frequency {nyquist} Hz"
                )


def generate_synthetic(spec: SyntheticSpec) -> SignalMatrix:
    """Render a SyntheticSpec into samples.

    Deterministic for a given spec on one machine, whatever the BLAS thread
    count. The record starts as Gaussian noise drawn from numpy's PCG64
    generator seeded with spec.seed and scaled by noise_sigma; when
    noise_sigma is 0 the generator is not consumed at all. The components
    are then added through a sin(wt + phi) = a cos(phi) sin(wt) +
    a sin(phi) cos(wt): one sin row and one cos row per component, times a
    (channels x 2 components) coefficient matrix, block by block.
    """
    info = spec.info
    shape = (info.channel_count, info.sample_count)
    if spec.noise_sigma > 0:
        data = _new_record(shape)
        np.random.Generator(np.random.PCG64(spec.seed)).standard_normal(out=data)
        data *= spec.noise_sigma
    else:
        data = _new_record(shape, np.zeros)
    if spec.components:
        _add_components(data, spec.components, info.sampling_rate_hz)
    return SignalMatrix._adopt(info, data)


def _new_record(shape: tuple[int, int], make=np.empty) -> np.ndarray:
    """make(shape) as float64, or ValidationError naming the shape when it
    is too large to allocate."""
    try:
        return make(shape, dtype=np.float64)
    except (MemoryError, ValueError):  # ValueError: larger than numpy can address
        raise ValidationError(
            f"a record of {shape[0]} channels x {shape[1]} samples is too large to allocate"
        ) from None


def _add_components(
    data: np.ndarray, components: tuple[SineComponent, ...], sampling_rate_hz: float
) -> None:
    """Add every component to data in place, one column block at a time."""
    n_ch, n_samp = data.shape
    n_comp = len(components)
    channel_idx = np.arange(n_ch, dtype=np.float64)
    phases = np.array(
        [comp.phase_rad + channel_idx * comp.channel_phase_step_rad for comp in components]
    ).T
    amplitudes = np.array([comp.amplitude for comp in components])
    coef = np.hstack([amplitudes * np.cos(phases), amplitudes * np.sin(phases)])
    omega = np.array([[2.0 * np.pi * comp.frequency_hz] for comp in components])
    column_bytes = 8 * (2 * n_comp + n_ch)  # one basis column and one product column
    width = max(1, _SYNTH_BLOCK_BYTES // column_bytes // _SYNTH_BLOCK_ALIGN) * _SYNTH_BLOCK_ALIGN
    basis = np.empty((2 * n_comp, min(width, n_samp)), dtype=np.float64)
    for start in range(0, n_samp, width):
        stop = min(start + width, n_samp)
        rows = basis[:, : stop - start]
        t = np.arange(start, stop, dtype=np.float64) / sampling_rate_hz
        np.multiply(omega, t, out=rows[:n_comp])
        np.cos(rows[:n_comp], out=rows[n_comp:])
        np.sin(rows[:n_comp], out=rows[:n_comp])
        data[:, start:stop] += coef @ rows


def broadband_spec(
    *,
    channel_count: int = 59,
    sample_count: int = 166800,
    sampling_rate_hz: float = 600.614,
    seed: int = 7,
    noise_sigma: float = 0.7,
) -> SyntheticSpec:
    """Default multi-band recipe spanning roughly 1.5 to 50 Hz.

    Component frequencies straddle a 2 to 30 Hz pass band so that band-pass
    filtering has both content to keep and content to remove, and the
    per-channel phase steps make every channel distinct.
    """
    bands = (
        (1.5, 0.8),
        (4.0, 1.0),
        (8.0, 0.9),
        (16.0, 1.0),
        (24.0, 0.7),
        (40.0, 0.5),
        (50.0, 0.4),
    )
    components = tuple(
        SineComponent(
            frequency_hz=freq,
            amplitude=amp,
            phase_rad=0.0,
            channel_phase_step_rad=0.37 * (i + 1),
        )
        for i, (freq, amp) in enumerate(bands)
    )
    info = SignalInfo.with_default_labels(sampling_rate_hz, channel_count, sample_count)
    return SyntheticSpec(info=info, components=components, noise_sigma=noise_sigma, seed=seed)


def replicate_signal(signal: SignalMatrix, factor: int) -> SignalMatrix:
    """Concatenate factor copies of the signal along the time axis."""
    factor = _as_count(factor, "replicate factor")
    if factor == 1:
        return signal
    info = SignalInfo(
        sampling_rate_hz=signal.info.sampling_rate_hz,
        channel_count=signal.info.channel_count,
        sample_count=signal.info.sample_count * factor,
        channel_labels=signal.info.channel_labels,
    )
    data = _new_record((info.channel_count, info.sample_count))
    data.reshape(info.channel_count, factor, -1)[...] = signal.data[:, np.newaxis]
    return SignalMatrix._adopt(info, data)


def _base_path(path: str | os.PathLike[str]) -> str:
    base = os.fspath(path)
    for suffix in (_HEADER_SUFFIX, _PAYLOAD_SUFFIX):
        if base.endswith(suffix):
            return base[: -len(suffix)]
    return base


def channel_blocks(info: SignalInfo) -> list[tuple[int, int]]:
    """(start, stop) channel ranges that split a record into the fewest
    blocks of at most _BLOCK_CHANNEL_SAMPLES channel-samples, as equal as
    they can be, larger blocks first.

    A channel longer than that limit is a block of its own.
    """
    most = max(1, min(info.channel_count, _BLOCK_CHANNEL_SAMPLES // info.sample_count))
    count = -(-info.channel_count // most)
    size, extra = divmod(info.channel_count, count)
    bounds = [i * size + min(i, extra) for i in range(count + 1)]
    return list(zip(bounds, bounds[1:]))


@contextmanager
def signal_writer(
    path: str | os.PathLike[str], info: SignalInfo
) -> Iterator[Callable[[np.ndarray], None]]:
    """Write a record of geometry info as <base>.f64 and <base>.json, by channel blocks.

    Yields write(rows), which appends the next channels, a
    (channels, sample_count) array, to the payload: little-endian float64,
    channel-major, channel_count * sample_count * 8 bytes in all. The
    payload goes to a temporary file, which replaces <base>.f64 only when
    the block ends without an exception and every channel has been written;
    the header follows it. On an exception neither file is written.
    """
    base = _base_path(path)
    written = 0

    def write(rows: np.ndarray) -> None:
        nonlocal written
        if (
            rows.ndim != 2
            or rows.shape[1] != info.sample_count
            or written + rows.shape[0] > info.channel_count
        ):
            raise ValidationError(
                f"rows of shape {rows.shape} do not fit after {written} of "
                f"{info.channel_count} channels of {info.sample_count} samples"
            )
        fh.write(np.ascontiguousarray(rows, dtype="<f8"))
        written += rows.shape[0]

    with atomic_open(base + _PAYLOAD_SUFFIX) as fh:
        yield write
        if written != info.channel_count:
            raise ValidationError(f"wrote {written} of {info.channel_count} channels")
    header = {
        "format_version": FORMAT_VERSION,
        "sampling_rate_hz": info.sampling_rate_hz,
        "channel_count": info.channel_count,
        "sample_count": info.sample_count,
        "channel_labels": list(info.channel_labels),
    }
    atomic_write_text(base + _HEADER_SUFFIX, json.dumps(header, sort_keys=True) + "\n")


def store_signal(signal: SignalMatrix, path: str | os.PathLike[str]) -> None:
    """Write <base>.f64 and <base>.json atomically; signal_writer's one-block case."""
    with signal_writer(path, signal.info) as write:
        write(signal.data)


class SignalReader:
    """A record written by store_signal or signal_writer, open for reading
    by channel blocks.

    Opening reads and checks the header and checks the payload size against
    it before any sample is read, so a header that claims a huge geometry
    fails fast instead of exhausting memory. read(start, stop) reads
    channels [start, stop) straight into a fresh array, or into the
    caller's out, and validates them on their own. Use it as a context
    manager, or call close().
    """

    def __init__(self, path: str | os.PathLike[str]) -> None:
        base = _base_path(path)
        self.info = _read_header(base + _HEADER_SUFFIX)
        self.payload_path = base + _PAYLOAD_SUFFIX
        try:
            self._fh = open(self.payload_path, "rb")
        except FileNotFoundError:
            raise SignalFileMissingError(f"payload file not found: {self.payload_path}") from None
        expected = self.info.channel_count * self.info.sample_count * 8
        size = os.fstat(self._fh.fileno()).st_size
        if size != expected:
            self._fh.close()
            raise PayloadSizeError(
                f"payload {self.payload_path} holds {size} bytes, header implies {expected}"
            )

    def read(self, start: int, stop: int, out: np.ndarray | None = None) -> SignalMatrix:
        """Channels [start, stop) of the record, bit exact.

        With out, a writable C-contiguous little-endian float64 array of
        shape (stop - start, sample_count), the samples are read into out
        and the result's data is a read-only view of it: it changes when
        the caller writes to out again, so a caller that reuses out must be
        done with the block first.
        """
        info = self.info
        if not 0 <= start < stop <= info.channel_count:
            raise ValidationError(
                f"channels [{start}, {stop}) are not within the record's {info.channel_count}"
            )
        shape = (stop - start, info.sample_count)
        data = np.empty(shape, dtype="<f8") if out is None else _check_out(out, shape, "<f8")
        self._fh.seek(start * info.sample_count * 8)
        read = self._fh.readinto(data)
        if read != data.nbytes:
            raise PayloadSizeError(
                f"payload {self.payload_path} changed while reading: got {read} bytes "
                f"of channels [{start}, {stop}), header implies {data.nbytes}"
            )
        if stop - start < info.channel_count:
            info = SignalInfo(
                sampling_rate_hz=info.sampling_rate_hz,
                channel_count=stop - start,
                sample_count=info.sample_count,
                channel_labels=info.channel_labels[start:stop],
            )
        return SignalMatrix._adopt(info, data)

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "SignalReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def load_signal(path: str | os.PathLike[str]) -> SignalMatrix:
    """Read a signal written by store_signal; SignalReader's one-block case.

    Round-trips bit exactly.
    """
    with SignalReader(path) as reader:
        return reader.read(0, reader.info.channel_count)


def _read_header(header_path: str) -> SignalInfo:
    try:
        with open(header_path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except FileNotFoundError:
        raise SignalFileMissingError(f"header file not found: {header_path}") from None
    try:
        header = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise HeaderFormatError(f"header is not valid JSON: {header_path}: {exc}") from None
    if not isinstance(header, dict):
        raise HeaderFormatError(f"header must be a JSON object: {header_path}")
    version = header.get("format_version")
    if version != FORMAT_VERSION:
        raise HeaderFormatError(
            f"unsupported format_version {version!r} in {header_path}, expected {FORMAT_VERSION}"
        )
    required = ("sampling_rate_hz", "channel_count", "sample_count", "channel_labels")
    missing = [key for key in required if key not in header]
    if missing:
        raise HeaderFormatError(f"header missing fields {missing} in {header_path}")
    return SignalInfo(
        sampling_rate_hz=_header_rate(header, header_path),
        channel_count=_header_int(header, "channel_count", header_path),
        sample_count=_header_int(header, "sample_count", header_path),
        channel_labels=_header_labels(header, header_path),
    )


def _header_int(header: dict, key: str, header_path: str) -> int:
    value = header[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise HeaderFormatError(f"{key} must be a JSON integer, got {value!r} in {header_path}")
    return value


def _header_labels(header: dict, header_path: str) -> tuple[str, ...]:
    value = header["channel_labels"]
    if not isinstance(value, list) or not all(isinstance(label, str) for label in value):
        raise HeaderFormatError(
            f"channel_labels must be a JSON list of strings, got {value!r} in {header_path}"
        )
    return tuple(value)


def _header_rate(header: dict, header_path: str) -> float:
    value = header["sampling_rate_hz"]
    try:
        finite = not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):  # not a number, or an int beyond float range
        finite = False
    if not finite:
        raise HeaderFormatError(
            f"sampling_rate_hz must be a finite JSON number, got {value!r} in {header_path}"
        )
    return float(value)


def load_signal_csv(path: str | os.PathLike[str], sampling_rate_hz: float) -> SignalMatrix:
    """Import a CSV with one header row of labels and one column per channel."""
    path = os.fspath(path)
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except FileNotFoundError:
        raise SignalFileMissingError(f"csv file not found: {path}") from None
    if not rows:
        raise HeaderFormatError(f"csv file is empty: {path}")
    labels = tuple(lab.strip() for lab in rows[0])
    body = rows[1:]
    if not body:
        raise SignalFileError(f"csv file has no sample rows: {path}")
    columns = len(labels)
    data = np.empty((columns, len(body)), dtype=np.float64)
    for r, row in enumerate(body):
        if len(row) != columns:
            raise SignalFileError(
                f"csv row {r + 2} has {len(row)} cells, header has {columns}: {path}"
            )
        for c, cell in enumerate(row):
            try:
                data[c, r] = float(cell)
            except ValueError:
                raise SignalFileError(
                    f"csv row {r + 2} column {c + 1} is not a number: {cell!r}: {path}"
                ) from None
    info = SignalInfo(
        sampling_rate_hz=sampling_rate_hz,
        channel_count=columns,
        sample_count=len(body),
        channel_labels=labels,
    )
    return SignalMatrix(info=info, data=data)
