"""Windowed-sinc FIR band-pass design.

The band-pass kernel is the difference of two Hamming-windowed sinc
low-passes (high cutoff minus low cutoff), each normalized to unity gain at
DC before subtraction. The kernel length is always odd so the filter has an
integer group delay of (length - 1) / 2 samples, which is what makes exact
zero-phase application possible downstream.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np
from numpy.fft import rfft

from .errors import NyquistViolationError, ValidationError
from ._fsio import atomic_write_csv

# Bytes of complex basis frequency_response builds per block of frequencies.
_RESPONSE_BLOCK_BYTES = 1 << 22

# Bytes of kernel spectra one FirKernel keeps. Live packets of 32-1024
# samples through the 991-tap kernel use about 24 transform lengths, 0.4 MB.
_SPECTRUM_CACHE_BYTES = 1 << 24


@dataclass(frozen=True)
class FilterSpec:
    """Band edges and sampling rate for a band-pass design."""

    low_cut_hz: float
    high_cut_hz: float
    sampling_rate_hz: float
    length_override: int | None = None

    def __post_init__(self) -> None:
        for name in ("low_cut_hz", "high_cut_hz", "sampling_rate_hz"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValidationError(f"{name} must be finite and positive, got {value}")
        if not self.low_cut_hz < self.high_cut_hz:
            raise ValidationError(
                f"low_cut_hz {self.low_cut_hz} must be below high_cut_hz {self.high_cut_hz}"
            )
        if self.high_cut_hz >= self.nyquist_hz:
            raise NyquistViolationError(
                f"high_cut_hz {self.high_cut_hz} must be below "
                f"the Nyquist frequency {self.nyquist_hz}"
            )
        if self.length_override is not None:
            if self.length_override < 3 or self.length_override % 2 == 0:
                raise ValidationError(
                    f"length_override must be an odd integer >= 3, got {self.length_override}"
                )

    @property
    def nyquist_hz(self) -> float:
        return self.sampling_rate_hz / 2.0


@dataclass(frozen=True, eq=False)
class FirKernel:
    """Immutable odd-length symmetric FIR kernel.

    spectrum(n) caches rfft(taps, n) per transform length; the taps are
    read-only, so a cached spectrum can never go stale.
    """

    taps: np.ndarray
    spec: FilterSpec
    _spectra: dict = field(default_factory=dict, init=False, repr=False)
    _spectra_lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False
    )

    def __post_init__(self) -> None:
        arr = np.array(self.taps, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 1 or arr.size % 2 == 0:
            raise ValidationError(f"taps must be a 1-D odd-length vector, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValidationError("taps contain non-finite values")
        if not np.array_equal(arr, arr[::-1]):
            raise ValidationError("taps must be exactly symmetric")
        arr.setflags(write=False)
        object.__setattr__(self, "taps", arr)

    @property
    def length(self) -> int:
        return int(self.taps.size)

    @property
    def group_delay_samples(self) -> int:
        return (self.length - 1) // 2

    def spectrum(self, n: int) -> np.ndarray:
        """rfft(taps, n), read-only, from a cache of transform lengths.

        The cache holds at most _SPECTRUM_CACHE_BYTES and drops its oldest
        lengths first; a spectrum larger than that is not kept.
        """
        cached = self._spectra.get(n)  # one dict read, atomic without the lock
        if cached is not None:
            return cached
        spectrum = rfft(self.taps, n)
        spectrum.setflags(write=False)
        if spectrum.nbytes <= _SPECTRUM_CACHE_BYTES:
            with self._spectra_lock:
                spectra = self._spectra
                spectra[n] = spectrum
                used = sum(s.nbytes for s in spectra.values())
                while used > _SPECTRUM_CACHE_BYTES:
                    used -= spectra.pop(next(iter(spectra))).nbytes
        return spectrum


def transition_bandwidths(spec: FilterSpec) -> tuple[float, float]:
    """Transition width at each band edge in Hz.

    A quarter of the edge frequency, floored at 2 Hz, but never wider than
    the distance to DC (low edge) or to Nyquist (high edge).
    """
    tb_low = min(max(spec.low_cut_hz * 0.25, 2.0), spec.low_cut_hz)
    tb_high = min(max(spec.high_cut_hz * 0.25, 2.0), spec.nyquist_hz - spec.high_cut_hz)
    return tb_low, tb_high


def auto_length(spec: FilterSpec) -> int:
    """Kernel length from the narrower transition band.

    length = 3.3 * sampling_rate / min transition width, rounded to the
    nearest integer and bumped up to the next odd value, never below 3.
    """
    if spec.length_override is not None:
        raise ValidationError("auto_length expects a spec without length_override")
    tb_min = min(transition_bandwidths(spec))
    length = int(np.floor(3.3 * spec.sampling_rate_hz / tb_min + 0.5))
    if length % 2 == 0:
        length += 1
    return max(3, length)


def _windowed_sinc_lowpass(cutoff_hz: float, sampling_rate_hz: float, length: int) -> np.ndarray:
    """Hamming-windowed sinc low-pass with unity DC gain.

    Only the left half including the center tap is evaluated and then
    mirrored, so the result is symmetric bit for bit, not just numerically.
    """
    delay = (length - 1) // 2
    n = np.arange(delay + 1, dtype=np.float64)
    offsets = n - delay
    fc = 2.0 * cutoff_hz / sampling_rate_hz
    half = fc * np.sinc(fc * offsets)
    half *= 0.54 - 0.46 * np.cos(2.0 * np.pi * n / (length - 1))
    taps = np.concatenate([half, half[-2::-1]])
    total = taps.sum()
    if total == 0.0:
        raise ValidationError(
            f"degenerate low-pass design at cutoff {cutoff_hz} Hz, length {length}"
        )
    return taps / total


def design_bandpass(spec: FilterSpec) -> FirKernel:
    """Design the band-pass kernel for a FilterSpec.

    Uses spec.length_override when present, otherwise auto_length(spec).
    """
    length = spec.length_override if spec.length_override is not None else auto_length(spec)
    high_lp = _windowed_sinc_lowpass(spec.high_cut_hz, spec.sampling_rate_hz, length)
    low_lp = _windowed_sinc_lowpass(spec.low_cut_hz, spec.sampling_rate_hz, length)
    return FirKernel(taps=high_lp - low_lp, spec=spec)


def frequency_response(kernel: FirKernel, freqs_hz) -> np.ndarray:
    """Complex response H(f) = sum_k taps[k] exp(-2j pi f k / rate).

    Evaluated by direct summation at the requested frequencies, which must
    lie in [0, Nyquist], a block of frequencies at a time so that memory
    stays bounded for any kernel length.
    """
    freqs = np.atleast_1d(np.asarray(freqs_hz, dtype=np.float64))
    if freqs.ndim != 1:
        raise ValidationError("freqs_hz must be a scalar or 1-D array")
    if not np.isfinite(freqs).all():
        raise ValidationError("freqs_hz contains non-finite values")
    nyquist = kernel.spec.nyquist_hz
    if (freqs < 0).any() or (freqs > nyquist).any():
        raise ValidationError(f"freqs_hz must lie within [0, {nyquist}]")
    k = np.arange(kernel.length, dtype=np.float64)
    scale = -2j * np.pi / kernel.spec.sampling_rate_hz
    response = np.empty(freqs.size, dtype=np.complex128)
    rows = max(1, _RESPONSE_BLOCK_BYTES // (16 * kernel.length))
    for start in range(0, freqs.size, rows):
        basis = np.exp(scale * np.outer(freqs[start : start + rows], k))
        response[start : start + rows] = basis @ kernel.taps
    return response


def export_taps_csv(kernel: FirKernel, path) -> None:
    """Write taps as index,value rows with full float64 precision."""
    rows = (f"{i},{tap!r}" for i, tap in enumerate(kernel.taps.tolist()))
    atomic_write_csv(path, "index,tap", rows)
