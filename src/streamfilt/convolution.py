"""Valid-mode convolution engines shared by the filtering front ends.

All functions operate on a (channels, width) matrix and a 1-D kernel and
return only fully overlapped output positions (width - length + 1 columns),
so the callers control boundary handling explicitly via padding.

ReflectedConvolver is the one engine underneath: it convolves the record
reflect-padded by pad columns on each side, or any window of those padded
columns, and writes the valid outputs into an array the caller allocated,
without ever building the padded record. Only the columns that fall in the
reflections are materialised; everything else is read straight from the
record. It does the work that depends on the input's shape once, so a loop
over equal packets reuses it; convolve_valid and convolve_valid_direct are
the same code with a pad of 0.

Two engines are provided. The direct engine is one np.convolve per channel
and is also the reference for the streaming path, whose outputs must be
bitwise reproducible across packetizations. The FFT engine evaluates the
same valid window positions through circular convolution: wraparound only
contaminates output indices below length - 1, which the valid slice skips.
It is one overlap-save loop: a short input is one block of a fast length,
a long one fixed-size blocks, faster and lighter than one huge transform.
A convolver plans its blocks once, and every block of every call goes
through the same spectrum and time buffers (numpy.fft's out=, numpy 2.0
and later), so a loop over packets maps no fresh pages. Either engine sees
exactly the values of the padded record, so its output does not depend on
whether the padding was built in advance.

The kernel spectrum depends only on the taps and the transform length. A
caller that filters many inputs with one kernel passes a cached source of
it (FirKernel.spectrum); without one, the convolver transforms the taps.
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np
from numpy.fft import irfft, rfft

from .errors import ValidationError

# Engine names: "auto" picks "direct" or "fft" from the problem size.
METHODS = ("auto", "direct", "fft")

# Direct cost is roughly outputs * length multiplies per channel; below this
# the FFT setup overhead dominates.
_DIRECT_WORK_LIMIT = 4096

# Overlap-save block length target, picked so the kernel occupies a small
# fraction of each block.
_BLOCK_KERNEL_FACTOR = 16
_BLOCK_MIN = 4096


def _reflection(width: int, pad: int, start: int, stop: int):
    """How columns [start, stop) of reflect_pad(data, pad) come from a record
    of width columns, worked out from the shape alone.

    pad >= 0 and 0 <= start <= stop <= width + 2 * pad, else ValidationError.
    Returns the slice of record columns when the window lies inside the
    record, else a list of (first, last, src_first, src_last, backwards)
    copies: window columns [first, last) take record columns [src_first,
    src_last), backwards if set. The copies cover at most one period of the
    reflection; a window longer than that (its reflection wraps) repeats
    them, as _copy_reflection does.
    """
    if pad < 0:
        raise ValidationError(f"pad must be >= 0, got {pad}")
    if not 0 <= start <= stop <= width + 2 * pad:
        raise ValidationError(f"columns [{start}, {stop}) are not in the padded record")
    lo, hi = start - pad, stop - pad  # in record columns
    if 0 <= lo and hi <= width:
        return slice(lo, hi)
    # Reflecting without repeating the edge is periodic with period
    # 2 * (width - 1): at phase j of a period a column takes record column
    # j while j < width, then period - j, back down to column 1.
    period = max(2 * (width - 1), 1)
    copies, first, last = [], 0, min(hi - lo, period)
    while first < last:
        phase = (lo + first) % period
        if phase < width:
            run = min(width - phase, last - first)
            copies.append((first, first + run, phase, phase + run, False))
        else:
            run = min(period - phase, last - first)
            copies.append((first, first + run, period - phase - run + 1, period - phase + 1, True))
        first += run
    return copies


def _copy_reflection(data: np.ndarray, reflection, out: np.ndarray) -> None:
    """Write the window that reflection describes (see _reflection) into out.

    A wrapped window's first period is copied from the record and the rest
    from out itself, doubling the columns written with each copy, so even a
    1- or 2-column record takes a few copies, not one per column.
    """
    written = 0
    for first, last, src_first, src_last, backwards in reflection:
        src = data[:, src_first:src_last]
        out[:, first:last] = src[:, ::-1] if backwards else src
        written = last
    while written < out.shape[1]:
        run = min(written, out.shape[1] - written)
        out[:, written : written + run] = out[:, :run]
        written += run


def reflect_pad_columns(data: np.ndarray, pad: int, start: int, stop: int) -> np.ndarray:
    """Columns [start, stop) of reflect_pad(data, pad), without padding the rest.

    0 <= start <= stop <= width + 2 * pad. A window that lies inside the
    record comes back as a view; otherwise only the window is materialised.
    """
    window = _reflection(data.shape[1], pad, start, stop)
    if isinstance(window, slice):
        return data[:, window]
    out = np.empty((data.shape[0], stop - start), dtype=np.float64)
    _copy_reflection(data, window, out)
    return out


def reflect_pad(data: np.ndarray, pad: int) -> np.ndarray:
    """Pad both ends of each row by reflection without repeating the edge."""
    return reflect_pad_columns(data, pad, 0, data.shape[1] + 2 * pad)


@functools.lru_cache(maxsize=1024)
def _next_fast_len(n: int) -> int:
    """Smallest 5-smooth number (2^a 3^b 5^c) >= n, for n >= 1.

    These are the real-transform lengths pocketfft handles fastest; the
    result equals scipy.fft.next_fast_len(n, real=True). Cached, since
    every live packet asks for the same few lengths.
    """
    best = 1 << (n - 1).bit_length()
    power5 = 1
    while power5 < best:
        odd = power5  # 3^b 5^c
        while odd < best:
            # The smallest odd * 2^k that reaches n.
            best = min(best, odd << (-(-n // odd) - 1).bit_length())
            odd *= 3
        power5 *= 5
    return best


def choose_method(width: int, length: int) -> str:
    """Pick an engine from the problem size alone, so the choice is
    deterministic for a given geometry."""
    out_width = width - length + 1
    if out_width <= 0 or out_width * length <= _DIRECT_WORK_LIMIT:
        return "direct"
    return "fft"


class ReflectedConvolver:
    """convolve_valid(reflect_pad(data, pad)[:, lo:hi], taps, method) for
    every input of one shape, on columns = (lo, hi) of the padded record
    (default: all), into hi - lo - length + 1 columns, or none when that is
    not positive. The output may be a view into a larger array; the padded
    record is never built.

    The constructor does the work that depends on the shape alone: it picks
    the engine, works out the reflection, and for the FFT engine the block
    length, the kernel spectrum, every block's (start, width, take, window)
    and the spectrum and time buffers. Calling the convolver on data of that
    shape then does only the per-input work, so a loop over equal packets
    pays the rest once. The buffers make a convolver single-threaded: give
    each thread its own. spectrum(n) must return rfft(taps, n); None
    computes it here.
    """

    def __init__(
        self,
        shape: tuple[int, int],
        taps: np.ndarray,
        pad: int,
        method: str = "auto",
        spectrum: Callable[[int], np.ndarray] | None = None,
        columns: tuple[int, int] | None = None,
    ) -> None:
        if method not in METHODS:
            raise ValidationError(f"unknown convolution method {method!r}")
        rows, record_width = shape
        lo, hi = (0, record_width + 2 * pad) if columns is None else columns
        self._window = _reflection(record_width, pad, lo, hi)
        width, length = hi - lo, taps.size
        out_width = max(width - length + 1, 0)
        self.shape, self.out_shape = (rows, record_width), (rows, out_width)
        self.columns, self._taps = (lo, hi), taps
        self._method = choose_method(width, length) if method == "auto" else method
        if self._method == "fft" and out_width:
            block = _next_fast_len(max(_BLOCK_KERNEL_FACTOR * length, _BLOCK_MIN))
            if _next_fast_len(width) <= 2 * block:  # short inputs: one block
                block = _next_fast_len(width)
            self._blocks, done = [], 0
            while done < out_width:
                stop = min(done + block, width)
                take = min(stop - done - length + 1, out_width - done)
                window = _reflection(record_width, pad, lo + done, lo + stop)
                self._blocks.append((done, stop - done, take, window))
                done += take
            self._kernel_spectrum = rfft(taps, block) if spectrum is None else spectrum(block)
            self._spectrum = np.empty((rows, block // 2 + 1), dtype=np.complex128)
            self._filtered = np.empty((rows, block), dtype=np.float64)

    def __call__(self, data: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write convolve_valid(reflect_pad(data, pad)[:, lo:hi], taps) into out."""
        if data.shape != self.shape:
            raise ValidationError(f"input shape {data.shape} does not match {self.shape}")
        if out.shape != self.out_shape:
            raise ValidationError(f"output shape {out.shape} does not match {self.out_shape}")
        if self.out_shape[1] == 0:
            return out
        if self._method == "fft":
            self._overlap_save(data, out)
        else:
            self._direct(data, out)
        return out

    def _overlap_save(self, data: np.ndarray, out: np.ndarray) -> None:
        spectrum, filtered, skip = self._spectrum, self._filtered, self._taps.size - 1
        block = filtered.shape[1]
        for start, width, take, window in self._blocks:
            # A block inside the record is read in place (copying it made
            # one-thread batch 14 percent slower); one that reaches a
            # reflection is built in the time buffer, free until the inverse.
            if isinstance(window, slice):
                chunk = data[:, window]
            else:
                chunk = filtered
                _copy_reflection(data, window, filtered[:, :width])
                filtered[:, width:] = 0.0
            rfft(chunk, block, axis=-1, out=spectrum)
            spectrum *= self._kernel_spectrum
            irfft(spectrum, block, axis=-1, out=filtered)
            out[:, start : start + take] = filtered[:, skip : skip + take]

    def _direct(self, data: np.ndarray, out: np.ndarray) -> None:
        # One padded row at a time; a window inside the record is read in place.
        window, row = self._window, np.empty((1, self.columns[1] - self.columns[0]))
        for ch in range(data.shape[0]):
            if isinstance(window, slice):
                padded = data[ch, window]
            else:
                _copy_reflection(data[ch : ch + 1], window, row)
                padded = row[0]
            out[ch] = np.convolve(padded, self._taps, mode="valid")


def convolve_valid_direct(data: np.ndarray, taps: np.ndarray) -> np.ndarray:
    return convolve_valid(data, taps, "direct")


def convolve_valid(data: np.ndarray, taps: np.ndarray, method: str = "auto") -> np.ndarray:
    convolver = ReflectedConvolver(data.shape, taps, 0, method)
    return convolver(data, np.empty(convolver.out_shape, dtype=np.float64))
