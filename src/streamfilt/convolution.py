"""Valid-mode convolution engines shared by the filtering front ends.

All functions operate on a (channels, width) matrix and a 1-D kernel and
return only fully overlapped output positions (width - length + 1 columns),
so the callers control boundary handling explicitly via padding.

ReflectedConvolver is the one engine underneath: it convolves the record
reflect-padded by pad columns on each side and writes the valid outputs
into an array the caller allocated, without ever building the padded
record. Only the columns that fall in the reflections are materialised;
everything else is read straight from the record. It does the work that
depends on the input's shape once, so a loop over equal packets reuses it;
convolve_reflected is its one-call form, and convolve_valid and
convolve_valid_direct are the same code with a pad of 0.

Two engines are provided. The direct engine is one np.convolve per channel
and is also the reference for the streaming path, whose outputs must be
bitwise reproducible across packetizations. The FFT engine evaluates the
same valid window positions through circular convolution: wraparound only
contaminates output indices below length - 1, which the valid slice skips.
Long inputs use fixed-size overlap-save blocks instead of one huge
transform, which is both faster and lighter on memory. Either engine sees
exactly the values of the padded record, so its output does not depend on
whether the padding was built in advance.
"""

from __future__ import annotations

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

    0 <= start <= stop <= width + 2 * pad. Returns a gather index when the
    reflection wraps, else a list of (first, last, src_first, src_last,
    reversed) copies: window columns [first, last) take record columns
    [src_first, src_last), in reverse order when reversed is set.
    """
    if pad < 0:
        raise ValidationError(f"pad must be >= 0, got {pad}")
    lo, hi = start - pad, stop - pad  # in record columns
    if lo <= -width or hi >= 2 * width:
        # The reflection wraps. Reflecting without repeating the edge is
        # periodic with period 2 * (width - 1), so gather through that.
        period = max(2 * (width - 1), 1)
        index = np.abs(np.arange(lo, hi)) % period
        return np.minimum(index, period - index)
    # Column -j mirrors column j, and column width - 1 + j mirrors width - 1 - j.
    sources = (
        (1 - min(hi, 0), max(1 - lo, 0), True),
        (max(lo, 0), max(min(hi, width), 0), False),
        (2 * width - 1 - hi, 2 * width - 1 - max(lo, width), True),
    )
    copies, first = [], 0
    for src_first, src_last, backwards in sources:
        if src_last > src_first:
            last = first + src_last - src_first
            copies.append((first, last, src_first, src_last, backwards))
            first = last
    return copies


def _copy_reflection(data: np.ndarray, reflection, out: np.ndarray) -> None:
    """Write the window that reflection describes (see _reflection) into out."""
    if isinstance(reflection, np.ndarray):
        out[...] = np.take(data, reflection, axis=1)
        return
    for first, last, src_first, src_last, backwards in reflection:
        src = data[:, src_first:src_last]
        out[:, first:last] = src[:, ::-1] if backwards else src


def reflect_pad_columns(data: np.ndarray, pad: int, start: int, stop: int) -> np.ndarray:
    """Columns [start, stop) of reflect_pad(data, pad), without padding the rest.

    0 <= start <= stop <= width + 2 * pad. A window that lies inside the
    record comes back as a view; otherwise only the window is materialised.
    """
    if pad >= 0 and 0 <= start - pad and stop - pad <= data.shape[1]:
        return data[:, start - pad : stop - pad]
    reflection = _reflection(data.shape[1], pad, start, stop)
    out = np.empty((data.shape[0], stop - start), dtype=np.float64)
    _copy_reflection(data, reflection, out)
    return out


def reflect_pad(data: np.ndarray, pad: int) -> np.ndarray:
    """Pad both ends of each row by reflection without repeating the edge."""
    return reflect_pad_columns(data, pad, 0, data.shape[1] + 2 * pad)


def _next_fast_len(n: int) -> int:
    """Smallest 5-smooth number (2^a 3^b 5^c) >= n, for n >= 1.

    These are the real-transform lengths pocketfft handles fastest; the
    result equals scipy.fft.next_fast_len(n, real=True).
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
    """convolve_reflected for every input of one shape.

    The constructor does the work that depends on the shape alone: it picks
    the engine, works out the reflection, and for the FFT engine the
    transform length, the kernel spectrum and the zero-tailed transform
    buffer. Calling the convolver on data of that shape then does only the
    per-input work, so a loop over equal packets pays the rest once. The
    buffer makes a convolver single-threaded: give each thread its own.
    """

    def __init__(
        self, shape: tuple[int, int], taps: np.ndarray, pad: int, method: str = "auto"
    ) -> None:
        if method not in METHODS:
            raise ValidationError(f"unknown convolution method {method!r}")
        rows, record_width = shape
        width = record_width + 2 * pad
        length = taps.size
        self.shape = (rows, record_width)
        self.out_shape = (rows, max(width - length + 1, 0))
        self._taps, self._pad, self._width = taps, pad, width
        self._reflection = _reflection(record_width, pad, 0, width)
        self._method = choose_method(width, length) if method == "auto" else method
        self._buf = None
        if self._method == "fft" and self.out_shape[1]:
            block = _next_fast_len(max(_BLOCK_KERNEL_FACTOR * length, _BLOCK_MIN))
            single = _next_fast_len(width)
            if single <= 2 * block:
                # The padded input goes straight into the zero-filled
                # transform buffer, whose tail stays zero from call to call,
                # and the spectrum is filtered in place: short inputs (live
                # packets) are dominated by fresh allocations, not by
                # arithmetic.
                self._buf = np.zeros((rows, single), dtype=np.float64)
                block = single
            self._block = block
            self._kernel_spectrum = rfft(taps, block)

    def __call__(self, data: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write convolve_valid(reflect_pad(data, pad), taps) into out."""
        if data.shape != self.shape:
            raise ValidationError(f"input shape {data.shape} does not match {self.shape}")
        if out.shape != self.out_shape:
            raise ValidationError(f"output shape {out.shape} does not match {self.out_shape}")
        if self.out_shape[1] == 0:
            return out
        if self._buf is not None:
            self._single_fft(data, out)
        elif self._method == "fft":
            self._overlap_save(data, out)
        else:
            self._direct(data, out)
        return out

    def _single_fft(self, data: np.ndarray, out: np.ndarray) -> None:
        buf, width, block = self._buf, self._width, self._block
        _copy_reflection(data, self._reflection, buf[:, :width])
        spectrum = rfft(buf, axis=-1)
        spectrum *= self._kernel_spectrum
        out[...] = irfft(spectrum, block, axis=-1)[:, self._taps.size - 1 : width]

    def _overlap_save(self, data: np.ndarray, out: np.ndarray) -> None:
        length, pad, width, block = self._taps.size, self._pad, self._width, self._block

        # A function, so each block's chunk, spectrum and inverse are freed
        # before the next block starts.
        def filtered(start: int, stop: int) -> np.ndarray:
            # Only the first and last blocks reach into the reflections;
            # rfft zero-pads a short tail chunk up to the block length.
            spectrum = rfft(reflect_pad_columns(data, pad, start, stop), block, axis=-1)
            spectrum *= self._kernel_spectrum
            return irfft(spectrum, block, axis=-1)

        out_width = out.shape[1]
        done = 0
        while done < out_width:
            stop = min(done + block, width)
            take = min(stop - done - length + 1, out_width - done)
            out[:, done : done + take] = filtered(done, stop)[:, length - 1 : length - 1 + take]
            done += take

    def _direct(self, data: np.ndarray, out: np.ndarray) -> None:
        # One padded row at a time, so the padded input is never built whole.
        inside = self._pad == 0
        row = None if inside else np.empty((1, self._width), dtype=np.float64)
        for ch in range(data.shape[0]):
            if inside:
                padded = data[ch]
            else:
                _copy_reflection(data[ch : ch + 1], self._reflection, row)
                padded = row[0]
            out[ch] = np.convolve(padded, self._taps, mode="valid")


def convolve_reflected(
    data: np.ndarray, taps: np.ndarray, pad: int, out: np.ndarray, method: str = "auto"
) -> np.ndarray:
    """Write convolve_valid(reflect_pad(data, pad), taps, method) into out.

    out must have shape (channels, width + 2 * pad - length + 1), or zero
    columns when that is not positive; it may be a view into a larger array.
    The padded record is never built: the FFT engine reads its blocks from
    data and the direct engine pads one row at a time. A loop over inputs
    of one shape should build one ReflectedConvolver instead.
    """
    return ReflectedConvolver(data.shape, taps, pad, method)(data, out)


def _valid_output(data: np.ndarray, taps: np.ndarray) -> np.ndarray:
    out_width = max(data.shape[1] - taps.size + 1, 0)
    return np.empty((data.shape[0], out_width), dtype=np.float64)


def convolve_valid_direct(data: np.ndarray, taps: np.ndarray) -> np.ndarray:
    return convolve_reflected(data, taps, 0, _valid_output(data, taps), "direct")


def convolve_valid(data: np.ndarray, taps: np.ndarray, method: str = "auto") -> np.ndarray:
    return convolve_reflected(data, taps, 0, _valid_output(data, taps), method)
