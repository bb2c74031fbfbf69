"""Valid-mode convolution engines shared by the filtering front ends.

All functions operate on a (channels, width) matrix and a 1-D kernel and
return only fully overlapped output positions (width - length + 1 columns),
so the callers control boundary handling explicitly via padding.

convolve_reflected is the one engine underneath: it convolves the record
reflect-padded by pad columns on each side and writes the valid outputs
into an array the caller allocated, without ever building the padded
record. Only the columns that fall in the reflections are materialised
(reflect_pad_columns); everything else is read straight from the record.
convolve_valid and convolve_valid_direct are the same code with a pad of 0.

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


def reflect_pad_columns(data: np.ndarray, pad: int, start: int, stop: int) -> np.ndarray:
    """Columns [start, stop) of reflect_pad(data, pad), without padding the rest.

    0 <= start <= stop <= width + 2 * pad. A window that lies inside the
    record comes back as a view; otherwise only the window is materialised.
    """
    if pad < 0:
        raise ValidationError(f"pad must be >= 0, got {pad}")
    width = data.shape[1]
    lo, hi = start - pad, stop - pad  # in record columns
    if 0 <= lo and hi <= width:
        return data[:, lo:hi]
    if lo <= -width or hi >= 2 * width:
        # The reflection wraps. Reflecting without repeating the edge is
        # periodic with period 2 * (width - 1), so gather through that.
        period = max(2 * (width - 1), 1)
        index = np.abs(np.arange(lo, hi)) % period
        return np.take(data, np.minimum(index, period - index), axis=1)
    # Column -j mirrors column j, and column width - 1 + j mirrors width - 1 - j.
    left = data[:, 1 - min(hi, 0) : max(1 - lo, 0)][:, ::-1]
    inner = data[:, max(lo, 0) : max(min(hi, width), 0)]
    right = data[:, 2 * width - 1 - hi : 2 * width - 1 - max(lo, width)][:, ::-1]
    return np.concatenate([left, inner, right], axis=1)


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


def _convolve_valid_fft(data: np.ndarray, taps: np.ndarray, pad: int, out: np.ndarray) -> None:
    length = taps.size
    width = data.shape[1] + 2 * pad
    out_width = out.shape[1]
    block = _next_fast_len(max(_BLOCK_KERNEL_FACTOR * length, _BLOCK_MIN))
    single = _next_fast_len(width)
    if single <= 2 * block:
        # The padded record goes straight into the zero-filled transform
        # buffer, and the spectrum is filtered in place: short inputs (live
        # packets) are dominated by fresh allocations, not by arithmetic.
        buf = np.zeros((data.shape[0], single), dtype=np.float64)
        buf[:, :width] = reflect_pad_columns(data, pad, 0, width)
        spectrum = rfft(buf, axis=-1)
        del buf
        spectrum *= rfft(taps, single)
        out[...] = irfft(spectrum, single, axis=-1)[:, length - 1 : width]
        return
    kernel_spectrum = rfft(taps, block)

    # A function, so each block's chunk, spectrum and inverse are freed
    # before the next block starts.
    def filtered(start: int, stop: int) -> np.ndarray:
        # Only the first and last blocks reach into the reflections; rfft
        # zero-pads a short tail chunk up to the block length.
        spectrum = rfft(reflect_pad_columns(data, pad, start, stop), block, axis=-1)
        spectrum *= kernel_spectrum
        return irfft(spectrum, block, axis=-1)

    done = 0
    while done < out_width:
        stop = min(done + block, width)
        take = min(stop - done - length + 1, out_width - done)
        out[:, done : done + take] = filtered(done, stop)[:, length - 1 : length - 1 + take]
        done += take


def choose_method(width: int, length: int) -> str:
    """Pick an engine from the problem size alone, so the choice is
    deterministic for a given geometry."""
    out_width = width - length + 1
    if out_width <= 0 or out_width * length <= _DIRECT_WORK_LIMIT:
        return "direct"
    return "fft"


def convolve_reflected(
    data: np.ndarray, taps: np.ndarray, pad: int, out: np.ndarray, method: str = "auto"
) -> np.ndarray:
    """Write convolve_valid(reflect_pad(data, pad), taps, method) into out.

    out must have shape (channels, width + 2 * pad - length + 1), or zero
    columns when that is not positive; it may be a view into a larger array.
    The padded record is never built: the FFT engine reads its blocks from
    data and the direct engine pads one row at a time.
    """
    width = data.shape[1] + 2 * pad
    expected = (data.shape[0], max(width - taps.size + 1, 0))
    if out.shape != expected:
        raise ValidationError(f"output shape {out.shape} does not match {expected}")
    if method not in METHODS:
        raise ValidationError(f"unknown convolution method {method!r}")
    if method == "auto":
        method = choose_method(width, taps.size)
    if out.shape[1] == 0:
        return out
    if method == "fft":
        _convolve_valid_fft(data, taps, pad, out)
    else:
        for ch in range(data.shape[0]):
            row = reflect_pad_columns(data[ch : ch + 1], pad, 0, width)[0]
            out[ch] = np.convolve(row, taps, mode="valid")
    return out


def _valid_output(data: np.ndarray, taps: np.ndarray) -> np.ndarray:
    out_width = max(data.shape[1] - taps.size + 1, 0)
    return np.empty((data.shape[0], out_width), dtype=np.float64)


def convolve_valid_direct(data: np.ndarray, taps: np.ndarray) -> np.ndarray:
    return convolve_reflected(data, taps, 0, _valid_output(data, taps), "direct")


def convolve_valid(data: np.ndarray, taps: np.ndarray, method: str = "auto") -> np.ndarray:
    return convolve_reflected(data, taps, 0, _valid_output(data, taps), method)
