"""Valid-mode convolution engines shared by the filtering front ends.

All functions operate on a (channels, width) matrix and a 1-D kernel and
return only fully overlapped output positions (width - length + 1 columns),
so the callers control boundary handling explicitly via padding.

Two engines are provided. The direct engine is one np.convolve per channel
and is also the reference for the streaming path, whose outputs must be
bitwise reproducible across packetizations. The FFT engine evaluates the
same valid window positions through circular convolution: wraparound only
contaminates output indices below length - 1, which the valid slice skips.
Long inputs use fixed-size overlap-save blocks instead of one huge
transform, which is both faster and lighter on memory.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

# Direct cost is roughly outputs * length multiplies per channel; below this
# the FFT setup overhead dominates.
_DIRECT_WORK_LIMIT = 4096

# Overlap-save block length target, picked so the kernel occupies a small
# fraction of each block.
_BLOCK_KERNEL_FACTOR = 16
_BLOCK_MIN = 4096


def reflect_pad(data: np.ndarray, pad: int) -> np.ndarray:
    """Pad both ends of each row by reflection without repeating the edge."""
    if pad < 0:
        raise ValidationError(f"pad must be >= 0, got {pad}")
    if pad == 0:
        return data
    return np.pad(data, ((0, 0), (pad, pad)), mode="reflect")


def edge_reflections(data: np.ndarray, pad: int) -> tuple[np.ndarray, np.ndarray]:
    """Left and right reflect-padding(pad) columns of each row.

    Equivalent to slicing reflect_pad(data, pad) but only materializes the
    two pads. Falls back to np.pad when rows are too short to slice the
    reflection directly (the reflection then wraps).
    """
    if pad < 0:
        raise ValidationError(f"pad must be >= 0, got {pad}")
    width = data.shape[1]
    if pad == 0:
        empty = data[:, :0]
        return empty, empty
    if width > pad:
        return data[:, pad:0:-1], data[:, width - 2 : width - 2 - pad : -1]
    padded = reflect_pad(data, pad)
    return padded[:, :pad], padded[:, width + pad :]


def convolve_valid_direct(data: np.ndarray, taps: np.ndarray) -> np.ndarray:
    out_width = data.shape[1] - taps.size + 1
    if out_width <= 0:
        return np.empty((data.shape[0], 0), dtype=np.float64)
    out = np.empty((data.shape[0], out_width), dtype=np.float64)
    for ch in range(data.shape[0]):
        out[ch] = np.convolve(data[ch], taps, mode="valid")
    return out


def _convolve_valid_fft(data: np.ndarray, taps: np.ndarray) -> np.ndarray:
    # Imported here so that runs that never take the FFT engine (stateful,
    # compare) do not pay for loading scipy.fft.
    from scipy.fft import irfft, next_fast_len, rfft

    length = taps.size
    width = data.shape[1]
    out_width = width - length + 1
    if out_width <= 0:
        return np.empty((data.shape[0], 0), dtype=np.float64)
    block = next_fast_len(max(_BLOCK_KERNEL_FACTOR * length, _BLOCK_MIN), real=True)
    single = next_fast_len(width, real=True)
    if single <= 2 * block:
        spectrum = rfft(data, single, axis=-1) * rfft(taps, single)
        full = irfft(spectrum, single, axis=-1)
        return np.ascontiguousarray(full[:, length - 1 : width])
    kernel_spectrum = rfft(taps, block)
    out = np.empty((data.shape[0], out_width), dtype=np.float64)
    done = 0
    while done < out_width:
        # rfft zero-pads short tail chunks up to the block length.
        chunk = data[:, done : done + block]
        segment = irfft(rfft(chunk, block, axis=-1) * kernel_spectrum, block, axis=-1)
        take = min(chunk.shape[1] - length + 1, out_width - done)
        out[:, done : done + take] = segment[:, length - 1 : length - 1 + take]
        done += take
    return out


def choose_method(width: int, length: int) -> str:
    """Pick an engine from the problem size alone, so the choice is
    deterministic for a given geometry."""
    out_width = width - length + 1
    if out_width <= 0 or out_width * length <= _DIRECT_WORK_LIMIT:
        return "direct"
    return "fft"


def convolve_valid(data: np.ndarray, taps: np.ndarray, method: str = "auto") -> np.ndarray:
    if method == "auto":
        method = choose_method(data.shape[1], taps.size)
    if method == "direct":
        return convolve_valid_direct(data, taps)
    if method == "fft":
        return _convolve_valid_fft(data, taps)
    raise ValidationError(f"unknown convolution method {method!r}")
