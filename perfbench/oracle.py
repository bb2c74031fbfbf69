"""The benchmark's own reference results.

The filter oracle is the textbook zero-phase recipe: reflect-pad each record
by the group delay with np.pad, then take a per-channel np.convolve in
"valid" mode. It shares no code with streamfilt's engines.
"""

from __future__ import annotations

import numpy as np


def reflect_filter(data: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Zero-phase filter of every row of a (channels, samples) record."""
    delay = (taps.size - 1) // 2
    padded = np.pad(data, ((0, 0), (delay, delay)), mode="reflect")
    out = np.empty(data.shape, dtype=np.float64)
    for ch in range(data.shape[0]):
        out[ch] = np.convolve(padded[ch], taps, mode="valid")
    return out


def per_packet_filter(data: np.ndarray, taps: np.ndarray, size: int) -> np.ndarray:
    """Each size-sample packet (and the shorter tail) filtered as its own record.

    The recipe is linear and every full packet has the same length, so it
    is run once on the identity (one impulse per row) to get its matrix,
    which is then applied to all full packets in one product. The tail
    packet goes through the recipe directly.
    """
    channels, samples = data.shape
    full = samples // size
    out = np.empty(data.shape, dtype=np.float64)
    if full:
        responses = reflect_filter(np.eye(size), taps)
        packets = data[:, : full * size].reshape(channels * full, size)
        out[:, : full * size] = (packets @ responses).reshape(channels, full * size)
    if full * size < samples:
        out[:, full * size :] = reflect_filter(data[:, full * size :], taps)
    return out


def pearson_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-row Pearson correlation, two-pass."""
    da = a - a.mean(axis=1, keepdims=True)
    db = b - b.mean(axis=1, keepdims=True)
    num = np.einsum("ij,ij->i", da, db)
    den = np.sqrt(np.einsum("ij,ij->i", da, da) * np.einsum("ij,ij->i", db, db))
    return num / den
