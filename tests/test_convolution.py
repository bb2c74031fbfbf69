from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len

from streamfilt import ValidationError
from streamfilt.convolution import (
    _next_fast_len,
    convolve_reflected,
    convolve_valid,
    reflect_pad,
    reflect_pad_columns,
)


@st.composite
def _padded_windows(draw):
    width = draw(st.integers(1, 40))
    pad = draw(st.integers(0, 60))
    total = width + 2 * pad
    start = draw(st.integers(0, total))
    stop = draw(st.integers(start, total))
    return width, pad, start, stop


class TestReflectPadColumns:
    @settings(max_examples=300, deadline=None)
    @given(_padded_windows(), st.integers(1, 3))
    def test_equals_np_pad_window(self, window, channels):
        # Includes records no wider than the pad, where the reflection wraps.
        width, pad, start, stop = window
        data = np.random.default_rng(width * 97 + pad).standard_normal((channels, width))
        expected = np.pad(data, ((0, 0), (pad, pad)), mode="reflect")[:, start:stop]
        got = reflect_pad_columns(data, pad, start, stop)
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)

    def test_window_inside_record_is_a_view(self):
        data = np.arange(20.0).reshape(2, 10)
        assert np.shares_memory(reflect_pad_columns(data, 3, 3, 13), data)

    def test_negative_pad_rejected(self):
        with pytest.raises(ValidationError):
            reflect_pad_columns(np.zeros((1, 5)), -1, 0, 3)
        with pytest.raises(ValidationError):
            reflect_pad(np.zeros((1, 5)), -1)


class TestConvolveReflected:
    @pytest.mark.parametrize("method", ["direct", "fft"])
    @pytest.mark.parametrize("width,pad", [(300, 15), (7, 15), (50, 0)])
    def test_equals_convolving_the_padded_record(self, method, width, pad):
        data = np.random.default_rng(width + pad).standard_normal((2, width))
        taps = np.random.default_rng(1).standard_normal(31)
        padded = reflect_pad(data, pad)
        expected = convolve_valid(padded, taps, method)
        out = np.full(expected.shape, np.nan)
        convolve_reflected(data, taps, pad, out, method)
        assert np.array_equal(out, expected)

    def test_writes_into_a_column_slice(self):
        data = np.random.default_rng(2).standard_normal((2, 100))
        taps = np.ones(11) / 11
        full = np.zeros((2, 300))
        convolve_reflected(data, taps, 5, full[:, 100:200], "direct")
        assert np.array_equal(full[:, 100:200], convolve_valid(reflect_pad(data, 5), taps, "direct"))
        assert not full[:, :100].any() and not full[:, 200:].any()

    def test_wrong_output_shape_rejected(self):
        with pytest.raises(ValidationError):
            convolve_reflected(np.zeros((2, 100)), np.ones(11), 5, np.empty((2, 99)))

    def test_unknown_method_rejected(self):
        with pytest.raises(ValidationError):
            convolve_reflected(np.zeros((1, 100)), np.ones(3), 1, np.empty((1, 100)), "fast")


# Every 5-smooth number up to 2^25, sorted: the oracle for _next_fast_len.
_SMOOTH = sorted(
    2**a * 3**b * 5**c
    for a in range(26)
    for b in range(16)
    for c in range(11)
    if 2**a * 3**b * 5**c <= 2**25
)


class TestNextFastLen:
    @settings(max_examples=500, deadline=None)
    @given(st.integers(1, 2**24))
    def test_smallest_5_smooth_at_least_n(self, n):
        got = _next_fast_len(n)
        assert got >= n
        assert got in _SMOOTH
        assert not [s for s in _SMOOTH if n <= s < got]

    def test_equals_scipy_next_fast_len(self):
        # The transform lengths, and so the FFT engine's output bytes, are
        # the ones scipy.fft chose when the engine ran on it.
        got = [_next_fast_len(n) for n in range(1, 2**17 + 1)]
        assert got == [next_fast_len(n, real=True) for n in range(1, 2**17 + 1)]
