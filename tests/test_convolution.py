from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len

from streamfilt import ValidationError, convolution
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

    def test_window_reaching_a_reflection_is_built_in_out(self):
        data = np.arange(20.0).reshape(2, 10)
        out = np.full((2, 6), np.nan)
        assert reflect_pad_columns(data, 3, 0, 6, out) is out
        assert np.array_equal(out, np.pad(data, ((0, 0), (3, 3)), mode="reflect")[:, :6])

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


def _fresh_transforms_per_block(data, taps, pad):
    """The overlap-save loop with a new spectrum and a new inverse for
    every block: the reference the buffered engine must equal bit for bit."""
    length = taps.size
    width = data.shape[1] + 2 * pad
    block = _next_fast_len(max(16 * length, 4096))
    kernel = np.fft.rfft(taps, block)
    out = np.empty((data.shape[0], width - length + 1))
    done = 0
    while done < out.shape[1]:
        stop = min(done + block, width)
        take = min(stop - done - length + 1, out.shape[1] - done)
        spectrum = np.fft.rfft(reflect_pad_columns(data, pad, done, stop), block, axis=-1)
        spectrum *= kernel
        filtered = np.fft.irfft(spectrum, block, axis=-1)
        out[:, done : done + take] = filtered[:, length - 1 : length - 1 + take]
        done += take
    return out


class TestOverlapSave:
    # Records of 3 to 15 blocks, tails shorter than the kernel included.
    CASES = [(2, 60000, 31, 15), (3, 50001, 991, 495), (1, 20000, 101, 0)]

    @pytest.mark.parametrize("channels,width,length,pad", CASES)
    def test_equals_fresh_transforms_per_block(self, channels, width, length, pad):
        rng = np.random.default_rng(width + length)
        data = rng.standard_normal((channels, width))
        taps = rng.standard_normal(length)
        expected = _fresh_transforms_per_block(data, taps, pad)
        out = np.full(expected.shape, np.nan)
        convolve_reflected(data, taps, pad, out, "fft")
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("channels,width,length,pad", CASES)
    def test_every_block_reuses_one_pair_of_buffers(self, monkeypatch, channels, width, length, pad):
        outs = {"rfft": [], "irfft": []}

        def recording(name, transform):
            def call(*args, out=None, **kwargs):
                outs[name].append(out)
                return transform(*args, out=out, **kwargs)

            return call

        for name in outs:
            monkeypatch.setattr(convolution, name, recording(name, getattr(np.fft, name)))
        data = np.random.default_rng(3).standard_normal((channels, width))
        taps = np.random.default_rng(4).standard_normal(length)
        out = np.empty((channels, width + 2 * pad - length + 1))
        convolve_reflected(data, taps, pad, out, "fft", lambda n: np.fft.rfft(taps, n))
        for buffers in outs.values():
            assert len(buffers) >= 3
            assert buffers[0] is not None
            assert all(buf is buffers[0] for buf in buffers)


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
