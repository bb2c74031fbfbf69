from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len

from streamfilt import ValidationError, convolution
from streamfilt.convolution import (
    ReflectedConvolver,
    _next_fast_len,
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

    @pytest.mark.parametrize("width", [1, 2, 3, 200])
    def test_a_wrapped_window_takes_a_few_copies(self, width):
        # The reflection of 1 or 2 columns repeats every 1 or 2 columns; 991
        # padded columns of it take one period of copies from the record and
        # then copies that double what is written, not one per column.
        pad = 495
        data = np.random.default_rng(width).standard_normal((2, width))
        assignments = []

        class Counting(np.ndarray):
            def __setitem__(self, key, value):
                assignments.append(key)
                super().__setitem__(key, value)

        out = np.empty((2, width + 2 * pad)).view(Counting)
        reflection = convolution._reflection(width, pad, 0, width + 2 * pad)
        convolution._copy_reflection(data, reflection, out)
        expected = np.pad(data, ((0, 0), (pad, pad)), mode="reflect")
        assert np.array_equal(np.asarray(out), expected)
        assert len(assignments) <= 3 + math.ceil(math.log2(out.shape[1]))

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
        ReflectedConvolver(data.shape, taps, pad, method)(data, out)
        assert np.array_equal(out, expected)

    def test_writes_into_a_column_slice(self):
        data = np.random.default_rng(2).standard_normal((2, 100))
        taps = np.ones(11) / 11
        full = np.zeros((2, 300))
        ReflectedConvolver(data.shape, taps, 5, "direct")(data, full[:, 100:200])
        assert np.array_equal(full[:, 100:200], convolve_valid(reflect_pad(data, 5), taps, "direct"))
        assert not full[:, :100].any() and not full[:, 200:].any()

    def test_wrong_output_shape_rejected(self):
        with pytest.raises(ValidationError):
            ReflectedConvolver((2, 100), np.ones(11), 5)(np.zeros((2, 100)), np.empty((2, 99)))

    def test_unknown_method_rejected(self):
        with pytest.raises(ValidationError):
            ReflectedConvolver((1, 100), np.ones(3), 1, "fast")


def _fresh_transforms_per_block(data, taps, pad, columns=None):
    """The overlap-save loop with a new spectrum and a new inverse for
    every block: the reference the buffered engine must equal bit for bit.
    columns = (lo, hi) convolves only those columns of the padded record
    (default: all of them). An input of at most two standard blocks is one
    block of its own fast length."""
    length = taps.size
    lo, hi = (0, data.shape[1] + 2 * pad) if columns is None else columns
    width = hi - lo
    block = _next_fast_len(max(16 * length, 4096))
    if _next_fast_len(width) <= 2 * block:
        block = _next_fast_len(width)
    kernel = np.fft.rfft(taps, block)
    out = np.empty((data.shape[0], max(width - length + 1, 0)))
    done = 0
    while done < out.shape[1]:
        stop = min(done + block, width)
        take = min(stop - done - length + 1, out.shape[1] - done)
        window = reflect_pad_columns(data, pad, lo + done, lo + stop)
        spectrum = np.fft.rfft(window, block, axis=-1)
        spectrum *= kernel
        filtered = np.fft.irfft(spectrum, block, axis=-1)
        out[:, done : done + take] = filtered[:, length - 1 : length - 1 + take]
        done += take
    return out


@st.composite
def _convolver_windows(draw):
    """A record width, a pad, a window of the padded columns and a kernel
    no longer than the window; records no wider than the pad wrap."""
    width = draw(st.integers(1, 60))
    pad = draw(st.integers(0, 80))
    total = width + 2 * pad
    lo = draw(st.integers(0, total - 1))
    hi = draw(st.integers(lo + 1, total))
    return width, pad, (lo, hi), draw(st.integers(1, hi - lo))


class TestWindowedConvolver:
    """ReflectedConvolver(..., columns=(lo, hi)) convolves only those
    columns of the padded record."""

    @settings(max_examples=300, deadline=None)
    @given(_convolver_windows(), st.integers(1, 3), st.integers(0, 2**32 - 1))
    # Windows of many overlap-save blocks: inside the record, and reaching
    # both reflections.
    @example((30000, 15, (20, 29990), 31), 2, 0)
    @example((20000, 495, (0, 20990), 991), 1, 1)
    def test_equals_the_padded_window(self, case, channels, seed):
        width, pad, (lo, hi), length = case
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((channels, width))
        taps = rng.standard_normal(length)
        window = np.pad(data, ((0, 0), (pad, pad)), mode="reflect")[:, lo:hi]
        expected = {
            "direct": np.stack([np.convolve(row, taps, mode="valid") for row in window]),
            "fft": _fresh_transforms_per_block(data, taps, pad, (lo, hi)),
        }
        for method, want in expected.items():
            convolver = ReflectedConvolver(data.shape, taps, pad, method, columns=(lo, hi))
            assert convolver.out_shape == want.shape == (channels, hi - lo - length + 1)
            out = np.full(want.shape, np.nan)
            convolver(data, out)
            assert np.array_equal(out, want), method

    @pytest.mark.parametrize("columns", [(-1, 5), (6, 5), (0, 31), (31, 31)])
    def test_window_outside_the_padded_record_rejected(self, columns):
        # A 10-column record padded by 10 has 30 columns.
        with pytest.raises(ValidationError, match="not in the padded record"):
            ReflectedConvolver((2, 10), np.ones(3), 10, "direct", columns=columns)


class TestOverlapSave:
    # Records of 3 to 15 blocks, tails shorter than the kernel included;
    # one-block records, one of them shorter than the pad, so that the
    # reflection wraps.
    CASES = [
        (2, 60000, 31, 15),
        (3, 50001, 991, 495),
        (1, 20000, 101, 0),
        (59, 400, 991, 495),
        (2, 7, 31, 15),
    ]

    @pytest.mark.parametrize("channels,width,length,pad", CASES)
    def test_equals_fresh_transforms_per_block(self, channels, width, length, pad):
        rng = np.random.default_rng(width + length)
        data = rng.standard_normal((channels, width))
        taps = rng.standard_normal(length)
        expected = _fresh_transforms_per_block(data, taps, pad)
        out = np.full(expected.shape, np.nan)
        ReflectedConvolver(data.shape, taps, pad, "fft")(data, out)
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
        rng = np.random.default_rng(3)
        taps = rng.standard_normal(length)
        convolver = ReflectedConvolver(
            (channels, width), taps, pad, "fft", lambda n: np.fft.rfft(taps, n)
        )
        for _ in range(2):
            data = rng.standard_normal((channels, width))
            out = np.empty(convolver.out_shape)
            convolver(data, out)
            assert np.array_equal(out, _fresh_transforms_per_block(data, taps, pad))
        for buffers in outs.values():
            assert len(buffers) >= 2
            assert buffers[0] is not None
            assert all(buf is buffers[0] for buf in buffers)

    def test_only_the_edge_blocks_are_copied(self, monkeypatch):
        # Blocks inside the record are transformed in place; copying them
        # too made one-thread batch about 14 percent slower.
        calls = {"_copy_reflection": 0, "rfft": 0, "irfft": 0}

        def counting(name):
            def call(*args, **kwargs):
                calls[name] += 1

            return call

        for name in calls:
            monkeypatch.setattr(convolution, name, counting(name))
        convolver = ReflectedConvolver(
            (3, 60000), np.ones(991), 495, "fft", lambda n: np.ones(n // 2 + 1)
        )
        convolver(np.zeros((3, 60000)), np.empty(convolver.out_shape))
        assert calls["rfft"] >= 4
        assert calls["_copy_reflection"] == 2


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
