from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from scipy import signal as sp_signal

from streamfilt import fir_design
from streamfilt import (
    FilterSpec,
    FirKernel,
    NyquistViolationError,
    ValidationError,
    auto_length,
    design_bandpass,
    export_taps_csv,
    frequency_response,
    transition_bandwidths,
)


class TestFilterSpec:
    def test_low_must_be_below_high(self):
        with pytest.raises(ValidationError):
            FilterSpec(30.0, 2.0, 600.0)

    def test_high_must_be_below_nyquist(self):
        with pytest.raises(NyquistViolationError):
            FilterSpec(2.0, 50.0, 100.0)

    @pytest.mark.parametrize("low", [0.0, -2.0])
    def test_positive_edges(self, low):
        with pytest.raises(ValidationError):
            FilterSpec(low, 30.0, 600.0)

    @pytest.mark.parametrize("length", [2, 4, 1, 0, -3])
    def test_override_must_be_odd_and_at_least_3(self, length):
        with pytest.raises(ValidationError):
            FilterSpec(2.0, 30.0, 600.0, length_override=length)

    def test_nyquist(self):
        assert FilterSpec(2.0, 30.0, 600.614).nyquist_hz == 300.307


class TestTransitionBandwidths:
    def test_quarter_rule_with_2hz_floor(self):
        # low edge 2 Hz: quarter is 0.5, floored to 2, capped at the edge -> 2
        # high edge 30 Hz: quarter is 7.5, far from Nyquist -> 7.5
        assert transition_bandwidths(FilterSpec(2.0, 30.0, 600.614)) == (2.0, 7.5)

    def test_high_edge_capped_by_nyquist(self):
        # quarter of 45 is 11.25 but only 5 Hz remain below Nyquist
        tb_low, tb_high = transition_bandwidths(FilterSpec(2.0, 45.0, 100.0))
        assert tb_high == 5.0

    def test_low_edge_capped_by_dc(self):
        # quarter of 1 is 0.25, floor says 2, but only 1 Hz exists below the edge
        tb_low, _ = transition_bandwidths(FilterSpec(1.0, 30.0, 600.0))
        assert tb_low == 1.0


class TestAutoLength:
    @pytest.mark.parametrize(
        "low,high,rate,expected",
        [
            (2.0, 30.0, 600.614, 991),
            (2.0, 30.0, 100.0, 165),
            (2.0, 30.0, 200.0, 331),
        ],
    )
    def test_reference_lengths(self, low, high, rate, expected):
        assert auto_length(FilterSpec(low, high, rate)) == expected

    def test_always_odd(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            rate = float(rng.uniform(60.0, 2000.0))
            low = float(rng.uniform(1.0, rate / 8.0))
            high = float(rng.uniform(low * 1.5, rate * 0.45))
            length = auto_length(FilterSpec(low, high, rate))
            assert length % 2 == 1 and length >= 3

    def test_rejects_override(self):
        with pytest.raises(ValidationError):
            auto_length(FilterSpec(2.0, 30.0, 600.0, length_override=11))


class TestDesignBandpass:
    def test_auto_length_used(self, standard_kernel):
        assert standard_kernel.length == 991
        assert standard_kernel.group_delay_samples == 495

    def test_override_used(self):
        kernel = design_bandpass(FilterSpec(2.0, 30.0, 600.614, length_override=101))
        assert kernel.length == 101

    def test_taps_exactly_symmetric(self, standard_kernel):
        taps = standard_kernel.taps
        assert np.array_equal(taps, taps[::-1])

    def test_random_designs_symmetric_and_odd(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            rate = float(rng.uniform(100.0, 1200.0))
            low = float(rng.uniform(1.0, rate / 10.0))
            high = float(rng.uniform(low * 1.5, rate * 0.45))
            kernel = design_bandpass(FilterSpec(low, high, rate))
            assert kernel.length % 2 == 1
            assert np.array_equal(kernel.taps, kernel.taps[::-1])

    def test_dc_gain_vanishes(self, standard_kernel):
        assert abs(standard_kernel.taps.sum()) <= 1e-12


class TestFirKernel:
    def test_rejects_even_length(self):
        with pytest.raises(ValidationError):
            FirKernel(taps=np.ones(4), spec=FilterSpec(2.0, 30.0, 600.0))

    def test_rejects_asymmetry(self):
        with pytest.raises(ValidationError):
            FirKernel(taps=np.array([1.0, 2.0, 3.0]), spec=FilterSpec(2.0, 30.0, 600.0))

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            FirKernel(taps=np.array([1.0, np.inf, 1.0]), spec=FilterSpec(2.0, 30.0, 600.0))

    def test_taps_read_only(self, standard_kernel):
        with pytest.raises(ValueError):
            standard_kernel.taps[0] = 1.0

    def test_identity_kernel_allowed(self):
        kernel = FirKernel(taps=np.array([1.0]), spec=FilterSpec(2.0, 30.0, 600.0))
        assert kernel.group_delay_samples == 0


class TestFrequencyResponse:
    def test_matches_freqz(self, standard_kernel):
        freqs = np.linspace(0.0, 300.0, 601)
        mine = frequency_response(standard_kernel, freqs)
        _, reference = sp_signal.freqz(
            standard_kernel.taps, worN=freqs, fs=standard_kernel.spec.sampling_rate_hz
        )
        assert np.abs(mine - reference).max() <= 1e-10

    def test_standard_band_gains(self, standard_kernel):
        gains = np.abs(frequency_response(standard_kernel, [0.0, 16.0, 60.0]))
        assert gains[0] <= 1e-3
        assert gains[1] >= 0.99
        assert gains[2] <= 10 ** (-2.5)

    def test_zero_phase_after_delay_compensation(self, standard_kernel):
        # a symmetric kernel is linear phase: undoing the group delay leaves
        # a real response in the pass band
        freqs = np.linspace(4.0, 22.5, 100)
        response = frequency_response(standard_kernel, freqs)
        delay = standard_kernel.group_delay_samples
        rotated = response * np.exp(
            2j * np.pi * freqs * delay / standard_kernel.spec.sampling_rate_hz
        )
        assert np.abs(rotated.imag).max() <= 1e-6

    def test_rejects_out_of_range(self, standard_kernel):
        with pytest.raises(ValidationError):
            frequency_response(standard_kernel, [400.0])
        with pytest.raises(ValidationError):
            frequency_response(standard_kernel, [-1.0])

    def test_scalar_input(self, standard_kernel):
        assert frequency_response(standard_kernel, 16.0).shape == (1,)

    @pytest.mark.parametrize("length", [3, 991])
    def test_blocks_match_one_shot_direct_sum(self, length):
        # 1000 frequencies fill one block at 3 taps and four at 991.
        kernel = design_bandpass(FilterSpec(2.0, 30.0, 600.614, length_override=length))
        freqs = np.linspace(0.0, kernel.spec.nyquist_hz, 1000)
        k = np.arange(kernel.length, dtype=np.float64)
        direct = np.exp(
            (-2j * np.pi / kernel.spec.sampling_rate_hz) * np.outer(freqs, k)
        ) @ kernel.taps
        np.testing.assert_allclose(frequency_response(kernel, freqs), direct, rtol=1e-12)

    def test_long_kernel_memory_is_bounded(self):
        # 198203 taps: a one-shot basis for 64 frequencies would be 203 MB.
        kernel = design_bandpass(FilterSpec(0.01, 30.0, 600.614))
        assert kernel.length == 198203
        freqs = np.linspace(0.0, 60.0, 64)
        tracemalloc.start()
        try:
            frequency_response(kernel, freqs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2**20


class TestExportTaps:
    def test_round_trips_exactly(self, tmp_path):
        kernel = design_bandpass(FilterSpec(2.0, 30.0, 600.614, length_override=31))
        path = tmp_path / "taps.csv"
        export_taps_csv(kernel, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# streamfilt-bench v1"
        assert lines[1] == "index,tap"
        values = [float(line.split(",")[1]) for line in lines[2:]]
        assert np.array_equal(np.array(values), kernel.taps)


class TestSpectrumCache:
    def test_equals_rfft_read_only_and_reused(self):
        kernel = design_bandpass(FilterSpec(2.0, 30.0, 600.614, length_override=991))
        for n in (991, 1536, 16000):
            spectrum = kernel.spectrum(n)
            assert np.array_equal(spectrum, np.fft.rfft(kernel.taps, n))
            assert not spectrum.flags.writeable
            assert kernel.spectrum(n) is spectrum

    def test_bounded_oldest_first(self, monkeypatch):
        limit = 3 * 16 * 513  # three spectra of a 1024-point transform
        monkeypatch.setattr(fir_design, "_SPECTRUM_CACHE_BYTES", limit)
        kernel = design_bandpass(FilterSpec(2.0, 30.0, 600.614, length_override=31))
        first = kernel.spectrum(1024)
        for n in (1026, 1028, 1030, 1032):
            kernel.spectrum(n)
            assert sum(s.nbytes for s in kernel._spectra.values()) <= limit
        assert 1024 not in kernel._spectra and 1032 in kernel._spectra
        assert np.array_equal(kernel.spectrum(1024), first)
        # A spectrum larger than the whole budget is returned but not kept.
        big = kernel.spectrum(8192)
        assert np.array_equal(big, np.fft.rfft(kernel.taps, 8192))
        assert 8192 not in kernel._spectra
