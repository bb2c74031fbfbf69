from __future__ import annotations

import math
import statistics
import zlib

import numpy as np
import pytest

from streamfilt import (
    Batch,
    FilterSpec,
    PerPacket,
    StreamfiltError,
    SweepConfig,
    TimingReport,
    ValidationError,
    checksum_matrix,
    ci95_halfwidth,
    design_bandpass,
    filter_per_packet,
    packetize,
    run_sweep,
    student_t_975,
    time_filtering,
    write_sweep_fidelity_csv,
    write_sweep_timing_csv,
)

from conftest import make_signal

# Upper 97.5 percent t quantiles computed independently with mpmath at 50
# significant digits, rounded to float64.
T_QUANTILES = {
    1: 12.706204736174705,
    2: 4.3026527297494639,
    4: 2.7764451051977944,
    49: 2.0095752371292397,
    99: 1.9842169515864175,
}

# Half-width for the samples [1.0, 2.0, 3.0]; see TestCi95.test_reference_value.
CI95_ONE_TWO_THREE = T_QUANTILES[2] / math.sqrt(3)


def _small_setup(seed=0, channels=3, samples=1200):
    rng = np.random.default_rng(seed)
    signal = make_signal(rng.standard_normal((channels, samples)))
    kernel = design_bandpass(FilterSpec(2.0, 30.0, 600.614, length_override=61))
    return signal, kernel


class TestStudentT:
    @pytest.mark.parametrize("df,expected", sorted(T_QUANTILES.items()))
    def test_matches_high_precision_values(self, df, expected):
        assert abs(student_t_975(df) - expected) <= 1e-9

    def test_rejects_zero_df(self):
        with pytest.raises(ValidationError):
            student_t_975(0)

    @pytest.mark.parametrize("df", [-1, True, 2.5, "3"])
    def test_rejects_negative_or_non_integer_df(self, df):
        with pytest.raises(ValidationError):
            student_t_975(df)

    def test_matches_scipy(self):
        # Both sides of the switch from the exact sum (df <= 500) to the
        # Cornish-Fisher expansion, and far into the expansion's range.
        from scipy import stats

        dfs = [*range(1, 3001), 10**4, 10**5, 10**6, 10**9]
        for df, expected in zip(dfs, stats.t.ppf(0.975, dfs)):
            assert abs(student_t_975(df) - expected) <= 1e-12 * expected, df


class TestCi95:
    def test_reference_value(self):
        # The samples have sd = 1, so the reference is t(0.975, 2) / sqrt(3).
        # For 2 degrees of freedom t has the closed form (2p - 1) / sqrt(2p(1 - p)),
        # so t(0.975, 2) = 0.95 / sqrt(0.04875) = 4.30265272974946385..., the
        # T_QUANTILES[2] entry; the reference is 2.484137711750331 as a float64.
        assert abs(ci95_halfwidth([1.0, 2.0, 3.0]) - CI95_ONE_TWO_THREE) <= 1e-12

    def test_identical_samples_give_zero(self):
        assert ci95_halfwidth([0.25] * 10) == 0.0

    @pytest.mark.parametrize("n", [2, 3, 5, 50, 100])
    def test_matches_hand_formula(self, n):
        rng = np.random.default_rng(n)
        samples = (1.0 + 0.1 * rng.standard_normal(n)).tolist()
        expected = T_QUANTILES[n - 1] * statistics.stdev(samples) / n**0.5
        assert abs(ci95_halfwidth(samples) - expected) <= 1e-9

    def test_needs_two_samples(self):
        with pytest.raises(ValidationError):
            ci95_halfwidth([1.0])


class TestChecksum:
    def test_is_crc32_of_little_endian_bytes(self):
        data = np.array([[0.0, 1.5], [-2.0, 3.25]])
        expected = f"{zlib.crc32(data.astype('<f8').tobytes()) & 0xFFFFFFFF:08x}"
        assert checksum_matrix(data) == expected

    def test_distinguishes_data(self):
        a = np.array([1.0, 2.0, 3.0])
        b = np.array([1.0, 2.0, 3.0000000001])
        assert checksum_matrix(a) == checksum_matrix(a.copy())
        assert checksum_matrix(a) != checksum_matrix(b)

    def test_eight_hex_digits(self):
        digest = checksum_matrix(np.zeros(5))
        assert len(digest) == 8
        int(digest, 16)


class TestTimingReport:
    def test_from_samples(self):
        report = TimingReport.from_samples("demo", 100, [1.0, 2.0, 3.0], "00000000")
        assert report.mean_s == 2.0
        assert abs(report.ci95_halfwidth_s - CI95_ONE_TWO_THREE) <= 1e-12
        assert report.repetitions == 3
        assert report.packet_size == 100

    def test_repetition_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            TimingReport(
                config_label="x",
                packet_size=None,
                repetitions=3,
                mean_s=1.0,
                ci95_halfwidth_s=0.0,
                samples_s=(1.0, 1.0),
                checksum="00000000",
            )

    def test_negative_sample_rejected(self):
        with pytest.raises(ValidationError):
            TimingReport.from_samples("x", None, [1.0, -0.5], "00000000")


class TestTimeFiltering:
    def test_scripted_clock(self):
        signal, kernel = _small_setup()
        # exactly 2 calls per repetition; StopIteration here would mean the
        # warmup or something else consumed ticks
        ticks = iter([10.0, 11.0, 20.0, 22.5, 30.0, 33.5])
        report = time_filtering(
            signal, kernel, Batch(), 3, warmup=2, clock=lambda: next(ticks)
        )
        assert report.samples_s == (1.0, 2.5, 3.5)
        assert report.mean_s == pytest.approx(7.0 / 3.0)
        assert report.config_label == "batch"
        assert report.packet_size is None

    def test_checksum_matches_actual_output(self):
        signal, kernel = _small_setup(seed=1)
        plan = packetize(signal, 300)
        report = time_filtering(signal, kernel, PerPacket(plan), 2, warmup=0)
        expected = checksum_matrix(filter_per_packet(signal, kernel, plan).data)
        assert report.checksum == expected
        assert report.config_label == "per-packet=300"
        assert report.packet_size == 300

    def test_needs_two_repetitions(self):
        signal, kernel = _small_setup()
        with pytest.raises(ValidationError):
            time_filtering(signal, kernel, Batch(), 1)

    @pytest.mark.parametrize(
        "repetitions,warmup",
        [(2.5, 0), (2.0, 0), ("2", 0), (2, 1.5), (2, True), (2, "1")],
        ids=repr,
    )
    def test_counts_must_be_integers(self, repetitions, warmup):
        signal, kernel = _small_setup()
        with pytest.raises(ValidationError, match="must be an integer"):
            time_filtering(signal, kernel, Batch(), repetitions, warmup=warmup)

    def test_numpy_integer_counts(self):
        signal, kernel = _small_setup()
        report = time_filtering(signal, kernel, Batch(), np.int64(2), warmup=np.int32(0))
        assert report.repetitions == 2

    def test_real_clock_smoke(self):
        signal, kernel = _small_setup()
        report = time_filtering(signal, kernel, Batch(), 3, warmup=1)
        assert all(s >= 0.0 for s in report.samples_s)
        assert report.ci95_halfwidth_s >= 0.0


class TestSweepConfig:
    def _spec(self):
        return FilterSpec(2.0, 30.0, 600.614, length_override=61)

    def test_sizes_must_increase(self):
        with pytest.raises(ValidationError):
            SweepConfig(filter_spec=self._spec(), packet_sizes=(200, 200))
        with pytest.raises(ValidationError):
            SweepConfig(filter_spec=self._spec(), packet_sizes=(400, 200))

    def test_sizes_must_exist(self):
        with pytest.raises(ValidationError):
            SweepConfig(filter_spec=self._spec(), packet_sizes=())

    @pytest.mark.parametrize("size", [200.9, 200.0, True, "200"], ids=repr)
    def test_sizes_must_be_integers(self, size):
        with pytest.raises(ValidationError, match="packet sizes must be integers"):
            SweepConfig(filter_spec=self._spec(), packet_sizes=(100, size))

    def test_numpy_integer_sizes_become_ints(self):
        config = SweepConfig(filter_spec=self._spec(), packet_sizes=np.array([100, 200]))
        assert config.packet_sizes == (100, 200)
        assert all(type(s) is int for s in config.packet_sizes)

    def test_mode_checked(self):
        with pytest.raises(ValidationError):
            SweepConfig(filter_spec=self._spec(), packet_sizes=(100,), mode="sideways")

    def test_repetition_floors(self):
        with pytest.raises(ValidationError):
            SweepConfig(filter_spec=self._spec(), packet_sizes=(100,), repetitions_timing=1)
        with pytest.raises(ValidationError):
            SweepConfig(filter_spec=self._spec(), packet_sizes=(100,), repetitions_accuracy=0)

    @pytest.mark.parametrize(
        "field", ["repetitions_accuracy", "repetitions_timing", "replicate_factor", "warmup"]
    )
    @pytest.mark.parametrize("value", [2.5, 2.0, True, "2"], ids=repr)
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(ValidationError, match=f"{field} must be an integer"):
            SweepConfig(filter_spec=self._spec(), packet_sizes=(100,), **{field: value})

    def test_numpy_integer_counts_become_ints(self):
        counts = dict(repetitions_accuracy=1, repetitions_timing=2, replicate_factor=1, warmup=0)
        config = SweepConfig(
            filter_spec=self._spec(),
            packet_sizes=(100,),
            **{name: np.int64(value) for name, value in counts.items()},
        )
        assert {name: getattr(config, name) for name in counts} == counts
        assert all(type(getattr(config, name)) is int for name in counts)


class TestRunSweep:
    def _config(self, mode="per-packet"):
        return SweepConfig(
            filter_spec=FilterSpec(2.0, 30.0, 600.614, length_override=61),
            packet_sizes=(50, 128),
            mode=mode,
            repetitions_accuracy=2,
            repetitions_timing=2,
            replicate_factor=2,
            warmup=0,
        )

    def test_report_counts_and_order(self):
        signal, _ = _small_setup(seed=2)
        fidelity, timing = run_sweep(signal, self._config())
        assert len(fidelity) == 2
        assert len(timing) == 3
        assert timing[0].packet_size is None and timing[0].config_label == "batch"
        assert [t.packet_size for t in timing[1:]] == [50, 128]
        assert [f.config_label for f in fidelity] == ["per-packet=50", "per-packet=128"]
        for report in fidelity:
            assert report.checksum is not None

    def test_stateful_mode_matches_batch(self):
        signal, _ = _small_setup(seed=3)
        fidelity, _ = run_sweep(signal, self._config(mode="stateful"))
        for report in fidelity:
            assert report.min_r >= 1.0 - 1e-12

    def test_per_packet_fidelity_below_one(self):
        signal, _ = _small_setup(seed=4)
        fidelity, _ = run_sweep(signal, self._config())
        for report in fidelity:
            assert report.max_r < 1.0


class TestSweepCsv:
    def test_fidelity_rows(self, tmp_path):
        signal, _ = _small_setup(seed=5)
        config = SweepConfig(
            filter_spec=FilterSpec(2.0, 30.0, 600.614, length_override=61),
            packet_sizes=(50, 128),
            repetitions_timing=2,
            replicate_factor=1,
            warmup=0,
        )
        fidelity, timing = run_sweep(signal, config)
        path = tmp_path / "sweep_fidelity.csv"
        write_sweep_fidelity_csv(config.packet_sizes, fidelity, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# streamfilt-bench v1"
        assert lines[1] == "packet_size,channel,r,defined"
        assert len(lines) == 2 + 2 * signal.info.channel_count
        assert lines[2].startswith("50,ch00,")
        assert lines[2 + signal.info.channel_count].startswith("128,ch00,")

    def test_timing_rows(self, tmp_path):
        reports = [
            TimingReport.from_samples("batch", None, [1.0, 1.1], "0000aaaa"),
            TimingReport.from_samples("per-packet=400", 400, [2.0, 2.1], "0000bbbb"),
        ]
        path = tmp_path / "sweep_timing.csv"
        write_sweep_timing_csv(reports, path)
        lines = path.read_text().splitlines()
        assert lines[1] == (
            "config_label,packet_size_or_batch,repetitions,mean_s,ci95_halfwidth_s,checksum"
        )
        assert lines[2].startswith("batch,batch,2,")
        assert lines[3].startswith("per-packet=400,400,2,")
        assert lines[2].endswith("0000aaaa")

    def test_fidelity_writer_checks_alignment(self, tmp_path):
        with pytest.raises(ValidationError):
            write_sweep_fidelity_csv((100,), [], tmp_path / "x.csv")


class TestDeterminismGuard:
    def test_nondeterministic_route_detected(self, monkeypatch):
        # force two different checksums to confirm the sweep really compares them
        signal, _ = _small_setup(seed=6)
        import streamfilt.bench as bench_mod

        real = bench_mod.checksum_matrix
        calls = {"n": 0}

        def flaky(data):
            calls["n"] += 1
            return f"{calls['n']:08x}"

        monkeypatch.setattr(bench_mod, "checksum_matrix", flaky)
        config = SweepConfig(
            filter_spec=FilterSpec(2.0, 30.0, 600.614, length_override=61),
            packet_sizes=(50,),
            repetitions_accuracy=2,
            repetitions_timing=2,
            replicate_factor=1,
            warmup=0,
        )
        with pytest.raises(StreamfiltError):
            run_sweep(signal, config)
        monkeypatch.setattr(bench_mod, "checksum_matrix", real)
