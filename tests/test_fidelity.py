from __future__ import annotations

import math
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from streamfilt import (
    FidelityReport,
    UndefinedCorrelationError,
    ValidationError,
    compare_channels,
    filter_batch,
    pearson,
    write_report_csv,
)
from streamfilt.fidelity import _CHUNK, correlate_rows

from conftest import make_signal, run_fresh


def pearson_oracle(x, y):
    """Two-pass Pearson via math.fsum, independent of the library path."""
    n = len(x)
    mx = math.fsum(x) / n
    my = math.fsum(y) / n
    sxy = math.fsum((a - mx) * (b - my) for a, b in zip(x, y))
    sxx = math.fsum((a - mx) ** 2 for a in x)
    syy = math.fsum((b - my) ** 2 for b in y)
    return sxy / math.sqrt(sxx * syy)


class TestPearson:
    def test_reference_value(self):
        # hand-checked: r([1,2,3],[1,2,4]) = 27 / sqrt(2 * 14 * 27)
        r = pearson([1.0, 2.0, 3.0], [1.0, 2.0, 4.0])
        assert abs(r - 0.981981) <= 1e-6
        assert abs(r - 0.9819805060619656) <= 1e-12

    def test_identical_inputs_give_exactly_one(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(1000)
        assert pearson(x, x.copy()) == 1.0

    def test_negated_inputs_give_exactly_minus_one(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(1000)
        assert pearson(x, -x) == -1.0

    def test_affine_relation(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(500)
        assert pearson(x, 3.0 * x + 2.0) >= 1.0 - 1e-12
        assert pearson(x, -0.5 * x + 1.0) <= -1.0 + 1e-12

    def test_matches_fsum_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 400))
            x = rng.standard_normal(n)
            y = 0.6 * x + 0.4 * rng.standard_normal(n)
            assert abs(pearson(x, y) - pearson_oracle(x, y)) <= 1e-12

    def test_result_stays_in_unit_interval(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            n = int(rng.integers(2, 30))
            x = rng.standard_normal(n)
            y = rng.standard_normal(n)
            assert -1.0 <= pearson(x, y) <= 1.0

    @pytest.mark.parametrize("constant", [0.0, 1.0, 0.1, -7.5])
    def test_constant_vector_raises(self, constant):
        x = np.full(100, constant)
        y = np.arange(100, dtype=float)
        with pytest.raises(UndefinedCorrelationError):
            pearson(x, y)
        with pytest.raises(UndefinedCorrelationError):
            pearson(y, x)

    def test_near_constant_is_fine(self):
        x = np.full(100, 5.0)
        x[50] += 1e-9
        y = np.arange(100, dtype=float)
        assert -1.0 <= pearson(x, y) <= 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            pearson([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_too_short(self):
        with pytest.raises(ValidationError):
            pearson([1.0], [2.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            pearson([1.0, np.nan, 3.0], [1.0, 2.0, 3.0])

    def test_two_dimensional_rejected(self):
        with pytest.raises(ValidationError):
            pearson(np.zeros((2, 3)), np.zeros((2, 3)))


class TestCompareChannels:
    def test_per_channel_values(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((3, 400))
        b = a + 0.1 * rng.standard_normal((3, 400))
        report = compare_channels(make_signal(a), make_signal(b), "jitter")
        assert report.config_label == "jitter"
        assert report.defined_count == 3
        for ch in range(3):
            assert report.per_channel_r[ch] == pearson(a[ch], b[ch])
        values = report.per_channel_r
        assert report.min_r == values.min()
        assert report.max_r == values.max()
        assert report.median_r == np.median(values)

    def test_undefined_channel_flagged_not_raised(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((3, 100))
        b = a.copy()
        a[1, :] = 4.2  # constant reference channel
        report = compare_channels(make_signal(a), make_signal(b), "one-flat")
        assert report.defined_count == 2
        assert not report.defined[1]
        assert np.isnan(report.per_channel_r[1])
        # summaries ignore the undefined channel
        assert report.min_r == 1.0 and report.max_r == 1.0

    def test_all_undefined_raises(self):
        a = np.zeros((2, 50))
        a[0, :] = 1.0
        with pytest.raises(UndefinedCorrelationError):
            compare_channels(make_signal(a), make_signal(a.copy()), "flat")

    def test_geometry_mismatch_rejected(self):
        a = make_signal(np.random.default_rng(7).standard_normal((2, 100)))
        b = make_signal(np.random.default_rng(7).standard_normal((2, 101)))
        with pytest.raises(ValidationError):
            compare_channels(a, b, "shape")

    def test_rate_mismatch_rejected(self):
        data = np.random.default_rng(8).standard_normal((1, 50))
        with pytest.raises(ValidationError):
            compare_channels(
                make_signal(data, rate=100.0), make_signal(data, rate=200.0), "rate"
            )


def _pearson_or_nan(x, y):
    try:
        return pearson(x, y)
    except UndefinedCorrelationError:
        return math.nan


def _rows(kinds, width, scales, seed):
    """Pairs of rows of the given kinds, each kind at its own magnitude."""
    rng = np.random.default_rng(seed)
    x = np.empty((len(kinds), width))
    y = np.empty_like(x)
    for i, (kind, scale) in enumerate(zip(kinds, scales)):
        x[i] = scale * (rng.standard_normal(width) + 3.0)
        y[i] = {
            "noisy": x[i] + scale * rng.standard_normal(width),
            "identical": x[i],
            "negated": -x[i],
            "constant": scale,
            "flat-tail": x[i],
        }[kind]
        if kind == "flat-tail":  # constant but for its last sample
            x[i, :-1] = scale
    return x, y


class TestKernel:
    """correlate_rows scores every row by itself: the same bits as pearson
    on that row, for any grouping of the rows and any thread count."""

    KINDS = ["noisy", "identical", "negated", "constant", "flat-tail"]

    @settings(max_examples=40, deadline=None)
    @given(
        kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=6),
        width=st.one_of(
            st.integers(2, _CHUNK - 1),
            st.just(_CHUNK),
            st.integers(_CHUNK + 1, 3 * _CHUNK + 7),
        ),
        exponents=st.lists(st.floats(-6.0, 6.0), min_size=6, max_size=6),
        cuts=st.lists(st.booleans(), min_size=5, max_size=5),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(
        kinds=["noisy", "negated", "identical"], width=_CHUNK, exponents=[-6, 6, 0, 0, 0, 0],
        cuts=[True] * 5, seed=1,
    )
    def test_rows_equal_pearson_for_any_grouping_and_threads(
        self, kinds, width, exponents, cuts, seed
    ):
        x, y = _rows(kinds, width, [10.0**e for e in exponents], seed)
        expected = np.array([_pearson_or_nan(a, b) for a, b in zip(x, y)])
        for kind, r in zip(kinds, expected):
            if kind == "constant":
                assert math.isnan(r)
            elif kind in ("identical", "negated"):
                assert r == (1.0 if kind == "identical" else -1.0)
            else:
                assert -1.0 <= r <= 1.0
        edges = [0] + [i + 1 for i, cut in enumerate(cuts[: len(kinds) - 1]) if cut]
        edges.append(len(kinds))
        grouped = np.concatenate(
            [correlate_rows(x[lo:hi], y[lo:hi])[0] for lo, hi in zip(edges, edges[1:])]
        )
        np.testing.assert_array_equal(grouped, expected)
        for threads in (1, 2, 3):
            r, defined = correlate_rows(x, y, n_threads=threads)
            np.testing.assert_array_equal(r, expected)
            np.testing.assert_array_equal(defined, ~np.isnan(expected))
            with mock.patch.dict(os.environ, {"STREAMFILT_THREADS": str(threads)}):
                np.testing.assert_array_equal(correlate_rows(x, y)[0], expected)

    def test_rows_spanning_several_chunks_match_the_fsum_oracle(self):
        rng = np.random.default_rng(10)
        worst = 0.0
        for offset, scale in ((0.0, 1.0), (1e3, 1e-3), (-5e5, 10.0), (0.0, 1e-6), (1.0, 1e6)):
            x = offset + scale * rng.standard_normal(20000)
            y = 0.7 * x + scale * rng.standard_normal(20000) - offset
            worst = max(worst, abs(pearson(x, y) - pearson_oracle(x, y)))
        assert worst <= 1e-12

    def test_non_finite_row_raises(self):
        x = np.ones((3, 5000))
        x[:, ::2] = 2.0
        y = x.copy()
        y[2, 4500] = np.inf
        with pytest.raises(ValidationError, match="finite"):
            correlate_rows(x, y)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValidationError):
            correlate_rows(np.zeros((2, 10)), np.zeros((3, 10)))

    def test_a_threaded_compare_shares_the_filtering_pool(self, pools, standard_kernel):
        rng = np.random.default_rng(11)
        a = make_signal(rng.standard_normal((32, 4096)))
        b = filter_batch(a, standard_kernel)
        assert pools.built == [1]
        assert pools.submitted == 1
        report = compare_channels(a, b, "pool")
        assert pools.built == [1]
        assert pools.submitted == 2
        r, _ = correlate_rows(a.data, b.data, n_threads=1)
        np.testing.assert_array_equal(report.per_channel_r, r)

    def test_no_thread_spins_after_a_compare(self):
        # A BLAS dot product on rows this long ran on the library's own
        # threads, which kept spinning for a while after the call returned.
        # A fresh interpreter, so that nothing but the compare has run.
        script = (
            "import resource, time\n"
            "import numpy as np\n"
            "from streamfilt import SignalInfo, SignalMatrix, compare_channels\n"
            "rng = np.random.default_rng(12)\n"
            "a = rng.standard_normal((4, 100_000))\n"
            "b = a + rng.standard_normal((4, 100_000))\n"
            "info = SignalInfo.with_default_labels(600.614, 4, 100_000)\n"
            "compare_channels(SignalMatrix(info, a), SignalMatrix(info, b), 'spin')\n"
            "usage = resource.getrusage(resource.RUSAGE_SELF)\n"
            "before = usage.ru_utime + usage.ru_stime\n"
            "time.sleep(0.3)\n"
            "usage = resource.getrusage(resource.RUSAGE_SELF)\n"
            "print(usage.ru_utime + usage.ru_stime - before)\n"
        )
        result = run_fresh(script)
        assert result.returncode == 0, result.stderr
        assert float(result.stdout) < 0.03


class TestFidelityReport:
    def test_needs_a_defined_channel(self):
        with pytest.raises(ValidationError):
            FidelityReport(
                config_label="x",
                channel_labels=("a",),
                per_channel_r=np.array([np.nan]),
                defined=np.array([False]),
            )

    def test_arrays_must_align(self):
        with pytest.raises(ValidationError):
            FidelityReport(
                config_label="x",
                channel_labels=("a", "b"),
                per_channel_r=np.array([1.0]),
                defined=np.array([True]),
            )


class TestReportCsv:
    def test_structure_and_values(self, tmp_path):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((3, 200))
        b = a + 0.2 * rng.standard_normal((3, 200))
        a[2, :] = 0.0  # undefined channel
        report = compare_channels(make_signal(a), make_signal(b), "demo")
        path = tmp_path / "report.csv"
        write_report_csv(report, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# streamfilt-bench v1"
        assert lines[1] == "channel,r,defined"
        assert len(lines) == 2 + 3 + 3  # channels plus min/median/max rows
        ch_rows = [line.split(",") for line in lines[2:5]]
        assert [row[0] for row in ch_rows] == ["ch00", "ch01", "ch02"]
        assert ch_rows[2][1] == "" and ch_rows[2][2] == "no"
        assert float(ch_rows[0][1]) == report.per_channel_r[0]
        summary = dict(line.split(",")[:2] for line in lines[5:])
        assert float(summary["min_r"]) == report.min_r
        assert float(summary["median_r"]) == report.median_r
        assert float(summary["max_r"]) == report.max_r
