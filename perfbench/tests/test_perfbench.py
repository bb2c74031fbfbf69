"""Tests of the benchmark itself: its rules, its oracle and a toy run of
each workload.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import oracle  # noqa: E402
from harness import (  # noqa: E402
    Span,
    check_name,
    percentile,
    self_times,
    summarize,
    tail_percentile,
)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
TOY = ["--channels", "2", "--samples", "2500", "--seconds", "0.5"]


# ---------------------------------------------------------------- percentile rule


@pytest.mark.parametrize(
    "n, expected",
    [(9, None), (19, None), (20, "50"), (99, "50"), (100, "90"),
     (999, "90"), (1000, "99"), (9999, "99"), (10000, "99.9")],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == (None if expected is None else Fraction(expected))


def test_percentile_is_nearest_rank():
    values = list(range(1000, 0, -1))
    assert percentile(values, Fraction(99)) == 990
    assert sum(v > 990 for v in values) == 10
    assert percentile([3.0], Fraction(50)) == 3.0


def test_summarize_reports_median_tail_and_count():
    assert summarize(range(1, 101)) == {"median": 50.5, "n": 100, "p90": 90}
    assert summarize([2.0, 1.0, 3.0]) == {"median": 2.0, "n": 3}


# ---------------------------------------------------------------- self time


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("root", 0.0, 10.0, None, "r"),
        Span("a", 1.0, 3.0, 0, "r"),
        Span("b", 2.0, 5.0, 0, "r"),  # overlaps a: counted once
        Span("c", 9.0, 12.0, 0, "r"),  # runs past its parent: clipped
        Span("a.child", 1.5, 2.0, 1, "r"),  # a grandchild does not touch root
        Span("other", 20.0, 21.0, None, "r"),
    ]
    assert self_times(spans) == pytest.approx([5.0, 1.5, 3.0, 3.0, 0.5, 1.0])


# ---------------------------------------------------------------- names


def test_every_declared_metric_name_is_valid():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert check_name(name) == name


@pytest.mark.parametrize("name", ["_fsio.write_s", "a b", "", "x" * 65, "lat/ms"])
def test_bad_metric_names_are_refused(name):
    with pytest.raises(ValueError):
        check_name(name)


# ---------------------------------------------------------------- oracle


def test_reflect_filter_by_hand():
    # reflect-padded [2, 1, 2, 3, 2], convolved with [1, 2, 1]
    got = oracle.reflect_filter(np.array([[1.0, 2.0, 3.0]]), np.array([1.0, 2.0, 1.0]))
    assert got.tolist() == [[6.0, 8.0, 10.0]]


def test_per_packet_oracle_matches_the_recipe_per_packet():
    rng = np.random.default_rng(0)
    data = rng.standard_normal((3, 23))
    taps = np.array([0.1, -0.2, 0.3, 0.5, 0.3, -0.2, 0.1])
    for size in (2, 5, 23, 40):  # 2 and 5 are shorter than the kernel
        expected = np.concatenate(
            [oracle.reflect_filter(data[:, s : s + size], taps) for s in range(0, 23, size)],
            axis=1,
        )
        np.testing.assert_allclose(oracle.per_packet_filter(data, taps, size), expected,
                                   rtol=0, atol=1e-13)


def test_oracle_agrees_with_streamfilt_on_a_tiny_record():
    import streamfilt as sf

    signal = sf.generate_synthetic(sf.broadband_spec(channel_count=3, sample_count=300, seed=4))
    kernel = sf.design_bandpass(sf.FilterSpec(2.0, 30.0, 600.614, length_override=101))
    x, taps = signal.data, kernel.taps
    np.testing.assert_allclose(sf.filter_batch(signal, kernel).data,
                               oracle.reflect_filter(x, taps), rtol=0, atol=1e-12)
    for size in (40, 300):  # 40 is shorter than the 101 taps
        plan = sf.packetize(signal, size)
        np.testing.assert_allclose(sf.filter_per_packet(signal, kernel, plan).data,
                                   oracle.per_packet_filter(x, taps, size), rtol=0, atol=1e-12)
    short = x[:, :17]
    packet = sf.SignalMatrix(sf.SignalInfo.with_default_labels(600.614, 3, 17), short)
    np.testing.assert_allclose(sf.filter_batch(packet, kernel).data,
                               oracle.reflect_filter(short, taps), rtol=0, atol=1e-12)


def test_pearson_rows():
    a = np.array([[1.0, 2.0, 3.0, 4.0], [1.0, 0.0, 1.0, 0.0]])
    b = np.array([[2.0, 4.0, 6.0, 8.1], [0.0, 1.0, 0.0, 1.0]])
    expected = [np.corrcoef(a[0], b[0])[0, 1], -1.0]
    np.testing.assert_allclose(oracle.pearson_rows(a, b), expected, rtol=1e-12)


# ---------------------------------------------------------------- toy runs


def bench(cwd, *args):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_toy_run_prints_every_end_to_end_metric(workload):
    proc = bench(ROOT, "--workload", workload, "--seed", "3", "--trace", "0", *TOY)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1000
    for metric in SPEC["end_to_end"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"] and got["value"] > 0
    assert len(result["metrics"]) == len(SPEC["end_to_end"])


def test_toy_traced_run_prints_every_per_layer_metric():
    proc = bench(ROOT, "--workload", "route-sweep", "--seed", "5", "--trace", "1", *TOY)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert "tracing overhead" in proc.stdout


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench(str(tmp_path), "--workload", "route-sweep", "--seed", "1", "--trace", "0", *TOY)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
