from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from streamfilt import filtering
from streamfilt import (
    FilterSpec,
    SignalInfo,
    SignalMatrix,
    broadband_spec,
    design_bandpass,
    generate_synthetic,
)


@pytest.fixture(scope="session")
def standard_spec() -> FilterSpec:
    return FilterSpec(low_cut_hz=2.0, high_cut_hz=30.0, sampling_rate_hz=600.614)


@pytest.fixture(scope="session")
def standard_kernel(standard_spec):
    return design_bandpass(standard_spec)


@pytest.fixture(scope="session")
def small_signal() -> SignalMatrix:
    """4 channels x 5000 samples of the default broadband mix."""
    return generate_synthetic(broadband_spec(channel_count=4, sample_count=5000, seed=3))


@pytest.fixture(scope="session")
def full_signal() -> SignalMatrix:
    """The full-size default synthetic record, built once per session."""
    return generate_synthetic(broadband_spec())


@pytest.fixture
def pools(monkeypatch):
    """(max_workers of every pool the routes build, sched_getaffinity calls),
    with 2 CPUs available and STREAMFILT_THREADS unset."""
    built, lookups = [], []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            built.append(max_workers)
            super().__init__(max_workers, **kwargs)

    def two_cpus(pid):
        lookups.append(pid)
        return {0, 1}

    monkeypatch.setattr(filtering, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(filtering.os, "sched_getaffinity", two_cpus, raising=False)
    monkeypatch.delenv("STREAMFILT_THREADS", raising=False)
    return built, lookups


def make_signal(data, rate: float = 600.614) -> SignalMatrix:
    data = np.asarray(data, dtype=np.float64)
    info = SignalInfo.with_default_labels(rate, data.shape[0], data.shape[1])
    return SignalMatrix(info=info, data=data)
