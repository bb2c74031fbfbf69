from __future__ import annotations

import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest

import streamfilt
from streamfilt import _threads
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
    """What the routes ask of a fresh process pool, with 2 CPUs available
    and STREAMFILT_THREADS unset: .built holds the max_workers of every
    pool built, .submitted counts the tasks handed to one, and .lookups
    the sched_getaffinity calls."""
    seen = SimpleNamespace(built=[], submitted=0, lookups=[])

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            seen.built.append(max_workers)
            super().__init__(max_workers, **kwargs)

        def submit(self, *args, **kwargs):
            seen.submitted += 1
            return super().submit(*args, **kwargs)

    def two_cpus(pid):
        seen.lookups.append(pid)
        return {0, 1}

    monkeypatch.setattr(_threads, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(_threads, "_pool", _threads._WorkerPool())
    monkeypatch.setattr(_threads.os, "sched_getaffinity", two_cpus, raising=False)
    monkeypatch.delenv("STREAMFILT_THREADS", raising=False)
    return seen


def make_signal(data, rate: float = 600.614) -> SignalMatrix:
    data = np.asarray(data, dtype=np.float64)
    info = SignalInfo.with_default_labels(rate, data.shape[0], data.shape[1])
    return SignalMatrix(info=info, data=data)


def run_fresh(script, *args, env_overrides=None):
    """Run script in a new interpreter that imports this checkout's streamfilt."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(streamfilt.__file__)))
    env = dict(os.environ, **(env_overrides or {}))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
