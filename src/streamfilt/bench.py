"""Latency measurement of the filtering routes and packet-size sweeps.

Timings are wall-clock seconds around the filtering call only (kernel design
is never inside the timed region). Each configuration reports the sample
mean and a 95 percent confidence half-width from the Student t distribution,
plus a CRC-32 checksum of the last output so separate runs can be checked
for identical results, not just similar speed. The t quantile is computed
here with math alone (student_t_975), so a bench or sweep run imports no
statistics library.
"""

from __future__ import annotations

import gc
import math
import time
import zlib
from dataclasses import dataclass, replace

import numpy as np

from .errors import StreamfiltError, ValidationError
from ._fsio import atomic_write_csv
from .fidelity import FidelityReport, channel_rows, compare_channels
from .filtering import (
    Batch,
    FilterMode,
    PerPacket,
    StatefulStream,
    apply_mode,
    mode_from_name,
)
from .fir_design import FilterSpec, design_bandpass
from .signal_core import SignalMatrix, _as_count, _as_int, replicate_signal


# The standard normal's upper 97.5 percent point, written out so that the
# module needs nothing beyond math for it.
_Z_975 = 1.959963984540054
# Largest df solved on the exact finite sum; above it the sum gathers
# rounding and the Cornish-Fisher expansion is already within about 1e-14.
_EXACT_MAX_DF = 500


def _cornish_fisher_975(df: int) -> float:
    """Cornish-Fisher expansion of t(0.975, df) in 1/df to the g4 term
    (Abramowitz and Stegun 26.7.5)."""
    x, x2 = _Z_975, _Z_975 * _Z_975
    g1 = x * (x2 + 1.0) / 4.0
    g2 = x * ((5.0 * x2 + 16.0) * x2 + 3.0) / 96.0
    g3 = x * (((3.0 * x2 + 19.0) * x2 + 17.0) * x2 - 15.0) / 384.0
    g4 = x * ((((79.0 * x2 + 776.0) * x2 + 1482.0) * x2 - 1920.0) * x2 - 945.0) / 92160.0
    return x + (g1 + (g2 + (g3 + g4 / df) / df) / df) / df


def _central_probability(t: float, df: int) -> float:
    """P(|T| < t) for t >= 0 as the finite trigonometric sum of Abramowitz
    and Stegun 26.7.3 (odd df) and 26.7.4 (even df)."""
    theta = math.atan(t / math.sqrt(df))
    c2 = math.cos(theta) ** 2
    term = total = 1.0
    # Term ratios are c2 * j / (j + 1): j = 1, 3, ... for even df and
    # j = 2, 4, ... for odd df, up to df - 3.
    for j in range(1 + df % 2, df - 2, 2):
        term *= c2 * j / (j + 1)
        total += term
    if df % 2 == 0:
        return math.sin(theta) * total
    tail = math.sin(theta) * math.cos(theta) * total if df > 1 else 0.0
    return 2.0 / math.pi * (theta + tail)


def student_t_975(df: int) -> float:
    """Upper 97.5 percent quantile of Student's t with df degrees of freedom.

    Computed with math alone, so a confidence interval loads no statistics
    library and does not depend on one's version. For df <= 500 Newton's
    method, started from the Cornish-Fisher expansion, solves
    P(|T| < t) = 0.95 on the exact finite sum of Abramowitz and Stegun
    26.7.3/26.7.4, with the density from math.lgamma; above that the
    expansion to its g4 term is the value. Both agree with scipy.stats and
    with 40-digit mpmath to about 3e-14 relative. df must be an integer
    >= 1; a bool, float or str raises ValidationError.
    """
    n = _as_count(df, "degrees of freedom")
    t = _cornish_fisher_975(n)
    if n > _EXACT_MAX_DF:
        return t
    log_norm = math.lgamma((n + 1) / 2) - math.lgamma(n / 2) - 0.5 * math.log(n * math.pi)
    # Each step moves t by the error of P(|T| < t) over twice the density.
    # The sum's rounding keeps steps near 1e-14 t, so stop at 1e-13 t.
    for _ in range(20):
        density = math.exp(log_norm - (n + 1) / 2 * math.log1p(t * t / n))
        step = (_central_probability(t, n) - 0.95) / (2.0 * density)
        t -= step
        if abs(step) <= 1e-13 * t:
            break
    return t


def ci95_halfwidth(samples) -> float:
    """Half-width of the 95 percent t confidence interval for the mean.

    t(0.975, n - 1) * sd / sqrt(n) with the unbiased (ddof=1) standard
    deviation. Identical samples give exactly 0.
    """
    arr = np.asarray(samples, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 2:
        raise ValidationError("need at least 2 samples for a confidence interval")
    sd = float(arr.std(ddof=1))
    return student_t_975(arr.size - 1) * sd / float(np.sqrt(arr.size))


def checksum_matrix(data: np.ndarray) -> str:
    """CRC-32 of the little-endian float64 bytes, as 8 hex digits."""
    payload = np.ascontiguousarray(data, dtype="<f8").tobytes()
    return f"{zlib.crc32(payload) & 0xFFFFFFFF:08x}"


@dataclass(frozen=True)
class TimingReport:
    """Repeated wall-clock measurements of one filtering configuration."""

    config_label: str
    packet_size: int | None
    repetitions: int
    mean_s: float
    ci95_halfwidth_s: float
    samples_s: tuple[float, ...]
    checksum: str

    def __post_init__(self) -> None:
        if self.repetitions != len(self.samples_s):
            raise ValidationError(
                f"repetitions {self.repetitions} does not match "
                f"{len(self.samples_s)} samples"
            )
        if self.repetitions < 2:
            raise ValidationError("a timing report needs at least 2 repetitions")
        if any(not np.isfinite(s) or s < 0 for s in self.samples_s):
            raise ValidationError("timing samples must be finite and non-negative")

    @classmethod
    def from_samples(
        cls, config_label: str, packet_size: int | None, samples, checksum: str
    ) -> "TimingReport":
        samples = tuple(float(s) for s in samples)
        return cls(
            config_label=config_label,
            packet_size=packet_size,
            repetitions=len(samples),
            mean_s=float(np.mean(samples)),
            ci95_halfwidth_s=ci95_halfwidth(samples),
            samples_s=samples,
            checksum=checksum,
        )


def time_filtering(
    signal: SignalMatrix,
    kernel,
    mode: FilterMode,
    repetitions: int,
    *,
    warmup: int = 3,
    clock=time.perf_counter,
    method: str = "auto",
) -> TimingReport:
    """Time apply_mode over several repetitions of identical work.

    Warmup runs are not timed and do not touch the clock; afterwards the
    clock is called exactly twice per repetition, which makes the function
    testable with a scripted fake clock. Filtering is pinned to one thread
    (n_threads=1), whatever the CPU count or STREAMFILT_THREADS, and runs
    with the garbage collector paused, so repetitions stay comparable and
    the latency ordering of the routes is that of one core, not of however
    many cores the host has.
    """
    repetitions = _as_count(repetitions, "repetitions", 2)
    warmup = _as_count(warmup, "warmup", 0)
    for _ in range(warmup):
        out = apply_mode(signal, kernel, mode, method=method, n_threads=1)
    samples = []
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repetitions):
            start = clock()
            out = apply_mode(signal, kernel, mode, method=method, n_threads=1)
            stop = clock()
            samples.append(stop - start)
    finally:
        if gc_was_enabled:
            gc.enable()
    return TimingReport.from_samples(
        config_label=mode.describe(),
        packet_size=mode.packet_size,
        samples=samples,
        checksum=checksum_matrix(out.data),
    )


@dataclass(frozen=True)
class SweepConfig:
    """One packet-size sweep: which sizes, how often, against which filter."""

    filter_spec: FilterSpec
    packet_sizes: tuple[int, ...]
    mode: str = PerPacket.name
    repetitions_accuracy: int = 2
    repetitions_timing: int = 20
    replicate_factor: int = 3
    warmup: int = 3

    def __post_init__(self) -> None:
        sizes = tuple(_as_int(s) for s in self.packet_sizes)
        if not sizes:
            raise ValidationError("packet_sizes must not be empty")
        if any(s is None or s < 1 for s in sizes):
            raise ValidationError(
                f"packet sizes must be integers >= 1, got {tuple(self.packet_sizes)!r}"
            )
        object.__setattr__(self, "packet_sizes", sizes)
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ValidationError(f"packet sizes must be strictly increasing, got {sizes}")
        if self.mode not in (PerPacket.name, StatefulStream.name):
            raise ValidationError(
                f"mode must be {PerPacket.name!r} or {StatefulStream.name!r}, got {self.mode!r}"
            )
        for name, minimum in (
            ("repetitions_accuracy", 1),
            ("repetitions_timing", 2),
            ("replicate_factor", 1),
            ("warmup", 0),
        ):
            object.__setattr__(self, name, _as_count(getattr(self, name), name, minimum))


def run_sweep(
    signal: SignalMatrix, config: SweepConfig
) -> tuple[list[FidelityReport], list[TimingReport]]:
    """Fidelity and latency across packet sizes.

    Fidelity: each size is filtered repetitions_accuracy times on the
    original signal; the run is required to be deterministic (identical
    checksums), and the last output is correlated channel by channel against
    the batch reference. These passes use the default thread count, since
    their outputs are bitwise the same for any. Timing: the signal is
    replicated replicate_factor times along the time axis and every
    configuration, batch first, is timed repetitions_timing times on that
    longer record; those passes are pinned to one thread by time_filtering.
    """
    kernel = design_bandpass(config.filter_spec)
    reference = apply_mode(signal, kernel, Batch())

    fidelity_reports = []
    for size in config.packet_sizes:
        mode = mode_from_name(config.mode, signal, size)
        checksums = set()
        out = None
        for _ in range(config.repetitions_accuracy):
            out = apply_mode(signal, kernel, mode)
            checksums.add(checksum_matrix(out.data))
        if len(checksums) != 1:
            raise StreamfiltError(
                f"{mode.describe()} produced {len(checksums)} distinct outputs "
                f"over {config.repetitions_accuracy} repetitions"
            )
        report = compare_channels(reference, out, config_label=mode.describe())
        fidelity_reports.append(replace(report, checksum=checksums.pop()))

    replicated = replicate_signal(signal, config.replicate_factor)
    timing_reports = [
        time_filtering(
            replicated, kernel, Batch(), config.repetitions_timing, warmup=config.warmup
        )
    ]
    for size in config.packet_sizes:
        mode = mode_from_name(config.mode, replicated, size)
        timing_reports.append(
            time_filtering(
                replicated, kernel, mode, config.repetitions_timing, warmup=config.warmup
            )
        )
    return fidelity_reports, timing_reports


def write_sweep_fidelity_csv(
    packet_sizes, reports: list[FidelityReport], path
) -> None:
    """One row per packet size and channel: packet_size,channel,r,defined."""
    if len(packet_sizes) != len(reports):
        raise ValidationError("one fidelity report per packet size expected")
    rows = (
        f"{size},{row}"
        for size, report in zip(packet_sizes, reports)
        for row in channel_rows(report)
    )
    atomic_write_csv(path, "packet_size,channel,r,defined", rows)


def write_sweep_timing_csv(reports: list[TimingReport], path) -> None:
    """One row per timed configuration, batch rows say 'batch'."""
    rows = []
    for rep in reports:
        size_text = "batch" if rep.packet_size is None else str(rep.packet_size)
        rows.append(
            f"{rep.config_label},{size_text},{rep.repetitions},"
            f"{rep.mean_s!r},{rep.ci95_halfwidth_s!r},{rep.checksum}"
        )
    header = "config_label,packet_size_or_batch,repetitions,mean_s,ci95_halfwidth_s,checksum"
    atomic_write_csv(path, header, rows)
