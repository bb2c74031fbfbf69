"""Per-channel Pearson fidelity between two filtering routes.

Correlation uses the two-pass formulation (subtract means, then form the
normalized dot product), which is well conditioned for the near-constant
channels band-pass filtering tends to produce. A channel with zero variance
has no defined correlation and is flagged, never silently reported as 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import UndefinedCorrelationError, ValidationError
from ._fsio import atomic_write_csv
from .signal_core import SignalMatrix


def pearson(x, y) -> float:
    """Pearson correlation of two equal-length vectors.

    Bitwise identical inputs return exactly 1.0 and bitwise negated inputs
    exactly -1.0, sidestepping the last-ulp wobble of the general formula.
    Everything else goes through the two-pass computation, clamped to
    [-1, 1]. A constant vector raises UndefinedCorrelationError.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1:
        raise ValidationError("pearson expects 1-D vectors")
    if x.size != y.size:
        raise ValidationError(f"length mismatch: {x.size} vs {y.size}")
    if x.size < 2:
        raise ValidationError(f"pearson needs at least 2 samples, got {x.size}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValidationError("pearson inputs must be finite")
    for name, vec in (("x", x), ("y", y)):
        if vec.max() == vec.min():
            raise UndefinedCorrelationError(f"{name} is constant, correlation undefined")
    if np.array_equal(x, y):
        return 1.0
    if np.array_equal(x, -y):
        return -1.0
    dx = x - x.mean()
    dy = y - y.mean()
    sxx = float(dx @ dx)
    syy = float(dy @ dy)
    if sxx == 0.0 or syy == 0.0:
        raise UndefinedCorrelationError("zero variance after centering")
    r = float(dx @ dy) / math.sqrt(sxx * syy)
    return min(1.0, max(-1.0, r))


@dataclass(frozen=True, eq=False)
class FidelityReport:
    """Per-channel correlations between a reference and a candidate route."""

    config_label: str
    channel_labels: tuple[str, ...]
    per_channel_r: np.ndarray
    defined: np.ndarray
    checksum: str | None = None

    def __post_init__(self) -> None:
        r = np.array(self.per_channel_r, dtype=np.float64)
        flags = np.array(self.defined, dtype=bool)
        labels = tuple(self.channel_labels)
        if r.ndim != 1 or flags.shape != r.shape or len(labels) != r.size:
            raise ValidationError("per_channel_r, defined and channel_labels must align")
        if not flags.any():
            raise ValidationError("a report needs at least one defined channel")
        if np.isnan(r[flags]).any():
            raise ValidationError("defined channels must have numeric r")
        r.setflags(write=False)
        flags.setflags(write=False)
        object.__setattr__(self, "per_channel_r", r)
        object.__setattr__(self, "defined", flags)
        object.__setattr__(self, "channel_labels", labels)

    @property
    def min_r(self) -> float:
        return float(self.per_channel_r[self.defined].min())

    @property
    def median_r(self) -> float:
        return float(np.median(self.per_channel_r[self.defined]))

    @property
    def max_r(self) -> float:
        return float(self.per_channel_r[self.defined].max())

    @property
    def defined_count(self) -> int:
        return int(self.defined.sum())


def compare_channels(
    reference: SignalMatrix, candidate: SignalMatrix, config_label: str
) -> FidelityReport:
    """Correlate every channel of candidate against reference.

    Channels where either side is constant are flagged as undefined and
    excluded from the summary statistics. If every channel is undefined the
    comparison as a whole is meaningless and raises.
    """
    if reference.info != candidate.info:
        raise ValidationError("signals differ in geometry or labeling, cannot compare")
    r, defined = correlate_rows(reference.data, candidate.data)
    return channel_report(config_label, reference.info.channel_labels, r, defined)


def correlate_rows(
    reference: np.ndarray, candidate: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """compare_channels' per-channel loop: the Pearson r of each pair of
    rows (NaN where undefined) and whether it is defined.

    A caller that reads a record in channel blocks runs this per block and
    passes the joined results to channel_report.
    """
    n_ch = reference.shape[0]
    r = np.full(n_ch, np.nan)
    defined = np.zeros(n_ch, dtype=bool)
    for ch in range(n_ch):
        try:
            r[ch] = pearson(reference[ch], candidate[ch])
            defined[ch] = True
        except UndefinedCorrelationError:
            pass
    return r, defined


def channel_report(
    config_label: str, channel_labels, r: np.ndarray, defined: np.ndarray
) -> FidelityReport:
    """The report of a whole record's per-channel r and defined flags.

    Raises UndefinedCorrelationError if no channel is defined.
    """
    if not np.any(defined):
        raise UndefinedCorrelationError(
            f"all {len(defined)} channels have undefined correlation for {config_label!r}"
        )
    return FidelityReport(
        config_label=config_label,
        channel_labels=channel_labels,
        per_channel_r=r,
        defined=defined,
    )


def channel_rows(report: FidelityReport) -> Iterator[str]:
    """One channel,r,defined row per channel; r is empty where undefined."""
    for label, value, flag in zip(report.channel_labels, report.per_channel_r, report.defined):
        r_text = repr(float(value)) if flag else ""
        yield f"{label},{r_text},{'yes' if flag else 'no'}"


def write_report_csv(report: FidelityReport, path) -> None:
    """Write per-channel rows plus min/median/max summary rows."""
    rows = list(channel_rows(report))
    rows.append(f"min_r,{report.min_r!r},")
    rows.append(f"median_r,{report.median_r!r},")
    rows.append(f"max_r,{report.max_r!r},")
    atomic_write_csv(path, "channel,r,defined", rows)
