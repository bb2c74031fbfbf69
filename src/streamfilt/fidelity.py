"""Per-channel Pearson fidelity between two filtering routes.

Correlation uses the two-pass formulation (subtract means, then form the
normalized dot product), which is well conditioned for the near-constant
channels band-pass filtering tends to produce. A channel with zero variance
has no defined correlation and is flagged, never silently reported as 0.

One kernel scores every pair of rows, for pearson, correlate_rows,
compare_channels and the CLI compare. It takes each row's mean, then sums
the centred squares and products over fixed chunks of _CHUNK columns with
numpy's own loops, never BLAS, in scratch of one (rows x chunk) pair per
channel block. Every row's r depends only on that row and the chunk bounds:
not on the rows scored with it, the thread count or the BLAS library. The
channel blocks run on the package's threads (_threads.run_channel_blocks),
the same kept pool the filtering routes use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ._fsio import atomic_write_csv
from ._threads import run_channel_blocks
from .errors import UndefinedCorrelationError, ValidationError
from .signal_core import SignalMatrix

# Columns per chunk of the centred sums. The chunk bounds are part of every
# row's result, so this is a constant. A 59 x 4096 pair of centred chunks
# is 3.9 MB, against the 26 MB of one channel block of the default record;
# the CLI compare must stay under 3.5 blocks (test_peak_memory_near_two_blocks).
_CHUNK = 4096


def pearson(x, y) -> float:
    """Pearson correlation of two equal-length vectors.

    Bitwise identical inputs return exactly 1.0 and bitwise negated inputs
    exactly -1.0, sidestepping the last-ulp wobble of the general formula.
    Everything else goes through the two-pass computation, clamped to
    [-1, 1]. A constant vector raises UndefinedCorrelationError. The value
    is bit for bit that of the matching row of correlate_rows.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1:
        raise ValidationError("pearson expects 1-D vectors")
    if x.size != y.size:
        raise ValidationError(f"length mismatch: {x.size} vs {y.size}")
    r, defined = correlate_rows(x[np.newaxis], y[np.newaxis], n_threads=1)
    if not defined[0]:
        raise UndefinedCorrelationError(
            "a vector is constant or has zero variance after centering, "
            "correlation undefined"
        )
    return float(r[0])


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
    comparison as a whole is meaningless and raises. The channels run on
    the package's threads, as in correlate_rows with n_threads=None.
    """
    if reference.info != candidate.info:
        raise ValidationError("signals differ in geometry or labeling, cannot compare")
    r, defined = correlate_rows(reference.data, candidate.data)
    return channel_report(config_label, reference.info.channel_labels, r, defined)


def correlate_rows(
    reference: np.ndarray, candidate: np.ndarray, *, n_threads: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The Pearson r of each pair of rows (NaN where undefined) and whether
    it is defined, as compare_channels reports them.

    A row is undefined where either side is constant or has zero variance
    after centering; a non-finite sample raises ValidationError. The rows
    run in channel blocks on n_threads threads, resolved as for the
    filtering routes but on the unpadded shape. A caller that reads a record
    in channel blocks runs this per block and passes the joined results to
    channel_report.
    """
    # C order, so each row's mean is that of the row alone (numpy reduces a
    # C-ordered row as it reduces a 1-D vector); other layouts are copied.
    x = np.ascontiguousarray(reference, dtype=np.float64)
    y = np.ascontiguousarray(candidate, dtype=np.float64)
    if x.ndim != 2 or x.shape != y.shape:
        raise ValidationError(
            f"correlate_rows expects two 2-D arrays of one shape, got {x.shape} and {y.shape}"
        )
    if x.shape[1] < 2:
        raise ValidationError(f"pearson needs at least 2 samples, got {x.shape[1]}")
    r = np.empty(x.shape[0])
    run_channel_blocks(x.shape, n_threads, lambda rows: _score_rows(x[rows], y[rows], r[rows]))
    return r, ~np.isnan(r)


def _score_rows(x: np.ndarray, y: np.ndarray, out: np.ndarray) -> None:
    """Write the Pearson r of each pair of rows of x and y into out, NaN
    where it is undefined."""
    rows, width = x.shape
    mx = x.mean(axis=1)
    my = y.mean(axis=1)
    if not (np.isfinite(mx).all() and np.isfinite(my).all()):
        # A non-finite sample makes the mean of its row non-finite.
        raise ValidationError("pearson inputs must be finite")
    sums = np.zeros((3, rows))
    dx = np.empty((rows, min(width, _CHUNK)))
    dy = np.empty_like(dx)
    for start in range(0, width, _CHUNK):
        stop = min(start + _CHUNK, width)
        a, b = dx[:, : stop - start], dy[:, : stop - start]
        np.subtract(x[:, start:stop], mx[:, np.newaxis], out=a)
        np.subtract(y[:, start:stop], my[:, np.newaxis], out=b)
        sums[0] += np.einsum("ij,ij->i", a, a)
        sums[1] += np.einsum("ij,ij->i", b, b)
        sums[2] += np.einsum("ij,ij->i", a, b)
    sxx, syy, sxy = sums
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.clip(sxy / np.sqrt(sxx * syy), -1.0, 1.0)
    r[(sxx == 0.0) | (syy == 0.0)] = np.nan
    # Identical rows have three equal sums and negated rows sums of one
    # size, so only such rows are read again to be scored exactly.
    for i in np.flatnonzero((sxx == syy) & (np.abs(sxy) == sxx)):
        if np.array_equal(x[i], y[i]):
            r[i] = 1.0
        elif np.array_equal(x[i], -y[i]):
            r[i] = -1.0
    r[_constant_rows(x) | _constant_rows(y)] = np.nan
    out[:] = r


def _constant_rows(x: np.ndarray) -> np.ndarray:
    """Whether each row of x is constant (max == min); only a row whose
    first chunk is constant is read whole."""
    head = x[:, :_CHUNK]
    flat = head.max(axis=1) == head.min(axis=1)
    for i in np.flatnonzero(flat):
        flat[i] = x[i].max() == x[i].min()
    return flat


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
