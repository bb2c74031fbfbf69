"""Measurement primitives of the benchmark: clock, percentile rule, spans,
the child-process launcher, checksums and the environment record.

Nothing here imports streamfilt, so the rules can be tested without the
program under test. Every time in the benchmark comes from `clock`, never
from the program's own timing helpers, so a change to the program cannot
change how it is measured.
"""

from __future__ import annotations

import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

clock = time.perf_counter

# Metric and workload names: what the result line may carry.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# Percentiles offered for the tail of a timing, lowest first.
TAIL_LADDER = tuple(Fraction(q) for q in ("50", "90", "99", "99.9", "99.99", "99.999"))
TAIL_MIN_BEYOND = 10

RECORDED_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "STREAMFILT_THREADS",
    "NUMPY_MADVISE_HUGEPAGE",
)


def check_name(name: str) -> str:
    if not NAME_RE.fullmatch(name):
        raise ValueError(f"bad metric name {name!r}")
    return name


def samples_beyond(n: int, q: Fraction) -> int:
    """Samples strictly above the nearest-rank q-th percentile of n samples."""
    return n - math.ceil(n * q / 100)


def tail_percentile(n: int) -> Fraction | None:
    """Highest ladder percentile with at least ten samples beyond it."""
    best = None
    for q in TAIL_LADDER:
        if samples_beyond(n, q) >= TAIL_MIN_BEYOND:
            best = q
    return best


def percentile(values, q: Fraction) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * q / 100))
    return ordered[rank - 1]


def summarize(values) -> dict:
    """Median, the tail percentile the sample count supports, and the count."""
    values = list(values)
    out = {"median": statistics.median(values), "n": len(values)}
    q = tail_percentile(len(values))
    if q is not None:
        out[f"p{float(q):g}"] = percentile(values, q)
    return out


def crc(array: np.ndarray) -> str:
    """CRC-32 of the little-endian float64 bytes, as 8 hex digits."""
    payload = np.ascontiguousarray(array, dtype="<f8")
    return f"{zlib.crc32(payload) & 0xFFFFFFFF:08x}"


def close(out: np.ndarray, ref: np.ndarray, rtol: float = 1e-9) -> str | None:
    """None when out matches ref to rtol of ref's largest magnitude, else why not."""
    if out.shape != ref.shape:
        return f"shape {out.shape} != {ref.shape}"
    scale = float(np.max(np.abs(ref))) if ref.size else 0.0
    err = float(np.max(np.abs(out - ref))) if ref.size else 0.0
    if not err <= rtol * max(scale, np.finfo(np.float64).tiny):
        return f"max abs error {err:.3e} exceeds {rtol:g} x {scale:.3e}"
    return None


@dataclass
class Span:
    name: str
    start: float
    end: float | None
    parent: int | None
    run_id: str


@dataclass
class Tracer:
    """Spans kept in memory, written once when the run ends."""

    run_id: str
    enabled: bool = False
    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, clock(), None, parent, self.run_id))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = clock()

    def durations(self, name: str, parent: str | None = None) -> list[float]:
        """Durations of spans called name, optionally only under a parent name."""
        return [
            s.end - s.start
            for s in self.spans
            if s.name == name
            and (parent is None or (s.parent is not None and self.spans[s.parent].name == parent))
        ]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach, s.start), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


def span_table(spans: list[Span]) -> dict:
    """Per span name: count, total seconds and self seconds."""
    table: dict[str, dict] = {}
    for s, own in zip(spans, self_times(spans)):
        row = table.setdefault(s.name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += s.end - s.start
        row["self_s"] += own
    return table


@dataclass(frozen=True)
class ChildResult:
    exit_code: int
    wall_s: float
    peak_rss_bytes: int


class Launcher:
    """Client of launcher.py, which starts the CLI children."""

    def __init__(self):
        script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "launcher.py")
        self.proc = subprocess.Popen(
            [sys.executable, script], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )

    def run(self, argv, *, env, cwd, stdout_path, stderr_path) -> ChildResult:
        request = {"argv": list(argv), "env": env, "cwd": cwd,
                   "stdout_path": stdout_path, "stderr_path": stderr_path}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the launcher exited")
        return ChildResult(**json.loads(line))

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def environment() -> dict:
    import scipy

    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": affinity,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "env_vars": {name: os.environ.get(name) for name in RECORDED_VARS},
    }
