"""The workloads, their correctness checks and the traced layer probes.

Every run prints every end-to-end metric, so every workload measures all
three segments: whole CLI runs (`cli`), the paper's route sweep in process
(`route`) and live packets (`live`). A workload alternates these units,
its own kind first. All segments are closed loop: one caller, one process
at a time.

Outputs are checked outside the timed region, against the oracle in
oracle.py and against each other; a failed check counts as a failed
operation.
"""

from __future__ import annotations

import gc
import itertools
import os
import statistics
import sys
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

import streamfilt as sf
from streamfilt import cli as sf_cli
from streamfilt._fsio import atomic_write_bytes
from streamfilt.convolution import (
    choose_method,
    convolve_valid,
    convolve_valid_direct,
    reflect_pad,
)

import oracle
from harness import ChildResult, Launcher, Tracer, clock, close, crc, self_times

LOW_HZ, HIGH_HZ, RATE_HZ = 2.0, 30.0, 600.614
SWEEP_SIZES = (200, 400, 991)
CLI_PACKET = 400
LIVE_PACKETS = 1000  # per run at least; p99 then has ten samples beyond it
LIVE_POOL = 200
LIVE_SIZES = (32, 1024)
SETUP_REPS = 3
# The oracle covers this many channels, drawn by the record seed. Every
# engine filters each channel on its own; on all 59 channels the oracle's
# direct convolutions took about 3 s of every run.
ORACLE_ROWS = 8
LIVE_BURST = 250
# Per workload: the units it cycles through, its own kind first, so its own
# kind runs once more than the other when the time left fits one more.
PATTERNS = {
    "cli-pipeline": ("cli", "route"),
    "route-sweep": ("route", "cli"),
}
MIN_UNITS = 3  # of each kind; a median of three drops one slow sample
# The route output checksum that each CLI output must repeat.
CLI_CHECKSUMS = {
    "batch": "batch",
    "per_packet": f"per_packet_{CLI_PACKET}",
    "stateful": f"stateful_{CLI_PACKET}",
    "report": f"report_r_{CLI_PACKET}",
}
CLI_ENTRY = "import sys; from streamfilt.cli import main; sys.exit(main())"

END_TO_END = {
    "setup_s": "s",
    "cli_filter_batch_s": "s",
    "cli_filter_per_packet_s": "s",
    "cli_filter_stateful_s": "s",
    "cli_compare_s": "s",
    "cli_peak_rss_mb": "MB",
    "batch_s": "s",
    "per_packet_200_s": "s",
    "per_packet_400_s": "s",
    "per_packet_991_s": "s",
    "stateful_400_s": "s",
    "packet_latency_p50_ms": "ms",
}


@dataclass
class Run:
    root: str
    work: str
    workload: str
    seed: int
    packet_seed: int
    channels: int
    samples: int
    seconds: float
    tracer: Tracer
    launcher: Launcher
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    by_state: dict = field(default_factory=lambda: {False: defaultdict(list), True: defaultdict(list)})
    checksums: dict = field(default_factory=dict)
    median_r: dict = field(default_factory=dict)
    live_sent: int = 0
    live_measured: list = field(default_factory=list)
    import_s: dict = field(default_factory=lambda: defaultdict(list))
    cli_pending: list = field(default_factory=list)
    defined_channels: int = 0

    @property
    def timings(self) -> dict:
        """Samples of the tracer state now in force."""
        return self.by_state[self.tracer.enabled]

    def op(self, label, metric, span, fn, check):
        """One attempted operation: time fn, then check its result untimed."""
        self.attempted += 1
        try:
            with self.tracer.span(span):
                start = clock()
                result = fn()
                elapsed = clock() - start
            problem = check(result)
        except Exception as exc:  # a program failure is counted, and the run goes on
            problem = f"{type(exc).__name__}: {exc}"
        if problem:
            self.failed += 1
            self.errors.append(f"{label}: {problem}")
            return None
        if metric:
            self.timings[metric].append(elapsed)
        return result

    def same_as_first(self, key: str, data: np.ndarray) -> str | None:
        value = crc(data)
        first = self.checksums.setdefault(key, value)
        return None if value == first else f"checksum {value} differs from the first {first}"

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)


# ---------------------------------------------------------------- set-up


def setup(run: Run) -> None:
    """Generate and store the seeded record and design the kernel, SETUP_REPS times."""
    tr = run.tracer
    for _ in range(SETUP_REPS):
        run.signal = run.kernel = None
        gc.collect()
        with tr.span("setup"):
            start = clock()
            with tr.span("signal_core.generate_synthetic"):
                signal = sf.generate_synthetic(
                    sf.broadband_spec(
                        channel_count=run.channels, sample_count=run.samples, seed=run.seed
                    )
                )
            with tr.span("signal_core.store_signal"):
                sf.store_signal(signal, run.path("record"))
            with tr.span("fir_design.design_bandpass"):
                kernel = sf.design_bandpass(sf.FilterSpec(LOW_HZ, HIGH_HZ, RATE_HZ))
            run.timings["setup_s"].append(clock() - start)
        run.signal, run.kernel = signal, kernel
    # Put the record on disk now, so its write-back does not fall in a timed call.
    for suffix in (".json", ".f64"):
        with open(run.path("record") + suffix, "rb") as fh:
            os.fsync(fh.fileno())


def build_oracle(run: Run) -> None:
    """Reference outputs for every route, and the live packets; once per seed."""
    x, taps = run.signal.data, run.kernel.taps
    run.checksums["record"] = crc(x)
    rows = np.random.default_rng(run.seed).choice(
        run.channels, min(ORACLE_ROWS, run.channels), replace=False
    )
    run.rows = np.sort(rows)
    x = x[run.rows]
    run.oracle_batch = oracle.reflect_filter(x, taps)
    run.oracle_pp = {p: oracle.per_packet_filter(x, taps, p) for p in SWEEP_SIZES}
    run.expected_r = {p: oracle.pearson_rows(run.oracle_batch, run.oracle_pp[p]) for p in SWEEP_SIZES}
    run.plans = {p: sf.packetize(run.signal, p) for p in SWEEP_SIZES}
    run.live = [(n, raw, oracle.reflect_filter(raw[run.rows], taps)) for n, raw in live_packets(run)]
    run.direct = run.op(
        "batch_direct",
        None,
        "filtering.filter_batch_direct",
        lambda: sf.filter_batch(run.signal, run.kernel, method="direct"),
        lambda out: close(out.data[run.rows], run.oracle_batch),
    )


def live_packets(run: Run):
    """The record, looped, cut into LIVE_POOL packets.

    The sizes are spread evenly over LIVE_SIZES and put in a seeded order,
    so every seed has the same mix of sizes and the latency percentiles do
    not depend on which sizes a seed happened to draw.
    """
    x = run.signal.data
    total = x.shape[1]
    rng = np.random.default_rng(run.packet_seed)
    sizes = rng.permutation(np.linspace(*LIVE_SIZES, LIVE_POOL).round().astype(int))
    pos = 0
    for n in sizes.tolist():
        if pos + n <= total:
            raw = x[:, pos : pos + n]
        else:
            raw = np.take(x, np.arange(pos, pos + n) % total, axis=1)
        yield n, raw
        pos = (pos + n) % total


# ---------------------------------------------------------------- route


def route_pass(run: Run) -> None:
    """Batch, per-packet at every sweep size, stateful at 400, and fidelity."""
    S, K = run.signal, run.kernel
    reports = {}
    with run.tracer.span("route.pass"):
        batch = run.op(
            "batch",
            "batch_s",
            "filtering.filter_batch",
            lambda: sf.filter_batch(S, K),
            lambda out: close(out.data[run.rows], run.oracle_batch)
            or run.same_as_first("batch", out.data),
        )
        for p in SWEEP_SIZES:
            out = run.op(
                f"per_packet_{p}",
                f"per_packet_{p}_s",
                f"filtering.filter_per_packet_{p}",
                lambda: sf.filter_per_packet(S, K, run.plans[p]),
                lambda out: close(out.data[run.rows], run.oracle_pp[p])
                or run.same_as_first(f"per_packet_{p}", out.data),
            )
            if out is None or batch is None:
                continue
            report = run.op(
                f"compare_{p}",
                None,
                "fidelity.compare_channels",
                lambda: sf.compare_channels(batch, out, f"per-packet={p}"),
                lambda rep: check_report(run, p, rep, reports),
            )
            if report is not None:
                reports[p] = report
                run.defined_channels = report.defined_count
        run.op(
            "stateful_400",
            "stateful_400_s",
            "filtering.filter_stateful_stream",
            lambda: sf.filter_stateful_stream(S, K, run.plans[CLI_PACKET]),
            lambda out: check_stateful(run, out),
        )


def check_report(run: Run, p: int, report, earlier: dict) -> str | None:
    if report.defined_count != run.channels:
        return f"{report.defined_count} of {run.channels} channels defined"
    err = float(np.max(np.abs(report.per_channel_r[run.rows] - run.expected_r[p])))
    if not err <= 1e-9:
        return f"per-channel r is {err:.3e} away from the oracle's"
    below = [earlier[q].median_r for q in SWEEP_SIZES if q < p and q in earlier]
    if below and not below[-1] < report.median_r:
        return f"median r {report.median_r!r} at {p} does not exceed {below[-1]!r}"
    first = run.median_r.setdefault(p, report.median_r)
    if report.median_r != first:
        return f"median r {report.median_r!r} differs from the first {first!r}"
    return run.same_as_first(f"report_r_{p}", report.per_channel_r)


def check_stateful(run: Run, out) -> str | None:
    if run.direct is None:
        return "no direct-engine batch output to compare with"
    if not np.array_equal(out.data, run.direct.data):
        return "not bitwise equal to the direct-engine batch output"
    return run.same_as_first("stateful_400", out.data)


# ---------------------------------------------------------------- cli


def cli_commands(run: Run, prefix: str = "cli"):
    """(name, metric, argv, output, in-process result key) per CLI call."""
    rec, band = run.path("record"), ["--low", str(LOW_HZ), "--high", str(HIGH_HZ)]
    out_b, out_p, out_s = (run.path(f"{prefix}_{k}") for k in ("batch", "per_packet", "stateful"))
    packets = ["--packet-size", str(CLI_PACKET)]
    return [
        ("filter_batch", "cli_filter_batch_s",
         ["filter", "--in", rec, "--out", out_b, *band], out_b, "batch"),
        ("filter_per_packet", "cli_filter_per_packet_s",
         ["filter", "--in", rec, "--out", out_p, *band, "--mode", "per-packet", *packets],
         out_p, "per_packet"),
        ("filter_stateful", "cli_filter_stateful_s",
         ["filter", "--in", rec, "--out", out_s, *band, "--mode", "stateful", *packets],
         out_s, "stateful"),
        ("compare", "cli_compare_s",
         ["compare", "--a", out_b, "--b", out_p, "--out", run.path(f"{prefix}_report.csv")],
         run.path(f"{prefix}_report.csv"), "report"),
    ]


def child_env(run: Run) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(run.root, "src")
    env.pop("STREAMFILT_THREADS", None)
    return env


def child(run: Run, argv, name: str) -> ChildResult:
    return run.launcher.run(
        argv,
        env=child_env(run),
        cwd=run.root,
        stdout_path=run.path(f"{name}.out"),
        stderr_path=run.path(f"{name}.err"),
    )


def read_stored(base: str, channels: int, samples: int) -> np.ndarray:
    """The benchmark's own reader for a stored payload."""
    data = np.fromfile(base + ".f64", dtype="<f8")
    if data.size != channels * samples:
        raise ValueError(f"{base}.f64 holds {data.size} samples, expected {channels * samples}")
    return data.reshape(channels, samples)


def read_report_r(path: str, labels) -> np.ndarray:
    rows = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            fields = line.rstrip("\n").split(",")
            if fields[0] in labels:
                rows[fields[0]] = float(fields[1])
    return np.array([rows[lab] for lab in labels])


def check_output(run: Run, label: str, target: str, key: str) -> None:
    """Keep the checksum of a stored output for check_cli_outputs."""
    if key == "report":
        got = read_report_r(target, run.signal.info.channel_labels)
    else:
        got = read_stored(target, run.channels, run.samples)
    run.cli_pending.append((label, key, crc(got)))


def check_cli_outputs(run: Run) -> None:
    """Each stored CLI output against the in-process route output of the same call.

    The checks wait until the end of the measurement, so that a CLI cycle
    may run before the first route pass.
    """
    for label, key, value in run.cli_pending:
        run.attempted += 1
        want = run.checksums.get(CLI_CHECKSUMS[key])
        if value != want:
            run.failed += 1
            run.errors.append(f"{label}: checksum {value} differs from the in-process {want}")
    run.cli_pending.clear()


def check_child(run: Run, res: ChildResult, name: str, target: str, key: str) -> str | None:
    if res.exit_code != 0:
        with open(run.path(f"{name}.err"), encoding="utf-8", errors="replace") as fh:
            tail = fh.read()[-300:]
        return f"exit code {res.exit_code}: {tail}"
    return check_output(run, f"cli {name}", target, key)


def remove_outputs(target: str) -> None:
    for path in (target, target + ".json", target + ".f64"):
        if os.path.exists(path):
            os.remove(path)


def cli_cycle(run: Run) -> None:
    """The four CLI calls, each a fresh interpreter, on the stored record."""
    gc.collect()
    peak = 0
    with run.tracer.span("cli.cycle"):
        for name, metric, args, target, key in cli_commands(run):
            remove_outputs(target)
            argv = [sys.executable, "-c", CLI_ENTRY, *args]
            res = run.op(
                f"cli {name}",
                None,
                f"cli.{name}",
                lambda: child(run, argv, name),
                lambda res: check_child(run, res, name, target, key),
            )
            if res is not None:
                run.timings[metric].append(res.wall_s)
                peak = max(peak, res.peak_rss_bytes)
    if peak:
        run.timings["cli_peak_rss_mb"].append(peak / 2**20)
    # Removed before the kernel writes them back, which would slow the next unit.
    for *_, target, _ in cli_commands(run):
        remove_outputs(target)


# ---------------------------------------------------------------- live


def live_call(run: Run, n: int, raw: np.ndarray):
    info = sf.SignalInfo(RATE_HZ, run.channels, n, run.signal.info.channel_labels)
    if not run.tracer.enabled:
        return sf.filter_batch(sf.SignalMatrix(info, raw), run.kernel)
    with run.tracer.span("signal_core.SignalMatrix"):
        packet = sf.SignalMatrix(info, raw)
    with run.tracer.span("filtering.filter_batch"):
        return sf.filter_batch(packet, run.kernel)


def live_packet(run: Run, index: int) -> None:
    n, raw, ref = run.live[index % len(run.live)]
    out = run.op(
        "live packet",
        "packet_latency_s",
        "live.packet",
        lambda: live_call(run, n, raw),
        lambda out: close(out.data[run.rows], ref),
    )
    if out is not None:
        run.live_measured.append((n, run.timings["packet_latency_s"][-1]))


def live_burst(run: Run) -> None:
    """The next LIVE_BURST packets of the pool, cycling."""
    for _ in range(LIVE_BURST):
        live_packet(run, run.live_sent)
        run.live_sent += 1


# ---------------------------------------------------------------- measurement


def measure(run: Run, trace: bool) -> None:
    """The workload's pattern of units, then live bursts up to the deadline.

    A unit is one route pass or one CLI cycle, and a burst of live packets
    follows each, so every metric's samples spread over the whole run. A
    unit starts only if its last duration still fits before the deadline;
    past it, only a kind with fewer than MIN_UNITS runs goes on. The time
    left that no unit fits is filled with live bursts. So a run measures
    about --seconds on a fast machine, and MIN_UNITS of each kind on a slow
    one. In a traced run every other unit of each kind runs with spans, so
    the difference is the tracing overhead.
    """
    units = {"route": route_pass, "cli": cli_cycle, "live": live_burst}
    seen = dict.fromkeys(units, 0)
    last = {}
    pattern = PATTERNS[run.workload]
    upcoming = itertools.cycle(pattern)
    kind = next(upcoming)
    gc.collect()
    deadline = clock() + run.seconds
    while True:
        short = [k for k in pattern if seen[k] < MIN_UNITS]
        fits = clock() + last.get(kind, 0.0) <= deadline
        if short and not fits and kind not in short:
            kind = short[0]
        if fits or short:
            steps, kind = (kind, "live"), next(upcoming)
        elif clock() < deadline or run.live_sent < LIVE_PACKETS:
            steps = ("live",)
        else:
            break
        start = clock()
        for k in steps:
            run.tracer.enabled = trace and seen[k] % 2 == 1
            seen[k] += 1
            units[k](run)
        last[steps[0]] = clock() - start
    run.tracer.enabled = False
    check_cli_outputs(run)


# ---------------------------------------------------------------- traced probes


def probes(run: Run) -> None:
    """Calls into each layer's public functions, each inside a span."""
    tr = run.tracer
    tr.enabled = True
    x, K = run.signal.data, run.kernel
    taps, delay = K.taps, K.group_delay_samples
    with tr.span("probe.cli"):
        for _ in range(5):
            with tr.span("cli.interpreter"):
                child(run, [sys.executable, "-c", "pass"], "interpreter")
        for _ in range(3):
            with tr.span("cli.importtime"):
                child(run, [sys.executable, "-X", "importtime", "-c", "import streamfilt.cli"], "importtime")
            for name, seconds in parse_importtime(run.path("importtime.err")).items():
                run.import_s[name].append(seconds)
        cli_replay(run)
    with tr.span("probe.signal_core"):
        payload = np.ascontiguousarray(x, dtype="<f8").tobytes()
        for _ in range(3):
            with tr.span("_fsio.atomic_write_bytes"):
                atomic_write_bytes(run.path("payload.f64"), payload)
        del payload
        for _ in range(5):
            with tr.span("signal_core.SignalMatrix"):
                sf.SignalMatrix(run.signal.info, x)
        for _ in range(20):
            with tr.span("fir_design.design_bandpass"):
                sf.design_bandpass(sf.FilterSpec(LOW_HZ, HIGH_HZ, RATE_HZ))
    with tr.span("probe.convolution"):
        for _ in range(3):
            with tr.span("convolution.reflect_pad"):
                padded = reflect_pad(x, delay)
            with tr.span("convolution.convolve_valid_fft"):
                convolve_valid(padded, taps, "fft")
        for _ in range(2):
            with tr.span("convolution.convolve_valid_direct"):
                convolve_valid_direct(padded, taps)
        del padded
    with tr.span("probe.filtering"):
        for _ in range(2):
            for p in SWEEP_SIZES:
                with tr.span(f"replay.per_packet_{p}"):
                    for start, stop in run.plans[p].slices():
                        with tr.span("convolution.reflect_pad"):
                            padded = reflect_pad(x[:, start:stop], delay)
                        with tr.span("convolution.convolve_valid"):
                            convolve_valid(padded, taps)
        replay_stateful(run)
    tr.enabled = False


def replay_stateful(run: Run) -> None:
    """The stateful route's direct-engine calls on the same extended chunks."""
    tr = run.tracer
    x, taps, length = run.signal.data, run.kernel.taps, run.kernel.length
    delay = run.kernel.group_delay_samples
    full = np.pad(x, ((0, 0), (delay, delay)), mode="reflect")
    state, flush = full[:, :delay], full[:, full.shape[1] - delay :]
    chunks = [x[:, a:b] for a, b in run.plans[CLI_PACKET].slices()] + [flush]
    with tr.span("replay.stateful_400"):
        for chunk in chunks:
            ext = np.concatenate([state, chunk], axis=1)
            if ext.shape[1] >= length:
                with tr.span("convolution.convolve_valid_direct"):
                    convolve_valid_direct(ext, taps)
                state = ext[:, ext.shape[1] - (length - 1) :]
            else:
                state = ext


def cli_replay(run: Run) -> None:
    """Each CLI command's steps, in process, each step in its own span."""
    tr = run.tracer
    for name, _, args, target, key in cli_commands(run, prefix="replay"):

        def steps(args=args):
            with tr.span("cli.parse_args"):
                ns = sf_cli.build_parser().parse_args(args)
            if ns.command == "compare":
                with tr.span("signal_core.load_signal"):
                    a = sf.load_signal(ns.a)
                with tr.span("signal_core.load_signal"):
                    b = sf.load_signal(ns.b)
                with tr.span("fidelity.compare_channels"):
                    report = sf.compare_channels(a, b, "replay")
                with tr.span("fidelity.write_report_csv"):
                    sf.write_report_csv(report, ns.out)
                return
            with tr.span("signal_core.load_signal"):
                signal = sf.load_signal(ns.input)
            with tr.span("fir_design.design_bandpass"):
                kernel = sf.design_bandpass(sf.FilterSpec(ns.low, ns.high, RATE_HZ, ns.length))
            if ns.mode == "batch":
                mode = sf.Batch()
            elif ns.mode == "per-packet":
                mode = sf.PerPacket(sf.packetize(signal, ns.packet_size))
            else:
                mode = sf.StatefulStream(sf.packetize(signal, ns.packet_size))
            with tr.span("filtering.apply_mode"):
                out = sf.apply_mode(signal, kernel, mode, method=ns.method)
            with tr.span("signal_core.store_signal"):
                sf.store_signal(out, ns.out)

        run.op(f"replay {name}", None, f"cli.replay.{name}", steps,
               lambda _: check_output(run, f"replay {name}", target, key))
    check_cli_outputs(run)


def parse_importtime(path: str) -> dict:
    """Cumulative import seconds of the modules the layer metrics name."""
    wanted = {"streamfilt.cli", "streamfilt.bench", "streamfilt.convolution"}
    found = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in wanted:
                found[parts[2].strip()] = int(parts[1]) / 1e6
    return found


def layer_metrics(run: Run) -> dict:
    """Every per-layer metric, by name, as (value, unit)."""
    tr, med = run.tracer, statistics.median
    C, S, L = run.channels, run.samples, run.kernel.length
    payload = C * S * 8
    covered = defaultdict(list)
    for s, own in zip(tr.spans, self_times(tr.spans)):
        covered[s.name].append((s.end - s.start) - own)
    peaks = run.by_state[False]["cli_peak_rss_mb"] + run.by_state[True]["cli_peak_rss_mb"]
    live_n = [n for n, _ in run.live_measured]
    m = {
        "cli.interpreter_s": (med(tr.durations("cli.interpreter")), "s"),
        "cli.import_s": (med(run.import_s["streamfilt.cli"]), "s"),
        "bench.import_s": (med(run.import_s["streamfilt.bench"]), "s"),
        "convolution.import_s": (med(run.import_s["streamfilt.convolution"]), "s"),
        "signal_core.load_s": (med(tr.durations("signal_core.load_signal")), "s"),
        "signal_core.store_s": (med(tr.durations("signal_core.store_signal")), "s"),
        "fsio.write_s": (med(tr.durations("_fsio.atomic_write_bytes")), "s"),
        "signal_core.validate_s": (
            med(tr.durations("signal_core.SignalMatrix", parent="probe.signal_core")), "s"),
        "signal_core.payload_bytes": (payload, "B"),
        "signal_core.rss_ratio": (max(peaks) * 2**20 / payload, "ratio"),
        "signal_core.generate_s": (med(tr.durations("signal_core.generate_synthetic")), "s"),
        "fir_design.design_s": (med(tr.durations("fir_design.design_bandpass")), "s"),
        "fir_design.taps": (L, "count"),
        "convolution.reflect_pad_s": (
            med(tr.durations("convolution.reflect_pad", parent="probe.convolution")), "s"),
        "convolution.fft_s": (med(tr.durations("convolution.convolve_valid_fft")), "s"),
        "convolution.direct_s": (
            med(tr.durations("convolution.convolve_valid_direct", parent="probe.convolution")), "s"),
        "convolution.direct_macs": (C * S * L, "count"),
        "convolution.auto_direct_share": (
            sum(choose_method(n + L - 1, L) == "direct" for n in live_n) / len(live_n), "ratio"),
    }
    for p in SWEEP_SIZES:
        calls = tr.durations(f"filtering.filter_per_packet_{p}")
        m[f"filtering.per_packet_{p}.self_s"] = (
            med(calls) - med(covered[f"replay.per_packet_{p}"]), "s")
        m[f"filtering.per_packet_{p}.packets"] = (run.plans[p].chunk_count(), "count")
        m[f"filtering.per_packet_{p}.useful_ratio"] = (p / (p + L - 1), "ratio")
    m["filtering.stateful_400.self_s"] = (
        med(tr.durations("filtering.filter_stateful_stream")) - med(covered["replay.stateful_400"]),
        "s",
    )
    m["filtering.live.realtime_factor"] = (
        sum(t for _, t in run.live_measured) / (sum(live_n) / RATE_HZ), "ratio")
    m["filtering.live.short_packet_share"] = (sum(n < L for n in live_n) / len(live_n), "ratio")
    m["fidelity.compare_s"] = (
        med(tr.durations("fidelity.compare_channels", parent="route.pass")), "s")
    for p in SWEEP_SIZES:
        m[f"fidelity.median_r_{p}"] = (run.median_r[p], "r")
    m["fidelity.defined_channels"] = (run.defined_channels, "count")
    return m


def end_to_end(samples: dict) -> dict:
    """Every end-to-end metric with samples, as the list of values in its unit."""
    out = {}
    for name, unit in END_TO_END.items():
        if name.startswith("packet_latency_"):
            values = [t * 1e3 for t in samples.get("packet_latency_s", [])]
        else:
            values = samples.get(name, [])
        if values:
            out[name] = values
    return out
