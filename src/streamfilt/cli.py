"""Command line interface.

Subcommands: gen, design, filter, compare, sweep, bench. Every invocation
echoes its resolved options as one JSON line on stderr before doing any
work, so runs are auditable from captured logs. Exit code 0 means success,
1 a usage or validation problem, 2 an I/O problem.

filter and compare stream a stored record through its channel blocks
(signal_core.channel_blocks): every route and the Pearson score treat each
channel on its own, so the output bytes and the report are those of the
whole record, while a run holds only the current block of input and its
block of output (for compare, one block of each input). Each of those is
one buffer kept for the whole run, the size of the first and largest
block: every block is read into, filtered into and written from the same
pages. Every header and payload size is checked before the first block is
read, and a failure in any block leaves no output file. filter and compare
resolve their thread count once for the whole record and run every block
on it. A .csv input is parsed whole, as one block. sweep and bench load
the whole record.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import sys
from contextlib import contextmanager

import numpy as np

from . import __version__
from ._fsio import CSV_VERSION_LINE
from ._threads import THREADS_ENV_VAR, resolve_threads
from .errors import (
    CliUsageError,
    SignalFileError,
    StreamfiltError,
    ValidationError,
)
from .bench import (
    SweepConfig,
    run_sweep,
    time_filtering,
    write_sweep_fidelity_csv,
    write_sweep_timing_csv,
)
from .convolution import METHODS
from .fidelity import channel_report, correlate_rows, write_report_csv
from .filtering import (
    MODE_NAMES,
    Batch,
    PerPacket,
    StatefulStream,
    apply_mode,
    mode_from_name,
)
from .fir_design import FilterSpec, design_bandpass, export_taps_csv
from .signal_core import (
    FORMAT_VERSION,
    SineComponent,
    SignalInfo,
    SignalMatrix,
    SignalReader,
    SyntheticSpec,
    broadband_spec,
    channel_blocks,
    generate_synthetic,
    load_signal_csv,
    replicate_signal,
    signal_writer,
    store_signal,
)

_VERSION_TEXT = (
    f"streamfilt {__version__} "
    f"(signal format {FORMAT_VERSION}, csv format {CSV_VERSION_LINE.lstrip('# ')})"
)


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of calling sys.exit on bad arguments."""

    def error(self, message: str):
        raise CliUsageError(message)


def _parse_components(text: str) -> tuple[SineComponent, ...]:
    """Parse 'freq:amp[:phase[:step]]' entries separated by commas."""
    components = []
    for entry in text.split(","):
        fields = entry.split(":")
        if not 2 <= len(fields) <= 4:
            raise ValidationError(
                f"component {entry!r} must be freq:amp, freq:amp:phase "
                f"or freq:amp:phase:step"
            )
        try:
            numbers = [float(f) for f in fields]
        except ValueError:
            raise ValidationError(f"component {entry!r} has a non-numeric field") from None
        numbers += [0.0] * (4 - len(numbers))
        components.append(
            SineComponent(
                frequency_hz=numbers[0],
                amplitude=numbers[1],
                phase_rad=numbers[2],
                channel_phase_step_rad=numbers[3],
            )
        )
    return tuple(components)


def _parse_sizes(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(f) for f in text.split(","))
    except ValueError:
        raise ValidationError(f"sizes must be comma-separated integers, got {text!r}") from None


@contextmanager
def _open_input(path: str, csv_rate: float | None):
    """Yield (info, read, blocks) for an input path.

    read(start, stop, out=None) returns channels [start, stop) as a
    SignalMatrix, read into out when it is given, and blocks lists the
    (start, stop) ranges to read it by: the channel blocks of a stored
    record, and the whole record for a .csv input, which is parsed whole
    and returned as parsed, out or not.
    """
    if path.endswith(".csv"):
        if csv_rate is None:
            raise ValidationError("--rate is required when reading a .csv input")
        signal = load_signal_csv(path, csv_rate)
        blocks = [(0, signal.info.channel_count)]
        yield signal.info, lambda start, stop, out=None: signal, blocks
        return
    with SignalReader(path) as reader:
        yield reader.info, reader.read, channel_blocks(reader.info)


def _load_input(path: str, csv_rate: float | None) -> SignalMatrix:
    with _open_input(path, csv_rate) as (info, read, _):
        return read(0, info.channel_count)


def _block_buffer(info: SignalInfo, blocks: list[tuple[int, int]]) -> np.ndarray:
    """A buffer for the first, largest, of blocks; block (start, stop) uses
    its first stop - start rows."""
    start, stop = blocks[0]
    return np.empty((stop - start, info.sample_count), dtype=np.float64)


def _filter_spec(args: argparse.Namespace, sampling_rate_hz: float) -> FilterSpec:
    return FilterSpec(
        low_cut_hz=args.low,
        high_cut_hz=args.high,
        sampling_rate_hz=sampling_rate_hz,
        length_override=args.length,
    )


def _echo_config(args: argparse.Namespace) -> None:
    """Echo the subcommand, its options and the thread setting as one JSON line."""
    options = {k: v for k, v in vars(args).items() if k not in ("func", "command")}
    threads_env = os.environ.get(THREADS_ENV_VAR)
    config = {"command": args.command, "options": options, "threads_env": threads_env}
    print(json.dumps(config, sort_keys=True), file=sys.stderr)


def _print_timing(report) -> None:
    print(
        f"{report.config_label}: mean={report.mean_s:.6f}s "
        f"ci95=+/-{report.ci95_halfwidth_s:.6f}s reps={report.repetitions} "
        f"checksum={report.checksum}"
    )


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.components is None:
        spec = broadband_spec(
            channel_count=args.channels,
            sample_count=args.samples,
            sampling_rate_hz=args.rate,
            seed=args.seed,
            noise_sigma=args.noise_sigma,
        )
    else:
        info = SignalInfo.with_default_labels(args.rate, args.channels, args.samples)
        spec = SyntheticSpec(
            info=info,
            components=_parse_components(args.components),
            noise_sigma=args.noise_sigma,
            seed=args.seed,
        )
    signal = generate_synthetic(spec)
    store_signal(signal, args.out)
    info = signal.info
    print(
        f"wrote {info.channel_count} channels x {info.sample_count} samples "
        f"at {info.sampling_rate_hz} Hz ({info.duration_s:.1f} s) to {args.out}"
    )
    return 0


def _cmd_design(args: argparse.Namespace) -> int:
    kernel = design_bandpass(_filter_spec(args, args.rate))
    export_taps_csv(kernel, args.out)
    print(
        f"designed {kernel.length} taps, group delay {kernel.group_delay_samples} "
        f"samples, pass band {args.low} to {args.high} Hz at {args.rate} Hz -> {args.out}"
    )
    return 0


def _cmd_filter(args: argparse.Namespace) -> int:
    with _open_input(args.input, args.rate) as (info, read, blocks):
        kernel = design_bandpass(_filter_spec(args, info.sampling_rate_hz))
        threads = resolve_threads(None, (info.channel_count, info.sample_count))
        block_in, block_out = _block_buffer(info, blocks), _block_buffer(info, blocks)
        with signal_writer(args.out, info) as write:
            for start, stop in blocks:
                rows = stop - start
                block = read(start, stop, block_in[:rows])
                mode = mode_from_name(args.mode, block, args.packet_size)
                filtered = apply_mode(
                    block, kernel, mode, method=args.method, n_threads=threads,
                    out=block_out[:rows],
                )
                write(filtered.data)
    print(
        f"filtered {info.channel_count} channels x {info.sample_count} samples "
        f"in mode {mode.describe()} with {kernel.length} taps -> {args.out}"
    )
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    label = args.label or f"{os.path.basename(args.a)}-vs-{os.path.basename(args.b)}"
    with _open_input(args.a, args.rate) as (info, read_a, blocks_a), _open_input(
        args.b, args.rate
    ) as (info_b, read_b, blocks_b):
        if info != info_b:
            raise ValidationError("signals differ in geometry or labeling, cannot compare")
        threads = resolve_threads(None, (info.channel_count, info.sample_count))
        blocks = min(blocks_a, blocks_b, key=len)
        block_a, block_b = _block_buffer(info, blocks), _block_buffer(info, blocks)
        parts = [
            correlate_rows(
                read_a(start, stop, block_a[: stop - start]).data,
                read_b(start, stop, block_b[: stop - start]).data,
                n_threads=threads,
            )
            for start, stop in blocks
        ]
    r, defined = (np.concatenate(column) for column in zip(*parts))
    report = channel_report(label, info.channel_labels, r, defined)
    if args.out:
        write_report_csv(report, args.out)
    print(
        f"{report.config_label}: min_r={report.min_r:.6f} "
        f"median_r={report.median_r:.6f} max_r={report.max_r:.6f} "
        f"defined={report.defined_count}/{len(report.channel_labels)}"
    )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    signal = _load_input(args.input, args.rate)
    config = SweepConfig(
        filter_spec=_filter_spec(args, signal.info.sampling_rate_hz),
        packet_sizes=_parse_sizes(args.sizes),
        mode=args.mode,
        repetitions_accuracy=args.reps_accuracy,
        repetitions_timing=args.reps_timing,
        replicate_factor=args.replicate,
        warmup=args.warmup,
    )
    fidelity_reports, timing_reports = run_sweep(signal, config)
    os.makedirs(args.out_dir, exist_ok=True)
    fidelity_path = os.path.join(args.out_dir, "sweep_fidelity.csv")
    timing_path = os.path.join(args.out_dir, "sweep_timing.csv")
    write_sweep_fidelity_csv(config.packet_sizes, fidelity_reports, fidelity_path)
    write_sweep_timing_csv(timing_reports, timing_path)
    for size, report in zip(config.packet_sizes, fidelity_reports):
        print(
            f"packet={size}: median_r={report.median_r:.6f} "
            f"min_r={report.min_r:.6f} max_r={report.max_r:.6f}"
        )
    for rep in timing_reports:
        _print_timing(rep)
    print(f"wrote {fidelity_path} and {timing_path}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    signal = _load_input(args.input, args.rate)
    signal = replicate_signal(signal, args.replicate)
    kernel = design_bandpass(_filter_spec(args, signal.info.sampling_rate_hz))
    mode = mode_from_name(args.mode, signal, args.packet_size)
    report = time_filtering(
        signal, kernel, mode, args.reps, warmup=args.warmup, method=args.method
    )
    if args.out:
        write_sweep_timing_csv([report], args.out)
    _print_timing(report)
    return 0


def _add_band_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--low", type=float, required=True, help="low cut in Hz")
    parser.add_argument("--high", type=float, required=True, help="high cut in Hz")
    parser.add_argument(
        "--length", type=int, default=None, help="odd kernel length (default: automatic)"
    )


def _add_mode_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mode", choices=MODE_NAMES, default=Batch.name)
    parser.add_argument("--packet-size", type=int, default=400)
    parser.add_argument("--method", choices=METHODS, default="auto")


def _add_input_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--in", dest="input", required=True, help="input signal base path (or .csv)"
    )
    parser.add_argument(
        "--rate", type=float, default=None, help="sampling rate in Hz for .csv inputs"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="streamfilt", description=__doc__)
    parser.add_argument("--version", action="version", version=_VERSION_TEXT)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a deterministic synthetic signal")
    p.add_argument("--out", required=True, help="output base path")
    p.add_argument("--channels", type=int, default=59)
    p.add_argument("--samples", type=int, default=166800)
    p.add_argument("--rate", type=float, default=600.614)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--noise-sigma", type=float, default=0.7)
    p.add_argument(
        "--components",
        default=None,
        help="freq:amp[:phase[:step]] list, comma separated (default: broadband mix)",
    )
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("design", help="design a band-pass kernel and export taps")
    _add_band_options(p)
    p.add_argument("--rate", type=float, required=True, help="sampling rate in Hz")
    p.add_argument("--out", required=True, help="taps csv path")
    p.set_defaults(func=_cmd_design)

    p = sub.add_parser("filter", help="band-pass filter a stored signal")
    _add_input_option(p)
    _add_band_options(p)
    p.add_argument("--out", required=True, help="output base path")
    _add_mode_options(p)
    p.set_defaults(func=_cmd_filter)

    p = sub.add_parser("compare", help="per-channel correlation of two signals")
    p.add_argument("--a", required=True, help="reference signal base path (or .csv)")
    p.add_argument("--b", required=True, help="candidate signal base path (or .csv)")
    p.add_argument("--rate", type=float, default=None, help="sampling rate for .csv inputs")
    p.add_argument("--label", default=None)
    p.add_argument("--out", default=None, help="optional report csv path")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("sweep", help="fidelity and latency across packet sizes")
    _add_input_option(p)
    _add_band_options(p)
    p.add_argument("--sizes", default="200,300,400,800,991,1200")
    p.add_argument(
        "--mode", choices=(PerPacket.name, StatefulStream.name), default=PerPacket.name
    )
    p.add_argument("--reps-accuracy", type=int, default=2)
    p.add_argument("--reps-timing", type=int, default=20)
    p.add_argument("--replicate", type=int, default=3)
    p.add_argument("--warmup", type=int, default=3)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("bench", help="time one filtering configuration")
    _add_input_option(p)
    _add_band_options(p)
    _add_mode_options(p)
    p.add_argument("--reps", type=int, default=20)
    p.add_argument("--warmup", type=int, default=3)
    p.add_argument("--replicate", type=int, default=1)
    p.add_argument("--out", default=None, help="optional timing csv path")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except CliUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help and --version exit through argparse
        return int(exc.code or 0)
    _echo_config(args)
    if args.command == "bench":
        print(
            "profile hint: wrap this invocation with your profiler, e.g. "
            f"perf stat -- streamfilt {shlex.join(argv)}",
            file=sys.stderr,
        )
    try:
        return args.func(args)
    except (SignalFileError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StreamfiltError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
