"""streamfilt benchmark.

    python3 perfbench/run.py --workload route-sweep --seed 1 --seconds 40 --trace 0

Run from the root of a checkout. It builds nothing: the program is the
checkout's own src/streamfilt. The last line of stdout is one JSON object
with correct, attempted, failed and metrics: every end-to-end metric with
--trace 0, every per-layer metric with --trace 1. Lines before it give each
timing's median, tail percentile and sample count, the output checksums and
the environment; the same goes to .perfbench_out/ in the checkout, with the
spans of a traced run. See NOTES.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# numpy asks the kernel for transparent huge pages for large arrays. Whether
# it gets them depends on how fragmented the host's memory is at that moment,
# so on the 2-CPU VM this was tuned on the same compare_channels call took
# 0.1 s or 1.1 s. The benchmark and its CLI children run without them. This
# must be set before numpy is imported.
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

from harness import (  # noqa: E402
    Launcher,
    Tracer,
    check_name,
    clock,
    environment,
    span_table,
    summarize,
)

WORKLOADS = ("cli-pipeline", "route-sweep")


def parse_args(argv):
    p = argparse.ArgumentParser(description="streamfilt benchmark")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True, help="record seed")
    p.add_argument("--packet-seed", type=int, default=None,
                   help="live packet-size seed (default: derived from --seed)")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Record geometry; smaller values are for the benchmark's own smoke tests.
    p.add_argument("--channels", type=int, default=59)
    p.add_argument("--samples", type=int, default=166800)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "streamfilt", "__init__.py")):
        print(f"error: no streamfilt sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    env = environment()
    os.environ.pop("STREAMFILT_THREADS", None)

    import streamfilt
    import workloads as wl

    if not os.path.abspath(streamfilt.__file__).startswith(src + os.sep):
        print(f"error: imported streamfilt from {streamfilt.__file__}, not {src}", file=sys.stderr)
        return 2

    trace = bool(args.trace)
    packet_seed = args.packet_seed if args.packet_seed is not None else args.seed + 1_000_003
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir = os.path.join(ROOT, ".perfbench_out")
    work = os.path.join(ROOT, ".perfbench_work", f"{tag}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    os.makedirs(out_dir, exist_ok=True)
    launcher = Launcher()
    run = wl.Run(
        launcher=launcher,
        root=ROOT, work=work, workload=args.workload, seed=args.seed,
        packet_seed=packet_seed, channels=args.channels, samples=args.samples,
        seconds=args.seconds, tracer=Tracer(run_id=f"{tag}-{os.getpid()}", enabled=trace),
    )
    phases = {}
    try:
        for name, step in (("setup", wl.setup), ("oracle", wl.build_oracle),
                           ("measure", lambda r: wl.measure(r, trace)),
                           ("probes", wl.probes if trace else None)):
            if step is not None:
                start = clock()
                step(run)
                phases[name] = clock() - start
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)

    e2e = wl.end_to_end(run.by_state[False])
    summaries = {name: summarize(values) for name, values in e2e.items()}
    report = {
        "workload": args.workload, "seed": args.seed, "packet_seed": packet_seed,
        "trace": args.trace, "geometry": [args.channels, args.samples],
        "environment": env, "checksums": run.checksums,
        "attempted": run.attempted, "failed": run.failed, "errors": run.errors[:20],
        "phases_s": phases, "end_to_end": summaries,
        "samples": {k: v for k, v in e2e.items() if not k.startswith("packet_latency_")},
    }
    values = {name: stats["median"] for name, stats in summaries.items()}
    for name, stats in summaries.items():
        detail = " ".join(f"{k}={v:.6g}" for k, v in stats.items())
        print(f"{name}: {values[name]:.6g} {wl.END_TO_END[name]} ({detail})")
    if trace:
        traced = {name: summarize(v)["median"] for name, v in wl.end_to_end(run.by_state[True]).items()}
        overhead = {name: traced[name] - summaries[name]["median"] for name in traced if name in summaries}
        layers = wl.layer_metrics(run)
        table = span_table(run.tracer.spans)
        report.update(per_layer=layers, tracing_overhead=overhead, spans=table)
        print("tracing overhead, traced minus untraced median: "
              + json.dumps({k: round(v, 6) for k, v in overhead.items()}))
        for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"span {name}: count {row['count']} total {row['total_s']:.6f} s "
                  f"self {row['self_s']:.6f} s")
        for name, (value, unit) in layers.items():
            print(f"{name}: {value:.6g} {unit}")
        metrics = {check_name(k): {"value": v, "unit": u} for k, (v, u) in layers.items()}
        missing = []
        with open(os.path.join(out_dir, f"{tag}-spans.json"), "w", encoding="utf-8") as fh:
            json.dump([s.__dict__ for s in run.tracer.spans], fh)
    else:
        metrics = {
            check_name(name): {"value": values[name], "unit": wl.END_TO_END[name]}
            for name in summaries
        }
        missing = [name for name in wl.END_TO_END if name not in metrics]
    print("phases: " + json.dumps({k: round(v, 3) for k, v in phases.items()}))
    print("checksums: " + json.dumps(run.checksums, sort_keys=True))
    print("environment: " + json.dumps(env, sort_keys=True))
    for line in run.errors[:20]:
        print(f"failed: {line}", file=sys.stderr)
    with open(os.path.join(out_dir, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, default=str)
    correct = run.failed == 0 and run.attempted > 0 and not missing
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
