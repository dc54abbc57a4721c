"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 10 --trace 0

Workloads: ``ingest``, ``serve``, ``mixed``, ``process`` (see
``perfbench/workloads.py`` for why each exists). The run sets the system
up several times (the median set-up time is reported), measures one
timed window of ``--seconds``, checks the outputs, and prints:

* one line per end-to-end metric, by name, with its unit;
* with ``--trace 1``, a table of self time per layer, then every
  per-layer metric;
* as the last line, one JSON object: ``correct``, ``attempted``,
  ``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``,
  the per-layer ones with ``--trace 1``).

The full record (provenance, every metric, the spans of a traced run) is
written under ``--out`` (default ``perfbench/out``). It must run from a
checkout holding the ``src/`` tree; without it the run exits with 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--rounds", type=int, default=None,
        help="stop a closed-loop window after this many rounds (tests)",
    )
    parser.add_argument("--out", default=str(ROOT / "perfbench" / "out"))
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(
            f"perfbench: no src/repro under {ROOT}; run from a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import measure, workloads

    if args.workload not in workloads.WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    workload = workloads.WORKLOADS[args.workload](
        args.seed, trace=bool(args.trace), rounds=args.rounds
    )
    result = workload.run(args.seconds)
    tracer = workload.tracer
    info = measure.provenance(
        ROOT, args.seed, args.workload, workloads.WHY[args.workload]
    )
    print(
        f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} python={info['python']} nproc={info['nproc']} "
        f"git={info['git_sha'][:12]}"
    )
    print(f"  why: {info['why']}")
    e2e = result.end_to_end()
    timing = measure.timing(result.latencies_s)
    print(
        f"  end-to-end, gated ({len(result.work)} rounds, "
        f"{timing['samples']} latency samples):"
    )
    for name, unit in workloads.E2E:
        print(f"    {name:<30} {e2e[name]:14.4f} {unit}")
    host = result.host.factor(since=result.origin)
    print(f"    (times scaled by the host slowdown, x{host:.3f} over the window)")
    if result.alike:
        print(
            f"    (rounds in slices where the host ran slow: "
            f"{result.slow_share():.0%}, left out unless that is all)"
        )
    named = workloads.named_metrics(result)
    print("  end-to-end over the whole window:")
    for name, value, unit in named:
        print(f"    {name:<30} {value:14.4f} {unit}")
    for problem in result.problems:
        print(f"  CHECK FAILED: {problem}")
    for flag in result.flagged:
        print(
            f"  FLAGGED in all {result.windows} windows, the last one is "
            f"reported: {flag}"
        )
    if result.windows > 1:
        print(
            f"  {result.windows - 1} window(s) discarded: the generator fell "
            "behind"
        )
    record = {
        "provenance": info,
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": result.attempted,
        "failed": result.failed,
        "problems": result.problems,
        "flagged": result.flagged,
        "setup_s_all": result.setup_s,
        "windows": result.windows,
        "host_slowdown": host,
        "host_slow_share": result.slow_share(),
        "named": {name: {"value": v, "unit": u} for name, v, u in named},
        "end_to_end": e2e,
        "extra": result.extra,
    }
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        layers = workloads.layer_metrics(result, tracer)
        self_time = tracer.layer_self_s(workloads.layer_of)
        window = result.extra.get("window_s", 0.0) or 1.0
        print("  self time by layer (traced window):")
        for layer, seconds in sorted(self_time.items(), key=lambda kv: -kv[1]):
            print(f"    {layer:<20} {seconds:10.4f} s  {100 * seconds / window:5.1f}%")
        print("  per-layer metrics:")
        for name, unit in workloads.per_layer_names():
            print(f"    {name:<40} {layers[name]:14.4f} {unit}")
        record["per_layer"] = layers
        record["self_s_by_layer"] = self_time
        record["spans_kept"] = len(tracer.spans)
        record["spans_dropped"] = tracer.dropped
        tracer.write_spans(out / f"{stem}-spans.jsonl")
        metrics = {
            name: {"value": layers[name], "unit": unit}
            for name, unit in workloads.per_layer_names()
        }
    else:
        metrics = {
            name: {"value": e2e[name], "unit": unit} for name, unit in workloads.E2E
        }
    (out / f"{stem}.json").write_text(json.dumps(record, indent=2, default=str))
    line = {
        # the outputs' checks; a flagged window is the host's delay, not
        # a fault of the program, and is marked in the report and record
        "correct": not result.problems,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
