"""Run every workload untraced and traced, and print the tracing overhead.

    python3 perfbench/report.py [--seed 1] [--seconds 10] [--record FILE]

Each run is ``perfbench/run.py`` in a fresh interpreter (a workload run
after another one in the same process measures slower). For every
workload this prints the gated end-to-end metrics of both runs and
their difference, which is what tracing costs, and the traced run's
self time per layer. ``--record`` writes the whole summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("ingest", "serve", "mixed", "process")


def run(workload: str, seed: int, seconds: float, trace: int, out: Path) -> dict:
    command = [
        sys.executable, str(ROOT / "perfbench" / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--out", str(out),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{workload} trace={trace} exited {done.returncode}")
    line = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads(
        (out / f"{workload}-seed{seed}-trace{trace}.json").read_text()
    )
    record["correct"] = line["correct"]
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--out", default=str(ROOT / "perfbench" / "out"))
    parser.add_argument("--record", default=None)
    args = parser.parse_args(argv)
    out = Path(args.out)
    summary = {}
    for workload in WORKLOADS:
        plain = run(workload, args.seed, args.seconds, 0, out)
        traced = run(workload, args.seed, args.seconds, 1, out)
        print(f"{workload}: {plain['provenance']['why']}")
        print(f"  {'metric':<30} {'untraced':>12} {'traced':>12} {'overhead':>9}")
        overhead = {}
        for name, value in plain["end_to_end"].items():
            with_spans = traced["end_to_end"][name]
            share = (with_spans - value) / value if value else 0.0
            overhead[name] = share
            print(f"  {name:<30} {value:12.4f} {with_spans:12.4f} {share:+8.1%}")
        print("  whole window, untraced:")
        for name, metric in plain["named"].items():
            print(f"    {name:<28} {metric['value']:12.4f} {metric['unit']}")
        print("  self time by layer, traced:")
        window = traced["extra"].get("window_s") or 1.0
        for layer, seconds in sorted(
            traced["self_s_by_layer"].items(), key=lambda kv: -kv[1]
        ):
            print(f"    {layer:<20} {seconds:10.4f} s {seconds / window:6.1%}")
        correct = plain["correct"] and traced["correct"]
        print(f"  outputs correct: {correct}")
        summary[workload] = {
            "provenance": plain["provenance"],
            "correct": correct,
            "untraced": plain["end_to_end"],
            "traced": traced["end_to_end"],
            "tracing_overhead": overhead,
            "whole_window": plain["named"],
            "self_s_by_layer": traced["self_s_by_layer"],
            "per_layer": traced["per_layer"],
        }
    if args.record:
        Path(args.record).write_text(json.dumps(summary, indent=2) + "\n")
    return 0 if all(s["correct"] for s in summary.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
