"""Self-checks of the benchmark: its contract, its bypass predictions and
the repeatability of its counts.

    python3 -m pytest perfbench -q

Each case runs ``perfbench/run.py`` in a fresh interpreter, the way the
benchmark is meant to run, on short windows.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import measure, workloads  # noqa: E402

RETRIEVAL = ("embPair", "embUpdate", "vqAssign")


def run(tmp_path, workload, *extra, seed=7, seconds=2, trace=1, cwd=ROOT):
    command = [
        sys.executable, str(cwd / "perfbench" / "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--out", str(tmp_path), *extra,
    ]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


def metrics(done) -> dict:
    assert done.returncode == 0, done.stdout + done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert line["correct"], done.stdout
    assert line["failed"] == 0
    return {name: m["value"] for name, m in line["metrics"].items()}


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        workloads.E2E
    )
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == (
        workloads.per_layer_names()
    )
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_stop_children_waits_for_every_process_it_started():
    import multiprocessing
    import os
    from multiprocessing import resource_tracker

    child = multiprocessing.get_context("spawn").Process(target=os.getpid)
    child.start()
    tracker = resource_tracker._resource_tracker._pid
    assert tracker is not None
    measure.stop_children()
    assert multiprocessing.active_children() == []
    assert resource_tracker._resource_tracker._pid is None
    assert not Path(f"/proc/{tracker}").exists()


def test_tail_has_ten_samples_beyond_it():
    assert measure.tail(list(range(1000)))[1] == pytest.approx(0.99)
    value, q = measure.tail(list(range(100)))
    assert q == pytest.approx(0.90)
    assert sum(1 for v in range(100) if v > value) >= 10


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One short traced run per workload, shared by the bypass checks."""
    out = tmp_path_factory.mktemp("traced")
    rounds = {"ingest": ["--rounds", "4"], "serve": ["--rounds", "40"]}
    return {
        name: metrics(run(out, name, *rounds.get(name, [])))
        for name in workloads.WORKLOADS
    }


@pytest.mark.parametrize("workload", ["ingest", "serve", "mixed"])
def test_sim_workloads_leave_the_runtime_idle(traced, workload):
    runtime = {k: v for k, v in traced[workload].items() if k.startswith("runtime.")}
    assert runtime and not any(runtime.values()), runtime


def test_serve_window_leaves_storm_and_topology_idle(traced):
    m = traced["serve"]
    idle = [
        k for k in m
        if k.startswith(("storm.", "topology.", "tdaccess.")) and m[k]
    ]
    assert idle == []
    assert m["engine.recommend_cf_batch_s"] > 0
    assert m["tdstore.client.ops.multi_get"] > 0


def test_ingest_leaves_serving_and_engine_idle(traced):
    m = traced["ingest"]
    busy = [k for k in m if k.startswith(("serving.", "engine.")) and m[k]]
    assert busy == []
    assert m["storm.executions"] > 0
    assert m["tdstore.client.ops.put_once"] > 0


def test_retrieval_bolts_run_only_on_ingest(traced):
    for name, m in traced.items():
        executions = [m[f"topology.{c}.executions"] for c in RETRIEVAL]
        if name == "ingest":
            assert all(executions), executions
        else:
            assert not any(executions), (name, executions)


def test_process_runs_over_rpc_and_the_wal(traced):
    m = traced["process"]
    assert m["runtime.rpc.requests"] > 0
    assert m["runtime.wal.records"] > 0
    assert m["runtime.dispatch_s"] > 0


def test_mixed_publishes_invalidations(traced):
    m = traced["mixed"]
    assert m["serving.invalidation.published"] > 0
    assert m["serving.result_cache.invalidations"] > 0


@pytest.mark.parametrize(
    "workload, rounds", [("ingest", "3"), ("serve", "30")]
)
def test_counts_repeat_on_the_same_seed(tmp_path, workload, rounds):
    """Closed loops do a fixed amount of work per round, so the counts of
    a fixed number of rounds are a function of the seed alone."""
    first, second = (
        metrics(run(tmp_path, workload, "--rounds", rounds, seconds=60))
        for __ in range(2)
    )
    counted = ["storm.executions"] + [
        k for k in first if k.startswith("tdstore.client.ops.")
    ]
    assert {k: first[k] for k in counted} == {k: second[k] for k in counted}
    assert any(first[k] for k in counted)


def test_refuses_to_run_without_the_sources(tmp_path):
    """A directory holding only the benchmark cannot build the program:
    the run fails fast and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = run(tmp_path / "out", "ingest", trace=0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
