"""Small measurement helpers: percentiles, host speed, memory, provenance."""

from __future__ import annotations

import os
import platform
import resource
import statistics
import time
from pathlib import Path

# a tail percentile is reported only where at least this many samples lie
# beyond it, so it never rests on one or two outliers
TAIL_SAMPLES = 10
TAIL_CAP = 0.99


def median(samples) -> float:
    return statistics.median(samples) if samples else 0.0


def tail(samples) -> "tuple[float, float]":
    """``(value, percentile)``: the highest percentile, up to p99, that
    has at least :data:`TAIL_SAMPLES` samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_SAMPLES:
        return (ordered[-1] if ordered else 0.0), 1.0
    q = min(TAIL_CAP, (n - TAIL_SAMPLES) / n)
    rank = min(n - 1, max(0, int(q * n + 0.5) - 1))
    return ordered[rank], q


def timing(samples_s) -> dict:
    """Median and tail of a list of seconds, as milliseconds."""
    value, q = tail(samples_s)
    return {
        "p50_ms": median(samples_s) * 1e3,
        "tail_ms": value * 1e3,
        "tail_percentile": round(q * 100, 2),
        "samples": len(samples_s),
    }


class HostSpeed:
    """How fast the shared host runs this process, moment by moment.

    :meth:`probe` times a fixed pure-Python loop (at most once every
    :attr:`INTERVAL` seconds). On a host whose speed shifts with its
    neighbours' load, the loop slows down with the workload, so a time
    divided by :meth:`factor` reads as it would on a host where the loop
    takes :data:`NOMINAL_S`. That cancels most of the shift; what is
    left is how differently the loop and the system are slowed.
    """

    LOOP = 20_000
    INTERVAL = 0.05
    # the loop's time on the fast phase of the 2-CPU host the bounds
    # were tuned on
    NOMINAL_S = 0.0013

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (perf_counter, seconds)
        self._next = 0.0

    def probe(self, force: bool = False):
        started = time.perf_counter()
        if not force and started < self._next:
            return
        total = 0
        for n in range(self.LOOP):
            total += n * n
        ended = time.perf_counter()
        self.samples.append((started, ended - started))
        self._next = ended + self.INTERVAL

    def factor(self, since: float = float("-inf"), until: float = float("inf")):
        """Host slowdown over ``[since, until)`` (perf_counter times),
        1.0 meaning nominal; falls back to the whole record."""
        inside = [s for at, s in self.samples if since <= at < until]
        if not inside:
            inside = [s for __, s in self.samples]
        return median(inside) / self.NOMINAL_S if inside else 1.0

    def slice_factors(self, origin: float, slice_s: float = 1.0):
        """``slice index -> factor`` for slices of a window that started
        at ``origin``; slices without a probe use the window's factor."""
        whole = self.factor(since=origin)
        by: dict[int, list[float]] = {}
        for at, seconds in self.samples:
            if at >= origin:
                by.setdefault(int((at - origin) // slice_s), []).append(seconds)
        factors = {k: median(v) / self.NOMINAL_S for k, v in by.items()}
        return lambda at: factors.get(int(at // slice_s), whole)


def _vm_hwm_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def peak_rss_mb(child_pids=()) -> float:
    """Peak resident memory of this process plus the given live children
    (``/proc``), falling back to the largest reaped child's peak."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    children = sum(_vm_hwm_mb(pid) for pid in child_pids)
    if not child_pids:
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return own + children


def stop_children(timeout: float = 10.0):
    """End every process this run started and wait for each: the
    substrate's children (terminated if a teardown left one) and the
    ``multiprocessing`` resource tracker their start method launched,
    which would otherwise outlive the run until it noticed the exit."""
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
    for child in multiprocessing.active_children():
        child.join(timeout)
        if child.is_alive():
            child.kill()
            child.join()
    # closes the tracker's pipe and waits for it (no public API does)
    resource_tracker._resource_tracker._stop()


def git_sha(root: Path) -> str:
    """HEAD of the checkout, read from ``.git`` without running git;
    ``"unknown"`` outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(root: Path, seed: int, workload: str, why: str) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(root),
        "seed": seed,
        "workload": workload,
        "why": why,
    }
