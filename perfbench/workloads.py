"""The benchmark's four workloads, driven through the public API.

Every workload builds the system the way an application would:
TDAccess ``Producer`` -> Storm topology (``LocalCluster`` or the process
substrate's ``ProcessCluster``) -> TDStore -> ``RecommenderEngine`` /
``ServingLayer`` / ``RecommenderFrontEnd``. Inputs come from the seed
alone; the system sees only the generated actions and queries.

Each workload reports the same gated end-to-end metrics (``E2E``), so
every one of them can be compared on every workload; what the unit of
work and the latency are differs by workload (``HEADLINES``): an
ingested batch of actions, a served query, or a freshness probe. The
report also prints each workload's own figures by name over the whole
window (``named_metrics``), tails included.
"""

from __future__ import annotations

import gc
import heapq
import random
import sys
import time
import traceback
from dataclasses import dataclass, field

from repro.algorithms.itemcf import PracticalItemCF
from repro.engine.engine import EngineConfig, RecommenderEngine
from repro.engine.front_end import RecommenderFrontEnd
from repro.serving import InvalidationBus, ServingLayer
from repro.serving.loadgen import ClosedLoopLoadGenerator
from repro.simulation import news_scenario
from repro.storm.cluster import LocalCluster
from repro.tdaccess.cluster import TDAccessCluster
from repro.tdstore import TDStoreCluster
from repro.topology.state import StateKeys
from repro.types import UserAction
from repro.utils.clock import SimClock

from perfbench import measure
from perfbench.topologies import (
    CF_COMPONENTS,
    RETRIEVAL_COMPONENTS,
    TOPOLOGY,
    group_of,
    write_topology,
)
from perfbench.tracing import Tracer

TOPIC = "actions"
PARTITIONS = 4
TOP_N = 10
# set-up runs this many times per run; the median is reported and only
# the last stack is measured
SETUPS = 3
# timed windows a run may take before it gives up on a valid one
WINDOWS = 3
# a one-second slice in which the reference loop ran this many times its
# nominal time was slowed down by the host (quiet slices: 0.90 to 1.07)
HOST_SLOW = 1.1
# event time per seeded action (seconds); keeps every stream far inside
# the 6 h linked time and the 30 min demographic decay interval
SEED_STEP = 0.01

WHY = {
    "ingest": "Write path only: TDAccess, Storm, the exactly-once ledger, "
    "TDStore writes and the CF+DB+VQ bolts; no queries. The only workload "
    "that runs the retrieval bolts.",
    "serve": "Read path only: closed-loop Zipf queries through the front end "
    "and serving layer, more users than the result cache holds; Storm is "
    "idle in the window.",
    "mixed": "Open loop: 100 actions/s (75 probe clicks that measure "
    "freshness, the paper's headline) beside 200 Zipf queries/s, with the "
    "invalidation bus staling cached answers.",
    "process": "CF+DB on one worker and one durable server process: RPC, CRC "
    "and WAL group commit on every write; probe clicks measure freshness "
    "on real processes.",
}

# what the generic end-to-end metrics mean on each workload, by the
# names used in the printed report
HEADLINES = {
    "ingest": ("ingest_actions_per_s", "action_commit"),
    "serve": ("query_qps", "query"),
    "mixed": ("served_per_busy_s", "freshness"),
    "process": ("actions_per_busy_s", "freshness"),
}

# the gated end-to-end metrics; tails are printed and recorded beside
# them but not gated (see ``Result.end_to_end``)
E2E = (
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

LAYERS = (
    "tdaccess",
    "storm.reliability",
    "storm",
    "topology",
    "tdstore.client",
    "tdstore.server",
    "runtime",
    "engine",
    "serving",
)
CLIENT_KINDS = ("get", "multi_get", "put_once", "apply", "op_seen", "put")
COMPONENTS = CF_COMPONENTS + RETRIEVAL_COMPONENTS
# counts every TDStore op a bolt's client makes
BOLT_OPS = "tdstore.client.bolt_ops"


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric, in report order, with its unit."""
    names = [
        ("tdaccess.send_s", "s"),
        ("tdaccess.poll_s", "s"),
        ("tdaccess.sent", "count"),
        ("storm.step_s", "s"),
        ("storm.dispatch_self_s", "s"),
        ("storm.executions", "count"),
        ("storm.tuples_transferred", "count"),
        ("storm.queue_depth_max", "count"),
        ("storm.commit_lag_ms", "ms"),
        ("storm.reliability.ledger_s", "s"),
        ("storm.reliability.ledger_entries", "count"),
    ]
    for component in COMPONENTS:
        names.append((f"topology.{component}.execute_s", "s"))
        names.append((f"topology.{component}.executions", "count"))
    names += [(f"tdstore.client.ops.{kind}", "count") for kind in CLIENT_KINDS]
    names += [
        ("tdstore.client.ops_per_action", "ratio"),
        ("tdstore.client.s", "s"),
        ("tdstore.server.s", "s"),
        ("tdstore.client.self_s", "s"),
        ("tdstore.client.retries", "count"),
        ("tdstore.client.batched_keys", "count"),
        ("runtime.rpc.requests", "count"),
        ("runtime.rpc.batches", "count"),
        ("runtime.rpc.requests_per_batch", "ratio"),
        ("runtime.wal.records", "count"),
        ("runtime.wal.commits", "count"),
        ("runtime.wal.records_per_commit", "ratio"),
        ("runtime.wal.group_wait_s", "s"),
        ("runtime.wal.wait_timeouts", "count"),
        ("runtime.dispatch_s", "s"),
        ("engine.recommend_cf_batch_s", "s"),
        ("engine.recommend_cf_s", "s"),
        ("engine.calls", "count"),
        ("serving.serve_many_s", "s"),
        ("serving.result_cache.hit_ratio", "ratio"),
        ("serving.result_cache.evictions", "count"),
        ("serving.result_cache.invalidations", "count"),
        ("serving.hot_cache.hit_ratio", "ratio"),
        ("serving.coalescer.mean_batch", "ratio"),
        ("serving.coalescer.coalesced_ratio", "ratio"),
        ("serving.invalidation.published", "count"),
        ("loadgen.lag_p99_ms", "ms"),
    ]
    names += [(f"{layer}.self_s", "s") for layer in LAYERS if layer != "tdstore.client"]
    return names


def layer_of(span: str) -> str:
    for layer in LAYERS:
        if span == layer or span.startswith(layer + "."):
            return layer
    return span.split(".", 1)[0]


# -- inputs -------------------------------------------------------------------


class Traffic:
    """Seeded inputs drawn from the repo's own traffic model.

    Actions are organic sessions of ``repro.simulation``'s news scenario
    (topic-first item picks from the user's focus; browse, then maybe
    click, then maybe share on the same item). As in the A/B harness,
    each user starts sessions, and visits the front end, at a rate
    proportional to activity; here the arrivals of each user are evenly
    spaced from a seeded phase (:func:`regular_arrivals`) rather than
    Poisson. Query users come from ``ClosedLoopLoadGenerator`` (Zipf 1.1
    over the shuffled population).

    The scenario (population and catalog) is one deployment's user base,
    the same on every seed; the seed sets the arrival phases, the
    sessions' content and the queries. Activity is heavy-tailed and the
    CF work of an action grows with the acting user's history: over ten
    seeds, the pair updates per action of ``ingest``'s stream spread
    (IQR over median) 0.2 to 0.3 with a population drawn per seed, about
    0.1 with Poisson arrivals, and 0.02 as drawn here.
    """

    SCENARIO_SEED = 0

    def __init__(self, seed: int, users: int, items: int):
        self.scenario = news_scenario(
            seed=self.SCENARIO_SEED, num_users=users, initial_items=items
        )
        population = self.scenario.population.users()
        self._sessions = regular_arrivals(population, random.Random(f"sessions-{seed}"))
        self._visits = regular_arrivals(population, random.Random(f"visits-{seed}"))
        self._queries = ClosedLoopLoadGenerator(
            [u.user_id for u in population], n=TOP_N, seed=seed
        )
        self._session: list[UserAction] = []

    def visitor(self) -> str:
        """A user visiting the front end."""
        return next(self._visits).user_id

    def user(self) -> str:
        """A querying user."""
        return self._queries.next_user()

    def action(self, ts: float) -> dict:
        """The next action of the current session, stamped ``ts``."""
        while not self._session:
            actor = next(self._sessions)
            self._session = self.scenario.behavior.organic_session(actor, ts)[::-1]
        action = self._session.pop()
        return {
            "user": action.user_id,
            "item": action.item_id,
            "action": action.action,
            "timestamp": ts,
        }

    def actions(self, count: int) -> list[dict]:
        """``count`` actions, :data:`SEED_STEP` apart from time zero."""
        return [self.action(n * SEED_STEP) for n in range(1, count + 1)]


def regular_arrivals(users, rng: random.Random):
    """Users in the order of their arrivals, each arriving evenly spaced
    at a rate proportional to its activity, from a seeded phase."""
    due = [(rng.random() / user.activity, n) for n, user in enumerate(users)]
    heapq.heapify(due)
    while True:
        at, n = heapq.heappop(due)
        heapq.heappush(due, (at + 1.0 / users[n].activity, n))
        yield users[n]


def even_schedule(rng: random.Random, rate: float, seconds: float) -> list[float]:
    """Evenly spaced arrivals at ``rate`` per second, seeded phase."""
    gap = 1.0 / rate
    at = rng.random() * gap
    out = []
    while at < seconds:
        out.append(at)
        at += gap
    return out


# -- the system under test ------------------------------------------------------


class Stack:
    """One deployment: TDAccess, TDStore, Storm and the query side."""

    def __init__(
        self,
        *,
        substrate=None,
        retrieval: bool = False,
        serving: bool = False,
        cache_capacity: int = 10_000,
        tracer: "Tracer | None" = None,
    ):
        self.tracer = tracer if tracer is not None else Tracer()
        self.substrate = substrate
        self.clock = SimClock()
        self.tdaccess = TDAccessCluster(self.clock, num_data_servers=2)
        self.tdaccess.create_topic(TOPIC, PARTITIONS, segment_size=4096)
        self.producer = self.tdaccess.producer()
        self.consumer = self.tdaccess.consumer(TOPIC)
        self.bus = InvalidationBus() if serving else None
        self.clients: list = []
        # the only retry policy the benchmark builds (process: the query
        # client's); bolt clients in the workers are out of its sight
        self.retry = None
        traced = tracer is not None
        if substrate is None:
            self.store = TDStoreCluster(4, 64)
            self.cluster = LocalCluster(clock=self.clock)
            factory = write_topology(retrieval=retrieval, bus=self.bus)
            client_factory = self._client_factory(
                self.store.client, traced, also=BOLT_OPS
            )
            if traced:
                self.tracer.data_servers(self.store.data_servers)
        else:
            from repro.runtime import topology_recipe

            self.store = substrate.build_tdstore(4, 16)
            self.cluster = substrate.build_storm(self.clock)
            factory = topology_recipe("perfbench.topologies", "write_topology")
            # bolts run in the workers, which build their own clients
            client_factory = self.store.client
        self.topology = factory(self.clock, client_factory, self.consumer)
        if traced:
            t = self.tracer
            t.topology(self.topology, self.cluster)
            t.wrap(self.producer, "send", "tdaccess.send")
            t.wrap(self.consumer, "poll", "tdaccess.poll")
            t.wrap(self.cluster, "step", "storm.step")
            t.wrap(self.cluster, "run_until_idle", "storm.run")
            if substrate is not None:
                t.wrap(self.cluster, "drain", "runtime.dispatch")
        self.cluster.submit(self.topology)
        engine_client = self._client_factory(self._query_client, traced)()
        self.engine = RecommenderEngine(engine_client, EngineConfig(group_of=group_of))
        if traced:
            self.tracer.wrap(self.engine, "recommend_cf", "engine.recommend_cf")
            self.tracer.wrap(
                self.engine, "recommend_cf_batch", "engine.recommend_cf_batch"
            )
        self.layer = self.front = None
        if serving:
            self.layer = ServingLayer(
                self.engine, self.clock.now, bus=self.bus,
                cache_capacity=cache_capacity,
            )
            if traced:
                self.tracer.wrap(self.layer, "serve_many", "serving.serve_many")
            self.front = RecommenderFrontEnd(self.engine, serving=self.layer)
        # every action TDAccess accepted, for the output checks
        self.actions: list[dict] = []
        self._unsynced = False

    def _query_client(self):
        if self.substrate is None:
            return self.store.client()
        from repro.resilience.retry import RetryPolicy

        # the facade's default policy, built here so its retries count
        self.retry = RetryPolicy(
            max_attempts=4, base_delay=0.005, max_delay=0.05, sleep=time.sleep
        )
        return self.store.client(retry=self.retry)

    def _client_factory(self, make, traced: bool, also: "str | None" = None):
        def factory():
            client = make()
            self.clients.append(client)
            return self.tracer.client(client, also) if traced else client

        return factory

    # -- driving -------------------------------------------------------------

    def send(self, payload: dict):
        """Publish one action to TDAccess."""
        self.clock.advance_to(payload["timestamp"])
        message = self.producer.send(TOPIC, payload, key=payload["user"])
        self.actions.append(payload)
        return message

    def run_storm(self):
        """Drain everything TDAccess holds through the topology."""
        self.cluster.reactivate_spouts(TOPOLOGY)
        self.cluster.run_until_idle()
        self._unsynced = True

    def idle(self):
        """Idle-time replication: slaves apply their queued writes. A
        deployment does this in the background; without it every write
        since set-up stays queued in memory."""
        if self._unsynced:
            self.store.sync_replicas()
            self._unsynced = False

    def seed(self, actions: list[dict], batch: int = 500):
        """Build state through the pipeline, ``batch`` actions at a time."""
        for start in range(0, len(actions), batch):
            for payload in actions[start : start + batch]:
                self.send(payload)
            self.run_storm()
            self.idle()

    def child_pids(self) -> list[int]:
        if self.substrate is None:
            return []
        import multiprocessing

        return [p.pid for p in multiprocessing.active_children()]

    def close(self):
        if self.substrate is not None:
            self.substrate.teardown()

    # -- counters from the layers' own stats endpoints ------------------------

    def counters(self) -> dict:
        metrics = self.cluster.metrics(TOPOLOGY)
        out = {
            "sent": self.producer.sent,
            "executions": metrics.total_executed(),
            "transferred": metrics.tuples_transferred,
            "ledger_commits": sum(
                s.get("first_seen", 0)
                for s in self.cluster.exactly_once_stats(TOPOLOGY).values()
            ),
            "batched_keys": sum(c.batched_keys for c in self.clients),
            "retries": self.retry.retries if self.retry is not None else 0,
        }
        for component in COMPONENTS:
            out[f"exec.{component}"] = metrics.component_executed(component)
        if self.substrate is not None:
            hosts = self.store.host_stats()
            out["rpc_requests"] = sum(h["rpc_requests"] for h in hosts)
            out["rpc_batches"] = sum(h["rpc_batches"] for h in hosts)
            out["wal_records"] = sum(h["wal"]["records"] for h in hosts)
            out["wal_commits"] = sum(h["wal"]["commits"] for h in hosts)
            out["group_wait_s"] = sum(h["committer"]["waited_seconds"] for h in hosts)
            out["wait_timeouts"] = sum(h["committer"]["wait_timeouts"] for h in hosts)
        if self.layer is not None:
            stats = self.layer.stats()
            for tier in ("result_cache", "hot_cache", "coalescer"):
                for key, value in stats[tier].items():
                    if isinstance(value, (int, float)):
                        out[f"{tier}.{key}"] = value
            out["published"] = self.bus.published
        return out


# -- the run's record ---------------------------------------------------------------


@dataclass
class Result:
    workload: str
    attempted: int = 0
    failed: int = 0
    errors: int = 0
    setup_s: list = field(default_factory=list)
    # (start, busy seconds, units of work) per round or iteration
    work: list = field(default_factory=list)
    # (when due, seconds) per latency sample of the workload's headline
    latencies: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    flagged: list = field(default_factory=list)
    before: dict = field(default_factory=dict)
    after: dict = field(default_factory=dict)
    lag_s: list = field(default_factory=list)
    commit_lag_s: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    host: measure.HostSpeed = field(default_factory=measure.HostSpeed)
    setup_factors: list = field(default_factory=list)
    origin: float = 0.0  # perf_counter at the start of the window
    windows: int = 1  # timed windows measured, the discarded ones included
    # closed-loop rounds that do alike work, so leaving some out does not
    # change what is measured
    alike: bool = False

    def note(self, what: str, exc: BaseException):
        """Log a failed operation (the first few, with traceback)."""
        self.errors += 1
        if self.errors <= 3:
            print(f"[{self.workload}] {what} failed: {exc!r}", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)

    def fail(self, what: str, exc: BaseException):
        self.failed += 1
        self.note(what, exc)

    @property
    def latencies_s(self) -> list[float]:
        return [seconds for __, seconds in self.latencies]

    def slow_share(self) -> float:
        """Share of alike rounds that fell in one-second slices where the
        reference loop ran slower than :data:`HOST_SLOW`."""
        if not self.alike or not self.work:
            return 0.0
        factor = self.host.slice_factors(self.origin)
        return sum(factor(at) > HOST_SLOW for at, __, __ in self.work) / len(
            self.work
        )

    def end_to_end(self) -> dict:
        """The gated metrics, in host-normalized time.

        The 2-CPU host the bounds were tuned on shifts speed with its
        neighbours' load, and the fixed reference loop of
        :class:`~perfbench.measure.HostSpeed` slows in step. Every time
        here is divided by the loop's slowdown in the same one-second
        slice (set-up times by the slowdown measured around each
        set-up).

        ``serve`` slows down more than the loop does, and also leaves out
        the rounds of slices in which the loop ran slow
        (:data:`HOST_SLOW`). The probe runs between rounds, with none of
        the program running, so it sees the host and not the program: a
        stall the program causes itself (a compaction, a cache rebuild)
        stays in. On six runs of ``serve`` on one seed, on a busy host,
        throughput spread (IQR over median) 0.29 raw, 0.13 divided by
        the slowdown, and 0.08 with slow slices left out. A window slow
        throughout keeps all its rounds (measuring it again did not
        help: slow phases of the host last minutes). ``ingest`` keeps
        every round: its rounds differ in work (a heavy user's action
        updates hundreds of pairs), so leaving some out changes what is
        measured; on six runs on one seed its spread was 0.03 divided by
        the slowdown and 0.17 with slow slices left out. Open loops keep
        every sample too: their probe runs in the idle gaps of a loop
        that mostly sleeps, and on ``process`` it shares the CPUs with
        the program's own workers. A stalled open-loop window is
        measured again instead. The raw whole-window figures are printed
        beside these.
        """
        factor = self.host.slice_factors(self.origin)
        quiet = self.alike and self.slow_share() < 1.0

        def kept(at):
            return not quiet or factor(at) <= HOST_SLOW

        latencies = [
            seconds / factor(at) for at, seconds in self.latencies if kept(at)
        ]
        timing = measure.timing(latencies)
        work = [(at, seconds, units) for at, seconds, units in self.work if kept(at)]
        busy = sum(seconds / factor(at) for at, seconds, __ in work)
        done = sum(units for __, __, units in work)
        return {
            "setup_s": measure.median(
                [s / f for s, f in zip(self.setup_s, self.setup_factors)]
            ),
            "throughput_per_s": done / busy if busy else 0.0,
            "latency_p50_ms": timing["p50_ms"],
            "peak_rss_mb": self.peak_rss_mb,
        }


# -- workloads ----------------------------------------------------------------------


class Workload:
    """Set up (several times), measure one timed window, check outputs."""

    name = ""
    ALIKE = False
    USERS = ITEMS = SEED_ACTIONS = 0

    def __init__(self, seed: int, trace: bool = False, rounds=None):
        self.seed = seed
        self.trace = trace
        self.tracer: "Tracer | None" = None
        self.rounds = rounds
        self.result = Result(self.name)
        self.stack: "Stack | None" = None
        # users whose answers the window asked for (and likely cached)
        self.queried: set[str] = set()

    def prepare(self):
        """Draw one set-up's inputs; drawing them is not timed."""
        self.traffic = Traffic(self.seed, self.USERS, self.ITEMS)
        self.seeding = self.traffic.actions(self.SEED_ACTIONS)
        self.ts = self.seeding[-1]["timestamp"]

    def build(self, tracer: "Tracer | None") -> Stack:
        raise NotImplementedError

    def window(self, seconds: float):
        raise NotImplementedError

    def check(self):
        raise NotImplementedError

    def _build(self, host: measure.HostSpeed) -> "tuple[float, float]":
        """Replace the stack with a fresh one: ``(start, seconds)`` of the
        set-up. Closing the old stack and drawing inputs are not timed."""
        if self.stack is not None:
            self.stack.close()
            self.stack = None
        self.prepare()
        self.tracer = Tracer() if self.trace else None
        host.probe(force=True)
        started = time.perf_counter()
        self.stack = self.build(self.tracer)
        ended = time.perf_counter()
        host.probe(force=True)
        return started, ended - started

    def run(self, seconds: float) -> Result:
        """Set up :data:`SETUPS` times, then measure on the last stack.

        A window in which the generator itself fell behind (see
        :class:`OpenLoop`) is not a result: it is discarded and measured
        again on a fresh stack, at most :data:`WINDOWS` times in all. If
        every window is flagged, the last one is kept with its flag.
        """
        setup = self.result
        try:
            for __ in range(SETUPS):
                started, took = self._build(setup.host)
                setup.setup_s.append(took)
                setup.setup_factors.append(setup.host.factor(since=started - 1.0))
            for attempt in range(WINDOWS):
                if attempt:
                    self._build(setup.host)
                self.result = Result(
                    self.name, host=setup.host, setup_s=setup.setup_s,
                    setup_factors=setup.setup_factors, windows=attempt + 1,
                    alike=self.ALIKE,
                )
                self.measure(seconds)
                if not self.result.flagged:
                    break
        finally:
            if self.stack is not None:
                self.stack.close()
            measure.stop_children()
        return self.result

    def measure(self, seconds: float):
        stack, result = self.stack, self.result
        self.queried = set()
        # the collector's full passes scale with every live object; the
        # set-up heap (discarded stacks, state built by seeding) would
        # otherwise put 100+ ms pauses into the window at random points
        gc.collect()
        gc.freeze()
        result.before = stack.counters()
        if self.tracer is not None:
            self.tracer.enabled = True
        self.window(seconds)
        # a frozen heap is never collected: a stack discarded for a window
        # measured again would stay in memory
        gc.unfreeze()
        if self.tracer is not None:
            self.tracer.enabled = False
        result.after = stack.counters()
        result.peak_rss_mb = measure.peak_rss_mb(stack.child_pids())
        self.check()

    def check_counts(self):
        """Item and pair counts in TDStore equal the in-memory
        ``PracticalItemCF`` oracle fed the same stream."""
        stack = self.stack
        oracle = PracticalItemCF()
        rated: dict[str, set[str]] = {}
        pairs: set[tuple[str, str]] = set()
        for a in stack.actions:
            oracle.observe(
                UserAction(a["user"], a["item"], a["action"], a["timestamp"])
            )
            seen = rated.setdefault(a["user"], set())
            if a["item"] not in seen:
                pairs.update((min(a["item"], o), max(a["item"], o)) for o in seen)
                seen.add(a["item"])
        table = oracle.table
        reader = stack.store.client()
        items = table.known_items()
        got = reader.multi_get([StateKeys.item_count(i) for i in items], 0.0)
        bad = [
            i for i in items
            if abs(got[StateKeys.item_count(i)] - table.item_count(i)) > 1e-9
        ]
        pairs = sorted(pairs)
        got = reader.multi_get([StateKeys.pair_count(a, b) for a, b in pairs], 0.0)
        bad_pairs = [
            (a, b) for a, b in pairs
            if abs(got[StateKeys.pair_count(a, b)] - table.pair_count(a, b)) > 1e-9
        ]
        if bad or bad_pairs:
            self.result.problems.append(
                f"counts differ from the PracticalItemCF oracle: "
                f"{len(bad)}/{len(items)} items, {len(bad_pairs)}/{len(pairs)} pairs"
            )
        self.result.extra["oracle_items"] = len(items)
        self.result.extra["oracle_pairs"] = len(pairs)

    def check_serving(self, count: int):
        """Answers served through the ServingLayer (cached ones included)
        equal a per-key ``recommend_cf`` read of the same state, for a
        sample of the users the window queried."""
        queried = sorted(self.queried)
        rng = random.Random(f"check-{self.seed}")
        users = rng.sample(queried, min(count, len(queried)))
        stack = self.stack
        now = stack.clock.now()
        reader = RecommenderEngine(
            stack.store.client(), EngineConfig(group_of=group_of)
        )
        served = stack.layer.serve_many([(u, 2 * TOP_N) for u in users], now)
        differ = 0
        for user in users:
            results, __tier = served[(user, 2 * TOP_N)]
            direct = reader.recommend_cf(user, 2 * TOP_N, now)
            if [(r.item_id, r.score) for r in results] != [
                (r.item_id, r.score) for r in direct
            ]:
                differ += 1
        if differ:
            self.result.problems.append(
                f"{differ}/{len(users)} served answers differ from per-key reads"
            )
        self.result.extra["serving_checked_users"] = len(users)

    def live_failures(self, rungs_before: dict) -> int:
        rungs = self.stack.front.log.rungs
        return sum(
            count - rungs_before.get(rung, 0)
            for rung, count in rungs.items()
            if rung != "live"
        )


class Ingest(Workload):
    """Closed loop: a batch of actions, then the topology drains it.

    A round is one closed-loop request: its latency, from the first send
    to the end of the drain that committed the batch, is one sample (the
    actions of a round share it, so counting them apart would fake a
    tail out of one slow round).
    """

    name = "ingest"
    USERS, ITEMS, SEED_ACTIONS, BATCH = 10000, 500, 1000, 50

    def build(self, tracer) -> Stack:
        stack = Stack(retrieval=True, tracer=tracer)
        stack.seed(self.seeding, batch=self.BATCH)
        return stack

    def window(self, seconds: float):
        stack, result = self.stack, self.result
        started = result.origin = time.perf_counter()
        deadline = started + seconds
        rounds = actions = 0
        while time.perf_counter() < deadline and (
            self.rounds is None or rounds < self.rounds
        ):
            result.host.probe()
            batch = []
            for __ in range(self.BATCH):
                self.ts += SEED_STEP
                batch.append(self.traffic.action(self.ts))
            sent = 0
            round_start = time.perf_counter()
            for payload in batch:
                result.attempted += 1
                try:
                    stack.tracer.request = f"action-{actions}"
                    stack.send(payload)
                    sent += 1
                except Exception as exc:  # noqa: BLE001 - counted as failed
                    result.fail("send", exc)
                actions += 1
            stack.tracer.request = f"round-{rounds}"
            stack.run_storm()
            done = time.perf_counter()
            stack.idle()
            result.latencies.append((round_start - started, done - round_start))
            result.commit_lag_s.append(done - round_start)
            result.work.append(
                (round_start - started, time.perf_counter() - round_start, sent)
            )
            rounds += 1
        elapsed = time.perf_counter() - started
        result.extra.update(actions=actions, rounds=rounds, window_s=elapsed)

    def check(self):
        self.check_counts()


class Serve(Workload):
    """Closed loop of ``CLIENTS`` in-flight Zipf queries per round."""

    name = "serve"
    ALIKE = True
    USERS, ITEMS, SEED_ACTIONS = 3000, 400, 3000
    CACHE, CLIENTS, WARM_ROUNDS, CHECK_USERS = 600, 32, 60, 200

    def prepare(self):
        super().prepare()
        self.warm = [self._window() for __ in range(self.WARM_ROUNDS)]

    def build(self, tracer) -> Stack:
        stack = Stack(serving=True, cache_capacity=self.CACHE, tracer=tracer)
        stack.seed(self.seeding)
        now = stack.clock.now()
        for window in self.warm:
            stack.front.query_batch(window, now)
        return stack

    def _window(self) -> list[tuple[str, int]]:
        window = [(self.traffic.user(), TOP_N) for __ in range(self.CLIENTS)]
        self.queried.update(user for user, __ in window)
        return window

    def window(self, seconds: float):
        stack, result = self.stack, self.result
        rungs_before = dict(stack.front.log.rungs)
        now = stack.clock.now()
        started = result.origin = time.perf_counter()
        deadline = started + seconds
        rounds = 0
        while time.perf_counter() < deadline and (
            self.rounds is None or rounds < self.rounds
        ):
            result.host.probe()
            window = self._window()
            stack.tracer.request = f"round-{rounds}"
            t0 = time.perf_counter()
            result.attempted += len(window)
            try:
                answers = stack.front.query_batch(window, now)
                empty = sum(1 for q in window if not answers.get(q))
                result.failed += empty
            except Exception as exc:  # noqa: BLE001 - counted as failed
                result.note("query_batch", exc)
                result.failed += len(window)
            elapsed = time.perf_counter() - t0
            # every client of the round waits the same fan-out: one sample
            result.latencies.append((t0 - started, elapsed))
            result.work.append((t0 - started, elapsed, len(window)))
            rounds += 1
        elapsed = time.perf_counter() - started
        result.failed += self.live_failures(rungs_before)
        result.extra.update(queries=result.attempted, rounds=rounds, window_s=elapsed)

    def check(self):
        self.check_serving(self.CHECK_USERS)


class OpenLoop(Workload):
    """Actions, queries and freshness probes on a fixed schedule.

    A probe reads the user's current answer, clicks its top item, and is
    reflected once a later answer no longer holds that item: the engine
    filters consumed items (§4.3), so that is the first answer built on
    the committed click. Latencies are timed from when each event was
    due, so a stall also charges the events queued behind it.

    The generator shares one thread with the system. It is late
    on its own account only when it wakes from a sleep after the event
    it slept for was due (``loadgen`` lag); an event released late
    because the system was still busy is the system's queueing delay.
    """

    ACTION_RATE = QUERY_RATE = PROBE_RATE = 0.0
    PROBE_TIMEOUT = 5.0
    PROBE_GAP_S = 0.003
    LATE_S = 0.001
    # a window whose timer lag tail exceeds this measured the host, not
    # the system (on the tuning host: under 0.6 ms when the host is
    # quiet, 8 to 10 ms when it stalls the process); it is measured again
    GENERATOR_LAG_LIMIT_S = 0.005

    def release(self, seconds: float) -> list[tuple[float, str, object]]:
        """``(due, kind, input)`` per event, drawn before the window: the
        action's payload, the querying user or the probing user."""
        rng = random.Random(self.seed * 7919 + 1)
        events = []
        for kind, rate in (
            ("action", self.ACTION_RATE),
            ("query", self.QUERY_RATE),
            ("probe", self.PROBE_RATE),
        ):
            if rate > 0:
                events += [(t, kind) for t in even_schedule(rng, rate, seconds)]
        events.sort()
        traffic = self.traffic
        draw = {
            "action": lambda due: traffic.action(self.ts + due),
            "query": lambda due: traffic.user(),
            "probe": lambda due: traffic.visitor(),
        }
        return [(due, kind, draw[kind](due)) for due, kind in events]

    def answer(self, users: list[str]) -> "dict[str, list | None]":
        """Displayed item ids per user; ``None`` where the query failed."""
        raise NotImplementedError

    def window(self, seconds: float):
        stack, result = self.stack, self.result
        events = self.release(seconds)
        result.attempted = len(events)
        self.queries_s, self.fresh, self.backlog = [], [], [0]
        self.pending: list[tuple[float, str, str]] = []  # (due, user, item)
        self.offsets: dict[tuple[int, int], float] = {}  # (partition, offset) -> due
        self.polls = 0
        sleep_s = 0.0
        late_system = late_generator = 0
        origin = result.origin = time.perf_counter()
        i, n = 0, len(events)
        while i < n:
            now = time.perf_counter() - origin
            if events[i][0] > now:
                stack.idle()
                # the reference loop runs only in idle gaps, where it
                # delays no event
                gap = events[i][0] - (time.perf_counter() - origin)
                if gap > self.PROBE_GAP_S:
                    result.host.probe()
                now = time.perf_counter() - origin
                if events[i][0] <= now:
                    continue
                target = events[i][0]
                time.sleep(target - now)
                woke = time.perf_counter() - origin
                sleep_s += woke - now
                result.lag_s.append(woke - target)
                late_generator += woke - target > self.LATE_S
                continue
            stack.tracer.request = f"iteration-{len(result.work)}"
            batch = []
            while i < n and events[i][0] <= now:
                late_system += now - events[i][0] > self.LATE_S
                batch.append(events[i])
                i += 1
            work = self.iteration(batch)
            result.work.append((now, time.perf_counter() - origin - now, work))
        deadline = time.perf_counter() + self.PROBE_TIMEOUT
        while self.pending and time.perf_counter() < deadline:
            time.sleep(0.01)
            self.iteration([])
        if self.pending:
            result.failed += len(self.pending)
            result.extra["probes_timed_out"] = len(self.pending)
        elapsed = time.perf_counter() - origin
        result.attempted += self.polls
        result.latencies = self.fresh
        lag_tail, __ = measure.tail(result.lag_s)
        result.extra.update(
            window_s=elapsed,
            busy_s=elapsed - sleep_s,
            events=n,
            probe_polls=self.polls,
            query=measure.timing(self.queries_s),
            backlog_max_actions=max(self.backlog),
            late_system=late_system,
            late_generator=late_generator,
            generator_lag=measure.timing(result.lag_s),
        )
        if lag_tail > self.GENERATOR_LAG_LIMIT_S:
            result.flagged.append(
                f"generator fell behind: timer lag tail {lag_tail * 1e3:.2f} ms"
            )

    def iteration(self, batch) -> int:
        """Serve one batch of released events; returns the work done
        (actions sent plus queries answered)."""
        stack, result = self.stack, self.result
        origin = result.origin
        base_ts = self.ts
        work = 0
        probes = [(due, user) for due, kind, user in batch if kind == "probe"]
        if probes:
            current = self.answer([user for __, user in probes])
            for due, user in probes:
                shown = current.get(user)
                if not shown:
                    result.failed += 1
                    continue
                if self._send(due, {
                    "user": user, "item": shown[0], "action": "click",
                    "timestamp": base_ts + due,
                }):
                    self.pending.append((due, user, shown[0]))
                    work += 1
        for due, kind, payload in batch:
            if kind == "action":
                work += self._send(due, payload)
        if self.offsets or self.pending:
            self.backlog.append(stack.consumer.lag())
            stack.run_storm()
            drained = time.perf_counter() - origin
            positions = stack.consumer.positions()
            for key, due in list(self.offsets.items()):
                if key[1] < positions[key[0]]:
                    result.commit_lag_s.append(drained - due)
                    del self.offsets[key]
        asked = [(due, user) for due, kind, user in batch if kind == "query"]
        if asked:
            got = self.answer([user for __, user in asked])
            done = time.perf_counter() - origin
            for due, user in asked:
                if got.get(user):
                    self.queries_s.append(done - due)
                    work += 1
                else:
                    result.failed += 1
        if self.pending:
            users = sorted({user for __, user, __ in self.pending})
            self.polls += len(users)
            current = self.answer(users)
            done = time.perf_counter() - origin
            still = []
            for due, user, item in self.pending:
                shown = current.get(user)
                if shown is not None and item not in shown:
                    self.fresh.append((due, done - due))
                else:
                    still.append((due, user, item))
            self.pending = still
        return work

    def _send(self, due: float, payload: dict) -> int:
        try:
            message = self.stack.send(payload)
        except Exception as exc:  # noqa: BLE001 - counted as failed
            self.result.fail("send", exc)
            return 0
        self.offsets[(message.partition, message.offset)] = due
        return 1


class Mixed(OpenLoop):
    name = "mixed"
    USERS, ITEMS, SEED_ACTIONS = 10000, 400, 3000
    CACHE, CLIENTS, WARM_ROUNDS, CHECK_USERS = 2000, 32, 60, 200
    ACTION_RATE, QUERY_RATE, PROBE_RATE = 25.0, 200.0, 75.0

    def prepare(self):
        super().prepare()
        self.warm = [
            [(self.traffic.user(), TOP_N) for __ in range(self.CLIENTS)]
            for __ in range(self.WARM_ROUNDS)
        ]

    def build(self, tracer) -> Stack:
        stack = Stack(serving=True, cache_capacity=self.CACHE, tracer=tracer)
        stack.seed(self.seeding)
        now = stack.clock.now()
        for window in self.warm:
            stack.front.query_batch(window, now)
        return stack

    def window(self, seconds: float):
        rungs_before = dict(self.stack.front.log.rungs)
        super().window(seconds)
        self.result.failed += self.live_failures(rungs_before)

    def answer(self, users):
        self.queried.update(users)
        try:
            got = self.stack.front.query_batch(
                [(u, TOP_N) for u in users], self.stack.clock.now()
            )
        except Exception as exc:  # noqa: BLE001 - callers count the misses
            self.result.note("query_batch", exc)
            return {}
        return {u: [r.item_id for r in got[(u, TOP_N)]] for u in users}

    def check(self):
        self.check_counts()
        self.check_serving(self.CHECK_USERS)


class Process(OpenLoop):
    name = "process"
    USERS, ITEMS, SEED_ACTIONS = 3000, 400, 60
    PROBE_RATE = 12.0

    def build(self, tracer) -> Stack:
        from repro.runtime import ProcessSubstrate

        substrate = ProcessSubstrate(worker_procs=1, server_procs=1)
        try:
            stack = Stack(substrate=substrate, tracer=tracer)
            stack.seed(self.seeding, batch=20)
        except BaseException:
            substrate.teardown()
            raise
        return stack

    def answer(self, users):
        out = {}
        now = self.stack.clock.now()
        for user in users:
            try:
                answer = self.stack.engine.recommend_cf(user, TOP_N, now)
            except Exception as exc:  # noqa: BLE001 - callers count the misses
                self.result.note("recommend_cf", exc)
                continue
            out[user] = [r.item_id for r in answer]
        return out

    def check(self):
        self.check_counts()


WORKLOADS = {w.name: w for w in (Ingest, Serve, Mixed, Process)}


# -- reporting ------------------------------------------------------------------


def named_metrics(result: Result) -> list[tuple[str, float, str]]:
    """The end-to-end metrics by the names the report uses for this
    workload, over the whole window: ``(name, value, unit)``."""
    rate_name, latency = HEADLINES[result.workload]
    timing = measure.timing(result.latencies_s)
    busy = sum(seconds for __, seconds, __ in result.work)
    done = sum(units for __, __, units in result.work)
    out = [
        ("setup_s", measure.median(result.setup_s), "s"),
        (rate_name, done / busy if busy else 0.0, "1/s"),
        (f"{latency}_p50_ms", timing["p50_ms"], "ms"),
        (f"{latency}_p{timing['tail_percentile']:g}_ms", timing["tail_ms"], "ms"),
    ]
    query = result.extra.get("query")
    if query and query["samples"]:
        out.append(("query_p50_ms", query["p50_ms"], "ms"))
        out.append((f"query_p{query['tail_percentile']:g}_ms", query["tail_ms"], "ms"))
    if "backlog_max_actions" in result.extra:
        out.append(
            ("backlog_max_actions", result.extra["backlog_max_actions"], "count")
        )
    out.append(("failed_ratio", result.failed / max(result.attempted, 1), "ratio"))
    out.append(("peak_rss_mb", result.peak_rss_mb, "MB"))
    return out


def layer_metrics(result: Result, tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric of :func:`per_layer_names` for one traced
    window: span totals from the tracer, counter deltas from the layers'
    stats endpoints."""
    before, after = result.before, result.after

    def delta(key):
        return after.get(key, 0) - before.get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    total, own, calls = tracer.total_s, tracer.self_s, tracer.calls
    client_spans = [k for k in total if k.startswith("tdstore.client.")]
    # ops per tuple execution, the write path's cost unit
    m = {
        "tdaccess.send_s": total["tdaccess.send"],
        "tdaccess.poll_s": total["tdaccess.poll"],
        "tdaccess.sent": delta("sent"),
        "storm.step_s": total["storm.run"],
        "storm.dispatch_self_s": own["storm.run"] + own["storm.step"],
        "storm.executions": delta("executions"),
        "storm.tuples_transferred": delta("transferred"),
        "storm.queue_depth_max": max(tracer.samples["storm.queue_depth"], default=0),
        "storm.commit_lag_ms": measure.median(result.commit_lag_s) * 1e3,
        "storm.reliability.ledger_s": total["storm.reliability.ledger"],
        "storm.reliability.ledger_entries": delta("ledger_commits"),
    }
    for component in COMPONENTS:
        m[f"topology.{component}.execute_s"] = total[f"topology.{component}.execute"]
        m[f"topology.{component}.executions"] = delta(f"exec.{component}")
    for kind in CLIENT_KINDS:
        m[f"tdstore.client.ops.{kind}"] = calls[f"tdstore.client.{kind}"]
    m.update({
        "tdstore.client.ops_per_action": ratio(
            calls[BOLT_OPS], delta("executions")
        ),
        "tdstore.client.s": sum(total[k] for k in client_spans),
        "tdstore.server.s": total["tdstore.server"],
        "tdstore.client.self_s": sum(own[k] for k in client_spans),
        "tdstore.client.retries": delta("retries"),
        "tdstore.client.batched_keys": delta("batched_keys"),
        "runtime.rpc.requests": delta("rpc_requests"),
        "runtime.rpc.batches": delta("rpc_batches"),
        "runtime.rpc.requests_per_batch": ratio(
            delta("rpc_requests"), delta("rpc_batches")
        ),
        "runtime.wal.records": delta("wal_records"),
        "runtime.wal.commits": delta("wal_commits"),
        "runtime.wal.records_per_commit": ratio(
            delta("wal_records"), delta("wal_commits")
        ),
        "runtime.wal.group_wait_s": delta("group_wait_s"),
        "runtime.wal.wait_timeouts": delta("wait_timeouts"),
        "runtime.dispatch_s": total["runtime.dispatch"],
        "engine.recommend_cf_batch_s": total["engine.recommend_cf_batch"],
        "engine.recommend_cf_s": total["engine.recommend_cf"],
        "engine.calls": (
            calls["engine.recommend_cf_batch"] + calls["engine.recommend_cf"]
        ),
        "serving.serve_many_s": total["serving.serve_many"],
        "serving.result_cache.hit_ratio": ratio(
            delta("result_cache.hits"),
            delta("result_cache.hits")
            + delta("result_cache.misses")
            + delta("result_cache.stale_hits"),
        ),
        "serving.result_cache.evictions": delta("result_cache.evictions"),
        "serving.result_cache.invalidations": delta("result_cache.invalidations"),
        "serving.hot_cache.hit_ratio": ratio(
            delta("hot_cache.hits"),
            delta("hot_cache.hits") + delta("hot_cache.misses"),
        ),
        "serving.coalescer.mean_batch": ratio(
            delta("coalescer.batched_requests"), delta("coalescer.batches")
        ),
        "serving.coalescer.coalesced_ratio": ratio(
            delta("coalescer.coalesced"), delta("coalescer.submitted")
        ),
        "serving.invalidation.published": delta("published"),
        "loadgen.lag_p99_ms": measure.tail(result.lag_s)[0] * 1e3,
    })
    per_layer = tracer.layer_self_s(layer_of)
    for layer in LAYERS:
        if layer != "tdstore.client":
            m[f"{layer}.self_s"] = per_layer.get(layer, 0.0)
    return m
