"""In-memory spans recorded around calls into each layer's public API.

The program itself has no tracing layer yet, so the traced run wraps
methods on the *instances* the benchmark builds or is handed (a client,
a bolt, the cluster) from here; nothing in ``src/`` changes and the
untraced run executes no wrapper at all.

Every span has a name, start, end, parent and request id. Totals and
self time (duration minus the time covered by direct children) are
accumulated for every span; the first :data:`MAX_SPANS` raw spans are
kept for the spans file written at the end of the run.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

_clock = time.perf_counter
MAX_SPANS = 100_000

CLIENT_OPS = (
    "get",
    "multi_get",
    "put",
    "delete",
    "get_versioned",
    "check_and_set",
    "apply",
    "put_once",
    "op_seen",
    "run_once",
)
SERVER_OPS = (
    "get",
    "multi_get",
    "read_replica",
    "put",
    "delete",
    "get_versioned",
    "check_and_set",
    "apply_op",
    "put_once",
    "op_seen",
    "record_once",
    "enqueue_sync",
    "apply_pending",
)


class Tracer:
    """Span recorder; inert until :attr:`enabled` is set."""

    def __init__(self):
        self.enabled = False
        self.request = None
        # frames: [name, start, child_time, span_id]
        self._stack: list[list] = []
        self.spans: list[tuple] = []
        self.dropped = 0
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.samples: dict[str, list[float]] = defaultdict(list)

    # -- recording ---------------------------------------------------------

    def _open(self, name: str):
        span_id = -1
        if len(self.spans) < MAX_SPANS:
            span_id = len(self.spans)
            parent = self._stack[-1][3] if self._stack else -1
            # placeholder, completed on close
            self.spans.append((name, 0.0, 0.0, parent, self.request))
        else:
            self.dropped += 1
        self._stack.append([name, _clock(), 0.0, span_id])

    def _close(self):
        end = _clock()
        name, start, child, span_id = self._stack.pop()
        duration = end - start
        self.total_s[name] += duration
        self.self_s[name] += duration - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration
        if span_id >= 0:
            __, __, __, parent, request = self.spans[span_id]
            self.spans[span_id] = (name, start, end, parent, request)

    def wrap(self, obj, attr: str, name: str, also: "str | None" = None):
        """Replace ``obj.attr`` (an instance attribute shadowing the
        method) with a version that records a span while enabled; each
        call also counts under ``also`` when given."""
        fn = getattr(obj, attr)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if also is not None:
                tracer.calls[also] += 1
            tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close()

        setattr(obj, attr, traced)
        return obj

    # -- instrumentation of the layers --------------------------------------

    def client(self, client, also: "str | None" = None):
        """TDStore client stack: one span per public operation."""
        for op in CLIENT_OPS:
            if hasattr(client, op):
                self.wrap(client, op, f"tdstore.client.{op}", also)
        return client

    def data_servers(self, servers):
        """Sim TDStore data servers: one span per served operation."""
        for server in servers:
            for op in SERVER_OPS:
                if hasattr(server, op):
                    self.wrap(server, op, "tdstore.server")

    def topology(self, topology, cluster):
        """Wrap every component instance the cluster will build: bolt
        ``execute`` and exactly-once ledger calls get spans, spout polls
        sample the cluster's queue depth."""
        for spec in topology.specs.values():
            spec.factory = self._component_factory(
                spec.name, spec.factory, spec.is_spout, topology.name, cluster
            )

    def _component_factory(self, name, make, is_spout, topology_name, cluster):
        tracer = self

        def create():
            instance = make()
            if is_spout:
                poll = instance.next_tuple

                def next_tuple():
                    more = poll()
                    if tracer.enabled:
                        tracer.samples["storm.queue_depth"].append(
                            cluster.pending_tuples(topology_name)
                        )
                    return more

                instance.next_tuple = next_tuple
                return instance
            tracer.wrap(instance, "execute", f"topology.{name}.execute")
            ledger = getattr(instance, "ledger", None)
            if ledger is not None:
                tracer.wrap(ledger, "seen", "storm.reliability.ledger")
                tracer.wrap(ledger, "commit", "storm.reliability.ledger")
            return instance

        return create

    # -- output ----------------------------------------------------------------

    def layer_self_s(self, layer_of) -> dict[str, float]:
        """Self time summed per layer; ``layer_of(span_name)`` names it."""
        out: dict[str, float] = defaultdict(float)
        for name, value in self.self_s.items():
            if value:
                out[layer_of(name)] += value
        return dict(out)

    def write_spans(self, path):
        with open(path, "w") as out:
            for span_id, (name, start, end, parent, request) in enumerate(
                self.spans
            ):
                out.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "request": request,
                        }
                    )
                    + "\n"
                )
