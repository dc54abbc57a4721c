"""The write topology every workload submits, as a recipe factory.

It is the shipped Figure 6 pipeline assembled from the repo's own bolt
classes in ``build_cf_topology``'s registration order, fed from TDAccess
instead of a fixed action list: TDAccessSpout -> Pretreatment ->
userHistory -> itemCount / pairCount -> simList, the demographic
``groupCount`` branch, and (``retrieval=True``) the embedding/VQ bolts
from ``add_retrieval_bolts``.

The factory is importable by worker processes (``topology_recipe``
ships only the module path and picklable keyword arguments), so the
process workload runs exactly this code inside its workers. ``bus`` is
sim-only: the invalidation bus does not cross processes.
"""

from __future__ import annotations

import zlib

from repro.storm.grouping import FieldsGrouping, ShuffleGrouping
from repro.storm.topology import TopologyBuilder
from repro.topology.bolts_cf import (
    ItemCountBolt,
    PairCountBolt,
    SimListBolt,
    UserHistoryBolt,
)
from repro.topology.bolts_common import PretreatmentBolt
from repro.topology.bolts_db import GroupCountBolt
from repro.topology.framework import add_retrieval_bolts
from repro.topology.spouts import TDAccessSpout

TOPOLOGY = "bench"
NUM_GROUPS = 8
# tasks per bolt, and tuples the spout takes from TDAccess per poll
PARALLELISM = 2
SPOUT_BATCH = 64
CF_COMPONENTS = (
    "pretreatment",
    "userHistory",
    "itemCount",
    "pairCount",
    "simList",
    "groupCount",
)
RETRIEVAL_COMPONENTS = ("embPair", "embUpdate", "vqAssign")


def group_of(user: str) -> str:
    """Deterministic demographic group of a user (module-level so the
    recipe stays picklable)."""
    return f"g{zlib.crc32(user.encode()) % NUM_GROUPS}"


def write_topology(retrieval: bool = False, bus=None):
    """Return a ``(clock, client_factory, consumer) -> Topology`` factory."""

    def factory(clock, client_factory, consumer):
        builder = TopologyBuilder(TOPOLOGY)
        builder.add_spout(
            "source", lambda: TDAccessSpout(consumer, clock, SPOUT_BATCH)
        )
        builder.add_bolt(
            "pretreatment", PretreatmentBolt,
            parallelism=PARALLELISM,
        ).grouping("source", ShuffleGrouping(), "raw_action")
        builder.add_bolt(
            "userHistory",
            lambda: UserHistoryBolt(
                client_factory, group_of=group_of, bus=bus
            ),
            parallelism=PARALLELISM,
        ).grouping("pretreatment", FieldsGrouping(["user"]), "user_action")
        builder.add_bolt(
            "itemCount",
            lambda: ItemCountBolt(client_factory),
            parallelism=PARALLELISM,
        ).grouping("userHistory", FieldsGrouping(["item"]), "item_delta")
        builder.add_bolt(
            "pairCount",
            lambda: PairCountBolt(client_factory),
            parallelism=PARALLELISM,
        ).grouping(
            "userHistory", FieldsGrouping(["pair_a", "pair_b"]), "pair_delta"
        )
        builder.add_bolt(
            "simList",
            lambda: SimListBolt(client_factory, bus=bus),
            parallelism=PARALLELISM,
        ).grouping("pairCount", FieldsGrouping(["item"]), "sim_update").grouping(
            "pairCount", FieldsGrouping(["item"]), "prune"
        )
        builder.add_bolt(
            "groupCount",
            lambda: GroupCountBolt(client_factory, bus=bus),
            parallelism=PARALLELISM,
        ).grouping("userHistory", FieldsGrouping(["group"]), "group_delta")
        if retrieval:
            add_retrieval_bolts(builder, "pretreatment", client_factory)
        return builder.build()

    return factory
