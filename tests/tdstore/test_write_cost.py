"""What one replicated write costs: one host op plus one sync op.

Every mutation's sync records (value, then journal and version meta
keys) reach the slave in one ``enqueue_sync`` call, so on the process
substrate a journaled write is two RPCs and two WAL records whatever
the number of records it replicates.
"""

import pytest

from repro.runtime.substrate import ProcessSubstrate
from repro.tdstore.cluster import TDStoreCluster
from repro.tdstore.engines import JOURNAL_PREFIX, VERSION_PREFIX


def slave_inbox(cluster, key):
    route = cluster.config.route_table().route_for_key(key)
    slave = cluster.config.server(route.slave)
    return route, slave, list(slave._sync_inbox[route.instance])


class TestSimSyncBatch:
    def test_put_once_queues_value_journal_version_in_order(self):
        cluster = TDStoreCluster(num_data_servers=3, num_instances=6)
        client = cluster.client()
        assert client.put_once("k", "op-1", {"v": 1})
        __, __, inbox = slave_inbox(cluster, "k")
        assert [record.key for record in inbox] == [
            "k", JOURNAL_PREFIX + "k", VERSION_PREFIX + "k",
        ]
        assert inbox[0].value == {"v": 1}

    def test_replayed_put_once_is_deduped_after_failover(self):
        cluster = TDStoreCluster(num_data_servers=3, num_instances=6)
        client = cluster.client()
        assert client.put_once("k", "op-1", {"v": 1})
        route, slave, __ = slave_inbox(cluster, "k")
        cluster.crash_data_server(route.host)
        assert client.put_once("k", "op-1", {"v": 2}) is False
        assert cluster.config.route_table().route(route.instance).host == (
            slave.server_id
        )
        assert client.get("k") == {"v": 1}

    def test_deduped_apply_sends_no_sync(self):
        cluster = TDStoreCluster(num_data_servers=3, num_instances=6)
        client = cluster.client()
        client.apply("n", "op-1", 1.0)
        __, __, before = slave_inbox(cluster, "n")
        client.apply("n", "op-1", 1.0)
        __, __, after = slave_inbox(cluster, "n")
        assert len(before) == len(after) == 3


@pytest.fixture(scope="module")
def process_store():
    with ProcessSubstrate(worker_procs=1, server_procs=1) as substrate:
        yield substrate.build_tdstore(2, 4)


def host_counts(store):
    (stats,) = store.host_stats()
    return stats["rpc_requests"], stats["wal"]["records"]


class TestProcessWriteCost:
    @pytest.mark.parametrize(
        "write",
        [
            lambda client: client.put_once("p", "op-1", {"v": 1}),
            lambda client: client.apply("a", "op-1", 2.0),
            lambda client: client.put("q", 3),
            lambda client: client.check_and_set("c", 4, 0),
        ],
        ids=["put_once", "apply", "put", "check_and_set"],
    )
    def test_one_write_is_two_rpcs_and_two_wal_records(
        self, process_store, write
    ):
        client = process_store.client()
        # the first write downloads the route table and the (empty)
        # in-flight migration set; steady-state writes reuse both
        client.put("warm-up", 0)
        rpcs, records = host_counts(process_store)
        write(client)
        after_rpcs, after_records = host_counts(process_store)
        # the second _stats call counts itself
        assert after_rpcs - rpcs - 1 == 2
        assert after_records - records == 2
