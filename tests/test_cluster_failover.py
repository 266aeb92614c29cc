"""Kill a primary, lose nothing: promotion from the coordinator log.

The durability claim under test (in the spirit of the crash simulations
in ``test_live_stress.py``): *committed = acknowledged to the client =
present in the coordinator's replication log*, so when a primary dies —
even mid-stream, with concurrent writers — the promoted replica, after a
bounded replay of the retained log tail, holds every acknowledged write.
These tests kill real servers (no farewell: in-flight requests see torn
connections or one last ``collection_closed`` envelope) and then verify
the survivors byte-for-byte.
"""

from __future__ import annotations

import random
import threading
import time

import pytest

from repro.api.requests import AdminRequest, InsertRequest, KnnRequest
from repro.cluster import ClusterClient, LocalCluster
from repro.devtools.locktrace import (
    get_lock_registry,
    locktrace_enabled,
    reset_lock_registry,
)
from repro.obs.metrics import get_registry

@pytest.fixture(autouse=True)
def _no_lock_inversions():
    """Under ``REPRO_LOCKTRACE=1`` every test here doubles as a lockdep run:
    the traced-lock order graph must stay acyclic."""
    if locktrace_enabled():
        reset_lock_registry()
    yield
    if locktrace_enabled():
        inversions = get_lock_registry().inversions()
        assert inversions == [], "\n".join(entry.describe() for entry in inversions)


DOMAIN = 40
K = 8


def _sample(rng) -> tuple[int, ...]:
    return tuple(rng.sample(range(DOMAIN), K))


def _counter_value(name: str, **labels) -> float:
    for family in get_registry().snapshot()["metrics"]:
        if family["name"] != name:
            continue
        for sample in family["samples"]:
            if all(sample["labels"].get(key) == value for key, value in labels.items()):
                return sample["value"]
    return 0.0


def _cluster_contents(coordinator, expected: int) -> dict[int, tuple[int, ...]]:
    response = coordinator.execute(
        KnnRequest(collection="default", items=tuple(range(K)), k=max(expected, 1))
    ).raise_for_error()
    return {match.rid: match.items for match in response.matches or ()}


class TestPromotionLosesNothing:
    def test_sequential_kill_keeps_every_acked_write(self):
        rng = random.Random(23)
        with LocalCluster(shards=2, replicas=1, heartbeat_interval=0.1) as cluster:
            coordinator = cluster.coordinator
            acked: dict[int, tuple[int, ...]] = {}
            for _ in range(80):
                items = _sample(rng)
                response = coordinator.execute(
                    InsertRequest(collection="default", items=items)
                ).raise_for_error()
                acked[response.key] = items
            # let the shipper catch the replicas up, then kill hard
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                status = coordinator.status()
                if all(
                    replica["lag"] == 0
                    for shard in status["shards"]
                    for replica in shard["replicas"]
                ):
                    break
                time.sleep(0.02)
            version_before = coordinator.routing_table.version
            dead = cluster.kill_primary(0)
            # the next write to shard 0 forces an inline failover; writes to
            # shard 1 are untouched — either way nothing acked may vanish
            for _ in range(40):
                items = _sample(rng)
                response = coordinator.execute(
                    InsertRequest(collection="default", items=items)
                ).raise_for_error()
                acked[response.key] = items
            assert coordinator.routing_table.version > version_before
            status = coordinator.status()
            shard0 = status["shards"][0]
            assert shard0["primary"] != dead
            assert shard0["primary_alive"]
            assert _cluster_contents(coordinator, len(acked)) == acked
            assert _counter_value("repro_cluster_failovers_total", shard="0") >= 1.0

    def test_concurrent_writers_survive_a_mid_stream_kill(self):
        with LocalCluster(
            shards=2, replicas=2, heartbeat_interval=0.1, ship_interval=0.005
        ) as cluster:
            coordinator = cluster.coordinator
            acked: dict[int, tuple[int, ...]] = {}
            acked_lock = threading.Lock()
            failures: list[Exception] = []

            def writer(seed: int) -> None:
                rng = random.Random(seed)
                for _ in range(40):
                    items = _sample(rng)
                    try:
                        response = coordinator.execute(
                            InsertRequest(collection="default", items=items)
                        )
                    except Exception as error:  # pragma: no cover - fail loudly
                        failures.append(error)
                        return
                    if response.ok:
                        with acked_lock:
                            acked[response.key] = items
                    else:
                        failures.append(AssertionError(str(response.error)))
                        return

            threads = [threading.Thread(target=writer, args=(seed,)) for seed in range(3)]
            for thread in threads:
                thread.start()
            time.sleep(0.05)  # let the stream get going, then pull the plug
            cluster.kill_primary(0)
            for thread in threads:
                thread.join(timeout=30.0)
            assert not failures, failures
            # every acknowledged write must be present with its exact items
            assert _cluster_contents(coordinator, len(acked)) == acked

    def test_status_and_stale_client_self_correct_after_failover(self):
        rng = random.Random(29)
        with LocalCluster(
            shards=2, replicas=1, heartbeat_interval=0.1, serve_coordinator=True
        ) as cluster:
            coordinator = cluster.coordinator
            for _ in range(30):
                coordinator.execute(
                    InsertRequest(collection="default", items=_sample(rng))
                ).raise_for_error()
            host, port = cluster.coordinator_address.rsplit(":", 1)
            client = ClusterClient(host, int(port))
            try:
                query = _sample(rng)
                before = client.knn(query, 5)
                stale_version = client.routing_version
                cluster.kill_primary(0)
                coordinator.execute(  # force the inline failover
                    InsertRequest(collection="default", items=_sample(rng))
                ).raise_for_error()
                # the client still holds the old table; the retry loop must
                # install the fresh one and answer from the new primary
                after = client.knn(query, 5)
                assert client.routing_version > stale_version
                assert {match.rid for match in before.matches} <= {
                    match.rid for match in after.matches
                } | {match.rid for match in before.matches}
                status = client.status()
                assert status["version"] == coordinator.routing_table.version
                assert all(
                    shard["primary_alive"] for shard in status["shards"]
                )
            finally:
                client.close()

    def test_dead_replica_is_dropped_from_the_table(self):
        rng = random.Random(31)
        with LocalCluster(
            shards=1, replicas=2, heartbeat_interval=0.05, miss_threshold=2
        ) as cluster:
            coordinator = cluster.coordinator
            coordinator.execute(
                InsertRequest(collection="default", items=_sample(rng))
            ).raise_for_error()
            replica = coordinator.routing_table.shard(0).replicas[0]
            version_before = coordinator.routing_table.version
            cluster.kill_node(replica)
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                spec = coordinator.routing_table.shard(0)
                if replica not in spec.replicas:
                    break
                time.sleep(0.05)
            spec = coordinator.routing_table.shard(0)
            assert replica not in spec.replicas
            assert len(spec.replicas) == 1
            assert coordinator.routing_table.version > version_before
            # writes keep flowing with the remaining replica
            coordinator.execute(
                InsertRequest(collection="default", items=_sample(rng))
            ).raise_for_error()


class TestFailoverObservability:
    def test_replication_metrics_exported_cluster_wide(self):
        rng = random.Random(37)
        with LocalCluster(shards=2, replicas=1) as cluster:
            coordinator = cluster.coordinator
            for _ in range(10):
                coordinator.execute(
                    InsertRequest(collection="default", items=_sample(rng))
                ).raise_for_error()
            response = coordinator.execute(
                AdminRequest(collection="default", action="metrics", scope="cluster")
            ).raise_for_error()
            families = {family["name"] for family in response.data["metrics"]}
            assert "repro_cluster_replication_lag" in families
            assert "repro_cluster_routing_version" in families
            # every sample carries the node label the merge added
            for family in response.data["metrics"]:
                for sample in family["samples"]:
                    assert "node" in sample["labels"]


class TestServedCoordinator:
    """A coordinator behind either transport is an ordinary, quiet server."""

    @pytest.mark.parametrize("transport", ["threaded", "asyncio"])
    def test_connections_end_cleanly_and_subscribe_is_refused(
        self, transport, capsys, caplog
    ):
        from repro.api import AsyncDatabaseServer, Client, DatabaseServer

        server_type = DatabaseServer if transport == "threaded" else AsyncDatabaseServer
        with LocalCluster(shards=1, replicas=0) as cluster:
            with server_type(cluster.coordinator, port=0) as server:
                with Client(*server.address) as client:
                    assert client.ping() is True
                    # a coordinator holds no collection to watch: typed refusal
                    response = client.execute(
                        {"type": "subscribe", "collection": "default", "mode": "range",
                         "items": list(range(K)), "theta": 0.2}
                    )
                    assert not response.ok
                    assert response.error.code == "invalid_request"
                    assert "standing queries" in response.error.message
                    assert client.ping() is True  # and the connection lives on
                with Client(*server.address) as client:
                    assert client.ping() is True
                time.sleep(0.2)  # let the first connection's handler finish
        # tearing a connection down must not trip over the coordinator having
        # no subscription registry (threaded: stderr traceback; asyncio: logged)
        assert "Traceback" not in capsys.readouterr().err
        assert [record for record in caplog.records if record.levelname == "ERROR"] == []
