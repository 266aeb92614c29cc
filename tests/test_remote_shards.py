"""Remote shard transport: scale-out answers identical to single-process ones.

The topology under test mirrors production: the collection is partitioned
with :func:`partition_rankings`, each shard is served by its own
:class:`DatabaseServer` (one of them on the asyncio transport, to prove
transport neutrality), and a :class:`ShardedIndex` fans out through a
:class:`RemoteShardExecutor`.  Property: for every query, the remote
answer — rids, distances, order — equals the local sharded index's and
the single-index brute answer.
"""

from __future__ import annotations

import pytest

from repro.core.ranking import Ranking
from repro.api import AsyncDatabaseServer, Database, DatabaseServer, RemoteShardExecutor
from repro.service import ShardedIndex, partition_rankings
from repro.service.engine import QueryEngine
from repro.datasets.nyt import nyt_like_dataset
from repro.datasets.queries import sample_queries

K = 8
THETAS = (0.1, 0.3, 0.6)
ALGORITHMS = ("F&V", "ListMerge")


@pytest.fixture(scope="module")
def rankings():
    return nyt_like_dataset(n=150, k=K, seed=31)


@pytest.fixture(scope="module")
def queries(rankings):
    return sample_queries(rankings, 6, seed=13)


@pytest.fixture(scope="module", params=[2, 3])
def topology(request, rankings):
    """``num_shards`` shard servers plus the executor pointed at them."""
    num_shards = request.param
    shards = partition_rankings(rankings, num_shards)
    servers = []
    databases = []
    for index, shard in enumerate(shards):
        database = Database()
        database.create_static("default", shard)
        # one asyncio server in every topology: the executor must not care
        server_type = AsyncDatabaseServer if index == 0 else DatabaseServer
        server = server_type(database, port=0)
        server.start()
        servers.append(server)
        databases.append(database)
    executor = RemoteShardExecutor([server.address for server in servers])
    yield num_shards, executor
    executor.close()
    for server in servers:
        server.close()
    for database in databases:
        database.close()


class TestRemoteEqualsLocal:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_range_queries_identical(self, rankings, queries, topology, algorithm):
        num_shards, executor = topology
        with ShardedIndex(rankings, num_shards=num_shards) as local, ShardedIndex(
            rankings, num_shards=num_shards, executor=executor
        ) as remote:
            assert remote.executor_kind == "remote"
            for query in queries:
                for theta in THETAS:
                    local_result = local.range_query(query, theta, algorithm)
                    remote_result = remote.range_query(query, theta, algorithm)
                    assert [
                        (match.rid, match.distance) for match in remote_result
                    ] == [(match.rid, match.distance) for match in local_result]
                    assert remote_result.stats.extra["shards_queried"] == num_shards

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("n_neighbours", (1, 5, 170))
    def test_knn_identical_including_overlong_k(
        self, rankings, queries, topology, algorithm, n_neighbours
    ):
        num_shards, executor = topology
        with ShardedIndex(rankings, num_shards=num_shards) as local, ShardedIndex(
            rankings, num_shards=num_shards, executor=executor
        ) as remote:
            for query in queries:
                local_result = local.knn(query, n_neighbours, algorithm)
                remote_result = remote.knn(query, n_neighbours, algorithm)
                assert [
                    (neighbour.distance, neighbour.rid)
                    for neighbour in remote_result.neighbours
                ] == [
                    (neighbour.distance, neighbour.rid)
                    for neighbour in local_result.neighbours
                ]

    def test_query_engine_serves_through_remote_executor(self, rankings, queries, topology):
        """The full serving stack (planner + cache) over remote shards."""
        num_shards, executor = topology
        with QueryEngine(
            rankings, num_shards=num_shards, algorithms=["F&V"], executor=executor
        ) as engine, QueryEngine(
            rankings, num_shards=num_shards, algorithms=["F&V"]
        ) as local:
            for query in queries:
                remote_response = engine.query(query, 0.3)
                local_response = local.query(query, 0.3)
                assert sorted(remote_response.result.rids) == sorted(local_response.result.rids)
            # second pass hits the coordinator's cache, not the wire
            cached = engine.query(queries[0], 0.3)
            assert cached.stats.cache_hit


class TestRemoteFailureModes:
    def test_shard_count_mismatch_is_a_clear_error(self, rankings, topology):
        num_shards, executor = topology
        with ShardedIndex(rankings, num_shards=num_shards + 1, executor=executor) as index:
            with pytest.raises(ValueError, match="shard server"):
                index.range_query(Ranking(list(range(1, K + 1))), 0.2, "F&V")

    def test_dead_shard_server_names_the_shard(self, rankings):
        shards = partition_rankings(rankings, 2)
        database = Database()
        database.create_static("default", shards[0])
        alive = DatabaseServer(database, port=0)
        alive.start()
        dead = DatabaseServer(Database(), port=0)  # bound but never started
        executor = RemoteShardExecutor([alive.address, dead.address])
        dead.close()  # shard 1's server is gone before the first query
        try:
            with ShardedIndex(rankings, num_shards=2, executor=executor) as index:
                with pytest.raises((ConnectionError, OSError), match="shard 1|refused"):
                    index.range_query(Ranking(list(range(1, K + 1))), 0.2, "F&V")
        finally:
            executor.close()
            alive.close()
            database.close()

    def test_prepare_is_rejected_on_remote_executors(self, rankings, topology):
        num_shards, executor = topology
        with ShardedIndex(rankings, num_shards=num_shards, executor=executor) as index:
            with pytest.raises(TypeError, match="executor"):
                index.prepare(Ranking(list(range(1, K + 1))), 0.2, "MinimalF&V")

    def test_bogus_executor_specs_are_rejected(self, rankings):
        for removed in ("thread", "process", "fiber"):
            with pytest.raises(ValueError, match="removed.*RemoteShardExecutor"):
                ShardedIndex(rankings, num_shards=2, executor=removed)
        with pytest.raises(ValueError, match="range_shards"):
            ShardedIndex(rankings, num_shards=2, executor=object())

    def test_bad_addresses_are_rejected_up_front(self):
        with pytest.raises(ValueError, match="host:port"):
            RemoteShardExecutor(["nocolon"])
        with pytest.raises(ValueError, match="port"):
            RemoteShardExecutor(["host:http"])
        with pytest.raises(ValueError, match="at least one"):
            RemoteShardExecutor([])
