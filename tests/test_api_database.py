"""The Database/Session facade: dispatch, envelopes, and engine parity.

The facade must (a) answer exactly what the engines answer, (b) translate
every failure into a typed error envelope, and (c) leave the engines'
original method surfaces intact — the compatibility shims the rest of the
repo (CLI, benchmarks, examples) still calls.
"""

from __future__ import annotations

import pytest

from repro.core.errors import InvalidRankingError, InvalidRequestError, UnknownKeyError
from repro.core.ranking import Ranking, RankingSet
from repro.live import LiveQueryEngine
from repro.service import EngineResponse, EngineStats, QueryEngine, QueryStats
from repro.api import Database, RangeQueryRequest, Response, Session
from repro.datasets.nyt import nyt_like_dataset

THETA = 0.25


@pytest.fixture()
def rankings() -> RankingSet:
    return nyt_like_dataset(n=120, k=8, seed=11)


@pytest.fixture()
def database(rankings) -> Database:
    db = Database()
    db.create_static("news", rankings, num_shards=2)
    live = db.create_live("updates")
    for ranking in list(rankings)[:40]:
        live.insert(ranking.items)
    yield db
    db.close()


@pytest.fixture()
def session(database) -> Session:
    return database.session()


class TestQueryDispatch:
    def test_range_matches_engine_answer(self, database, session, rankings):
        query = rankings[3]
        response = session.range_query(query, THETA, collection="news")
        assert response.ok
        engine = database.engine("news")
        expected = engine.query(Ranking(query.items), THETA).result
        assert response.rids == [match.rid for match in expected.matches]
        assert [match.distance for match in response.matches] == [
            match.distance for match in expected.matches
        ]
        assert response.stats["kind"] == "range"

    def test_knn_matches_engine_answer(self, database, session, rankings):
        query = rankings[5]
        response = session.knn(query, 7, collection="updates")
        assert response.ok
        expected = database.engine("updates").knn(Ranking(query.items), 7).result
        assert response.rids == expected.rids

    def test_batch_nests_one_envelope_per_query(self, session, rankings):
        queries = [rankings[0], rankings[1], rankings[0]]
        response = session.batch(queries, THETA, collection="news")
        assert response.ok
        assert len(response.batch) == 3
        assert response.batch[0].rids == response.batch[2].rids
        # the duplicate query lands in the cache on its second appearance
        assert response.batch[2].stats["cache_hit"] is True

    def test_dict_and_typed_requests_are_equivalent(self, session, rankings):
        items = list(rankings[2].items)
        typed = session.execute(RangeQueryRequest(collection="news", items=items, theta=THETA))
        raw = session.execute(
            {"type": "range", "collection": "news", "items": items, "theta": THETA}
        )
        assert typed.result_bytes() == raw.result_bytes()

    def test_pagination_walks_the_full_answer(self, session, rankings):
        query = rankings[0]
        full = session.range_query(query, 0.6, collection="news")
        assert len(full.matches) > 4, "dataset should give a paginable answer"
        collected, cursor = [], 0
        while True:
            page = session.range_query(query, 0.6, collection="news", limit=3, cursor=cursor)
            assert page.ok and len(page.matches) <= 3
            collected.extend(page.matches)
            if page.cursor is None:
                break
            cursor = page.cursor
        assert collected == list(full.matches)

    def test_cursor_past_the_end_is_empty_not_an_error(self, session, rankings):
        page = session.range_query(
            rankings[0], THETA, collection="news", limit=5, cursor=10_000
        )
        assert page.ok and page.matches == () and page.cursor is None


class TestMutationDispatch:
    def test_insert_delete_upsert_round_trip(self, database, session):
        key = session.insert([101, 102, 103, 104, 105, 106, 107, 108], collection="updates")
        assert key in database.engine("updates").collection
        session.upsert(key, [108, 107, 106, 105, 104, 103, 102, 101], collection="updates")
        assert database.engine("updates").collection.get(key).items[0] == 108
        session.delete(key, collection="updates")
        assert key not in database.engine("updates").collection

    def test_mutating_a_static_collection_is_invalid_request(self, session):
        response = session.execute(
            {"type": "insert", "collection": "news", "items": [1, 2, 3, 4, 5, 6, 7, 8]}
        )
        assert not response.ok
        assert response.error.code == "invalid_request"
        assert "read-only" in response.error.message

    def test_deleting_unknown_key_is_typed(self, session):
        response = session.execute({"type": "delete", "collection": "updates", "key": 99_999})
        assert not response.ok
        assert response.error.code == "unknown_key"
        with pytest.raises(UnknownKeyError):
            session.delete(99_999, collection="updates")

    def test_size_mismatch_becomes_invalid_request_envelope(self, session):
        response = session.execute({"type": "insert", "collection": "updates", "items": [1, 2]})
        assert not response.ok
        assert response.error.code == "invalid_request"

    @pytest.mark.parametrize(
        "request_",
        [
            {"type": "insert", "collection": "updates"},
            {"type": "upsert", "collection": "updates", "key": 0},
            {"type": "range", "collection": "news", "theta": THETA},
            {"type": "knn", "collection": "updates", "k": 3},
        ],
    )
    def test_item_outside_int64_is_an_invalid_request_naming_the_field(self, session, request_):
        # it used to reach the WAL encoder and come back as internal: OverflowError
        items = [1, 2, 3, 4, 5, 6, 2**70, 8]
        response = session.execute({**request_, "items": items})
        assert not response.ok
        assert response.error.code == "invalid_request"
        assert "items[6]" in response.error.message

    def test_live_collection_refuses_item_outside_int64_in_process(self, database):
        with pytest.raises(InvalidRankingError, match=str(2**70)):
            database.engine("updates").insert([1, 2, 3, 4, 5, 6, 2**70, 8])


class TestErrorsAndLifecycle:
    def test_unknown_collection(self, session):
        response = session.execute(
            {"type": "range", "collection": "nope", "items": [1, 2], "theta": 0.1}
        )
        assert not response.ok
        assert response.error.code == "unknown_collection"
        assert "nope" in response.error.message

    def test_malformed_request_is_an_envelope_not_a_raise(self, session):
        response = session.execute({"type": "range", "collection": "news", "items": []})
        assert isinstance(response, Response) and not response.ok
        assert response.error.code == "invalid_request"

    def test_duplicate_item_query_is_invalid_request(self, session):
        response = session.execute(
            {"type": "range", "collection": "news", "items": [1, 1, 2], "theta": 0.1}
        )
        assert not response.ok
        assert response.error.code == "invalid_request"

    def test_duplicate_collection_name_rejected(self, database, rankings):
        with pytest.raises(InvalidRequestError):
            database.create_static("news", rankings)

    def test_drop_closes_and_unregisters(self, database):
        database.drop("updates")
        assert database.names() == ["news"]
        response = database.execute({"type": "knn", "collection": "updates", "items": [1], "k": 1})
        assert response.error.code == "unknown_collection"

    def test_closed_database_answers_collection_closed(self, rankings):
        db = Database()
        db.create_static("news", rankings)
        db.close()
        response = db.execute(
            {"type": "range", "collection": "news", "items": [1, 2], "theta": 0.1}
        )
        assert not response.ok
        assert response.error.code == "collection_closed"
        assert db.closed
        # every admin action reports closed too (not "healthy but empty")
        for action in ("ping", "collections", "shutdown", "stats"):
            response = db.execute({"type": "admin", "action": action, "collection": "news"})
            assert response.error.code == "collection_closed", action

    def test_attach_existing_engines(self, rankings):
        with Database() as db:
            static = QueryEngine(rankings, num_shards=1)
            live = LiveQueryEngine()
            db.attach("frozen", static)
            db.attach("mutable", live)
            kinds = {info.name: info.kind for info in db.infos()}
            assert kinds == {"frozen": "static", "mutable": "live"}
            with pytest.raises(InvalidRequestError):
                db.attach("bogus", object())  # type: ignore[arg-type]


class TestAdminDispatch:
    def test_ping_and_collections(self, session):
        assert session.ping() is True
        infos = session.collections()
        assert [info["name"] for info in infos] == ["news", "updates"]
        by_name = {info["name"]: info for info in infos}
        assert by_name["news"]["kind"] == "static"
        assert by_name["updates"]["kind"] == "live"
        assert by_name["updates"]["size"] == 40

    def test_collection_info_reports_pinned_algorithm(self, rankings):
        with Database() as db:
            db.create_static("pinned", rankings, algorithms=["ListMerge"])
            db.create_static("adaptive", rankings)
            by_name = {info.name: info.algorithm for info in db.infos()}
            assert by_name["pinned"] == "ListMerge"
            assert by_name["adaptive"] == "adaptive"

    def test_stats_reports_engine_and_layers(self, session, rankings):
        session.range_query(rankings[0], THETA, collection="updates")
        stats = session.stats("updates")
        assert stats["kind"] == "live"
        assert stats["engine"]["requests"]["total"] >= 1
        assert set(stats["layers"]) == {"memtable", "segments", "base", "tombstones"}
        with pytest.raises(Exception):
            session.stats("nope")

    def test_flush_and_compact(self, database, session):
        segment_id = session.flush("updates")
        assert segment_id == 0
        assert database.engine("updates").collection.segment_count == 1
        assert session.compact("updates") is True
        assert database.engine("updates").collection.segment_count == 0

    def test_live_admin_on_static_collection_is_invalid(self, session):
        response = session.execute({"type": "admin", "action": "flush", "collection": "news"})
        assert not response.ok
        assert response.error.code == "invalid_request"

    def test_shutdown_is_acknowledged_in_process(self, session):
        response = session.execute({"type": "admin", "action": "shutdown"})
        assert response.ok and response.data == {"acknowledged": True}


class TestCompatibilityShims:
    """The pre-facade engine surfaces still work and share one recording core."""

    def test_query_engine_surface_unchanged(self, rankings):
        with QueryEngine(rankings, num_shards=2, algorithms=["F&V"]) as engine:
            response = engine.query(Ranking(rankings[0].items), THETA)
            assert isinstance(response, EngineResponse)
            assert isinstance(response.stats, QueryStats)
            assert isinstance(engine.stats(), EngineStats)
            assert engine.batch_query([rankings[0]], THETA)[0].stats.cache_hit
            assert engine.knn(Ranking(rankings[0].items), 3).stats.kind == "knn"

    def test_live_engine_surface_unchanged(self):
        with LiveQueryEngine() as engine:
            key = engine.insert([1, 2, 3])
            response = engine.query(Ranking([1, 2, 3]), 0.1)
            assert isinstance(response, EngineResponse)
            assert response.stats.planner_source == "default"
            pinned = engine.query(Ranking([1, 2, 3]), 0.2, algorithm="ListMerge")
            assert pinned.stats.planner_source == "pinned"
            engine.delete(key)

    def test_both_engines_report_identical_stats_schema(self, rankings):
        """The drift fix: one QueryStats population, one field semantics."""
        with QueryEngine(rankings, algorithms=["F&V"]) as static, LiveQueryEngine() as live:
            live.insert(rankings[0].items)
            static_stats = static.query(Ranking(rankings[0].items), THETA).stats
            live_stats = live.query(Ranking(rankings[0].items), THETA).stats
            assert set(static_stats.as_dict()) == set(live_stats.as_dict())
            # cache hits report the same provenance in both engines
            static_hit = static.query(Ranking(rankings[0].items), THETA).stats
            live_hit = live.query(Ranking(rankings[0].items), THETA).stats
            assert static_hit.planner_source == live_hit.planner_source == "cache"
            # the label keeps the engine prefix; the provenance semantics match
            assert static_hit.algorithm.endswith("F&V")
            assert live_hit.algorithm.endswith("F&V")
            assert type(static.stats()) is type(live.stats())

    def test_live_engine_bad_algorithm_is_typed_and_a_value_error(self):
        with pytest.raises(InvalidRequestError):
            LiveQueryEngine(algorithm="MinimalF&V")
        with pytest.raises(ValueError):  # the pre-typed-API contract
            LiveQueryEngine(algorithm="MinimalF&V")


class TestCollectionDDL:
    """create/drop as admin actions: the wire-facing collection lifecycle."""

    def test_create_static_then_query_then_drop(self, session, rankings):
        data = session.create_collection(
            "archive",
            "static",
            rankings=[ranking.items for ranking in list(rankings)[:30]],
            num_shards=2,
        )
        assert data == {"created": "archive", "engine": "static", "size": 30}
        response = session.range_query(list(rankings)[0].items, THETA, collection="archive")
        assert response.ok
        assert session.drop_collection("archive") == {"dropped": "archive"}
        gone = session.range_query(list(rankings)[0].items, THETA, collection="archive")
        assert not gone.ok and gone.error.code == "unknown_collection"

    def test_create_live_empty_and_seeded(self, session):
        assert session.create_collection("scratch", "live") == {
            "created": "scratch", "engine": "live", "size": 0,
        }
        key = session.insert([1, 2, 3, 4, 5], collection="scratch")
        assert key == 0
        seeded = session.create_collection(
            "seeded", "live", rankings=[[1, 2, 3], [4, 5, 6], [7, 8, 9]], algorithm="F&V"
        )
        assert seeded["size"] == 3
        response = session.knn([1, 2, 3], 2, collection="seeded")
        assert response.ok and response.rids[0] == 0
        session.drop_collection("scratch")
        session.drop_collection("seeded")

    def test_create_static_pins_algorithm_and_shards(self, session, rankings):
        session.create_collection(
            "pinned",
            "static",
            rankings=[ranking.items for ranking in list(rankings)[:20]],
            algorithm="ListMerge",
            num_shards=3,
        )
        infos = {info["name"]: info for info in session.collections()}
        assert infos["pinned"]["algorithm"] == "ListMerge"
        response = session.range_query(list(rankings)[0].items, THETA, collection="pinned")
        assert response.ok and response.stats["algorithm"] == "ListMerge"
        session.drop_collection("pinned")

    def test_create_duplicate_name_is_invalid_request(self, session, rankings):
        response = session.execute(
            {"type": "admin", "action": "create", "collection": "news",
             "engine": "static", "rankings": [[1, 2, 3]]}
        )
        assert not response.ok and response.error.code == "invalid_request"
        assert "already exists" in response.error.message

    def test_drop_unknown_collection_is_typed(self, session):
        response = session.execute(
            {"type": "admin", "action": "drop", "collection": "nope"}
        )
        assert not response.ok and response.error.code == "unknown_collection"

    def test_bad_seed_rolls_the_creation_back(self, session):
        response = session.execute(
            {"type": "admin", "action": "create", "collection": "broken",
             "engine": "live", "rankings": [[1, 2, 3], [4, 5]]}  # ragged k
        )
        assert not response.ok
        assert "broken" not in [info["name"] for info in session.collections()]

    def test_ddl_fields_rejected_on_other_actions(self):
        from repro.api import AdminRequest

        with pytest.raises(InvalidRequestError, match="only applies to action 'create'"):
            AdminRequest(action="ping", engine="live")
        with pytest.raises(InvalidRequestError, match="rankings"):
            AdminRequest(action="create", engine="static")
        with pytest.raises(InvalidRequestError, match="engine"):
            AdminRequest(action="create")
