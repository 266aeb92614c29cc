#!/usr/bin/env python3
"""Network-serving demo: one Database, a TCP server, and remote clients.

The service and live demos drive the engines in-process.  This demo runs
the full protocol stack the way a deployment would:

1. a :class:`repro.api.Database` registers two named collections — a
   read-only ``news`` collection (sharded ``QueryEngine``) and a mutable
   ``updates`` collection (``LiveQueryEngine``);
2. a :class:`repro.api.DatabaseServer` shares that database with every
   client over length-prefixed JSON frames;
3. a :class:`repro.api.Client` issues range, k-NN, and batch queries plus
   mutations — the same method surface the in-process session has;
4. the answers are compared byte-for-byte against the in-process session
   (``result_bytes`` strips only the volatile latency stats);
5. a client's ``admin``/``shutdown`` request stops the server cleanly.

Run with::

    PYTHONPATH=src python examples/server_demo.py
"""

from __future__ import annotations

from repro.api import Client, Database, DatabaseServer
from repro.datasets.nyt import nyt_like_dataset
from repro.datasets.queries import sample_queries


def show(title: str, response) -> None:
    stats = response.stats or {}
    origin = "cache" if stats.get("cache_hit") else stats.get("planner_source", "?")
    print(f"  {title}: {len(response.matches or ())} match(es) "
          f"via {stats.get('algorithm', '?')} ({origin})")
    for match in (response.matches or ())[:3]:
        print(f"    rid={match.rid}  distance={match.distance:.4f}")


def main() -> None:
    rankings = nyt_like_dataset(n=400, k=10)
    queries = sample_queries(rankings, 5, seed=7)
    theta = 0.2

    # -- the database: two named collections behind one facade -----------------
    database = Database()
    database.create_static("news", rankings, num_shards=2)
    live = database.create_live("updates")
    for ranking in list(rankings)[:100]:
        live.insert(ranking.items)
    session = database.session()

    with DatabaseServer(database, port=0) as server:
        host, port = server.address
        print(f"serving {database.names()} on {host}:{port}\n")

        with Client(host, port) as client:
            # -- queries over the wire, against both collections ---------------
            print("remote queries:")
            show("range over 'news'", client.range_query(queries[0], theta, collection="news"))
            show("5-NN over 'updates'", client.knn(queries[0], 5, collection="updates"))
            batch = client.batch(queries, theta, collection="news")
            print(f"  batch over 'news': {len(batch.batch)} envelopes, "
                  f"{sum(len(entry.matches) for entry in batch.batch)} total matches")

            # -- mutations through the same client -----------------------------
            print("\nremote mutations on 'updates':")
            key = client.insert(queries[0].items, collection="updates")
            print(f"  inserted key={key}")
            client.upsert(key, tuple(reversed(queries[0].items)), collection="updates")
            print(f"  upserted key={key}")
            show("range sees the write", client.range_query(
                tuple(reversed(queries[0].items)), 0.05, collection="updates"))
            client.delete(key, collection="updates")
            print(f"  deleted key={key}")

            # -- the headline invariant: remote == in-process, byte for byte ---
            print("\nremote vs in-process answers (result_bytes):")
            identical = 0
            for query in queries:
                for collection in ("news", "updates"):
                    remote = client.range_query(query, theta, collection=collection)
                    local = session.range_query(query, theta, collection=collection)
                    assert remote.result_bytes() == local.result_bytes()
                    identical += 1
            print(f"  {identical}/{identical} byte-identical")

            # -- admin surface --------------------------------------------------
            stats = client.stats("news")
            requests = stats["engine"]["requests"]
            print(f"\n'news' engine totals: {requests['total']} requests, "
                  f"{requests['cache_hits']} cache hits")

            # -- a client stops the deployment ---------------------------------
            client.shutdown_server()
            print("\nshutdown acknowledged; server stopping")
        server.wait(timeout=5.0)
    database.close()
    print("done")


if __name__ == "__main__":
    main()
