"""The server child process of the wire workloads.

Reads one JSON spec (path in ``argv[1]``), serves it with a threaded
``DatabaseServer`` (or, asked to, the asyncio one) on an ephemeral loopback
port, prints ``READY <port>``, and runs until a client sends ``admin
shutdown``; then prints its peak RSS.  Only ``Database`` and the server
classes are used — not the CLI.  It also exits when the benchmark process
that started it is gone, so a killed run leaves no server behind.
"""

import json
import os
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api import AsyncDatabaseServer, Database, DatabaseServer  # noqa: E402
from repro.core.ranking import RankingSet  # noqa: E402
from repro.live import LiveCollection  # noqa: E402

from harness import peak_rss_kb  # noqa: E402


def exit_with_parent() -> None:
    parent = os.getppid()

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(1.0)
        os._exit(1)

    threading.Thread(target=watch, name="bench-parent-watch", daemon=True).start()


def main() -> int:
    exit_with_parent()
    spec = json.loads(Path(sys.argv[1]).read_text())
    if spec.get("cpus"):
        os.sched_setaffinity(0, spec["cpus"])
    database = Database()
    if spec["kind"] == "static":
        database.create_static(
            "news", RankingSet.from_lists(spec["rows"]), num_shards=spec["num_shards"]
        )
    else:
        engine = database.create_live("news", LiveCollection.open(spec["dir"], **spec["live"]))
        for row in spec["rows"]:
            engine.insert(row)
    transport = AsyncDatabaseServer if spec.get("transport") == "asyncio" else DatabaseServer
    with transport(database, port=0) as server:
        print(f"READY {server.address[1]}", flush=True)
        server.wait()
    database.close()
    print(f"RSS_KB {peak_rss_kb()}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
