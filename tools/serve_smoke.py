#!/usr/bin/env python3
"""CI smoke test for the ``repro serve`` daemon.

Starts a daemon on a private socket and store, submits the ``mini`` grid
from **two concurrent clients**, and asserts the serve path's two central
guarantees:

* **correctness** — the union of the rows each client streamed back is
  bit-identical to a serial in-process ``Session.run_grid`` over the same
  grid (only the ``resumed`` bookkeeping flag may differ);
* **warm reuse** — because both jobs dedup through the shared store, the
  second client's cells are (almost) all served from cached artifacts:
  its job-level cache hit rate must be at least 90%;
* **store-key interop** — a local ``Session`` over the daemon's store
  resumes every row the daemon wrote (``run_grid(resume=True)``), and the
  resumed rows are bit-identical to the daemon's.

Exit code 0 on success; assertion failure otherwise.  Runs in seconds —
this is the ``serve-smoke`` job in CI.
"""

from __future__ import annotations

import sys
import tempfile
import threading
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if (REPO_ROOT / "src").is_dir():
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.api.session import Session                       # noqa: E402
from repro.grid.catalog import get_grid                     # noqa: E402
from repro.serve.client import ServeClient                  # noqa: E402
from repro.serve.server import ServeServer                  # noqa: E402

BENCHMARKS = ("bitcount", "sha")
BUDGET = 2_000
MIN_SECOND_CLIENT_HIT_RATE = 0.90


def _strip(row: dict) -> dict:
    return {key: value for key, value in row.items() if key != "resumed"}


def main() -> int:
    grid = get_grid("mini").build(benchmarks=BENCHMARKS, budget=BUDGET)

    with tempfile.TemporaryDirectory(prefix="repro-serve-smoke-") as tmp:
        tmp_path = Path(tmp)

        # Serial reference, in its own store so nothing is shared.
        with Session(cache_dir=tmp_path / "serial-cache") as session:
            reference = sorted(
                (row.as_dict() for row in session.run_grid(grid)),
                key=lambda row: row["index"])

        server = ServeServer(tmp_path / "serve.sock",
                             cache_dir=tmp_path / "serve-cache", workers=2)
        server.start()
        try:
            results: dict = {}

            def run_client(name: str, barrier: threading.Barrier) -> None:
                with ServeClient(server.socket_path,
                                 retry_connect=10.0) as client:
                    barrier.wait()  # submit from both clients concurrently
                    rows, job = client.run_to_completion(
                        client.submit_grid(grid, resume=True))
                    results[name] = (rows, job)

            barrier = threading.Barrier(2)
            threads = [threading.Thread(target=run_client,
                                        args=(name, barrier))
                       for name in ("first", "second")]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
                assert not thread.is_alive(), "client did not finish"

            cells = len(reference)
            for name in ("first", "second"):
                rows, job = results[name]
                assert job["state"] == "done", (name, job)
                streamed = sorted((_strip(row) for row in rows),
                                  key=lambda row: row["index"])
                assert streamed == [_strip(row) for row in reference], \
                    f"{name} client's rows differ from the serial run"

            # Jobs are admitted in submit order; the later one must have
            # been served (almost) entirely from the shared store.
            _, first_job = results["first"]
            _, second_job = results["second"]
            if first_job["id"] > second_job["id"]:
                second_job = first_job
            hit_rate = second_job["cache_hit_rate"]
            assert hit_rate >= MIN_SECOND_CLIENT_HIT_RATE, (
                f"second client's cache hit rate {hit_rate * 100:.1f}% "
                f"< {MIN_SECOND_CLIENT_HIT_RATE * 100:.0f}%")

            # A local session resumes the daemon's rows from its store.
            with Session(cache_dir=tmp_path / "serve-cache") as session:
                resumed = sorted((row.as_dict()
                                  for row in session.run_grid(grid, resume=True)),
                                 key=lambda row: row["index"])
            assert all(row["resumed"] for row in resumed), \
                "local --resume recomputed rows the daemon had stored"
            daemon_rows = sorted((_strip(row) for row in results["first"][0]),
                                 key=lambda row: row["index"])
            assert [_strip(row) for row in resumed] == daemon_rows, \
                "locally resumed rows differ from the daemon's"

            print(f"serve smoke: {cells} cells x 2 concurrent clients, "
                  f"rows bit-identical to serial run_grid, second client "
                  f"{hit_rate * 100:.1f}% cache hits, local resume "
                  f"{len(resumed)}/{cells} rows from the daemon store")
        finally:
            server.stop(drain=False)
    return 0


if __name__ == "__main__":
    sys.exit(main())
