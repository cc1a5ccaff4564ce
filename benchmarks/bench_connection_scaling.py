"""E15 — connection scaling: the asyncio request plane vs. thread-per-request.

The workload models the paper's framing of coordination as a web site's
middle tier: **many mostly-idle clients**.  500 concurrent connections each
park one unmatchable entangled query (pending forever — the "entangled
queries sit waiting for a match" state), then every connection pipelines a
burst of cheap RPCs simultaneously — the high fan-in moment a busy middle
tier produces on every page load.

Both servers host the identical in-process service and speak the identical
wire codec; the *only* difference is the request plane:

* threaded ``CoordinationServer`` (the frozen comparator in
  ``threaded_server.py``): one reader thread per connection plus a
  freshly spawned handler thread per request — 500 parked reader threads
  and thousands of near-simultaneous thread spawns inside the burst;
* ``AsyncCoordinationServer``: one event loop, zero per-connection threads,
  requests as tasks (cheap reads on the synchronous fast path).

The measured burst is driven by a **thin frame pump** — pre-encoded request
frames written in one batch per connection, responses counted by framing
alone without JSON decoding — so the measurement reflects the *server's*
request plane, not the driving client's codec cost (both servers face the
identical driver).  Setup (connections, idle submissions, final stats)
uses the real :class:`~repro.service.aio.AsyncRemoteService` client.

The acceptance gate (ISSUE 5): the asyncio server sustains ≥ 500 concurrent
connections with **≥ 3× the threaded server's throughput** at that fan-in
(it measures ~5-7× here; 3× leaves headroom for noisy CI runners).
Set ``BENCH_CONNECTION_JSON=/path/out.json`` to dump the raw numbers (the
CI remote-conformance job uploads this as an artifact; ``collect_results.py``
merges it into the trajectory).
"""

from __future__ import annotations

import asyncio
import json
import os
import resource
import time

from repro.service import SystemConfig
from repro.service.aio import AsyncRemoteService, BackgroundAsyncServer
from repro.service.remote import codec
from threaded_server import CoordinationServer

CONNECTIONS = int(os.environ.get("BENCH_CONN_CONNECTIONS", "500"))
REQUESTS_PER_CONNECTION = int(os.environ.get("BENCH_CONN_REQUESTS", "8"))
CONNECT_WAVE = 50  # stay under the threaded server's listen backlog
ROUNDS = 2  # best-of-N per plane: the gate judges capacity, not jitter
SPEEDUP_GATE = 3.0

SETUP = (
    "CREATE TABLE Flights (fno INT PRIMARY KEY, dest TEXT);"
    "INSERT INTO Flights VALUES (122, 'Paris'), (123, 'Paris'), (136, 'Rome');"
)

#: The burst request, encoded once and reused: servers echo the correlation
#: id, and the pump counts responses rather than matching them.
BURST_FRAME = codec.encode_frame(
    codec.request_frame(7, "answers", {"relation": "Reservation"})
)


def raise_fd_limit(needed: int) -> None:
    """1000+ sockets in one process: lift the soft RLIMIT_NOFILE if we can."""
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    if soft < needed:
        resource.setrlimit(resource.RLIMIT_NOFILE, (min(needed, hard), hard))


def idle_sql(index: int) -> str:
    """A booking whose partner never submits — pending forever."""
    return (
        f"SELECT 'idle{index}', fno INTO ANSWER Reservation "
        "WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') "
        f"AND ('ghost{index}', fno) IN ANSWER Reservation CHOOSE 1"
    )


async def _skip_frame(reader: asyncio.StreamReader) -> None:
    """Consume one response frame by its length prefix (no JSON decode)."""
    header = await reader.readexactly(4)
    await reader.readexactly(int.from_bytes(header, "big"))


async def _open_idle_connection(
    host: str, port: int, index: int
) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    """One raw connection parking one forever-pending entangled query."""
    reader, writer = await asyncio.open_connection(host, port)
    submit = codec.encode_frame(
        codec.request_frame(
            1, "submit", {"item": {"sql": idle_sql(index), "owner": f"idle{index}"}}
        )
    )
    writer.write(submit)
    await writer.drain()
    await _skip_frame(reader)  # the pending request-state snapshot
    return reader, writer


async def drive_fan_in(host: str, port: int) -> dict:
    """Open CONNECTIONS idle clients, burst pipelined RPCs, report throughput."""
    admin = await AsyncRemoteService.connect(host, port, connect_timeout=30.0)
    try:
        await admin.execute_script(SETUP)
        await admin.declare_answer_relation(
            "Reservation", ["traveler", "fno"], ["TEXT", "INTEGER"]
        )
        connections: list[tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []
        for start in range(0, CONNECTIONS, CONNECT_WAVE):
            connections.extend(
                await asyncio.gather(
                    *[
                        _open_idle_connection(host, port, index)
                        for index in range(
                            start, min(start + CONNECT_WAVE, CONNECTIONS)
                        )
                    ]
                )
            )
        try:
            # the measured burst: every connection writes its whole pipeline
            # in one batch, all connections at once — peak fan-in.  For the
            # threaded server that is CONNECTIONS × REQUESTS near-simultaneous
            # handler-thread spawns; for the asyncio server, inline fast-path
            # handling in each connection's read loop.
            async def burst(
                reader: asyncio.StreamReader, writer: asyncio.StreamWriter
            ) -> None:
                writer.write(BURST_FRAME * REQUESTS_PER_CONNECTION)
                await writer.drain()
                for _ in range(REQUESTS_PER_CONNECTION):
                    await _skip_frame(reader)

            started = time.perf_counter()
            await asyncio.gather(*(burst(reader, writer) for reader, writer in connections))
            elapsed = time.perf_counter() - started

            stats = await admin.stats()
            return {
                "elapsed_s": elapsed,
                "requests": CONNECTIONS * REQUESTS_PER_CONNECTION,
                "qps": CONNECTIONS * REQUESTS_PER_CONNECTION / elapsed,
                "pending": stats.pending,
                "transport": dict(stats.transport),
            }
        finally:
            for _reader, writer in connections:
                writer.close()
    finally:
        await admin.close()


def run_threaded() -> dict:
    server = CoordinationServer(config=SystemConfig(seed=0))
    host, port = server.start()
    try:
        return asyncio.run(drive_fan_in(host, port))
    finally:
        server.stop()


def run_asyncio() -> dict:
    server = BackgroundAsyncServer(config=SystemConfig(seed=0))
    host, port = server.start()
    try:
        return asyncio.run(drive_fan_in(host, port))
    finally:
        server.stop()


def _dump_json(payload: dict) -> None:
    path = os.environ.get("BENCH_CONNECTION_JSON")
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)


def test_asyncio_server_3x_threaded_at_500_connections(report):
    """The acceptance experiment: ≥500 conns, asyncio ≥ 3× threaded."""
    raise_fd_limit(4 * CONNECTIONS + 512)

    # fresh server per round (the setup script is not re-runnable); the
    # best round per plane measures capacity rather than scheduler jitter
    threaded_rounds = [run_threaded() for _ in range(ROUNDS)]
    asyncio_rounds = [run_asyncio() for _ in range(ROUNDS)]
    threaded = max(threaded_rounds, key=lambda result: result["qps"])
    asyncio_plane = max(asyncio_rounds, key=lambda result: result["qps"])

    # both servers actually sustained the full fan-in, every round
    for result in threaded_rounds + asyncio_rounds:
        assert result["pending"] == CONNECTIONS  # one idle query per connection
        assert result["transport"]["connections_open"] == CONNECTIONS + 1  # + admin
        assert result["transport"]["rejected_backpressure"] == 0

    speedup = asyncio_plane["qps"] / threaded["qps"]
    report(
        connections=CONNECTIONS,
        requests=threaded["requests"],
        threaded_qps=round(threaded["qps"], 1),
        asyncio_qps=round(asyncio_plane["qps"], 1),
        speedup=round(speedup, 2),
    )
    _dump_json(
        {
            "experiment": "connection_scaling",
            "connections": CONNECTIONS,
            "requests_per_connection": REQUESTS_PER_CONNECTION,
            "threaded_elapsed_s": threaded["elapsed_s"],
            "asyncio_elapsed_s": asyncio_plane["elapsed_s"],
            "threaded_qps": threaded["qps"],
            "asyncio_qps": asyncio_plane["qps"],
            "speedup": speedup,
            "threaded_transport": threaded["transport"],
            "asyncio_transport": asyncio_plane["transport"],
        }
    )
    # the acceptance gate: the asyncio plane is ≥ 3× the threaded one here
    assert speedup >= SPEEDUP_GATE, (
        f"asyncio server only {speedup:.2f}x the threaded throughput at "
        f"{CONNECTIONS}-connection fan-in (gate: {SPEEDUP_GATE}x)"
    )
