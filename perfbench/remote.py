"""The ``durable_remote`` workload: a durable, tiered asyncio server over TCP.

The server runs in a child process (``repro.apps.cli serve`` with a data
directory, batch fsync and a pending-memory limit below the parked pool).
One asyncio client connection drives an open loop: operation ``i`` is due
``i / RATE`` seconds after the start, is sent at its due time whether or not
earlier ones have finished, and its latency counts from the due time.  After
the timed phase the server is SIGKILLed and restarted over the same data
directory; the restarted server must hold every acknowledged query in the
same final state.
"""

from __future__ import annotations

import asyncio
import json
import os
import select
import shutil
import signal
import subprocess
import sys
import time
from typing import Any, Optional

from checks import FLIGHTS_SQL, HOTELS_SQL, Outcome, check_outputs, final_tables, tuples_of
from common import RunResult, delta, finals, peak_rss_mb
from gen import Workload, pair_sql
from speed import WINDOW, Speed
from tracing import START, Tracer, install

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SETUPS = 5
#: Operations per second sent by the open loop: the server stays well below
#: saturation even when the host runs at half speed, so a slow spell neither
#: grows a backlog nor inflates latency by queueing more than by its speed.
RATE = 40.0
#: Hot-query budget of the server: well below the parked pool.
MEMORY_LIMIT = 150
SNAPSHOT_INTERVAL = 200
BATCH = 100
START_TIMEOUT = 60.0
#: Longest wait for an answer or a reply before the operation counts as failed.
OP_TIMEOUT = 30.0
#: Least idle time before the next send in which the client takes a speed probe.
PROBE_ROOM = 0.004


class Server:
    """One ``serve`` child process."""

    def __init__(self, workdir: str, seed: int, traced: bool, spans_path: str) -> None:
        self.data_dir = os.path.join(workdir, "data")
        self.spans_path = spans_path if traced else None
        args = [
            "serve", "--transport", "asyncio", "--port", "0", "--seed", str(seed),
            "--data-dir", self.data_dir, "--fsync-policy", "batch",
            "--snapshot-interval", str(SNAPSHOT_INTERVAL),
            "--pending-memory-limit", str(MEMORY_LIMIT),
            "--script", os.path.join(workdir, "travel.sql"),
        ]
        if traced:
            command = [sys.executable, os.path.join(HERE, "traced_serve.py"), spans_path, *args]
        else:
            command = [sys.executable, "-m", "repro.apps.cli", *args]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        self.proc = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
            cwd=workdir,
            bufsize=0,  # unbuffered, so select() sees every line not yet read
        )
        self.port = self._await_banner()

    def _await_banner(self) -> int:
        assert self.proc.stdout is not None
        deadline = time.monotonic() + START_TIMEOUT
        seen = b""
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if not ready:
                if self.proc.poll() is not None:
                    break
                continue
            line = self.proc.stdout.readline()
            if not line:
                break
            seen += line
            if b"listening on" in line:
                return int(line.rsplit(b":", 1)[1])
        self.kill()
        raise RuntimeError(f"server did not start: {seen.decode(errors='replace')}")

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def collect_spans(self) -> list:
        """Ask a traced server to write its spans now (SIGUSR1) and read them."""
        if self.spans_path is None:
            return []
        if os.path.exists(self.spans_path):
            os.unlink(self.spans_path)
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + START_TIMEOUT
        while not os.path.exists(self.spans_path):
            if time.monotonic() > deadline:
                raise RuntimeError("traced server did not write its spans")
            time.sleep(0.05)
        with open(self.spans_path, encoding="utf-8") as handle:
            return [tuple(span) for span in json.load(handle)]

    def stop(self) -> None:
        """Graceful shutdown (SIGINT), as an operator would stop ``serve``."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=START_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.kill()
        self._close_pipe()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._close_pipe()

    def _close_pipe(self) -> None:
        if self.proc.stdout is not None:
            self.proc.stdout.close()


async def _start(workload: Workload, workdir: str, traced: bool, spans_path: str, speed: Speed):
    """Start ``serve``, connect and park the standing pool, timed in steps.

    Returns the server, the client, the handles and the reference seconds.
    """
    from repro import SubmitRequest
    from repro.service.aio import AsyncRemoteService

    server, setup_s = speed.timed(lambda: Server(workdir, workload.seed, traced, spans_path))
    client = None
    try:
        speed.sample()
        scale, started = speed.scale(), time.perf_counter()
        client = await AsyncRemoteService.connect("127.0.0.1", server.port)
        setup_s += (time.perf_counter() - started) * scale
        handles: dict[str, Any] = {}
        standing = workload.standing
        for start in range(0, len(standing), BATCH):
            chunk = standing[start:start + BATCH]
            requests = [SubmitRequest(sql=sql) for _key, sql, _group in chunk]
            speed.sample()
            scale, started = speed.scale(), time.perf_counter()
            batch = await client.submit_many(requests)
            setup_s += (time.perf_counter() - started) * scale
            for (key, _sql, _group), handle in zip(chunk, batch):
                handles[key] = handle
    except BaseException:
        if client is not None:
            await client.close()
        server.kill()
        raise
    return server, client, handles, setup_s


async def _session(workload: Workload, seconds: float, tracer: Optional[Tracer], workdir: str) -> RunResult:
    from repro import SubmitRequest
    from repro.errors import YoutopiaError
    from repro.service.aio import AsyncRemoteService

    result = RunResult()
    speed = Speed()
    spans_path = os.path.join(workdir, "server-spans.json")
    traced = tracer is not None
    server: Optional[Server] = None
    client: Any = None
    try:
        for _ in range(SETUPS):
            if client is not None:
                await client.close()
                server.stop()
            shutil.rmtree(os.path.join(workdir, "data"), ignore_errors=True)
            speed.sample(WINDOW)
            server, client, handles, setup_s = await _start(
                workload, workdir, traced, spans_path, speed
            )
            result.setup_s.append(setup_s)

        before = await client.stats()
        timed_from = time.perf_counter()
        if tracer is not None:
            install(tracer)
        loop = asyncio.get_running_loop()
        outcome = Outcome(bookings_decrement=False)
        round_trip: dict[str, float] = {}
        tasks: list[asyncio.Task] = []

        async def submit(key: str, sql: str, group: Optional[str], due: float) -> None:
            sent = time.perf_counter()
            handle = await asyncio.wait_for(client.submit(SubmitRequest(sql=sql)), OP_TIMEOUT)
            now = time.perf_counter()
            result.submit.append((now - due) * speed.scale())
            round_trip[handle.query_id] = now - sent
            result.submissions += 1
            handles[key] = handle
            if handle.status.value == "rejected":
                result.failed += 1
                return
            members = workload.groups[group] if group is not None else []
            if members and all(member in handles for member in members):
                await asyncio.wait_for(
                    asyncio.gather(*(handles[member] for member in members)), OP_TIMEOUT
                )
                result.answer.append((time.perf_counter() - due) * speed.scale())

        async def operate(op: tuple, due: float) -> None:
            kind = op[0]
            try:
                if kind == "submit":
                    await submit(op[1], op[2], op[3], due)
                elif kind == "read":
                    await asyncio.wait_for(client.query(op[1]), OP_TIMEOUT)
                    result.read.append((time.perf_counter() - due) * speed.scale())
                elif kind == "answers":
                    await asyncio.wait_for(client.answers(op[1]), OP_TIMEOUT)
                    result.read.append((time.perf_counter() - due) * speed.scale())
                elif kind == "write":
                    await asyncio.wait_for(client.execute(op[1]), OP_TIMEOUT)
                    result.write.append((time.perf_counter() - due) * speed.scale())
                    if op[2] is not None:
                        outcome.restocked[op[2]] += 1
            except (YoutopiaError, asyncio.TimeoutError) as exc:
                result.failed += 1
                result.errors.append(f"{kind}: {exc!r}")

        start = time.perf_counter() + 0.05
        for index, op in enumerate(workload.ops):
            due = start + index / RATE
            if due - start >= seconds:
                break
            delay = due - time.perf_counter()
            if delay > PROBE_ROOM:
                # The client idles between sends: probe the host's speed there.
                speed.sample()
                delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            result.late.append(max(0.0, time.perf_counter() - due))
            result.attempted += 1
            tasks.append(loop.create_task(operate(op, due)))
        else:
            raise RuntimeError("durable_remote: generated operations ran out before the deadline")
        await asyncio.gather(*tasks)
        result.elapsed = time.perf_counter() - start
        after = await client.stats()
        if tracer is not None:
            tracer.uninstall()
            result.spans.append(tracer.spans)
        result.peak_rss_mb = server.peak_rss_mb()
        result.counters = delta(dict(after.counters), dict(before.counters))
        result.finals = finals(result.counters)
        result.stats = {
            "matching_before": dict(before.matching),
            "matching": dict(after.matching),
            "tiering": dict(after.tiering),
            "tiering_delta": delta(dict(after.tiering), dict(before.tiering)),
            "durability_delta": delta(dict(after.durability), dict(before.durability)),
            "transport_delta": delta(dict(after.transport), dict(before.transport)),
            "client_submit_by_id": round_trip,
        }
        durability, tiering = after.durability, after.tiering
        acked = {
            key: (handle.query_id, handle.status.value, tuples_of(handle.answer))
            for key, handle in handles.items()
        }
        if traced:
            # perf_counter is the system-wide monotonic clock, so the server's
            # set-up spans can be cut off at the client's start time.
            result.spans.append([s for s in server.collect_spans() if s[START] >= timed_from])

        # -- crash and restart ------------------------------------------------------------
        await client.close()
        client = None
        server.kill()
        speed.sample(WINDOW)
        server, result.recovery_s = speed.timed(
            lambda: Server(workdir, workload.seed, traced, spans_path)
        )
        speed.sample()
        scale, started = speed.scale(), time.perf_counter()
        client = await AsyncRemoteService.connect("127.0.0.1", server.port)
        await client.stats()
        result.recovery_s += (time.perf_counter() - started) * scale
        result.speed = speed.probes

        recovered = {handle.query_id: handle for handle in await client.requests()}
        for key, (query_id, status, tuples) in acked.items():
            handle = recovered.get(query_id)
            if handle is None:
                result.problems.append(f"acknowledged query {key} ({query_id}) lost in the crash")
                continue
            if handle.status.value != status or tuples_of(handle.answer) != tuples:
                result.problems.append(
                    f"{key} ({query_id}) was {status} before the crash, "
                    f"{handle.status.value} after it"
                )
            outcome.members[key] = (handle.status.value, tuples_of(handle.answer))
        fresh = await client.submit(SubmitRequest(sql=pair_sql("fresh", "nobody", "Paris", 2000.0)))
        if fresh.query_id in recovered:
            result.problems.append(f"query id {fresh.query_id} reused after restart")
        await client.cancel(fresh.query_id)

        outcome.completable = set(workload.groups)
        outcome.relations = {
            name: await client.answers(name) for name in ("Reservation", "HotelReservation")
        }

        outcome.flights, outcome.rooms = final_tables(
            await client.query(FLIGHTS_SQL), await client.query(HOTELS_SQL)
        )
        result.problems.extend(check_outputs(workload, outcome))
        if not durability.get("wal_fsyncs"):
            result.problems.append("durable_remote: no WAL fsync")
        if not durability.get("snapshots_taken"):
            result.problems.append("durable_remote: no snapshot")
        if not (tiering.get("evictions") and tiering.get("page_ins")):
            result.problems.append("durable_remote: the cold tier saw no eviction or page-in")
    finally:
        if client is not None:
            await client.close()
        if server is not None:
            server.stop()
    if traced and os.path.exists(spans_path):
        with open(spans_path, encoding="utf-8") as handle:
            result.recovery_spans = [tuple(span) for span in json.load(handle)]
    return result


def run(workload: Workload, seconds: float, tracer: Optional[Tracer], workdir: str) -> RunResult:
    workdir = os.path.join(workdir, f"durable_remote-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        with open(os.path.join(workdir, "travel.sql"), "w", encoding="utf-8") as handle:
            handle.write(workload.dataset.script())
        return asyncio.run(_session(workload, seconds, tracer, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
