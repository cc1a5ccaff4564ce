"""kill -9 a serving coordination process mid-workload, restart, verify.

This is the acceptance harness of the durability subsystem (and what the
``crash-recovery`` CI job runs): a real ``youtopia-cli serve --data-dir``
process takes a stream of entangled submissions over TCP, is SIGKILLed while
the stream is still flowing, and is restarted over the same data directory.
Every submission the server *acknowledged* must survive: unanswered queries
recover as pending (and can still coordinate), answered groups keep their
exact tuples, and fresh submissions on the restarted server must not collide
with recovered query ids.
"""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.core.coordinator import QueryStatus
from repro.errors import ServiceUnavailableError
from repro.service.aio import BridgedService

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

SCHEMA = """
CREATE TABLE Flights (fno INT PRIMARY KEY, dest TEXT, price INT);
INSERT INTO Flights VALUES
    (122, 'Paris', 540), (123, 'Paris', 610), (134, 'Paris', 890),
    (136, 'Rome', 650), (140, 'Rome', 420);
"""


def booking_sql(traveler: str, companion: str, dest: str = "Paris") -> str:
    return (
        f"SELECT '{traveler}', fno INTO ANSWER Reservation "
        f"WHERE fno IN (SELECT fno FROM Flights WHERE dest = '{dest}') "
        f"AND ('{companion}', fno) IN ANSWER Reservation CHOOSE 1"
    )


class ServerProcess:
    """One ``youtopia-cli serve`` subprocess bound to an ephemeral port."""

    def __init__(
        self,
        data_dir: Path,
        script: Path | None = None,
        extra_args: list[str] | None = None,
    ) -> None:
        argv = [
            sys.executable,
            "-m",
            "repro.apps.cli",
            "serve",
            "--port",
            "0",
            "--seed",
            "0",
            "--data-dir",
            str(data_dir),
            "--fsync-policy",
            "always",
        ]
        if script is not None:
            argv += ["--script", str(script)]
        if extra_args:
            argv += extra_args
        env = dict(os.environ)
        src = str(REPO_ROOT / "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self.process = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env
        )
        self.port = self._read_port()

    def _read_port(self, timeout: float = 30.0) -> int:
        # select + os.read, not buffered readline: a silent-but-alive server
        # must hit the deadline instead of hanging the CI job (same pattern
        # as examples/remote_travel.py's read_port).
        deadline = time.monotonic() + timeout
        assert self.process.stdout is not None
        fd = self.process.stdout.fileno()
        buffer = ""
        consumed: list[str] = []
        while True:
            while "\n" in buffer:
                line, buffer = buffer.split("\n", 1)
                consumed.append(line)
                if "listening on" in line:
                    return int(line.rsplit(":", 1)[1])
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError(
                    f"server did not report a port within {timeout}s; "
                    f"output:\n" + "\n".join(consumed)
                )
            ready, _, _ = select.select([fd], [], [], remaining)
            if not ready:
                raise RuntimeError(
                    f"server did not report a port within {timeout}s; "
                    f"output:\n" + "\n".join(consumed)
                )
            chunk = os.read(fd, 4096)
            if not chunk:
                raise RuntimeError(
                    f"server exited (code {self.process.poll()}) before listening; "
                    f"output:\n" + "\n".join(consumed)
                )
            buffer += chunk.decode("utf-8", errors="replace")

    def connect(self, attempts: int = 20, delay: float = 0.1) -> BridgedService:
        last: Exception = ServiceUnavailableError("no attempt made")
        for attempt in range(attempts):
            try:
                return BridgedService.connect("127.0.0.1", self.port)
            except ServiceUnavailableError as exc:
                last = exc
                time.sleep(delay * (attempt + 1))
        raise last

    def sigkill(self) -> None:
        self.process.send_signal(signal.SIGKILL)
        self.process.wait(timeout=30)

    def terminate(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=10)


@pytest.fixture
def schema_file(tmp_path):
    path = tmp_path / "schema.sql"
    path.write_text(SCHEMA, encoding="utf-8")
    return path


def test_sigkill_mid_stream_recovers_every_acknowledged_query(tmp_path, schema_file):
    data_dir = tmp_path / "data"
    server = ServerProcess(data_dir, script=schema_file)
    acked_pending: list[str] = []
    answered: dict[str, list] = {}
    try:
        client = server.connect()
        client.declare_answer_relation(
            "Reservation", ["traveler", "fno"], ["TEXT", "INTEGER"]
        )

        # an answered group before the crash: its tuples must survive verbatim
        jerry = client.submit(booking_sql("Jerry", "Kramer"), owner="Jerry")
        kramer = client.submit(booking_sql("Kramer", "Jerry"), owner="Kramer")
        envelope = kramer.result(timeout=10.0)
        answered[jerry.query_id] = sorted(client.answers("Reservation"))
        assert envelope.tuples

        # a batch of pending singles (partners never arrive before the kill)
        for index in range(8):
            handle = client.submit(
                booking_sql(f"solo-{index}", f"ghost-{index}"), owner=f"solo-{index}"
            )
            acked_pending.append(handle.query_id)

        # ... and a live stream still flowing when the SIGKILL lands
        stream_stop = threading.Event()

        def stream() -> None:
            index = 100
            while not stream_stop.is_set():
                try:
                    handle = client.submit(
                        booking_sql(f"solo-{index}", f"ghost-{index}"),
                        owner=f"solo-{index}",
                    )
                except Exception:
                    return  # the server died mid-call: this one was not acked
                acked_pending.append(handle.query_id)
                index += 1

        streamer = threading.Thread(target=stream, daemon=True)
        streamer.start()
        time.sleep(0.4)  # let the stream get going
        server.sigkill()  # no shutdown handshake, no final fsync, nothing
        stream_stop.set()
        streamer.join(timeout=10)
        assert len(acked_pending) >= 8
    finally:
        server.terminate()

    # -- restart over the same data directory ------------------------------------
    restarted = ServerProcess(data_dir, script=schema_file)
    try:
        client = restarted.connect()
        states = {handle.query_id: handle for handle in client.requests()}

        # every acknowledged-but-unanswered query recovered as pending
        pending_ids = {query.query_id for query in client.pending_queries()}
        for query_id in acked_pending:
            assert query_id in states, f"acked query {query_id} lost by the crash"
            assert states[query_id].status is QueryStatus.PENDING
            assert query_id in pending_ids

        # the pre-crash answered group kept its exact tuples
        for query_id, tuples in answered.items():
            assert states[query_id].status is QueryStatus.ANSWERED
            assert sorted(client.answers("Reservation")) == tuples

        # the schema bootstrap must NOT have re-run (no duplicate flights)
        flights = client.query("SELECT fno FROM Flights")
        assert len(flights.rows) == 5

        # recovered pending queries still coordinate: complete one pair
        target = acked_pending[3]
        owner = states[target].owner
        index = owner.split("-", 1)[1]
        partner = client.submit(
            booking_sql(f"ghost-{index}", f"solo-{index}"), owner=f"ghost-{index}"
        )
        partner.result(timeout=10.0)
        assert client.request(target).status is QueryStatus.ANSWERED

        # fresh ids must not collide with recovered ones
        fresh = client.submit(booking_sql("fresh", "nobody"), owner="fresh")
        assert fresh.query_id not in states

        # the durability stats report the recovery
        durability = client.stats().durability
        assert durability.get("enabled") is True
        recovery = durability.get("recovery") or {}
        assert recovery.get("pending_recovered", 0) >= len(acked_pending)
    finally:
        restarted.terminate()


def test_sigkill_with_spilled_cold_queries_recovers_every_acked_query(
    tmp_path, schema_file
):
    """The tiering acceptance crash: acked queries resident only in the cold
    store (snapshots reference their spilled payloads instead of inlining
    SQL) must survive a SIGKILL and still coordinate after the restart."""
    data_dir = tmp_path / "data"
    tiering_args = [
        "--pending-memory-limit",
        "4",
        "--cold-store",
        "sqlite",
        # small interval so snapshots are cut while most queries are cold,
        # exercising the cold-reference (sql=None) snapshot encoding
        "--snapshot-interval",
        "10",
    ]
    server = ServerProcess(data_dir, script=schema_file, extra_args=tiering_args)
    acked: list[str] = []
    try:
        client = server.connect()
        client.declare_answer_relation(
            "Reservation", ["traveler", "fno"], ["TEXT", "INTEGER"]
        )
        for index in range(20):
            handle = client.submit(
                booking_sql(f"solo-{index}", f"ghost-{index}"), owner=f"solo-{index}"
            )
            acked.append(handle.query_id)

        tiering = client.stats().tiering
        assert tiering.get("enabled") is True
        assert tiering.get("hot", 0) <= 4
        assert tiering.get("cold", 0) >= 16, tiering
        assert (data_dir / "cold_store.db").exists()

        server.sigkill()  # no shutdown handshake: the cold store must be
        # consistent purely from the snapshot-time sync barrier
    finally:
        server.terminate()

    restarted = ServerProcess(data_dir, script=schema_file, extra_args=tiering_args)
    try:
        client = restarted.connect()
        states = {handle.query_id: handle for handle in client.requests()}
        pending_ids = {query.query_id for query in client.pending_queries()}
        for query_id in acked:
            assert query_id in states, f"acked query {query_id} lost by the crash"
            assert states[query_id].status is QueryStatus.PENDING
            assert query_id in pending_ids

        # recovery rebuilt a bounded hot/cold placement, not an untiered pool
        tiering = client.stats().tiering
        assert tiering.get("enabled") is True
        assert tiering.get("hot", 0) <= 4
        assert tiering.get("hot", 0) + tiering.get("cold", 0) == len(acked)

        # recovered queries still coordinate — six partners against a hot
        # set of four means at least two answers needed a cold page-in
        for index in range(6):
            partner = client.submit(
                booking_sql(f"ghost-{index}", f"solo-{index}"), owner=f"ghost-{index}"
            )
            partner.result(timeout=10.0)
            assert client.request(acked[index]).status is QueryStatus.ANSWERED
        assert client.stats().tiering.get("page_ins", 0) >= 1
    finally:
        restarted.terminate()


def test_crash_mid_bootstrap_redoes_the_script(tmp_path, schema_file):
    """A predecessor that provably died partway through --script (started
    marker, no done marker) must not leave a half-built schema: no client
    state can exist yet, so the bootstrap is wiped and redone."""
    from repro.apps.cli import build_server
    from repro.core.config import SystemConfig
    from repro.core.durability import write_durable_marker
    from repro.core.system import YoutopiaSystem

    data_dir = tmp_path / "data"
    data_dir.mkdir()
    write_durable_marker(data_dir / "bootstrap.started")  # as build_server would
    half = YoutopiaSystem(config=SystemConfig(seed=0, data_dir=data_dir))
    half.execute("CREATE TABLE Flights (fno INT PRIMARY KEY, dest TEXT, price INT)")
    # crash before the INSERTs ran and before bootstrap.done was written
    half.coordinator.journal = None
    half.coordinator.shutdown()
    half.durability.close()
    assert not (data_dir / "bootstrap.done").exists()

    server = build_server(port=0, seed=0, script=str(schema_file), data_dir=str(data_dir))
    try:
        assert len(server.service.query("SELECT fno FROM Flights").rows) == 5
        assert (data_dir / "bootstrap.done").exists()
        assert not (data_dir / "bootstrap.started").exists()
    finally:
        server.stop()

    # a completed bootstrap is never re-run (no duplicate rows)
    restarted = build_server(port=0, seed=0, script=str(schema_file), data_dir=str(data_dir))
    try:
        assert len(restarted.service.query("SELECT fno FROM Flights").rows) == 5
    finally:
        restarted.stop()


def test_script_never_wipes_unmarked_preexisting_state(tmp_path, schema_file):
    """Adding --script to a data dir that predates it must not destroy the
    acknowledged durable state it holds (no markers != crashed bootstrap)."""
    from repro.apps.cli import build_server
    from repro.core.config import SystemConfig
    from repro.core.system import YoutopiaSystem

    data_dir = tmp_path / "data"
    prior = YoutopiaSystem(config=SystemConfig(seed=0, data_dir=data_dir))
    prior.execute("CREATE TABLE Users (name TEXT)")
    prior.execute("INSERT INTO Users VALUES ('elaine')")
    request = prior.submit_entangled(booking_sql_over("Users", "Elaine", "Nobody"))
    prior.close()

    server = build_server(port=0, seed=0, script=str(schema_file), data_dir=str(data_dir))
    try:
        # prior state intact, bootstrap script NOT applied
        assert server.service.query("SELECT name FROM Users").rows == (("elaine",),)
        assert {q.query_id for q in server.service.pending_queries()} == {request.query_id}
        assert not server.service.system.database.has_table("Flights")
    finally:
        server.stop()


def booking_sql_over(table: str, traveler: str, companion: str) -> str:
    return (
        f"SELECT '{traveler}', name INTO ANSWER Pick "
        f"WHERE name IN (SELECT name FROM {table}) "
        f"AND ('{companion}', name) IN ANSWER Pick CHOOSE 1"
    )


def test_restart_after_clean_shutdown_replays_nothing(tmp_path, schema_file):
    data_dir = tmp_path / "data"
    server = ServerProcess(data_dir, script=schema_file)
    try:
        client = server.connect()
        client.submit(booking_sql("Elaine", "Nobody"), owner="Elaine")
        client.shutdown_server()  # clean stop: close() checkpoints
        server.process.wait(timeout=30)
    finally:
        server.terminate()

    restarted = ServerProcess(data_dir, script=schema_file)
    try:
        client = restarted.connect()
        assert len(client.pending_queries()) == 1
        durability = client.stats().durability
        recovery = durability.get("recovery") or {}
        assert recovery.get("snapshot_loaded") is True
        assert recovery.get("records_replayed") == 0
    finally:
        restarted.terminate()
