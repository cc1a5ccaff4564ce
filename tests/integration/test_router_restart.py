"""Router restart: the registry is soft state, rebuilt from the nodes.

The acceptance bar of the restartable-gateway work: kill the router (up to
SIGKILL — no shutdown path runs), start a fresh one over the same member
nodes, and every query the old router acked must still be waitable and
cancelable with its exact answer tuples, while new submissions never collide
with pre-crash ids.  Two flavours:

* in-process (:class:`~repro.cluster.BackgroundClusterRouter` stopped and a
  new one started) — covers the rebuild logic itself, including in-flight
  batches and cross-node residents recovered where they actually live;
* subprocess (``youtopia-cli router`` SIGKILLed mid-flight and restarted) —
  covers the real crash: nothing of the old process survives but the nodes.
"""

from __future__ import annotations

import os
import re
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from service_conformance import SETUP, wait_until
from repro.core.coordinator import QueryStatus
from repro.service import SystemConfig
from repro.service.aio import BackgroundAsyncServer, BridgedService
from repro.cluster import (
    BackgroundClusterRouter,
    NodeSpec,
    PlacementMap,
    extract_signature,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


def relation_pair_sql(owner: str, partner: str, relation: str) -> str:
    return (
        f"SELECT '{owner}', fno INTO ANSWER {relation} "
        "WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') "
        f"AND ('{partner}', fno) IN ANSWER {relation} CHOOSE 1"
    )


def cross_pair_sql(owner: str, partner: str, mine: str, theirs: str) -> str:
    return (
        f"SELECT '{owner}', fno INTO ANSWER {mine} "
        "WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') "
        f"AND ('{partner}', fno) IN ANSWER {theirs} CHOOSE 1"
    )


def relations_per_node(placement: PlacementMap) -> list[str]:
    """One relation name homed on each node, found by scanning candidates."""
    chosen: dict[int, str] = {}
    for index in range(200):
        relation = f"rel{index}"
        node = placement.node_for_relation(relation)
        chosen.setdefault(node, relation)
        if len(chosen) == placement.node_count:
            break
    assert len(chosen) == placement.node_count
    return [chosen[node] for node in range(placement.node_count)]


@pytest.fixture
def three_nodes():
    nodes = []
    for _ in range(3):
        server = BackgroundAsyncServer(config=SystemConfig(seed=0))
        server.start()
        nodes.append(server)
    placement = PlacementMap(
        [NodeSpec(index, *server.address) for index, server in enumerate(nodes)]
    )
    yield nodes, placement
    for server in nodes:
        server.stop()


def start_router(placement: PlacementMap):
    router = BackgroundClusterRouter(placement)
    router.start()
    client = BridgedService.connect(*router.address)
    return router, client


def router_id_number(query_id: str) -> int:
    match = re.match(r"^r(\d+)$", query_id)
    assert match, f"not a router-assigned id: {query_id!r}"
    return int(match.group(1))


class TestRouterRestartInProcess:
    def test_restart_recovers_acked_queries_and_advances_ids(self, three_nodes):
        nodes, placement = three_nodes
        relations = relations_per_node(placement)
        router, client = start_router(placement)
        try:
            client.execute_script(SETUP)
            for relation in relations:
                client.declare_answer_relation(
                    relation, ["traveler", "fno"], ["TEXT", "INTEGER"]
                )
            # 1. an answered pair — terminal state with exact tuples
            left = client.submit(relation_pair_sql("a", "b", relations[0]), owner="a")
            right = client.submit(relation_pair_sql("b", "a", relations[0]), owner="b")
            envelope = left.result(timeout=10.0)
            answered_tuples = sorted(envelope.all_tuples())
            # 2. an in-flight batch of ghosts, fanned out over every node
            ghosts = client.submit_many(
                [
                    relation_pair_sql(f"g{index}", "never", relation)
                    for index, relation in enumerate(relations)
                ]
            )
            assert all(handle.status is QueryStatus.PENDING for handle in ghosts)
            # 3. a pending cross-node query, resident at its hashed node
            cross_sql = cross_pair_sql("x", "y", relations[1], relations[2])
            signature = extract_signature(cross_sql)
            assert placement.node_for_signature(signature) is None
            residence = placement.residence_node_for(signature)
            cross = client.submit(cross_sql, owner="x")
            old_ids = (
                [left.query_id, right.query_id]
                + [handle.query_id for handle in ghosts]
                + [cross.query_id]
            )
            highest_old = max(router_id_number(query_id) for query_id in old_ids)
        finally:
            client.close()
            router.stop()

        router2, client2 = start_router(placement)
        try:
            stats = client2.stats()
            # every pre-crash query was recovered from node introspection
            assert stats.cluster["recovered_queries"] >= len(old_ids)
            assert stats.cluster["registered_queries"] >= len(old_ids)
            # the answered pair is still waitable, with the exact same tuples
            recovered = client2.request(left.query_id)
            assert recovered.status is QueryStatus.ANSWERED
            assert sorted(recovered.result(timeout=5.0).all_tuples()) == answered_tuples
            assert client2.request(right.query_id).status is QueryStatus.ANSWERED
            # the in-flight batch is pending again, owned by the same nodes
            for handle in ghosts:
                assert client2.request(handle.query_id).status is QueryStatus.PENDING
            # the cross-node resident re-heated its relations where it lives
            assert set(stats.cluster["hot_relations"]) >= set(signature)
            assert stats.cluster["hot_nodes"][relations[1]] == residence
            # new ids never collide with pre-crash ones
            fresh = client2.submit(
                relation_pair_sql("new", "never", relations[0]), owner="new"
            )
            assert fresh.query_id not in set(old_ids)
            assert router_id_number(fresh.query_id) > highest_old
            # a recovered pending query still coordinates: complete one ghost
            ghost = ghosts[0]
            partner = client2.submit(
                relation_pair_sql("never", "g0", relations[0]), owner="never"
            )
            assert partner.result(timeout=10.0) is not None
            assert wait_until(
                lambda: client2.request(ghost.query_id).status is QueryStatus.ANSWERED
            )
            # ...and so does the recovered cross-node resident
            mirror = client2.submit(
                cross_pair_sql("y", "x", relations[2], relations[1]), owner="y"
            )
            assert mirror.result(timeout=10.0) is not None
            assert wait_until(
                lambda: client2.request(cross.query_id).status is QueryStatus.ANSWERED
            )
        finally:
            client2.close()
            router2.stop()

    def test_restart_recovers_cancel_routing(self, three_nodes):
        nodes, placement = three_nodes
        relations = relations_per_node(placement)
        router, client = start_router(placement)
        try:
            client.execute_script(SETUP)
            client.declare_answer_relation(
                relations[1], ["traveler", "fno"], ["TEXT", "INTEGER"]
            )
            ghost = client.submit(
                relation_pair_sql("solo", "never", relations[1]), owner="solo"
            )
        finally:
            client.close()
            router.stop()
        router2, client2 = start_router(placement)
        try:
            client2.cancel(ghost.query_id)
            assert wait_until(
                lambda: client2.request(ghost.query_id).status
                is QueryStatus.CANCELLED
            )
            # the owning node processed the cancel, not just the router
            owner_node = placement.node_for_relation(relations[1])
            assert nodes[owner_node].service.stats()["queries_cancelled"] == 1
        finally:
            client2.close()
            router2.stop()


class TestReshard:
    def test_reshard_sweep_moves_queries_to_their_new_homes(self):
        """Growing the cluster: a router restarted with ``reshard=True`` over
        more nodes (same shard count — the split() invariant) drags every
        live query whose shard re-projected onto a new node over to it."""
        nodes = []
        for _ in range(3):
            server = BackgroundAsyncServer(config=SystemConfig(seed=0))
            server.start()
            nodes.append(server)
        specs = [NodeSpec(index, *server.address) for index, server in enumerate(nodes)]
        old_placement = PlacementMap(specs[:2], shard_count=6)
        new_placement = old_placement.split(specs)
        # a relation whose shard re-projects onto a different node
        moved_relation = next(
            f"rel{index}"
            for index in range(200)
            if old_placement.node_for_relation(f"rel{index}")
            != new_placement.node_for_relation(f"rel{index}")
        )
        old_home = old_placement.node_for_relation(moved_relation)
        new_home = new_placement.node_for_relation(moved_relation)
        router, client = start_router(old_placement)
        try:
            try:
                client.execute_script(SETUP)
                client.declare_answer_relation(
                    moved_relation, ["traveler", "fno"], ["TEXT", "INTEGER"]
                )
                ghost = client.submit(
                    relation_pair_sql("solo", "never", moved_relation), owner="solo"
                )
                assert nodes[old_home].service.stats()["queries_registered"] == 1
            finally:
                client.close()
                router.stop()
            # node 2 never saw the schema; give it the same base data so the
            # relocated query can re-register there
            bootstrap = BridgedService.connect(*nodes[2].address)
            try:
                bootstrap.execute_script(SETUP)
                bootstrap.declare_answer_relation(
                    moved_relation, ["traveler", "fno"], ["TEXT", "INTEGER"]
                )
            finally:
                bootstrap.close()
            router2 = BackgroundClusterRouter(new_placement, reshard=True)
            router2.start()
            client2 = BridgedService.connect(*router2.address)
            try:
                stats = client2.stats()
                assert stats.cluster["resharded_relocations"] == 1
                assert stats.cluster["recovered_queries"] == 1
                # the query now lives on its new home node and still matches
                assert client2.request(ghost.query_id).status is QueryStatus.PENDING
                assert nodes[new_home].service.pending_queries()
                partner = client2.submit(
                    relation_pair_sql("never", "solo", moved_relation), owner="never"
                )
                assert partner.result(timeout=10.0) is not None
                assert wait_until(
                    lambda: client2.request(ghost.query_id).status
                    is QueryStatus.ANSWERED
                )
                assert nodes[new_home].service.stats()["groups_matched"] == 1
            finally:
                client2.close()
                router2.stop()
        finally:
            for server in nodes:
                server.stop()


class RouterProcess:
    """A ``youtopia-cli router`` subprocess on an ephemeral port."""

    def __init__(self, node_addresses: list[str]) -> None:
        argv = [sys.executable, "-m", "repro.apps.cli", "router", "--port", "0"]
        for address in node_addresses:
            argv += ["--node", address]
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
        deadline = time.monotonic() + timeout
        assert self.process.stdout is not None
        fd = self.process.stdout.fileno()
        buffer = ""
        while True:
            while "\n" in buffer:
                line, buffer = buffer.split("\n", 1)
                if "listening on" in line:
                    return int(line.rsplit(":", 1)[1])
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError(f"router did not report a port within {timeout}s")
            ready, _, _ = select.select([fd], [], [], remaining)
            if not ready:
                raise RuntimeError(f"router did not report a port within {timeout}s")
            chunk = os.read(fd, 4096)
            if not chunk:
                raise RuntimeError(
                    f"router exited (code {self.process.poll()}) before listening"
                )
            buffer += chunk.decode("utf-8", errors="replace")

    def sigkill(self) -> None:
        if self.process.poll() is None:
            os.kill(self.process.pid, signal.SIGKILL)
            self.process.wait(timeout=10)

    def terminate(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=10)


class TestRouterSigkillRestart:
    def test_sigkilled_router_restarts_with_full_registry(self, three_nodes):
        """The CI crash drill: SIGKILL the gateway process, start a new one,
        and the cluster picks up exactly where it was."""
        nodes, placement = three_nodes
        relations = relations_per_node(placement)
        addresses = [spec.address for spec in placement.nodes]
        router = RouterProcess(addresses)
        restarted = None
        client = client2 = None
        try:
            client = BridgedService.connect("127.0.0.1", router.port)
            client.execute_script(SETUP)
            for relation in relations:
                client.declare_answer_relation(
                    relation, ["traveler", "fno"], ["TEXT", "INTEGER"]
                )
            left = client.submit(relation_pair_sql("a", "b", relations[0]), owner="a")
            right = client.submit(relation_pair_sql("b", "a", relations[0]), owner="b")
            answered_tuples = sorted(left.result(timeout=10.0).all_tuples())
            ghosts = client.submit_many(
                [
                    relation_pair_sql(f"g{index}", "never", relation)
                    for index, relation in enumerate(relations)
                ]
            )
            old_ids = [
                handle.query_id
                for handle in [left, right, *ghosts]
            ]
            highest_old = max(router_id_number(query_id) for query_id in old_ids)

            router.sigkill()  # no shutdown path runs; only the nodes survive

            restarted = RouterProcess(addresses)
            client2 = BridgedService.connect("127.0.0.1", restarted.port)
            stats = client2.stats()
            assert stats.cluster["recovered_queries"] >= len(old_ids)
            # 100% of acked queries are recoverable with their exact tuples
            recovered = client2.request(left.query_id)
            assert recovered.status is QueryStatus.ANSWERED
            assert sorted(recovered.result(timeout=5.0).all_tuples()) == answered_tuples
            for handle in ghosts:
                assert client2.request(handle.query_id).status is QueryStatus.PENDING
            # no id collisions after the crash
            fresh = client2.submit(
                relation_pair_sql("new", "never", relations[0]), owner="new"
            )
            assert router_id_number(fresh.query_id) > highest_old
            # recovered queries still coordinate end to end
            partner = client2.submit(
                relation_pair_sql("never", "g0", relations[0]), owner="never"
            )
            assert partner.result(timeout=10.0) is not None
            assert wait_until(
                lambda: client2.request(ghosts[0].query_id).status
                is QueryStatus.ANSWERED
            )
        finally:
            for closing in (client, client2):
                if closing is not None:
                    try:
                        closing.close()
                    except Exception:
                        pass
            router.terminate()
            if restarted is not None:
                restarted.terminate()
