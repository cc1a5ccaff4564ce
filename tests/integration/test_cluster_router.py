"""The cluster router gateway: conformance plus routing-specific behaviour.

Transport transparency is the bar: a client connected to a
:class:`~repro.cluster.router.ClusterRouter` fronting a two-node cluster must
be indistinguishable from one connected to a single server, so the same
scenario classes from ``tests/service_conformance.py`` run here unmodified.
On top of that the router has behaviour a single server cannot: fan-out of
one batch across member nodes, co-location of cross-node entangled queries on
the residence node, relocation of stranded partners, and cluster-wide
duplicate detection.
"""

from __future__ import annotations

import asyncio
import dataclasses
import itertools

import pytest

from service_conformance import (
    SETUP,
    BatchConformance,
    ConcurrencyConformance,
    IntrospectionConformance,
    PlainQueryConformance,
    PolicyConformance,
    SubmissionConformance,
    fresh_owner,
    pair_sql,
    unmatchable_sql,
    wait_until,
)
from repro.core.compiler import compile_entangled
from repro.core.coordinator import QueryStatus
from repro.errors import EntanglementError
from repro.service import SubmitRequest, SystemConfig
from repro.service.aio import BackgroundAsyncServer, BridgedService
from repro.cluster import (
    BackgroundClusterRouter,
    NodeSpec,
    PlacementMap,
    extract_signature,
)


def start_cluster(node_count: int = 2):
    """``node_count`` live servers, a router over them, and one client."""
    nodes = []
    for _ in range(node_count):
        server = BackgroundAsyncServer(config=SystemConfig(seed=0))
        server.start()
        nodes.append(server)
    placement = PlacementMap(
        [NodeSpec(index, *server.address) for index, server in enumerate(nodes)]
    )
    router = BackgroundClusterRouter(placement)
    router.start()
    client = BridgedService.connect(*router.address)
    return nodes, placement, router, client


@pytest.fixture
def cluster():
    nodes, placement, router, client = start_cluster(node_count=2)
    client.execute_script(SETUP)
    client.declare_answer_relation("Reservation", ["traveler", "fno"], ["TEXT", "INTEGER"])
    yield nodes, placement, router, client
    client.close()
    router.stop()
    for server in nodes:
        server.stop()


@pytest.fixture
def service(cluster):
    _nodes, _placement, _router, client = cluster
    return client


# -- the transport-agnostic suite, cluster flavour --------------------------------------------


class TestClusterSubmission(SubmissionConformance):
    pass


class TestClusterBatch(BatchConformance):
    pass


class TestClusterPlainQuery(PlainQueryConformance):
    pass


class TestClusterIntrospection(IntrospectionConformance):
    pass


class TestClusterConcurrency(ConcurrencyConformance):
    pass


class TestClusterPolicyConformance(PolicyConformance):
    pass


# -- routing behaviour only a cluster has -----------------------------------------------------


def relation_pair_sql(owner: str, partner: str, relation: str) -> str:
    return (
        f"SELECT '{owner}', fno INTO ANSWER {relation} "
        "WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') "
        f"AND ('{partner}', fno) IN ANSWER {relation} CHOOSE 1"
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
def three_node_cluster():
    nodes, placement, router, client = start_cluster(node_count=3)
    client.execute_script(SETUP)
    relations = relations_per_node(placement)
    for relation in relations:
        client.declare_answer_relation(relation, ["traveler", "fno"], ["TEXT", "INTEGER"])
    yield nodes, placement, router, client, relations
    client.close()
    router.stop()
    for server in nodes:
        server.stop()


class TestClusterRouting:
    def test_batch_fans_out_across_three_nodes(self, three_node_cluster):
        nodes, placement, _router, client, relations = three_node_cluster
        handles = client.submit_many(
            [relation_pair_sql("a", "b", relation) for relation in relations]
        )
        partners = client.submit_many(
            [relation_pair_sql("b", "a", relation) for relation in relations]
        )
        for handle in handles + partners:
            handle.result(timeout=10.0)
        # every node coordinated its own relation's pair
        for server in nodes:
            node_stats = server.service.stats()
            assert node_stats["queries_registered"] == 2
            assert node_stats["groups_matched"] == 1
        stats = client.stats()
        assert stats.cluster["routed_submits"] == 6
        assert stats.cluster["cross_node_submits"] == 0
        assert stats.cluster["relocations"] == 0

    def test_router_assigns_cluster_unique_query_ids(self, three_node_cluster):
        _nodes, _placement, _router, client, relations = three_node_cluster
        handles = client.submit_many(
            [relation_pair_sql("solo", "ghost", relation) for relation in relations]
        )
        ids = [handle.query_id for handle in handles]
        assert len(set(ids)) == len(ids)
        # every id resolves through the router, whichever node holds it
        for query_id in ids:
            assert client.request(query_id).status is QueryStatus.PENDING

    def test_cross_node_pair_coordinates_on_residence_node(self, three_node_cluster):
        nodes, placement, _router, client, relations = three_node_cluster
        rel_a, rel_b = relations[1], relations[2]  # homed on two non-residence nodes
        cross = (
            f"SELECT 'left', fno INTO ANSWER {rel_a} "
            "WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') "
            f"AND ('right', fno) IN ANSWER {rel_b} CHOOSE 1"
        )
        mirror = (
            f"SELECT 'right', fno INTO ANSWER {rel_b} "
            "WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') "
            f"AND ('left', fno) IN ANSWER {rel_a} CHOOSE 1"
        )
        signature = extract_signature(cross)
        assert placement.node_for_signature(signature) is None
        residence = placement.residence_node_for(signature)
        left = client.submit(cross, owner="left")
        right = client.submit(mirror, owner="right")
        left.result(timeout=10.0)
        assert right.is_answered
        # both lived (and matched) on the signature's hashed residence node,
        # nowhere else
        assert nodes[residence].service.stats()["queries_registered"] == 2
        assert nodes[residence].service.stats()["groups_matched"] == 1
        for index, server in enumerate(nodes):
            if index != residence:
                assert server.service.stats()["queries_registered"] == 0
        stats = client.stats()
        assert stats.cluster["cross_node_submits"] == 2

    def test_hot_relation_strands_relocate_to_residence(self, three_node_cluster):
        nodes, placement, _router, client, relations = three_node_cluster
        # pick a cross-node pair whose hashed residence is NOT the stranded
        # query's home node, so heating its relation forces a relocation
        off = other = None
        for left, right in itertools.permutations(relations, 2):
            signature = frozenset({left, right})
            if placement.node_for_signature(signature) is not None:
                continue
            if placement.residence_node_for(signature) != placement.node_for_relation(left):
                off, other = left, right
                break
        assert off is not None and other is not None
        home = placement.node_for_relation(off)
        residence = placement.residence_node_for(frozenset({off, other}))
        # 1. a single-relation query lands on its home node and waits there
        stranded = client.submit(relation_pair_sql("solo", "multi", off), owner="solo")
        assert nodes[home].service.stats()["queries_registered"] == 1
        # 2. a cross-node query heats `off` -> the stranded query relocates
        cross = (
            f"SELECT 'multi', fno INTO ANSWER {other} "
            "WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') "
            f"AND ('solo', fno) IN ANSWER {off} CHOOSE 1"
        )
        client.submit(cross, owner="multi")
        stats = client.stats()
        assert stats.cluster["relocations"] == 1
        assert set(stats.cluster["hot_relations"]) >= {off, other}
        assert stats.cluster["hot_nodes"][off] == residence
        assert stats.cluster["nodes"][residence]["pending"] == 2
        # 3. the partner completing the stranded pair routes to residence too
        #    (its relation is hot) and the pair matches there
        partner = client.submit(relation_pair_sql("multi", "solo", off), owner="m2")
        stranded.result(timeout=10.0)
        assert partner.is_answered
        assert nodes[residence].service.stats()["groups_matched"] == 1

    def test_duplicate_ids_rejected_across_nodes(self, three_node_cluster):
        _nodes, _placement, _router, client, relations = three_node_cluster
        # two pre-compiled queries homed on *different* nodes, same query id
        first = compile_entangled(
            relation_pair_sql("da", "ghost", relations[1]), owner="da"
        )
        second = compile_entangled(
            relation_pair_sql("db", "ghost", relations[2]), owner="db"
        )
        second = dataclasses.replace(second, query_id=first.query_id)
        client.submit(first)
        with pytest.raises(EntanglementError, match="already registered"):
            client.submit(second)
        # in a batch the duplicate is rejected without aborting its siblings
        third = compile_entangled(
            relation_pair_sql("dc", "ghost", relations[0]), owner="dc"
        )
        third = dataclasses.replace(third, query_id=first.query_id)
        fresh = compile_entangled(
            relation_pair_sql("dd", "ghost", relations[2]), owner="dd"
        )
        rejected, accepted = client.submit_many([third, fresh])
        assert rejected.status is QueryStatus.REJECTED
        assert "already registered" in (rejected.error or "")
        assert accepted.status is QueryStatus.PENDING
        # the original registration is untouched
        assert client.request(first.query_id).status is QueryStatus.PENDING

    def test_cluster_stats_block_shape(self, three_node_cluster):
        _nodes, placement, _router, client, relations = three_node_cluster
        client.submit(relation_pair_sql("s", "ghost", relations[1]), owner="s")
        stats = client.stats()
        cluster = stats.cluster
        assert cluster["role"] == "router"
        assert cluster["node_count"] == 3
        assert cluster["residence"] == "per-signature"
        assert cluster["unreachable_nodes"] == []
        assert cluster["recovered_queries"] == 0
        assert cluster["resharded_relocations"] == 0
        assert cluster["introspection_gaps"] == 0
        assert len(cluster["nodes"]) == 3
        for node in cluster["nodes"]:
            assert node["reachable"] is True
            assert isinstance(node["shards"], list)
            assert "pending" in node and "wal_last_lsn" in node
        assert cluster["registered_queries"] == 1
        assert sum(node["routed_pending"] for node in cluster["nodes"]) == 1
        assert cluster["failovers"] == 0

    def test_cancel_routes_to_owning_node(self, three_node_cluster):
        nodes, _placement, _router, client, relations = three_node_cluster
        handle = client.submit(relation_pair_sql("c", "ghost", relations[2]), owner="c")
        client.cancel(handle.query_id)
        assert wait_until(handle.cancelled)
        assert nodes[2].service.stats()["queries_cancelled"] == 1

    def test_answers_merge_for_auto_created_relation(self, cluster):
        """A relation auto-created at registration exists on its home node
        only; the router's answers union must skip the nodes that never saw
        it instead of surfacing their 'unknown answer relation' error."""
        _nodes, _placement, _router, client = cluster
        client.submit(relation_pair_sql("Elaine", "Puddy", "AutoRel"), owner="Elaine")
        partner = client.submit(relation_pair_sql("Puddy", "Elaine", "AutoRel"), owner="Puddy")
        assert partner.is_answered
        answers = client.answers("AutoRel")
        assert {owner for owner, _fno in answers} == {"Elaine", "Puddy"}
        # a relation no node knows is still an error, not an empty union
        with pytest.raises(EntanglementError, match="unknown answer relation"):
            client.answers("NoSuchRelation")

    def test_answers_and_stats_merge_past_unreachable_node(self, three_node_cluster):
        """A node down mid-fan-out is a marked gap, not a failed call: the
        reachable members' answers and stats are still served."""
        nodes, placement, _router, client, relations = three_node_cluster
        relation = relations[0]  # homed on node 0
        client.submit(relation_pair_sql("a", "b", relation), owner="a")
        partner = client.submit(relation_pair_sql("b", "a", relation), owner="b")
        partner.result(timeout=10.0)
        victim = 2  # holds neither the pair nor its answers
        nodes[victim].stop()
        answers = client.answers(relation)
        assert {owner for owner, _fno in answers} == {"a", "b"}
        stats = client.stats()
        assert stats.cluster["nodes"][victim]["reachable"] is False
        assert victim in stats.cluster["unreachable_nodes"]
        assert stats.cluster["introspection_gaps"] >= 1

    def test_failed_relocation_keeps_route_and_settles_rejected(self, three_node_cluster):
        """The resubmit RPC failing must not strand the entry on a node that
        never saw it: the route keeps naming the old node and the outcome is
        a terminal rejection — wait and request resolve instead of hanging."""
        nodes, placement, router, client, relations = three_node_cluster
        relation = relations[1]
        home = placement.node_for_relation(relation)
        handle = client.submit(relation_pair_sql("solo", "ghost", relation), owner="solo")
        server = router.server
        entry = server.registry.get(handle.query_id)
        assert entry is not None and entry.node == home
        dead = (home + 1) % len(nodes)
        nodes[dead].stop()
        future = asyncio.run_coroutine_threadsafe(
            server._relocate(entry, dead), router._loop
        )
        future.result(timeout=10.0)
        assert entry.terminal
        assert entry.node == home  # never flipped to the node that failed
        assert entry.relocating_to is None
        state = client.request(handle.query_id)
        assert state.status is QueryStatus.REJECTED
        assert "relocation to node" in (state.error or "")


# -- match-policy config surviving the router fan-out -----------------------------------------


def start_policy_cluster(policies: list[str]):
    """One node per entry in ``policies``, each with that match policy."""
    nodes = []
    for policy in policies:
        server = BackgroundAsyncServer(config=SystemConfig(seed=0, match_policy=policy))
        server.start()
        nodes.append(server)
    placement = PlacementMap(
        [NodeSpec(index, *server.address) for index, server in enumerate(nodes)]
    )
    router = BackgroundClusterRouter(placement)
    router.start()
    client = BridgedService.connect(*router.address)
    client.execute_script(SETUP)
    client.declare_answer_relation("Reservation", ["traveler", "fno"], ["TEXT", "INTEGER"])
    return nodes, placement, router, client


def stop_policy_cluster(nodes, router, client) -> None:
    client.close()
    router.stop()
    for server in nodes:
        server.stop()


class TestClusterPolicy:
    """Per-node policy config must survive the router: aggregated stats name
    the policy, decision counters merge, and submission priority reaches the
    member node that owns the query."""

    def test_uniform_policy_surfaces_through_router_stats(self):
        nodes, _placement, router, client = start_policy_cluster(["min_cost", "min_cost"])
        try:
            left, right = fresh_owner("ka"), fresh_owner("kb")
            client.submit(pair_sql(left, right), owner=left)
            handle = client.submit(pair_sql(right, left), owner=right)
            handle.result(timeout=10.0)
            matching = dict(client.stats().matching)
            assert matching["policy"] == "min_cost"
            assert matching["candidate_limit"] >= 1
            assert matching["decisions"] >= 1
            assert matching["groups_enumerated"] >= matching["decisions"]
        finally:
            stop_policy_cluster(nodes, router, client)

    def test_mixed_policies_are_reported_as_mixed(self):
        nodes, _placement, router, client = start_policy_cluster(["first_match", "fairness"])
        try:
            matching = dict(client.stats().matching)
            assert matching["policy"] == "mixed"
        finally:
            stop_policy_cluster(nodes, router, client)

    def test_priority_survives_fan_out_to_member_node(self):
        nodes, _placement, router, client = start_policy_cluster(["priority", "priority"])
        try:
            owner = fresh_owner("kp")
            handle = client.submit(
                SubmitRequest(sql=unmatchable_sql(owner), owner=owner, priority=9.0)
            )
            # the router's merged pending view carries the wire priority ...
            merged = {query.query_id: query for query in client.pending_queries()}
            assert merged[handle.query_id].priority == 9.0
            # ... and so does the owning member node's own pending pool
            member_views = [
                {query.query_id: query for query in server.service.pending_queries()}
                for server in nodes
            ]
            (owning,) = [view for view in member_views if handle.query_id in view]
            assert owning[handle.query_id].priority == 9.0
        finally:
            stop_policy_cluster(nodes, router, client)
