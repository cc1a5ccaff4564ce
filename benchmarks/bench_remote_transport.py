"""E14 — the network transport vs. the in-process service.

Two experiments on the same 200-query pair workload (100 cross-referencing
pairs over one Flights table):

* **round-trip latency** — one pair at a time: ``submit`` (pending),
  ``submit`` (partner answers the group), push-driven ``result()``.  Reported
  per pair, remote vs. in-process; the delta is the price of two request
  frames plus one push notification.
* **batched throughput** — the whole workload through one ``submit_many``.
  The batch crosses the wire as a *single* request frame, so the transport
  cost amortises over 200 queries and throughput must stay **within 2× of
  in-process** (the acceptance gate below; matching work dominates both).
  The gate was originally declared at 5×, but the measured slowdown has sat
  around 1.05× since the batch path landed — the assertion is calibrated to
  2× so a real regression (say, a per-item frame creeping back in) trips it,
  and the JSON artifact records the original target for the trajectory.

Set ``BENCH_REMOTE_JSON=/path/out.json`` to dump the raw numbers (the CI
remote-conformance job uploads this as an artifact).
"""

from __future__ import annotations

import json
import os
import time

from repro.service import InProcessService, SubmitRequest, SystemConfig
from repro.service.aio import BackgroundAsyncServer, BridgedService

NUM_PAIRS = 100
LATENCY_PAIRS = 30

SETUP = (
    "CREATE TABLE Flights (fno INT PRIMARY KEY, dest TEXT);"
    + "INSERT INTO Flights VALUES "
    + ", ".join(f"({100 + index}, 'Paris')" for index in range(40))
    + ";"
)


def pair_requests(num_pairs: int, prefix: str) -> list[SubmitRequest]:
    """``2 * num_pairs`` submissions forming cross-referencing pairs."""

    def booking(owner: str, partner: str) -> SubmitRequest:
        return SubmitRequest(
            owner=owner,
            sql=(
                f"SELECT '{owner}', fno INTO ANSWER Reservation "
                "WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') "
                f"AND ('{partner}', fno) IN ANSWER Reservation CHOOSE 1"
            ),
        )

    requests: list[SubmitRequest] = []
    for index in range(num_pairs):
        left, right = f"{prefix}-a{index}", f"{prefix}-b{index}"
        requests.extend((booking(left, right), booking(right, left)))
    return requests


def fresh_inprocess() -> InProcessService:
    service = InProcessService(config=SystemConfig(seed=0))
    service.execute_script(SETUP)
    service.declare_answer_relation("Reservation", ["traveler", "fno"], ["TEXT", "INTEGER"])
    return service


def fresh_remote() -> tuple[BackgroundAsyncServer, BridgedService]:
    server = BackgroundAsyncServer(config=SystemConfig(seed=0))
    host, port = server.start()
    client = BridgedService.connect(host, port)
    client.execute_script(SETUP)
    client.declare_answer_relation("Reservation", ["traveler", "fno"], ["TEXT", "INTEGER"])
    return server, client


def timed_batch(service, requests) -> tuple[float, int]:
    """Submit the whole workload in one batch; (elapsed seconds, answered)."""
    started = time.perf_counter()
    handles = service.submit_many(requests)
    elapsed = time.perf_counter() - started
    answered = sum(1 for handle in handles if handle.is_answered)
    return elapsed, answered


def timed_pair_roundtrips(service, requests) -> list[float]:
    """Per-pair latency of submit + partner submit + push-driven result()."""
    latencies: list[float] = []
    for index in range(0, len(requests), 2):
        started = time.perf_counter()
        first = service.submit(requests[index])
        service.submit(requests[index + 1])
        first.result(timeout=10.0)
        latencies.append(time.perf_counter() - started)
    return latencies


def _dump_json(payload: dict) -> None:
    path = os.environ.get("BENCH_REMOTE_JSON")
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)


def test_batched_submit_many_remote_within_2x_of_inprocess(report):
    """The acceptance experiment: one frame per batch keeps remote ~par."""
    inprocess = fresh_inprocess()
    inprocess_elapsed, inprocess_answered = timed_batch(
        inprocess, pair_requests(NUM_PAIRS, "ip")
    )
    inprocess_answers = sorted(inprocess.answers("Reservation"))

    server, client = fresh_remote()
    try:
        frames_before = client.aservice.frames_sent
        remote_elapsed, remote_answered = timed_batch(client, pair_requests(NUM_PAIRS, "ip"))
        frames_used = client.aservice.frames_sent - frames_before
        remote_answers = sorted(client.answers("Reservation"))
    finally:
        client.close()
        server.stop()

    assert inprocess_answered == remote_answered == 2 * NUM_PAIRS
    assert frames_used == 1  # the whole batch crossed the wire in one frame
    # transport transparency: identical pairings booked on both paths
    assert remote_answers == inprocess_answers

    slowdown = remote_elapsed / inprocess_elapsed
    throughput_inprocess = 2 * NUM_PAIRS / inprocess_elapsed
    throughput_remote = 2 * NUM_PAIRS / remote_elapsed
    report(
        queries=2 * NUM_PAIRS,
        inprocess_s=round(inprocess_elapsed, 4),
        remote_s=round(remote_elapsed, 4),
        slowdown=round(slowdown, 2),
        inprocess_qps=round(throughput_inprocess, 1),
        remote_qps=round(throughput_remote, 1),
    )
    _dump_json(
        {
            "experiment": "batched_submit_many",
            "queries": 2 * NUM_PAIRS,
            "inprocess_seconds": inprocess_elapsed,
            "remote_seconds": remote_elapsed,
            "slowdown": slowdown,
            "inprocess_qps": throughput_inprocess,
            "remote_qps": throughput_remote,
            "frames_for_batch": frames_used,
            "gate_slowdown": 2.0,
            "gate_note": (
                "originally gated at 5x; measured ~1.05x since the single-frame "
                "batch path landed, so the gate is recalibrated to 2x"
            ),
        }
    )
    # the acceptance gate: batched remote throughput within 2x of in-process
    # (recalibrated from the original 5x target, which the measured ~1.05x
    # slowdown made vacuous — see the module docstring)
    assert slowdown <= 2.0, f"remote batch {slowdown:.2f}x slower than in-process"


def test_single_pair_roundtrip_latency(report):
    """Submit/wait latency per coordinated pair, remote vs. in-process."""
    inprocess = fresh_inprocess()
    inprocess_latencies = timed_pair_roundtrips(
        inprocess, pair_requests(LATENCY_PAIRS, "lat")
    )

    server, client = fresh_remote()
    try:
        remote_latencies = timed_pair_roundtrips(client, pair_requests(LATENCY_PAIRS, "lat"))
    finally:
        client.close()
        server.stop()

    def median(values: list[float]) -> float:
        ordered = sorted(values)
        return ordered[len(ordered) // 2]

    inprocess_ms = median(inprocess_latencies) * 1000
    remote_ms = median(remote_latencies) * 1000
    report(
        pairs=LATENCY_PAIRS,
        inprocess_median_ms=round(inprocess_ms, 3),
        remote_median_ms=round(remote_ms, 3),
        overhead_ms=round(remote_ms - inprocess_ms, 3),
    )
    # sanity only — the absolute numbers are environment-dependent
    assert remote_ms < 1000, "a localhost round trip should be far under a second"
