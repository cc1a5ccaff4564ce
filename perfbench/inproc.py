"""The two in-process workloads: ``pairs_sql`` and ``crowded_pool``.

One closed-loop caller issues the generated operations one after another
against an :class:`~repro.InProcessService` wrapped by the travel site's
middle tier (:class:`~repro.apps.travel.service.TravelService`, whose side
effect hooks decrement seats and rooms for every booking).
"""

from __future__ import annotations

import time
from typing import Any, Optional

from checks import FLIGHTS_SQL, HOTELS_SQL, Outcome, check_outputs, final_tables, tuples_of
from common import RunResult, delta, finals, peak_rss_mb
from gen import Workload
from speed import WINDOW, Speed
from tracing import Tracer, install

#: Set-ups per run (the median is reported): pairs_sql's set-up is a few
#: milliseconds, so it takes more of them for a steady median.
SETUPS = {"pairs_sql": 9, "crowded_pool": 5}
#: crowded_pool compiles arrivals in chunks of this many submissions, with
#: the clock stopped: the program receives IR, so compilation is input
#: generation, not measured work.
COMPILE_CHUNK = 200
#: The standing pool is parked in batches of this many queries, as the
#: remote workload does, so set-up is timed in steps of ~0.1 s.
BATCH = 100
#: An operation at least this long (a retry sweep) may span a change of the
#: host's speed: it is scaled by the mean of the scales before and after it.
LONG_OP = 0.05


def _build(workload: Workload, standing: list, speed: Speed) -> tuple[Any, dict, float]:
    """A fresh system with the standing pool parked, and its set-up time."""
    from repro import InProcessService, SubmitRequest, SystemConfig
    from repro.apps.travel.service import TravelService

    def start() -> Any:
        config = SystemConfig(
            seed=workload.seed, auto_retry_on_data_change=workload.name == "crowded_pool"
        )
        service = InProcessService(config=config)
        service.execute_script(workload.dataset.script())
        TravelService(service, enforce_friendship=False)
        return service

    service, setup_s = speed.timed(start)
    handles: dict[str, Any] = {}
    for first in range(0, len(standing), BATCH):
        requests = [SubmitRequest(query=query) for query in standing[first:first + BATCH]]
        batch, step_s = speed.timed(lambda: service.submit_many(requests))
        setup_s += step_s
        for (key, _sql, _group), handle in zip(workload.standing[first:], batch):
            handles[key] = handle
    return service, handles, setup_s


def run(workload: Workload, seconds: float, tracer: Optional[Tracer]) -> RunResult:
    from repro.core.compiler import compile_entangled
    from repro.errors import YoutopiaError

    precompiled = workload.name == "crowded_pool"
    result = RunResult()
    speed = Speed()
    standing = [compile_entangled(sql) for _key, sql, _group in workload.standing]

    service = handles = None
    for _ in range(SETUPS[workload.name]):
        if service is not None:
            service.close()
        speed.sample(WINDOW)
        service, handles, setup_s = _build(workload, standing, speed)
        result.setup_s.append(setup_s)
    assert service is not None and handles is not None

    from repro import SubmitRequest

    ops = workload.ops
    compiled: dict[int, Any] = {}
    compiled_upto = 0

    def compile_ahead(position: int) -> None:
        nonlocal compiled_upto
        count = 0
        index = max(position, compiled_upto)
        while index < len(ops) and count < COMPILE_CHUNK:
            if ops[index][0] == "submit":
                compiled[index] = compile_entangled(ops[index][2])
                count += 1
            index += 1
        compiled_upto = index

    if precompiled:
        compile_ahead(0)
    if tracer is not None:
        install(tracer)

    waiting: dict[str, float] = {}
    unblocked: set[str] = set()
    outcome = Outcome()
    before = service.stats()
    submissions = 0
    active = 0.0
    position = 0
    for position, op in enumerate(ops):
        if active >= seconds:
            break
        if precompiled and op[0] == "submit" and position not in compiled:
            mark = len(tracer.spans) if tracer is not None else 0
            compile_ahead(position)
            if tracer is not None:
                del tracer.spans[mark:]
        if tracer is not None:
            tracer.request = position
        kind = op[0]
        speed.sample()
        scale = speed.scale()
        family: Optional[list[float]] = None
        started = time.perf_counter()
        result.attempted += 1
        try:
            if kind == "submit":
                _, key, sql, group = op
                payload = SubmitRequest(query=compiled.pop(position)) if precompiled else sql
                # A rejected submission raises, and counts as failed below.
                handles[key] = service.submit(payload)
                latency, family = time.perf_counter() - started, result.submit
                submissions += 1
                # Blocked pairs complete on a write, not on an arrival.
                if (
                    group is not None
                    and workload.constraints[group][2] is None
                    and all(member in handles for member in workload.groups[group])
                ):
                    waiting[group] = started
            elif kind == "read":
                service.query(op[1])
                latency, family = time.perf_counter() - started, result.read
            elif kind == "answers":
                service.answers(op[1])
                latency, family = time.perf_counter() - started, result.read
            elif kind == "write":
                service.execute(op[1])
                latency, family = time.perf_counter() - started, result.write
                if op[2] is not None:
                    outcome.restocked[op[2]] += 1
                if op[3] is not None:
                    unblocked.add(op[3])
            elif kind == "cancel":
                service.cancel(handles[op[1]].query_id)
                outcome.cancelled.add(op[1])
        except YoutopiaError as exc:
            result.failed += 1
            result.errors.append(f"{kind}: {exc}")
        done = [g for g in waiting if all(handles[m].done() for m in workload.groups[g])]
        ended = time.perf_counter()
        if ended - started >= LONG_OP:
            speed.sample(WINDOW)
            scale = (scale + speed.scale()) / 2
        if family is not None:
            family.append(latency * scale)
        for group in done:
            result.answer.append((ended - waiting.pop(group)) * scale)
        taken = ended - started
        active += taken
        result.elapsed += taken * scale
    else:
        raise RuntimeError(f"{workload.name}: generated operations ran out before the deadline")
    result.speed = speed.probes
    after = service.stats()
    if tracer is not None:
        tracer.request = None
        tracer.uninstall()

    result.counters = delta(dict(after.counters), dict(before.counters))
    result.finals = finals(result.counters)
    result.submissions = submissions
    result.stats = {"matching_before": dict(before.matching), "matching": dict(after.matching)}
    result.peak_rss_mb = peak_rss_mb("self")

    # -- output checks (untimed) -----------------------------------------------------------
    service.retry_pending()  # lets a sweep follow the final write
    outcome.completable = {
        group for group, (_d, _c, airline) in workload.constraints.items()
        if airline is None or group in unblocked
    }
    for key, handle in handles.items():
        outcome.members[key] = (handle.status.value, tuples_of(handle.answer))
    relations = ["Reservation"] + (["HotelReservation"] if workload.name == "pairs_sql" else [])
    outcome.relations = {name: service.answers(name) for name in relations}
    outcome.flights, outcome.rooms = final_tables(
        service.query(FLIGHTS_SQL), service.query(HOTELS_SQL)
    )
    result.problems = check_outputs(workload, outcome)

    # -- layer checks from the public counters -----------------------------------------------
    tiering, durability = after.tiering, after.durability
    if tiering.get("page_ins", 0) or durability.get("wal_records_appended", 0):
        result.problems.append("an in-process workload touched the cold tier or the WAL")
    if precompiled:
        sweep_attempts = result.counters["match_attempts"] - submissions
        if sweep_attempts <= 0:
            result.problems.append("crowded_pool ran no data-change retry sweep")
    service.close()
    return result
