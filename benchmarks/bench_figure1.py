"""E1 — Figure 1: mutual constraint satisfaction between two entangled queries.

Measures the end-to-end cost of the paper's worked example: compiling,
registering and jointly answering Kramer's and Jerry's queries against the
four-flight database of Figure 1(a).  The paper reports no absolute numbers;
the reproduced "shape" is that the pair coordinates in well under a
millisecond-to-few-milliseconds on commodity hardware, i.e. interactive.

Set ``BENCH_FIGURE1_JSON=/path/out.json`` to dump the timings for the
bench-trajectory artifact.
"""

from __future__ import annotations

import json
import os

from conftest import (
    JERRY_SQL,
    KRAMER_SQL,
    benchmark_mean_ms,
    figure1_system,
    timed_target,
)

_RESULTS: dict = {"experiment": "bench_figure1"}


def maybe_dump_json() -> None:
    path = os.environ.get("BENCH_FIGURE1_JSON")
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(_RESULTS, handle, indent=2, sort_keys=True)


def run_pair(system):
    kramer = system.submit_entangled(KRAMER_SQL, owner="Kramer")
    jerry = system.submit_entangled(JERRY_SQL, owner="Jerry")
    assert kramer.is_answered and jerry.is_answered
    return system.answers("Reservation")


def test_figure1_pair_coordination(benchmark, report):
    """Submit and jointly answer the Kramer/Jerry pair (fresh system per round)."""

    def setup():
        return (figure1_system(),), {}

    reservations = benchmark.pedantic(
        timed_target(benchmark, run_pair), setup=setup, rounds=30, iterations=1
    )
    assert len(reservations) == 2
    chosen = {fno for _traveler, fno in reservations}
    assert len(chosen) == 1 and chosen.pop() in (122, 123, 134)
    _RESULTS["pair_coordination_ms"] = round(benchmark_mean_ms(benchmark), 3)
    maybe_dump_json()
    report(
        reservation_tuples=2,
        same_flight=True,
        flights_considered=3,
    )


def test_figure1_compile_only(benchmark, report):
    """Cost of the query compiler alone (SQL text → internal representation)."""
    from repro.core.compiler import compile_entangled

    query = benchmark(
        timed_target(benchmark, lambda: compile_entangled(KRAMER_SQL, owner="Kramer"))
    )
    assert query.heads[0].relation == "Reservation"
    _RESULTS["compile_ms"] = round(benchmark_mean_ms(benchmark), 3)
    maybe_dump_json()
    report(heads=len(query.heads), domains=len(query.domains), constraints=len(query.answer_atoms))


def test_figure1_first_query_waits(benchmark, report):
    """Registering a query whose partner has not arrived (it must stay pending)."""

    def register(system):
        request = system.submit_entangled(KRAMER_SQL, owner="Kramer")
        assert not request.is_answered
        return request

    def setup():
        return (figure1_system(),), {}

    benchmark.pedantic(timed_target(benchmark, register), setup=setup, rounds=30, iterations=1)
    _RESULTS["first_query_register_ms"] = round(benchmark_mean_ms(benchmark), 3)
    maybe_dump_json()
    report(outcome="pending", pool_size_after=1)
