"""Per-layer metrics from the recorded spans and the public stats() counters.

A layer's *self time* is its span's duration minus the time its direct child
spans cover (children run on the same thread, nested inside the parent).
Every metric is reported for every workload; a layer a workload bypasses
reports 0, which is itself the prediction for that workload.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Iterable

from common import RunResult, percentile
from tracing import ATTR, END, ID, NAME, PARENT, START

MATCH_SPANS = ("matching.find_group", "matching.enumerate_groups")

#: name -> unit, in report order.
METRICS = {
    "sqlparser.tokenize_ms": "ms",
    "sqlparser.parse_ms": "ms",
    "compiler.compile_ms": "ms",
    "safety.check_ms": "ms",
    "coordinator.submit_self_ms": "ms",
    "coordinator.retry_sweeps": "count",
    "matching.find_group_ms": "ms",
    "matching.attempts_per_query": "1",
    "matching.success_ratio": "1",
    "matching.candidates_per_probe": "1",
    "matching.unifications_per_attempt": "1",
    "matchplan.plan_hit_ratio": "1",
    "relalg.run_plan_ms": "ms",
    "relalg.domain_queries_per_attempt": "1",
    "relalg.execute_ms": "ms",
    "storage.update_where_ms": "ms",
    "storage.rows_scanned_per_update": "1",
    "storage.pending_table_rows": "count",
    "executor.execute_ms": "ms",
    "executor.failures": "count",
    "durability.append_ms": "ms",
    "durability.wal_appends": "count",
    "durability.fsync_ms": "ms",
    "durability.fsyncs": "count",
    "durability.wal_bytes_per_query": "B",
    "durability.snapshot_ms": "ms",
    "durability.snapshots": "count",
    "durability.replay_ms": "ms",
    "durability.recovery_s": "s",
    "tiering.evictions": "count",
    "tiering.page_ins": "count",
    "tiering.page_in_ms": "ms",
    "tiering.peak_hot": "count",
    "backends.put_ms": "ms",
    "backends.get_ms": "ms",
    "codec.encode_ms": "ms",
    "codec.decode_ms": "ms",
    "codec.bytes_per_query": "B",
    "aio.server_submit_ms": "ms",
    "service.wire_ms": "ms",
    "aio.rejected_backpressure": "count",
    "loadgen.late_p99_ms": "ms",
    "trace.overhead_frac": "1",
}


class SpanIndex:
    """Spans of one process with parent links, self times and ancestry."""

    def __init__(self, spans: Iterable[tuple]) -> None:
        self.spans = list(spans)
        self.by_id = {span[ID]: span for span in self.spans}
        covered: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span[PARENT]:
                covered[span[PARENT]] += span[END] - span[START]
        self.self_time = {
            span[ID]: span[END] - span[START] - covered.get(span[ID], 0.0) for span in self.spans
        }

    def named(self, *names: str) -> list[tuple]:
        return [span for span in self.spans if span[NAME] in names]

    def under(self, span: tuple, names: tuple[str, ...]) -> bool:
        parent = self.by_id.get(span[PARENT])
        while parent is not None:
            if parent[NAME] in names:
                return True
            parent = self.by_id.get(parent[PARENT])
        return False


def _ms(seconds: float) -> float:
    return 1000.0 * seconds


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def per_layer(workload: str, result: RunResult) -> tuple[dict[str, float], list[str]]:
    indexes = [SpanIndex(spans) for spans in result.spans]
    counters = result.counters
    submissions = max(1, result.submissions)
    attempts = counters.get("match_attempts", 0)
    out: dict[str, float] = {name: 0.0 for name in METRICS}
    problems: list[str] = []

    def select(names: tuple[str, ...], under: tuple[str, ...], outside: tuple[str, ...]):
        for index in indexes:
            for span in index.named(*names):
                if under and not index.under(span, under):
                    continue
                if outside and index.under(span, outside):
                    continue
                yield index, span

    def total_self(*names: str, under: tuple[str, ...] = (), outside: tuple[str, ...] = ()) -> float:
        return sum(index.self_time[span[ID]] for index, span in select(names, under, outside))

    def spans(*names: str, under: tuple[str, ...] = (), outside: tuple[str, ...] = ()) -> list[tuple]:
        return [span for _index, span in select(names, under, outside)]

    front = ("compiler.compile",)
    out["sqlparser.tokenize_ms"] = _ms(total_self("sqlparser.tokenize", under=front)) / submissions
    out["sqlparser.parse_ms"] = _ms(total_self("sqlparser.parse", under=front)) / submissions
    out["compiler.compile_ms"] = _ms(total_self("compiler.compile")) / submissions
    out["safety.check_ms"] = _ms(total_self("safety.check")) / submissions
    out["coordinator.submit_self_ms"] = (
        _ms(total_self("coordinator.submit", "coordinator.submit_many")) / submissions
    )
    sweeps = spans("coordinator.retry_sweep")
    out["coordinator.retry_sweeps"] = float(len(sweeps))

    find = spans("matching.find_group")
    out["matching.find_group_ms"] = (
        _ms(total_self(*MATCH_SPANS)) / len(find) if find else 0.0
    )
    out["matching.attempts_per_query"] = attempts / submissions
    matched = counters.get("groups_matched", 0)
    if attempts:
        out["matching.success_ratio"] = matched / attempts
    if matched:
        # The public work counters only accumulate for attempts that found a
        # group, so this is a mean over successful attempts.
        out["matching.unifications_per_attempt"] = counters.get("unification_attempts", 0) / matched
    probes = spans("matchplan.candidates")
    out["matching.candidates_per_probe"] = _mean([span[ATTR] for span in probes])
    before, after = result.stats.get("matching_before", {}), result.stats.get("matching", {})
    hits = after.get("plan_cache_hits", 0) - before.get("plan_cache_hits", 0)
    compiled = after.get("plans_compiled", 0) - before.get("plans_compiled", 0)
    out["matchplan.plan_hit_ratio"] = hits / (hits + compiled) if hits + compiled else 0.0

    grounding = spans("relalg.execute", under=MATCH_SPANS)
    if find:
        out["relalg.domain_queries_per_attempt"] = len(grounding) / len(find)
    out["relalg.run_plan_ms"] = (
        _ms(sum(span[END] - span[START] for span in grounding)) / attempts if attempts else 0.0
    )
    direct = spans("relalg.execute", outside=MATCH_SPANS)
    out["relalg.execute_ms"] = _mean([_ms(span[END] - span[START]) for span in direct])

    updates = spans("storage.update_where")
    out["storage.update_where_ms"] = _mean([_ms(span[END] - span[START]) for span in updates])
    out["storage.rows_scanned_per_update"] = _mean([span[ATTR][1] for span in updates])
    pending_rows = [span[ATTR][1] for span in updates if span[ATTR][0] == "_pending_queries"]
    out["storage.pending_table_rows"] = float(max(pending_rows, default=0))

    executions = spans("executor.execute")
    out["executor.execute_ms"] = (
        _ms(total_self("executor.execute")) / len(executions) if executions else 0.0
    )
    out["executor.failures"] = float(counters.get("executions_failed", 0))

    durability = result.stats.get("durability_delta", {})
    appends = spans("durability.append")
    out["durability.append_ms"] = (
        _ms(total_self("durability.append")) / len(appends) if appends else 0.0
    )
    out["durability.wal_appends"] = float(durability.get("wal_records_appended", 0))
    fsyncs = spans("durability.fsync")
    out["durability.fsync_ms"] = _mean([_ms(span[END] - span[START]) for span in fsyncs])
    out["durability.fsyncs"] = float(durability.get("wal_fsyncs", 0))
    wal_frames = spans("codec.encode", under=("durability.append",))
    out["durability.wal_bytes_per_query"] = sum(span[ATTR] for span in wal_frames) / submissions
    snapshots = spans("durability.snapshot")
    out["durability.snapshot_ms"] = _mean([_ms(span[END] - span[START]) for span in snapshots])
    out["durability.snapshots"] = float(durability.get("snapshots_taken", 0))
    recovers = SpanIndex(result.recovery_spans).named("durability.recover")
    out["durability.replay_ms"] = _mean([_ms(span[END] - span[START]) for span in recovers])

    tiering = result.stats.get("tiering_delta", {})
    out["tiering.evictions"] = float(tiering.get("evictions", 0))
    out["tiering.page_ins"] = float(tiering.get("page_ins", 0))
    if tiering.get("page_ins"):
        out["tiering.page_in_ms"] = _ms(tiering.get("page_in_seconds", 0.0)) / tiering["page_ins"]
    out["tiering.peak_hot"] = float(result.stats.get("tiering", {}).get("peak_hot", 0))
    out["backends.put_ms"] = _mean([_ms(s[END] - s[START]) for s in spans("backends.put")])
    out["backends.get_ms"] = _mean([_ms(s[END] - s[START]) for s in spans("backends.get")])

    wal = ("durability.append",)
    out["codec.encode_ms"] = _ms(total_self("codec.encode", outside=wal)) / submissions
    out["codec.decode_ms"] = _ms(total_self("codec.decode")) / submissions
    transport = result.stats.get("transport_delta", {})
    out["codec.bytes_per_query"] = (
        transport.get("bytes_in", 0) + transport.get("bytes_out", 0)
    ) / submissions
    server = spans("aio.server_submit")
    out["aio.server_submit_ms"] = _mean([_ms(span[END] - span[START]) for span in server])
    round_trips = result.stats.get("client_submit_by_id", {})
    wire = [
        _ms(round_trips[span[ATTR]] - (span[END] - span[START]))
        for span in server
        if span[ATTR] in round_trips
    ]
    out["service.wire_ms"] = statistics.median(wire) if wire else 0.0
    out["aio.rejected_backpressure"] = float(transport.get("rejected_backpressure", 0))
    if result.late:
        out["loadgen.late_p99_ms"] = _ms(percentile(result.late, 0.99))

    # -- the layer checks each workload owes -------------------------------------------------
    parses = len(spans("sqlparser.parse", under=front))
    compiles = len(spans("compiler.compile"))
    if workload == "pairs_sql":
        if parses != result.submissions:
            problems.append(f"pairs_sql: {parses} parse calls for {result.submissions} submissions")
    if workload == "crowded_pool":
        if compiles:
            problems.append(f"crowded_pool: {compiles} compile calls in the timed phase")
        if not sweeps:
            problems.append("crowded_pool: no retry sweep ran")
        if out["relalg.domain_queries_per_attempt"] <= 1.0:
            problems.append("crowded_pool: not more than one domain query per match attempt")
    return out, problems
