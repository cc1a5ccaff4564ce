"""Result record and small measurement helpers shared by the workload runners."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Optional


@dataclass
class RunResult:
    """What one workload run measured.

    Latencies and set-up times are in reference seconds: raw durations
    scaled by the speed probes taken around them (see ``speed.py``).  So is
    ``elapsed`` in the closed loop; the open loop's is the wall-clock length
    of its fixed schedule.
    """

    setup_s: list[float] = field(default_factory=list)
    submit: list[float] = field(default_factory=list)
    answer: list[float] = field(default_factory=list)
    write: list[float] = field(default_factory=list)
    read: list[float] = field(default_factory=list)
    #: open loop only: how late each operation was sent after its due time
    late: list[float] = field(default_factory=list)
    elapsed: float = 0.0
    submissions: int = 0
    #: queries that reached a final state during the timed phase
    finals: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    recovery_s: Optional[float] = None
    #: deltas of the public coordination counters over the timed phase
    counters: dict[str, int] = field(default_factory=dict)
    #: the other public stats() blocks at the end of the timed phase
    stats: dict[str, Any] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    #: per-process span lists of the timed phase (traced runs only)
    spans: list[list[tuple]] = field(default_factory=list)
    #: spans of the restarted server: recovery, then the output checks
    recovery_spans: list[tuple] = field(default_factory=list)
    #: raw durations of the speed probes taken during the run, in seconds
    speed: list[float] = field(default_factory=list)


def delta(after: dict, before: dict) -> dict[str, float]:
    """Numeric fields of a stats() block, as the change from ``before``."""
    return {
        key: value - before.get(key, 0)
        for key, value in after.items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }


def finals(counters: dict[str, float]) -> float:
    """Queries that reached a final state, from coordination counter deltas."""
    return sum(
        counters[name] for name in ("queries_answered", "queries_cancelled", "queries_rejected")
    )


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb(pid: Any) -> float:
    """VmHWM (peak resident set) of a process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")
