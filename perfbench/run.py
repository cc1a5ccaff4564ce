"""Benchmark entry point: one workload, one run, one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload pairs_sql --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` repeats the run with every layer's entry point wrapped (see
``tracing.py``) and reports the per-layer metrics instead.  Either way the
output checks run, and the last line of standard output is::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The workloads and the reasons for them are in ``BENCHMARK.json`` and
``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gen  # noqa: E402
import speed  # noqa: E402
from common import RunResult, percentile  # noqa: E402

#: Tail percentile per latency family.  Every workload's sample counts
#: support it with at least ten samples beyond it; a run with fewer samples
#: fails instead of printing an unsupported tail.  Submissions would support
#: p99, but that tail is a handful of snapshot stalls and retry sweeps, too
#: few per run to repeat within any bound (see NOTES.md).
TAILS = {"submit": 0.9, "answer": 0.9, "write": 0.9, "read": 0.9}


def end_to_end(result: RunResult) -> tuple[dict[str, float], list[str]]:
    metrics: dict[str, float] = {"setup_s": statistics.median(result.setup_s)}
    problems: list[str] = []
    for family, tail in TAILS.items():
        samples = getattr(result, family)
        if len(samples) - math.ceil(tail * len(samples)) < 10:
            problems.append(
                f"{len(samples)} {family} samples cannot support p{round(tail * 100)}"
            )
            continue
        metrics[f"{family}_p50_ms"] = 1000.0 * percentile(samples, 0.5)
        metrics[f"{family}_p{round(tail * 100)}_ms"] = 1000.0 * percentile(samples, tail)
    metrics["throughput_qps"] = result.finals / result.elapsed
    metrics["ok_frac"] = 1.0 - result.failed / max(1, result.attempted)
    metrics["peak_rss_mb"] = result.peak_rss_mb
    return metrics, problems


UNITS = {"setup_s": "s", "throughput_qps": "1/s", "ok_frac": "1", "peak_rss_mb": "MiB"}


def unit_of(name: str) -> str:
    """Units of the end-to-end metrics (every latency is in ms) and the layers'."""
    import layers

    return UNITS.get(name) or layers.METRICS.get(name) or "ms"


def run_workload(workload: gen.Workload, seconds: float, traced: bool) -> RunResult:
    from tracing import Tracer

    tracer = Tracer() if traced else None
    if workload.name == "durable_remote":
        import remote

        return remote.run(workload, seconds, tracer, os.path.join(HERE, ".work"))
    import inproc

    result = inproc.run(workload, seconds, tracer)
    if tracer is not None:
        result.spans.append(tracer.spans)
    return result


def describe(label: str, result: RunResult) -> None:
    counts = ", ".join(f"{family} n={len(getattr(result, family))}" for family in TAILS)
    print(
        f"{label}: timed {result.elapsed:.2f}s, {result.attempted} operations, "
        f"{result.failed} failed; {counts}; speed probe median "
        f"{1000 * statistics.median(result.speed):.3f} ms "
        f"(reference {1000 * speed.REFERENCE_S:.3f} ms, {len(result.speed)} probes)"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.exit(f"no program to measure: {os.path.join(ROOT, 'src', 'repro')} is missing")

    workload = gen.GENERATORS[args.workload](args.seed)
    again = gen.GENERATORS[args.workload](args.seed)
    if workload.digest() != again.digest():
        raise RuntimeError("input generation is not deterministic")
    del again
    print(f"workload {workload.name} seed {args.seed} inputs sha256 {workload.digest()[:16]}")

    if args.trace:
        # An untraced run first, for the tracing overhead, then the traced run.
        untraced = run_workload(workload, args.seconds, traced=False)
        _, problems = end_to_end(untraced)
        result = run_workload(workload, args.seconds, traced=True)
        result.problems.extend(untraced.problems + problems)
        import layers

        shown, layer_problems = layers.per_layer(workload.name, result)
        result.problems.extend(layer_problems)
        # Figures that tracing would distort come from the untraced run.
        shown["trace.overhead_frac"] = (
            percentile(result.submit, 0.5) / percentile(untraced.submit, 0.5) - 1.0
        )
        shown["durability.recovery_s"] = untraced.recovery_s or 0.0
        os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
        spans_file = os.path.join(HERE, ".work", f"spans-{workload.name}-{args.seed}.json")
        with open(spans_file, "w", encoding="utf-8") as handle:
            json.dump({"timed": result.spans, "recovery": result.recovery_spans}, handle)
        print(f"spans written to {os.path.relpath(spans_file, ROOT)}")
        describe("untraced", untraced)
        describe("traced", result)
    else:
        result = run_workload(workload, args.seconds, traced=False)
        shown, problems = end_to_end(result)
        result.problems.extend(problems)
        describe("untraced", result)
    for name, value in shown.items():
        print(f"  {name:<40} {value:>14.4f} {unit_of(name)}")
    for problem in result.problems:
        print(f"CHECK FAILED: {problem}")
    for error in result.errors[:10]:
        print(f"error: {error}")

    output = {
        "correct": not result.problems,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": value, "unit": unit_of(name)} for name, value in shown.items()
        },
    }
    print(json.dumps(output))
    return 0 if not result.problems else 1


if __name__ == "__main__":
    sys.exit(main())
