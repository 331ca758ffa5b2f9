"""Shared pieces of the benchmark: statistics, the result record each
workload fills in, and where run artefacts go."""

from __future__ import annotations

import contextlib
import json
import math
import os
import platform
import resource
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

#: This directory, and the checkout root the benchmark runs from.
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Scratch space for journals and span files, inside the checkout.
OUT = ROOT / ".perfbench-out"
#: The seed the pinned digests in ``pins.json`` were taken at.
DEFAULT_SEED = 2012


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (``q`` in 0..100)."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: list[float]) -> float:
    return percentile(values, 50)


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set size in MiB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def proc_cpu_s(pid: int) -> float:
    """User plus system CPU seconds a live process has used (Linux)."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def untraced(tracer: Any) -> Any:
    """Context in which a traced run records nothing (outcome checks)."""
    return contextlib.nullcontext() if tracer is None else tracer.paused()


def load_pins() -> dict[str, str]:
    with open(HERE / "pins.json", encoding="utf-8") as fh:
        return json.load(fh)["outcome_digest"]


@dataclass
class Metric:
    value: float
    unit: str
    samples: int


@dataclass
class Result:
    """What one workload run reports: every metric with its unit and
    sample count, operation accounting, and any correctness failures."""

    workload: str
    metrics: dict[str, Metric] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    #: Span files written by other traced processes (the http server).
    span_files: list[Path] = field(default_factory=list)

    def add(self, name: str, value: float, unit: str, samples: int) -> None:
        self.metrics[name] = Metric(float(value), unit, int(samples))

    def check(self, ok: bool, message: str) -> None:
        """A correctness gate: a failed one fails the whole run."""
        if not ok:
            self.errors.append(message)

    def note(self, message: str) -> None:
        self.notes.append(message)

    @property
    def correct(self) -> bool:
        return not self.errors


def add_latencies(result: Result, timings: dict[str, list[float]]) -> None:
    """Each of submit and poll in ms and query in s, as p50 and p90."""
    for key, scale, unit in (("submit", 1000.0, "ms"), ("poll", 1000.0, "ms"), ("query", 1.0, "s")):
        values = timings.get(key)
        if not values:
            continue
        for q in (50, 90):
            result.add(f"{key}_{unit}_p{q}", scale * percentile(values, q), unit, len(values))


#: The end-to-end metrics every untraced report lists, with "n/a" where
#: the workload has no such operation.  BENCHMARK.json gates the subset
#: that every workload measures steadily on a shared 2-CPU host.
REPORTED = (
    "setup_s", "hits_per_s", "cpu_ms_per_query", "recover_s", "submit_ms_p50", "submit_ms_p90",
    "poll_ms_p50", "poll_ms_p90", "query_s_p50", "query_s_p90",
    "failed_frac", "peak_rss_mb",
)


def emit(result: Result, names: list[str], report: tuple[str, ...] = ()) -> int:
    """Print the human-readable report (``report``, or every metric),
    then the one-line JSON result carrying ``names``; returns the
    process exit code."""
    attempted = max(result.attempted, 1)
    result.add("failed_frac", result.failed / attempted, "ratio", attempted)
    print(f"workload {result.workload} (host: nproc={nproc()}, python {platform.python_version()})")
    for name in report or tuple(result.metrics):
        metric = result.metrics.get(name)
        if metric is None:
            print(f"  {name:<38} {'n/a':>14}")
        else:
            print(f"  {name:<38} {metric.value:>14.6g} {metric.unit:<6} n={metric.samples}")
    for note in result.notes:
        print(f"  note: {note}")
    missing = [n for n in names if n not in result.metrics]
    if missing:
        result.check(False, f"metrics not measured: {missing}")
    for error in result.errors:
        print(f"  CHECK FAILED: {error}")
    payload: dict[str, Any] = {
        "correct": result.correct,
        "attempted": attempted,
        "failed": result.failed,
        "metrics": (
            {
                n: {"value": result.metrics[n].value, "unit": result.metrics[n].unit}
                for n in names
            }
            if result.correct
            else {}
        ),
    }
    print(json.dumps(payload, separators=(",", ":")), flush=True)
    return 0 if result.correct else 1
