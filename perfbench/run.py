"""The repository's benchmark: one command, four seeded workloads.

    python3 perfbench/run.py --workload batch --seed 2012 --seconds 10 --trace 0

Runs from the root of a checkout (it imports the program from
``src/``).  ``--trace 0`` measures the end-to-end metrics untraced.
``--trace 1`` runs the workload twice, for half the time each, untraced
and then with every layer's entry points wrapped in spans (``tracer.py``, ``layers.py``),
writes the span files under ``.perfbench-out/`` and reports the
per-layer metrics derived from them, each bypassed layer's predicted
zero checked, and the tracing overhead on the workload's headline
metric.  Every run checks the program's outputs (see each workload
module) and prints, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; a failed check
exits 1.  Without the program's sources next to it, it exits 2 and
prints no result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

# One BLAS thread in this process and every process it starts (server,
# shard workers): the program's numpy work is elementwise, and a BLAS
# thread pool's busy-waiting would take CPU from the other processes
# of a 2-CPU run (client and server, router and shards).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from common import OUT, REPORTED, ROOT, Result, emit  # noqa: E402

WORKLOADS = ("batch", "http_open", "crash_recover", "sharded")

#: Per workload: the headline end-to-end metric tracing overhead is
#: reported on, and whether a higher value is better.
HEADLINE = {
    "batch": ("hits_per_s", True),
    "http_open": ("query_s_p50", False),
    "crash_recover": ("hits_per_s", True),
    "sharded": ("hits_per_s", True),
}

def bypassed(name: str) -> tuple[str, ...]:
    """Per-layer metric-name prefixes ``name`` predicts to read zero in
    the processes it traces: the layers it bypasses (manifest.json)."""
    with open(HERE / "manifest.json", encoding="utf-8") as fh:
        return tuple(json.load(fh)["workloads"][name]["bypasses"])


def declared(kind: str) -> list[dict]:
    """The ``end_to_end`` or ``per_layer`` entries of BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)[kind]


def traced(name: str, module, seed: int, seconds: float) -> Result:
    """Untraced pass, then traced pass; per-layer metrics from spans."""
    import layers
    from tracer import Tracer, read_spans

    baseline = module.run(seed, seconds / 2)
    tracer = Tracer()
    layers.instrument(tracer)
    try:
        result = module.run(seed, seconds / 2, tracer=tracer)
    finally:
        tracer.restore()
    paths = [tracer.write(OUT / f"spans-{name}-{seed}.jsonl")] + result.span_files
    measured = layers.derive(read_spans(paths))

    units = {m["name"]: m["unit"] for m in declared("per_layer")}
    out = Result(name, attempted=baseline.attempted + result.attempted,
                 failed=baseline.failed + result.failed,
                 errors=baseline.errors + result.errors, notes=result.notes)
    for metric, value in measured.items():
        out.add(metric, value, units.get(metric, "count"), 1)
    headline, higher = HEADLINE[name]
    if headline in baseline.metrics and headline in result.metrics:
        plain = baseline.metrics[headline].value
        with_spans = result.metrics[headline].value
        share = plain / with_spans - 1.0 if higher else with_spans / plain - 1.0
        out.add("trace.overhead_share", share, "ratio", 2)
        out.note(f"{headline}: untraced {plain:.6g}, traced {with_spans:.6g}")
    out.note(f"span files: {', '.join(str(p.relative_to(ROOT)) for p in paths)}")
    for metric, value in sorted(measured.items()):
        if metric.startswith(bypassed(name)):
            out.check(value == 0, f"{metric} = {value}, predicted 0 (layer bypassed)")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    OUT.mkdir(exist_ok=True)

    module = importlib.import_module(f"w_{args.workload}")
    if args.trace:
        result = traced(args.workload, module, args.seed, args.seconds)
        return emit(result, [m["name"] for m in declared("per_layer")])
    names = [m["name"] for m in declared("end_to_end")]
    return emit(module.run(args.seed, args.seconds), names, REPORTED)


if __name__ == "__main__":
    sys.exit(main())
