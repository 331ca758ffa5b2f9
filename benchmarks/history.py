"""Paired parent/change runs of the repo benchmark, appended to a trajectory.

Runs ``perfbench/run.py`` as a subprocess in two checkouts — the parent
commit and the change — for N alternating pairs per workload (pair i runs
the parent first when i is even, the change first when it is odd, so a
drifting host penalises neither side).  For every end-to-end metric
``BENCHMARK.json`` declares, it prints each side's median and quartiles
and how many pairs the change won, then appends one row to
``BENCH_perfbench.json`` at the root of this checkout: both commits,
nproc, Python version, seed, run length and those figures, with every
pair's two values in run order and the side that ran first — a burst of
host load shows as a run of pairs where both sides moved together, a
lopsided change as one side moving alone.  Each workload's row also
keeps both sides' summed ``attempted`` and ``failed`` operation counts
and their ``failed_frac``.

Usage (from the checkout root; the parent is any second checkout, e.g. a
``git worktree`` of ``HEAD~1``)::

    python benchmarks/history.py --parent ../parent --change . \\
        --workload http_open --pairs 10 --seed 2012 --seconds 20

Every run must print ``correct: true``; a failed or unparsable run stops
the script before anything is appended.  ``perfbench/`` and
``BENCHMARK.json`` are only read.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
HISTORY = ROOT / "BENCH_perfbench.json"
sys.path.insert(0, str(ROOT / "perfbench"))

from common import nproc, percentile  # noqa: E402
from run import WORKLOADS  # noqa: E402


def commit_of(checkout: Path) -> str:
    out = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True, text=True
    )
    sha = out.stdout.strip() if out.returncode == 0 else "unknown"
    dirty = subprocess.run(
        ["git", "status", "--porcelain", "--untracked-files=no"],
        cwd=checkout, capture_output=True, text=True,
    ).stdout.strip()
    return f"{sha}+dirty" if dirty else sha


def run_once(
    checkout: Path, workload: str, seed: int, seconds: float
) -> tuple[dict[str, float], int, int]:
    """One untraced perfbench run: its end-to-end metric values and its
    attempted and failed operation counts."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        payload = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        payload = {}
    if proc.returncode != 0 or not payload.get("correct"):
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} run in {checkout} failed (exit {proc.returncode})")
    values = {name: m["value"] for name, m in payload["metrics"].items()}
    return values, int(payload["attempted"]), int(payload["failed"])


def failures(counts: list[tuple[int, int]]) -> dict[str, float]:
    """Summed ``(attempted, failed)`` counts of one side's runs."""
    attempted = sum(a for a, _ in counts)
    failed = sum(f for _, f in counts)
    return {
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted if attempted else 0.0,
    }


def summarise(values: list[float]) -> dict[str, float]:
    return {
        "median": percentile(values, 50),
        "q1": percentile(values, 25),
        "q3": percentile(values, 75),
    }


def compare(
    parent: list[dict[str, float]],
    change: list[dict[str, float]],
    declared: list[dict[str, Any]],
    first: list[str],
) -> dict[str, Any]:
    """Per metric: both sides' median and quartiles, pair wins, and each
    pair's values in run order with the side (``"parent"`` or
    ``"change"``) that ran first."""
    out: dict[str, Any] = {}
    for spec in declared:
        name = spec["name"]
        lower = spec["better"] == "lower"
        pairs = [(p[name], c[name]) for p, c in zip(parent, change)]
        wins = sum(1 for p, c in pairs if (c < p if lower else c > p))
        out[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "parent": summarise([p for p, _ in pairs]),
            "change": summarise([c for _, c in pairs]),
            "wins": wins,
            "pairs": len(pairs),
            "runs": [
                {"first": side, "parent": p, "change": c}
                for side, (p, c) in zip(first, pairs)
            ],
        }
    return out


def print_table(workload: str, figures: dict[str, Any]) -> None:
    print(f"{workload}:")
    print(f"  {'metric':<18} {'parent median [q1, q3]':>30} "
          f"{'change median [q1, q3]':>30}  wins")
    for name, fig in figures.items():
        sides = [
            f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}]"
            for s in (fig["parent"], fig["change"])
        ]
        print(f"  {name:<18} {sides[0]:>30} {sides[1]:>30}  "
              f"{fig['wins']}/{fig['pairs']}")


def append_row(row: dict[str, Any], path: Path = HISTORY) -> None:
    if path.is_file():
        data = json.loads(path.read_text(encoding="utf-8"))
    else:
        data = {
            "about": "One row per benchmark comparison: N alternating "
                     "parent/change pairs of perfbench/run.py per workload, "
                     "written by benchmarks/history.py.",
            "rows": [],
        }
    data["rows"].append(row)
    path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, default=ROOT, help="changed checkout")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="repeatable; default: every workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=2012)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--note", default="", help="free text stored with the row")
    parser.add_argument("--no-append", action="store_true",
                        help="print the figures without appending a row")
    args = parser.parse_args(argv)

    parent, change = args.parent.resolve(), args.change.resolve()
    with open(change / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["end_to_end"]
    row: dict[str, Any] = {
        "parent": commit_of(parent),
        "change": commit_of(change),
        "nproc": nproc(),
        "python": platform.python_version(),
        "seed": args.seed,
        "seconds": args.seconds,
        "pairs": args.pairs,
        "note": args.note,
        "workloads": {},
    }
    for workload in args.workload or WORKLOADS:
        runs: dict[str, list[dict[str, float]]] = {"parent": [], "change": []}
        counts: dict[str, list[tuple[int, int]]] = {"parent": [], "change": []}
        first: list[str] = []
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            first.append(order[0])
            for side in order:
                checkout = parent if side == "parent" else change
                values, attempted, failed = run_once(
                    checkout, workload, args.seed, args.seconds
                )
                runs[side].append(values)
                counts[side].append((attempted, failed))
            print(f"  {workload} pair {i + 1}/{args.pairs} done", file=sys.stderr)
        figures = compare(runs["parent"], runs["change"], declared, first)
        print_table(workload, figures)
        row["workloads"][workload] = figures
        row.setdefault("failed", {})[workload] = {
            side: failures(counts[side]) for side in ("parent", "change")
        }
        print("  failed_frac        " + "  ".join(
            f"{side} {fig['failed']}/{fig['attempted']}"
            for side, fig in row["failed"][workload].items()
        ))
    if not args.no_append:
        append_row(row)
        print(f"appended a row to {HISTORY.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
