"""``benchmarks/history.py``: what one workload's figures record.

A row keeps, per metric, both sides' median and quartiles and the pair
wins, and every pair's two values in run order with the side that ran
first, so a reader can tell a burst of host load (both sides of a pair
moving together) from a lopsided change after the fact.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

HISTORY = Path(__file__).resolve().parent.parent / "benchmarks" / "history.py"


def _history():
    spec = importlib.util.spec_from_file_location("bench_history", HISTORY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


DECLARED = [
    {"name": "hits_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.1},
]


def test_compare_keeps_every_pair_in_run_order():
    parent = [
        {"hits_per_s": 100.0, "peak_rss_mb": 60.0},
        {"hits_per_s": 90.0, "peak_rss_mb": 61.0},
        {"hits_per_s": 110.0, "peak_rss_mb": 62.0},
    ]
    change = [
        {"hits_per_s": 105.0, "peak_rss_mb": 55.0},
        {"hits_per_s": 80.0, "peak_rss_mb": 56.0},
        {"hits_per_s": 120.0, "peak_rss_mb": 63.0},
    ]
    first = ["parent", "change", "parent"]
    figures = _history().compare(parent, change, DECLARED, first)
    assert figures == {
        "hits_per_s": {
            "unit": "1/s",
            "better": "higher",
            "parent": {"median": 100.0, "q1": 95.0, "q3": 105.0},
            "change": {"median": 105.0, "q1": 92.5, "q3": 112.5},
            "wins": 2,
            "pairs": 3,
            "runs": [
                {"first": "parent", "parent": 100.0, "change": 105.0},
                {"first": "change", "parent": 90.0, "change": 80.0},
                {"first": "parent", "parent": 110.0, "change": 120.0},
            ],
        },
        "peak_rss_mb": {
            "unit": "MiB",
            "better": "lower",
            "parent": {"median": 61.0, "q1": 60.5, "q3": 61.5},
            "change": {"median": 56.0, "q1": 55.5, "q3": 59.5},
            "wins": 2,
            "pairs": 3,
            "runs": [
                {"first": "parent", "parent": 60.0, "change": 55.0},
                {"first": "change", "parent": 61.0, "change": 56.0},
                {"first": "parent", "parent": 62.0, "change": 63.0},
            ],
        },
    }


def test_failures_sum_each_sides_runs():
    assert _history().failures([(40, 0), (38, 1), (42, 1)]) == {
        "attempted": 120,
        "failed": 2,
        "failed_frac": 2 / 120,
    }
    assert _history().failures([(0, 0)])["failed_frac"] == 0.0
