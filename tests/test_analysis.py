"""Tests for the cdas-lint invariant checker (DESIGN.md §15).

Each rule gets a fixture tree under ``tmp_path`` with a true positive
*and* a near-miss negative, the command line's output and exit codes
are pinned, and — the acceptance tests — the real tree lints clean
while an injected ``time.time()`` in ``engine/scheduler.py`` or a
``time.sleep`` in a coroutine of ``gateway/routes.py`` makes the lint
fail.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.analysis import ENGINE_RULE, main, run_lint

REPO_ROOT = Path(__file__).resolve().parents[1]


def make_tree(root: Path, files: dict[str, str]) -> Path:
    """Write a synthetic ``repro/...`` tree and return its lint root."""
    for relpath, source in files.items():
        path = root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    return root


def rule_findings(result, rule_id):
    return [f for f in result.findings if f.rule == rule_id]


# ---------------------------------------------------------------------------
# CDAS001 — determinism
# ---------------------------------------------------------------------------


class TestDeterminism:
    def test_wall_clock_in_core_fires(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "repro/engine/sched.py": """
                import time

                def now():
                    return time.time()
                """
            },
        )
        result = run_lint(root)
        (finding,) = rule_findings(result, "CDAS001")
        assert "time.time" in finding.message
        assert finding.symbol == "now"
        assert result.exit_code == 1

    def test_import_alias_is_resolved(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "repro/core/clock.py": """
                import time as _t

                def probe():
                    return _t.time()
                """
            },
        )
        result = run_lint(root)
        assert len(rule_findings(result, "CDAS001")) == 1

    def test_monotonic_clock_is_legal(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "repro/engine/sched.py": """
                import time

                def elapsed(start):
                    return time.monotonic() - start
                """
            },
        )
        result = run_lint(root)
        assert rule_findings(result, "CDAS001") == []

    def test_wall_clock_outside_core_is_out_of_scope(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "repro/tsa/feed.py": """
                import time

                def stamp():
                    return time.time()
                """
            },
        )
        result = run_lint(root)
        assert rule_findings(result, "CDAS001") == []

    def test_random_module_fires_and_seeded_generator_does_not(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "repro/core/draws.py": """
                import random

                import numpy as np

                def bad():
                    return random.random()

                def good(seed):
                    return np.random.Generator(np.random.PCG64(seed))
                """
            },
        )
        result = run_lint(root)
        findings = rule_findings(result, "CDAS001")
        assert [f.symbol for f in findings] == ["bad"]

    def test_seedless_bitgenerator_fires(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "repro/core/draws.py": """
                import numpy as np

                def entropy():
                    return np.random.PCG64()
                """
            },
        )
        result = run_lint(root)
        assert len(rule_findings(result, "CDAS001")) == 1


# ---------------------------------------------------------------------------
# CDAS002 — async purity
# ---------------------------------------------------------------------------


class TestAsyncPurity:
    def test_sleep_in_async_def_fires(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "repro/gateway/handlers.py": """
                import time

                async def handler():
                    time.sleep(0.1)
                """
            },
        )
        result = run_lint(root)
        (finding,) = rule_findings(result, "CDAS002")
        assert "time.sleep" in finding.message
        assert finding.symbol == "handler"

    def test_sleep_in_sync_def_is_legal(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "repro/gateway/handlers.py": """
                import time

                def warmup():
                    time.sleep(0.1)
                """
            },
        )
        result = run_lint(root)
        assert rule_findings(result, "CDAS002") == []

    def test_nested_sync_helper_is_not_the_loop(self, tmp_path):
        # A sync closure handed to a thread executor may block; only the
        # async body itself runs on the loop.
        root = make_tree(
            tmp_path,
            {
                "repro/cluster/pump.py": """
                import time

                async def drive(executor):
                    def blocking_probe():
                        time.sleep(1.0)
                    await executor(blocking_probe)
                """
            },
        )
        result = run_lint(root)
        assert rule_findings(result, "CDAS002") == []

    def test_subprocess_in_async_def_fires(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "repro/cluster/spawn.py": """
                import subprocess

                async def launch():
                    return subprocess.run(["true"])
                """
            },
        )
        result = run_lint(root)
        assert len(rule_findings(result, "CDAS002")) == 1

    def test_asyncio_sleep_is_legal(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "repro/gateway/handlers.py": """
                import asyncio

                async def handler():
                    await asyncio.sleep(0.1)
                """
            },
        )
        result = run_lint(root)
        assert rule_findings(result, "CDAS002") == []

    def test_nested_async_def_is_reported_once(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "repro/gateway/handlers.py": """
                import time

                async def outer():
                    async def inner():
                        time.sleep(0.1)
                    await inner()
                """
            },
        )
        result = run_lint(root)
        (finding,) = rule_findings(result, "CDAS002")
        assert finding.symbol == "inner"
        assert result.exit_code == 1

    def test_async_def_inside_a_sync_factory_is_scanned(self, tmp_path):
        # The sync factory's own body is exempt; the coroutine it defines
        # still runs on the loop.
        root = make_tree(
            tmp_path,
            {
                "repro/gateway/handlers.py": """
                import time

                def make_handler():
                    time.sleep(0.1)

                    async def handler():
                        time.sleep(0.1)
                    return handler
                """
            },
        )
        result = run_lint(root)
        (finding,) = rule_findings(result, "CDAS002")
        assert finding.symbol == "handler"


# ---------------------------------------------------------------------------
# Unparseable files + CLI
# ---------------------------------------------------------------------------

VIOLATION = """
import time

def now():
    return time.time()
"""


class TestReportAndCli:
    def test_unparseable_file_is_a_cdas000_finding(self, tmp_path):
        root = make_tree(
            tmp_path,
            {"repro/engine/broken.py": "def oops(:\n    pass\n"},
        )
        result = run_lint(root)
        (finding,) = result.findings
        assert finding.rule == ENGINE_RULE
        assert result.exit_code == 1

    def test_cli_prints_findings_and_exit_code(self, tmp_path, capsys):
        root = make_tree(tmp_path, {"repro/engine/sched.py": VIOLATION})
        code = main(["--root", str(root)])
        assert code == 1
        rendered = capsys.readouterr().out
        assert "repro/engine/sched.py:5:11 CDAS001" in rendered
        assert "cdas-lint: 1 finding(s) (1 files checked)" in rendered

    def test_cli_rejects_missing_paths(self, tmp_path, capsys):
        code = main(["--root", str(tmp_path), "no/such/file.py"])
        assert code == 2
        assert "do not exist" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Acceptance: the real tree, clean and deliberately broken
# ---------------------------------------------------------------------------


class TestAcceptance:
    def test_real_tree_lints_clean(self):
        result = run_lint(REPO_ROOT)
        assert result.findings == []
        assert result.exit_code == 0
        assert result.checked_files > 100

    def test_wall_clock_in_the_scheduler_fails_the_lint(self, tmp_path):
        real = (REPO_ROOT / "src/repro/engine/scheduler.py").read_text(
            encoding="utf-8"
        )
        sabotaged = real + (
            "\n\nimport time as _probe_time\n\n\n"
            "def _wall_clock_probe():\n"
            "    return _probe_time.time()\n"
        )
        root = make_tree(tmp_path, {"repro/engine/scheduler.py": sabotaged})
        result = run_lint(root)
        (finding,) = rule_findings(result, "CDAS001")
        assert finding.symbol == "_wall_clock_probe"
        assert result.exit_code == 1


    def test_blocking_sleep_in_a_gateway_route_fails_the_lint(self, tmp_path):
        real = (REPO_ROOT / "src/repro/gateway/routes.py").read_text(
            encoding="utf-8"
        )
        sabotaged = real + (
            "\n\nimport time as _probe_time\n\n\n"
            "async def _blocking_probe():\n"
            "    _probe_time.sleep(0.1)\n"
        )
        root = make_tree(tmp_path, {"repro/gateway/routes.py": sabotaged})
        result = run_lint(root)
        (finding,) = rule_findings(result, "CDAS002")
        assert finding.symbol == "_blocking_probe"
        assert result.exit_code == 1
