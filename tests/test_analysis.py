"""Tests for the cdas-lint invariant checker (DESIGN.md §15).

Each rule gets a fixture tree under ``tmp_path`` with a true positive
*and* a near-miss negative, the waiver channel is exercised end to end,
the JSON report schema is pinned, and — the acceptance tests — the real
tree lints clean while an injected ``time.time()`` in
``engine/scheduler.py`` makes the lint fail.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

from repro.analysis import ENGINE_RULE, report_dict, run_lint, scan_waivers
from repro.analysis.cli import main as lint_main
from repro.analysis.rules import AsyncPurityRule, DeterminismRule

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
        result = run_lint(root, rules=[DeterminismRule()])
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
        result = run_lint(root, rules=[DeterminismRule()])
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
        result = run_lint(root, rules=[DeterminismRule()])
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
        result = run_lint(root, rules=[DeterminismRule()])
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
        result = run_lint(root, rules=[DeterminismRule()])
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
        result = run_lint(root, rules=[DeterminismRule()])
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
        result = run_lint(root, rules=[AsyncPurityRule()])
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
        result = run_lint(root, rules=[AsyncPurityRule()])
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
        result = run_lint(root, rules=[AsyncPurityRule()])
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
        result = run_lint(root, rules=[AsyncPurityRule()])
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
        result = run_lint(root, rules=[AsyncPurityRule()])
        assert rule_findings(result, "CDAS002") == []


# ---------------------------------------------------------------------------
# Waivers
# ---------------------------------------------------------------------------

VIOLATION = """
import time

def now():
    return time.time()
"""


class TestWaivers:
    def run(self, tmp_path, source):
        root = make_tree(tmp_path, {"repro/engine/sched.py": source})
        return run_lint(root, rules=[DeterminismRule()])

    def test_waiver_on_line_above_suppresses(self, tmp_path):
        source = VIOLATION.replace(
            "    return time.time()",
            "    # cdas-lint: disable=CDAS001 probe, never journaled\n"
            "    return time.time()",
        )
        result = self.run(tmp_path, source)
        (finding,) = result.findings
        assert finding.waived and finding.waiver == "probe, never journaled"
        assert result.exit_code == 0

    def test_trailing_waiver_suppresses(self, tmp_path):
        source = VIOLATION.replace(
            "    return time.time()",
            "    return time.time()  # cdas-lint: disable=CDAS001 probe only",
        )
        result = self.run(tmp_path, source)
        assert result.exit_code == 0

    def test_file_level_waiver_covers_everything(self, tmp_path):
        source = (
            "# cdas-lint: disable-file=CDAS001 synthetic fixture\n" + VIOLATION
        )
        result = self.run(tmp_path, source)
        assert result.exit_code == 0
        assert all(f.waived for f in result.findings)

    def test_waiver_for_the_wrong_rule_does_not_suppress(self, tmp_path):
        source = VIOLATION.replace(
            "    return time.time()",
            "    return time.time()  # cdas-lint: disable=CDAS002 wrong rule",
        )
        result = self.run(tmp_path, source)
        assert result.exit_code == 1

    def test_waiver_without_reason_is_itself_a_finding(self, tmp_path):
        source = VIOLATION.replace(
            "    return time.time()",
            "    return time.time()  # cdas-lint: disable=CDAS001",
        )
        result = self.run(tmp_path, source)
        rules = sorted(f.rule for f in result.findings)
        assert rules == ["CDAS000", "CDAS001"]
        assert result.exit_code == 1

    def test_malformed_waiver_is_a_finding(self, tmp_path):
        source = "# cdas-lint: dissable=CDAS001 typo\n"
        waivers = scan_waivers(source, "x.py")
        (problem,) = waivers.problems
        assert problem.rule == ENGINE_RULE
        assert waivers.waivers == []

    def test_prose_mentioning_the_marker_is_not_a_waiver(self, tmp_path):
        source = "# see the docs for cdas-lint: disable syntax\n"
        waivers = scan_waivers(source, "x.py")
        assert waivers.problems == [] and waivers.waivers == []

    def test_waiver_inside_string_literal_does_not_count(self, tmp_path):
        source = VIOLATION.replace(
            "    return time.time()",
            '    _ = "# cdas-lint: disable=CDAS001 inside a string"\n'
            "    return time.time()",
        )
        result = self.run(tmp_path, source)
        assert result.exit_code == 1

    def test_multi_rule_waiver(self, tmp_path):
        source = "# cdas-lint: disable=CDAS001, CDAS002 one reason for both\n"
        waivers = scan_waivers(source, "x.py")
        (waiver,) = waivers.waivers
        assert waiver.rules == ("CDAS001", "CDAS002")
        assert waiver.reason == "one reason for both"

    def test_waiver_for_an_unknown_rule_is_a_finding(self, tmp_path):
        # A retired or misspelt rule id can't suppress anything, so its
        # waiver must not sit in the tree looking like it does.
        source = VIOLATION.replace(
            "    return time.time()",
            "    # cdas-lint: disable=CDAS009 no such rule\n"
            "    return time.time()",
        )
        result = self.run(tmp_path, source)
        rules = sorted(f.rule for f in result.findings)
        assert rules == ["CDAS000", "CDAS001"]
        (problem,) = rule_findings(result, ENGINE_RULE)
        assert "CDAS009" in problem.message and problem.new
        assert result.exit_code == 1
        waivers = scan_waivers(
            "# cdas-lint: disable=CDAS001,CDAS003 one known, one retired\n", "x.py"
        )
        assert waivers.waivers == [] and len(waivers.problems) == 1

    def test_unwaivable_engine_findings(self, tmp_path):
        # A syntax error can't be waived away by a comment in the file.
        root = make_tree(
            tmp_path,
            {"repro/engine/broken.py": "def oops(:\n    pass\n"},
        )
        result = run_lint(root, rules=[DeterminismRule()])
        (finding,) = result.findings
        assert finding.rule == ENGINE_RULE and finding.new
        assert result.exit_code == 1


# ---------------------------------------------------------------------------
# JSON report + CLI
# ---------------------------------------------------------------------------


class TestReportAndCli:
    def test_report_schema(self, tmp_path):
        root = make_tree(tmp_path, {"repro/engine/sched.py": VIOLATION})
        result = run_lint(root, rules=[DeterminismRule()])
        report = report_dict(
            result.findings,
            checked_files=result.checked_files,
            rules=result.rules,
        )
        assert report["version"] == 2 and report["tool"] == "cdas-lint"
        (entry,) = report["findings"]
        assert set(entry) == {
            "rule", "path", "line", "col", "symbol", "message",
            "waived", "waiver",
        }
        summary = report["summary"]
        assert set(summary) == {"checked_files", "total", "new", "waived", "by_rule"}
        assert summary["total"] == summary["new"] == 1
        assert summary["by_rule"] == {"CDAS001": 1}
        json.dumps(report)  # must be serialisable as-is

    def test_cli_json_output_and_exit_code(self, tmp_path, capsys):
        root = make_tree(tmp_path, {"repro/engine/sched.py": VIOLATION})
        out = tmp_path / "report.json"
        code = lint_main(["--root", str(root), "--json", str(out)])
        assert code == 1
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["summary"]["new"] == 1
        rendered = capsys.readouterr().out
        assert "CDAS001" in rendered

    def test_cli_rejects_missing_paths(self, tmp_path, capsys):
        code = lint_main(["--root", str(tmp_path), "no/such/file.py"])
        assert code == 2
        assert "do not exist" in capsys.readouterr().err

    def test_cli_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        listed = [line.split()[0] for line in out.splitlines()]
        assert listed == ["CDAS001", "CDAS002"]

    def test_markdown_summary(self, tmp_path, capsys):
        root = make_tree(tmp_path, {"repro/engine/sched.py": VIOLATION})
        code = lint_main(["--root", str(root), "--quiet", "--markdown", "-"])
        assert code == 1
        out = capsys.readouterr().out
        assert "### cdas-lint" in out and "| CDAS001 | 1 | 1 | 0 |" in out


# ---------------------------------------------------------------------------
# Acceptance: the real tree, clean and deliberately broken
# ---------------------------------------------------------------------------


class TestAcceptance:
    def test_real_tree_lints_clean(self):
        result = run_lint(REPO_ROOT)
        assert result.new_findings == []
        assert result.exit_code == 0
        assert result.checked_files > 100
        # Every waiver in the tree carries its reason along.
        assert all(f.waiver for f in result.findings if f.waived)

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
