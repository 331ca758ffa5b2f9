"""Tests for the cdas-lint invariant checker (DESIGN.md §15).

Each rule gets a fixture tree under ``tmp_path`` with a true positive
*and* a near-miss negative, the waiver and baseline channels are
exercised end to end, the JSON report schema is pinned, and — the
acceptance tests — the real tree lints clean while a deleted journal
flush in ``gateway/routes.py`` or an injected ``time.time()`` in
``engine/scheduler.py`` makes the lint fail.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    ENGINE_RULE,
    Finding,
    load_baseline,
    report_dict,
    run_lint,
    scan_waivers,
    write_baseline,
)
from repro.analysis.baseline import BaselineError
from repro.analysis.cli import main as lint_main
from repro.analysis.rules import (
    AsyncPurityRule,
    CodecClosureRule,
    DeterminismRule,
    DurabilityOrderingRule,
)

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
# CDAS003 — durability ordering
# ---------------------------------------------------------------------------

WRAPPER_OK = """
class DurableService(SchedulerService):
    def submit(self, *args, **kwargs):
        handle = super().submit(*args, **kwargs)
        self._observed({"k": "submit", "q": handle.seq})
        return handle

    def _cancel(self, record):
        self._observed({"k": "cancel"})
        return super()._cancel(record)

    def step(self):
        self.ticks += 1
        return super().step()
"""

WRAPPER_UNJOURNALED = """
class DurableService(SchedulerService):
    def register_tenant(self, name, **kwargs):
        return super().register_tenant(name, **kwargs)
"""

WRAPPER_WRITE_BEHIND = """
class DurableService(SchedulerService):
    def _cancel(self, record):
        cancelled = super()._cancel(record)
        self._append({"k": "cancel"})
        return cancelled
"""

WRAPPER_SUBMIT_UNJOURNALED = """
class DurableService(SchedulerService):
    def submit(self, *args, **kwargs):
        self._ensure_healthy()
        return super().submit(*args, **kwargs)
"""

#: Near misses: mutator names called on something other than super(),
#: and a journaled cancel through a helper that is not a mutator.
WRAPPER_NEAR_MISS = """
class DurableService(SchedulerService):
    def cancel_all(self, others, record):
        for other in others:
            other._cancel(record)
        self.inner.submit("job", None)

    def step(self):
        return super().step()
"""

ROUTES_OK = """
async def submit(app, tenant, body):
    service = app.mux[tenant]
    handle = await service.submit(body["job"], body["query"])
    service.flush_journal()
    return 201, handle
"""

ROUTES_NO_FLUSH = """
async def submit(app, tenant, body):
    service = app.mux[tenant]
    handle = await service.submit(body["job"], body["query"])
    return 201, handle
"""


class TestDurabilityOrdering:
    def test_journaled_wrapper_and_flushed_route_pass(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "repro/durability/service.py": WRAPPER_OK,
                "repro/gateway/routes.py": ROUTES_OK,
            },
        )
        result = run_lint(root, rules=[DurabilityOrderingRule()])
        assert rule_findings(result, "CDAS003") == []

    def test_unjournaled_mutation_fires(self, tmp_path):
        root = make_tree(
            tmp_path, {"repro/durability/service.py": WRAPPER_UNJOURNALED}
        )
        result = run_lint(root, rules=[DurabilityOrderingRule()])
        (finding,) = rule_findings(result, "CDAS003")
        assert "register_tenant" in finding.message
        assert "journal" in finding.message

    def test_write_behind_cancel_fires(self, tmp_path):
        root = make_tree(
            tmp_path, {"repro/durability/service.py": WRAPPER_WRITE_BEHIND}
        )
        result = run_lint(root, rules=[DurabilityOrderingRule()])
        (finding,) = rule_findings(result, "CDAS003")
        assert "write-ahead" in finding.message

    def test_unjournaled_super_submit_fires(self, tmp_path):
        root = make_tree(
            tmp_path, {"repro/durability/service.py": WRAPPER_SUBMIT_UNJOURNALED}
        )
        result = run_lint(root, rules=[DurabilityOrderingRule()])
        (finding,) = rule_findings(result, "CDAS003")
        assert "super().submit()" in finding.message
        assert finding.symbol == "submit"

    def test_non_super_mutator_names_do_not_fire(self, tmp_path):
        root = make_tree(
            tmp_path, {"repro/durability/service.py": WRAPPER_NEAR_MISS}
        )
        result = run_lint(root, rules=[DurabilityOrderingRule()])
        assert rule_findings(result, "CDAS003") == []

    def test_real_durable_service_write_behind_fires(self, tmp_path):
        """Moving the real cancel record after ``super()._cancel`` is
        caught: the rule sees the shipped service, not only fixtures."""
        import repro.durability.service as durable_module

        source = Path(durable_module.__file__).read_text(encoding="utf-8")
        ahead = (
            '        self._observed({"k": "cancel", "t": self.ticks, "q": record.seq})\n'
            "        return super()._cancel(record)\n"
        )
        assert ahead in source
        behind = (
            "        cancelled = super()._cancel(record)\n"
            '        self._observed({"k": "cancel", "t": self.ticks, "q": record.seq})\n'
            "        return cancelled\n"
        )
        root = make_tree(
            tmp_path,
            {"repro/durability/service.py": source.replace(ahead, behind)},
        )
        result = run_lint(root, rules=[DurabilityOrderingRule()])
        (finding,) = rule_findings(result, "CDAS003")
        assert "write-ahead" in finding.message
        assert finding.symbol == "_cancel"

    def test_route_without_flush_fires(self, tmp_path):
        root = make_tree(tmp_path, {"repro/gateway/routes.py": ROUTES_NO_FLUSH})
        result = run_lint(root, rules=[DurabilityOrderingRule()])
        (finding,) = rule_findings(result, "CDAS003")
        assert "flush" in finding.message
        assert finding.symbol == "submit"

    def test_same_shapes_outside_scoped_files_are_ignored(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "repro/engine/scheduler.py": WRAPPER_UNJOURNALED,
                "repro/gateway/app.py": ROUTES_NO_FLUSH,
            },
        )
        result = run_lint(root, rules=[DurabilityOrderingRule()])
        assert rule_findings(result, "CDAS003") == []


# ---------------------------------------------------------------------------
# CDAS004 — codec closure
# ---------------------------------------------------------------------------

CODEC_FIXTURE = """
def register(cls):
    return cls

def _register_builtins():
    from repro.boundary.types import Alpha
    for cls in (Alpha,):
        register(cls)

_register_builtins()
"""

BOUNDARY_TYPES = """
from dataclasses import dataclass

@dataclass
class Alpha:
    value: int

@dataclass
class Beta:
    value: int

class NotADataclass:
    pass
"""


class TestCodecClosure:
    def test_unregistered_boundary_dataclass_fires(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "repro/durability/codec.py": CODEC_FIXTURE,
                "repro/boundary/types.py": BOUNDARY_TYPES,
            },
        )
        result = run_lint(root, rules=[CodecClosureRule()])
        (finding,) = rule_findings(result, "CDAS004")
        assert "repro.boundary.types.Beta" in finding.message
        assert finding.symbol == "Beta"

    def test_registering_the_sibling_closes_the_table(self, tmp_path):
        codec = CODEC_FIXTURE.replace(
            "from repro.boundary.types import Alpha",
            "from repro.boundary.types import Alpha, Beta",
        ).replace("for cls in (Alpha,):", "for cls in (Alpha, Beta):")
        root = make_tree(
            tmp_path,
            {
                "repro/durability/codec.py": codec,
                "repro/boundary/types.py": BOUNDARY_TYPES,
            },
        )
        result = run_lint(root, rules=[CodecClosureRule()])
        assert rule_findings(result, "CDAS004") == []

    def test_ghost_registration_fires(self, tmp_path):
        codec = CODEC_FIXTURE.replace(
            "from repro.boundary.types import Alpha",
            "from repro.boundary.types import Alpha, Vanished",
        ).replace("for cls in (Alpha,):", "for cls in (Alpha, Vanished):")
        root = make_tree(
            tmp_path,
            {
                "repro/durability/codec.py": codec,
                "repro/boundary/types.py": BOUNDARY_TYPES,
            },
        )
        result = run_lint(root, rules=[CodecClosureRule()])
        messages = [f.message for f in rule_findings(result, "CDAS004")]
        assert any("Vanished" in m and "does not resolve" in m for m in messages)

    def test_decorator_registration_counts(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "repro/durability/codec.py": CODEC_FIXTURE,
                "repro/boundary/types.py": BOUNDARY_TYPES.replace(
                    "@dataclass\nclass Beta:",
                    "from repro.durability.codec import register\n\n"
                    "@register\n@dataclass\nclass Beta:",
                ),
            },
        )
        result = run_lint(root, rules=[CodecClosureRule()])
        assert rule_findings(result, "CDAS004") == []


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


# ---------------------------------------------------------------------------
# Baseline
# ---------------------------------------------------------------------------


class TestBaseline:
    def fixture(self, tmp_path):
        return make_tree(tmp_path, {"repro/engine/sched.py": VIOLATION})

    def test_baselined_finding_does_not_fail(self, tmp_path):
        root = self.fixture(tmp_path)
        first = run_lint(root, rules=[DeterminismRule()])
        baseline_path = tmp_path / "baseline.json"
        write_baseline(baseline_path, first.findings)
        baseline = load_baseline(baseline_path)
        second = run_lint(root, rules=[DeterminismRule()], baseline=baseline)
        assert second.exit_code == 0
        assert [f.baselined for f in second.findings] == [True]
        assert second.stale_baseline == []

    def test_fingerprints_survive_line_moves(self, tmp_path):
        root = self.fixture(tmp_path)
        first = run_lint(root, rules=[DeterminismRule()])
        (root / "repro/engine/sched.py").write_text(
            "# a new leading comment\n\n" + VIOLATION, encoding="utf-8"
        )
        second = run_lint(root, rules=[DeterminismRule()])
        assert first.findings[0].fingerprint() == second.findings[0].fingerprint()
        assert first.findings[0].line != second.findings[0].line

    def test_fixed_finding_reports_stale_entry(self, tmp_path):
        root = self.fixture(tmp_path)
        first = run_lint(root, rules=[DeterminismRule()])
        baseline_path = tmp_path / "baseline.json"
        write_baseline(baseline_path, first.findings)
        (root / "repro/engine/sched.py").write_text(
            "import time\n\ndef elapsed(s):\n    return time.monotonic() - s\n",
            encoding="utf-8",
        )
        result = run_lint(
            root, rules=[DeterminismRule()], baseline=load_baseline(baseline_path)
        )
        assert result.exit_code == 0
        assert len(result.stale_baseline) == 1

    def test_baseline_is_a_multiset(self, tmp_path):
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
        first = run_lint(root, rules=[DeterminismRule()])
        baseline_path = tmp_path / "baseline.json"
        write_baseline(baseline_path, first.findings)
        # A second identical call in the same function shares the
        # line-free fingerprint; the baseline covers only one of them.
        (root / "repro/engine/sched.py").write_text(
            "import time\n\ndef now():\n    return time.time() - time.time()\n",
            encoding="utf-8",
        )
        result = run_lint(
            root, rules=[DeterminismRule()], baseline=load_baseline(baseline_path)
        )
        assert sum(1 for f in result.findings if f.baselined) == 1
        assert len(result.new_findings) == 1
        assert result.exit_code == 1

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

    def test_unreadable_baseline_raises(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(BaselineError):
            load_baseline(path)

    def test_missing_baseline_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "nope.json") == {}


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
            stale_baseline=result.stale_baseline,
        )
        assert report["version"] == 1 and report["tool"] == "cdas-lint"
        (entry,) = report["findings"]
        assert set(entry) == {
            "rule", "path", "line", "col", "symbol", "message",
            "fingerprint", "waived", "waiver", "baselined",
        }
        summary = report["summary"]
        assert summary["total"] == summary["new"] == 1
        assert summary["by_rule"] == {"CDAS001": 1}
        assert summary["stale_baseline_entries"] == []
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

    def test_cli_write_baseline_then_clean(self, tmp_path, capsys):
        root = make_tree(tmp_path, {"repro/engine/sched.py": VIOLATION})
        baseline = root / "lint-baseline.json"
        assert lint_main(["--root", str(root), "--write-baseline"]) == 0
        assert baseline.is_file()
        capsys.readouterr()
        assert lint_main(["--root", str(root)]) == 0
        assert "1 baselined" in capsys.readouterr().out

    def test_cli_rejects_missing_paths(self, tmp_path, capsys):
        code = lint_main(["--root", str(tmp_path), "no/such/file.py"])
        assert code == 2
        assert "do not exist" in capsys.readouterr().err

    def test_cli_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("CDAS001", "CDAS002", "CDAS003", "CDAS004"):
            assert rule_id in out

    def test_markdown_summary(self, tmp_path, capsys):
        root = make_tree(tmp_path, {"repro/engine/sched.py": VIOLATION})
        code = lint_main(["--root", str(root), "--quiet", "--markdown", "-"])
        assert code == 1
        out = capsys.readouterr().out
        assert "### cdas-lint" in out and "| CDAS001 | 1 " in out


# ---------------------------------------------------------------------------
# Acceptance: the real tree, clean and deliberately broken
# ---------------------------------------------------------------------------


class TestAcceptance:
    def test_real_tree_lints_clean(self):
        baseline = load_baseline(REPO_ROOT / "lint-baseline.json")
        result = run_lint(REPO_ROOT, baseline=baseline)
        assert result.new_findings == []
        assert result.exit_code == 0
        assert result.checked_files > 100
        # The ratchet holds: nothing hides in the checked-in baseline.
        assert sum(baseline.values()) == 0
        # Every waiver in the tree carries its reason along.
        assert all(f.waiver for f in result.findings if f.waived)

    def test_deleting_the_journal_flush_fails_the_lint(self, tmp_path):
        real = (REPO_ROOT / "src/repro/gateway/routes.py").read_text(
            encoding="utf-8"
        )
        sabotaged = real.replace("flush_journal", "flush_disabled")
        assert sabotaged != real
        root = make_tree(tmp_path, {"repro/gateway/routes.py": sabotaged})
        result = run_lint(root)
        findings = rule_findings(result, "CDAS003")
        assert findings and all(f.new for f in findings)
        assert result.exit_code == 1

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

    def test_unregistered_boundary_dataclass_fails_the_lint(self, tmp_path):
        real = (REPO_ROOT / "src/repro/tsa/tweets.py").read_text(
            encoding="utf-8"
        )
        codec = (REPO_ROOT / "src/repro/durability/codec.py").read_text(
            encoding="utf-8"
        )
        sabotaged = real + (
            "\n\n@dataclass\nclass SmuggledDescriptor:\n    payload: str\n"
        )
        root = make_tree(
            tmp_path,
            {
                "repro/tsa/tweets.py": sabotaged,
                "repro/durability/codec.py": codec,
            },
        )
        result = run_lint(root, rules=[CodecClosureRule()])
        findings = rule_findings(result, "CDAS004")
        assert [f.symbol for f in findings] == ["SmuggledDescriptor"]
