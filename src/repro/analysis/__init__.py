"""cdas-lint: static enforcement of what a runtime test cannot see.

A self-contained, stdlib-``ast`` lint engine with codebase-specific
rules (DESIGN.md §15).  Most of the reproduction's correctness story —
bit-identical replay, journal-before-apply durability, codec closure,
protocol conformance — is enforced by behavioural tests.  Two contracts
are about code that no test has to call yet, so they stay static:

* **CDAS001 determinism** — no wall-clock/ambient-entropy calls in the
  sans-IO core; randomness flows through named substreams.
* **CDAS002 async purity** — no blocking calls inside ``async def``
  bodies on the service/gateway/cluster event loop.

Findings can be waived in place (``# cdas-lint: disable=CDAS001 why``);
a waiver naming a rule the catalogue lacks is itself a finding.  Run it
as ``cdas-repro lint`` or ``python -m repro.analysis``.
"""

from repro.analysis.engine import LintResult, Module, Project, load_project, run_lint
from repro.analysis.findings import ENGINE_RULE, Finding, report_dict
from repro.analysis.registry import Rule, default_rules, rule_catalog
from repro.analysis.waivers import Waiver, WaiverSet, scan_waivers

__all__ = [
    "ENGINE_RULE",
    "Finding",
    "LintResult",
    "Module",
    "Project",
    "Rule",
    "Waiver",
    "WaiverSet",
    "default_rules",
    "load_project",
    "report_dict",
    "rule_catalog",
    "run_lint",
    "scan_waivers",
]
