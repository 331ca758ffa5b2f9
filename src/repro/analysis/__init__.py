"""cdas-lint: static enforcement of the engine's structural contracts.

A self-contained, stdlib-``ast`` lint engine with codebase-specific
rules (DESIGN.md §15).  The reproduction's correctness story —
bit-identical replay, sans-IO cores driven by async pumps,
journal-before-apply durability — is otherwise enforced only
dynamically, by tests and golden traces; these rules turn
each contract into a merge gate:

* **CDAS001 determinism** — no wall-clock/ambient-entropy calls in the
  sans-IO core; randomness flows through named substreams.
* **CDAS002 async purity** — no blocking calls inside ``async def``
  bodies on the service/gateway/cluster event loop.
* **CDAS003 durability ordering** — journal-before-apply in the durable
  service's ``super()`` mutations; flush-before-ack in the gateway routes.
* **CDAS004 codec closure** — every dataclass in a journal/RPC boundary
  module is registered with the §12 codec.

Protocol conformance (market backends, HIT handles, journal stores) is
not a lint rule: a runtime test compares each implementor's members and
signatures with its protocol, inherited members included.

Findings can be waived in place (``# cdas-lint: disable=CDAS001 why``)
or carried by a checked-in baseline that only ratchets down.  Run it as
``cdas-repro lint`` or ``python -m repro.analysis``.
"""

from repro.analysis.baseline import load_baseline, write_baseline
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
    "load_baseline",
    "load_project",
    "report_dict",
    "rule_catalog",
    "run_lint",
    "scan_waivers",
    "write_baseline",
]
