"""The lint engine's output shape: findings and their JSON projection.

A :class:`Finding` is one rule violation at one source location, keyed
by the rule, the file, the line and the enclosing symbol.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any

#: Engine-level problems (syntax errors, malformed waiver comments) are
#: reported under this pseudo-rule so they flow through the same
#: exit-code machinery as real rule findings.
ENGINE_RULE = "CDAS000"


@dataclass(frozen=True)
class Finding:
    """One rule violation, pinned to a file/line/symbol."""

    rule: str
    path: str  # repo-relative, posix separators
    line: int
    col: int
    message: str
    symbol: str = ""
    #: The waiver reason when a ``# cdas-lint: disable=`` comment covers
    #: this finding; ``None`` means not waived.
    waiver: str | None = None

    @property
    def waived(self) -> bool:
        return self.waiver is not None

    @property
    def new(self) -> bool:
        """Not waived — the kind that fails the build."""
        return not self.waived

    def with_waiver(self, reason: str) -> "Finding":
        return dataclasses.replace(self, waiver=reason)

    def to_dict(self) -> dict[str, Any]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "symbol": self.symbol,
            "message": self.message,
            "waived": self.waived,
            "waiver": self.waiver,
        }

    def render(self) -> str:
        suffix = f" [waived: {self.waiver}]" if self.waived else ""
        where = f"{self.path}:{self.line}:{self.col}"
        return f"{where} {self.rule} {self.message}{suffix}"


def report_dict(
    findings: list[Finding],
    *,
    checked_files: int,
    rules: dict[str, str],
) -> dict[str, Any]:
    """The machine-readable report (``--json``); schema version 2."""
    by_rule: dict[str, int] = {}
    for finding in findings:
        by_rule[finding.rule] = by_rule.get(finding.rule, 0) + 1
    return {
        "version": 2,
        "tool": "cdas-lint",
        "rules": rules,
        "findings": [f.to_dict() for f in findings],
        "summary": {
            "checked_files": checked_files,
            "total": len(findings),
            "new": sum(1 for f in findings if f.new),
            "waived": sum(1 for f in findings if f.waived),
            "by_rule": dict(sorted(by_rule.items())),
        },
    }
