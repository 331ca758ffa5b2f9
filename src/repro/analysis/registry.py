"""Rule base class and the registry the engine and CLI enumerate.

A rule declares an id (``CDASnnn``), a one-line contract, and a path
scope; the engine hands it parsed modules (or, for whole-tree rules, the
whole :class:`~repro.analysis.engine.Project`).  Rules are instantiated
with their real-repo configuration by default, but every knob is a
constructor argument so fixture tests can point the same logic at
synthetic trees.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from typing import TYPE_CHECKING

from repro.analysis.findings import Finding

if TYPE_CHECKING:
    from repro.analysis.engine import Module, Project


def in_scope(relpath: str, prefixes: Iterable[str]) -> bool:
    """True when ``relpath`` falls under one of the scope ``prefixes``.

    Prefixes are package-relative (``"repro/engine/"`` or
    ``"repro/amt/market.py"``) and match on a path-segment boundary, so
    the same rule configuration covers both the real tree
    (``src/repro/engine/scheduler.py``) and fixture trees
    (``repro/engine/scheduler.py`` under a tmp dir).
    """
    probe = "/" + relpath.replace("\\", "/")
    return any("/" + prefix in probe for prefix in prefixes)


class Rule:
    """One invariant.  Subclasses set ``id``/``name``/``description``."""

    id: str = "CDAS999"
    name: str = "unnamed"
    description: str = ""
    #: Path prefixes (see :func:`in_scope`) this rule examines.
    scope: tuple[str, ...] = ()

    def applies_to(self, module: "Module") -> bool:
        return in_scope(module.relpath, self.scope)

    def check_project(self, project: "Project") -> Iterator[Finding]:
        """Default: fan out to :meth:`check_module` over in-scope modules."""
        for module in project.modules:
            if self.applies_to(module):
                yield from self.check_module(project, module)

    def check_module(self, project: "Project", module: "Module") -> Iterator[Finding]:
        return iter(())

    def finding(
        self, module: "Module", line: int, col: int, message: str, symbol: str = ""
    ) -> Finding:
        return Finding(
            rule=self.id,
            path=module.relpath,
            line=line,
            col=col,
            message=message,
            symbol=symbol,
        )


def default_rules() -> tuple[Rule, ...]:
    """The production rule set, in id order."""
    from repro.analysis.rules.asyncpurity import AsyncPurityRule
    from repro.analysis.rules.determinism import DeterminismRule

    return (DeterminismRule(), AsyncPurityRule())


def rule_catalog(rules: Iterable[Rule]) -> dict[str, str]:
    """Rule id → one-line description (for reports and ``--list-rules``)."""
    return {rule.id: f"{rule.name}: {rule.description}" for rule in rules}
