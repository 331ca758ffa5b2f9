"""The lint engine: discover, parse, run rules, apply waivers.

The engine is deliberately filesystem-shaped rather than import-shaped:
it parses source text with :mod:`ast` and never imports the code under
analysis, so it can lint a tree that doesn't import (that's often
exactly when you want a linter) and fixture tests can lint synthetic
trees under a tmp dir.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis.astutil import ImportMap
from repro.analysis.findings import ENGINE_RULE, Finding
from repro.analysis.registry import Rule, default_rules, rule_catalog
from repro.analysis.waivers import WaiverSet, scan_waivers

#: Directory names never descended into during discovery.
_SKIP_DIRS = {
    "__pycache__", ".git", ".hg", ".venv", "venv", "node_modules",
    ".mypy_cache", ".ruff_cache", ".pytest_cache", "build", "dist",
}


@dataclass
class Module:
    """One parsed source file plus its lint-relevant side tables."""

    path: Path
    relpath: str  # posix, relative to the lint root
    source: str
    tree: ast.Module
    imports: ImportMap
    waivers: WaiverSet


@dataclass
class Project:
    """Every parsed module under one root, plus parse-failure findings."""

    root: Path
    modules: list[Module] = field(default_factory=list)
    parse_failures: list[Finding] = field(default_factory=list)


def _discover(root: Path, paths: Sequence[Path] | None) -> list[Path]:
    if paths:
        out: list[Path] = []
        for path in paths:
            if path.is_dir():
                out.extend(
                    p for p in sorted(path.rglob("*.py"))
                    if not any(part in _SKIP_DIRS for part in p.parts)
                )
            else:
                out.append(path)
        return out
    # Default layout: lint the src/ tree when there is one, else the root.
    base = root / "src" if (root / "src").is_dir() else root
    return [
        p for p in sorted(base.rglob("*.py"))
        if not any(part in _SKIP_DIRS for part in p.parts)
    ]


def load_project(root: Path, paths: Sequence[Path] | None = None) -> Project:
    """Parse every discovered file into a :class:`Project`."""
    root = root.resolve()
    project = Project(root=root)
    for path in _discover(root, paths):
        path = path.resolve()
        try:
            relpath = path.relative_to(root).as_posix()
        except ValueError:
            relpath = path.as_posix()
        try:
            source = path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(path))
        except (OSError, SyntaxError, ValueError) as exc:
            project.parse_failures.append(
                Finding(
                    rule=ENGINE_RULE,
                    path=relpath,
                    line=getattr(exc, "lineno", 0) or 0,
                    col=getattr(exc, "offset", 0) or 0,
                    message=f"file cannot be parsed: {exc}",
                )
            )
            continue
        project.modules.append(
            Module(
                path=path,
                relpath=relpath,
                source=source,
                tree=tree,
                imports=ImportMap(tree),
                waivers=scan_waivers(source, relpath),
            )
        )
    return project


@dataclass
class LintResult:
    """Everything one lint run produced."""

    findings: list[Finding]
    checked_files: int
    rules: dict[str, str]

    @property
    def new_findings(self) -> list[Finding]:
        return [f for f in self.findings if f.new]

    @property
    def exit_code(self) -> int:
        return 1 if self.new_findings else 0


def run_lint(
    root: Path,
    *,
    paths: Sequence[Path] | None = None,
    rules: Iterable[Rule] | None = None,
) -> LintResult:
    """Lint ``root`` (or explicit ``paths``) and post-process findings.

    Pipeline: run every rule → attach waivers (a finding covered by a
    reasoned ``# cdas-lint: disable=`` comment is kept but marked).
    Waiver-syntax problems and unparseable files surface as
    :data:`~repro.analysis.findings.ENGINE_RULE` findings, which can't
    be waived — fix the comment instead.
    """
    active = tuple(rules) if rules is not None else default_rules()
    project = load_project(root, paths)
    waiver_sets = {module.relpath: module.waivers for module in project.modules}

    raw: list[Finding] = list(project.parse_failures)
    for module in project.modules:
        raw.extend(module.waivers.problems)
    for rule in active:
        raw.extend(rule.check_project(project))

    processed: list[Finding] = []
    for finding in raw:
        if finding.rule != ENGINE_RULE:
            waiver_set = waiver_sets.get(finding.path)
            waiver = waiver_set.lookup(finding.rule, finding.line) if waiver_set else None
            if waiver is not None:
                finding = finding.with_waiver(waiver.reason)
        processed.append(finding)

    processed.sort(key=lambda f: (f.path, f.line, f.col, f.rule, f.message))
    return LintResult(
        findings=processed,
        checked_files=len(project.modules),
        rules=rule_catalog(active),
    )
