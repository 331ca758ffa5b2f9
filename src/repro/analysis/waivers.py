"""Waiver comments: per-line and per-file rule suppression, with reasons.

Syntax (anywhere a comment is legal)::

    # cdas-lint: disable=CDAS001 why this is safe
    # cdas-lint: disable=CDAS001,CDAS002 one reason covering both
    # cdas-lint: disable-file=CDAS002 applies to the whole file

A waiver covers findings on its own line **or the line directly below
it** (so a comment can sit above a long statement).  The reason is
mandatory: an undocumented suppression is itself a finding
(:data:`~repro.analysis.findings.ENGINE_RULE`), because the whole point
of the waiver channel is that every exemption carries its argument in
the diff where reviewers see it.  So is a waiver naming a rule the
catalogue does not have: once a rule is retired, its leftover waivers
must go too rather than rot unseen.

Comments are found with :mod:`tokenize`, not regexes, so waiver-shaped
text inside string literals never counts.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass

from repro.analysis.findings import ENGINE_RULE, Finding
from repro.analysis.registry import default_rules

#: A comment opens the waiver channel only when it *starts* with the
#: marker — prose that merely mentions cdas-lint stays prose.
_MARKER_RE = re.compile(r"^#+\s*cdas-lint:")
_WAIVER_RE = re.compile(
    r"^#+\s*cdas-lint:\s*(?P<kind>disable-file|disable)\s*"
    r"(?:=\s*(?P<rules>[A-Za-z0-9]+(?:\s*,\s*[A-Za-z0-9]+)*))?"
    r"(?:\s+(?P<reason>\S.*?))?\s*$"
)


@dataclass(frozen=True)
class Waiver:
    line: int
    rules: tuple[str, ...]
    reason: str
    file_level: bool


@dataclass
class WaiverSet:
    """All waivers of one file, plus the malformed-comment findings."""

    waivers: list[Waiver]
    problems: list[Finding]

    def lookup(self, rule: str, line: int) -> Waiver | None:
        """The waiver covering ``rule`` at ``line``, if any."""
        for waiver in self.waivers:
            if rule not in waiver.rules:
                continue
            if waiver.file_level or waiver.line in (line, line - 1):
                return waiver
        return None


def scan_waivers(source: str, path: str) -> WaiverSet:
    """Extract every waiver comment (and malformed attempt) in ``source``."""
    waivers: list[Waiver] = []
    problems: list[Finding] = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        # The engine reports unparseable files separately; nothing to do.
        return WaiverSet([], [])
    for token in tokens:
        if token.type != tokenize.COMMENT or not _MARKER_RE.match(token.string):
            continue
        line = token.start[0]
        match = _WAIVER_RE.match(token.string)
        if match is None:
            problems.append(
                Finding(
                    rule=ENGINE_RULE,
                    path=path,
                    line=line,
                    col=token.start[1],
                    message=(
                        "unrecognised cdas-lint comment; expected "
                        "'# cdas-lint: disable=CDASnnn <reason>'"
                    ),
                )
            )
            continue
        rules = tuple(
            rule.strip() for rule in (match.group("rules") or "").split(",") if rule.strip()
        )
        reason = (match.group("reason") or "").strip()
        known = {rule.id for rule in default_rules()}
        bad_ids = [rule for rule in rules if rule not in known]
        if not rules or bad_ids:
            problems.append(
                Finding(
                    rule=ENGINE_RULE,
                    path=path,
                    line=line,
                    col=token.start[1],
                    message=(
                        f"waiver names unknown rule id(s) {bad_ids}; "
                        f"known: {', '.join(sorted(known))}"
                        if bad_ids
                        else "waiver names no rule ids (disable=CDASnnn[,CDASnnn...])"
                    ),
                )
            )
            continue
        if not reason:
            problems.append(
                Finding(
                    rule=ENGINE_RULE,
                    path=path,
                    line=line,
                    col=token.start[1],
                    message=(
                        f"waiver for {','.join(rules)} has no reason; every "
                        "suppression must say why it is safe"
                    ),
                )
            )
            continue
        waivers.append(
            Waiver(
                line=line,
                rules=rules,
                reason=reason,
                file_level=match.group("kind") == "disable-file",
            )
        )
    return WaiverSet(waivers, problems)
