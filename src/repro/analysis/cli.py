"""Command-line front end: ``cdas-repro lint`` / ``python -m repro.analysis``.

Exit codes: ``0`` — no new findings (waived ones may exist and are
reported); ``1`` — at least one new finding; ``2`` — usage error (bad
paths).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from repro.analysis.engine import LintResult, run_lint
from repro.analysis.findings import report_dict
from repro.analysis.registry import default_rules, rule_catalog


def find_root(start: Path | None = None) -> Path:
    """The lint root: the nearest ancestor holding ``pyproject.toml``.

    Falls back to the package's own checkout (``src/repro`` → repo root)
    so ``python -m repro.analysis`` works from any cwd inside the repo,
    then to the cwd itself.
    """
    candidates = [start or Path.cwd(), Path(__file__).resolve()]
    for base in candidates:
        for directory in (base, *base.parents):
            if (directory / "pyproject.toml").is_file():
                return directory
    return Path.cwd()


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to lint (default: the src/ tree under --root)",
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=None,
        help="repo root (default: nearest ancestor with pyproject.toml)",
    )
    parser.add_argument(
        "--json",
        metavar="FILE",
        default=None,
        help="write the machine-readable report to FILE ('-' for stdout)",
    )
    parser.add_argument(
        "--markdown",
        metavar="FILE",
        default=None,
        help="write a GitHub-flavoured summary table to FILE ('-' for stdout)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress per-finding lines; print only the summary",
    )


def _markdown(result: LintResult) -> str:
    lines = [
        "### cdas-lint",
        "",
        "| rule | findings | new | waived |",
        "| --- | ---: | ---: | ---: |",
    ]
    by_rule: dict[str, list] = {}
    for finding in result.findings:
        by_rule.setdefault(finding.rule, []).append(finding)
    for rule_id in sorted(set(by_rule) | set(result.rules)):
        bucket = by_rule.get(rule_id, [])
        lines.append(
            f"| {rule_id} | {len(bucket)} "
            f"| {sum(1 for f in bucket if f.new)} "
            f"| {sum(1 for f in bucket if f.waived)} |"
        )
    lines.append("")
    lines.append(
        f"**{result.checked_files} files checked — "
        f"{len(result.new_findings)} new finding(s).**"
    )
    return "\n".join(lines) + "\n"


def _emit(text: str, destination: str) -> None:
    if destination == "-":
        sys.stdout.write(text)
    else:
        Path(destination).write_text(text, encoding="utf-8")


def run(args: argparse.Namespace) -> int:
    if args.list_rules:
        for rule_id, blurb in sorted(rule_catalog(default_rules()).items()):
            print(f"{rule_id}  {blurb}")
        return 0

    root = (args.root or find_root()).resolve()

    paths = [p if p.is_absolute() else root / p for p in args.paths] or None
    if paths is not None:
        missing = [p for p in paths if not p.exists()]
        if missing:
            print(
                f"cdas-lint: path(s) do not exist: {[str(p) for p in missing]}",
                file=sys.stderr,
            )
            return 2

    result = run_lint(root, paths=paths)

    if args.json:
        report = report_dict(
            result.findings,
            checked_files=result.checked_files,
            rules=result.rules,
        )
        _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", args.json)
    if args.markdown:
        _emit(_markdown(result), args.markdown)

    # When a structured report rides stdout, the human-facing lines move
    # to stderr so `--json -` stays parseable end-to-end.
    human = sys.stderr if "-" in (args.json, args.markdown) else sys.stdout
    if not args.quiet:
        for finding in result.findings:
            print(finding.render(), file=human)
    new = len(result.new_findings)
    waived = sum(1 for f in result.findings if f.waived)
    print(
        f"cdas-lint: {len(result.findings)} finding(s): {new} new, "
        f"{waived} waived ({result.checked_files} files checked)",
        file=human,
    )
    return result.exit_code


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="cdas-lint",
        description=(
            "AST-based invariant checker for the CDAS reproduction: "
            "determinism (CDAS001) and async purity (CDAS002).  Durability "
            "ordering, codec closure and protocol conformance are runtime "
            "tests (DESIGN.md §15)."
        ),
    )
    add_arguments(parser)
    return run(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
