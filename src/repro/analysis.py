"""cdas-lint: static enforcement of what a runtime test cannot see.

A self-contained, stdlib-``ast`` checker with two codebase-specific
rules (DESIGN.md §15).  Most of the reproduction's correctness story —
bit-identical replay, journal-before-apply durability, codec closure,
protocol conformance — is enforced by behavioural tests.  Two contracts
are about code that no test has to call yet, so they stay static:

* **CDAS001 determinism** — no wall-clock/ambient-entropy calls in the
  sans-IO core; randomness flows through named substreams.
* **CDAS002 async purity** — no blocking calls inside ``async def``
  bodies on the service/gateway/cluster event loop.

The checker parses source text and never imports the code under
analysis, so it can lint a tree that does not import (often exactly
when a linter is wanted) and fixture tests can lint synthetic trees
under a tmp dir.  There is no waiver channel: a finding is fixed, or the
rule's scope or table changes in the same diff, with its reason beside
the entry.  Run it as ``cdas-repro lint`` or ``python -m repro.analysis``.

Exit codes: ``0`` — no findings; ``1`` — at least one finding; ``2`` —
a path given on the command line does not exist.
"""

from __future__ import annotations

import argparse
import ast
import sys
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "ASYNC_SCOPE",
    "BANNED_CALLS",
    "BANNED_MODULES",
    "BLOCKING_CALLS",
    "BLOCKING_MODULES",
    "CORE_SCOPE",
    "ENGINE_RULE",
    "SEED_REQUIRED",
    "Finding",
    "ImportMap",
    "LintResult",
    "add_arguments",
    "check_async_purity",
    "check_determinism",
    "enclosing_symbol",
    "find_root",
    "main",
    "run",
    "run_lint",
]

#: A file that cannot be read or parsed is reported under this
#: pseudo-rule, so it fails the run like a real rule finding.
ENGINE_RULE = "CDAS000"


@dataclass(frozen=True)
class Finding:
    """One rule violation, pinned to a file/line/symbol."""

    rule: str
    path: str  # relative to the lint root, posix separators
    line: int
    col: int
    message: str
    symbol: str = ""

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col} {self.rule} {self.message}"


# ---------------------------------------------------------------------------
# Import-alias resolution: the rules say *which* dotted names are banned,
# and this answers "what is this node, really".
# ---------------------------------------------------------------------------


class ImportMap:
    """Alias → canonical dotted path, from a module's import statements.

    ``import numpy as np`` maps ``np`` → ``numpy``; ``from datetime
    import datetime as dt`` maps ``dt`` → ``datetime.datetime``.
    Relative imports keep their leading dots (they can never collide
    with the absolute stdlib names the rules ban).
    """

    def __init__(self, tree: ast.Module) -> None:
        self._aliases: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    self._aliases[name] = target
            elif isinstance(node, ast.ImportFrom):
                prefix = "." * node.level + (node.module or "")
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    name = alias.asname or alias.name
                    self._aliases[name] = f"{prefix}.{alias.name}" if prefix else alias.name

    def resolve(self, dotted: str) -> str:
        """Expand the first segment of ``dotted`` through the alias map."""
        head, _, rest = dotted.partition(".")
        target = self._aliases.get(head)
        if target is None:
            return dotted
        return f"{target}.{rest}" if rest else target

    def call_name(self, call: ast.Call) -> str | None:
        """The resolved dotted name a call targets, or ``None`` if dynamic."""
        parts: list[str] = []
        node = call.func
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(node.id)
        return self.resolve(".".join(reversed(parts)))


def enclosing_symbol(tree: ast.Module, target: ast.AST) -> str:
    """Dotted class/function path enclosing ``target`` (a finding's symbol)."""
    path: list[str] = []

    def visit(node: ast.AST, trail: list[str]) -> bool:
        if node is target:
            path.extend(trail)
            return True
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            trail = trail + [node.name]
        return any(visit(child, trail) for child in ast.iter_child_nodes(node))

    visit(tree, [])
    return ".".join(path)


def _banned_module(name: str, modules: dict[str, str]) -> str | None:
    """The reason when ``name`` calls into one of ``modules`` (not the bare name)."""
    head = name.split(".", 1)[0]
    return modules.get(head) if name != head else None


# ---------------------------------------------------------------------------
# CDAS001 — the sans-IO core must be bit-replayable.
#
# DESIGN.md §9/§11 pin the engine's replay story: given one seed, the
# scheduler, aggregation core, and simulated market reproduce results bit
# for bit across runs and interpreter versions.  That only holds while no
# code inside the core reads ambient entropy or the wall clock.  All
# randomness must flow through named substreams (repro.util.rng), which
# are derived from the run seed.
#
# The rule bans *calls* to ambient-entropy and wall-clock-reading
# functions inside the core scope.  time.monotonic/perf_counter stay
# legal (timeout plumbing and profiling instrumentation measure
# wall-clock without feeding results back into decisions), as do *seeded*
# numpy constructions — np.random.Generator(bitgen), default_rng(seed),
# PCG64(seed).  The seedless forms of those constructors pull OS entropy
# and are banned.
# ---------------------------------------------------------------------------

#: Where the determinism contract holds (DESIGN.md §11): the engine and
#: aggregation core and the simulated market.
CORE_SCOPE = (
    "repro/engine/",
    "repro/core/",
    "repro/amt/market.py",
)

#: Dotted names whose *call* is nondeterministic, whatever the arguments.
BANNED_CALLS = {
    "time.time": "reads the wall clock",
    "time.time_ns": "reads the wall clock",
    "datetime.datetime.now": "reads the wall clock",
    "datetime.datetime.utcnow": "reads the wall clock",
    "datetime.datetime.today": "reads the wall clock",
    "datetime.date.today": "reads the wall clock",
    "os.urandom": "draws OS entropy",
    "uuid.uuid1": "draws host state",
    "uuid.uuid4": "draws OS entropy",
}

#: Modules whose every function call is banned in the core (their whole
#: point is ambient, unseeded randomness).
BANNED_MODULES = {
    "random": "the global `random` module is seeded from OS entropy",
    "secrets": "`secrets` draws OS entropy by design",
}

#: numpy constructors that are deterministic *with* a seed argument but
#: pull OS entropy when called bare.
SEED_REQUIRED = {
    "numpy.random.default_rng",
    "numpy.random.PCG64",
    "numpy.random.Philox",
    "numpy.random.SFC64",
    "numpy.random.MT19937",
    "numpy.random.SeedSequence",
}

#: Allowed numpy.random names (pure re-wrappings of existing state).
_NUMPY_ALLOWED = {"numpy.random.Generator", "numpy.random.BitGenerator"}


def _nondeterminism(name: str, call: ast.Call) -> str | None:
    reason = BANNED_CALLS.get(name) or _banned_module(name, BANNED_MODULES)
    if reason is not None or not name.startswith("numpy.random."):
        return reason
    if name in _NUMPY_ALLOWED:
        return None
    if name in SEED_REQUIRED:
        if call.args or call.keywords:
            return None
        return "pulls OS entropy when constructed without a seed"
    return "uses numpy's global/convenience RNG surface instead of a named substream"


def check_determinism(path: str, tree: ast.Module, imports: ImportMap) -> Iterator[Finding]:
    """CDAS001: no wall-clock or ambient-entropy call in ``tree``."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = imports.call_name(node)
        reason = None if name is None else _nondeterminism(name, node)
        if reason is None:
            continue
        yield Finding(
            "CDAS001",
            path,
            node.lineno,
            node.col_offset,
            f"call to {name}() {reason}; the sans-IO core must stay "
            "bit-replayable — derive values from the run seed or a "
            "named substream instead",
            symbol=enclosing_symbol(tree, node),
        )


# ---------------------------------------------------------------------------
# CDAS002 — async bodies must never block the event loop.
#
# The async front door (DESIGN.md §8, §13–14) multiplexes every service,
# gateway request, and shard RPC onto one event loop; one blocking call
# in one coroutine stalls *every* tenant's progress stream.  "Engineering
# Crowdsourced Stream Processing Systems" catalogues exactly this fault
# class (blocked event loops starving collection).  The engine's answer
# is structural: coroutines only await — wall-clock waiting happens in
# asyncio.sleep/wait_for, file durability goes through the journal store
# off the driver's hot loop, and subprocess/socket work rides asyncio's
# own primitives.
#
# The rule flags direct calls to known-blocking stdlib entry points
# inside `async def` bodies in the async scope.  Nested synchronous defs
# are *not* scanned (they may be destined for executors or callbacks);
# an `async def` nested anywhere resumes scanning under its own name.
# ---------------------------------------------------------------------------

#: Where the event-loop purity contract holds: the async service driver,
#: the HTTP gateway, and the multi-process cluster layer.
ASYNC_SCOPE = (
    "repro/engine/aio.py",
    "repro/gateway/",
    "repro/cluster/",
)

#: Dotted call → why it blocks.  Matched after import-alias resolution.
BLOCKING_CALLS = {
    "time.sleep": "sleeps the whole event loop (use `await asyncio.sleep`)",
    "open": "synchronous file I/O blocks the loop (journal writes belong "
    "in the JournalStore, off the driver's await points)",
    "input": "blocks on stdin",
    "socket.socket": "raw blocking socket (use asyncio streams)",
    "socket.create_connection": "blocking connect (use asyncio.open_connection)",
    "socket.getaddrinfo": "synchronous DNS lookup (use loop.getaddrinfo)",
    "urllib.request.urlopen": "blocking HTTP round trip",
    "os.system": "blocks until the child exits",
    "os.popen": "blocks on the child's pipe",
    "os.wait": "blocks until a child exits",
    "os.waitpid": "blocks until the child exits",
}

#: Whole modules that are blocking by construction inside a coroutine.
BLOCKING_MODULES = {
    "subprocess": "subprocess calls block (or fork) on the loop thread",
    "requests": "requests is synchronous HTTP",
}


def _blocking(name: str) -> str | None:
    return BLOCKING_CALLS.get(name) or _banned_module(name, BLOCKING_MODULES)


def check_async_purity(path: str, tree: ast.Module, imports: ImportMap) -> Iterator[Finding]:
    """CDAS002: no blocking call on the loop inside an ``async def``.

    One recursive walk carries the innermost enclosing coroutine's name
    (``None`` outside one, or inside a nested sync ``def``), so every
    call is examined exactly once.
    """

    def walk(node: ast.AST, coroutine: str | None) -> Iterator[Finding]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.AsyncFunctionDef):
                yield from walk(child, child.name)
                continue
            if isinstance(child, ast.FunctionDef):
                # A sync helper may run in an executor or a callback.
                yield from walk(child, None)
                continue
            if coroutine is not None and isinstance(child, ast.Call):
                name = imports.call_name(child)
                reason = None if name is None else _blocking(name)
                if reason is not None:
                    yield Finding(
                        "CDAS002",
                        path,
                        child.lineno,
                        child.col_offset,
                        f"blocking call {name}() inside `async def {coroutine}`: {reason}",
                        symbol=coroutine,
                    )
            yield from walk(child, coroutine)

    yield from walk(tree, None)


# ---------------------------------------------------------------------------
# Discover, parse, check.
# ---------------------------------------------------------------------------

#: Directory names never descended into during discovery.
_SKIP_DIRS = {
    "__pycache__", ".git", ".hg", ".venv", "venv", "node_modules",
    ".mypy_cache", ".ruff_cache", ".pytest_cache", "build", "dist",
}


def in_scope(relpath: str, prefixes: Sequence[str]) -> bool:
    """True when ``relpath`` falls under one of the scope ``prefixes``.

    Prefixes are package-relative (``"repro/engine/"`` or
    ``"repro/amt/market.py"``) and match on a path-segment boundary, so
    the same scope covers both the real tree
    (``src/repro/engine/scheduler.py``) and fixture trees
    (``repro/engine/scheduler.py`` under a tmp dir).
    """
    probe = "/" + relpath.replace("\\", "/")
    return any("/" + prefix in probe for prefix in prefixes)


def _discover(root: Path, paths: Sequence[Path] | None) -> list[Path]:
    # Default layout: lint the src/ tree when there is one, else the root.
    bases = list(paths) if paths else [root / "src" if (root / "src").is_dir() else root]
    out: list[Path] = []
    for base in bases:
        if not base.is_dir():
            out.append(base)
            continue
        out.extend(
            p for p in sorted(base.rglob("*.py"))
            if not any(part in _SKIP_DIRS for part in p.parts)
        )
    return out


@dataclass
class LintResult:
    """Everything one lint run produced."""

    findings: list[Finding]
    checked_files: int

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0


def run_lint(root: Path, paths: Sequence[Path] | None = None) -> LintResult:
    """Lint the ``src/`` tree under ``root`` (or explicit ``paths``)."""
    root = root.resolve()
    findings: list[Finding] = []
    checked = 0
    for path in _discover(root, paths):
        path = path.resolve()
        try:
            relpath = path.relative_to(root).as_posix()
        except ValueError:
            relpath = path.as_posix()
        try:
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        except (OSError, SyntaxError, ValueError) as exc:
            findings.append(
                Finding(
                    ENGINE_RULE,
                    relpath,
                    getattr(exc, "lineno", 0) or 0,
                    getattr(exc, "offset", 0) or 0,
                    f"file cannot be parsed: {exc}",
                )
            )
            continue
        checked += 1
        imports = ImportMap(tree)
        if in_scope(relpath, CORE_SCOPE):
            findings.extend(check_determinism(relpath, tree, imports))
        if in_scope(relpath, ASYNC_SCOPE):
            findings.extend(check_async_purity(relpath, tree, imports))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule, f.message))
    return LintResult(findings=findings, checked_files=checked)


# ---------------------------------------------------------------------------
# Command line: `cdas-repro lint` / `python -m repro.analysis`.
# ---------------------------------------------------------------------------


def find_root(start: Path | None = None) -> Path:
    """The lint root: the nearest ancestor holding ``pyproject.toml``.

    Falls back to the package's own checkout (``src/repro`` → repo root)
    so ``python -m repro.analysis`` works from any cwd inside the repo,
    then to the cwd itself.
    """
    for base in (start or Path.cwd(), Path(__file__).resolve()):
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


def run(args: argparse.Namespace) -> int:
    root: Path = (args.root or find_root()).resolve()
    paths = [p if p.is_absolute() else root / p for p in args.paths]
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        print(f"cdas-lint: path(s) do not exist: {missing}", file=sys.stderr)
        return 2
    result = run_lint(root, paths or None)
    for finding in result.findings:
        print(finding.render())
    print(f"cdas-lint: {len(result.findings)} finding(s) ({result.checked_files} files checked)")
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


if __name__ == "__main__":
    raise SystemExit(main())
