"""Shared AST plumbing for the lint rules.

Everything here is pure stdlib-``ast`` bookkeeping: resolving dotted
call names through a module's import aliases.  Rules stay declarative —
they say *which* dotted names are banned — and this module answers
"what is this node, really".
"""

from __future__ import annotations

import ast


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


def dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, ``None`` for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def call_name(call: ast.Call, imports: ImportMap) -> str | None:
    """The resolved dotted name a call targets, or ``None`` if dynamic."""
    dotted = dotted_name(call.func)
    if dotted is None:
        return None
    return imports.resolve(dotted)


def enclosing_symbol(tree: ast.Module, target: ast.AST) -> str:
    """Dotted class/function path enclosing ``target`` (a finding's symbol)."""
    path: list[str] = []

    def visit(node: ast.AST, trail: list[str]) -> bool:
        if node is target:
            path.extend(trail)
            return True
        name = getattr(node, "name", None)
        scoped = isinstance(
            node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        )
        next_trail = trail + [name] if scoped and name else trail
        for child in ast.iter_child_nodes(node):
            if visit(child, next_trail):
                return True
        return False

    visit(tree, [])
    return ".".join(path)
