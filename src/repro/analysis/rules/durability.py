"""CDAS003 — journal-before-apply, flush-before-ack (DESIGN.md §12–13).

Two places own the durability ordering contract:

* ``repro/durability/service.py`` — every override of the journaled
  service subclass that applies a scheduler mutation through its base
  class (``super().submit`` / ``super()._cancel`` /
  ``super().register_tenant``) must emit a journal record
  (``self._observed`` / ``self._append``) **in the same function**.  For
  cancels the record must be written *ahead* of the mutation (a cancel
  has immediate market side effects; an acknowledged cancel must survive
  kill -9).  Submissions validate first and journal before any pump step
  can publish — same-function emission is the static shape of that
  contract.

* ``repro/gateway/routes.py`` — a route that performs a mutating call
  (``.submit(...)`` / ``.cancel(...)``) must flush the journal *after*
  the mutation and before the response leaves (``flush-before-201``):
  a direct ``.flush_journal()`` call, which every gateway service offers
  (a no-op without a journal).

The rule is scoped to those two files on purpose: it encodes *their*
contract, not a generic taint analysis.  Delete the flush in a route and
the lint (and CI) fails; that is the acceptance test.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from typing import TYPE_CHECKING

from repro.analysis.astutil import dotted_name
from repro.analysis.findings import Finding
from repro.analysis.registry import Rule, in_scope

if TYPE_CHECKING:
    from repro.analysis.engine import Module, Project

#: Base-class service calls that mutate scheduler state.
SERVICE_MUTATORS = ("submit", "_cancel", "register_tenant")
#: Mutators whose journal record must be written *ahead* of the call.
WRITE_AHEAD_MUTATORS = ("_cancel",)
#: Journal-emission calls inside the durable service.
JOURNAL_EMITTERS = ("_observed", "_append")

#: Route-level mutating attribute calls.
ROUTE_MUTATORS = ("submit", "cancel")


def _super_call(call: ast.Call) -> str | None:
    """``super().X(...)`` → ``X`` when X is a service mutator."""
    func = call.func
    if (
        isinstance(func, ast.Attribute)
        and func.attr in SERVICE_MUTATORS
        and isinstance(func.value, ast.Call)
        and isinstance(func.value.func, ast.Name)
        and func.value.func.id == "super"
    ):
        return func.attr
    return None


def _journal_emission(call: ast.Call) -> bool:
    name = dotted_name(call.func)
    return name in tuple(f"self.{e}" for e in JOURNAL_EMITTERS)


class DurabilityOrderingRule(Rule):
    id = "CDAS003"
    name = "durability-ordering"
    description = (
        "scheduler mutations must be journaled in the same function "
        "(write-ahead for cancels) and gateway routes must flush the "
        "journal after mutating, before acknowledging"
    )

    def __init__(
        self,
        wrapper_scope: tuple[str, ...] = ("repro/durability/service.py",),
        routes_scope: tuple[str, ...] = ("repro/gateway/routes.py",),
    ) -> None:
        self.wrapper_scope = wrapper_scope
        self.routes_scope = routes_scope
        self.scope = wrapper_scope + routes_scope

    def check_module(self, project: "Project", module: "Module") -> Iterator[Finding]:
        if in_scope(module.relpath, self.wrapper_scope):
            yield from self._check_wrapper(module)
        if in_scope(module.relpath, self.routes_scope):
            yield from self._check_routes(module)

    # -- durable service: journal-before-apply ----------------------------

    def _check_wrapper(self, module: "Module") -> Iterator[Finding]:
        for fn in ast.walk(module.tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            mutations: list[tuple[str, ast.Call]] = []
            emissions: list[ast.Call] = []
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                mutator = _super_call(node)
                if mutator is not None:
                    mutations.append((mutator, node))
                elif _journal_emission(node):
                    emissions.append(node)
            for mutator, call in mutations:
                if not emissions:
                    yield self.finding(
                        module,
                        call.lineno,
                        call.col_offset,
                        f"scheduler mutation super().{mutator}() is not "
                        "dominated by a journal record: no self._observed()/"
                        "self._append() in the same function — journal-"
                        "before-apply (DESIGN.md §12)",
                        symbol=fn.name,
                    )
                    continue
                if mutator in WRITE_AHEAD_MUTATORS and not any(
                    emission.lineno < call.lineno for emission in emissions
                ):
                    yield self.finding(
                        module,
                        call.lineno,
                        call.col_offset,
                        f"write-ahead violation: super().{mutator}() "
                        "runs before any journal record is emitted — a "
                        "cancel's record must be durable before the market "
                        "forfeits (DESIGN.md §12)",
                        symbol=fn.name,
                    )

    # -- gateway routes: flush-before-ack -----------------------------------

    def _check_routes(self, module: "Module") -> Iterator[Finding]:
        for fn in module.tree.body:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            mutations: list[tuple[str, ast.Call]] = []
            flushes: list[ast.Call] = []
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                name = dotted_name(node.func)
                if name is None:
                    continue
                attr = name.rsplit(".", 1)[-1]
                if "." in name and attr in ROUTE_MUTATORS:
                    mutations.append((attr, node))
                elif attr == "flush_journal":
                    flushes.append(node)
            for mutator, call in mutations:
                if not any(flush.lineno > call.lineno for flush in flushes):
                    yield self.finding(
                        module,
                        call.lineno,
                        call.col_offset,
                        f"route mutation .{mutator}() is not followed by a "
                        "journal flush: an acknowledged response must "
                        "survive kill -9 — call service.flush_journal() "
                        "after the mutation and before returning "
                        "(DESIGN.md §13)",
                        symbol=fn.name,
                    )
