"""CDAS005 — protocol implementors must keep method/arity parity.

Protocols (``MarketBackend``, ``JournalStore``) are duck-typed seams: an
implementor that drifts (renamed method, changed arity) fails at runtime
in whichever code path hits it first.  Every class in the protocol's
scope that defines the protocol's *anchor* method must provide all
protocol members with the same kind (callable vs property/attribute)
and a compatible signature: equal required positional arity and equal
keyword-only name sets.  Async-ness may differ.

The gateway's two service flavours (:class:`AsyncSchedulerService`,
:class:`RemoteShardService`) are not checked here: the gateway contract
test drives both through every route and compares the responses.

Findings anchor on the implementor, where the fix (or the reasoned
waiver) belongs.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.analysis.astutil import MemberSig, class_members, find_class
from repro.analysis.findings import Finding
from repro.analysis.registry import Rule, in_scope

if TYPE_CHECKING:
    from repro.analysis.engine import Module, Project


@dataclass(frozen=True)
class ProtocolSpec:
    """A Protocol plus where its implementors live.

    ``anchor`` is the method whose presence marks a class as an
    implementor (``publish`` for market backends, ``append`` for journal
    stores) — duck-typed protocols have no explicit subclassing to key on.
    """

    protocol: tuple[str, str]
    anchor: str
    scope: tuple[str, ...]


#: Protocols whose implementors are found by anchor method.
PROTOCOLS = (
    ProtocolSpec(
        protocol=("repro/amt/backend.py", "MarketBackend"),
        anchor="publish",
        scope=("repro/amt/",),
    ),
    ProtocolSpec(
        protocol=("repro/durability/journal.py", "JournalStore"),
        anchor="append",
        scope=("repro/durability/",),
    ),
)


def _compare(proto: MemberSig, impl: MemberSig) -> list[str]:
    """Human-readable mismatch descriptions (empty = parity holds)."""
    problems: list[str] = []
    if proto.kind != impl.kind:
        problems.append(
            f"kind mismatch: protocol declares a {proto.kind}, "
            f"implementor has a {impl.kind}"
        )
        return problems
    if proto.kind != "method":
        return problems
    if proto.required_pos != impl.required_pos:
        problems.append(
            f"required positional arity differs: protocol takes "
            f"{proto.required_pos}, implementor takes {impl.required_pos}"
        )
    missing = set(proto.kwonly) - set(impl.kwonly)
    extra = set(impl.kwonly) - set(proto.kwonly)
    if missing:
        problems.append(
            f"kwonly parameter(s) {sorted(missing)} missing on the implementor"
        )
    if extra:
        problems.append(
            f"kwonly parameter(s) {sorted(extra)} only exist on the implementor"
        )
    return problems


class SeamParityRule(Rule):
    id = "CDAS005"
    name = "seam-parity"
    description = (
        "protocol implementors (market backends, journal stores) keep "
        "method-name and arity parity with their protocol"
    )

    def __init__(self, protocols: tuple[ProtocolSpec, ...] = PROTOCOLS) -> None:
        self.protocols = protocols
        self.scope = tuple({spec.protocol[0] for spec in protocols})

    def check_project(self, project: "Project") -> Iterator[Finding]:
        for spec in self.protocols:
            yield from self._check_protocol(project, spec)

    # -- protocol conformance ---------------------------------------------------

    def _check_protocol(self, project: "Project", spec: ProtocolSpec) -> Iterator[Finding]:
        proto_module = project.find(spec.protocol[0])
        if proto_module is None:
            return
        proto_cls = find_class(proto_module.tree, spec.protocol[1])
        if proto_cls is None:
            yield self.finding(
                proto_module,
                1,
                0,
                f"protocol class {spec.protocol[1]} not found in "
                f"{proto_module.relpath} — update the CDAS005 protocol table",
                symbol=spec.protocol[1],
            )
            return
        proto_members = {
            name: sig
            for name, sig in class_members(proto_cls).items()
            if not name.startswith("_")
        }
        for module in project.modules:
            if not in_scope(module.relpath, spec.scope):
                continue
            for node in module.tree.body:
                if not isinstance(node, ast.ClassDef) or node.name == spec.protocol[1]:
                    continue
                bases = {b.id for b in node.bases if isinstance(b, ast.Name)}
                if "Protocol" in bases or spec.protocol[1] in bases:
                    continue  # the protocol itself / an explicit refinement
                members = class_members(node)
                if spec.anchor not in members:
                    continue
                for name, proto_sig in proto_members.items():
                    impl = members.get(name)
                    if impl is None:
                        yield self.finding(
                            module,
                            node.lineno,
                            node.col_offset,
                            f"{node.name} implements the "
                            f"{spec.protocol[1]} protocol (defines "
                            f"{spec.anchor!r}) but is missing {name!r} "
                            f"({proto_sig.describe()})",
                            symbol=f"{node.name}.{name}",
                        )
                        continue
                    problems = _compare(proto_sig, impl)
                    if problems:
                        yield self.finding(
                            module,
                            impl.line,
                            0,
                            f"{node.name}.{name} breaks "
                            f"{spec.protocol[1]} conformance: "
                            + "; ".join(problems)
                            + f" (protocol: {proto_sig.describe()}; "
                            f"implementor: {impl.describe()})",
                            symbol=f"{node.name}.{name}",
                        )
