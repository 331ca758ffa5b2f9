"""CDAS005 — duck-typed seams must keep method/arity parity.

The gateway serves ``/v1`` against *either* an in-process
:class:`AsyncSchedulerService` or the cluster layer's
:class:`RemoteShardService` (DESIGN.md §13–14) — there is no shared base
class, only a duck-typed contract.  Their query handles need no check:
both subclass :class:`~repro.engine.aio.AsyncHandleBase`, which defines
the handle surface once.  Protocols (``MarketBackend``, ``JournalStore``)
carry the same risk as the service seam: an implementor that drifts
(renamed method, changed arity) fails at runtime in whichever code path
hits it first.

Two checks:

* **Seam pairs** — for each configured (reference, mirror, members)
  triple, every contract member must exist on both classes with the same
  kind (callable vs property/attribute) and a compatible signature:
  equal required positional arity and equal keyword-only name sets.
  Async-ness may differ (the gateway's ``_maybe_await`` seam exists for
  exactly that).
* **Protocol conformance** — every class in the protocol's scope that
  defines the protocol's *anchor* method must provide all protocol
  members with compatible signatures.

Findings anchor on the mirror/implementor, where the fix (or the
reasoned waiver) belongs.
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
class SeamPair:
    """A duck-typing contract between two concrete classes."""

    reference: tuple[str, str]  # (module suffix, class name)
    mirror: tuple[str, str]
    members: tuple[str, ...]


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


#: The §13–14 service seams the gateway duck-types.
SEAM_PAIRS = (
    SeamPair(
        reference=("repro/engine/aio.py", "AsyncSchedulerService"),
        mirror=("repro/cluster/router.py", "RemoteShardService"),
        members=(
            "register_tenant", "plan", "preadmit", "submit",
            "handles", "idle", "steps_taken",
        ),
    ),
)

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


def _compare(member: str, ref: MemberSig, mir: MemberSig) -> list[str]:
    """Human-readable mismatch descriptions (empty = parity holds)."""
    problems: list[str] = []
    if ref.kind != mir.kind:
        problems.append(
            f"kind mismatch: reference is a {ref.kind}, mirror is a {mir.kind}"
        )
        return problems
    if ref.kind != "method":
        return problems
    if ref.required_pos != mir.required_pos:
        problems.append(
            f"required positional arity differs: reference takes "
            f"{ref.required_pos}, mirror takes {mir.required_pos}"
        )
    missing = set(ref.kwonly) - set(mir.kwonly)
    extra = set(mir.kwonly) - set(ref.kwonly)
    if missing:
        problems.append(
            f"kwonly parameter(s) {sorted(missing)} missing on the mirror"
        )
    if extra:
        problems.append(
            f"kwonly parameter(s) {sorted(extra)} only exist on the mirror"
        )
    return problems


class SeamParityRule(Rule):
    id = "CDAS005"
    name = "seam-parity"
    description = (
        "the async/remote service seam and protocol implementors keep "
        "method-name and arity parity with their contracts"
    )

    def __init__(
        self,
        pairs: tuple[SeamPair, ...] = SEAM_PAIRS,
        protocols: tuple[ProtocolSpec, ...] = PROTOCOLS,
    ) -> None:
        self.pairs = pairs
        self.protocols = protocols
        self.scope = tuple(
            {pair.reference[0] for pair in pairs}
            | {pair.mirror[0] for pair in pairs}
            | {spec.protocol[0] for spec in protocols}
        )

    def check_project(self, project: "Project") -> Iterator[Finding]:
        for pair in self.pairs:
            yield from self._check_pair(project, pair)
        for spec in self.protocols:
            yield from self._check_protocol(project, spec)

    # -- seam pairs -----------------------------------------------------------

    def _check_pair(self, project: "Project", pair: SeamPair) -> Iterator[Finding]:
        ref_module = project.find(pair.reference[0])
        mir_module = project.find(pair.mirror[0])
        if ref_module is None or mir_module is None:
            return  # half the seam isn't in this tree; nothing to compare
        ref_cls = find_class(ref_module.tree, pair.reference[1])
        mir_cls = find_class(mir_module.tree, pair.mirror[1])
        for cls, module, name in (
            (ref_cls, ref_module, pair.reference[1]),
            (mir_cls, mir_module, pair.mirror[1]),
        ):
            if cls is None:
                yield self.finding(
                    module,
                    1,
                    0,
                    f"seam class {name} not found in {module.relpath} — the "
                    "CDAS005 contract table needs updating alongside renames",
                    symbol=name,
                )
        if ref_cls is None or mir_cls is None:
            return
        ref_members = class_members(ref_cls)
        mir_members = class_members(mir_cls)
        label = f"{pair.reference[1]}/{pair.mirror[1]}"
        for member in pair.members:
            ref = ref_members.get(member)
            mir = mir_members.get(member)
            if ref is None:
                yield self.finding(
                    ref_module,
                    ref_cls.lineno,
                    ref_cls.col_offset,
                    f"seam contract names {pair.reference[1]}.{member} but "
                    "the reference class does not define it",
                    symbol=f"{pair.reference[1]}.{member}",
                )
                continue
            if mir is None:
                yield self.finding(
                    mir_module,
                    mir_cls.lineno,
                    mir_cls.col_offset,
                    f"{pair.mirror[1]} is missing {member!r}, which the "
                    f"{pair.reference[1]} surface it duck-types provides "
                    f"({ref.describe()})",
                    symbol=f"{pair.mirror[1]}.{member}",
                )
                continue
            problems = _compare(member, ref, mir)
            if problems:
                yield self.finding(
                    mir_module,
                    mir.line,
                    0,
                    f"seam parity broken on {label}.{member}: "
                    + "; ".join(problems)
                    + f" (reference: {ref.describe()}; mirror: {mir.describe()})",
                    symbol=f"{pair.mirror[1]}.{member}",
                )

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
                    problems = _compare(name, proto_sig, impl)
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
