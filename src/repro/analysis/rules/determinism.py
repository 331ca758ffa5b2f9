"""CDAS001 — the sans-IO core must be bit-replayable.

DESIGN.md §9/§11 pin the engine's replay story: given one seed, the
scheduler, aggregation core, and simulated market reproduce results bit
for bit across runs and interpreter versions.  That only holds while no
code inside the core reads ambient entropy or the wall clock.  All
randomness must flow through named substreams (:mod:`repro.util.rng`),
which are derived from the run seed.

The rule bans *calls* to ambient-entropy and wall-clock-reading
functions inside the core scope.  ``time.monotonic``/``perf_counter``
stay legal (timeout plumbing and profiling instrumentation measure
wall-clock without feeding results back into decisions), as do *seeded*
numpy constructions — ``np.random.Generator(bitgen)``,
``default_rng(seed)``, ``PCG64(seed)``.  The seed**less** forms of
those constructors pull OS entropy and are banned.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator
from typing import TYPE_CHECKING

from repro.analysis.astutil import call_name, enclosing_symbol
from repro.analysis.findings import Finding
from repro.analysis.registry import Rule

if TYPE_CHECKING:
    from repro.analysis.engine import Module, Project

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


class DeterminismRule(Rule):
    id = "CDAS001"
    name = "determinism"
    description = (
        "no wall-clock or ambient-entropy calls inside the sans-IO core; "
        "randomness flows through named, seed-derived substreams"
    )

    def __init__(self, scope: Iterable[str] = CORE_SCOPE) -> None:
        self.scope = tuple(scope)

    def check_module(self, project: "Project", module: "Module") -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node, module.imports)
            if name is None:
                continue
            reason = self._ban_reason(name, node)
            if reason is None:
                continue
            yield self.finding(
                module,
                node.lineno,
                node.col_offset,
                f"call to {name}() {reason}; the sans-IO core must stay "
                "bit-replayable — derive values from the run seed or a "
                "named substream instead",
                symbol=enclosing_symbol(module.tree, node),
            )

    def _ban_reason(self, name: str, call: ast.Call) -> str | None:
        if name in BANNED_CALLS:
            return BANNED_CALLS[name]
        head = name.split(".", 1)[0]
        if head in BANNED_MODULES and name != head:
            return BANNED_MODULES[head]
        # `from datetime import datetime` resolves to datetime.datetime;
        # a bare-name `datetime.now()` import style is covered above via
        # ImportMap.  Handle `numpy.random.*` last:
        if name.startswith("numpy.random."):
            if name in _NUMPY_ALLOWED:
                return None
            if name in SEED_REQUIRED:
                if call.args or call.keywords:
                    return None
                return "pulls OS entropy when constructed without a seed"
            return (
                "uses numpy's global/convenience RNG surface instead of a "
                "named substream"
            )
        return None
