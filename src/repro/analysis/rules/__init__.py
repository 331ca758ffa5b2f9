"""The codebase-specific rule implementations (CDAS001–CDAS004)."""

from repro.analysis.rules.asyncpurity import AsyncPurityRule
from repro.analysis.rules.codec_closure import CodecClosureRule
from repro.analysis.rules.determinism import DeterminismRule
from repro.analysis.rules.durability import DurabilityOrderingRule

__all__ = [
    "DeterminismRule",
    "AsyncPurityRule",
    "DurabilityOrderingRule",
    "CodecClosureRule",
]
