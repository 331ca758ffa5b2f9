"""The codebase-specific rule implementations (CDAS001–CDAS002)."""

from repro.analysis.rules.asyncpurity import AsyncPurityRule
from repro.analysis.rules.determinism import DeterminismRule

__all__ = ["DeterminismRule", "AsyncPurityRule"]
