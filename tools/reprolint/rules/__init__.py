"""The built-in reprolint rules, one module per project invariant."""

from .docstring_discipline import DocstringDisciplineRule
from .exception_context import ExceptionContextRule
from .pool_safety import PoolSafetyRule
from .registry_consistency import RegistryConsistencyRule
from .retry_discipline import RetryDisciplineRule
from .rng_discipline import RngDisciplineRule
from .snapshot_discipline import SnapshotDisciplineRule

#: All rules in code order (RL001 …).
RULES = (
    RegistryConsistencyRule,
    RngDisciplineRule,
    PoolSafetyRule,
    ExceptionContextRule,
    RetryDisciplineRule,
    SnapshotDisciplineRule,
    DocstringDisciplineRule,
)

__all__ = [
    "RULES",
    "RegistryConsistencyRule",
    "RngDisciplineRule",
    "PoolSafetyRule",
    "ExceptionContextRule",
    "RetryDisciplineRule",
    "SnapshotDisciplineRule",
    "DocstringDisciplineRule",
]
