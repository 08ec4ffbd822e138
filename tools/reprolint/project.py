"""Project-invariant constants shared by the reprolint rules.

Everything reprolint knows about the repro codebase specifically lives
here, so the rule implementations stay generic and the fixtures in
``tests/reprolint_fixtures/`` can exercise them against self-contained
toy modules.
"""

from __future__ import annotations

from typing import Final, FrozenSet, Tuple

#: Name of the canonical solver registry tuple.  Exactly one literal
#: assignment to this name may exist in a linted file set (the project
#: keeps it in :mod:`repro.emd.registry`); everything else must reference
#: or derive from it.
REGISTRY_NAME: Final[str] = "EMD_SOLVERS"

#: Fallback registry members used when the linted file set does not
#: contain the defining assignment (e.g. linting one file at a time).
#: Must match ``repro.emd.registry.EMD_SOLVERS``; the self-check test
#: asserts they stay in sync.
DEFAULT_REGISTRY: Final[Tuple[str, ...]] = (  # reprolint: disable=RL001
    "auto",
    "linprog",
    "linprog_batch",
    "simplex",
)

#: Variable / parameter / attribute names treated as holding a solver
#: backend string.  Comparisons and assignments of string literals against
#: these names are checked for registry membership.
BACKEND_NAMES: Final[FrozenSet[str]] = frozenset({"backend", "emd_backend"})

#: ``numpy.random`` attributes that remain allowed under rng-discipline:
#: the Generator construction surface.  Every other ``np.random.*`` call
#: is the legacy global-state API.
MODERN_RNG_ATTRS: Final[FrozenSet[str]] = frozenset(
    {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
    }
)

#: Executor / pool methods whose first callable argument ends up in
#: another process and must therefore be a module-level function
#: (process pools pickle it).
SUBMIT_METHODS: Final[FrozenSet[str]] = frozenset(
    {"submit", "map", "imap", "imap_unordered", "apply_async", "starmap"}
)

#: Exception classes whose raises must carry failure context.
CONTEXT_EXCEPTIONS: Final[FrozenSet[str]] = frozenset(
    {"SolverError", "CheckpointError", "PoisonPairError"}
)

#: Keyword arguments that count as structured failure context.
CONTEXT_KWARGS: Final[FrozenSet[str]] = frozenset(
    {"pair_indices", "shard_id", "shard_rows", "manifest"}
)

#: The sanctioned backoff helpers (retry-discipline, RL006).  A retry
#: loop — a loop containing a ``try`` — may only sleep on delays derived
#: from one of these; hand-rolled ``time.sleep`` retry pacing diverges
#: from the project's tested exponential-backoff-with-jitter behaviour.
BACKOFF_HELPERS: Final[FrozenSet[str]] = frozenset({"compute_backoff"})

#: Call names treated as "a solver ran here" by retry-discipline
#: (RL006).  A broad ``except Exception`` around one of these can
#: swallow a :class:`~repro.exceptions.SolverError` that the
#: orchestrator needed for retry accounting or poison-pair quarantine.
SOLVER_CALL_NAMES: Final[FrozenSet[str]] = frozenset(
    {
        "compute_pairs",
        "emd",
        "emd_with_flow",
        "banded_matrix",
        "solve_emd_linprog",
        "solve_emd_linprog_batch",
        "_solve_batch_unchecked",
        "solve_transportation",
    }
)

#: Identifier fragments that mark a function as handling persisted
#: detector state (snapshot-discipline, RL007).  An ``np.load`` whose
#: enclosing function name — or whose argument expressions — mention one
#: of these is reading a stamped payload and must validate it.
SNAPSHOT_TERMS: Final[FrozenSet[str]] = frozenset({"snapshot", "checkpoint"})

#: Validation evidence snapshot-discipline (RL007) requires around a
#: stamped-payload read: both the payload checksum and the config/plan
#: fingerprint must be consulted before the data is trusted.
SNAPSHOT_VALIDATION_TERMS: Final[FrozenSet[str]] = frozenset(
    {"checksum", "fingerprint"}
)
