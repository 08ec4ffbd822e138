"""Single source of truth for solver and execution backend names.

Every layer that accepts a backend string — :func:`repro.emd.emd`,
:class:`~repro.emd.batch.PairwiseEMDEngine`,
:class:`~repro.core.config.DetectorConfig`, the sharding runner and the
CLI — validates against the tuples defined here, and the static layer
leans on the matching :data:`typing.Literal` types so that an invalid
backend string is a *type* error long before it can become a runtime
:class:`~repro.exceptions.ConfigurationError`.

``EMD_SOLVERS`` is the one permitted literal listing of solver names in
the codebase (reprolint rule RL001 enforces that everything else
references or derives from it); mypy checks each member against
``EMDSolverName``, and ``tests/test_reprolint.py`` asserts the tuple is
*exhaustive* over the ``Literal`` and that the derived subsets partition
it.
"""

from __future__ import annotations

from typing import Final, Literal, Tuple, get_args

#: Every solver backend understood by :class:`PairwiseEMDEngine`.
EMDSolverName = Literal["auto", "linprog", "linprog_batch", "simplex"]

#: The exact per-pair solvers accepted by :func:`repro.emd.emd`.
PairwiseSolverName = Literal["auto", "linprog", "simplex"]

#: The multi-pair solver name: an alias of ``"auto"``'s stacked exact LPs.
BatchedSolverName = Literal["linprog_batch"]

#: How :class:`PairwiseEMDEngine` executes batches of pair solves.
ParallelBackendName = Literal["serial", "thread", "process"]

#: How :class:`repro.emd.sharding.ShardRunner` executes pending shards.
ShardModeName = Literal["serial", "process"]

#: How the orchestrated band build treats pairs that exhausted their
#: poison-pair rescue budget: refuse the degraded band or warn and
#: return it with the quarantined entries masked.
PoisonPolicyName = Literal["strict", "degraded"]

#: Solver backends understood by :class:`PairwiseEMDEngine`, all exact:
#: the per-pair solvers and the block-diagonal batched LP (``"auto"``,
#: also named ``"linprog_batch"``).  The canonical registry — compare and list
#: backend names against this tuple, never re-list them.
EMD_SOLVERS: Final[Tuple[EMDSolverName, ...]] = (
    "auto",
    "linprog",
    "linprog_batch",
    "simplex",
)

#: The per-pair exact subset of :data:`EMD_SOLVERS`.
PAIRWISE_SOLVERS: Final[Tuple[PairwiseSolverName, ...]] = get_args(PairwiseSolverName)

#: The multi-pair subset of :data:`EMD_SOLVERS`.
BATCHED_SOLVERS: Final[Tuple[BatchedSolverName, ...]] = get_args(BatchedSolverName)

#: Executor choices for the engine's pair batches.
PARALLEL_BACKENDS: Final[Tuple[ParallelBackendName, ...]] = get_args(ParallelBackendName)

#: Execution modes of the sharded band builder.
SHARD_MODES: Final[Tuple[ShardModeName, ...]] = get_args(ShardModeName)

#: Quarantine policies of the fault-tolerant shard orchestrator.
POISON_POLICIES: Final[Tuple[PoisonPolicyName, ...]] = get_args(PoisonPolicyName)
