"""Single source of truth for solver and execution backend names.

Every layer that accepts a backend string — :func:`repro.emd.emd`,
:class:`~repro.core.config.DetectorConfig`, the shard orchestrator and
the CLI — validates against the tuples defined here, and the static
layer leans on the matching :data:`typing.Literal` types so that an
invalid backend string is a *type* error long before it can become a
runtime :class:`~repro.exceptions.ConfigurationError`.

``EMD_SOLVERS`` is the one permitted literal listing of solver names in
the codebase (reprolint rule RL001 enforces that everything else
references or derives from it); mypy checks each member against
``EMDSolverName``, and ``tests/test_reprolint.py`` asserts the tuple is
*exhaustive* over the ``Literal`` and that the derived subsets cover
it.
"""

from __future__ import annotations

from typing import Final, Literal, Tuple, get_args

#: Every solver name in the codebase.
EMDSolverName = Literal["auto", "linprog", "linprog_batch", "simplex"]

#: The exact per-pair solvers accepted by :func:`repro.emd.emd`.
PairwiseSolverName = Literal["auto", "linprog", "simplex"]

#: The names ``DetectorConfig.emd_backend`` accepts: the band engine's
#: one route (LP-free 1-D paths plus stacked exact LPs), where
#: ``"linprog_batch"`` is a second name for ``"auto"``.
EngineSolverName = Literal["auto", "linprog_batch"]

#: How the band build and the k-means refinement execute: in-process or
#: on worker processes (the engine pool, or the shard orchestrator's
#: workers).
ParallelBackendName = Literal["serial", "process"]

#: How the orchestrated band build treats pairs that exhausted their
#: poison-pair rescue budget: refuse the degraded band or warn and
#: return it with the quarantined entries masked.
PoisonPolicyName = Literal["strict", "degraded"]

#: Every solver name, all exact: the per-pair solvers of
#: :func:`repro.emd.emd` and the engine's stacked route (``"auto"``,
#: also named ``"linprog_batch"``).  The canonical registry — compare
#: and list backend names against this tuple, never re-list them.
EMD_SOLVERS: Final[Tuple[EMDSolverName, ...]] = (
    "auto",
    "linprog",
    "linprog_batch",
    "simplex",
)

#: The per-pair exact subset of :data:`EMD_SOLVERS`.
PAIRWISE_SOLVERS: Final[Tuple[PairwiseSolverName, ...]] = get_args(PairwiseSolverName)

#: The subset of :data:`EMD_SOLVERS` that names the band engine's route.
ENGINE_SOLVERS: Final[Tuple[EngineSolverName, ...]] = get_args(EngineSolverName)

#: Execution choices of the band build (engine pool or shard workers).
PARALLEL_BACKENDS: Final[Tuple[ParallelBackendName, ...]] = get_args(ParallelBackendName)

#: Quarantine policies of the fault-tolerant shard orchestrator.
POISON_POLICIES: Final[Tuple[PoisonPolicyName, ...]] = get_args(PoisonPolicyName)
