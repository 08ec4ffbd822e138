"""reprolint — project-invariant static analysis for the repro solver stack.

The test suite enforces the project's load-bearing invariants at runtime;
this package enforces the *machine-checkable* half of them before any code
runs.  Each rule encodes an invariant introduced by an earlier PR:

========  ====================  ==================================================
Code      Name                  Invariant guarded
========  ====================  ==================================================
RL001     registry-consistency  ``EMD_SOLVERS`` is the single source of truth for
                                solver-backend names (PR 3): backend string
                                literals must be registry members, and CLI
                                ``choices=``/validation must reference the
                                registry, never re-list it.
RL002     rng-discipline        All randomness flows through seeded
                                ``numpy.random.Generator`` objects (PRs 1–2): no
                                legacy ``np.random.*`` module calls, no seedless
                                ``default_rng()``.
RL003     pool-safety           Callables submitted to executors must be
                                module-level, hence picklable by process pools
                                (PR 5): no lambdas or nested functions into
                                ``.submit()``/``.map()``.
RL004     exception-context     ``SolverError``/``CheckpointError`` raises carry
                                context (PRs 4–5): pair/shard kwargs or a
                                formatted message naming the failing problem.
========  ====================  ==================================================

RL006–RL008 are listed in ``docs/static-analysis.md``.  RL005
(config-plumbing) is retired, not renumbered: the CLI generates its flags
from the ``DetectorConfig`` field metadata, so no field can be stranded.

Use as a library (``lint_paths``/``lint_source``) or as a CLI
(``python -m tools.reprolint src/`` or the ``reprolint`` console script).
Violations are suppressed per line with ``# reprolint: disable=RL001`` (or
``disable=all``).
"""

from .engine import (
    LintReport,
    ModuleInfo,
    ProjectContext,
    Rule,
    Violation,
    all_rules,
    lint_paths,
    lint_source,
)

__all__ = [
    "LintReport",
    "ModuleInfo",
    "ProjectContext",
    "Rule",
    "Violation",
    "all_rules",
    "lint_paths",
    "lint_source",
]
