"""RL007 — snapshot payload reads must validate checksum and fingerprint.

The project's persisted state — shard checkpoints
(:mod:`repro.emd.sharding`) and stream snapshots
(:mod:`repro.service.snapshots`) — is stamped: every file carries a
sha256 **checksum** over its payload bytes and a configuration
**fingerprint**.  The one validating loader,
:func:`repro._artifacts.load_stamped`, rejects corrupt or stale files
instead of merging silently-wrong numbers into a resumed run.  That
guarantee only holds while every read goes through it; an ``np.load``
of a snapshot that skips the stamps reintroduces exactly the failure
class the format was designed to catch.

Concretely, a violation is an ``np.load`` / ``numpy.load`` call that is
*snapshot-related* — its enclosing function's name, or any identifier or
string in its argument expressions, mentions a term from
:data:`~tools.reprolint.project.SNAPSHOT_TERMS` — while the enclosing
function never references **both** validation terms of
:data:`~tools.reprolint.project.SNAPSHOT_VALIDATION_TERMS` (the payload
checksum and the config/plan fingerprint).  The message names the
missing evidence.

Deliberate corruption writers (the fault-injection corruptors in
:mod:`repro.testing.faults`) read snapshots precisely to break them and
carry per-line ``# reprolint: disable=RL007`` suppressions.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set

from ..asthelpers import dotted_name
from ..engine import ModuleInfo, ProjectContext, Rule, Violation
from ..project import SNAPSHOT_TERMS, SNAPSHOT_VALIDATION_TERMS

_LOAD_NAMES = frozenset({"np.load", "numpy.load"})


def _is_numpy_load(node: ast.Call) -> bool:
    return dotted_name(node.func) in _LOAD_NAMES


def _mention_tokens(node: ast.AST) -> Iterator[str]:
    """Lower-cased identifiers and string literals appearing under ``node``."""
    for inner in ast.walk(node):
        if isinstance(inner, ast.Name):
            yield inner.id.lower()
        elif isinstance(inner, ast.Attribute):
            yield inner.attr.lower()
        elif isinstance(inner, ast.arg):
            yield inner.arg.lower()
        elif isinstance(inner, ast.Constant) and isinstance(inner.value, str):
            yield inner.value.lower()


def _mentions_any(tokens: List[str], terms: Set[str]) -> bool:
    return any(term in token for token in tokens for term in terms)


class SnapshotDisciplineRule(Rule):
    code = "RL007"
    name = "snapshot-discipline"
    description = (
        "np.load of a snapshot/checkpoint payload must sit in a function "
        "that validates both the payload checksum and the config fingerprint"
    )

    def check(self, module: ModuleInfo, context: ProjectContext) -> Iterator[Violation]:
        for function in ast.walk(module.tree):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            yield from self._check_function(module, function)

    def _check_function(
        self,
        module: ModuleInfo,
        function: ast.AST,
    ) -> Iterator[Violation]:
        loads = [
            node
            for node in ast.walk(function)
            if isinstance(node, ast.Call) and _is_numpy_load(node)
        ]
        if not loads:
            return
        function_name = getattr(function, "name", "").lower()
        name_is_snapshotty = any(term in function_name for term in SNAPSHOT_TERMS)
        validation: Optional[List[str]] = None
        for load in loads:
            argument_tokens = [
                token
                for argument in list(load.args) + [kw.value for kw in load.keywords]
                for token in _mention_tokens(argument)
            ]
            if not name_is_snapshotty and not _mentions_any(
                argument_tokens, set(SNAPSHOT_TERMS)
            ):
                continue
            if validation is None:
                validation = list(_mention_tokens(function))
            missing = sorted(
                term
                for term in SNAPSHOT_VALIDATION_TERMS
                if not _mentions_any(validation, {term})
            )
            if not missing:
                continue
            yield self.violation(
                module.path,
                load,
                f"snapshot payload read without {' or '.join(missing)} "
                "validation: this np.load trusts a stamped snapshot/"
                "checkpoint file, but the enclosing function "
                f"{getattr(function, 'name', '?')}() never consults its "
                f"{' or '.join(missing)}; route the read through the "
                "validating loader (repro._artifacts.load_stamped) or "
                "verify the stamps here",
            )
