"""RL005 — every ``DetectorConfig`` field is reachable from the CLI.

Solver knobs have existed engine-side only, silently unreachable from
the command line; this rule prevents the next knob from being stranded.  It collects the field names of the
``DetectorConfig`` dataclass and the keyword arguments of every
``DetectorConfig(...)`` construction in the linted file set (the CLI
builds its config with explicit keywords), then reports any field that
no call site ever passes — unless the field is explicitly allow-listed
as internal in :mod:`tools.reprolint.project`.

The rule stays silent when the file set contains the class but no
construction sites (e.g. linting ``config.py`` alone), so partial runs
cannot false-positive.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Set, Tuple

from ..asthelpers import terminal_name
from ..engine import ModuleInfo, ProjectContext, Rule, Violation
from ..project import CONFIG_CLASS, CONFIG_INTERNAL_FIELDS

_SCRATCH_FIELDS = "RL005.fields"
_SCRATCH_PASSED = "RL005.passed"


class ConfigPlumbingRule(Rule):
    code = "RL005"
    name = "config-plumbing"
    description = (
        f"every {CONFIG_CLASS} field must be passed by some "
        f"{CONFIG_CLASS}(...) call site (the CLI) or be allow-listed as "
        "internal"
    )

    def collect(self, module: ModuleInfo, context: ProjectContext) -> None:
        fields: Dict[str, Tuple[str, int, int]] = context.scratch.setdefault(  # type: ignore[assignment]
            _SCRATCH_FIELDS, {}
        )
        passed: Set[str] = context.scratch.setdefault(_SCRATCH_PASSED, set())  # type: ignore[assignment]
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef) and node.name == CONFIG_CLASS:
                for statement in node.body:
                    if not isinstance(statement, ast.AnnAssign):
                        continue
                    target = statement.target
                    if not isinstance(target, ast.Name) or target.id.startswith("_"):
                        continue
                    if terminal_name(statement.annotation) == "ClassVar":
                        continue
                    fields.setdefault(
                        target.id,
                        (module.path, statement.lineno, statement.col_offset),
                    )
            elif isinstance(node, ast.Call) and terminal_name(node.func) == CONFIG_CLASS:
                explicit = [kw.arg for kw in node.keywords if kw.arg is not None]
                passed.update(explicit)

    def finalize(self, context: ProjectContext) -> Iterator[Violation]:
        fields: Dict[str, Tuple[str, int, int]] = context.scratch.get(_SCRATCH_FIELDS, {})  # type: ignore[assignment]
        passed: Set[str] = context.scratch.get(_SCRATCH_PASSED, set())  # type: ignore[assignment]
        if not fields or not passed:
            return
        missing: List[str] = [
            name
            for name in fields
            if name not in passed and name not in CONFIG_INTERNAL_FIELDS
        ]
        for name in missing:
            path, line, col = fields[name]
            yield Violation(
                path=path,
                line=line,
                col=col,
                code=self.code,
                name=self.name,
                message=(
                    f"{CONFIG_CLASS} field {name!r} is not passed by any "
                    f"{CONFIG_CLASS}(...) call site in the linted tree; "
                    "plumb it through the CLI or allow-list it in "
                    "tools.reprolint.project.CONFIG_INTERNAL_FIELDS"
                ),
            )
