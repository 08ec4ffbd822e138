"""RL003 — callables handed to executors must be module-level.

The engine's worker pool submits jobs to a ``concurrent.futures``
process pool, which *pickles* the submitted callable, and pickle
resolves functions by qualified name — lambdas and functions nested
inside another function do not survive the trip.  So anything passed
to ``.submit()``/``.map()`` (and friends) must be a plain module-level
function.

Flagged:

* a ``lambda`` passed directly (or wrapped in ``functools.partial``);
* a name bound to a nested ``def`` (closure) rather than a module-level
  function;
* a name bound to a ``lambda`` anywhere — even at module level a lambda
  pickles by its ``<lambda>`` qualname and fails.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from ..asthelpers import terminal_name
from ..engine import ModuleInfo, ProjectContext, Rule, Violation
from ..project import SUBMIT_METHODS


class PoolSafetyRule(Rule):
    code = "RL003"
    name = "pool-safety"
    description = (
        "callables submitted to executor pools must be module-level "
        "functions (picklable); no lambdas or closures"
    )

    def check(self, module: ModuleInfo, context: ProjectContext) -> Iterator[Violation]:
        module_funcs: Set[str] = set()
        nested_funcs: Set[str] = set()
        lambda_names: Set[str] = set()

        for statement in module.tree.body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                module_funcs.add(statement.name)

        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for child in ast.walk(node):
                    if (
                        isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and child is not node
                    ):
                        nested_funcs.add(child.name)
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Lambda):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        lambda_names.add(target.id)

        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if not (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in SUBMIT_METHODS
                and node.args
            ):
                continue
            candidate = self._unwrap_partial(node.args[0])
            method = node.func.attr
            if isinstance(candidate, ast.Lambda):
                yield self.violation(
                    module.path,
                    candidate,
                    f"lambda passed to .{method}(); process pools cannot "
                    "pickle lambdas — define a module-level function",
                )
                continue
            name = candidate.id if isinstance(candidate, ast.Name) else None
            if name is None:
                continue
            if name in lambda_names:
                yield self.violation(
                    module.path,
                    node.args[0],
                    f"{name!r} passed to .{method}() is bound to a lambda; "
                    "lambdas pickle by their '<lambda>' qualname and fail in "
                    "process pools — define a module-level function",
                )
            elif name in nested_funcs and name not in module_funcs:
                yield self.violation(
                    module.path,
                    node.args[0],
                    f"nested function {name!r} passed to .{method}(); "
                    "closures cannot be pickled into process pools — move it "
                    "to module level",
                )

    @staticmethod
    def _unwrap_partial(node: ast.AST) -> ast.AST:
        """``functools.partial(f, ...)`` → ``f`` (recursively)."""
        while (
            isinstance(node, ast.Call)
            and terminal_name(node.func) == "partial"
            and node.args
        ):
            node = node.args[0]
        return node
