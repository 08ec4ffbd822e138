"""Tests for the reprolint static-analysis layer.

Three groups:

* per-rule fixture tests — each ``rlNNN_bad.py`` fixture must trigger its
  rule and each ``rlNNN_good.py`` must lint clean, so the rules keep
  distinguishing signal from noise as they evolve;
* engine behaviour — suppression comments, rule selection, exit codes
  and the CLI entry point;
* project self-checks — ``src/`` and ``tools/`` lint clean, and the
  typed solver registry stays in sync with its ``Literal`` types and
  with reprolint's fallback copy.
"""

from pathlib import Path
from typing import get_args

import pytest

from repro.emd.registry import (
    EMD_SOLVERS,
    ENGINE_SOLVERS,
    PAIRWISE_SOLVERS,
    PARALLEL_BACKENDS,
    POISON_POLICIES,
    EMDSolverName,
    EngineSolverName,
    PairwiseSolverName,
    ParallelBackendName,
    PoisonPolicyName,
)
from tools.reprolint import all_rules, lint_paths, lint_source
from tools.reprolint.cli import main as reprolint_main
from tools.reprolint.project import DEFAULT_REGISTRY

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = REPO_ROOT / "tests" / "reprolint_fixtures"

# RL005 (config-plumbing) is retired: the CLI generates its config flags
# from the DetectorConfig field metadata (see tests/test_cli.py).
RULE_CODES = ("RL001", "RL002", "RL003", "RL004", "RL006", "RL007", "RL008")


def lint_fixture(name: str):
    path = FIXTURES / name
    return lint_source(path.read_text(), path=str(path))


# --------------------------------------------------------------------- #
# Per-rule fixtures
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("code", RULE_CODES)
def test_good_fixture_is_clean(code):
    report = lint_fixture(f"{code.lower()}_good.py")
    assert report.ok, [v.render() for v in report.violations]


@pytest.mark.parametrize("code", RULE_CODES)
def test_bad_fixture_triggers_rule(code):
    report = lint_fixture(f"{code.lower()}_bad.py")
    codes = {v.code for v in report.violations}
    assert codes == {code}, [v.render() for v in report.violations]
    assert report.exit_code == 1


def test_rl001_catches_each_breakage_mode():
    report = lint_fixture("rl001_bad.py")
    messages = " | ".join(v.message for v in report.violations)
    assert len(report.violations) == 5
    assert "re-lists" in messages  # literal tuple copy
    assert "'sinkhorn'" in messages  # unknown default
    assert "'linprog-batch'" in messages  # typo in comparison
    assert "'simplexx'" in messages  # typo'd keyword
    assert "choices=" in messages  # argparse re-list


def test_rl002_catches_each_breakage_mode():
    report = lint_fixture("rl002_bad.py")
    messages = " | ".join(v.message for v in report.violations)
    assert len(report.violations) == 4
    assert "numpy.random.rand" in messages  # legacy import
    assert "numpy.random.seed()" in messages  # global seeding
    assert "without an explicit seed" in messages  # seedless default_rng
    assert "numpy.random.normal()" in messages  # legacy sampling call


def test_rl003_catches_each_breakage_mode():
    report = lint_fixture("rl003_bad.py")
    messages = " | ".join(v.message for v in report.violations)
    assert len(report.violations) == 4
    assert "lambda passed to .map()" in messages
    assert "'double'" in messages  # name bound to a lambda
    assert "'local'" in messages  # closure, via partial and directly


def test_rl004_requires_context_or_formatted_message():
    report = lint_fixture("rl004_bad.py")
    assert len(report.violations) == 2
    assert all(v.code == "RL004" for v in report.violations)


def test_rl006_catches_each_breakage_mode():
    report = lint_fixture("rl006_bad.py")
    messages = " | ".join(v.message for v in report.violations)
    assert len(report.violations) == 3
    assert "hand-rolled retry pacing" in messages  # ad-hoc time.sleep loop
    assert "(SolverError)" in messages  # swallowed by name
    assert "(Exception)" in messages  # swallowed behind a broad handler


def test_rl007_catches_each_breakage_mode():
    report = lint_fixture("rl007_bad.py")
    messages = [v.message for v in report.violations]
    assert len(report.violations) == 3
    # A loader that validates nothing reports both missing stamps.
    assert any("checksum or fingerprint" in m for m in messages)
    # A loader that only checks the fingerprint reports just the checksum.
    assert any(
        "without checksum validation" in m and "fingerprint" not in m.split(";")[0]
        for m in messages
    )


def test_rl008_catches_each_breakage_mode():
    report = lint_fixture("rl008_bad.py")
    messages = " | ".join(v.message for v in report.violations)
    assert len(report.violations) == 4
    assert "no_docs has no docstring" in messages        # undocumented export
    assert "cutoff" in messages                          # drifted function docstring
    assert "tail" in messages                            # drifted __init__ docstring
    assert "tau_ref" in messages                         # drifted dataclass docstring


# --------------------------------------------------------------------- #
# Engine behaviour
# --------------------------------------------------------------------- #
def test_suppression_comment_silences_one_line():
    bad = "import numpy as np\nnp.random.seed(0)\n"
    assert not lint_source(bad).ok
    suppressed = "import numpy as np\nnp.random.seed(0)  # reprolint: disable=RL002\n"
    assert lint_source(suppressed).ok
    all_off = "import numpy as np\nnp.random.seed(0)  # reprolint: disable=all\n"
    assert lint_source(all_off).ok


def test_suppression_comment_is_code_specific():
    source = "import numpy as np\nnp.random.seed(0)  # reprolint: disable=RL001\n"
    report = lint_source(source)
    assert [v.code for v in report.violations] == ["RL002"]


def test_rule_selection():
    path = FIXTURES / "rl001_bad.py"
    selected = [r for r in all_rules() if r.code == "RL002"]
    report = lint_source(path.read_text(), path=str(path), rules=selected)
    assert report.ok


def test_syntax_error_is_a_parse_failure_not_a_crash():
    report = lint_source("def broken(:\n", path="broken.py")
    assert report.exit_code == 2
    assert report.parse_failures and not report.violations


def test_cli_exit_codes(tmp_path, capsys):
    assert reprolint_main([str(FIXTURES / "rl002_good.py")]) == 0
    assert reprolint_main([str(FIXTURES / "rl002_bad.py")]) == 1
    out = capsys.readouterr().out
    assert "RL002" in out and "rl002_bad.py" in out

    broken = tmp_path / "broken.py"
    broken.write_text("def broken(:\n")
    assert reprolint_main([str(broken)]) == 2


def test_cli_select(capsys):
    assert reprolint_main(["--select", "RL002", str(FIXTURES / "rl001_bad.py")]) == 0
    assert reprolint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in RULE_CODES:
        assert code in out
    assert "RL005" not in out


# --------------------------------------------------------------------- #
# Project self-checks
# --------------------------------------------------------------------- #
def test_src_and_tools_lint_clean():
    report = lint_paths([REPO_ROOT / "src", REPO_ROOT / "tools"])
    assert report.n_files > 50
    assert report.ok, [v.render() for v in report.violations]


def test_registry_matches_literal_types():
    assert set(EMD_SOLVERS) == set(get_args(EMDSolverName))
    assert set(PAIRWISE_SOLVERS) == set(get_args(PairwiseSolverName))
    assert set(ENGINE_SOLVERS) == set(get_args(EngineSolverName))
    assert set(PARALLEL_BACKENDS) == set(get_args(ParallelBackendName))
    assert set(POISON_POLICIES) == set(get_args(PoisonPolicyName))


def test_solver_subsets_cover_the_registry():
    # "auto" is both emd()'s default and the engine's one route.
    pairwise, engine = set(PAIRWISE_SOLVERS), set(ENGINE_SOLVERS)
    assert pairwise | engine == set(EMD_SOLVERS)
    assert pairwise & engine == {"auto"}


def test_reprolint_fallback_registry_is_in_sync():
    assert tuple(sorted(DEFAULT_REGISTRY)) == tuple(sorted(EMD_SOLVERS))
