"""Committed mutants of ``src/sbfe``, each with the tests that must kill it.

A mutant is one exact text replacement in one source file: a fault the
tests are meant to catch, such as a loosened tolerance or a dropped clamp.
Run from the repository root, outside the normal test run:

    python tests/mutants.py

The runner first runs every named test on the unchanged source, where all
must pass.  Then, for each entry alone, it copies ``src/`` to a temporary
directory, applies the replacement there and runs only that entry's tests
against the copy.  The mutant is killed when one of them fails.  It prints
one line per mutant (killed or survived, with its time) and exits 1 if any
survived.  ``tests/test_mutants.py`` checks, in the normal run, that each
entry's old text occurs exactly once in its file, so a refactor that moves
the code must move the entry with it.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    file: str  # relative to the repository root
    old: str  # occurs exactly once in ``file``
    new: str
    reason: str
    tests: tuple  # pytest ids, relative to the repository root


MUTANTS = (
    Mutant(
        "src/sbfe/verify.py",
        "ok = cost <= bound * opt + tol",
        "ok = cost <= 2 * bound * opt + tol",
        "cost_verdict, read by ratio_vs_opt and eval's pass column, passes a"
        " cost up to twice its bound",
        (
            "tests/test_verify.py::TestRatioVsOpt::test_verdict_at_its_edge[0.001-False]",
            "tests/test_cli.py::TestEval::test_pass_verdict_at_its_edge[0.001-False]",
        ),
    ),
    Mutant(
        "src/sbfe/cli.py",
        "RATIO_TOL = 1e-6",
        "RATIO_TOL = 1e-1",
        "eval's absolute slack 10^5 times larger",
        ("tests/test_cli.py::TestEval::test_pass_verdict_at_its_edge[0.001-False]",),
    ),
    Mutant(
        "src/sbfe/verify.py",
        "DUAL_EPS = 1e-9",
        "DUAL_EPS = 1e-3",
        "the dual check's slack tolerance 10^6 times larger",
        (
            "tests/test_verify.py::TestDualFeasibility"
            "::test_slack_just_past_its_tolerance_is_a_violation",
        ),
    ),
    Mutant(
        "src/sbfe/utility.py",
        "if zero and (min(zero) < base or min(one) < base):",
        "if zero and min(zero) < base:",
        "gains_at checks only the outcome-0 values for monotonicity",
        (
            "tests/test_utility.py::TestGainRecord"
            "::test_monotonicity_message_under_outcome_one",
        ),
    ),
    Mutant(
        "src/sbfe/utility.py",
        "max(0, -f.r_min), max(0, f.r_max + 1)",
        "-f.r_min, f.r_max + 1",
        "threshold_utility without its clamps: a constant formula strictly"
        " inside one side gets a negative cap and goal",
        (
            "tests/test_utility.py::TestGoalZeroIffConstant"
            "::test_hand_built_constants[threshold-always-0]",
            "tests/test_utility.py::TestGoalZeroIffConstant"
            "::test_hand_built_constants[threshold-always-1]",
        ),
    ),
    Mutant(
        "src/sbfe/utility.py",
        "r[side + bit] -= 1",
        "r[side + 1 - bit] -= 1",
        "the CNF/DNF step counts a closed clause or term under the outcome"
        " that leaves it open",
        ("tests/test_utility.py::TestStepDirect::test_every_partial_small[cdnf]",),
    ),
    Mutant(
        "src/sbfe/utility.py",
        "for coeffs, need_lo, need_hi in rows:",
        "for coeffs, need_lo, need_hi in rows[:1]:",
        "the rows step drops every row after the first",
        (
            "tests/test_utility.py::TestStepDirect"
            "::test_every_partial_small[thresholds-three-and-constant]",
        ),
    ),
    Mutant(
        "src/sbfe/policies.py",
        "if best is None or ratio < best_ratio:",
        "if best is None or ratio <= best_ratio:",
        "the greedy selection breaks an exact tie for the highest index",
        ("tests/test_cli.py::TestEval::test_knapsack_above_max_n_keeps_its_cost",),
    ),
    Mutant(
        "src/sbfe/policies.py",
        "if uj == base and dj == base:",
        "if uj == base or dj == base:",
        "the greedy selection skips a position that gains on one outcome only"
        " (no SBFE utility has one, so only a cover utility shows it)",
        ("tests/test_utility.py::TestCheapestAgainstReference::test_one_sided_gains",),
    ),
    Mutant(
        "src/sbfe/policies.py",
        "if y != 0.0:",
        "if False:",
        "the dual greedy drops its credit update",
        (
            "tests/test_policies.py::TestDualGreedyAgainstReference"
            "::test_same_trees_duals_alpha_and_cost[threshold]",
        ),
    ),
    Mutant(
        "src/sbfe/cli.py",
        "ok = cert.ok and cert.objective_gap <= 1e-6",
        "ok = cert.ok and cert.objective_gap <= 1e-2",
        "verify's dual lines pass an objective gap 10^4 times larger",
        ("tests/test_cli.py::TestVerify::test_objective_gap_fails_the_dual_lines",),
    ),
    Mutant(
        "src/sbfe/core.py",
        "key = (sel, high_steps, *",
        "key = (sel, *",
        "the optimum shares a block between blocks whose high positions differ",
        (
            "tests/test_core.py::TestOptimumAgainstReference"
            "::test_sparse_at_larger_splits[threshold-13]",
            "tests/test_core.py::TestSqueezedOptimum::test_cdnf_battery",
        ),
    ),
    Mutant(
        "src/sbfe/core.py",
        "*[(id(one), id(zero)) for one, zero, _, _, _ in children])",
        ")",
        "the optimum shares a block between blocks whose high children differ",
        (
            "tests/test_core.py::TestOptimumAgainstReference"
            "::test_same_value_and_tree[linear-system]",
            "tests/test_core.py::TestOptimumAgainstReference"
            "::test_sparse_and_dense_at_odd_split[truthtable]",
        ),
    ),
)


def _pytest(src: Path, tests) -> int:
    """Exit code of pytest running ``tests`` against the package in ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True).returncode


def run(mutants=MUTANTS) -> int:
    named = sorted({t for m in mutants for t in m.tests})
    if _pytest(ROOT / "src", named) != 0:
        print("the named tests do not all pass on the unchanged source", file=sys.stderr)
        return 2
    survived = 0
    for m in mutants:
        start = time.perf_counter()
        with tempfile.TemporaryDirectory() as tmp:
            copy = Path(tmp) / "src"
            shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__"))
            target = Path(tmp) / m.file
            text = target.read_text()
            if text.count(m.old) != 1:
                print(f"{m.file}: old text of {m.reason!r} is not there once", file=sys.stderr)
                return 2
            target.write_text(text.replace(m.old, m.new))
            code = _pytest(copy, m.tests)
        if code not in (0, 1):
            print(f"{m.file}: pytest exited {code} on {m.reason!r}", file=sys.stderr)
            return 2
        survived += code == 0
        verdict = "survived" if code == 0 else "killed"
        print(f"{verdict:8} {time.perf_counter() - start:6.2f} s  {m.file}: {m.reason}")
    print(f"{len(mutants) - survived} killed, {survived} survived")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(run())
