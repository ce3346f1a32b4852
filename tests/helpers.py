"""Independent oracles shared by the test modules.

Everything here deliberately avoids the code paths it is used to check:
expected costs come from per-input simulation instead of tree recursion,
certificates from extension enumeration instead of formula shortcuts, and
extrema from brute force instead of the closed forms.
"""
from __future__ import annotations

from sbfe.core import (
    InvalidUtilityError,
    all_assignments,
    as_costs,
    as_probabilities,
    extend,
    extensions,
    prob_of,
    stars,
    walk_policy,
)
from sbfe.policies import EPS, run_policy
from sbfe.utility import CdnfFormula, expected_gain


def enumeration_expected_cost(policy, d, c, n: int) -> float:
    """Simulate the policy on every input and weight by that input's mass."""
    total = 0.0
    for x in all_assignments(n):
        trace = run_policy(policy, x, n, c)
        total += prob_of(x, d) * trace.total_cost
    return total


def brute_certificate(f, b):
    """Forced output of f on every extension of b, scanning all of them."""
    values = {f.evaluate(x) for x in extensions(b)}
    return values.pop() if len(values) == 1 else None


def brute_diff_extrema(coeffs, b):
    """(min, max) of sum(coeffs_i * x_i) over extensions of b, by enumeration."""
    vals = [sum(a * v for a, v in zip(coeffs, x)) for x in extensions(b)]
    return min(vals), max(vals)


def conjunction_formula(n: int) -> CdnfFormula:
    """x_1 and ... and x_n as a CNF/DNF pair (n singleton clauses, one term)."""
    clauses = tuple(frozenset((i,)) for i in range(1, n + 1))
    return CdnfFormula(n, clauses, (frozenset(range(1, n + 1)),))


class ReferenceDualGreedy:
    """The dual greedy as first written, the reference for the incremental
    `DualGreedyPolicy`: state is (prefixes, ys), and every decision
    recomputes each candidate's credit from all earlier prefixes, calling
    the utility again at each of them."""

    def __init__(self, g, d, c):
        self.g = g
        self.p = as_probabilities(d)
        self.c = as_costs(c)

    def initial_state(self):
        return ((stars(self.g.arity),), ())

    def _adjusted(self, state, j):
        prefixes, ys = state
        g = self.g
        credit = 0.0
        for t, y in enumerate(ys):
            if y != 0.0:
                pfx = prefixes[t]
                credit += y * expected_gain(g, pfx, j, self.p, g.fn(pfx))
        num = self.c[j] - credit
        if num < -EPS:
            raise InvalidUtilityError(f"dual-adjusted cost of {j} is {num}")
        return num

    def next_test(self, b, state):
        g = self.g
        base = g.fn(b)
        if base >= g.goal:
            return None
        best = None
        best_ratio = 0.0
        for j in range(g.arity):
            eg = expected_gain(g, b, j, self.p, base)
            if eg <= 0.0:
                continue
            ratio = self._adjusted(state, j) / eg
            if best is None or ratio < best_ratio:
                best = j
                best_ratio = ratio
        if best is None:
            raise InvalidUtilityError("no untested position has positive expected gain")
        return best

    def advance(self, b, state, i, outcome):
        prefixes, ys = state
        g = self.g
        y = max(0.0, self._adjusted(state, i) / expected_gain(g, b, i, self.p, g.fn(b)))
        return (prefixes + (extend(b, i, outcome),), ys + (y,))


def reference_alpha(g, d, c) -> float:
    """Worst per-prefix ratio of `ReferenceDualGreedy` over its decision
    tree, every gain taken from fresh utility calls."""
    fn = g.fn

    def leaf_alpha(b, state, path):
        worst = 1.0
        pfx = stars(g.arity)
        for t, (i, v) in enumerate(path):
            base = fn(pfx)
            if g.goal > base:
                total = sum(fn(extend(pfx, j, w)) - base for j, w in path[t:])
                worst = max(worst, total / (g.goal - base))
            pfx = extend(pfx, i, v)
        return worst

    return walk_policy(
        ReferenceDualGreedy(g, d, c), g.arity, leaf_alpha, lambda i, lo, hi: max(lo, hi)
    )
