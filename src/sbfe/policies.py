"""Adaptive test-selection policies and their approximation-bound reporters.

A policy picks the next position to test given the current partial
assignment and, for the dual-greedy variant, a record of the dual credit
accumulated along the realized test sequence.  Policy state is an immutable
value so that a walk can branch on both outcomes of a test without
interference.  Exact costs, sampled costs and runs on hidden inputs
(`policy_runs`, one `RunTrace` per input) all send a policy down its tree in
one `core.walk_policy`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count
from typing import Callable, Optional, Sequence

from .core import (
    STAR,
    InvalidUtilityError,
    Partial,
    RunTrace,
    as_costs,
    as_probabilities,
    certificate_check,
    stars,
    walk_policy,
)
from .utility import UtilityFunction, gains_at

EPS = 1e-9  # tolerance for all ratio comparisons; utilities themselves are exact


@dataclass(frozen=True)
class BoundReport:
    """Approximation bounds implied by a utility's shape.

    ``lnq_bound`` is ln(goal) + 1.  ``max_single_gain`` is the largest
    utility any single test can contribute from the all-untested state, and
    ``p_bound`` is twice (ln of that + 1).  Both bounds are 0 for goal-0
    utilities, where no testing is ever needed.
    """

    lnq_bound: float
    p_bound: float
    max_single_gain: int


def bounds(g: UtilityFunction) -> BoundReport:
    if g.goal == 0:
        return BoundReport(0.0, 0.0, 0)
    lnq = math.log(g.goal) + 1.0
    base, zero, one = gains_at(g, stars(g.arity))
    p_max = max(max(zero), max(one)) - base if zero is not None else 0
    p_bound = 2.0 * (math.log(p_max) + 1.0) if p_max > 0 else 0.0
    return BoundReport(lnq, p_bound, p_max)


# ---------------------------------------------------------------------------
# policies


def _cheapest(p, record, cost, credit) -> Optional[int]:
    """The position with the least adjusted cost c_j - credit_j per unit of
    expected gain p_j * (one_j - g(b)) + (1 - p_j) * (zero_j - g(b)), in one
    pass over the gain record ``(g(b), zero, one)`` at b; None at the goal,
    where zero is None.

    A position whose two values both equal g(b) is skipped by two integer
    compares: its expected gain would be exactly 0.0, and a position of zero
    expected gain is never selected, since it adds cost but no utility.  The
    comparison is strict, so exact ties (bitwise-equal ratios, common with
    integer gains and unit costs) keep the lowest index and the dual update
    always sees the true minimum.  An adjusted cost below -EPS at a
    positive-gain position is an error, reported for the first such
    position.
    """
    base, zero, one = record
    if zero is None:
        return None
    floor = -EPS
    best = None
    best_ratio = 0.0
    for j, uj, dj in zip(count(), one, zero):
        if uj == base and dj == base:
            continue
        pj = p[j]
        e = pj * (uj - base) + (1.0 - pj) * (dj - base)
        if e <= 0.0:
            continue
        cj = cost[j] - credit[j]
        if cj < floor:
            raise InvalidUtilityError(
                f"dual-adjusted cost of {j} is {cj}; dual feasibility broken"
            )
        ratio = cj / e
        if best is None or ratio < best_ratio:
            best = j
            best_ratio = ratio
    if best is None:
        raise InvalidUtilityError(
            "no untested position has positive expected gain but the goal "
            "is not reached; utility is not assignment feasible"
        )
    return best


class GreedyPolicy:
    """Test the position with the best expected utility gain per unit cost
    (see `_cheapest`).  State is g(b), None at the root, where ``fn`` gives
    it; ``advance`` reads g of both children from the gain record at b.

    The gain record at b is (g(b), zero, one): the values ``g.step`` gives
    there, not their differences from g(b).  A child's g is read from it as
    it stands, a gain is one integer subtraction away, and `_cheapest`
    selects from it in one pass.

    Gains depend only on the partial assignment, so `gains(b)` keeps the
    record of the last b it was asked for, and only that one, keyed by the
    identity of b (the record holds b, so no other tuple shares its id):
    `next_test` at b makes it, and the one `advance` call at b reads it
    right after, as `core.walk_policy`, the one walk of every exact cost
    and run, makes it with the same b.  Runs that should share records go
    down the tree together in one walk, as those of `policy_runs` do.  A
    walk's ``grow`` at b may read it too; a caller that needs it further
    down carries it down the path, so a walk holds one record at a time.

    ``c`` holds the validated costs: a caller that runs the policy hands
    them to `policy_runs` instead of validating its costs a second time.
    """

    def __init__(self, g: UtilityFunction, d, c):
        self.g = g
        self.p = as_probabilities(d)
        self.c = as_costs(c)
        if len(self.p) != g.arity or len(self.c) != g.arity:
            raise ValueError("arity mismatch")
        self._no_credit = (0.0,) * g.arity  # the greedy's credit, and the dual's at the root
        self._record = None  # (b, gains at b) for the last b asked

    def initial_state(self):
        return None

    def gains(self, b: Partial, base: Optional[int] = None) -> tuple:
        """The gain record (g(b), zero, one) at b, from `gains_at`, which
        checks it; ``base``, when given, is g(b)."""
        rec = self._record
        if rec is None or rec[0] is not b:
            rec = self._record = (b, gains_at(self.g, b, base))
        return rec[1]

    def next_test(self, b: Partial, state) -> Optional[int]:
        return _cheapest(self.p, self.gains(b, state), self.c, self._no_credit)

    def advance(self, b: Partial, state, i: int) -> tuple:
        _, zero, one = self.gains(b)
        return zero[i], one[i]


class DualGreedyPolicy(GreedyPolicy):
    """The greedy with dual credit subtracted from each cost: selection
    minimizes (c_j - credit_j) / (expected gain of j now).  The greedy is
    this policy with zero credit.

    State is ``(ys, credit, g(b))``: the dual value y given to each prefix
    of the realized test sequence when its test was chosen; per position j
    the credit, the sum over those prefixes S of y_S * (expected gain of j
    at S); and the greedy's state.  A test of i closes the prefix at b with
    y = max(0, (c_i - credit_i) / (expected gain of i at b)), and a nonzero
    y adds y times each expected gain there to the credit, in the order of
    the prefixes, so no earlier prefix is ever looked at again.  Only then
    are the expected gains at b all computed, each from the gain record as
    `_cheapest` computes it.  Both outcomes of the test close the same
    prefix, so `advance` closes it once and the two child states differ
    only in g.
    """

    def initial_state(self):
        return (), self._no_credit, None

    def next_test(self, b: Partial, state) -> Optional[int]:
        return _cheapest(self.p, self.gains(b, state[2]), self.c, state[1])

    def advance(self, b: Partial, state, i: int) -> tuple:
        base, zero, one = self.gains(b)
        ys, credit, _ = state
        p = self.p
        pi = p[i]
        gain = pi * (one[i] - base) + (1.0 - pi) * (zero[i] - base)
        y = max(0.0, (self.c[i] - credit[i]) / gain)
        if y != 0.0:
            credit = tuple([cr + y * (pj * (uj - base) + (1.0 - pj) * (dj - base))
                            for cr, pj, uj, dj in zip(credit, p, one, zero)])
        ys += (y,)
        return (ys, credit, zero[i]), (ys, credit, one[i])


class FixedOrderPolicy:
    """Test in a fixed order, stopping when ``stop`` says the outcome is
    decided (or when the order is exhausted)."""

    def __init__(self, order: Sequence[int], stop: Optional[Callable[[Partial], bool]] = None):
        self.order = tuple(order)
        if len(self.order) != len(set(self.order)):
            raise ValueError("order repeats an index")
        self.stop = stop

    def initial_state(self):
        return None

    def advance(self, b, state, i):
        return None, None

    def next_test(self, b: Partial, state) -> Optional[int]:
        if self.stop is not None and self.stop(b):
            return None
        for i in self.order:
            if b[i] == STAR:
                return i
        return None


def cp_ratio_policy(d, c) -> FixedOrderPolicy:
    """Cost-to-probability ordering, exact for plain disjunctions: test in
    increasing c_i / p_i and stop at the first 1."""
    p = as_probabilities(d)
    cc = as_costs(c)
    ratios = [cc[i] / p[i] if p[i] > 0 else math.inf for i in range(len(p))]
    order = sorted(range(len(p)), key=lambda i: (ratios[i], i))
    return FixedOrderPolicy(order, stop=lambda b: 1 in b)


def cost_order_policy(c, f=None) -> FixedOrderPolicy:
    """Increasing-cost ordering; an n-approximation for any function.

    When an instance ``f`` is supplied the policy stops as soon as the tested
    bits certify the function's value, otherwise it tests everything.
    """
    cc = as_costs(c)
    order = sorted(range(len(cc)), key=lambda i: (cc[i], i))
    stop = None
    if f is not None:
        stop = lambda b: certificate_check(f, b) is not None
    return FixedOrderPolicy(order, stop=stop)


# ---------------------------------------------------------------------------
# running policies against concrete outcomes


def policy_runs(policy, inputs, n: int, cc: tuple) -> list:
    """The `RunTrace` of the run of ``policy`` on each input, with the
    validated costs ``cc``: the one way the package runs a policy on hidden
    inputs.  The runs go down the tree together in one `core.walk_policy`,
    each cost is summed from the root in test order, and ``final`` is the
    leaf the run stopped at."""

    def leaf(b, state, path):
        tested, outs = tuple(zip(*path)) or ((), ())
        cost = 0.0
        for i in tested:
            cost += cc[i]
        return RunTrace(tested, outs, cost, b)

    return walk_policy(policy, n, leaf, None, inputs=inputs)
