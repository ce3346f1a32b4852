"""Adaptive test-selection policies and their approximation-bound reporters.

A policy picks the next position to test given the current partial
assignment and, for the dual-greedy variant, a record of the dual credit
accumulated along the realized test sequence.  Policy state is an immutable
value so that exact expected-cost evaluation can branch on both outcomes of
a test without interference; a concrete run is driven by `run_policy`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .core import (
    STAR,
    Assignment,
    InvalidUtilityError,
    Partial,
    PolicyError,
    RunTrace,
    as_costs,
    as_probabilities,
    certificate_check,
    extend,
    stars,
    to_string,
)
from .utility import UtilityFunction, expected_gain, marginal

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
    root = stars(g.arity)
    p_max = max(
        marginal(g, root, i, l) for i in range(g.arity) for l in (0, 1)
    )
    p_bound = 2.0 * (math.log(p_max) + 1.0) if p_max > 0 else 0.0
    return BoundReport(lnq, p_bound, p_max)


def alpha_of_trace(g: UtilityFunction, a: Optional[Assignment], trace: RunTrace) -> float:
    """Worst ratio, over prefixes of the run, of the total utility the tested
    set could still add at that prefix to the utility still missing there.

    The run's own outcomes determine every quantity; when the full hidden
    assignment ``a`` is supplied it is only cross-checked for consistency.
    """
    if a is not None:
        for i, v in zip(trace.tested, trace.outcomes):
            if a[i] != v:
                raise ValueError("trace outcomes disagree with the given assignment")
    if not trace.tested:
        return 1.0
    samples = prefix_ratios(g, tuple(zip(trace.tested, trace.outcomes)))
    return max([0.0] + [r for _, r in samples])


def prefix_ratios(g: UtilityFunction, steps) -> tuple:
    """(t, ratio) for each prefix t of a run, given as (index, outcome) steps,
    that is short of the goal: the utility the steps from t on would each add
    at that prefix, summed, over the utility still missing there."""
    fn = g.fn
    b = stars(g.arity)
    samples = []
    for t, (i, v) in enumerate(steps):
        base_v = fn(b)
        denom = g.goal - base_v
        if denom > 0:
            total = sum(fn(extend(b, j, w)) - base_v for j, w in steps[t:])
            samples.append((t, total / denom))
        b = extend(b, i, v)
    return tuple(samples)


# ---------------------------------------------------------------------------
# policies


class GreedyPolicy:
    """Test the position with the best expected utility gain per unit cost.

    Positions whose expected gain is zero are never selected: they add cost
    but cannot add utility.  Zero-cost positive-gain positions have ratio 0
    and are taken immediately.  Ties go to the lowest index.
    """

    def __init__(self, g: UtilityFunction, d, c):
        self.g = g
        self.p = as_probabilities(d)
        self.c = as_costs(c)
        if len(self.p) != g.arity or len(self.c) != g.arity:
            raise ValueError("arity mismatch")

    def initial_state(self):
        return None

    def advance(self, b, state, i, outcome):
        return None

    def next_test(self, b: Partial, state) -> Optional[int]:
        g = self.g
        base = g.fn(b)
        if base >= g.goal:
            return None
        best = None
        best_ratio = 0.0
        p, c = self.p, self.c
        for j in range(g.arity):
            eg = expected_gain(g, b, j, p, base)
            if eg <= 0.0:
                continue
            # strict comparison: exact ties (bitwise-equal ratios, common
            # with integer marginals and unit costs) keep the lowest index,
            # and the dual update below always sees the true minimum
            ratio = c[j] / eg
            if best is None or ratio < best_ratio:
                best = j
                best_ratio = ratio
        if best is None:
            raise InvalidUtilityError(
                "no untested position has positive expected gain but the goal "
                "is not reached; utility is not assignment feasible"
            )
        return best


class DualGreedyPolicy:
    """Greedy selection with dual credit subtracted from each cost.

    State is the realized sequence of prefix assignments together with the
    dual value assigned to each prefix when its test was chosen.  The credit
    of candidate j is the sum over earlier prefixes S of
    y_S * (expected gain of j at S); selection minimizes
    (c_j - credit) / (expected gain of j now).
    """

    def __init__(self, g: UtilityFunction, d, c):
        self.g = g
        self.p = as_probabilities(d)
        self.c = as_costs(c)
        if len(self.p) != g.arity or len(self.c) != g.arity:
            raise ValueError("arity mismatch")

    def initial_state(self):
        return ((stars(self.g.arity),), ())

    def _adjusted(self, state, j: int) -> float:
        prefixes, ys = state
        g = self.g
        credit = 0.0
        for t, y in enumerate(ys):
            if y != 0.0:
                pfx = prefixes[t]
                credit += y * expected_gain(g, pfx, j, self.p, g.fn(pfx))
        num = self.c[j] - credit
        if num < -EPS:
            raise InvalidUtilityError(
                f"dual-adjusted cost of {j} is {num}; dual feasibility broken"
            )
        return num

    def next_test(self, b: Partial, state) -> Optional[int]:
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
            raise InvalidUtilityError(
                "no untested position has positive expected gain but the goal "
                "is not reached; utility is not assignment feasible"
            )
        return best

    def advance(self, b: Partial, state, i: int, outcome: int):
        prefixes, ys = state
        g = self.g
        y = max(0.0, self._adjusted(state, i) / expected_gain(g, b, i, self.p, g.fn(b)))
        return (prefixes + (extend(b, i, outcome),), ys + (y,))


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

    def advance(self, b, state, i, outcome):
        return None

    def next_test(self, b: Partial, state) -> Optional[int]:
        if self.stop is not None and self.stop(b):
            return None
        for i in self.order:
            if b[i] == STAR:
                return i
        return None


def cp_ratio_policy(d, c, sense: str = "or") -> FixedOrderPolicy:
    """Cost-to-probability ordering, exact for plain disjunctions.

    For a disjunction, test in increasing c_i / p_i and stop at the first 1;
    for a conjunction use c_i / (1 - p_i) and stop at the first 0.
    """
    p = as_probabilities(d)
    cc = as_costs(c)
    if sense not in ("or", "and"):
        raise ValueError("sense must be 'or' or 'and'")
    decisive = 1 if sense == "or" else 0
    weights = [pi if sense == "or" else 1.0 - pi for pi in p]
    ratios = [cc[i] / weights[i] if weights[i] > 0 else math.inf for i in range(len(p))]
    order = sorted(range(len(p)), key=lambda i: (ratios[i], i))
    return FixedOrderPolicy(order, stop=lambda b: decisive in b)


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


def _run(policy, outcomes, n: int, c) -> tuple:
    """Drive one run; returns (trace fields, final state)."""
    outcomes = tuple(outcomes)
    cc = as_costs(c)
    b = stars(n)
    state = policy.initial_state()
    tested = []
    outs = []
    cost = 0.0
    while True:
        i = policy.next_test(b, state)
        if i is None:
            break
        if not 0 <= i < n or b[i] != STAR:
            raise PolicyError(f"illegal test {i} at {to_string(b)}")
        v = outcomes[i]
        if v not in (0, 1):
            raise ValueError(f"outcome {v!r} for test {i} is not a bit")
        state = policy.advance(b, state, i, v)
        b = extend(b, i, v)
        tested.append(i)
        outs.append(v)
        cost += cc[i]
    return tuple(tested), tuple(outs), cost, state


def run_policy(policy, outcomes, n: int, c) -> RunTrace:
    tested, outs, cost, _ = _run(policy, outcomes, n, c)
    return RunTrace(tested, outs, cost)


def adaptive_greedy(g: UtilityFunction, d, c, outcomes) -> RunTrace:
    """Run the expected-gain-per-cost greedy until the utility reaches its
    goal; the tested set then certifies whatever the utility encodes."""
    return run_policy(GreedyPolicy(g, d, c), outcomes, g.arity, c)


def adaptive_dual_greedy(g: UtilityFunction, d, c, outcomes) -> RunTrace:
    """Run the dual-credit greedy; the trace records the dual value given to
    each prefix of the realized test sequence.  ``prefix_ratios`` of its
    steps gives the samples that certify the run's approximation factor."""
    tested, outs, cost, state = _run(DualGreedyPolicy(g, d, c), outcomes, g.arity, c)
    _, ys = state
    return RunTrace(tested, outs, cost, dual_values=ys)

