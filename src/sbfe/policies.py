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
from .utility import UtilityFunction, expected_gain, gains_at, marginal

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


def prefix_ratios(g: UtilityFunction, steps, gains=None) -> tuple:
    """(t, ratio) for each prefix t of a run, given as (index, outcome) steps,
    that is short of the goal: the utility the steps from t on would each add
    at that prefix, summed, over the utility still missing there.

    ``gains(b)`` gives (g(b), down, up, ...) at a prefix, as `gains_at` does
    by default; a dual greedy's `DualGreedyPolicy.gains` record serves the
    prefixes of its own runs without calling the utility again."""
    gains = gains or (lambda b: gains_at(g, b))
    b = stars(g.arity)
    samples = []
    for t, (i, v) in enumerate(steps):
        base, down, up = gains(b)[:3]
        denom = g.goal - base
        if denom > 0:
            total = sum(up[j] if w else down[j] for j, w in steps[t:])
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

    State is ``(prefixes, ys, credit)``: the realized sequence of prefix
    assignments, the dual value y given to each prefix when its test was
    chosen, and per position j the credit, the sum over those prefixes S of
    y_S * (expected gain of j at S).  Selection minimizes
    (c_j - credit_j) / (expected gain of j now).  Closing a prefix with a
    nonzero y adds y times each expected gain there to the credit, in the
    order of the prefixes, so no earlier prefix is ever looked at again.

    Gains depend only on the partial assignment, so each one is computed
    once per policy: `gains(b)` keeps g(b), the integer gains of setting
    each position to 0 or 1 and the expected gains, and `next_test`, both
    `advance` calls at b, `prefix_ratios` and the dual check all read it.
    """

    def __init__(self, g: UtilityFunction, d, c):
        self.g = g
        self.p = as_probabilities(d)
        self.c = as_costs(c)
        if len(self.p) != g.arity or len(self.c) != g.arity:
            raise ValueError("arity mismatch")
        self._gains = {}

    def initial_state(self):
        n = self.g.arity
        return ((stars(n),), (), (0.0,) * n)

    def gains(self, b: Partial) -> tuple:
        """(g(b), down, up, eg) at b: `gains_at` plus the expected gains
        p_j * up_j + (1 - p_j) * down_j; all but g(b) are None at the goal."""
        rec = self._gains.get(b)
        if rec is None:
            base, down, up = gains_at(self.g, b)
            eg = None
            if down is not None:
                p = self.p
                eg = tuple(p[j] * up[j] + (1.0 - p[j]) * down[j] for j in range(len(p)))
            rec = self._gains[b] = (base, down, up, eg)
        return rec

    def _adjusted(self, state, j: int) -> float:
        num = self.c[j] - state[2][j]
        if num < -EPS:
            raise InvalidUtilityError(
                f"dual-adjusted cost of {j} is {num}; dual feasibility broken"
            )
        return num

    def next_test(self, b: Partial, state) -> Optional[int]:
        eg = self.gains(b)[3]
        if eg is None:
            return None
        best = None
        best_ratio = 0.0
        for j, e in enumerate(eg):
            if e <= 0.0:
                continue
            ratio = self._adjusted(state, j) / e
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
        prefixes, ys, credit = state
        eg = self.gains(b)[3]
        y = max(0.0, self._adjusted(state, i) / eg[i])
        if y != 0.0:
            credit = tuple(cr + y * e for cr, e in zip(credit, eg))
        return (prefixes + (extend(b, i, outcome),), ys + (y,), credit)


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
    _, ys, _ = state
    return RunTrace(tested, outs, cost, dual_values=ys)

