"""End-to-end drivers: single-formula evaluation, simultaneous evaluation,
ranking of linear functions, and min-knapsack via the dual greedy."""
from __future__ import annotations

from dataclasses import dataclass
from functools import cmp_to_key
from typing import Optional

from .core import (
    LimitError,
    Partial,
    ProductDistribution,
    as_costs,
    as_probabilities,
)
from .policies import DualGreedyPolicy, GreedyPolicy, policy_runs
from .utility import (
    CdnfFormula,
    LinearSystem,
    ThresholdFormula,
    UtilityFunction,
    cdnf_utility,
    ranking_utility,
    threshold_sum_utility,
    threshold_utility,
)

KNAPSACK_MAX_N = 20  # the exact min-knapsack enumerates 2^n subsets
_POLICIES = {"greedy": GreedyPolicy, "adg": DualGreedyPolicy}


def _evaluate(g: UtilityFunction, engine: str, read, d, c, outcomes) -> tuple:
    """Run ``engine``'s policy on the utility g and return the answer
    ``read`` takes from the assignment the run stopped at, with the run's
    trace.  A constant function's utility has goal 0, so its run stops at
    the root, whose empty assignment already certifies the answer; its
    distribution, costs and input are checked as any run's are."""
    if engine not in _POLICIES:
        raise ValueError(f"unknown engine {engine!r}")
    policy = _POLICIES[engine](g, d, c)
    trace = policy_runs(policy, (tuple(outcomes),), g.arity, policy.c)[0]
    value = read(trace.final)
    if value is None:
        raise RuntimeError(f"{engine} policy stopped before certifying; utility broken")
    return value, trace


# ---------------------------------------------------------------------------
# single-formula evaluation


def evaluate_cdnf(f: CdnfFormula, d, c, outcomes) -> tuple:
    """Evaluate a CNF/DNF pair with the greedy policy.

    The answer is read off whichever counter hit its goal: all clauses
    satisfied means 1, all terms falsified means 0.  Constant formulas are
    answered immediately at zero cost.
    """
    return _evaluate(cdnf_utility(f), "greedy", f.certificate, d, c, outcomes)


def evaluate_threshold_greedy(f: ThresholdFormula, d, c, outcomes) -> tuple:
    """Evaluate a linear threshold formula with the greedy policy."""
    return _evaluate(threshold_utility(f), "greedy", f.certificate, d, c, outcomes)


def evaluate_threshold_adg(f: ThresholdFormula, d, c, outcomes) -> tuple:
    """Evaluate a linear threshold formula with the dual greedy policy,
    whose expected cost is within 3 times the optimum (its per-prefix
    ratios, which `verify.observed_alpha` measures, stay below 3)."""
    return _evaluate(threshold_utility(f), "adg", f.certificate, d, c, outcomes)


# ---------------------------------------------------------------------------
# simultaneous evaluation


@dataclass(frozen=True)
class ThresholdSet:
    """Several threshold formulas over the same variables, evaluated together."""

    formulas: tuple

    def __post_init__(self):
        object.__setattr__(self, "formulas", tuple(self.formulas))
        if not self.formulas:
            raise ValueError("need at least one formula")
        n = self.formulas[0].arity
        if any(f.arity != n for f in self.formulas):
            raise ValueError("all formulas need the same arity")

    @property
    def m(self) -> int:
        return len(self.formulas)

    @property
    def arity(self) -> int:
        return self.formulas[0].arity

    @property
    def d_max(self) -> int:
        return max(f.total_magnitude for f in self.formulas)

    def certificate(self, b: Partial) -> Optional[tuple]:
        out = []
        for f in self.formulas:
            v = f.certificate(b)
            if v is None:
                return None
            out.append(v)
        return tuple(out)

    def flag_planes(self) -> tuple:
        """One Boolean flag plane per member."""
        return tuple(plane for f in self.formulas for plane in f.flag_planes())

    def utility(self) -> UtilityFunction:
        """The `threshold_sum_utility` of the formulas."""
        return threshold_sum_utility(self.formulas)


def simultaneous_thresholds(fs, d, c, outcomes, engine: str = "greedy") -> tuple:
    """Evaluate every formula on the same hidden input with one policy run."""
    inst = fs if isinstance(fs, ThresholdSet) else ThresholdSet(tuple(fs))
    return _evaluate(inst.utility(), engine, inst.certificate, d, c, outcomes)


# ---------------------------------------------------------------------------
# ranking linear functions


@dataclass(frozen=True)
class RankingResult:
    """The function indices in increasing order of value, and the classes
    of functions forced equal, in that order."""

    permutation: tuple
    equality_classes: tuple


# A linear system is its own instance.  The old name stays only because
# benchmark/tracer.py patches problems.RankingInstance.certificate by name.
RankingInstance = LinearSystem


def _extract_ranking(sys: LinearSystem, b: Partial) -> Optional[RankingResult]:
    """The order of the functions that b forces, or None while the order of
    some pair is open.  `LinearSystem.certificate` gives each pair's forced
    (le, ge), exact over the extensions of b, so forced <= chains; once
    every pair is decided it is a total preorder, and one stable sort reads
    the permutation off it.  Adjacent entries forced equal form the
    classes, each in index order."""
    orders = sys.certificate(b)
    if orders is None:
        return None
    m = sys.m
    cmp = {}  # (i, j) -> -1, 0 or 1 as f_i is forced below, equal to or above f_j
    pairs = ((i, j) for i in range(m) for j in range(i + 1, m))
    for (i, j), (le, ge) in zip(pairs, orders):
        cmp[i, j] = ge - le
        cmp[j, i] = le - ge
    permutation = sorted(range(m), key=cmp_to_key(lambda i, j: cmp[i, j]))
    classes = [[permutation[0]]]
    for i, j in zip(permutation, permutation[1:]):
        if cmp[i, j]:
            classes.append([j])
        else:
            classes[-1].append(j)
    return RankingResult(tuple(permutation), tuple(map(tuple, classes)))


def rank_linear_functions(sys: LinearSystem, d, c, outcomes) -> tuple:
    """Buy bits until the sorted order of all function values is certain.

    Runs the greedy policy on the sum of all pairwise order utilities, then
    reads a permutation (and any forced tie classes) out of the final
    assignment.
    """
    if sys.m < 2:
        raise ValueError("ranking needs at least two functions")
    return _evaluate(
        ranking_utility(sys), "greedy", lambda b: _extract_ranking(sys, b), d, c, outcomes
    )


# ---------------------------------------------------------------------------
# min-knapsack


@dataclass(frozen=True)
class KnapsackInstance:
    """Pick items whose values reach the threshold at minimum total weight."""

    values: tuple
    weights: tuple
    threshold: int

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(int(v) for v in self.values))
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        object.__setattr__(self, "threshold", int(self.threshold))
        if len(self.values) != len(self.weights):
            raise ValueError("one weight per value required")
        if any(v < 0 for v in self.values):
            raise ValueError("values must be nonnegative")
        if not all(0.0 <= w < float("inf") for w in self.weights):
            raise ValueError("weights must be finite and nonnegative")
        if sum(self.values) < self.threshold:
            raise ValueError("infeasible: total value below the threshold")

    @property
    def arity(self) -> int:
        return len(self.values)


def min_knapsack_adg(kp: KnapsackInstance) -> tuple:
    """2-approximate min-knapsack: run the dual greedy on the covering
    utility of "sum of selected values >= threshold" with every test
    deterministically answering 1.  Returns the items bought, in order,
    and their total weight."""
    n = kp.arity
    f = ThresholdFormula(kp.values, kp.threshold)
    d = ProductDistribution.certain_ones(n)
    _, trace = _evaluate(threshold_utility(f), "adg", f.certificate, d, kp.weights, (1,) * n)
    return trace.tested, trace.total_cost


def min_knapsack_bruteforce(kp: KnapsackInstance) -> tuple:
    """Exact optimum by subset enumeration; ties go to the smallest bitmask."""
    n = kp.arity
    if n > KNAPSACK_MAX_N:
        raise LimitError(f"knapsack enumeration limited to n <= {KNAPSACK_MAX_N}, got {n}")
    size = 1 << n
    value = [0] * size
    weight = [0.0] * size
    best_mask = None
    best_w = None
    for mask in range(size):
        if mask:
            low = mask & -mask
            i = low.bit_length() - 1
            prev = mask ^ low
            value[mask] = value[prev] + kp.values[i]
            weight[mask] = weight[prev] + kp.weights[i]
        if value[mask] >= kp.threshold and (best_w is None or weight[mask] < best_w):
            best_mask = mask
            best_w = weight[mask]
    items = tuple(i for i in range(n) if best_mask >> i & 1)
    return items, best_w


# ---------------------------------------------------------------------------
# the disjunction gap family


def disjunction_formula(n: int) -> CdnfFormula:
    """x_1 or ... or x_n as a CNF/DNF pair (one clause, n singleton terms)."""
    clause = frozenset(range(1, n + 1))
    terms = tuple(frozenset((i,)) for i in range(1, n + 1))
    return CdnfFormula(n, (clause,), terms)


def harmonic_gap_instance(n: int) -> tuple:
    """Unit costs with Prob[x_i = 1] = 1/(i+2) for 0-based i.

    The optimal expected evaluation cost for the disjunction is the n-th
    harmonic number, while the expected cheapest-certificate cost stays
    below 2: certificates here are nearly free, strategies are not.
    """
    d = ProductDistribution(tuple(1.0 / (i + 2) for i in range(n)))
    c = (1.0,) * n
    return disjunction_formula(n), d, c


def expected_certificate_cost_disjunction(d, c) -> float:
    """Expected cost of the cheapest certificate inside a random input, for a
    plain disjunction: the cheapest 1-bit if any, else every position."""
    p = as_probabilities(d)
    cc = as_costs(c)
    order = sorted(range(len(cc)), key=lambda i: (cc[i], i))
    total = 0.0
    prob_all_cheaper_zero = 1.0
    for i in order:
        total += cc[i] * p[i] * prob_all_cheaper_zero
        prob_all_cheaper_zero *= 1.0 - p[i]
    total += sum(cc) * prob_all_cheaper_zero
    return total
