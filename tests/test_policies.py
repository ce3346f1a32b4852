import dataclasses
import math

import pytest

from helpers import (
    ReferenceDualGreedy,
    conjunction_formula,
    enumeration_expected_cost,
    reference_alpha,
)
from sbfe.cli import _EVAL
from sbfe.core import (
    STAR,
    ConstantFunctionError,
    InvalidUtilityError,
    ProductDistribution,
    RunTrace,
    all_assignments,
    expected_cost,
    extend,
    optimal_expected_cost,
    policy_tree,
    stars,
    walk_policy,
)
from sbfe.instances import (
    cdnf_battery,
    disjunction_battery,
    generate_instance,
    knapsack_battery,
    linear_system_battery,
    threshold_battery,
    threshold_set_battery,
    truth_table_battery,
)
from sbfe.policies import (
    EPS,
    DualGreedyPolicy,
    GreedyPolicy,
    adaptive_dual_greedy,
    adaptive_greedy,
    alpha_of_trace,
    bounds,
    cost_order_policy,
    cp_ratio_policy,
    prefix_ratios,
)
from sbfe.problems import disjunction_formula
from sbfe.utility import (
    UtilityFunction,
    cdnf_utility,
    constant_zero_utility,
    expected_gain,
    threshold_utility,
)
from sbfe.utility import ThresholdFormula
from sbfe.verify import adg_cost_and_alpha, observed_alpha


class TestAdaptiveGreedy:
    def test_or_needs_both_tests(self):
        # both ratios 1/1.5, tie goes to x1; outcome 0 is not yet a cover
        g = cdnf_utility(disjunction_formula(2))
        d = ProductDistribution.uniform(2)
        tr = adaptive_greedy(g, d, (1.0, 1.0), (0, 1))
        assert tr.tested == (0, 1)
        assert tr.total_cost == 2.0

    def test_or_one_test_suffices(self):
        g = cdnf_utility(disjunction_formula(2))
        d = ProductDistribution.uniform(2)
        tr = adaptive_greedy(g, d, (1.0, 1.0), (1, 1))
        assert tr.tested == (0,)
        assert tr.total_cost == 1.0

    def test_goal_zero_runs_nothing(self):
        tr = adaptive_greedy(
            constant_zero_utility(3), ProductDistribution.uniform(3), (1.0,) * 3, (1, 1, 1)
        )
        assert tr.tested == () and tr.total_cost == 0.0

    def test_stuck_utility_rejected(self):
        g = UtilityFunction(2, 1, lambda b: 0)
        with pytest.raises(InvalidUtilityError):
            adaptive_greedy(g, ProductDistribution.uniform(2), (1.0, 1.0), (1, 1))

    def test_zero_cost_taken_first(self):
        g = cdnf_utility(disjunction_formula(3))
        d = ProductDistribution.uniform(3)
        tr = adaptive_greedy(g, d, (1.0, 0.0, 1.0), (0, 0, 1))
        assert tr.tested[0] == 1

    def test_selection_minimizes_ratio_per_step(self):
        for case in cdnf_battery(5, seed=41, n_lo=3, n_hi=6):
            g = cdnf_utility(case.f)
            x = (1, 0) * (g.arity // 2) + (1,) * (g.arity % 2)
            tr = adaptive_greedy(g, case.dist, case.costs, x)
            for t, chosen in enumerate(tr.tested):
                b = tr.prefixes(g.arity)[t]
                gains = {
                    j: expected_gain(g, b, j, case.dist.p, g.fn(b))
                    for j in range(g.arity)
                    if b[j] == STAR
                }
                chosen_ratio = case.costs[chosen] / gains[chosen]
                best = min(
                    case.costs[j] / eg for j, eg in gains.items() if eg > 0
                )
                assert chosen_ratio <= best + EPS

    def test_terminates_with_cover(self):
        for case in threshold_battery(5, seed=43, n_lo=2, n_hi=6):
            g = threshold_utility(case.f)
            for x in [(0,) * g.arity, (1,) * g.arity]:
                tr = adaptive_greedy(g, case.dist, case.costs, x)
                assert len(tr.tested) <= g.arity
                assert g.value(tr.final(g.arity)) == g.goal


class TestAdaptiveDualGreedy:
    def test_first_pick_matches_greedy(self):
        for case in cdnf_battery(6, seed=47, n_lo=2, n_hi=6):
            g = cdnf_utility(case.f)
            greedy = GreedyPolicy(g, case.dist, case.costs)
            dual = DualGreedyPolicy(g, case.dist, case.costs)
            b = stars(g.arity)
            assert greedy.next_test(b, greedy.initial_state()) == dual.next_test(
                b, dual.initial_state()
            )

    def test_threshold_single_decisive_test(self):
        g = threshold_utility(ThresholdFormula((1, 1), 1))
        d = ProductDistribution.uniform(2)
        tr = adaptive_dual_greedy(g, d, (1.0, 1.0), (1, 0))
        assert tr.tested == (0,)
        assert tr.total_cost == 1.0

    def test_first_dual_value(self):
        # y for the empty prefix is c_j / E[gain at the root]
        g = threshold_utility(ThresholdFormula((1, 1), 1))
        d = ProductDistribution.uniform(2)
        tr = adaptive_dual_greedy(g, d, (1.0, 1.0), (1, 0))
        root_gain = expected_gain(g, stars(2), tr.tested[0], d.p, 0)
        assert tr.dual_values[0] == pytest.approx(1.0 / root_gain)

    def test_duals_nonnegative_and_cover_reached(self):
        for case in threshold_battery(6, seed=53, n_lo=2, n_hi=6):
            g = threshold_utility(case.f)
            for x in all_assignments(g.arity):
                tr = adaptive_dual_greedy(g, case.dist, case.costs, x)
                assert all(y >= 0.0 for y in tr.dual_values)
                assert g.value(tr.final(g.arity)) == g.goal

    def test_expected_cost_matches_enumeration(self):
        for case in threshold_battery(4, seed=59, n_lo=2, n_hi=5):
            g = threshold_utility(case.f)
            policy = DualGreedyPolicy(g, case.dist, case.costs)
            assert expected_cost(policy, case.dist, case.costs) == pytest.approx(
                enumeration_expected_cost(policy, case.dist, case.costs, g.arity), abs=1e-9
            )


def _dual_greedy_by_the_book(g, d, c, x):
    """Literal transcription of the dual-credit selection rule, used as an
    independent oracle: duals keyed by explicit index subsets, every
    restricted-gain expectation recomputed from scratch."""
    from sbfe.core import as_costs, as_probabilities, restrict

    p = as_probabilities(d)
    cc = as_costs(c)
    n = g.arity

    def expected_restricted_gain(subset, b, j):
        # expectation over j's outcome of g(b restricted to subset+{j}),
        # minus g(b restricted to subset)
        bs = restrict(b, subset)
        base = g.fn(bs)
        up = g.fn(extend(bs, j, 1)) - base
        down = g.fn(extend(bs, j, 0)) - base
        return p[j] * up + (1.0 - p[j]) * down

    b = stars(n)
    y = {}
    tested = []
    while g.fn(b) < g.goal:
        best, best_ratio = None, None
        for j in range(n):
            if b[j] != STAR:
                continue
            gain = expected_restricted_gain(frozenset(tested), b, j)
            if gain <= 0:
                continue
            credit = sum(
                ys * expected_restricted_gain(s, b, j) for s, ys in y.items() if ys != 0.0
            )
            ratio = (cc[j] - credit) / gain
            if best is None or ratio < best_ratio:
                best, best_ratio = j, ratio
        assert best is not None
        y[frozenset(tested)] = max(0.0, best_ratio)
        b = extend(b, best, x[best])
        tested.append(best)
    return tuple(tested), tuple(y[frozenset(tested[:t])] for t in range(len(tested)))


class TestDualGreedyAgainstLiteralRule:
    def test_traces_and_duals_agree(self):
        for case in threshold_battery(4, seed=73, n_lo=2, n_hi=5) + cdnf_battery(
            4, seed=74, n_lo=2, n_hi=5
        ):
            g = (
                threshold_utility(case.f)
                if case.kind == "threshold"
                else cdnf_utility(case.f)
            )
            for x in all_assignments(g.arity):
                got = adaptive_dual_greedy(g, case.dist, case.costs, x)
                want_tested, want_duals = _dual_greedy_by_the_book(
                    g, case.dist, case.costs, x
                )
                assert got.tested == want_tested, (case.id, x)
                for a, b in zip(got.dual_values, want_duals):
                    assert a == pytest.approx(b, abs=1e-12)


_ADG_BATTERIES = {
    "threshold": lambda: threshold_battery(12, seed=1004, n_lo=3, n_hi=8),
    "cdnf": lambda: cdnf_battery(12, seed=1006, n_lo=3, n_hi=8),
    "truthtable": lambda: truth_table_battery(12, seed=1014, n_lo=2, n_hi=7),
    "thresholds": lambda: threshold_set_battery(8, seed=1013, m_hi=3, n_lo=4, n_hi=8),
    "linear-system": lambda: linear_system_battery(10, seed=1011, m_hi=3, n_lo=2, n_hi=6),
    "disjunction": lambda: disjunction_battery(10, seed=1009, n_lo=2, n_hi=8),
    "knapsack": lambda: knapsack_battery(12, seed=1010, n_lo=3, n_hi=10),
}


def _adg_utility(case):
    """The utility `sbfe eval` gives the dual greedy on a case."""
    if case.kind == "knapsack":
        return threshold_utility(ThresholdFormula(case.f.values, case.f.threshold))
    return _EVAL[case.kind][0](case.f)


class TestDualGreedyAgainstReference:
    """The carried credit and the gain record change no float: the policy
    and the recomputing reference agree with == on every battery."""

    @pytest.mark.parametrize("kind", sorted(_ADG_BATTERIES))
    def test_same_trees_duals_alpha_and_cost(self, kind):
        leaf_ys = lambda b, state, path: [state[1]]
        join = lambda i, lo, hi: lo + hi
        checked = 0
        for case in _ADG_BATTERIES[kind]():
            try:
                g = _adg_utility(case)
            except ConstantFunctionError:
                continue
            n, d, c = g.arity, case.dist, case.costs
            fast = DualGreedyPolicy(g, d, c)
            slow = ReferenceDualGreedy(g, d, c)
            assert policy_tree(fast, n, tuple) == policy_tree(slow, n, tuple), case.id
            assert walk_policy(fast, n, leaf_ys, join) == walk_policy(slow, n, leaf_ys, join)
            cost, alpha = adg_cost_and_alpha(g, d, c)
            assert alpha == reference_alpha(g, d, c) == observed_alpha(g, d, c), case.id
            assert cost == expected_cost(slow, d, c) == expected_cost(fast, d, c), case.id
            checked += 1
        assert checked >= 5

    def test_utility_calls_within_twice_greedy(self):
        # sbfe gen --kind threshold --n 10 --seed 3; the recomputing
        # reference makes 12,024 calls here against the greedy's 1,039
        inst = generate_instance("threshold", 10, 3, m=2)
        plain = threshold_utility(inst.f)

        def calls(policy_class):
            count = [0]

            def fn(b):
                count[0] += 1
                return plain.fn(b)

            g = dataclasses.replace(plain, fn=fn)
            expected_cost(policy_class(g, inst.dist, inst.costs), inst.dist, inst.costs)
            return count[0]

        assert calls(DualGreedyPolicy) <= 2 * calls(GreedyPolicy)


class TestAlpha:
    def test_empty_trace(self):
        g = constant_zero_utility(2)
        assert alpha_of_trace(g, None, RunTrace((), (), 0.0)) == 1.0

    def test_root_prefix_ratio(self):
        g = cdnf_utility(disjunction_formula(2))
        d = ProductDistribution.uniform(2)
        tr = adaptive_dual_greedy(g, d, (1.0, 1.0), (0, 1))
        samples = prefix_ratios(g, tuple(zip(tr.tested, tr.outcomes)))
        # at the empty prefix the denominator is the whole goal
        expect = sum(
            g.value(extend(stars(2), i, v)) for i, v in zip(tr.tested, tr.outcomes)
        ) / g.goal
        assert dict(samples)[0] == pytest.approx(expect)
        assert alpha_of_trace(g, (0, 1), tr) == pytest.approx(max(r for _, r in samples))

    def test_inconsistent_assignment_rejected(self):
        g = cdnf_utility(disjunction_formula(2))
        d = ProductDistribution.uniform(2)
        tr = adaptive_dual_greedy(g, d, (1.0, 1.0), (0, 1))
        with pytest.raises(ValueError):
            alpha_of_trace(g, (1, 1), tr)

    def test_threshold_alpha_below_three(self):
        for case in threshold_battery(8, seed=61, n_lo=2, n_hi=7):
            g = threshold_utility(case.f)
            assert observed_alpha(g, case.dist, case.costs) <= 3.0 + 1e-9


class TestBounds:
    def test_lnq(self):
        g = cdnf_utility(conjunction_formula(2))
        rep = bounds(g)
        assert rep.lnq_bound == pytest.approx(math.log(2) + 1)

    def test_single_item_bound(self):
        # testing x1 = 0 alone yields the whole goal of 2
        g = cdnf_utility(conjunction_formula(2))
        rep = bounds(g)
        assert rep.max_single_gain == 2
        assert rep.p_bound == pytest.approx(2 * (math.log(2) + 1))

    def test_goal_zero(self):
        rep = bounds(constant_zero_utility(2))
        assert rep.lnq_bound == 0.0 and rep.p_bound == 0.0

    def test_single_gain_times_n_covers_goal(self):
        for case in cdnf_battery(8, seed=67, n_lo=2, n_hi=8):
            g = cdnf_utility(case.f)
            rep = bounds(g)
            assert rep.max_single_gain * g.arity >= g.goal


class TestFixedOrderPolicies:
    def test_cp_ordering(self):
        d = ProductDistribution((0.2, 0.9))
        pol = cp_ratio_policy(d, (1.0, 1.0), "or")
        assert pol.order == (1, 0)

    def test_cp_tie_goes_to_lower_index(self):
        d = ProductDistribution((0.5, 0.25))
        pol = cp_ratio_policy(d, (2.0, 1.0), "or")
        assert pol.order == (0, 1)

    def test_cp_stops_at_decisive_outcome(self):
        d = ProductDistribution.uniform(3)
        pol = cp_ratio_policy(d, (1.0,) * 3, "or")
        assert pol.next_test((1, STAR, STAR), None) is None
        pol_and = cp_ratio_policy(d, (1.0,) * 3, "and")
        assert pol_and.next_test((0, STAR, STAR), None) is None
        assert pol_and.next_test((1, STAR, STAR), None) is not None

    def test_cost_order(self):
        pol = cost_order_policy((3.0, 1.0, 2.0))
        assert pol.order == (1, 2, 0)
        assert cost_order_policy((1.0, 1.0, 1.0)).order == (0, 1, 2)

    def test_cp_exact_on_disjunctions(self):
        for case in disjunction_battery(10, seed=71, n_lo=2, n_hi=7):
            pol = cp_ratio_policy(case.dist, case.costs, "or")
            cost = expected_cost(pol, case.dist, case.costs)
            opt, _ = optimal_expected_cost(case.f, case.dist, case.costs)
            assert cost == pytest.approx(opt, abs=1e-9)
