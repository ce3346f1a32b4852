import math
import random

import pytest

import sbfe.problems
from helpers import (
    brute_certificate,
    brute_diff_extrema,
    conjunction_formula,
    evaluate,
    expected_certificate_cost,
    linear_values,
    or_threshold,
    reference_extract_ranking,
)
from sbfe.core import (
    ProductDistribution,
    all_assignments,
    all_partials,
    expected_cost,
    optimal_expected_cost,
)
from sbfe.instances import (
    gen_linear_system,
    gen_threshold_set,
    knapsack_battery,
    linear_system_battery,
    threshold_set_battery,
)
from sbfe.policies import DualGreedyPolicy, GreedyPolicy, bounds
from sbfe.problems import (
    KnapsackInstance,
    ThresholdSet,
    _extract_ranking,
    evaluate_cdnf,
    evaluate_threshold_adg,
    evaluate_threshold_greedy,
    expected_certificate_cost_disjunction,
    harmonic_gap_instance,
    min_knapsack_adg,
    min_knapsack_bruteforce,
    rank_linear_functions,
    ranking_utility,
    simultaneous_thresholds,
)
from sbfe.utility import CdnfFormula, LinearSystem, ThresholdFormula, constant_zero_utility


class TestEvaluateCdnf:
    def test_conjunction_one_test(self):
        f = conjunction_formula(2)
        value, tr = evaluate_cdnf(f, ProductDistribution((0.5,) * 2), (1.0, 1.0), (0, 1))
        assert value == 0
        assert tr.tested == (0,)

    def test_identically_true_formula(self):
        f = CdnfFormula(1, (frozenset({1, -1}),), (frozenset({1}), frozenset({-1})))
        value, tr = evaluate_cdnf(f, ProductDistribution((0.5,) * 1), (1.0,), (0,))
        assert value == 1
        assert tr.tested == ()

    def test_value_matches_direct_evaluation(self):
        from sbfe.instances import cdnf_battery

        for case in cdnf_battery(6, seed=101, n_lo=2, n_hi=6):
            for x in all_assignments(case.f.arity):
                value, tr = evaluate_cdnf(case.f, case.dist, case.costs, x)
                assert value == evaluate(case.f, x)
                assert brute_certificate(case.f, tr.final(case.f.arity)) == value


class TestEvaluateThreshold:
    def test_greedy_decisive_first_test(self):
        f = ThresholdFormula((1, 1), 1)
        value, tr = evaluate_threshold_greedy(
            f, ProductDistribution((0.5,) * 2), (1.0, 1.0), (1, 0)
        )
        assert value == 1
        assert tr.tested == (0,)

    def test_constant_false(self):
        f = ThresholdFormula((1, 1), 3)
        value, tr = evaluate_threshold_greedy(
            f, ProductDistribution((0.5,) * 2), (1.0, 1.0), (1, 1)
        )
        assert value == 0
        assert tr.tested == ()

    def test_adg_correct_on_all_inputs(self):
        from sbfe.instances import threshold_battery

        for case in threshold_battery(6, seed=103, n_lo=2, n_hi=6):
            for x in all_assignments(case.f.arity):
                value, tr = evaluate_threshold_adg(case.f, case.dist, case.costs, x)
                assert value == evaluate(case.f, x)
                assert brute_certificate(case.f, tr.final(case.f.arity)) == value

    def test_adg_positive_runs_end_on_raising_test(self):
        # when f(x) = 1, the final test is the one that pushes the
        # guaranteed minimum over the line: a positive coefficient seen as 1
        # or a negative coefficient seen as 0
        from sbfe.instances import threshold_battery

        for case in threshold_battery(6, seed=104, n_lo=2, n_hi=6):
            for x in all_assignments(case.f.arity):
                if evaluate(case.f, x) != 1:
                    continue
                _, tr = evaluate_threshold_adg(case.f, case.dist, case.costs, x)
                if not tr.tested:
                    continue
                last = tr.tested[-1]
                a_last = case.f.coeffs[last]
                assert (x[last] == 1 and a_last >= 0) or (x[last] == 0 and a_last < 0)

    def test_greedy_within_goal_log_bound(self):
        from sbfe.instances import threshold_battery
        from sbfe.policies import GreedyPolicy, bounds
        from sbfe.utility import threshold_utility

        for case in threshold_battery(10, seed=105, n_lo=2, n_hi=6):
            g = threshold_utility(case.f)
            cost = expected_cost(GreedyPolicy(g, case.dist, case.costs), case.dist, case.costs)
            opt = optimal_expected_cost(case.f, case.dist, case.costs)
            assert cost <= bounds(g).lnq_bound * opt + 1e-6

    def test_drivers_exhaustive_at_width_nine(self):
        from sbfe.instances import cdnf_battery, threshold_battery

        case = cdnf_battery(1, seed=137, n_lo=9, n_hi=9)[0]
        for x in all_assignments(9):
            value, _ = evaluate_cdnf(case.f, case.dist, case.costs, x)
            assert value == evaluate(case.f, x)
        case = threshold_battery(1, seed=139, n_lo=9, n_hi=9)[0]
        for x in all_assignments(9):
            value, _ = evaluate_threshold_adg(case.f, case.dist, case.costs, x)
            assert value == evaluate(case.f, x)


class TestSimultaneous:
    def test_single_formula_reduces_exactly(self):
        rng = random.Random(5)
        fs = gen_threshold_set(rng, 1, 4)
        d = ProductDistribution((0.5,) * 4)
        c = (1.0,) * 4
        for x in all_assignments(4):
            bits, tr = simultaneous_thresholds(fs, d, c, x)
            _, tr_single = evaluate_threshold_greedy(fs.formulas[0], d, c, x)
            assert bits == (evaluate(fs.formulas[0], x),)
            assert tr.tested == tr_single.tested

    def test_decoding_on_all_inputs(self):
        for case in threshold_set_battery(5, seed=107, m_hi=3, n_lo=3, n_hi=5):
            for x in all_assignments(case.f.arity):
                for engine in ("greedy", "adg"):
                    bits, _ = simultaneous_thresholds(case.f, case.dist, case.costs, x, engine)
                    assert bits == evaluate(case.f, x)

    def test_constant_subformulas_contribute_nothing(self):
        fs = ThresholdSet((ThresholdFormula((1, 1), 3), ThresholdFormula((1, 1), 1)))
        g = fs.utility()
        assert g.goal == 2  # only the non-constant side contributes
        bits, _ = simultaneous_thresholds(fs, ProductDistribution((0.5,) * 2), (1.0, 1.0), (0, 1))
        assert bits == (0, 1)

    def test_adg_within_dmax_of_optimum(self):
        for case in threshold_set_battery(5, seed=109, m_hi=3, n_lo=3, n_hi=6):
            g = case.f.utility()
            if g.goal == 0:
                continue
            cost = expected_cost(DualGreedyPolicy(g, case.dist, case.costs), case.dist, case.costs)
            opt = optimal_expected_cost(case.f, case.dist, case.costs)
            assert cost <= case.f.d_max * opt + 1e-6

    def test_or_formulas_single_gain_bound(self):
        # every variable in at most r formulas, lengths at most beta: the
        # largest single-test gain is at most beta * r
        sets = ThresholdSet(
            (or_threshold(4, (0, 1)), or_threshold(4, (1, 2)), or_threshold(4, (2, 3)))
        )
        g = sets.utility()
        rep = bounds(g)
        beta_max, r = 2, 2
        assert rep.max_single_gain <= beta_max * r
        assert rep.p_bound <= 2 * (math.log(beta_max * r) + 1) + 1e-9


class TestRanking:
    def test_two_functions_single_test(self):
        sys = LinearSystem(((1, 0), (0, 1)))
        d = ProductDistribution((0.5,) * 2)
        result, tr = rank_linear_functions(sys, d, (1.0, 1.0), (1, 0))
        assert result.permutation == (1, 0)
        assert len(tr.tested) == 1

    def test_identical_functions_one_class(self):
        sys = LinearSystem(((1, 2), (1, 2)))
        result, tr = rank_linear_functions(sys, ProductDistribution((0.5,) * 2), (1.0, 1.0), (0, 0))
        assert tr.tested == ()
        assert result.equality_classes == ((0, 1),)
        assert result.permutation == (0, 1)

    def test_needs_two_functions(self):
        with pytest.raises(ValueError):
            rank_linear_functions(
                LinearSystem(((1, 0),)), ProductDistribution((0.5,) * 2), (1.0, 1.0), (0, 0)
            )

    def test_sound_on_all_inputs(self):
        for case in linear_system_battery(6, seed=113, m_hi=3, n_lo=2, n_hi=5):
            sys = case.f
            for x in all_assignments(sys.arity):
                result, tr = rank_linear_functions(sys, case.dist, case.costs, x)
                values = linear_values(sys, x)
                ranked = [values[j] for j in result.permutation]
                assert ranked == sorted(ranked)
                for cls in result.equality_classes:
                    assert len({values[j] for j in cls}) == 1
                # emitted order never contradicts a decided pair
                b = tr.final(sys.arity)
                for pos, i in enumerate(result.permutation):
                    for j in result.permutation[pos + 1 :]:
                        assert any(sys.known_order(i, j, b))
                        if not sys.known_order(i, j, b)[0]:
                            assert values[i] == values[j]

    def test_greedy_within_goal_bound(self):
        for case in linear_system_battery(4, seed=127, m_hi=3, n_lo=2, n_hi=5):
            g = ranking_utility(case.f)
            if g.goal == 0:
                continue
            cost = expected_cost(GreedyPolicy(g, case.dist, case.costs), case.dist, case.costs)
            opt = optimal_expected_cost(case.f, case.dist, case.costs)
            assert cost <= bounds(g).lnq_bound * opt + 1e-6


    def test_extract_ranking_matches_reference(self):
        # the sort equals the emit/collapse loop on every state that decides
        # every pair, and gives None on every state that leaves one open
        rng = random.Random(137)
        seen = {True: 0, False: 0}
        for trial in range(40):
            m, n = 2 + trial % 4, 1 + trial % 5
            sys = gen_linear_system(rng, m, n, duplicate_prob=0.3)
            diffs = [sys.diff(i, j) for i in range(m) for j in range(i + 1, m)]
            for b in all_partials(n):
                extrema = [brute_diff_extrema(delta, b) for delta in diffs]
                decided = all(lo >= 0 or hi <= 0 for lo, hi in extrema)
                seen[decided] += 1
                result = _extract_ranking(sys, b)
                if decided:
                    got = (result.permutation, result.equality_classes)
                    assert got == reference_extract_ranking(sys, b), (sys, b)
                else:
                    assert result is None, (sys, b)
        assert min(seen.values()) > 0

    def test_run_stopped_undecided_raises(self, monkeypatch):
        # a goal-0 utility stops the greedy before any test, with the pair open
        monkeypatch.setattr(
            sbfe.problems, "ranking_utility", lambda sys: constant_zero_utility(sys.arity)
        )
        sys = LinearSystem(((1, 0), (0, 1)))
        with pytest.raises(RuntimeError):
            rank_linear_functions(sys, ProductDistribution((0.5,) * 2), (1.0, 1.0), (1, 0))


class TestMinKnapsack:
    def test_three_items(self):
        kp = KnapsackInstance((3, 2, 2), (1.0, 1.0, 1.0), 4)
        items, cost = min_knapsack_adg(kp)
        _, opt = min_knapsack_bruteforce(kp)
        assert opt == 2.0
        assert cost <= 2 * opt
        assert sum(kp.values[i] for i in items) >= kp.threshold

    def test_zero_threshold(self):
        kp = KnapsackInstance((3, 2), (1.0, 1.0), 0)
        assert min_knapsack_adg(kp) == ((), 0.0)

    def test_single_forced_item(self):
        kp = KnapsackInstance((5,), (2.5,), 5)
        items, cost = min_knapsack_adg(kp)
        assert items == (0,) and cost == 2.5

    def test_infeasible_rejected(self):
        with pytest.raises(ValueError):
            KnapsackInstance((1, 1), (1.0, 1.0), 3)

    def test_battery_two_approximation_and_feasibility(self):
        for case in knapsack_battery(20, seed=131, n_lo=2, n_hi=10):
            kp = case.f
            items, cost = min_knapsack_adg(kp)
            _, opt = min_knapsack_bruteforce(kp)
            assert sum(kp.values[i] for i in items) >= kp.threshold, case.id
            assert cost <= 2 * opt + 1e-9, case.id


class TestGapFamily:
    def test_certificate_cost_closed_form_matches_enumeration(self):
        for n in (2, 4, 6):
            f, d, c = harmonic_gap_instance(n)
            direct = expected_certificate_cost(f, d, c)
            closed = expected_certificate_cost_disjunction(d, c)
            assert closed == pytest.approx(direct, abs=1e-12)

    def test_certificate_cost_below_two(self):
        for n in (4, 8, 16):
            _, d, c = harmonic_gap_instance(n)
            assert expected_certificate_cost_disjunction(d, c) < 2.0
