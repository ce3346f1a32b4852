"""Acceptance suite: one test per claimed guarantee, each printing a
PASS/FAIL line (run with `pytest -s tests/test_acceptance.py` to see them).

Expected costs are exact (full traversal of the induced strategy), optima
come from the exhaustive dynamic program, and every tolerance is stated
inline.  Batteries are seeded, so the suite is fully reproducible.
"""
import math
import random
import time
from fractions import Fraction

import pytest

from helpers import axiom_utilities, brute_diff_extrema, linear_values, step_off_by_one
from sbfe.core import (
    all_assignments,
    all_partials,
    expected_cost,
    optimal_expected_cost,
)
from sbfe.instances import (
    cdnf_battery,
    disjunction_battery,
    gen_linear_system,
    gen_truth_table,
    knapsack_battery,
    linear_system_battery,
    threshold_battery,
    threshold_set_battery,
)
from sbfe.policies import DualGreedyPolicy, GreedyPolicy, bounds, cp_ratio_policy
from sbfe.problems import (
    expected_certificate_cost_disjunction,
    harmonic_gap_instance,
    min_knapsack_adg,
    min_knapsack_bruteforce,
    rank_linear_functions,
)
from sbfe.utility import (
    LinearSystem,
    cdnf_utility,
    ranking_pair_utility,
    threshold_utility,
    truth_table_utility,
)
from sbfe.verify import (
    check_axioms,
    check_dual_feasibility,
    check_goal_certificate,
    observed_alpha,
)

TOL = 1e-6
EXACT_TOL = 1e-9


def report(num: int, name: str, ok: bool, detail: str = ""):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


RANDOM_AXIOM_CHECKS = 10000
RANDOM_AXIOM_N = 12


def _criterion_01_utilities():
    """Criterion 01's (n, name, utility) triples: exhaustive ones at arity
    3 to 8, then the random ones at arity 12.  Arities 7 and 8 draw from
    their own generator, so the arity 3-6 and 12 utilities are the ones
    drawn before they were added."""
    rng = random.Random(1001)
    larger = random.Random(1003)
    arities = ((rng, 3), (rng, 4), (rng, 5), (rng, 6), (larger, 7), (larger, 8))
    for source, n in (*arities, (rng, RANDOM_AXIOM_N)):
        for name, g in axiom_utilities(source, n):
            yield n, name, g


def _criterion_01_random(g):
    return check_axioms(g, "random", trials=RANDOM_AXIOM_CHECKS, seed=1002)


def test_criterion_01_utility_axioms():
    """Monotonicity and submodularity: exhaustive to arity 8, then at least
    ten thousand random checks per construction at arity 12, where the
    random mode also checks each utility's ``step`` against its ``fn``;
    under a minute."""
    start = time.time()
    exhaustive = 0
    randomized = 0
    for n, name, g in _criterion_01_utilities():
        if n < RANDOM_AXIOM_N:
            rep = check_axioms(g, "exhaustive")
            assert rep.ok, (name, n, rep.counterexample, rep.message)
            exhaustive += rep.checked
        else:
            rep = _criterion_01_random(g)
            assert rep.ok, (name, rep.counterexample, rep.message)
            assert rep.checked >= RANDOM_AXIOM_CHECKS, (name, rep.checked)
            randomized += rep.checked
    elapsed = time.time() - start
    report(
        1,
        "utility axioms (monotone + submodular)",
        elapsed < 60.0,
        f"{exhaustive} exhaustive + {randomized} random checks, {elapsed:.1f}s",
    )


def test_criterion_01_finds_a_wrong_step():
    """Criterion 01's random checks fail each arity-12 construction whose
    ``step`` is one too high at every state with five untested positions,
    with ``fn`` intact."""
    for n, name, g in _criterion_01_utilities():
        if n == RANDOM_AXIOM_N:
            rep = _criterion_01_random(step_off_by_one(g, 5))
            assert not rep.ok and rep.message == "step disagrees with fn", name


def test_criterion_02_goal_certificate_equivalence():
    """Utility reaches its goal exactly on certifying partial assignments,
    over all 3^n states, 50 instances per construction, arity up to 8."""
    scanned = 0
    for case in cdnf_battery(50, seed=2001, n_lo=2, n_hi=8):
        rep = check_goal_certificate(cdnf_utility(case.f), case.f)
        assert rep.ok, (case.id, rep.message)
        scanned += rep.checked
    for case in threshold_battery(50, seed=2002, n_lo=2, n_hi=8):
        rep = check_goal_certificate(threshold_utility(case.f), case.f)
        assert rep.ok, (case.id, rep.message)
        scanned += rep.checked
    rng = random.Random(2003)
    for idx in range(50):
        n = 2 + idx % 7
        f = gen_truth_table(rng, n)
        rep = check_goal_certificate(truth_table_utility(f), f)
        assert rep.ok, (idx, rep.message)
        scanned += rep.checked
    # ranking pairs: the goal must mark exactly the states where the pair's
    # order is decided, judged by brute-force extrema over all extensions
    rng = random.Random(2004)
    for idx in range(50):
        n = 2 + idx % 7
        sys = gen_linear_system(rng, 2, n)
        g = ranking_pair_utility(sys, 0, 1)
        delta = sys.diff(0, 1)
        for b in all_partials(n):
            lo, hi = brute_diff_extrema(delta, b)
            decided = hi <= 0 or lo >= 0
            assert (g.fn(b) == g.goal) == decided, (idx, b)
            scanned += 1
    report(2, "goal-certificate equivalence", True, f"{scanned} states scanned")


@pytest.fixture(scope="module")
def cdnf_rows():
    start = time.time()
    rows = []
    for case in cdnf_battery(100, seed=1003, n_lo=4, n_hi=10):
        g = cdnf_utility(case.f)
        cost = expected_cost(GreedyPolicy(g, case.dist, case.costs), case.dist, case.costs)
        opt = optimal_expected_cost(case.f, case.dist, case.costs)
        rows.append((case, g, cost, opt, bounds(g)))
    return rows, time.time() - start


def test_criterion_03_greedy_within_goal_log_bound(cdnf_rows):
    """Greedy expected cost at most (ln(kd) + 1) times the exact optimum on
    100 CNF/DNF instances, arity up to 10, clause and term counts up to 4."""
    rows, elapsed = cdnf_rows
    worst = 0.0
    for case, g, cost, opt, rep in rows:
        assert 1 <= case.f.k <= 4 and 1 <= case.f.d <= 4
        assert g.goal == case.f.k * case.f.d
        bound = math.log(case.f.k * case.f.d) + 1.0 if g.goal > 1 else 1.0
        assert cost <= bound * opt + TOL, (case.id, cost, bound, opt)
        worst = max(worst, cost / opt)
    report(
        3,
        "greedy <= (ln kd + 1) * optimum on CNF/DNF pairs",
        len(rows) >= 100 and elapsed < 300.0,
        f"{len(rows)} instances in {elapsed:.1f}s, worst ratio {worst:.3f}",
    )


def test_criterion_04_dual_greedy_threshold_three_approx():
    """Dual greedy on thresholds: expected cost at most 3 times the optimum
    and every per-prefix ratio at most 3, on 100 instances up to arity 10."""
    cases = threshold_battery(100, seed=1004, n_lo=4, n_hi=10)
    worst_ratio = 0.0
    worst_alpha = 0.0
    for case in cases:
        g = threshold_utility(case.f)
        cost = expected_cost(DualGreedyPolicy(g, case.dist, case.costs), case.dist, case.costs)
        opt = optimal_expected_cost(case.f, case.dist, case.costs)
        alpha = observed_alpha(g, case.dist, case.costs)
        assert alpha <= 3.0 + EXACT_TOL, (case.id, alpha)
        assert cost <= 3.0 * opt + TOL, (case.id, cost, opt)
        assert cost <= alpha * opt + TOL, (case.id, cost, alpha, opt)
        worst_ratio = max(worst_ratio, cost / opt)
        worst_alpha = max(worst_alpha, alpha)
    report(
        4,
        "dual greedy 3-approximation on thresholds",
        len(cases) >= 100,
        f"worst ratio {worst_ratio:.3f}, worst alpha {worst_alpha:.4f}",
    )


def test_criterion_05_dual_feasibility_and_objective_identity():
    """The dual solution assembled from all runs is feasible, tight exactly
    on tested coordinates (1e-9), and its objective mass equals the expected
    run cost within 1e-6; 50 instances up to arity 10."""
    cases = (
        threshold_battery(24, seed=1005, n_lo=3, n_hi=7)
        + cdnf_battery(24, seed=1006, n_lo=3, n_hi=7)
        + threshold_battery(1, seed=1007, n_lo=9, n_hi=9)
        + cdnf_battery(1, seed=1008, n_lo=10, n_hi=10)
    )
    assert len(cases) == 50
    worst_gap = 0.0
    for case in cases:
        g = threshold_utility(case.f) if case.kind == "threshold" else cdnf_utility(case.f)
        cert = check_dual_feasibility(g, case.dist, case.costs)
        assert cert.ok, (case.id, cert.violations[:3])
        assert cert.objective_gap <= TOL, (case.id, cert.objective_gap)
        worst_gap = max(worst_gap, cert.objective_gap)
    report(
        5,
        "dual feasibility, tightness, and objective identity",
        True,
        f"50 instances, worst objective gap {worst_gap:.2e}",
    )


def test_criterion_06_cost_probability_ordering_exact():
    """The cost/probability ordering matches the exact optimum to 1e-9 on
    200 disjunction instances up to arity 10."""
    cases = disjunction_battery(200, seed=1009, n_lo=2, n_hi=10)
    worst = 0.0
    for case in cases:
        policy = cp_ratio_policy(case.dist, case.costs)
        cost = expected_cost(policy, case.dist, case.costs)
        opt = optimal_expected_cost(case.f, case.dist, case.costs)
        gap = abs(cost - opt)
        assert gap <= EXACT_TOL, (case.id, cost, opt)
        worst = max(worst, gap)
    report(
        6,
        "cost/probability ordering is exactly optimal on disjunctions",
        len(cases) >= 200,
        f"worst |policy - optimum| = {worst:.2e}",
    )


def test_criterion_07_min_knapsack_two_approx():
    """Dual-greedy min-knapsack costs at most twice the brute-force optimum
    on 200 instances up to 15 items, and always covers the threshold."""
    cases = knapsack_battery(200, seed=1010, n_lo=3, n_hi=15)
    worst = 0.0
    for case in cases:
        kp = case.f
        items, cost = min_knapsack_adg(kp)
        _, opt = min_knapsack_bruteforce(kp)
        assert sum(kp.values[i] for i in items) >= kp.threshold, case.id
        assert cost <= 2.0 * opt + EXACT_TOL, (case.id, cost, opt)
        if opt > 0:
            worst = max(worst, cost / opt)
    report(
        7,
        "min-knapsack within twice the optimum",
        len(cases) >= 200,
        f"worst ratio {worst:.3f}",
    )


def test_criterion_08_harmonic_gap_family():
    """Unit costs with Prob[x_i = 1] = 1/(i+2): the optimal strategy costs
    the n-th harmonic number (1e-6) while the expected cheapest-certificate
    cost stays below 2, for n = 4, 8, 16."""
    details = []
    for n in (4, 8, 16):
        _, d, c = harmonic_gap_instance(n)
        # the ordering policy is optimal for disjunctions (criterion 6
        # verifies that against the dynamic program on every size it covers)
        policy_cost = expected_cost(cp_ratio_policy(d, c), d, c)
        harmonic = float(sum(Fraction(1, t) for t in range(1, n + 1)))
        assert abs(policy_cost - harmonic) <= TOL, (n, policy_cost, harmonic)
        if n <= 8:
            f, _, _ = harmonic_gap_instance(n)
            opt = optimal_expected_cost(f, d, c)
            assert abs(opt - policy_cost) <= EXACT_TOL
        cert = expected_certificate_cost_disjunction(d, c)
        assert cert < 2.0, (n, cert)
        details.append(f"n={n}: opt={policy_cost:.4f}, cert={cert:.4f}")
    report(8, "harmonic strategy/certificate gap", True, "; ".join(details))


def test_criterion_09_single_gain_bound(cdnf_rows):
    """Greedy expected cost at most 2(ln P + 1) times the optimum, where P
    is the largest single-test gain; P * n always covers the goal."""
    rows, _ = cdnf_rows
    worst = 0.0
    for case, g, cost, opt, rep in rows:
        assert rep.max_single_gain * g.arity >= g.goal, case.id
        bound = rep.p_bound if rep.max_single_gain > 1 else 2.0
        assert cost <= bound * opt + TOL, (case.id, cost, bound, opt)
        worst = max(worst, cost / opt)
    report(
        9,
        "greedy <= 2(ln P + 1) * optimum and P >= goal/n",
        len(rows) >= 100,
        f"worst ratio {worst:.3f}",
    )


def test_criterion_10_ranking_soundness():
    """Rankings are consistent with the realized values on every input, for
    50 systems with up to 4 functions and arity up to 8, ties included."""
    cases = linear_system_battery(45, seed=1011, m_hi=4, n_lo=2, n_hi=8)
    rng = random.Random(1012)
    for idx in range(5):  # forced duplicates: guaranteed tie classes
        base = gen_linear_system(rng, 2, 3 + idx % 4)
        rows = base.coeffs + (base.coeffs[0],)
        cases.append(
            type(cases[0])(
                f"dup-{idx}",
                "linear-system",
                LinearSystem(rows),
                cases[idx].dist if cases[idx].f.arity == len(rows[0]) else None,
                None,
            )
        )
    checked_inputs = 0
    duplicates_seen = 0
    for case in cases:
        sys = case.f
        if case.dist is None or len(case.dist.p) != sys.arity:
            from sbfe.core import ProductDistribution

            d = ProductDistribution((0.4,) * sys.arity)
            c = tuple(1.0 + (i % 3) for i in range(sys.arity))
        else:
            d, c = case.dist, case.costs
        if len(set(sys.coeffs)) < sys.m:
            duplicates_seen += 1
        for x in all_assignments(sys.arity):
            result, trace = rank_linear_functions(sys, d, c, x)
            values = linear_values(sys, x)
            ranked = [values[j] for j in result.permutation]
            assert ranked == sorted(ranked), (case.id, x, result)
            for cls in result.equality_classes:
                assert len({values[j] for j in cls}) == 1, (case.id, x, cls)
            b = trace.final
            for pos, i in enumerate(result.permutation):
                for j in result.permutation[pos + 1 :]:
                    assert sys.known_order(i, j, b)[0] or values[i] == values[j], (case.id, x)
            checked_inputs += 1
    report(
        10,
        "ranking output sound on every input",
        len(cases) >= 50 and duplicates_seen >= 5,
        f"{len(cases)} systems ({duplicates_seen} with ties), {checked_inputs} runs",
    )


def test_criterion_11_simultaneous_evaluation_bounds():
    """Simultaneous threshold evaluation: greedy within ln(total goal) + 1
    of the multi-output optimum and dual greedy within the largest
    coefficient mass, up to 3 formulas and arity 10."""
    cases = threshold_set_battery(30, seed=1013, m_hi=3, n_lo=4, n_hi=10)
    worst_greedy = 0.0
    worst_adg = 0.0
    for case in cases:
        g = case.f.utility()
        opt = optimal_expected_cost(case.f, case.dist, case.costs)
        greedy_cost = expected_cost(
            GreedyPolicy(g, case.dist, case.costs), case.dist, case.costs
        )
        bound = math.log(g.goal) + 1.0 if g.goal > 1 else 1.0
        assert greedy_cost <= bound * opt + TOL, (case.id, greedy_cost, bound, opt)
        adg_cost = expected_cost(
            DualGreedyPolicy(g, case.dist, case.costs), case.dist, case.costs
        )
        assert adg_cost <= case.f.d_max * opt + TOL, (case.id, adg_cost, case.f.d_max, opt)
        worst_greedy = max(worst_greedy, greedy_cost / opt)
        worst_adg = max(worst_adg, adg_cost / opt)
    report(
        11,
        "simultaneous evaluation within both engine bounds",
        len(cases) >= 30,
        f"worst greedy ratio {worst_greedy:.3f}, worst dual ratio {worst_adg:.3f}",
    )
