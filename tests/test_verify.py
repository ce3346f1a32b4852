import dataclasses
import random

import pytest

import sbfe.verify
from helpers import (
    axiom_utilities,
    clear,
    extensions,
    is_full,
    prefix_ratios,
    prob_of,
    reference_check_axioms_exhaustive,
    reference_check_axioms_random,
    reference_check_dual_feasibility,
    reference_run,
    step_off_by_one,
    utility_from_fn,
)
from sbfe.core import (
    STAR,
    LimitError,
    ProductDistribution,
    all_assignments,
    expected_cost,
    extend,
    optimal_expected_cost,
)
from sbfe.instances import (
    cdnf_battery,
    disjunction_battery,
    gen_cdnf,
    gen_linear_system,
    gen_threshold,
    gen_truth_table,
    generate_instance,
    threshold_battery,
)
from sbfe.policies import (
    DualGreedyPolicy,
    GreedyPolicy,
    bounds,
    cp_ratio_policy,
)
from sbfe.problems import ranking_utility
from sbfe.utility import (
    ThresholdFormula,
    UtilityFunction,
    cdnf_utility,
    threshold_utility,
    truth_table_utility,
)
from sbfe.verify import (
    AXIOMS_EXHAUSTIVE_MAX_N,
    DUAL_MAX_N,
    CheckReport,
    check_axioms,
    check_dual_feasibility,
    check_goal_certificate,
    observed_alpha,
    ratio_vs_opt,
)


class TestAxiomCheck:
    def test_constructions_pass(self):
        rng = random.Random(1)
        assert check_axioms(cdnf_utility(gen_cdnf(rng, 4)), "exhaustive").ok
        assert check_axioms(threshold_utility(gen_threshold(rng, 4)), "exhaustive").ok

    def test_random_mode(self):
        rng = random.Random(2)
        g = threshold_utility(gen_threshold(rng, 9))
        rep = check_axioms(g, "random", trials=2000, seed=3)
        assert rep.ok and rep.checked > 0

    def test_non_submodular_counterexample(self):
        # all the utility arrives with the last test: delaying a test raises
        # its value, so submodularity must fail
        g = utility_from_fn(2, 1, lambda b: int(is_full(b)))
        rep = check_axioms(g, "exhaustive")
        assert not rep.ok
        b, bp, i, l = rep.counterexample
        # replay the violation: gain at the earlier state is smaller
        assert g.fn((*bp[:i], l, *bp[i + 1 :])) - g.fn(bp) > g.fn((*b[:i], l, *b[i + 1 :])) - g.fn(b)

    @pytest.mark.parametrize("delta", (1, -1))
    def test_step_off_by_one_reported(self, delta):
        g = threshold_utility(ThresholdFormula((2, -1, 1), 1))
        bad = (STAR, 0, STAR)
        assert g.fn(bad) < g.goal  # gains_at reads the step here

        def step(b):
            zero, one = g.step(b)
            if b == bad:
                zero = (zero[0] + delta, *zero[1:])
            return zero, one

        assert check_axioms(g, "exhaustive").ok
        rep = check_axioms(dataclasses.replace(g, step=step), "exhaustive")
        assert not rep.ok
        assert rep.message == "step disagrees with fn"
        assert rep.counterexample == (bad,)

    def test_limit(self):
        g = utility_from_fn(10, 1, lambda b: int(is_full(b)))
        with pytest.raises(LimitError):
            check_axioms(g, "exhaustive")
        # at the cap the check runs (and finds the first violation early)
        g = utility_from_fn(AXIOMS_EXHAUSTIVE_MAX_N, 1, lambda b: int(is_full(b)))
        assert not check_axioms(g, "exhaustive").ok


def _one_step_checks(n: int) -> int:
    """Checks a passing exhaustive run reports: at a state with u untested
    positions, 2u monotonicity checks and 2u(u - 1) one-step comparisons,
    one per pair of positions i < j and outcomes l, m."""
    return 2 * n * 3 ** (n - 1) + 2 * n * (n - 1) * 3 ** (n - 2)


def _assert_replays(g, rep):
    """A failing exhaustive report's witness (b, b', i, l) holds: g drops
    from b to extend(b, i, l), or b' is one test beyond b and setting i to
    l gains less at b than at b'."""
    b, bp, i, l = rep.counterexample

    def gain(s):
        return g.fn(extend(s, i, l)) - g.fn(s)

    if rep.message == "monotonicity violated":
        assert bp == b and gain(b) < 0
    else:
        assert rep.message == "submodularity violated"
        beyond = [k for k in range(len(b)) if b[k] != bp[k]]
        assert len(beyond) == 1 and b[beyond[0]] == STAR
        assert gain(b) < gain(bp)


def _mutants(n: int):
    yield "full-only", utility_from_fn(n, 1, lambda b: int(is_full(b)))
    yield "square-of-ones", utility_from_fn(n, n * n, lambda b: sum(v == 1 for v in b) ** 2)
    # a 0 at position 0 takes back what every other test gained
    yield "non-monotone", utility_from_fn(n, n, lambda b: 0 if b[0] == 0 else n - b.count(STAR))


class TestOneStepAgainstPairwise:
    """The exhaustive check's one-step test gives the verdict of the
    pairwise scan it replaced (`reference_check_axioms_exhaustive`)."""

    @pytest.mark.parametrize("seed", range(3))
    def test_constructions(self, seed):
        rng = random.Random(300 + seed)
        for n in range(2, 7):
            for name, g in axiom_utilities(rng, n):
                rep = check_axioms(g, "exhaustive")
                assert rep.ok == reference_check_axioms_exhaustive(g).ok, (name, n)
                assert rep.ok and rep.checked == _one_step_checks(n), (name, n)

    def test_check_count(self):
        assert _one_step_checks(6) == 7776

    @pytest.mark.parametrize("n", range(2, 7))
    def test_mutants(self, n):
        for name, g in _mutants(n):
            rep = check_axioms(g, "exhaustive")
            ref = reference_check_axioms_exhaustive(g)
            assert not rep.ok and not ref.ok, name
            assert rep.message == ref.message, name
            _assert_replays(g, rep)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_bumps(self, seed):
        # a threshold utility plus w whenever two random positions are both
        # 1: still monotone, and submodular only where the threshold's own
        # gains absorb the bump, so both verdicts occur
        rng = random.Random(400 + seed)
        verdicts = set()
        for _ in range(25):
            n = rng.randint(3, 5)
            g = threshold_utility(gen_threshold(rng, n))
            i, j = rng.sample(range(n), 2)
            w = rng.randint(1, 3)
            bumped = utility_from_fn(
                n, g.goal + w, lambda b, fn=g.fn, i=i, j=j, w=w: fn(b) + w * (b[i] == b[j] == 1)
            )
            rep = check_axioms(bumped, "exhaustive")
            ref = reference_check_axioms_exhaustive(bumped)
            assert (rep.ok, rep.message) == (ref.ok, ref.message)
            if not rep.ok:
                _assert_replays(bumped, rep)
            verdicts.add(rep.ok)
        assert verdicts == {True, False}


class TestRandomAxiomStream:
    """The random axiom check makes the draws of
    `reference_check_axioms_random` in the same order, and reads from its
    step records what the reference reads from ``fn``, so its whole
    `CheckReport` (verdict, count, counterexample, message) is equal."""

    @pytest.mark.parametrize("n", (8, 12))
    @pytest.mark.parametrize("seed", range(4))
    def test_threshold(self, n, seed):
        g = threshold_utility(gen_threshold(random.Random(100 + seed), n))
        rep = check_axioms(g, "random", trials=2000, seed=seed)
        assert rep.ok and 2000 <= rep.checked < 2000 + 2 * n + 1
        assert rep == reference_check_axioms_random(g, 2000, seed)

    def test_truth_table_and_ranking(self):
        rng = random.Random(61)
        for g in (
            truth_table_utility(gen_truth_table(rng, 12)),
            ranking_utility(gen_linear_system(rng, 3, 12)),
        ):
            for seed in (0, 1):
                rep = check_axioms(g, "random", trials=2000, seed=seed)
                assert rep.ok
                assert rep == reference_check_axioms_random(g, 2000, seed)

    def test_supermodular_counterexample(self):
        # the square of the count of ones: each 1 gains more than the last
        g = utility_from_fn(8, 64, lambda b: sum(v == 1 for v in b) ** 2)
        for seed in range(4):
            rep = check_axioms(g, "random", trials=2000, seed=seed)
            assert not rep.ok and rep.message == "submodularity violated"
            assert rep == reference_check_axioms_random(g, 2000, seed)
            b, bp, i, l = rep.counterexample
            early = g.fn((*b[:i], l, *b[i + 1 :])) - g.fn(b)
            late = g.fn((*bp[:i], l, *bp[i + 1 :])) - g.fn(bp)
            assert early < late


class TestRandomAxiomVerdicts:
    """Faults the random check must find, at the settings `sbfe verify` uses
    (2000 checks, draw seed 2 * verify seed + the case's place)."""

    @pytest.mark.parametrize("seed", range(8))
    def test_wrong_step_at_five_untested(self, seed):
        # fn is intact, so no check that reads only fn can see this
        f = gen_threshold(random.Random(500 + seed), 12)
        assert check_axioms(threshold_utility(f), "random", trials=2000, seed=seed).ok
        g = step_off_by_one(threshold_utility(f), 5)
        for k in (0, 1):
            rep = check_axioms(g, "random", trials=2000, seed=2 * seed + k)
            assert not rep.ok and rep.message == "step disagrees with fn"
            (b,) = rep.counterexample
            assert b.count(STAR) == 5
            assert rep == reference_check_axioms_random(g, 2000, 2 * seed + k)

    @pytest.mark.parametrize("seed", range(8))
    def test_axiom_mutants(self, seed):
        mutants = dict(_mutants(8))
        for name, message in (
            ("non-monotone", "monotonicity violated"),
            ("square-of-ones", "submodularity violated"),
        ):
            g = mutants[name]
            rep = check_axioms(g, "random", trials=2000, seed=2 * seed)
            assert not rep.ok and rep.message == message, name
            b, bp, i, l = rep.counterexample
            early = g.fn(extend(b, i, l)) - g.fn(b)
            late = g.fn(extend(bp, i, l)) - g.fn(bp)
            assert min(early, late) < 0 if name == "non-monotone" else early < late

    def test_random_bumps(self):
        # the bumped thresholds of `TestOneStepAgainstPairwise`: at n = 5
        # random mode finds every violation the exhaustive scan finds
        rng = random.Random(401)
        failed = 0
        for _ in range(25):
            g = threshold_utility(gen_threshold(rng, 5))
            i, j = rng.sample(range(5), 2)
            w = rng.randint(1, 3)
            bumped = utility_from_fn(
                5, g.goal + w, lambda b, fn=g.fn, i=i, j=j, w=w: fn(b) + w * (b[i] == b[j] == 1)
            )
            exhaustive = check_axioms(bumped, "exhaustive")
            rep = check_axioms(bumped, "random", trials=2000, seed=0)
            assert rep.ok == exhaustive.ok
            failed += not rep.ok
        assert failed > 0

    @pytest.mark.parametrize(
        "g",
        (UtilityFunction(0, 0, lambda b: 0, lambda b: ((), ())), utility_from_fn(0, 0, lambda b: 0)),
    )
    def test_nothing_to_test(self, g):
        # no draw at arity 0 can make a check: the loop must not wait for one
        assert check_axioms(g, "random", trials=10000, seed=0) == CheckReport(True, 0)


class TestGoalCertificateCheck:
    def test_passes_for_constructions(self):
        rng = random.Random(5)
        f1 = gen_cdnf(rng, 5)
        assert check_goal_certificate(cdnf_utility(f1), f1).ok
        f2 = gen_threshold(rng, 5)
        assert check_goal_certificate(threshold_utility(f2), f2).ok

    def test_detects_mismatched_goal(self):
        f = gen_threshold(random.Random(6), 4)
        g = threshold_utility(f)
        broken = UtilityFunction(g.arity, g.goal + 1, g.fn, g.step)
        rep = check_goal_certificate(broken, f)
        assert not rep.ok


class TestDualFeasibility:
    def test_small_threshold_tight_on_tested(self):
        f = ThresholdFormula((1, 1), 1)
        g = threshold_utility(f)
        d = ProductDistribution((0.5,) * 2)
        cert = check_dual_feasibility(g, d, (1.0, 1.0))
        assert cert.ok
        assert cert.runs == 4
        for w, s in cert.slack.items():
            if cert.tight[w]:
                assert abs(s) <= 1e-9
            else:
                assert s >= -1e-9

    def test_cdnf_battery(self):
        for case in cdnf_battery(4, seed=7, n_lo=2, n_hi=5):
            cert = check_dual_feasibility(cdnf_utility(case.f), case.dist, case.costs)
            assert cert.ok, cert.violations
            assert cert.objective_gap <= 1e-6

    def test_threshold_battery(self):
        for case in threshold_battery(4, seed=8, n_lo=2, n_hi=5):
            cert = check_dual_feasibility(threshold_utility(case.f), case.dist, case.costs)
            assert cert.ok, cert.violations
            assert cert.objective_gap <= 1e-6

    def test_expected_cost_identity(self):
        # the recorded objective gap compares expected run cost with the
        # dual mass; recompute the left side independently
        case = threshold_battery(1, seed=9, n_lo=4, n_hi=4)[0]
        g = threshold_utility(case.f)
        cert = check_dual_feasibility(g, case.dist, case.costs)
        policy = DualGreedyPolicy(g, case.dist, case.costs)
        lhs = sum(
            prob_of(a, case.dist) * reference_run(policy, a, 4, policy.c)[2]
            for a in all_assignments(4)
        )
        assert cert.objective_gap <= 1e-6 * max(1.0, lhs)

    def test_slack_just_past_its_tolerance_is_a_violation(self, monkeypatch):
        # each y scaled by 1 + 1e-6 with the credit left as it is: the walk
        # is the same, and the tested coordinates' slack moves from 1e-15
        # to between 1e-6 and 5e-6, past DUAL_EPS but far inside a looser one
        case = threshold_battery(1, seed=6, n_lo=6, n_hi=6)[0]
        g = threshold_utility(case.f)
        assert check_dual_feasibility(g, case.dist, case.costs).ok
        advance = DualGreedyPolicy.advance

        def nudged(self, b, state, i):
            return tuple(
                (ys[:-1] + (ys[-1] * (1 + 1e-6),), credit, value)
                for ys, credit, value in advance(self, b, state, i)
            )

        monkeypatch.setattr(DualGreedyPolicy, "advance", nudged)
        cert = check_dual_feasibility(g, case.dist, case.costs)
        tested = [abs(s) for w, s in cert.slack.items() if cert.tight[w]]
        assert 1e-7 < max(tested) < 1e-5
        assert len(cert.violations) == 36


def _criterion_05_cases():
    """The 50 cases of acceptance criterion 05."""
    return (
        threshold_battery(24, seed=1005, n_lo=3, n_hi=7)
        + cdnf_battery(24, seed=1006, n_lo=3, n_hi=7)
        + threshold_battery(1, seed=1007, n_lo=9, n_hi=9)
        + cdnf_battery(1, seed=1008, n_lo=10, n_hi=10)
    )


def _assert_dual_matches_reference(g, case):
    """The one-fold check gives the verdict and run count of
    `reference_check_dual_feasibility`, and its (leaf, position) slack and
    tightness, expanded to every assignment w of the other positions, are
    the reference's values at w, compared bitwise."""
    cert = check_dual_feasibility(g, case.dist, case.costs)
    ref = reference_check_dual_feasibility(g, case.dist, case.costs)
    assert (cert.ok, cert.runs) == (ref.ok, ref.runs), case.id
    covered = set()
    for (b, j), s in cert.slack.items():
        for a in extensions(b):
            w = clear(a, j)
            assert ref.slack[w].hex() == s.hex(), (case.id, b, j)
            assert ref.tight[w] == cert.tight[b, j], (case.id, b, j)
            covered.add(w)
    assert covered == set(ref.slack), case.id
    return cert


class TestDualFoldAgainstReference:
    """`check_dual_feasibility` folds one constraint per (leaf, position);
    `reference_check_dual_feasibility` is the per-input check it replaced."""

    def test_criterion_05_cases(self):
        cases = _criterion_05_cases()
        assert len(cases) == 50
        for case in cases:
            build = threshold_utility if case.kind == "threshold" else cdnf_utility
            assert _assert_dual_matches_reference(build(case.f), case).ok

    @pytest.mark.parametrize("seed", range(8))
    def test_verify_batteries(self, seed):
        # the dual-feasibility battery of `sbfe verify --seed SEED`
        for case in threshold_battery(3, seed + 6, n_lo=3, n_hi=6):
            assert _assert_dual_matches_reference(threshold_utility(case.f), case).ok

    def test_at_the_cap(self):
        case = threshold_battery(1, seed=12, n_lo=DUAL_MAX_N, n_hi=DUAL_MAX_N)[0]
        cert = _assert_dual_matches_reference(threshold_utility(case.f), case)
        assert cert.ok and cert.runs == 2**DUAL_MAX_N


class TestObservedAlpha:
    def test_at_least_one(self):
        f = ThresholdFormula((1, 1), 1)
        g = threshold_utility(f)
        a = observed_alpha(g, ProductDistribution((0.5,) * 2), (1.0, 1.0))
        assert a >= 1.0

    def test_matches_per_input_scan(self):
        for case in threshold_battery(3, seed=10, n_lo=3, n_hi=5):
            g = threshold_utility(case.f)
            walked = observed_alpha(g, case.dist, case.costs)
            per_input = 1.0
            policy = DualGreedyPolicy(g, case.dist, case.costs)
            for x in all_assignments(g.arity):
                tested, outs, _, _ = reference_run(policy, x, g.arity, policy.c)
                steps = tuple(zip(tested, outs))
                for _, r in prefix_ratios(g, steps):
                    per_input = max(per_input, r)
            assert walked == pytest.approx(per_input, abs=1e-12)


def threshold_adg(bound):
    """Drive running the dual greedy on a threshold case, claiming ``bound``."""
    return lambda case: [
        (DualGreedyPolicy(threshold_utility(case.f), case.dist, case.costs), bound)
    ]


def cdnf_greedy(case):
    g = cdnf_utility(case.f)
    return [(GreedyPolicy(g, case.dist, case.costs), bounds(g).lnq_bound)]


class TestRatioVsOpt:
    def test_threshold_adg_within_three(self):
        (rep,) = ratio_vs_opt(threshold_adg(3.0), threshold_battery(6, seed=11, n_lo=2, n_hi=6))
        assert rep.ok
        assert rep.worst_ratio <= 3.0 + 1e-6

    def test_cdnf_greedy_within_goal_bound(self):
        (rep,) = ratio_vs_opt(cdnf_greedy, cdnf_battery(6, seed=12, n_lo=2, n_hi=6))
        assert rep.ok and len(rep.rows) == 6

    def test_disjunction_cp_exact(self):
        (rep,) = ratio_vs_opt(
            lambda case: [(cp_ratio_policy(case.dist, case.costs), 1.0)],
            disjunction_battery(8, seed=13, n_lo=2, n_hi=6),
            tol=1e-9,
        )
        assert rep.ok
        assert rep.worst_ratio == pytest.approx(1.0, abs=1e-9)

    def test_violations_flagged(self):
        (rep,) = ratio_vs_opt(threshold_adg(0.01), threshold_battery(3, seed=14, n_lo=3, n_hi=4))
        assert not rep.ok
        assert rep.violations

    @pytest.mark.parametrize("gap, ok", [(1e-3, False), (5e-7, True), (-1e-3, True)])
    def test_verdict_at_its_edge(self, gap, ok):
        # the greedy's ratio on this instance is about 1.155; the bound is
        # placed so that bound * opt sits ``gap`` below the cost, so a gap
        # beyond the default tol of 1e-6 is a violation and one within it
        # is not
        case = generate_instance("threshold", 10, 2)
        policy = GreedyPolicy(threshold_utility(case.f), case.dist, case.costs)
        cost = expected_cost(policy, case.dist, case.costs)
        opt = optimal_expected_cost(case.f, case.dist, case.costs)
        assert 1.15 < cost / opt < 1.16
        bound = (cost - gap) / opt
        (rep,) = ratio_vs_opt(lambda case: [(policy, bound)], [case])
        (row,) = rep.rows
        assert (row.cost, row.opt, row.bound) == (cost, opt, bound)
        assert row.ok is rep.ok is ok
        assert rep.violations == (() if ok else (row,))

    def test_one_optimum_and_one_cost_per_case(self, monkeypatch):
        calls = {"opt": 0, "cost": 0}

        def counting(name, key):
            original = getattr(sbfe.verify, name)

            def wrapped(*args):
                calls[key] += 1
                return original(*args)

            monkeypatch.setattr(sbfe.verify, name, wrapped)

        counting("optimal_expected_cost", "opt")
        counting("expected_cost", "cost")

        def both_bounds(case):
            g = cdnf_utility(case.f)
            policy = GreedyPolicy(g, case.dist, case.costs)
            return [(policy, bounds(g).lnq_bound), (policy, bounds(g).p_bound)]

        battery = cdnf_battery(4, seed=15, n_lo=2, n_hi=5)
        lnq, pb = ratio_vs_opt(both_bounds, battery)
        assert calls == {"opt": 4, "cost": 4}
        assert [(r.cost, r.opt) for r in lnq.rows] == [(r.cost, r.opt) for r in pb.rows]
        (alone,) = ratio_vs_opt(cdnf_greedy, battery)
        assert alone == lnq
