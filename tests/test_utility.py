import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    brute_certificate,
    brute_diff_extrema,
    conjunction_formula,
    evaluate,
    gen_cdnf_with_tautologies,
    reference_cdnf_agreement,
    reference_cdnf_utility,
    reference_gains_at,
    reference_ranking_pair_utility,
    reference_threshold_utility,
    reference_truth_table_utility,
    step_from_fn,
    tree_decide,
    utility_from_fn,
)
from sbfe.core import (
    STAR,
    Branch,
    ConstantFunctionError,
    InvalidUtilityError,
    Leaf,
    LimitError,
    ProductDistribution,
    all_assignments,
    all_partials,
    expected_cost,
    optimal_expected_cost,
    to_string,
)
from sbfe.instances import (
    gen_cdnf,
    gen_knapsack,
    gen_linear_system,
    gen_threshold,
    gen_threshold_set,
    gen_truth_table,
)
from sbfe.policies import GreedyPolicy, bounds
from sbfe.problems import ThresholdSet, disjunction_formula, ranking_utility
from sbfe.utility import (
    CdnfFormula,
    LinearSystem,
    ThresholdFormula,
    TruthTable,
    UtilityFunction,
    _restricted_extrema,
    cdnf_utility,
    combine_and_all,
    combine_or,
    constant_zero_utility,
    decision_tree_to_cdnf,
    gains_at,
    ranking_pair_utility,
    threshold_utility,
    truth_table_utility,
)
from sbfe.verify import check_axioms, check_goal_certificate


def truncated_modular(n, weights, cap) -> UtilityFunction:
    """Monotone submodular test family: capped sum of per-outcome weights."""

    def fn(b):
        total = 0
        for i, v in enumerate(b):
            if v != STAR:
                total += weights[i][v]
        return min(cap, total)

    return utility_from_fn(n, cap, fn)


def random_partials(rng, n, count):
    """``count`` partial assignments, each with a uniform number of tested
    positions, so that shallow and deep states are drawn alike."""
    for _ in range(count):
        b = [STAR] * n
        for j in rng.sample(range(n), rng.randint(0, n)):
            b[j] = rng.randrange(2)
        yield tuple(b)


class TestMarginals:
    """`gains_at` gives (g(b), down, up); `GreedyPolicy.gains` adds the
    expected gains."""

    def test_cdnf_jump_to_goal(self):
        g = cdnf_utility(conjunction_formula(2))
        assert g.goal == 2
        _, down, _ = gains_at(g, (STAR, STAR))
        assert down[0] == 2

    def test_tested_position_gains_nothing(self):
        g = cdnf_utility(conjunction_formula(2))
        b = (1, STAR)
        _, down, up = gains_at(g, b)
        assert down[0] == up[0] == 0
        eg = GreedyPolicy(g, ProductDistribution((0.5,) * 2), (1.0, 1.0)).gains(b)[3]
        assert eg[0] == 0.0

    def test_threshold_jump(self):
        g = threshold_utility(ThresholdFormula((1, 1), 1))
        assert g.goal == 2
        _, _, up = gains_at(g, (STAR, STAR))
        assert up[0] == 2

    def test_expected_gain_or(self):
        g = cdnf_utility(disjunction_formula(2))
        d = ProductDistribution((0.5,) * 2)
        eg = GreedyPolicy(g, d, (1.0, 1.0)).gains((STAR, STAR))[3]
        assert eg == pytest.approx((1.5, 1.5))

    def test_broken_utility_detected(self):
        # goal 2, so the root is short of it and its gains are computed
        g = utility_from_fn(1, 2, lambda b: 1 if b[0] == STAR else 0)
        with pytest.raises(InvalidUtilityError):
            gains_at(g, (STAR,))


def _knapsack_formula(rng, n):
    """The covering threshold formula `min_knapsack_adg` runs on."""
    while True:
        kp = gen_knapsack(rng, n)
        f = ThresholdFormula(kp.values, kp.threshold)
        if f.constant_value() is None:
            return f


def _thresholds(rng, n):
    return ThresholdSet((gen_threshold(rng, n), ThresholdFormula((1,) * n, 0)))


def _reference_thresholds_utility(fs):
    """`ThresholdSet.utility` over `reference_threshold_utility`."""
    return combine_and_all(
        reference_threshold_utility(f) if f.constant_value() is None
        else constant_zero_utility(fs.arity)
        for f in fs.formulas
    )


def _reference_ranking_utility(sys):
    """`ranking_utility` over `reference_ranking_pair_utility`."""
    return combine_and_all(
        reference_ranking_pair_utility(sys, i, j)
        for i in range(sys.m)
        for j in range(i + 1, sys.m)
    )


# every construction that carries a step: (its instance at arity n, the
# utility, a reference utility on the same instance whose fn is built apart
# from that step)
STEP_KINDS = {
    "threshold": (gen_threshold, threshold_utility, reference_threshold_utility),
    "thresholds-one-constant": (_thresholds, ThresholdSet.utility, _reference_thresholds_utility),
    "cdnf": (gen_cdnf, cdnf_utility, reference_cdnf_utility),
    "cdnf-tautologies": (gen_cdnf_with_tautologies, cdnf_utility, reference_cdnf_utility),
    "disjunction": (lambda rng, n: disjunction_formula(n), cdnf_utility, reference_cdnf_utility),
    "linear-system": (
        lambda rng, n: gen_linear_system(rng, 3, n),
        ranking_utility,
        _reference_ranking_utility,
    ),
    "knapsack": (_knapsack_formula, threshold_utility, reference_threshold_utility),
    "and-threshold-cdnf": (
        lambda rng, n: (gen_threshold(rng, n), gen_cdnf(rng, n)),
        lambda fs: combine_and_all([threshold_utility(fs[0]), cdnf_utility(fs[1])]),
        lambda fs: combine_and_all(
            [reference_threshold_utility(fs[0]), reference_cdnf_utility(fs[1])]
        ),
    ),
}


def _vacuous_side_system(rng, n):
    """Three functions whose first pair has a vacuous side: f_1 - f_0 is
    nonnegative term by term, so f_0 <= f_1 holds on every input and that
    pair's utility has goal 0."""
    sys = gen_linear_system(rng, 3, n)
    first = sys.coeffs[0]
    second = tuple(a + rng.randint(0, 2) for a in first)
    return LinearSystem((first, second) + sys.coeffs[2:])


# STEP_KINDS plus a ranking with a goal-0 pair, whose step is covered at
# every state
DIRECT_STEP_KINDS = {
    **STEP_KINDS,
    "linear-system-vacuous-side": (
        _vacuous_side_system,
        ranking_utility,
        _reference_ranking_utility,
    ),
}


class TestStepDirect:
    """A utility's ``step`` equals `step_from_fn` over the reference
    utility's ``fn``, compared with ``==`` at every state, covered states
    included (`gains_at` never calls ``step`` at the goal)."""

    @pytest.mark.parametrize("kind", sorted(DIRECT_STEP_KINDS))
    def test_every_partial_small(self, kind):
        make, build, reference = DIRECT_STEP_KINDS[kind]
        rng = random.Random(47)
        for n in range(1, 7):
            for _ in range(3):
                inst = make(rng, n)
                g, ref_step = build(inst), step_from_fn(reference(inst).fn)
                for b in all_partials(n):
                    assert g.step(b) == ref_step(b), (kind, b)

    @pytest.mark.parametrize("kind", sorted(DIRECT_STEP_KINDS))
    def test_random_partials_n16(self, kind):
        make, build, reference = DIRECT_STEP_KINDS[kind]
        rng = random.Random(16)
        inst = make(rng, 16)
        g, ref_step = build(inst), step_from_fn(reference(inst).fn)
        for b in random_partials(rng, 16, 500):
            assert g.step(b) == ref_step(b), (kind, b)


class TestStep:
    """`gains_at` through a utility's one-pass ``step`` equals the 2n + 1
    ``fn`` calls of `reference_gains_at` on the reference utility, compared
    with ``==``."""

    @pytest.mark.parametrize("kind", sorted(STEP_KINDS))
    def test_every_partial_small(self, kind):
        make, build, reference = STEP_KINDS[kind]
        rng = random.Random(41)
        for n in range(1, 7):
            for _ in range(3):
                inst = make(rng, n)
                g, ref = build(inst), reference(inst)
                for b in all_partials(n):
                    assert gains_at(g, b) == reference_gains_at(ref, b), (kind, b)

    @pytest.mark.parametrize("n", (24, 32))
    @pytest.mark.parametrize("kind", sorted(STEP_KINDS))
    def test_random_partials_large(self, kind, n):
        make, build, reference = STEP_KINDS[kind]
        rng = random.Random(n)
        inst = make(rng, n)
        g, ref = build(inst), reference(inst)
        for b in random_partials(rng, n, 500):
            assert gains_at(g, b) == reference_gains_at(ref, b), (kind, b)

    def test_truth_table_step(self):
        rng = random.Random(43)
        for n in range(2, 7):
            for _ in range(3):
                f = gen_truth_table(rng, n)
                g, ref = truth_table_utility(f), reference_truth_table_utility(f)
                for b in all_partials(n):
                    assert gains_at(g, b) == reference_gains_at(ref, b), b

    def test_truth_table_step_large(self):
        rng = random.Random(12)
        f = gen_truth_table(rng, 12)
        g, ref = truth_table_utility(f), reference_truth_table_utility(f)
        for b in random_partials(rng, 12, 500):
            assert gains_at(g, b) == reference_gains_at(ref, b), b

    def test_monotonicity_guard_on_step_path(self):
        # setting position 1 to 0, or position 2 to 1, loses utility
        def fn(b):
            return 3 + 2 * sum(v != STAR for v in b) - 3 * (b[1] == 0) - 3 * (b[2] == 1)

        g = utility_from_fn(3, 100, fn)
        for b in ((STAR, STAR, STAR), (1, STAR, STAR), (STAR, STAR, 0)):
            message = f"monotonicity violated at {to_string(b)}, position 1"
            with pytest.raises(InvalidUtilityError) as error:
                gains_at(g, b)
            assert str(error.value) == message
            with pytest.raises(InvalidUtilityError, match=message.replace("*", r"\*")):
                reference_gains_at(g, b)


# the utilities whose fn is one pass: (instance at arity n, utility,
# reference utility, arities of the random partial assignments)
FN_KINDS = {
    "threshold": (gen_threshold, threshold_utility, reference_threshold_utility, (24, 32)),
    "thresholds": (
        lambda rng, n: gen_threshold_set(rng, 3, n),
        ThresholdSet.utility,
        _reference_thresholds_utility,
        (24, 32),
    ),
    "knapsack": (_knapsack_formula, threshold_utility, reference_threshold_utility, (24, 32)),
    "linear-system": (
        lambda rng, n: gen_linear_system(rng, 4, n, duplicate_prob=0.3),
        ranking_utility,
        _reference_ranking_utility,
        (24, 32),
    ),
    "truthtable": (gen_truth_table, truth_table_utility, reference_truth_table_utility, (12,)),
}


class TestOnePassFn:
    """The one-pass ``fn`` of the threshold, ranking-pair and truth-table
    utilities equals the two-sided `combine_or` of its reference, compared
    with ``==``; so do the goals."""

    @pytest.mark.parametrize("kind", sorted(FN_KINDS))
    def test_every_partial_small(self, kind):
        make, build, reference, _ = FN_KINDS[kind]
        rng = random.Random(53)
        for n in range(1, 7):
            for _ in range(3):
                inst = make(rng, n)
                g, ref = build(inst), reference(inst)
                assert g.goal == ref.goal
                for b in all_partials(n):
                    assert g.fn(b) == ref.fn(b), (kind, b)

    @pytest.mark.parametrize("kind", sorted(FN_KINDS))
    def test_random_partials_large(self, kind):
        make, build, reference, sizes = FN_KINDS[kind]
        for n in sizes:
            rng = random.Random(n)
            inst = make(rng, n)
            g, ref = build(inst), reference(inst)
            assert g.goal == ref.goal
            for b in random_partials(rng, n, 500):
                assert g.fn(b) == ref.fn(b), (kind, b)

    def test_vacuous_ranking_sides(self):
        # f0 <= f1, f0 >= f2 and f1 >= f2 hold on every input, so those pairs
        # have goal 0; f0 against f3 can go either way
        sys = LinearSystem(((1, 2, 0), (2, 3, 1), (0, 1, -1), (0, 0, 5)))
        for i, j in itertools.combinations(range(4), 2):
            g = ranking_pair_utility(sys, i, j)
            ref = reference_ranking_pair_utility(sys, i, j)
            assert g.goal == ref.goal
            assert (g.goal == 0) == (j < 3)
            for b in all_partials(3):
                assert g.fn(b) == ref.fn(b), (i, j, b)
                assert gains_at(g, b) == reference_gains_at(ref, b), (i, j, b)

    def test_goal_overflow_rejected(self):
        # each coefficient fits, but the goals (2^40 + 1) * 2^40 and
        # 2^40 * 2^40 do not
        with pytest.raises(LimitError, match="combined goal"):
            threshold_utility(ThresholdFormula((2**40, -(2**40)), 1))
        with pytest.raises(LimitError, match="combined goal"):
            ranking_pair_utility(LinearSystem(((2**40, 0), (0, 2**40))), 0, 1)


class TestCombinators:
    def test_or_formula(self):
        g0 = utility_from_fn(1, 3, lambda b: 2)
        g1 = utility_from_fn(1, 2, lambda b: 1)
        g = combine_or(g0, g1)
        assert g.goal == 6
        assert g.fn((STAR,)) == 6 - (3 - 2) * (2 - 1)

    def test_or_zero_factor(self):
        g0 = utility_from_fn(1, 3, lambda b: 3)
        g1 = utility_from_fn(1, 2, lambda b: 0)
        assert combine_or(g0, g1).fn((STAR,)) == 6

    def test_or_at_zero(self):
        g0 = utility_from_fn(1, 3, lambda b: 0)
        g1 = utility_from_fn(1, 2, lambda b: 0)
        assert combine_or(g0, g1).fn((STAR,)) == 0

    def test_and_formula(self):
        g0 = utility_from_fn(1, 3, lambda b: 2)
        g1 = utility_from_fn(1, 2, lambda b: 2)
        g = combine_and_all([g0, g1])
        assert g.goal == 5
        assert g.fn((STAR,)) == 4

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            combine_or(utility_from_fn(1, 1, lambda b: 0), utility_from_fn(2, 1, lambda b: 0))

    def test_goal_semantics_exhaustive(self):
        # or-combined covers iff either side covers; and-combined iff both
        f_thr = ThresholdFormula((1, -2, 1), 0)
        f_cdnf = gen_cdnf(random.Random(4), 3)
        g0 = threshold_utility(f_thr)
        g1 = cdnf_utility(f_cdnf)
        g_or = combine_or(g0, g1)
        g_and = combine_and_all([g0, g1])
        for b in all_partials(3):
            at0 = g0.fn(b) == g0.goal
            at1 = g1.fn(b) == g1.goal
            assert (g_or.fn(b) == g_or.goal) == (at0 or at1)
            assert (g_and.fn(b) == g_and.goal) == (at0 and at1)

    @given(
        st.integers(2, 4).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=n, max_size=n
                ),
                st.integers(1, 6),
                st.lists(
                    st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=n, max_size=n
                ),
                st.integers(1, 6),
            )
        )
    )
    def test_combinators_preserve_axioms(self, case):
        n, w0, cap0, w1, cap1 = case
        g0 = truncated_modular(n, w0, cap0)
        g1 = truncated_modular(n, w1, cap1)
        assert check_axioms(g0, "exhaustive").ok
        assert check_axioms(combine_or(g0, g1), "exhaustive").ok
        assert check_axioms(combine_and_all([g0, g1]), "exhaustive").ok

    def test_goal_overflow_rejected(self):
        big = utility_from_fn(1, 2**32, lambda b: 0)
        with pytest.raises(LimitError):
            combine_or(big, big)


class TestCdnf:
    def test_conjunction_values(self):
        f = conjunction_formula(2)
        g = cdnf_utility(f)
        assert g.goal == f.k * f.d == 2
        assert g.fn((1, STAR)) == 1
        assert g.fn((0, STAR)) == 2
        assert g.fn((STAR, STAR)) == 0

    def test_goal_is_kd(self):
        rng = random.Random(7)
        for _ in range(10):
            f = gen_cdnf(rng, 5)
            assert cdnf_utility(f).goal == f.k * f.d

    def test_inconsistent_pair_rejected(self):
        with pytest.raises(ValueError):
            CdnfFormula(2, (frozenset({1}),), (frozenset({2}),))

    def test_constant_detection(self):
        f = CdnfFormula(1, (frozenset({1, -1}),), (frozenset({1}), frozenset({-1})))
        assert f.constant_value() == 1
        with pytest.raises(ConstantFunctionError):
            cdnf_utility(f)

    def test_mixed_degenerate_evaluated(self):
        f = CdnfFormula(
            2,
            (frozenset({1}), frozenset({2, -2})),
            (frozenset({1}),),
        )
        assert f.constant_value() is None
        assert f.certificate((1, STAR)) == 1  # the tautological clause decides nothing
        g = cdnf_utility(f)
        assert g.goal == 1  # one clause that is not a tautology, one term
        assert g.fn((1, STAR)) == g.fn((0, STAR)) == 1
        assert g.fn((STAR, 0)) == g.fn((STAR, 1)) == 0

    def test_tautologies_inserted(self):
        # clauses that always hold and terms that never do change neither the
        # certificates, nor the axioms, nor the greedy's ln(goal) + 1 bound
        rng = random.Random(61)
        for trial in range(200):
            n = 1 + trial % 5
            f = gen_cdnf_with_tautologies(rng, n)
            g = cdnf_utility(f)
            for b in all_partials(n):
                assert f.certificate(b) == brute_certificate(f, b), (f, b)
            assert check_axioms(g, "exhaustive").ok, f
            assert check_goal_certificate(g, f).ok, f
            d = ProductDistribution(tuple(rng.uniform(0.1, 0.9) for _ in range(n)))
            c = tuple(float(rng.randint(1, 5)) for _ in range(n))
            cost = expected_cost(GreedyPolicy(g, d, c), d, c)
            opt = optimal_expected_cost(f, d, c)
            assert cost <= bounds(g).lnq_bound * opt + 1e-9, (f, cost, opt)

    def test_axioms(self):
        rng = random.Random(13)
        for _ in range(5):
            f = gen_cdnf(rng, 4)
            assert check_axioms(cdnf_utility(f), "exhaustive").ok


    @staticmethod
    def _agreement(check, n, clauses, terms):
        """The message ``check`` raises for the sets, or None if it accepts."""
        try:
            check(n, clauses, terms)
        except ValueError as exc:
            return str(exc)
        return None

    def test_agreement_planes_match_enumeration(self):
        # a third each: consistent pairs, consistent pairs with one literal
        # negated, and random sets; the last two mostly disagree
        rng = random.Random(59)
        rejected = 0
        for trial in range(360):
            n = 1 + trial % 6
            f = gen_cdnf(rng, n)
            clauses, terms = [list(cl) for cl in f.clauses], [list(t) for t in f.terms]
            if trial % 3 == 1:
                group = rng.choice(clauses + terms)
                k = rng.randrange(len(group))
                group[k] = -group[k]
            elif trial % 3 == 2:
                clauses, terms = (
                    [
                        [rng.choice((-1, 1)) * rng.randint(1, n) for _ in range(rng.randint(1, 3))]
                        for _ in range(rng.randint(1, 4))
                    ]
                    for _ in range(2)
                )
            expected = self._agreement(reference_cdnf_agreement, n, clauses, terms)
            assert self._agreement(CdnfFormula, n, clauses, terms) == expected, (n, clauses, terms)
            rejected += expected is not None
        assert 100 <= rejected <= 260

    def test_agreement_at_twelve(self):
        f = conjunction_formula(12)
        reference_cdnf_agreement(12, f.clauses, f.terms)
        short = (frozenset(range(1, 12)),)  # x_12 dropped from the one term
        message = f"CNF and DNF disagree at {(1,) * 11 + (0,)}; not the same function"
        with pytest.raises(ValueError) as exc:
            reference_cdnf_agreement(12, f.clauses, short)
        assert str(exc.value) == message
        with pytest.raises(ValueError) as exc:
            CdnfFormula(12, f.clauses, short)
        assert str(exc.value) == message

class TestDecisionTreeConversion:
    def test_single_test_tree(self):
        t = Branch(0, Leaf(0), Leaf(1))
        f = decision_tree_to_cdnf(t, 1)
        assert f.clauses == (frozenset({1}),)
        assert f.terms == (frozenset({1}),)

    def test_conjunction_tree(self):
        t = Branch(0, Leaf(0), Branch(1, Leaf(0), Leaf(1)))
        f = decision_tree_to_cdnf(t, 2)
        assert f.k == 2 and f.d == 1
        assert frozenset({1, 2}) in f.terms
        for x in all_assignments(2):
            assert evaluate(f, x) == int(x[0] == 1 and x[1] == 1)

    def test_leaf_count_identity(self):
        rng = random.Random(3)
        from sbfe.instances import _random_tree

        for _ in range(30):
            t = _random_tree(rng, list(range(4)), 3)
            leaves = sum(1 for _ in _leaves(t))
            try:
                f = decision_tree_to_cdnf(t, 4)
            except ConstantFunctionError:
                continue
            assert f.k + f.d == leaves
            for x in all_assignments(4):
                assert evaluate(f, x) == tree_decide(t, x)

    def test_constant_tree_short_circuits(self):
        with pytest.raises(ConstantFunctionError) as exc:
            decision_tree_to_cdnf(Branch(0, Leaf(1), Leaf(1)), 1)
        assert exc.value.value == 1


def _leaves(t):
    if isinstance(t, Leaf):
        yield t
    else:
        yield from _leaves(t.if0)
        yield from _leaves(t.if1)


class TestThreshold:
    def test_or_threshold_values(self):
        f = ThresholdFormula((1, 1), 1)
        assert (f.r_min, f.r_max) == (-1, 1)
        g = threshold_utility(f)
        assert g.goal == (-f.r_min) * (f.r_max + 1) == 2
        assert g.fn((0, STAR)) == 1
        assert g.fn((0, 0)) == 2
        assert g.fn((STAR, STAR)) == 0

    def test_constant_false_short_circuit(self):
        f = ThresholdFormula((1, 1), 3)
        assert f.constant_value() == 0
        with pytest.raises(ConstantFunctionError):
            threshold_utility(f)

    def test_extrema_match_brute_force(self):
        rng = random.Random(5)
        for _ in range(10):
            f = gen_threshold(rng, 4)
            for b in itertools.product((0, 1, STAR), repeat=4):
                assert _restricted_extrema(f.coeffs, b) == brute_diff_extrema(f.coeffs, b)
                assert f.certificate(b) == brute_certificate(f, b)

    def test_axioms(self):
        rng = random.Random(17)
        for _ in range(5):
            f = gen_threshold(rng, 4)
            assert check_axioms(threshold_utility(f), "exhaustive").ok


class TestTruthTable:
    def test_single_variable(self):
        f = TruthTable(1, (0, 1))
        g = truth_table_utility(f)
        assert g.goal == 1
        assert g.fn((1,)) == 1

    def test_or_table(self):
        f = TruthTable(2, (0, 1, 1, 1))
        g = truth_table_utility(f)
        assert g.goal == 3
        assert g.fn((1, STAR)) == 3
        assert g.fn((STAR, STAR)) == 0

    def test_constant_short_circuit(self):
        with pytest.raises(ConstantFunctionError):
            truth_table_utility(TruthTable(1, (1, 1)))

    def test_axioms(self):
        rng = random.Random(19)
        for _ in range(4):
            f = gen_truth_table(rng, 4)
            assert check_axioms(truth_table_utility(f), "exhaustive").ok

    def test_certificate_from_counts(self):
        rng = random.Random(67)
        for n in range(1, 6):
            f = gen_truth_table(rng, n)
            for b in all_partials(n):
                assert f.certificate(b) == brute_certificate(f, b), b

    def test_certificate_random_partials_n16(self):
        # above the generator's cap, so built directly.  Each position is
        # 0, 1 or untested alike, so that the reference's 2^(untested)
        # completions stay few; the subcube spans all 16 index bits.
        rng = random.Random(61)
        f = TruthTable(16, [rng.randrange(2) for _ in range(1 << 16)])
        for _ in range(500):
            b = tuple(rng.choice((0, 1, STAR)) for _ in range(16))
            assert f.certificate(b) == brute_certificate(f, b), b


class TestRankingPairs:
    def test_two_variables(self):
        sys = LinearSystem(((1, 0), (0, 1)))
        g = ranking_pair_utility(sys, 0, 1)
        assert g.goal == 1
        assert g.fn((1, STAR)) == 1
        assert g.fn((STAR, STAR)) == 0

    def test_identical_functions_trivial(self):
        sys = LinearSystem(((1, 2), (1, 2)))
        g = ranking_pair_utility(sys, 0, 1)
        assert g.goal == 0
        assert g.fn((STAR, STAR)) == 0

    def test_requires_ordered_pair(self):
        sys = LinearSystem(((1, 0), (0, 1)))
        with pytest.raises(ValueError):
            ranking_pair_utility(sys, 1, 0)

    def test_goal_iff_order_decided(self):
        rng = random.Random(23)
        for _ in range(8):
            sys = gen_linear_system(rng, 2, 3)
            g = ranking_pair_utility(sys, 0, 1)
            delta = sys.diff(0, 1)
            for b in all_partials(3):
                lo, hi = brute_diff_extrema(delta, b)
                decided = hi <= 0 or lo >= 0
                assert (g.fn(b) == g.goal) == decided
                assert sys.known_order(0, 1, b) == (hi <= 0, lo >= 0)

    def test_axioms(self):
        rng = random.Random(29)
        for _ in range(5):
            sys = gen_linear_system(rng, 2, 4)
            assert check_axioms(ranking_pair_utility(sys, 0, 1), "exhaustive").ok


class TestGoalCertificate:
    def test_constructions_small(self):
        rng = random.Random(31)
        f1 = gen_cdnf(rng, 4)
        assert check_goal_certificate(cdnf_utility(f1), f1).ok
        f2 = gen_threshold(rng, 4)
        assert check_goal_certificate(threshold_utility(f2), f2).ok
        f3 = gen_truth_table(rng, 4)
        assert check_goal_certificate(truth_table_utility(f3), f3).ok

    def test_certificate_agreement(self):
        rng = random.Random(37)
        f = gen_cdnf(rng, 4)
        g = cdnf_utility(f)
        for b in all_partials(4):
            assert (g.fn(b) == g.goal) == (brute_certificate(f, b) is not None)
