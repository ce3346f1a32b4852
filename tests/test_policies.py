import dataclasses
import json
import math
import random
import re

import pytest

from helpers import (
    ReferenceDualGreedy,
    axiom_utilities,
    conjunction_formula,
    enumeration_expected_cost,
    expected_gain,
    policy_tree,
    prefix_ratios,
    reference_alpha,
    reference_run,
    restrict,
    trace_prefixes,
    utility_from_fn,
)
from sbfe import cli, problems
from sbfe.cli import _EVAL, engine_policy
from sbfe.core import (
    STAR,
    ConstantFunctionError,
    InvalidUtilityError,
    PolicyError,
    ProductDistribution,
    all_assignments,
    as_costs,
    expected_cost,
    extend,
    optimal_expected_cost,
    sample_input,
    stars,
    tree_leaf_paths,
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
    FixedOrderPolicy,
    GreedyPolicy,
    adaptive_dual_greedy,
    adaptive_greedy,
    bounds,
    cost_order_policy,
    cp_ratio_policy,
    run_policy,
)
from sbfe.problems import disjunction_formula
from sbfe.utility import (
    cdnf_utility,
    constant_zero_utility,
    gains_at,
    threshold_utility,
)
from sbfe.utility import ThresholdFormula
from sbfe.verify import adg_cost_and_alpha, check_dual_feasibility, observed_alpha


class TestAdaptiveGreedy:
    def test_or_needs_both_tests(self):
        # both ratios 1/1.5, tie goes to x1; outcome 0 is not yet a cover
        g = cdnf_utility(disjunction_formula(2))
        d = ProductDistribution((0.5,) * 2)
        tr = adaptive_greedy(g, d, (1.0, 1.0), (0, 1))
        assert tr.tested == (0, 1)
        assert tr.total_cost == 2.0

    def test_or_one_test_suffices(self):
        g = cdnf_utility(disjunction_formula(2))
        d = ProductDistribution((0.5,) * 2)
        tr = adaptive_greedy(g, d, (1.0, 1.0), (1, 1))
        assert tr.tested == (0,)
        assert tr.total_cost == 1.0

    def test_goal_zero_runs_nothing(self):
        tr = adaptive_greedy(
            constant_zero_utility(3), ProductDistribution((0.5,) * 3), (1.0,) * 3, (1, 1, 1)
        )
        assert tr.tested == () and tr.total_cost == 0.0

    def test_stuck_utility_rejected(self):
        g = utility_from_fn(2, 1, lambda b: 0)
        with pytest.raises(InvalidUtilityError):
            adaptive_greedy(g, ProductDistribution((0.5,) * 2), (1.0, 1.0), (1, 1))

    def test_zero_cost_taken_first(self):
        g = cdnf_utility(disjunction_formula(3))
        d = ProductDistribution((0.5,) * 3)
        tr = adaptive_greedy(g, d, (1.0, 0.0, 1.0), (0, 0, 1))
        assert tr.tested[0] == 1

    def test_selection_minimizes_ratio_per_step(self):
        for case in cdnf_battery(5, seed=41, n_lo=3, n_hi=6):
            g = cdnf_utility(case.f)
            x = (1, 0) * (g.arity // 2) + (1,) * (g.arity % 2)
            tr = adaptive_greedy(g, case.dist, case.costs, x)
            for t, chosen in enumerate(tr.tested):
                b = trace_prefixes(tr, g.arity)[t]
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
                assert g.fn(tr.final(g.arity)) == g.goal


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
        d = ProductDistribution((0.5,) * 2)
        tr = adaptive_dual_greedy(g, d, (1.0, 1.0), (1, 0))
        assert tr.tested == (0,)
        assert tr.total_cost == 1.0

    def test_first_dual_value(self):
        # y for the empty prefix is c_j / E[gain at the root]
        g = threshold_utility(ThresholdFormula((1, 1), 1))
        d = ProductDistribution((0.5,) * 2)
        tr = adaptive_dual_greedy(g, d, (1.0, 1.0), (1, 0))
        root_gain = expected_gain(g, stars(2), tr.tested[0], d.p, 0)
        assert tr.dual_values[0] == pytest.approx(1.0 / root_gain)

    def test_duals_nonnegative_and_cover_reached(self):
        for case in threshold_battery(6, seed=53, n_lo=2, n_hi=6):
            g = threshold_utility(case.f)
            for x in all_assignments(g.arity):
                tr = adaptive_dual_greedy(g, case.dist, case.costs, x)
                assert all(y >= 0.0 for y in tr.dual_values)
                assert g.fn(tr.final(g.arity)) == g.goal

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
    from sbfe.core import as_costs, as_probabilities

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
        leaf_ys = lambda b, state, path: [state[0]]
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
            # the running sums against each leaf's prefixes summed from the root
            from_root = walk_policy(
                slow,
                n,
                lambda b, state, path: max(
                    [1.0] + [r for _, r in prefix_ratios(g, path, lambda b: gains_at(g, b))]
                ),
                lambda i, lo, hi: max(lo, hi),
            )
            assert alpha == from_root, case.id
            assert cost == expected_cost(slow, d, c) == expected_cost(fast, d, c), case.id
            checked += 1
        assert checked >= 5

    def test_utility_calls_within_twice_greedy(self):
        # sbfe gen --kind threshold --n 10 --seed 3; the recomputing
        # reference makes 12,024 calls here, each greedy one, at the root
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


def _tested_nodes(g, d, c):
    """The partial assignments where the dual greedy tests, each once."""
    nodes = set()
    for path, _ in tree_leaf_paths(policy_tree(DualGreedyPolicy(g, d, c), g.arity, tuple)):
        b = stars(g.arity)
        for i, v in path:
            nodes.add(b)
            b = extend(b, i, v)
    return nodes


class TestGainRecordsPathScoped:
    """A walk makes each node's gain record once, from one ``step`` call,
    and keeps none of them past the node's subtree."""

    @staticmethod
    def _counting(g):
        count = [0]

        def step(b):
            count[0] += 1
            return g.step(b)

        return dataclasses.replace(g, step=step), count

    @pytest.mark.parametrize("kind", ["cdnf", "threshold", "thresholds", "truthtable"])
    def test_one_record_per_tested_node(self, kind):
        walks = {
            "adg_cost_and_alpha": adg_cost_and_alpha,
            "check_dual_feasibility": check_dual_feasibility,
            "expected_cost": lambda g, d, c: expected_cost(DualGreedyPolicy(g, d, c), d, c),
        }
        checked = 0
        for case in _ADG_BATTERIES[kind]()[:6]:
            try:
                g = _adg_utility(case)
            except ConstantFunctionError:
                continue
            d, c = case.dist, case.costs
            tested = len(_tested_nodes(g, d, c))
            counted, count = self._counting(g)
            for name, walk in walks.items():
                count[0] = 0
                walk(counted, d, c)
                assert count[0] == tested, (case.id, name)
            checked += 1
        assert checked >= 3

    def test_walk_keeps_at_most_one_record(self):
        case = threshold_battery(1, seed=1004, n_lo=7, n_hi=7)[0]
        g, count = self._counting(threshold_utility(case.f))
        d, c = case.dist, case.costs
        nodes = _tested_nodes(g, d, c)
        pol = DualGreedyPolicy(g, d, c)
        expected_cost(pol, d, c)
        count[0] = 0
        for b in nodes:
            pol.gains(b)
            pol.gains(b)
        # every node's record is made again, once: the walk kept none of
        # them, and the record of the node last asked for is kept
        assert len(nodes) > 1 and count[0] == len(nodes)


class TestAlpha:
    def test_root_prefix_ratio(self):
        g = cdnf_utility(disjunction_formula(2))
        d = ProductDistribution((0.5,) * 2)
        tr = adaptive_dual_greedy(g, d, (1.0, 1.0), (0, 1))
        samples = prefix_ratios(g, tuple(zip(tr.tested, tr.outcomes)), lambda b: gains_at(g, b))
        # at the empty prefix the denominator is the whole goal
        expect = sum(
            g.fn(extend(stars(2), i, v)) for i, v in zip(tr.tested, tr.outcomes)
        ) / g.goal
        assert dict(samples)[0] == pytest.approx(expect)

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
        d = ProductDistribution((0.5,) * 3)
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
            opt = optimal_expected_cost(case.f, case.dist, case.costs)
            assert cost == pytest.approx(opt, abs=1e-9)


# ---------------------------------------------------------------------------
# single runs through the one walk, against the plain loop

# (kind, engine) -> the `sbfe.problems` driver that runs that engine on the
# kind's utility, as driver(f, d, c, x) -> (answer, trace)
_DRIVERS = {
    ("threshold", "greedy"): problems.evaluate_threshold_greedy,
    ("threshold", "adg"): problems.evaluate_threshold_adg,
    ("cdnf", "greedy"): problems.evaluate_cdnf,
    ("disjunction", "greedy"): problems.evaluate_cdnf,
    ("thresholds", "greedy"): problems.simultaneous_thresholds,
    ("thresholds", "adg"): lambda f, d, c, x: problems.simultaneous_thresholds(
        f, d, c, x, engine="adg"
    ),
    ("linear-system", "greedy"): problems.rank_linear_functions,
}


class TestRunsAgainstReferenceRun:
    """`run_policy`, the adaptive runs and the `problems` drivers each take
    a run from the one-input `core.walk_policy`; `reference_run` is the loop
    it replaced."""

    @staticmethod
    def _same(trace, ref, dual=False):
        tested, outs, cost, state = ref
        assert (trace.tested, trace.outcomes) == (tested, outs)
        assert trace.total_cost.hex() == cost.hex()
        assert trace.dual_values == (state[0] if dual else ())

    @pytest.mark.parametrize("engine", ["greedy", "adg", "baseline"])
    @pytest.mark.parametrize("kind", sorted(_EVAL))
    def test_field_by_field(self, kind, engine):
        driver = _DRIVERS.get((kind, engine))
        adaptive = {"greedy": adaptive_greedy, "adg": adaptive_dual_greedy}.get(engine)
        for seed in (1, 2):
            for n in (6, 9, 12):
                inst = generate_instance(kind, n, seed)
                try:
                    g = _EVAL[kind][0](inst.f)
                except ConstantFunctionError:
                    continue
                d, c, cc = inst.dist, inst.costs, as_costs(inst.costs)
                for k in range(100):
                    x = sample_input(d, k)
                    ref = reference_run(engine_policy(engine, g, inst)[0], x, n, cc)
                    self._same(run_policy(engine_policy(engine, g, inst)[0], x, n, c), ref)
                    if adaptive is not None:
                        self._same(adaptive(g, d, c, x), ref, dual=engine == "adg")
                    if driver is not None and g.goal > 0:
                        self._same(driver(inst.f, d, c, x)[1], ref, dual=engine == "adg")

    def test_knapsack(self):
        for seed in (1, 2):
            for n in (6, 9, 12):
                kp = generate_instance("knapsack", n, seed).f
                f = ThresholdFormula(kp.values, kp.threshold)
                if f.constant_value() == 1:
                    continue
                policy = DualGreedyPolicy(
                    threshold_utility(f), ProductDistribution.certain_ones(n), kp.weights
                )
                tested, _, cost, _ = reference_run(policy, (1,) * n, n, as_costs(kp.weights))
                items, total = problems.min_knapsack_adg(kp)
                assert (items, total.hex()) == (tested, cost.hex())


class _Recording(DualGreedyPolicy):
    """The dual greedy, logging every call the walk makes."""

    def __init__(self, *args):
        super().__init__(*args)
        self.log = []

    def next_test(self, b, state):
        self.log.append(("next", b))
        return super().next_test(b, state)

    def advance(self, b, state, i, outcome):
        self.log.append(("advance", b, i, outcome))
        return super().advance(b, state, i, outcome)


class TestInputWalkOrder:
    """With inputs, the walk makes the fold's calls in the fold's order,
    less those of the outcomes no input reaches."""

    def test_calls_are_the_folds_restricted_to_reached_nodes(self):
        for case in threshold_battery(6, seed=5, n_lo=4, n_hi=6):
            g = threshold_utility(case.f)
            n = g.arity
            fold = _Recording(g, case.dist, case.costs)
            walk_policy(fold, n, lambda b, s, p: None, lambda i, lo, hi: None)
            every = _Recording(g, case.dist, case.costs)
            walk_policy(every, n, lambda b, s, p: None, None, inputs=list(all_assignments(n)))
            assert every.log == fold.log
            for seed in range(4):
                xs = [sample_input(case.dist, 10 * seed + k) for k in range(3)]
                some = _Recording(g, case.dist, case.costs)
                walk_policy(some, n, lambda b, s, p: None, None, inputs=xs)
                reached = {b for call, b, *_ in some.log if call == "next"}
                want = [
                    call for call in fold.log
                    if call[1] in reached
                    and (call[0] == "next" or extend(*call[1:]) in reached)
                ]
                assert some.log == want


class _Stubborn:
    """Tests 0 first, then asks for 0 again."""

    def initial_state(self):
        return None

    def next_test(self, b, state):
        return 0

    def advance(self, b, state, i, outcome):
        return None


class _OutOfRange(_Stubborn):
    def next_test(self, b, state):
        return len(b)


class TestOneIllegalTestCheck:
    """Exact costs, single runs and sampled rows share one walk, so they
    reject an illegal test with one message."""

    @pytest.mark.parametrize(
        "policy, message",
        [
            (_Stubborn(), "policy requested illegal test 0 at 0**"),
            (_OutOfRange(), "policy requested illegal test 3 at ***"),
        ],
    )
    def test_same_policy_error_everywhere(self, tmp_path, monkeypatch, policy, message):
        # x_0 = 0 on every sampled input, so each walk fails at the same node
        p, c = (1e-9, 0.5, 0.5), (1.0, 1.0, 1.0)
        path = tmp_path / "disjunction.json"
        payload = {"format": "sbfe-1", "id": "d3", "kind": "disjunction", "n": 3, "p": p, "c": c}
        path.write_text(json.dumps(payload), encoding="utf-8")
        d = ProductDistribution(p)
        monkeypatch.setattr(cli, "engine_policy", lambda *args: (policy, 1.0))
        calls = (
            lambda: expected_cost(policy, d, c),
            lambda: run_policy(policy, (0, 1, 1), 3, c),
            lambda: cli.main(["eval", str(path), "--max-n", "2", "--trials", "5"]),
        )
        for call in calls:
            with pytest.raises(PolicyError) as exc:
                call()
            assert str(exc.value) == message

    def test_non_bit_outcome_where_tested(self):
        c = (1.0, 2.0, 3.0)
        for x in ((0, 2, 1), (1, "1", 0), (0, None, 0)):
            want = f"outcome {x[1]!r} for test 1 is not a bit"
            with pytest.raises(ValueError) as ref:
                reference_run(FixedOrderPolicy((0, 1, 2)), x, 3, c)
            assert str(ref.value) == want
            with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
                run_policy(FixedOrderPolicy((0, 1, 2)), x, 3, c)
            # one bad input stops a walk of many
            with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
                walk_policy(FixedOrderPolicy((0, 1, 2)), 3, lambda b, s, p: p, None,
                            inputs=[(0, 0, 0), x])

    def test_non_bit_outcome_never_tested_is_ignored(self):
        policy = FixedOrderPolicy((0, 1, 2), stop=lambda b: 1 in b)
        x = (1, 7, "?")
        want = reference_run(policy, x, 3, (1.0, 2.0, 3.0))
        trace = run_policy(policy, x, 3, (1.0, 2.0, 3.0))
        assert (trace.tested, trace.outcomes, trace.total_cost) == want[:3] == ((0,), (1,), 1.0)


# ---------------------------------------------------------------------------
# g(b) carried down the tree


@pytest.fixture
def checked_nodes(monkeypatch):
    """From here on, every greedy and dual-greedy decision checks that the
    g(b) of its gain record, and the g(b) its state carries below the root,
    equal ``g.fn(b)`` called directly.  Gives the list of nodes checked."""
    nodes = []
    for cls, carried in ((GreedyPolicy, lambda s: s), (DualGreedyPolicy, lambda s: s[2])):

        def next_test(self, b, state, inner=cls.__dict__["next_test"], carried=carried):
            i = inner(self, b, state)
            want = self.g.fn(b)
            assert self.gains(b)[0] == want, b
            if set(b) == {STAR}:
                assert carried(state) is None, b
            else:
                assert carried(state) == want, b
            nodes.append(b)
            return i

        monkeypatch.setattr(cls, "next_test", next_test)
    return nodes


def _carried_cases(name):
    """(utility, instance giving d and c) pairs at n <= 9: the `sbfe eval`
    utility of kind ``name``, or for "combine-or" and "combine-and" the
    combinator of a threshold and a CNF/DNF utility, under a threshold
    file's d and c."""
    for seed in (1, 2):
        for n in (3, 6, 9):
            if name in _EVAL:
                inst = generate_instance(name, n, seed)
                try:
                    yield _EVAL[name][0](inst.f), inst
                except ConstantFunctionError:
                    pass
            else:
                inst = generate_instance("threshold", n, seed)
                yield dict(axiom_utilities(random.Random(seed), n))[name], inst


class TestCarriedUtility:
    """Below the root a greedy walk takes g(b) from the parent's gain
    record, not from ``fn``."""

    @pytest.mark.parametrize("name", sorted(_EVAL) + ["combine-or", "combine-and"])
    def test_every_node_agrees_with_fn(self, checked_nodes, name):
        checked = 0
        for g, inst in _carried_cases(name):
            n, d, c = inst.n, inst.dist, inst.costs
            xs = [sample_input(d, k) for k in range(40)]
            for cls in (GreedyPolicy, DualGreedyPolicy):
                expected_cost(cls(g, d, c), d, c)
                cli._sampled_cost(cls(g, d, c), inst, 40, 0)
                run_policy(cls(g, d, c), xs[0], n, c)
            adaptive_greedy(g, d, c, xs[1])
            adaptive_dual_greedy(g, d, c, xs[2])
            adg_cost_and_alpha(g, d, c)
            check_dual_feasibility(g, d, c)
            checked += 1
        assert checked >= 4 and checked_nodes

    @pytest.mark.parametrize("kind", sorted(_EVAL))
    def test_fn_once_per_walk(self, kind):
        inst = generate_instance(kind, 8, 1)
        plain = _EVAL[kind][0](inst.f)
        assert plain.goal > 0
        count = [0]

        def fn(b):
            count[0] += 1
            return plain.fn(b)

        g = dataclasses.replace(plain, fn=fn)
        n, d, c = inst.n, inst.dist, inst.costs
        xs = [sample_input(d, k) for k in range(30)]
        walks = {
            "adg_cost_and_alpha": lambda: adg_cost_and_alpha(g, d, c),
            "check_dual_feasibility": lambda: check_dual_feasibility(g, d, c),
            "adaptive_greedy": lambda: adaptive_greedy(g, d, c, xs[0]),
            "adaptive_dual_greedy": lambda: adaptive_dual_greedy(g, d, c, xs[0]),
        }
        for cls in (GreedyPolicy, DualGreedyPolicy):
            name = cls.__name__
            walks[f"expected_cost {name}"] = lambda cls=cls: expected_cost(cls(g, d, c), d, c)
            walks[f"run_policy {name}"] = lambda cls=cls: run_policy(cls(g, d, c), xs[0], n, c)
            walks[f"sampled {name}"] = lambda cls=cls: cli._sampled_cost(cls(g, d, c), inst, 30, 0)
        for name, walk in walks.items():
            count[0] = 0
            walk()
            assert count[0] == 1, name
