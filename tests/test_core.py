import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    brute_certificate,
    conjunction_formula,
    enumeration_expected_cost,
    expected_certificate_cost,
    gen_cdnf_with_tautologies,
    neighbor_property_holds,
    policy_tree,
    prob_of,
    reference_certificate_table,
    reference_flag_planes,
    reference_optimum,
    relevant_positions,
    trace_prefixes,
    tree_tests_on,
)
from sbfe import core
from sbfe.core import (
    STAR,
    CostVector,
    Leaf,
    LimitError,
    PolicyError,
    ProductDistribution,
    RunTrace,
    Branch,
    OPTIMUM_MAX_N,
    all_partials,
    certificate_check,
    certificate_table,
    encode,
    expected_cost,
    extend,
    optimal_expected_cost,
    sample_input,
    stars,
    to_string,
)
from sbfe.instances import (
    cdnf_battery,
    disjunction_battery,
    generate_instance,
    linear_system_battery,
    threshold_battery,
    threshold_set_battery,
    truth_table_battery,
)
from sbfe.policies import (
    DualGreedyPolicy,
    FixedOrderPolicy,
    GreedyPolicy,
    cost_order_policy,
    cp_ratio_policy,
)
from sbfe.problems import (
    ThresholdSet,
    disjunction_formula,
    harmonic_gap_instance,
)
from sbfe.utility import (
    CdnfFormula,
    LinearSystem,
    ThresholdFormula,
    TruthTable,
    cdnf_utility,
    threshold_utility,
)


class TestPartialAssignments:
    def test_extend(self):
        assert extend((STAR, STAR), 0, 1) == (1, STAR)
        assert extend((1, STAR), 1, 0) == (1, 0)

    def test_extend_rejects_tested_position(self):
        with pytest.raises(ValueError):
            extend((1, STAR), 0, 0)

    def test_string_roundtrip(self):
        assert to_string((0, 1, STAR)) == "01*"

    def test_encode_distinct(self):
        keys = {encode(b) for b in [(0, 0), (0, 1), (1, 0), (1, 1), (STAR, STAR), (0, STAR)]}
        assert len(keys) == 6

    def test_encode_is_all_partials_order(self):
        assert [encode(b) for b in all_partials(3)] == list(range(27))


class TestProbOf:
    def test_empty_product(self):
        assert prob_of((STAR, STAR), ProductDistribution((0.3, 0.7))) == 1.0

    def test_single_factor(self):
        assert prob_of((1, STAR), ProductDistribution((0.3, 0.7))) == pytest.approx(0.3)

    def test_two_factors(self):
        # 0.3 * (1 - 0.7)
        assert prob_of((1, 0), ProductDistribution((0.3, 0.7))) == pytest.approx(0.09)

    @given(
        st.integers(1, 6).flatmap(
            lambda n: st.tuples(
                st.lists(st.floats(0.05, 0.95), min_size=n, max_size=n),
                st.lists(st.sampled_from([0, 1, STAR]), min_size=n, max_size=n),
            )
        )
    )
    def test_split_identity(self, case):
        # the two ways of resolving one untested position sum back to p(b)
        p, bits = case
        d = ProductDistribution(tuple(p))
        b = tuple(bits)
        for i, v in enumerate(b):
            if v != STAR:
                continue
            total = prob_of(extend(b, i, 1), d) + prob_of(extend(b, i, 0), d)
            assert total == pytest.approx(prob_of(b, d), abs=1e-12)


class TestDistributionModes:
    def test_sbfe_rejects_degenerate(self):
        with pytest.raises(ValueError):
            ProductDistribution((0.5, 1.0))

    def test_sssc_allows_degenerate(self):
        d = ProductDistribution((0.0, 1.0), mode="sssc")
        assert sample_input(d, 7) == (0, 1)

    def test_costs_reject_negative(self):
        with pytest.raises(ValueError):
            CostVector((1.0, -0.5))

    @pytest.mark.parametrize(
        "c, message",
        [
            ((1, float("nan"), -1), "c[1] = nan is not finite"),
            ((1, -1, float("inf")), "c[1] = -1.0 is negative"),
            ((float("-inf"), float("nan")), "c[0] = -inf is not finite"),
            ((0.0, 2, -1e-300), "c[2] = -1e-300 is negative"),
        ],
    )
    def test_costs_name_the_first_bad_index(self, c, message):
        with pytest.raises(ValueError) as exc:
            CostVector(c)
        assert str(exc.value) == message

    def test_costs_accept_negative_zero(self):
        assert CostVector((1, -0.0)).c == (1.0, -0.0)
        assert CostVector(()).c == ()

    def test_sampling_is_deterministic(self):
        d = ProductDistribution((0.5,) * 8)
        assert sample_input(d, 123) == sample_input(d, 123)


class TestExpectedCost:
    def test_disjunction_cp_policy(self):
        # enumerate the four inputs: costs 2, 2, 1, 1, each with mass 1/4
        d = ProductDistribution((0.5,) * 2)
        c = (1.0, 1.0)
        policy = cp_ratio_policy(d, c)
        assert expected_cost(policy, d, c) == pytest.approx(1.5)
        assert enumeration_expected_cost(policy, d, c, 2) == pytest.approx(1.5)

    def test_zero_test_policy(self):
        policy = FixedOrderPolicy((), stop=None)
        assert expected_cost(policy, ProductDistribution((0.5,) * 3), (1.0,) * 3) == 0.0

    def test_harmonic_family(self):
        # unit costs, p_i = 1/(i+2): testing in index order costs H_4 = 25/12
        _, d, c = harmonic_gap_instance(4)
        policy = cp_ratio_policy(d, c)
        assert expected_cost(policy, d, c) == pytest.approx(float(Fraction(25, 12)), abs=1e-12)
        assert enumeration_expected_cost(policy, d, c, 4) == pytest.approx(
            float(Fraction(25, 12)), abs=1e-12
        )

    def test_matches_enumeration_on_greedy(self):
        # the tree walk against one run per input, for a stateless policy,
        # the stateful dual greedy and a fixed order with a stop rule
        for case in cdnf_battery(5, seed=11, n_lo=2, n_hi=5):
            g = cdnf_utility(case.f)
            for policy in (
                GreedyPolicy(g, case.dist, case.costs),
                DualGreedyPolicy(g, case.dist, case.costs),
                cost_order_policy(case.costs, case.f),
            ):
                assert expected_cost(policy, case.dist, case.costs) == pytest.approx(
                    enumeration_expected_cost(policy, case.dist, case.costs, g.arity), abs=1e-9
                )

    def test_non_terminating_policy_flagged(self):
        class Stubborn:
            def initial_state(self):
                return None

            def next_test(self, b, state):
                return 0

            def advance(self, b, state, i):
                return None, None

        class Repeater(Stubborn):
            # tests 0, then 1, then asks for 0 again
            def next_test(self, b, state):
                return 1 if b[1] == STAR and b[0] != STAR else 0

        class OutOfRange(Stubborn):
            def next_test(self, b, state):
                return len(b)

        d = ProductDistribution((0.5,) * 3)
        for policy in (Stubborn(), Repeater(), OutOfRange()):
            with pytest.raises(PolicyError):
                expected_cost(policy, d, (1.0, 1.0, 1.0))
            with pytest.raises(PolicyError):
                policy_tree(policy, 3, to_string)


class TestOptimalOracle:
    def test_disjunction_two_vars(self):
        f = disjunction_formula(2)
        val = optimal_expected_cost(f, ProductDistribution((0.5,) * 2), (1.0, 1.0))
        assert val == pytest.approx(1.5)

    def test_constant_true_formula(self):
        # all clauses tautological: identically-true pair, zero-cost answer
        f = CdnfFormula(1, (frozenset({1, -1}),), (frozenset({1}), frozenset({-1})))
        assert optimal_expected_cost(f, ProductDistribution((0.5,)), (1.0,)) == 0.0

    def test_conjunction_prefers_less_likely_variable(self):
        # testing x2 first: 1 + 0.5 * 1 = 1.5; testing x1 first: 1 + 0.9 = 1.9
        f = conjunction_formula(2)
        d = ProductDistribution((0.9, 0.5))
        assert optimal_expected_cost(f, d, (1.0, 1.0)) == pytest.approx(1.5)

    def test_optimal_lower_bounds_policies(self):
        for case in cdnf_battery(6, seed=5, n_lo=2, n_hi=6):
            opt = optimal_expected_cost(case.f, case.dist, case.costs)
            g = cdnf_utility(case.f)
            greedy = expected_cost(GreedyPolicy(g, case.dist, case.costs), case.dist, case.costs)
            baseline = expected_cost(
                cost_order_policy(case.costs, case.f), case.dist, case.costs
            )
            n = case.f.arity
            assert opt <= greedy + 1e-9
            assert opt <= baseline + 1e-9
            assert baseline <= n * opt + 1e-9

    def test_limit_guards(self):
        f = disjunction_formula(4)
        n = OPTIMUM_MAX_N + 1
        with pytest.raises(LimitError, match=f"^exhaustive optimum limited to n <= 14, got {n}$"):
            optimal_expected_cost(
                disjunction_formula(n), ProductDistribution((0.5,) * n), (1.0,) * n
            )
        with pytest.raises(ValueError):
            optimal_expected_cost(
                f, ProductDistribution((1.0, 0.5, 0.5, 0.5), mode="sssc"), (1.0,) * 4
            )

    def test_single_variable(self):
        f = disjunction_formula(1)
        val = optimal_expected_cost(f, ProductDistribution((0.3,)), (2.5,))
        assert val == pytest.approx(2.5)  # the one bit must always be bought


# Battery of every kind the optimum serves; a linear system is its own
# instance, with one flag field per pair, not one Boolean output.
ORACLE_BATTERIES = {
    "threshold": threshold_battery,
    "cdnf": cdnf_battery,
    "truthtable": truth_table_battery,
    "thresholds": threshold_set_battery,
    "linear-system": linear_system_battery,
    "disjunction": disjunction_battery,
}


class TestOptimumAgainstReference:
    @pytest.mark.parametrize("kind", ORACLE_BATTERIES)
    def test_same_value_and_tree(self, kind):
        battery = ORACLE_BATTERIES[kind]
        cases = (
            battery(8, seed=41, n_lo=2, n_hi=8)
            + battery(1, seed=42, n_lo=10, n_hi=10)
            + battery(1, seed=48, n_lo=1, n_hi=1)
        )
        for case in cases:
            got = optimal_expected_cost(case.f, case.dist, case.costs)
            assert got == reference_optimum(case.f, case.dist, case.costs), case.id

    # n = 11 splits a key into 6 high and 5 low digits.  Of this
    # disjunction's 729 blocks 665 are certified throughout and skipped, and
    # each of the other 64 holds fewer than a quarter uncertified states;
    # every block of this truth table holds more than a quarter.
    @pytest.mark.parametrize("kind", ("disjunction", "truthtable"))
    def test_sparse_and_dense_at_odd_split(self, kind):
        (case,) = ORACLE_BATTERIES[kind](1, seed=49, n_lo=11, n_hi=11)
        got = optimal_expected_cost(case.f, case.dist, case.costs)
        assert got == reference_optimum(case.f, case.dist, case.costs), case.id

    # n = 12 splits a key evenly, 6 high and 6 low digits; n = 13 splits it
    # into 7 and 6.  Both functions read every position, and 64 of the
    # disjunction's 729 blocks and 128 of the threshold's 2187 hold an
    # uncertified state, so the high children of most of those blocks are
    # the shared zero block.
    @pytest.mark.parametrize("kind,n", [("disjunction", 12), ("threshold", 13)])
    def test_sparse_at_larger_splits(self, kind, n):
        (case,) = ORACLE_BATTERIES[kind](1, seed=50, n_lo=n, n_hi=n)
        got = optimal_expected_cost(case.f, case.dist, case.costs)
        assert got == reference_optimum(case.f, case.dist, case.costs), case.id

    # The block loop holds two levels of blocks at a time.  On this dense
    # truth table (165k of 177k states uncertified, 6 high digits) the
    # traced peak was 3.54 MB with two levels held, 5.76 MB for a loop that
    # keeps every level, and 1.84 MB for the 3^k float array that came before
    # the levels (Python 3.11).
    def test_holds_two_levels_at_a_time(self):
        (case,) = ORACLE_BATTERIES["truthtable"](1, seed=49, n_lo=11, n_hi=11)
        assert _traced_peak(case) < 4.5e6

    # The set-up holds one 3^k table.  On this disjunction (k = 12, 4,095 of
    # 531,441 states uncertified, so its blocks hold little) the traced peak
    # is 2.68 x 3^12 bytes, at the last widening step of its one flag plane;
    # an all-ones mask ANDed with the plane's nonzero bytes, then a second
    # whole-table translate for the loop, peaked at 5.23 x 3^12 (Python 3.11).
    def test_one_table(self):
        case = generate_instance("disjunction", 12, 1)
        assert _traced_peak(case) <= 4 * 3**12

    @pytest.mark.parametrize("kind", ORACLE_BATTERIES)
    def test_status_table_is_the_certificate(self, kind):
        for case in ORACLE_BATTERIES[kind](8, seed=43, n_lo=2, n_hi=6):
            f = case.f
            certified = certificate_table(f)
            assert len(certified) == 3**f.arity, case.id
            for key, b in enumerate(all_partials(f.arity)):
                assert certified[key] == (f.certificate(b) is not None), (case.id, b)


def _traced_peak(case) -> int:
    """tracemalloc's peak over one optimum of the case, in bytes above what
    was traced when it started."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        optimal_expected_cost(case.f, case.dist, case.costs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - before


# Costs put on the positions a function ignores, each with the other costs
# as given, at 1e-300 times that, and at 5e-324 times that.  A position is
# dropped only when its cost is at least 2^-40 of the total: beside costs
# of order 1 these all stay, the scaled variants let 1e-300 and 5e-324 go,
# and 0.0 stays unless every cost is 0.
IGNORED_COSTS = (0.0, 1e-300, 5e-324)
COST_SCALES = (1.0, 1e-300, 5e-324)

# Hand-built functions that ignore some positions: (f, p, c, relevant).
IGNORING = [
    # 1 + 1 < 6, so only x_0 decides, though x_1 and x_2 have coefficients
    pytest.param(
        ThresholdFormula((6, 1, 1), 6), (0.3, 0.6, 0.8), (2.0, 1.0, 1.5), [0], id="threshold"
    ),
    # column 0 is equal in both rows, so no order depends on it; columns 1
    # and 2 are equal to each other, and both matter
    pytest.param(
        LinearSystem(((3, 1, 1, 5), (3, 2, 2, 1))),
        (0.4, 0.3, 0.6, 0.7),
        (1.0, 2.0, 1.0, 3.0),
        [1, 2, 3],
        id="linear-system",
    ),
    # x_1 matters to neither member (the first is x_0 alone), x_2 only to
    # the second
    pytest.param(
        ThresholdSet((ThresholdFormula((2, 1, 0), 2), ThresholdFormula((1, 0, 1), 1))),
        (0.5, 0.2, 0.7),
        (1.0, 1.0, 2.0),
        [0, 2],
        id="thresholds",
    ),
    # x_0 xor x_2; bit 1 of the index is never read
    pytest.param(
        TruthTable(3, tuple((k & 1) ^ (k >> 2 & 1) for k in range(8))),
        (0.6, 0.5, 0.2),
        (1.0, 3.0, 2.0),
        [0, 2],
        id="truthtable",
    ),
    # identically 1
    pytest.param(ThresholdFormula((1, 2), 0), (0.3, 0.6), (1.0, 2.0), [], id="constant"),
    # one row: no pair to decide, so no flag plane at all
    pytest.param(
        LinearSystem(((1, -2, 3),)), (0.4, 0.3, 0.6), (1.0, 2.0, 1.0), [], id="no-planes"
    ),
    # rows 0 and 1 are equal, so their pair is decided everywhere; no row
    # reads x_3
    pytest.param(
        LinearSystem(((1, -2, 3, 0), (1, -2, 3, 0), (0, 1, -1, 0))),
        (0.4, 0.3, 0.6, 0.5),
        (1.0, 2.0, 1.0, 3.0),
        [0, 1, 2],
        id="equal-rows",
    ),
    # the second member is identically 1; no member reads x_3
    pytest.param(
        ThresholdSet((ThresholdFormula((2, -1, 1, 0), 1), ThresholdFormula((1, 2, -1, 0), -5))),
        (0.5, 0.2, 0.7, 0.4),
        (1.0, 1.0, 2.0, 0.5),
        [0, 1, 2],
        id="constant-member",
    ),
]


def _cost_variants(f, c):
    """c, then every (ignored cost, scale) pair applied to it."""
    relevant = set(relevant_positions(f))
    yield tuple(c)
    for v in IGNORED_COSTS:
        for s in COST_SCALES:
            yield tuple(ci * s if i in relevant else v for i, ci in enumerate(c))


class TestSqueezedOptimum:
    """The optimum drops positions no flag plane depends on; its value must
    stay bitwise equal to the reference's over all n positions."""

    def test_cdnf_battery(self):
        cases = cdnf_battery(12, seed=52, n_lo=2, n_hi=7)
        assert any(len(relevant_positions(case.f)) < case.f.arity for case in cases)
        for case in cases:
            for c in _cost_variants(case.f, case.costs):
                expected = reference_optimum(case.f, case.dist, c)
                assert optimal_expected_cost(case.f, case.dist, c) == expected, (case.id, c)

    @pytest.mark.parametrize("f, p, c, relevant", IGNORING)
    def test_ignored_positions(self, f, p, c, relevant):
        assert relevant_positions(f) == relevant
        for cc in _cost_variants(f, c):
            assert optimal_expected_cost(f, p, cc).hex() == reference_optimum(f, p, cc).hex(), cc

    def test_zero_cost_ignored_position_moves_the_last_bit(self):
        # Testing x_0 alone costs 3.0.  Testing the ignored x_1 first, at no
        # cost, is worth 0.3 * 3.0 + 0.7 * 3.0 = 2.9999999999999996, an ulp
        # less, so x_1 must stay.
        f = ThresholdFormula((1, 0), 1)
        assert reference_optimum(f, (0.5, 0.3), (3.0, 0.0)) == 2.9999999999999996
        assert optimal_expected_cost(f, (0.5, 0.3), (3.0, 0.0)) == 2.9999999999999996

    def test_subnormal_total_keeps_zero_cost(self):
        # 0.5 * 5e-324 rounds to 0, so testing the ignored x_1 first at no
        # cost is worth 0.0.  A margin of 2^-40 * total would underflow to 0
        # and let x_1 go.
        f = ThresholdFormula((1, 0), 1)
        assert reference_optimum(f, (0.3, 0.5), (5e-324, 0.0)) == 0.0
        assert optimal_expected_cost(f, (0.3, 0.5), (5e-324, 0.0)) == 0.0


class TestSqueezedTableSize:
    """The certified table is built on the kept positions only."""

    @pytest.fixture
    def sizes(self, monkeypatch):
        made = []
        build = core._certified_table

        def spy(planes, n):
            table = build(planes, n)
            made.append(len(table))
            return table

        monkeypatch.setattr(core, "_certified_table", spy)
        return made

    def test_reads_k_of_n(self, sizes):
        case = generate_instance("cdnf", 10, 200)
        k = len(relevant_positions(case.f))
        assert k < case.n
        optimal_expected_cost(case.f, case.dist, case.costs)
        assert sizes == [3**k]

    @pytest.mark.parametrize("kind", ("disjunction", "truthtable", "threshold"))
    def test_every_position_read(self, sizes, kind):
        case = generate_instance(kind, 8, 1)
        assert relevant_positions(case.f) == list(range(8))
        optimal_expected_cost(case.f, case.dist, case.costs)
        assert sizes == [3**8]

    def test_constant_builds_one_state(self, sizes):
        assert optimal_expected_cost(ThresholdFormula((1, 2), 0), (0.3, 0.6), (1.0, 2.0)) == 0.0
        assert sizes == [1]

    def test_certificate_table_keeps_every_position(self, sizes):
        assert len(certificate_table(ThresholdFormula((6, 1, 1), 6))) == 27
        assert sizes == [27]


class TestCertificateTableAgainstReference:
    @pytest.mark.parametrize("kind", ORACLE_BATTERIES)
    def test_byte_equal(self, kind):
        battery = ORACLE_BATTERIES[kind]
        cases = (
            battery(9, seed=44, n_lo=1, n_hi=9)
            + battery(1, seed=45, n_lo=11, n_hi=11)
            + battery(1, seed=46, n_lo=12, n_hi=12)
        )
        assert sorted(case.f.arity for case in cases) == [*range(1, 10), 11, 12]
        for case in cases:
            assert certificate_table(case.f) == reference_certificate_table(case.f), case.id

    def test_planes_never_evaluate(self, monkeypatch):
        # the planes come from each kind's own data: no kind defines
        # evaluate, and the table asks for no certificate
        cases = [
            case
            for kind, battery in ORACLE_BATTERIES.items()
            for case in battery(3, seed=47, n_lo=1, n_hi=7)
        ]
        expected = [reference_certificate_table(case.f) for case in cases]

        def refuse(*args):
            raise AssertionError("the certificate table called certificate")

        for cls in (ThresholdFormula, CdnfFormula, TruthTable, ThresholdSet, LinearSystem):
            assert not hasattr(cls, "evaluate"), cls
            monkeypatch.setattr(cls, "certificate", refuse)
        for case, table in zip(cases, expected):
            assert certificate_table(case.f) == table, case.id


class TestFlagPlanesAgainstReference:
    @pytest.mark.parametrize("kind", ORACLE_BATTERIES)
    def test_every_size(self, kind):
        cases = ORACLE_BATTERIES[kind](12, seed=50, n_lo=1, n_hi=12)
        assert sorted(case.f.arity for case in cases) == [*range(1, 13)]
        for case in cases:
            assert case.f.flag_planes() == reference_flag_planes(case.f), case.id

    def test_tautological_clauses(self):
        rng = random.Random(51)
        for n in range(1, 9):
            f = gen_cdnf_with_tautologies(rng, n)
            assert f.flag_planes() == reference_flag_planes(f), n

    def test_negative_coefficients(self):
        for f in (
            ThresholdFormula((-3, 2, -1, 4), 0),
            ThresholdFormula((-1, -1, -1), -2),
            ThresholdFormula((-2, -5, 1, -1, 3), -4),
        ):
            assert f.flag_planes() == reference_flag_planes(f), f

    def test_constant_member(self):
        constant = ThresholdFormula((1, 2, -1), -5)  # always 1
        assert constant.certificate(stars(3)) == 1
        f = ThresholdSet((ThresholdFormula((2, -1, 1), 1), constant))
        planes = f.flag_planes()
        assert planes == reference_flag_planes(f)
        assert planes[1] == bytes([2]) * 8

    def test_equal_rows(self):
        f = LinearSystem(((1, -2, 3), (1, -2, 3), (0, 1, -1)))
        planes = f.flag_planes()
        assert planes == reference_flag_planes(f)
        assert planes[0] == bytes([3]) * 8  # f_0 = f_1 everywhere

    def test_one_row(self):
        f = LinearSystem(((1, -2, 3),))
        assert f.flag_planes() == reference_flag_planes(f) == ()
        assert certificate_table(f) == bytes([1]) * 27  # no pair, nothing to decide


class TestCertificates:
    def test_conjunction_zero_cert(self):
        f = conjunction_formula(2)
        assert certificate_check(f, (0, STAR)) == 0
        assert brute_certificate(f, (0, STAR)) == 0

    def test_disjunction_open(self):
        f = disjunction_formula(2)
        assert certificate_check(f, (STAR, STAR)) is None

    def test_threshold_one_cert(self):
        f = ThresholdFormula((1, 1), 1)
        assert certificate_check(f, (1, STAR)) == 1

    def test_shortcuts_match_enumeration(self):
        rng = random.Random(0)
        for case in threshold_battery(4, seed=21, n_lo=2, n_hi=5) + cdnf_battery(
            4, seed=22, n_lo=2, n_hi=5
        ):
            n = case.f.arity
            for _ in range(40):
                b = tuple(rng.choice((0, 1, STAR)) for _ in range(n))
                assert certificate_check(case.f, b) == brute_certificate(case.f, b)


class TestNeighborProperty:
    def test_greedy_policy_trees(self):
        for case in cdnf_battery(4, seed=10, n_lo=2, n_hi=6):
            g = cdnf_utility(case.f)
            tree = policy_tree(
                GreedyPolicy(g, case.dist, case.costs), g.arity, lambda b: None
            )
            assert neighbor_property_holds(tree, g.arity)

    def test_wide_instance(self):
        # the dual greedy's dual solution relies on the property
        case = threshold_battery(1, seed=12, n_lo=10, n_hi=10)[0]
        g = threshold_utility(case.f)
        tree = policy_tree(DualGreedyPolicy(g, case.dist, case.costs), 10, lambda b: None)
        assert neighbor_property_holds(tree, 10)

    def test_tests_on_input(self):
        t = Branch(0, Leaf(0), Branch(1, Leaf(0), Leaf(1)))
        assert tree_tests_on(t, (1, 0)) == (0, 1)
        assert tree_tests_on(t, (0, 1)) == (0,)


class TestExpectedCertificateCost:
    def test_disjunction_two_vars(self):
        # cheapest certificate: any 1-bit alone, or both bits when x = 00
        f = disjunction_formula(2)
        d = ProductDistribution((0.5,) * 2)
        got = expected_certificate_cost(f, d, (1.0, 1.0))
        assert got == pytest.approx(0.75 * 1 + 0.25 * 2)

    def test_threshold_agreement_with_generic(self):
        f = ThresholdFormula((2, -1, 1), 1)
        d = ProductDistribution((0.3, 0.6, 0.5))
        c = (1.0, 2.0, 1.5)
        total = expected_certificate_cost(f, d, c)
        opt = optimal_expected_cost(f, d, c)
        assert total <= opt + 1e-9


class TestRunTrace:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            RunTrace((0, 0), (1, 1), 2.0, (1, STAR))

    def test_prefixes(self):
        tr = RunTrace((2, 0), (1, 0), 3.0, (0, STAR, 1))
        assert trace_prefixes(tr, 3) == (
            (STAR, STAR, STAR),
            (STAR, STAR, 1),
            (0, STAR, 1),
        )
