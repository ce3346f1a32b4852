import random

import pytest

from sbfe.core import all_assignments
from sbfe.instances import (
    KINDS,
    InstanceFormatError,
    cdnf_battery,
    disjunction_battery,
    dumps,
    gen_cdnf,
    gen_knapsack,
    gen_threshold,
    gen_truth_table,
    generate_instance,
    knapsack_battery,
    linear_system_battery,
    loads,
    threshold_battery,
    threshold_set_battery,
)


class TestSerialization:
    @pytest.mark.parametrize("kind", KINDS)
    def test_roundtrip(self, kind):
        inst = generate_instance(kind, 5, seed=42, m=2)
        again = loads(dumps(inst))
        assert again.kind == inst.kind
        assert again.id == inst.id
        assert again.n == inst.n
        assert dumps(again) == dumps(inst)

    @pytest.mark.parametrize("kind", KINDS)
    def test_byte_determinism(self, kind):
        a = dumps(generate_instance(kind, 6, seed=7, m=3))
        b = dumps(generate_instance(kind, 6, seed=7, m=3))
        assert a == b

    def test_semantic_roundtrip(self):
        inst = generate_instance("cdnf", 4, seed=9)
        again = loads(dumps(inst))
        for x in all_assignments(4):
            assert inst.f.evaluate(x) == again.f.evaluate(x)

    def test_rejects_bad_format(self):
        with pytest.raises(InstanceFormatError):
            loads('{"format": "other", "kind": "threshold"}')

    def test_rejects_bad_json(self):
        with pytest.raises(InstanceFormatError):
            loads("not json at all {")

    def test_rejects_missing_fields(self):
        with pytest.raises(InstanceFormatError):
            loads('{"format": "sbfe-1", "kind": "threshold", "n": 2}')

    def test_rejects_unknown_kind(self):
        with pytest.raises(InstanceFormatError):
            generate_instance("mystery", 4, seed=1)


class TestGenerators:
    def test_thresholds_never_constant(self):
        rng = random.Random(0)
        for _ in range(50):
            f = gen_threshold(rng, 5)
            assert f.constant_value() is None
            assert all(a != 0 for a in f.coeffs)
            assert max(abs(a) for a in f.coeffs) <= 5

    def test_cdnf_caps_hold(self):
        rng = random.Random(1)
        for _ in range(30):
            f = gen_cdnf(rng, 6)
            assert 1 <= f.k <= 4 and 1 <= f.d <= 4
            assert f.constant_value() is None

    def test_truth_tables_never_constant(self):
        rng = random.Random(2)
        for _ in range(20):
            assert gen_truth_table(rng, 4).constant_value() is None

    def test_truth_table_size_cap(self):
        with pytest.raises(InstanceFormatError):
            generate_instance("truthtable", 13, seed=1)

    def test_knapsacks_feasible(self):
        rng = random.Random(3)
        for _ in range(30):
            kp = gen_knapsack(rng, 6)
            assert sum(kp.values) >= kp.threshold


class TestBatteries:
    def test_sizes_and_ids(self):
        cases = threshold_battery(20, seed=5, n_lo=3, n_hi=10)
        assert len(cases) == 20
        assert len({c.id for c in cases}) == 20
        sizes = {c.f.arity for c in cases}
        assert max(sizes) == 10 and min(sizes) >= 3

    def test_deterministic(self):
        a = cdnf_battery(5, seed=11)
        b = cdnf_battery(5, seed=11)
        assert [c.f for c in a] == [c.f for c in b]
        assert [c.dist.p for c in a] == [c.dist.p for c in b]

    def test_all_batteries_construct(self):
        assert disjunction_battery(3, seed=1)
        assert threshold_set_battery(3, seed=2)
        assert knapsack_battery(3, seed=3)
        assert linear_system_battery(3, seed=4)
