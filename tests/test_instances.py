import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sbfe.instances
from helpers import evaluate
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
            assert evaluate(inst.f, x) == evaluate(again.f, x)

    def test_rejects_bad_format(self):
        with pytest.raises(InstanceFormatError):
            loads('{"format": "other", "kind": "threshold"}')

    def test_rejects_bad_json(self):
        with pytest.raises(InstanceFormatError):
            loads("not json at all {")

    def test_rejects_missing_fields(self):
        with pytest.raises(InstanceFormatError):
            loads('{"format": "sbfe-1", "kind": "threshold", "n": 2}')

    def test_n_is_checked_before_the_formula_is_built(self, monkeypatch):
        data = json.loads(dumps(generate_instance("disjunction", 3, seed=1)))
        data["n"] = 10**12

        def refuse(n):
            raise AssertionError(f"built a formula of arity {n}")

        monkeypatch.setattr(sbfe.instances, "disjunction_formula", refuse)
        with pytest.raises(InstanceFormatError, match="but p has 3"):
            loads(json.dumps(data))

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


# sha256 of each battery's instances, six per call, written out with dumps
# (id, kind, n, p, c and the formula), at seeds 0, 7 and 1234.  The seeded
# batteries feed `sbfe verify` and the acceptance suite, so their contents
# stay fixed; a change that alters them on purpose updates these digests.
BATTERY_GOLDEN = {
    ("threshold_battery", 0): "b29f68dbf301a1b5a1bc7805ce33c111ad948b547d0f5ae78197d4003de2d67b",
    ("threshold_battery", 7): "a985836dd23aacfacb62bf20ff7ee63297f3b3a2dcf0d178127b07ce78b5a819",
    ("threshold_battery", 1234): "4d68da0449cfbdfc2faf65bc39d1c25f0fe12784dc0969ca90d94b8a6ee8bc38",
    ("cdnf_battery", 0): "14a6926a7a589e96e272c003420edb942f12e80b72a10c098b4afb87773ab0d0",
    ("cdnf_battery", 7): "7da162cf8dc9bab15c103d4deb80ae513edae89db9d64640ce01987d795814fa",
    ("cdnf_battery", 1234): "2c712337ec2734bf47b9607790a965f0e103ef04c767cf272925f1363c545da3",
    ("disjunction_battery", 0): "ee150352da4299a5bf46a3b99b84246d3d32689341bb80baf764d4f910fd70af",
    ("disjunction_battery", 7): "17cfd7b3f36e662fbcbc91d11ebc5355942f8c9dbb591d210b9621bb3c4ccce6",
    ("disjunction_battery", 1234): "8f76865c94f77ade7d019fa6c9d0b2e0e7ed97fa08208439a94ba799134ac9cc",
    ("threshold_set_battery", 0): "98b5dad974e7a7d69a45c72a47331ffc582818cd0f2c8070cae16594f997d4d7",
    ("threshold_set_battery", 7): "1756efefb034fc95197f5a627b5c5cf938fdda655602e91838ecaefc41d964b9",
    ("threshold_set_battery", 1234): "8fefd8e2fe55f928a03c6646fab0b7dd86a703c28cb8c2bcfb8e7eda3d20d3fe",
    ("truth_table_battery", 0): "39845f1b440195adcbac8a09c2a390538f5040d43de539c8e838f95c5295bd80",
    ("truth_table_battery", 7): "92e73522cf6677ddd08643e3a3fefe2f3b01ced6ad6851080fd684ec1eee9544",
    ("truth_table_battery", 1234): "64883b2f7634abb3a0b0150b1614283a72e1962b427d60a27acf645cc76df718",
    ("knapsack_battery", 0): "91e05cbfbfb4ea64c44eb8d12eb6ba998ff71ed1cff7642dd7b794ab2d51ab68",
    ("knapsack_battery", 7): "c197246652b0f2d94a5a58aea0575cde7ce2f1a886c2aa4158cb5c8b0a16b198",
    ("knapsack_battery", 1234): "1a11e79405d4acfc591a76c804ac7dba7ad9907ed5da9b90346b54aa94c82062",
    ("linear_system_battery", 0): "4ec6560c447640a7dde08b36ac5c4cbeb7d9690e73aa5c9e5eadf308669a8cb7",
    ("linear_system_battery", 7): "47753b8f5885c4d76cde587faabbc11dc265dbf6ff41c571ec5706ccb3191784",
    ("linear_system_battery", 1234): "68c520d9c81f4a70fc9c6961fe740cfc31f92cf4ad88fb327986a57535faae87",
}
BATTERIES = sorted({name for name, _ in BATTERY_GOLDEN})


class TestBatteries:
    @pytest.mark.parametrize("name", BATTERIES)
    def test_golden_contents(self, name):
        for seed in (0, 7, 1234):
            cases = getattr(sbfe.instances, name)(6, seed)
            text = "".join(dumps(case) for case in cases)
            assert hashlib.sha256(text.encode()).hexdigest() == BATTERY_GOLDEN[(name, seed)]

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


# Hypothesis: every generated file survives a load and a dump byte for byte,
# and any mutation of one either loads or fails with InstanceFormatError.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def _generated(draw):
    kind = draw(st.sampled_from(KINDS))
    n = draw(st.integers(2, 6))
    return dumps(generate_instance(kind, n, draw(st.integers(0, 2**32)), m=draw(st.integers(2, 3))))


def _paths(value, path=()):
    """Every position inside a JSON value, as key and index steps."""
    yield path
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _paths(v, path + (k,))
    elif isinstance(value, list):
        for k, v in enumerate(value):
            yield from _paths(v, path + (k,))


@st.composite
def _mutated(draw):
    text = draw(_generated())
    if draw(st.booleans()):  # an edit of the text itself
        lo = draw(st.integers(0, len(text)))
        hi = draw(st.integers(lo, min(len(text), lo + 8)))
        return text[:lo] + draw(st.text(max_size=8)) + text[hi:]
    data = json.loads(text)
    path = draw(st.sampled_from(list(_paths(data))[1:]))
    parent = data
    for step in path[:-1]:
        parent = parent[step]
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(_JSON)
    return json.dumps(data)


class TestFormatProperties:
    @settings(max_examples=60)
    @given(_generated())
    def test_dumps_loads_is_identity(self, text):
        assert dumps(loads(text)) == text

    @settings(max_examples=300)
    @given(_mutated())
    def test_mutated_payload_raises_only_format_errors(self, text):
        try:
            inst = loads(text)
        except InstanceFormatError:
            return
        # what loads is what the file says: p, c and weights hold JSON
        # numbers (not booleans or strings), each equal to its loaded value
        data = json.loads(text)
        fields = [("p", inst.dist.p), ("c", inst.costs)]
        if inst.kind == "knapsack":
            fields.append(("weights", inst.f.weights))
        for name, loaded in fields:
            assert isinstance(data[name], list), name
            assert len(data[name]) == len(loaded), name
            for v, w in zip(data[name], loaded):
                assert type(v) in (int, float) and v == w, (name, v, w)

    @settings(max_examples=100)
    @given(_generated(), st.data())
    def test_number_lists_refuse_what_float_would_take(self, text, pick):
        # a boolean, or a number written as a string, in p, c or weights
        data = json.loads(text)
        name = pick.draw(st.sampled_from([k for k in ("p", "c", "weights") if k in data]))
        k = pick.draw(st.integers(0, len(data[name]) - 1))
        data[name][k] = pick.draw(st.sampled_from([True, False, str(data[name][k])]))
        with pytest.raises(InstanceFormatError):
            loads(json.dumps(data))
