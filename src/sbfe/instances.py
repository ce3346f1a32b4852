"""Instance bundles, the "sbfe-1" file format, and seeded generators.

Files are JSON with sorted keys so that identical generator spec and seed
produce byte-identical fixtures.  All randomness comes from
``random.Random(seed)`` (the stdlib Mersenne Twister), seeded with a 64-bit
integer, so fixtures never drift across runs.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Callable

from .core import Branch, CostVector, Leaf, ProductDistribution, tree_leaf_paths
from .problems import KnapsackInstance, ThresholdSet, disjunction_formula
from .utility import CdnfFormula, LinearSystem, ThresholdFormula, TruthTable, decision_tree_to_cdnf

FORMAT = "sbfe-1"
CDNF_MAX_CLAUSES = CDNF_MAX_TERMS = 4  # the caps of a generated CNF/DNF pair


class InstanceFormatError(ValueError):
    """A file or payload does not follow the sbfe-1 schema."""


@dataclass(frozen=True)
class Instance:
    """A problem description bundled with its probabilities and costs."""

    id: str
    kind: str
    f: object
    dist: ProductDistribution
    costs: tuple

    @property
    def n(self) -> int:
        return self.f.arity


# ---------------------------------------------------------------------------
# serialization


def _int(v, field: str) -> int:
    """An integer field's value; JSON booleans and non-integral numbers are
    refused rather than truncated."""
    if isinstance(v, float) and v.is_integer():
        return int(v)
    if isinstance(v, bool) or not isinstance(v, int):
        raise InstanceFormatError(f"{field} must be an integer, got {v!r}")
    return v


def _ints(values, field: str) -> tuple:
    return tuple(_int(v, field) for v in values)


def _numbers(values, field: str) -> list:
    """A list of JSON numbers: booleans and strings are refused, not converted."""
    if not isinstance(values, list) or any(type(v) not in (int, float) for v in values):
        raise InstanceFormatError(f"{field} must be a list of numbers, got {values!r}")
    return values


def _ident(v) -> str:
    """The ``id`` field: a string that fits in one CSV cell as it is, so
    it holds no comma, double quote, CR or LF."""
    if not isinstance(v, str):
        raise InstanceFormatError(f"id must be a string, got {v!r}")
    if any(ch in v for ch in ',"\r\n'):
        raise InstanceFormatError(f"id must not hold a comma, quote or line break, got {v!r}")
    return v


def _threshold_fields(f: ThresholdFormula) -> dict:
    return {"coefficients": list(f.coeffs), "theta": f.theta}


def _threshold_from(data: dict) -> ThresholdFormula:
    return ThresholdFormula(
        _ints(data["coefficients"], "coefficients"), _int(data["theta"], "theta")
    )


def instance_to_dict(inst: Instance) -> dict:
    out = {
        "format": FORMAT,
        "id": inst.id,
        "kind": inst.kind,
        "n": inst.n,
        "p": list(inst.dist.p),
        "c": list(inst.costs),
    }
    out.update(_kind(inst.kind).encode(inst.f))
    return out


def instance_from_dict(data: dict) -> Instance:
    if not isinstance(data, dict):
        raise InstanceFormatError("instance payload must be a JSON object")
    if data.get("format") != FORMAT:
        raise InstanceFormatError(f"expected format {FORMAT!r}, got {data.get('format')!r}")
    try:
        kind = data["kind"]
        row = _kind(kind)
        n = _int(data["n"], "n")
        ident = _ident(data.get("id", f"{kind}-n{n}"))
        dist = ProductDistribution(_numbers(data["p"], "p"), "sssc" if row.covering else "sbfe")
        costs = CostVector(_numbers(data["c"], "c")).c
        # n is held to the lengths of p and c before a formula of arity n is
        # built, so a huge n fails here instead of exhausting memory.
        if not len(dist.p) == len(costs) == n:
            raise InstanceFormatError(
                f"n is {n} but p has {len(dist.p)} and c {len(costs)} entries"
            )
        f = row.decode(data, n)
    except InstanceFormatError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InstanceFormatError(f"bad instance payload: {exc}") from exc
    if f.arity != n:
        raise InstanceFormatError("declared n disagrees with the formula arity")
    if row.members and "m" in data and _int(data["m"], "m") != f.m:
        raise InstanceFormatError(f"declared m disagrees with the number of {row.members}")
    # every policy cost and the optimum are at most the total
    if not math.isfinite(sum(costs)):
        raise InstanceFormatError("c must have a finite total")
    if row.covering and costs != f.weights:
        raise InstanceFormatError("c must equal the weights: a covering test costs its weight")
    if row.covering and any(v != 1.0 for v in dist.p):
        raise InstanceFormatError("p must be all ones: every covering test succeeds")
    return Instance(ident, kind, f, dist, costs)


def dumps(inst: Instance) -> str:
    return json.dumps(instance_to_dict(inst), indent=2, sort_keys=True) + "\n"


def loads(text: str) -> Instance:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"not valid JSON: {exc}") from exc
    return instance_from_dict(data)


def save(inst: Instance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(inst))


def load(path) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


# ---------------------------------------------------------------------------
# generators


def gen_probabilities(rng: random.Random, n: int) -> tuple:
    return tuple(rng.uniform(0.1, 0.9) for _ in range(n))


def gen_costs(rng: random.Random, n: int) -> tuple:
    return tuple(float(rng.randint(1, 5)) for _ in range(n))


def gen_threshold(rng: random.Random, n: int, max_coeff: int = 5) -> ThresholdFormula:
    """Nonzero coefficients in [-max_coeff, max_coeff]; theta chosen so the
    formula is never constant."""
    coeffs = tuple(rng.choice((-1, 1)) * rng.randint(1, max_coeff) for _ in range(n))
    neg = sum(a for a in coeffs if a < 0)
    pos = sum(a for a in coeffs if a > 0)
    theta = rng.randint(neg + 1, pos)
    return ThresholdFormula(coeffs, theta)


def _random_tree(rng: random.Random, avail: list, budget: int):
    if budget == 0 or not avail or rng.random() < 0.3:
        return Leaf(rng.randrange(2))
    i = rng.choice(avail)
    rest = [j for j in avail if j != i]
    return Branch(i, _random_tree(rng, rest, budget - 1), _random_tree(rng, rest, budget - 1))


def gen_cdnf(rng: random.Random, n: int) -> CdnfFormula:
    """Consistent CNF/DNF pair obtained from a random decision tree (its
    0-paths and 1-paths), with at most CDNF_MAX_CLAUSES clauses and
    CDNF_MAX_TERMS terms.  A tree whose leaves all carry one label is
    skipped."""
    for _ in range(1000):
        tree = _random_tree(rng, list(range(n)), rng.randint(1, 3))
        if len({label for _, label in tree_leaf_paths(tree)}) < 2:
            continue
        f = decision_tree_to_cdnf(tree, n)
        if f.k <= CDNF_MAX_CLAUSES and f.d <= CDNF_MAX_TERMS:
            return f
    raise RuntimeError("could not generate a CDNF within the caps")


def gen_truth_table(rng: random.Random, n: int) -> TruthTable:
    if n > 12:
        raise InstanceFormatError("truth tables limited to n <= 12")
    while True:
        table = tuple(rng.randrange(2) for _ in range(1 << n))
        if 0 < sum(table) < len(table):
            return TruthTable(n, table)


def gen_linear_system(
    rng: random.Random, m: int, n: int, duplicate_prob: float = 0.0
) -> LinearSystem:
    rows = []
    for j in range(m):
        if rows and rng.random() < duplicate_prob:
            rows.append(rng.choice(rows))
        else:
            rows.append(tuple(rng.randint(-3, 3) for _ in range(n)))
    return LinearSystem(tuple(rows))


def _ranked(system: LinearSystem) -> LinearSystem:
    """``system``, which must have the two functions a ranking compares."""
    if system.m < 2:
        raise InstanceFormatError(f"a linear system needs at least two functions, got {system.m}")
    return system


def gen_threshold_set(rng: random.Random, m: int, n: int) -> ThresholdSet:
    return ThresholdSet(tuple(gen_threshold(rng, n, max_coeff=3) for _ in range(m)))


def gen_knapsack(rng: random.Random, n: int) -> KnapsackInstance:
    values = tuple(rng.randint(0, 8) for _ in range(n))
    weights = tuple(float(rng.randint(1, 5)) for _ in range(n))
    theta = rng.randint(0, sum(values))
    return KnapsackInstance(values, weights, theta)


@dataclass(frozen=True)
class _Kind:
    """What the file format and the generator know about one instance kind.

    ``encode(f)`` gives the kind's own file fields, ``decode(data, n)``
    rebuilds the formula from them, and ``generate(rng, n, m)`` draws one.
    ``members`` names the field listing a set kind's formulas or functions:
    their count m goes into generated ids, and a file that declares ``m``
    must declare that count.  A ``covering`` kind (min-knapsack) is pure
    covering: every test succeeds, so p is all ones in "sssc" mode and the
    costs are the item weights.
    """

    encode: Callable
    decode: Callable
    generate: Callable
    members: str = ""
    covering: bool = False


_TABLE = {
    "threshold": _Kind(
        encode=_threshold_fields,
        decode=lambda data, n: _threshold_from(data),
        generate=lambda rng, n, m: gen_threshold(rng, n),
    ),
    "thresholds": _Kind(
        encode=lambda f: {"m": f.m, "formulas": [_threshold_fields(sub) for sub in f.formulas]},
        decode=lambda data, n: ThresholdSet(tuple(map(_threshold_from, data["formulas"]))),
        generate=lambda rng, n, m: gen_threshold_set(rng, m, n),
        members="formulas",
    ),
    "cdnf": _Kind(
        encode=lambda f: {
            "clauses": list(map(sorted, f.clauses)), "terms": list(map(sorted, f.terms))
        },
        decode=lambda data, n: CdnfFormula(
            n,
            tuple(frozenset(_ints(cl, "clauses")) for cl in data["clauses"]),
            tuple(frozenset(_ints(t, "terms")) for t in data["terms"]),
        ),
        generate=lambda rng, n, m: gen_cdnf(rng, n),
    ),
    "truthtable": _Kind(
        encode=lambda f: {"table": list(f.table)},
        decode=lambda data, n: TruthTable(n, _ints(data["table"], "table")),
        generate=lambda rng, n, m: gen_truth_table(rng, n),
    ),
    "linear-system": _Kind(
        encode=lambda f: {"m": f.m, "functions": [list(row) for row in f.coeffs]},
        decode=lambda data, n: _ranked(
            LinearSystem(tuple(_ints(row, "functions") for row in data["functions"]))
        ),
        generate=lambda rng, n, m: _ranked(gen_linear_system(rng, m, n, duplicate_prob=0.15)),
        members="functions",
    ),
    "knapsack": _Kind(
        encode=lambda f: {
            "values": list(f.values), "weights": list(f.weights), "theta": f.threshold
        },
        decode=lambda data, n: KnapsackInstance(
            _ints(data["values"], "values"), _numbers(data["weights"], "weights"),
            _int(data["theta"], "theta"),
        ),
        generate=lambda rng, n, m: gen_knapsack(rng, n),
        covering=True,
    ),
    "disjunction": _Kind(
        encode=lambda f: {},  # fully described by n, p, c
        decode=lambda data, n: disjunction_formula(n),
        generate=lambda rng, n, m: disjunction_formula(n),
    ),
}
KINDS = tuple(_TABLE)


def _kind(kind: str) -> _Kind:
    try:
        return _TABLE[kind]
    except (KeyError, TypeError):
        raise InstanceFormatError(f"unknown kind {kind!r}; expected one of {KINDS}") from None


def _instance(ident: str, kind: str, f, rng: random.Random) -> Instance:
    """Bundle ``f`` with probabilities and costs drawn from ``rng`` after it.
    A covering kind draws nothing: every test succeeds and costs its weight."""
    n = f.arity
    if _TABLE[kind].covering:
        return Instance(ident, kind, f, ProductDistribution.certain_ones(n), f.weights)
    dist = ProductDistribution(gen_probabilities(rng, n))
    return Instance(ident, kind, f, dist, gen_costs(rng, n))


def generate_instance(kind: str, n: int, seed: int, *, m: int = 2) -> Instance:
    """One self-contained instance for the CLI; deterministic in (spec, seed)."""
    if n < 1:
        raise InstanceFormatError("n must be at least 1")
    if m < 1:
        raise InstanceFormatError("m must be at least 1")
    row = _kind(kind)
    rng = random.Random(seed)
    ident = f"{kind}-m{m}-n{n}-s{seed}" if row.members else f"{kind}-n{n}-s{seed}"
    return _instance(ident, kind, row.generate(rng, n, m), rng)


# ---------------------------------------------------------------------------
# seeded batteries


def _sizes(count: int, lo: int, hi: int, rng: random.Random) -> list:
    """Mixed sizes biased small but always touching the top of the range."""
    sizes = [lo + i % (hi - lo + 1) for i in range(count)]
    rng.shuffle(sizes)
    if hi not in sizes:
        sizes[0] = hi
    return sizes


def _battery(kind: str, make, count: int, seed: int, n_lo: int, n_hi: int) -> list:
    """``count`` seeded instances of one kind: ``make(rng, n)`` draws each
    formula, then its probabilities and costs come from the same stream."""
    rng = random.Random(seed)
    return [
        _instance(f"{kind}-{seed}-{idx:03d}", kind, make(rng, n), rng)
        for idx, n in enumerate(_sizes(count, n_lo, n_hi, rng))
    ]


def threshold_battery(count: int, seed: int, n_lo: int = 3, n_hi: int = 10) -> list:
    return _battery("threshold", gen_threshold, count, seed, n_lo, n_hi)


def cdnf_battery(count: int, seed: int, n_lo: int = 3, n_hi: int = 10) -> list:
    return _battery("cdnf", gen_cdnf, count, seed, n_lo, n_hi)


def disjunction_battery(count: int, seed: int, n_lo: int = 2, n_hi: int = 10) -> list:
    return _battery("disjunction", lambda rng, n: disjunction_formula(n), count, seed, n_lo, n_hi)


def threshold_set_battery(
    count: int, seed: int, m_hi: int = 3, n_lo: int = 4, n_hi: int = 10
) -> list:
    make = lambda rng, n: gen_threshold_set(rng, rng.randint(1, m_hi), n)
    return _battery("thresholds", make, count, seed, n_lo, n_hi)


def truth_table_battery(count: int, seed: int, n_lo: int = 2, n_hi: int = 6) -> list:
    return _battery("truthtable", gen_truth_table, count, seed, n_lo, n_hi)


def knapsack_battery(count: int, seed: int, n_lo: int = 3, n_hi: int = 15) -> list:
    return _battery("knapsack", gen_knapsack, count, seed, n_lo, n_hi)


def linear_system_battery(
    count: int, seed: int, m_hi: int = 4, n_lo: int = 2, n_hi: int = 8
) -> list:
    make = lambda rng, n: gen_linear_system(rng, rng.randint(2, m_hi), n, duplicate_prob=0.25)
    return _battery("linear-system", make, count, seed, n_lo, n_hi)
