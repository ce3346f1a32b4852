"""Independent oracles shared by the test modules, and the tree and
partial-assignment tools that only tests use.

Everything here deliberately avoids the code paths it is used to check:
expected costs come from per-input simulation instead of tree recursion,
certificates from extension enumeration instead of formula shortcuts, and
extrema from brute force instead of the closed forms.
"""
from __future__ import annotations

import dataclasses
import itertools
import random

from sbfe.core import (
    STAR,
    Branch,
    InvalidUtilityError,
    Leaf,
    LimitError,
    PolicyError,
    all_assignments,
    all_partials,
    as_costs,
    as_probabilities,
    RunTrace,
    certificate_table,
    extend,
    stars,
    to_string,
    walk_policy,
)
from sbfe.instances import gen_cdnf, gen_linear_system, gen_threshold, gen_truth_table
from sbfe.policies import EPS, DualGreedyPolicy, policy_runs
from sbfe.problems import ThresholdSet
from sbfe.utility import (
    MAX_GOAL,
    CdnfFormula,
    LinearSystem,
    ThresholdFormula,
    TruthTable,
    UtilityFunction,
    _restricted_extrema,
    cdnf_utility,
    gains_at,
    ranking_pair_utility,
    threshold_utility,
    truth_table_utility,
)
from sbfe.verify import DUAL_EPS, DUAL_MAX_N, CheckReport, DualCertificate


# ---------------------------------------------------------------------------
# partial assignments and runs


def clear(b, i: int):
    """Copy of b with position i reset to untested."""
    return b[:i] + (STAR,) + b[i + 1 :]


def extensions(b):
    """All full assignments extending b."""
    star_pos = [i for i, v in enumerate(b) if v == STAR]
    base = list(b)
    for pattern in itertools.product((0, 1), repeat=len(star_pos)):
        for i, v in zip(star_pos, pattern):
            base[i] = v
        yield tuple(base)


def prob_of(b, d) -> float:
    """Probability mass of the event "outcomes agree with b"; empty product is 1."""
    p = as_probabilities(d)
    if len(p) != len(b):
        raise ValueError("arity mismatch between assignment and distribution")
    out = 1.0
    for v, pi in zip(b, p):
        if v == 1:
            out *= pi
        elif v == 0:
            out *= 1.0 - pi
    return out


def trace_prefixes(trace: RunTrace, n: int) -> tuple:
    """Partial assignments after 0, 1, ..., T tests of a run."""
    out = [stars(n)]
    b = out[0]
    for i, v in zip(trace.tested, trace.outcomes):
        b = extend(b, i, v)
        out.append(b)
    return tuple(out)


def step_from_fn(fn):
    """A ``step`` for a utility given by ``fn`` alone: ``fn`` at each
    one-test extension, and g(b) at a tested position."""

    def step(b):
        here = fn(b)
        return tuple(
            tuple(fn(b[:j] + (l,) + b[j + 1 :]) if v == STAR else here for j, v in enumerate(b))
            for l in (0, 1)
        )

    return step


def utility_from_fn(n: int, goal: int, fn) -> UtilityFunction:
    """A hand-built utility whose step comes from `step_from_fn`."""
    return UtilityFunction(n, goal, fn, step_from_fn(fn))


def goal_zero_utility(n: int) -> UtilityFunction:
    """The utility of a constant function: goal 0, covered from the start."""
    return utility_from_fn(n, 0, lambda b: 0)


def step_off_by_one(g: UtilityFunction, untested: int) -> UtilityFunction:
    """``g`` with its ``step`` one too high in every entry at each state
    with ``untested`` untested positions, and its ``fn`` intact: a fault
    that only a check reading ``step`` can see."""

    def step(b):
        zero, one = g.step(b)
        if b.count(STAR) == untested:
            return tuple(v + 1 for v in zero), tuple(v + 1 for v in one)
        return zero, one

    return dataclasses.replace(g, step=step)


def _combined_step(gs, combine):
    """Step of a utility built from the parts ``gs``: ``combine`` turns the
    list of the parts' value vectors into the utility's, for the
    0-extensions and the 1-extensions alike."""
    steps = [g.step for g in gs]

    def step(b):
        parts = [s(b) for s in steps]
        return combine([zero for zero, _ in parts]), combine([one for _, one in parts])

    return step


def _add(vectors) -> tuple:
    return tuple(map(sum, zip(*vectors)))


def combine_or(g0: UtilityFunction, g1: UtilityFunction) -> UtilityFunction:
    """Utility covered as soon as either input is covered, the reference
    for the disjunctive combinations the constructions compute in one pass.

    Value Q0*Q1 - (Q0 - g0(b))(Q1 - g1(b)); preserves monotonicity and
    submodularity and keeps the all-untested value at 0.
    """
    if g0.arity != g1.arity:
        raise ValueError("combine_or needs equal arities")
    q0, q1 = g0.goal, g1.goal
    goal = q0 * q1
    if goal > MAX_GOAL:
        raise LimitError(f"combined goal {goal} exceeds {MAX_GOAL}")
    f0, f1 = g0.fn, g1.fn
    return UtilityFunction(
        g0.arity,
        goal,
        lambda b: goal - (q0 - f0(b)) * (q1 - f1(b)),
        _combined_step(
            (g0, g1), lambda vs: tuple([goal - (q0 - v0) * (q1 - v1) for v0, v1 in zip(*vs)])
        ),
    )


def combine_and_all(gs) -> UtilityFunction:
    """Utility covered only when every input is covered: pointwise sum.  The
    reference for the row sums of `ThresholdSet.utility` and
    `ranking_utility`."""
    gs = list(gs)
    if not gs:
        raise ValueError("need at least one utility")
    n = gs[0].arity
    if any(g.arity != n for g in gs):
        raise ValueError("combine_and_all needs equal arities")
    goal = sum(g.goal for g in gs)
    if goal > MAX_GOAL:
        raise LimitError(f"combined goal {goal} exceeds {MAX_GOAL}")
    fns = [g.fn for g in gs]
    return UtilityFunction(
        n,
        goal,
        lambda b: sum(fn(b) for fn in fns),
        _combined_step(gs, _add),
    )


def reference_run(policy, outcomes, n: int, cc: tuple) -> tuple:
    """One run as a plain loop, the reference for the runs `core.walk_policy`
    makes for `policies.policy_runs`; returns (tested, outcomes, cost, final
    state) with the validated costs ``cc``."""
    outcomes = tuple(outcomes)
    b = stars(n)
    state = policy.initial_state()
    tested = []
    outs = []
    cost = 0.0
    while True:
        i = policy.next_test(b, state)
        if i is None:
            break
        if not 0 <= i < n or b[i] != STAR:
            raise PolicyError(f"illegal test {i} at {to_string(b)}")
        v = outcomes[i]
        if v not in (0, 1):
            raise ValueError(f"outcome {v!r} for test {i} is not a bit")
        state = policy.advance(b, state, i)[v]
        b = extend(b, i, v)
        tested.append(i)
        outs.append(v)
        cost += cc[i]
    return tuple(tested), tuple(outs), cost, state


def run_on(policy, x) -> RunTrace:
    """The `RunTrace` of a greedy or dual-greedy ``policy`` on the one
    input x, from `policies.policy_runs` with the policy's own costs."""
    return policy_runs(policy, [tuple(x)], policy.g.arity, policy.c)[0]


def enumeration_expected_cost(policy, d, c, n: int) -> float:
    """Simulate the policy on every input and weight by that input's mass."""
    cc = as_costs(c)
    total = 0.0
    for x in all_assignments(n):
        total += prob_of(x, d) * reference_run(policy, x, n, cc)[2]
    return total


def linear_values(sys, x) -> list:
    """Each function of a linear system at the full assignment x."""
    return [sum(a * v for a, v in zip(row, x)) for row in sys.coeffs]


def evaluate(f, x):
    """f's output at the full assignment x, read from the kind's raw fields
    and from no table the package builds: a threshold's coefficients and
    theta, each member of a threshold set, the signed literals of a CNF/DNF
    pair's terms (contradictory terms skipped), a truth table's entry at
    sum(x_i << i), and for a linear system (f_i(x) <= f_j(x), f_i(x) >=
    f_j(x)) for each pair i < j, from its row sums."""
    if isinstance(f, ThresholdFormula):
        return int(sum(a * v for a, v in zip(f.coeffs, x)) >= f.theta)
    if isinstance(f, ThresholdSet):
        return tuple(evaluate(member, x) for member in f.formulas)
    if isinstance(f, CdnfFormula):
        holds = lambda lit: x[abs(lit) - 1] == (lit > 0)
        terms = (t for t in f.terms if not any(-lit in t for lit in t))
        return int(any(all(map(holds, t)) for t in terms))
    if isinstance(f, TruthTable):
        return f.table[sum(v << i for i, v in enumerate(x))]
    if isinstance(f, LinearSystem):
        values = linear_values(f, x)
        return tuple(
            (vi <= vj, vi >= vj) for i, vi in enumerate(values) for vj in values[i + 1 :]
        )
    raise TypeError(f"no reference evaluation for {type(f).__name__}")


def brute_certificate(f, b):
    """Forced output of f on every extension of b, scanning all of them."""
    values = {evaluate(f, x) for x in extensions(b)}
    return values.pop() if len(values) == 1 else None


def reference_threshold_utility(f):
    """`threshold_utility` as first written, the reference for its one-pass
    ``fn``: the `combine_or` of a side for the guaranteed minimum and a side
    for the achievable maximum, each from its own restricted extremum, a
    side already full at the root having goal 0.  Its step calls ``fn``
    (`step_from_fn`)."""
    q1 = max(0, -f.r_min)
    q0 = max(0, f.r_max + 1)
    r_min, r_max = f.r_min, f.r_max
    theta = f.theta
    g1 = utility_from_fn(
        f.arity, q1, lambda b: min(q1, _restricted_extrema(f.coeffs, b)[0] - theta - r_min)
    )
    g0 = utility_from_fn(
        f.arity, q0, lambda b: min(q0, r_max - (_restricted_extrema(f.coeffs, b)[1] - theta))
    )
    return combine_or(g1, g0)


def reference_ranking_pair_utility(sys, i, j):
    """`ranking_pair_utility` as first written, the reference for its
    one-pass ``fn``: a side for f_i - f_j forced <= 0 and a side for it
    forced >= 0, a vacuous side having goal 0, `combine_or`-ed.  Its step
    calls ``fn`` (`step_from_fn`)."""
    if not i < j:
        raise ValueError("require i < j")
    delta = sys.diff(i, j)
    r_lo = sum(a for a in delta if a < 0)
    r_hi = sum(a for a in delta if a > 0)
    n = sys.arity
    g_le = utility_from_fn(n, r_hi, lambda b: min(r_hi, r_hi - _restricted_extrema(delta, b)[1]))
    g_ge = utility_from_fn(n, -r_lo, lambda b: min(-r_lo, _restricted_extrema(delta, b)[0] - r_lo))
    return combine_or(g_le, g_ge)


def reference_truth_table_utility(f):
    """`truth_table_utility` as first written, the reference for its
    one-pass ``fn``: the `combine_or` of the 1-rows and the 0-rows ruled
    out, each side counting the completions of b with its value.  Its
    step calls ``fn`` (`step_from_fn`)."""
    ones = sum(f.table)
    zeros = len(f.table) - ones

    def count(b, value):
        # a completion's index is the tested-1 bits plus a subset of the
        # untested ones, so the indices double with each untested bit
        indices = [sum(1 << i for i, v in enumerate(b) if v == 1)]
        for i, v in enumerate(b):
            if v == STAR:
                indices += [k + (1 << i) for k in indices]
        ones = sum(map(f.table.__getitem__, indices))
        return ones if value else len(indices) - ones

    g1 = utility_from_fn(f.arity, ones, lambda b: ones - count(b, 1))
    g0 = utility_from_fn(f.arity, zeros, lambda b: zeros - count(b, 0))
    return combine_or(g1, g0)


def reference_check_axioms_random(g, trials, seed):
    """The random mode of `check_axioms` written plainly, the reference for
    its step records: the same draws in the same order, ``fn`` for every
    value, `extend` for every child, and ``step`` read only where it is
    checked against ``fn``."""
    n = g.arity
    rng = random.Random(seed)
    checked = 0
    while n and checked < trials:
        r = rng.randrange(3**n)
        bp = tuple((r // 3**i) % 3 for i in range(n))  # (0, 1, STAR) by digit
        mask = rng.getrandbits(n)
        b = bp
        for i in range(n):
            if mask >> i & 1 and bp[i] != STAR:
                b = clear(b, i)
        vb, vbp = g.fn(b), g.fn(bp)
        for i in range(n):
            for l in (0, 1):
                if bp[i] != STAR and g.step(bp)[l][i] != vbp:
                    return CheckReport(False, checked, (bp,), "step disagrees with fn")
        free = [i for i in range(n) if b[i] == STAR]
        if free:
            k = rng.randrange(2 * len(free))
            i, l = free[k // 2], k % 2
            checked += 1
            if g.step(b)[l][i] != g.fn(extend(b, i, l)):
                return CheckReport(False, checked, (b,), "step disagrees with fn")
        for i in range(n):
            if bp[i] != STAR:
                continue
            for l in (0, 1):
                checked += 1
                early = g.fn(extend(b, i, l)) - vb
                late = g.fn(extend(bp, i, l)) - vbp
                if late < 0 or early < 0:
                    return CheckReport(False, checked, (b, bp, i, l), "monotonicity violated")
                if early < late:
                    return CheckReport(False, checked, (b, bp, i, l), "submodularity violated")
    return CheckReport(True, checked)


def axiom_utilities(rng: random.Random, n: int):
    """(name, utility) for each of the six constructions whose axioms the
    acceptance suite checks, drawn from ``rng`` in a fixed order."""
    yield "cdnf", cdnf_utility(gen_cdnf(rng, n))
    yield "threshold", threshold_utility(gen_threshold(rng, n))
    yield "truthtable", truth_table_utility(gen_truth_table(rng, n))
    yield "ranking-pair", ranking_pair_utility(gen_linear_system(rng, 2, n), 0, 1)
    g0 = threshold_utility(gen_threshold(rng, n))
    g1 = cdnf_utility(gen_cdnf(rng, n))
    yield "combine-or", combine_or(g0, g1)
    yield "combine-and", combine_and_all([g0, g1])


def reference_check_axioms_exhaustive(g):
    """The exhaustive mode of `check_axioms` as first written, the reference
    for the one-step test: every state b' against every b made by clearing
    a nonempty subset of its tested positions, after a first pass that
    checks monotonicity and the step at every state."""
    n = g.arity
    val = {b: g.fn(b) for b in all_partials(n)}
    checked = 0
    for b in val:
        vb = val[b]
        ext = ([vb] * n, [vb] * n)
        for i in range(n):
            if b[i] != STAR:
                continue
            for l in (0, 1):
                checked += 1
                ext[l][i] = val[extend(b, i, l)]
                if ext[l][i] < vb:
                    return CheckReport(False, checked, (b, b, i, l), "monotonicity violated")
        if g.step(b) != (tuple(ext[0]), tuple(ext[1])):
            return CheckReport(False, checked, (b,), "step disagrees with fn")
    for bp in val:  # bp is the later (more tested) state
        tested = [i for i, v in enumerate(bp) if v != STAR]
        untested = [i for i, v in enumerate(bp) if v == STAR]
        vbp = val[bp]
        for r in range(1, len(tested) + 1):
            for drop in itertools.combinations(tested, r):
                b = bp
                for i in drop:
                    b = clear(b, i)
                vb = val[b]
                for i in untested:
                    for l in (0, 1):
                        checked += 1
                        early = val[extend(b, i, l)] - vb
                        late = val[extend(bp, i, l)] - vbp
                        if early < late:
                            return CheckReport(
                                False, checked, (b, bp, i, l), "submodularity violated"
                            )
    return CheckReport(True, checked)


def reference_cdnf_agreement(arity, clauses, terms):
    """The CNF/DNF agreement check of `CdnfFormula` as first written, the
    reference for its bit planes: evaluate both forms at every assignment
    in `all_assignments` order and raise the same ``ValueError`` at the
    first one where they differ."""

    def holds(lit, x):
        return x[abs(lit) - 1] == (1 if lit > 0 else 0)

    for x in all_assignments(arity):
        cnf = int(all(any(holds(l, x) for l in cl) for cl in clauses))
        dnf = int(any(all(holds(l, x) for l in t) for t in terms))
        if cnf != dnf:
            raise ValueError(f"CNF and DNF disagree at {x}; not the same function")


def reference_cdnf_utility(f):
    """`cdnf_utility` written from the literals, the reference for the
    `_hits` tables its ``fn`` and ``step`` share: count the clauses with a
    literal b makes true and the terms with a literal b makes false, over
    the clauses that are not tautologies and the terms that are not
    contradictions, `combine_or`-ed.  Its step calls ``fn``
    (`step_from_fn`)."""

    def holds(lit, b):
        v = b[abs(lit) - 1]
        return v != STAR and v == (1 if lit > 0 else 0)

    clauses = [cl for cl in f.clauses if not any(-l in cl for l in cl)]
    terms = [t for t in f.terms if not any(-l in t for l in t)]
    n = f.arity
    g1 = utility_from_fn(
        n, len(clauses), lambda b: sum(any(holds(l, b) for l in cl) for cl in clauses)
    )
    g0 = utility_from_fn(
        n, len(terms), lambda b: sum(any(holds(-l, b) for l in t) for t in terms)
    )
    return combine_or(g1, g0)


def gen_cdnf_with_tautologies(rng: random.Random, n: int) -> CdnfFormula:
    """`gen_cdnf` with one to three tautological clauses and one to three
    contradictory terms inserted at random places: the same function, with
    clauses and terms that decide nothing."""
    f = gen_cdnf(rng, n)
    clauses, terms = list(f.clauses), list(f.terms)
    for group in (clauses, terms):
        for _ in range(rng.randint(1, 3)):
            i = rng.randint(1, n)
            extra = {rng.choice((-1, 1)) * rng.randint(1, n) for _ in range(rng.randint(0, 2))}
            group.insert(rng.randint(0, len(group)), frozenset({i, -i} | extra))
    return CdnfFormula(n, tuple(clauses), tuple(terms))


def reference_extract_ranking(sys, b):
    """`_extract_ranking` as first written, the reference for its sort:
    repeatedly emit a function known <= every remaining one, with those
    known equal to it as its class, and when none is known collapse a cycle
    of blocking witnesses into one class.  On a state with some pair
    undecided it still returns an order."""
    m = sys.m
    le = [[i == j or sys.known_order(i, j, b)[0] for j in range(m)] for i in range(m)]
    members = {i: [i] for i in range(m)}
    remaining = list(range(m))
    classes = []
    while remaining:
        emit = None
        for i in remaining:
            if all(le[i][j] for j in remaining if j != i):
                emit = i
                break
        if emit is not None:
            group = [emit] + [j for j in remaining if j != emit and le[j][emit]]
            cls = []
            for i in group:
                cls.extend(members.pop(i))
                remaining.remove(i)
            classes.append(tuple(sorted(cls)))
            continue
        pos = {}
        path = []
        cur = remaining[0]
        while cur not in pos:
            pos[cur] = len(path)
            path.append(cur)
            cur = next(j for j in remaining if j != cur and not le[cur][j])
        cycle = path[pos[cur] :]
        rep = min(cycle)
        for other in cycle:
            if other == rep:
                continue
            members[rep].extend(members.pop(other))
            remaining.remove(other)
            for k in range(m):
                le[rep][k] = le[rep][k] or le[other][k]
                le[k][rep] = le[k][rep] or le[k][other]
    permutation = tuple(i for cls in classes for i in cls)
    return permutation, tuple(classes)


def reference_gains_at(g, b):
    """`gains_at` as first written, the reference for the one-pass
    ``step`` of a utility: g.fn at b and at each one-test extension, 2n + 1
    calls, with the same monotonicity check and message.  The record is
    the same (g(b), zero, one), a tested position carrying g(b) in both."""
    base = g.fn(b)
    if base >= g.goal:
        return base, None, None
    zero = [base] * len(b)
    one = [base] * len(b)
    for j, v in enumerate(b):
        if v == STAR:
            one[j] = g.fn(extend(b, j, 1))
            zero[j] = g.fn(extend(b, j, 0))
            if one[j] < base or zero[j] < base:
                raise InvalidUtilityError(f"monotonicity violated at {to_string(b)}, position {j}")
    return base, tuple(zero), tuple(one)


def reference_flag_planes(f) -> tuple:
    """The flag planes as first written, the reference for each kind's
    `flag_planes`: one `evaluate` per full assignment in `all_assignments`
    order, its label encoded as the field 1 << v of a Boolean output, one
    such field per member of a threshold set, or le | ge << 1 per pair of a
    ranking, and the fields transposed into one plane each."""

    def fields(x):
        label = evaluate(f, x)
        if not isinstance(label, tuple):
            return (1 << label,)
        return tuple(v[0] | v[1] << 1 if isinstance(v, tuple) else 1 << v for v in label)

    return tuple(bytes(column) for column in zip(*map(fields, all_assignments(f.arity))))


def reference_certificate_table(f) -> bytes:
    """The certified mask as first written, the reference for the
    whole-plane `certificate_table`: the planes widen one position at a
    time, last to first, with one bitwise AND per slice of the table, 2^n - 1
    ANDs per plane in all, and every plane is kept until the mask is made."""
    n = f.arity
    size = 3**n
    planes = []
    # After k rounds the last k positions are ternary and the rest still
    # binary: an index is the binary prefix times 3^k plus the ternary
    # suffix, position 0 most significant in both.
    for plane in reference_flag_planes(f):
        width = 1
        for _ in range(n):
            view = memoryview(plane)
            widened = bytearray()
            for lo in range(0, len(plane), 2 * width):
                zero = view[lo : lo + width]
                one = view[lo + width : lo + 2 * width]
                star = int.from_bytes(zero, "little") & int.from_bytes(one, "little")
                widened += zero
                widened += one
                widened += star.to_bytes(width, "little")
            plane = bytes(widened)
            width *= 3
        planes.append(plane)
    nonzero_to_one = bytes([0]) + bytes([1]) * 255
    mask = int.from_bytes(bytes([1]) * size, "little")
    for plane in planes:
        mask &= int.from_bytes(plane.translate(nonzero_to_one), "little")
    return mask.to_bytes(size, "little")


def reference_optimum(f, d, c):
    """The exhaustive optimum as first written, the reference for the
    table-driven `optimal_expected_cost`: a memoized recursion over tuples
    that asks `f.certificate` at every state it visits."""
    n = f.arity
    p = as_probabilities(d)
    cc = as_costs(c)
    memo = {}  # b -> value

    def solve(b):
        hit = memo.get(b)
        if hit is not None:
            return hit
        if f.certificate(b) is not None:
            memo[b] = 0.0
            return 0.0
        best = None
        for i in range(n):
            if b[i] != STAR:
                continue
            v = cc[i] + p[i] * solve(extend(b, i, 1)) + (1.0 - p[i]) * solve(extend(b, i, 0))
            if best is None or v < best:
                best = v
        memo[b] = best
        return best

    return solve(stars(n))


def relevant_positions(f) -> list:
    """The positions f depends on: i such that flipping x_i changes
    `evaluate(f, x)` at some full assignment x, by enumeration."""
    labels = {x: evaluate(f, x) for x in all_assignments(f.arity)}
    return [
        i
        for i in range(f.arity)
        if any(label != labels[x[:i] + (1 - x[i],) + x[i + 1 :]] for x, label in labels.items())
    ]


def brute_diff_extrema(coeffs, b):
    """(min, max) of sum(coeffs_i * x_i) over extensions of b, by enumeration."""
    vals = [sum(a * v for a, v in zip(coeffs, x)) for x in extensions(b)]
    return min(vals), max(vals)


def conjunction_formula(n: int) -> CdnfFormula:
    """x_1 and ... and x_n as a CNF/DNF pair (n singleton clauses, one term)."""
    clauses = tuple(frozenset((i,)) for i in range(1, n + 1))
    return CdnfFormula(n, clauses, (frozenset(range(1, n + 1)),))


def expected_gain(g, b, i, p, base):
    """p_i * gain(i, 1) + (1 - p_i) * gain(i, 0) at b, from fresh utility
    calls; 0 when i is already tested.  ``base`` is g.fn(b)."""
    if b[i] != STAR:
        return 0.0
    up = g.fn(extend(b, i, 1)) - base
    down = g.fn(extend(b, i, 0)) - base
    if up < 0 or down < 0:
        raise InvalidUtilityError(f"monotonicity violated at {b}, position {i}")
    return p[i] * up + (1.0 - p[i]) * down


def reference_expected_gains(p, record):
    """The expected gain p_j * (one_j - g(b)) + (1 - p_j) * (zero_j - g(b))
    of every position, from the greedy's gain record (g(b), zero, one) at b;
    None at the goal.  The tuple the record kept as its fourth field before
    `_cheapest` computed each gain in its one pass: the reference for that
    pass and for the dual's credit update."""
    base, zero, one = record
    if zero is None:
        return None
    q = tuple([1.0 - pj for pj in p])
    return tuple([pj * (uj - base) + qj * (dj - base) for pj, qj, uj, dj in zip(p, q, one, zero)])


def reference_cheapest(eg, cost):
    """`policies._cheapest` as it was before its one pass, over the
    expected gains ``eg`` (`reference_expected_gains`) and the adjusted
    costs ``cost``: a scan for an adjusted cost below -EPS, then a
    selection with the strict-``<`` lowest-index tie-break."""
    if eg is None:
        return None
    if min(cost) < -EPS:
        for j, e in enumerate(eg):
            if e > 0.0 and cost[j] < -EPS:
                raise InvalidUtilityError(
                    f"dual-adjusted cost of {j} is {cost[j]}; dual feasibility broken"
                )
    best = None
    best_ratio = 0.0
    for j, e in enumerate(eg):
        if e <= 0.0:
            continue
        ratio = cost[j] / e
        if best is None or ratio < best_ratio:
            best = j
            best_ratio = ratio
    if best is None:
        raise InvalidUtilityError(
            "no untested position has positive expected gain but the goal "
            "is not reached; utility is not assignment feasible"
        )
    return best


def reference_dual_advance(pol, b, state, i):
    """`DualGreedyPolicy.advance` in its expected-gain-vector form: y and
    the credit update read the tuple of `reference_expected_gains`."""
    base, zero, one = pol.gains(b)
    eg = reference_expected_gains(pol.p, (base, zero, one))
    ys, credit, _ = state
    y = max(0.0, (pol.c[i] - credit[i]) / eg[i])
    if y != 0.0:
        credit = tuple([cr + y * e for cr, e in zip(credit, eg)])
    ys += (y,)
    return (ys, credit, zero[i]), (ys, credit, one[i])


class ReferenceDualGreedy:
    """The dual greedy as first written, the reference for the incremental
    `DualGreedyPolicy`: state is (ys, prefixes), and every decision
    recomputes each candidate's credit from all earlier prefixes, calling
    the utility again at each of them."""

    def __init__(self, g, d, c):
        self.g = g
        self.p = as_probabilities(d)
        self.c = as_costs(c)

    def initial_state(self):
        return ((), (stars(self.g.arity),))

    def _adjusted(self, state, j):
        ys, prefixes = state
        g = self.g
        credit = 0.0
        for t, y in enumerate(ys):
            if y != 0.0:
                pfx = prefixes[t]
                credit += y * expected_gain(g, pfx, j, self.p, g.fn(pfx))
        num = self.c[j] - credit
        if num < -EPS:
            raise InvalidUtilityError(f"dual-adjusted cost of {j} is {num}")
        return num

    def next_test(self, b, state):
        g = self.g
        base = g.fn(b)
        if base >= g.goal:
            return None
        best = None
        best_ratio = 0.0
        for j in range(g.arity):
            eg = expected_gain(g, b, j, self.p, base)
            if eg <= 0.0:
                continue
            ratio = self._adjusted(state, j) / eg
            if best is None or ratio < best_ratio:
                best = j
                best_ratio = ratio
        if best is None:
            raise InvalidUtilityError("no untested position has positive expected gain")
        return best

    def advance(self, b, state, i):
        ys, prefixes = state
        g = self.g
        y = max(0.0, self._adjusted(state, i) / expected_gain(g, b, i, self.p, g.fn(b)))
        return tuple((ys + (y,), prefixes + (extend(b, i, v),)) for v in (0, 1))


def prefix_ratios(g: UtilityFunction, steps) -> tuple:
    """(t, ratio) for each prefix t of a run, given as (index, outcome) steps,
    that is short of the goal: the utility the steps from t on would each add
    at that prefix, summed, over the utility still missing there.  The
    reference for the running sums of `verify.adg_cost_and_alpha`: each
    prefix is walked again from the root, O(n^2) per run, and its gains are
    the differences of the `gains_at` record there from g(b)."""
    b = stars(g.arity)
    samples = []
    for t, (i, v) in enumerate(steps):
        base, zero, one = gains_at(g, b)
        denom = g.goal - base
        if denom > 0:
            total = sum((one[j] if w else zero[j]) - base for j, w in steps[t:])
            samples.append((t, total / denom))
        b = extend(b, i, v)
    return tuple(samples)


def reference_alpha(g, d, c) -> float:
    """Worst per-prefix ratio of `ReferenceDualGreedy` over its decision
    tree, every gain taken from fresh utility calls."""
    fn = g.fn

    def leaf_alpha(b, state, path):
        worst = 1.0
        pfx = stars(g.arity)
        for t, (i, v) in enumerate(path):
            base = fn(pfx)
            if g.goal > base:
                total = sum(fn(extend(pfx, j, w)) - base for j, w in path[t:])
                worst = max(worst, total / (g.goal - base))
            pfx = extend(pfx, i, v)
        return worst

    return walk_policy(
        ReferenceDualGreedy(g, d, c), g.arity, leaf_alpha, lambda i, lo, hi: max(lo, hi)
    )


def reference_check_dual_feasibility(g, d, c) -> DualCertificate:
    """`check_dual_feasibility` as first written, the reference for its
    one fold: a `RunTrace` and a prefix list for each of the 2^n inputs,
    then every position j against every assignment w of the others, with
    ``slack`` and ``tight`` keyed by w (j starred), and the objective
    identity summed input by input."""
    n = g.arity
    if n > DUAL_MAX_N:
        raise LimitError(f"dual check limited to n <= {DUAL_MAX_N}, got {n}")
    p = as_probabilities(d)
    cc = as_costs(c)

    # One walk of the policy's decision tree covers all 2^n runs: every
    # input consistent with a leaf's outcomes produces that leaf's trace
    # and the dual values y its final state holds.
    pol = DualGreedyPolicy(g, d, cc)
    traces = {}
    duals = {}
    prefix_cache = {}

    def leaf(b, state, path):
        tested = tuple(idx for idx, _ in path)
        outs = tuple(v for _, v in path)
        cost = sum(cc[idx] for idx in tested)
        tr = RunTrace(tested, outs, cost, b)
        prefixes = trace_prefixes(tr, n)
        for a in extensions(b):
            traces[a] = tr
            duals[a] = state[0]
            prefix_cache[a] = prefixes

    walk_policy(pol, n, leaf, lambda i, if0, if1: None)

    records = {}

    def prefix_gain(pfx, j, v):
        if pfx not in records:
            records[pfx] = gains_at(g, pfx)
        base, zero, one = records[pfx]
        return (one[j] if v else zero[j]) - base

    slack = {}
    tight = {}
    violations = []
    for j in range(n):
        for rest in all_assignments(n - 1):
            a1 = rest[:j] + (1,) + rest[j:]
            a0 = rest[:j] + (0,) + rest[j:]
            w = clear(a1, j)
            t1, t0 = traces[a1], traces[a0]
            tested1 = j in t1.tested
            tested0 = j in t0.tested
            if tested1 != tested0:
                violations.append((w, "neighbor property violated"))
                continue
            h = 0.0
            for t, y in enumerate(duals[a1]):
                if y != 0.0:
                    h += p[j] * y * prefix_gain(prefix_cache[a1][t], j, 1)
            for t, y in enumerate(duals[a0]):
                if y != 0.0:
                    h += (1.0 - p[j]) * y * prefix_gain(prefix_cache[a0][t], j, 0)
            s = cc[j] - h
            slack[w] = s
            tight[w] = tested1
            if tested1 and abs(s) > DUAL_EPS:
                violations.append((w, f"tested coordinate not tight: slack {s}"))
            elif not tested1 and s < -DUAL_EPS:
                violations.append((w, f"dual constraint violated: slack {s}"))

    lhs = 0.0
    rhs = 0.0
    for a, tr in traces.items():
        pa = prob_of(a, p)
        lhs += pa * tr.total_cost
        for t, y in enumerate(duals[a]):
            if y == 0.0:
                continue
            pfx = prefix_cache[a][t]
            gain_sum = sum(prefix_gain(pfx, i, v) for i, v in zip(tr.tested, tr.outcomes))
            rhs += pa * y * gain_sum
    return DualCertificate(slack, tight, tuple(violations), abs(lhs - rhs), len(traces))


def or_threshold(n: int, members) -> ThresholdFormula:
    """Disjunction of the given 0-based variables, as a threshold formula."""
    coeffs = [0] * n
    for i in members:
        coeffs[i] = 1
    return ThresholdFormula(tuple(coeffs), 1)


def is_full(b) -> bool:
    return all(v != STAR for v in b)


def restrict(b, keep):
    """Keep only the positions in ``keep``; star out everything else."""
    kept = set(keep)
    return tuple(v if i in kept else STAR for i, v in enumerate(b))


# ---------------------------------------------------------------------------
# policies as explicit decision trees


def policy_tree(policy, n: int, label_fn):
    """Materialize a policy as an explicit decision tree; leaves are labelled
    by ``label_fn`` applied to the final partial assignment."""
    return walk_policy(policy, n, lambda b, state, path: Leaf(label_fn(b)), Branch)


def tree_decide(t, x):
    while isinstance(t, Branch):
        t = t.if1 if x[t.index] == 1 else t.if0
    return t.label


def tree_tests_on(t, x) -> tuple:
    """Indices tested on input x, in order."""
    out = []
    while isinstance(t, Branch):
        out.append(t.index)
        t = t.if1 if x[t.index] == 1 else t.if0
    return tuple(out)


def neighbor_property_holds(t, n: int) -> bool:
    """Check that flipping one bit of the input never changes whether that
    bit gets tested.  Exhaustive over all 2^n inputs."""
    tested = {x: set(tree_tests_on(t, x)) for x in all_assignments(n)}
    for x, tset in tested.items():
        for j in range(n):
            y = x[:j] + (1 - x[j],) + x[j + 1 :]
            if (j in tset) != (j in tested[y]):
                return False
    return True


# ---------------------------------------------------------------------------
# expected cheapest-certificate cost

CERTIFICATE_COST_MAX_N = 10


def expected_certificate_cost(f, d, c) -> float:
    """Expected cost of the cheapest certificate contained in a random input,
    the reference for the closed form `expected_certificate_cost_disjunction`.

    This lower-bounds the cost of any testing strategy but is not in general
    attainable by one.
    """
    n = f.arity
    if n > CERTIFICATE_COST_MAX_N:
        raise LimitError(
            f"certificate-cost oracle limited to n <= {CERTIFICATE_COST_MAX_N}, got {n}"
        )
    p = as_probabilities(d)
    cc = as_costs(c)
    certified = certificate_table(f)

    full_masks = 1 << n
    total = 0.0
    key_arr = [0] * full_masks
    cost_arr = [0.0] * full_masks
    star_key = len(certified) - 1
    weight = [3 ** (n - 1 - i) for i in range(n)]
    for x in all_assignments(n):
        contrib = [(x[i] - STAR) * weight[i] for i in range(n)]
        key_arr[0] = star_key
        cost_arr[0] = 0.0
        best = None
        for mask in range(1, full_masks):
            low = mask & -mask
            i = low.bit_length() - 1
            prev = mask ^ low
            key_arr[mask] = key_arr[prev] + contrib[i]
            cost_arr[mask] = cost_arr[prev] + cc[i]
            if certified[key_arr[mask]]:
                if best is None or cost_arr[mask] < best:
                    best = cost_arr[mask]
        if certified[star_key]:
            best = 0.0
        if best is None:
            raise InvalidUtilityError("input admits no certificate")
        total += prob_of(x, p) * best
    return total
