"""Executable checks: utility axioms, goal-certificate equivalence, dual
feasibility and tightness of the dual-greedy run family, and empirical
cost-versus-optimum certification."""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .core import (
    STAR,
    LimitError,
    all_partials,
    certificate_table,
    expected_cost,
    extend,
    optimal_expected_cost,
    walk_policy,
)
from .policies import DualGreedyPolicy
from .utility import UtilityFunction

DUAL_EPS = 1e-9
# Size limits of the exhaustive checks.
AXIOMS_EXHAUSTIVE_MAX_N = 9
GOAL_CERTIFICATE_MAX_N = 8
DUAL_MAX_N = 12


@dataclass(frozen=True)
class CheckReport:
    ok: bool
    checked: int
    counterexample: Optional[tuple] = None
    message: str = ""


# ---------------------------------------------------------------------------
# utility axioms


def check_axioms(
    g: UtilityFunction, mode: str = "exhaustive", trials: int = 10000, seed: int = 0
) -> CheckReport:
    """Monotonicity and submodularity of a utility.

    Exhaustive mode (arity <= AXIOMS_EXHAUSTIVE_MAX_N) checks each gain
    against the same gain one test later, which is equivalent to checking
    every pair (b, b') with b' extending b.  Random mode draws such pairs
    until it has made at least ``trials`` checks: at each draw, every
    untested (i, l) of b', and one random child of b.  Reports the first
    violating (b, b', i, l) tuple.  Both modes also check the utility's
    ``step``, which policy walks read in place of ``fn`` below their root:
    exhaustive mode against the ``fn`` values at every state, random mode at
    the drawn child and at the tested positions of b'.  A disagreement is
    reported with the state (b,) whose step is wrong.
    """
    if mode == "exhaustive":
        if g.arity > AXIOMS_EXHAUSTIVE_MAX_N:
            raise LimitError(
                f"exhaustive axiom check limited to n <= {AXIOMS_EXHAUSTIVE_MAX_N}, got {g.arity}"
            )
        return _check_axioms_exhaustive(g)
    if mode == "random":
        return _check_axioms_random(g, trials, seed)
    raise ValueError(f"unknown mode {mode!r}")


def _check_axioms_exhaustive(g: UtilityFunction) -> CheckReport:
    # core.encode key order: extend(b, i, l) comes before b, at key(b) - drop[i][l]
    n = g.arity
    drop = [[(STAR - l) * 3 ** (n - 1 - i) for l in (0, 1)] for i in range(n)]
    seen = []  # seen[key] = (g(b), the gains at b)
    checked = 0
    for key, b in enumerate(all_partials(n)):
        vb = g.fn(b)
        steps = [(i, l) for i in range(n) if b[i] == STAR for l in (0, 1)]
        here = ([0] * n, [0] * n)  # here[l][i] = g(extend(b, i, l)) - g(b), 0 where tested
        for i, l in steps:
            checked += 1
            here[l][i] = seen[key - drop[i][l]][0] - vb
            if here[l][i] < 0:
                return CheckReport(False, checked, (b, b, i, l), "monotonicity violated")
        if g.step(b) != tuple(tuple([vb + d for d in h]) for h in here):
            return CheckReport(False, checked, (b,), "step disagrees with fn")
        seen.append((vb, here))
        # Δ_{i,l}(b) - Δ_{i,l}(b + jm) = Δ_{j,m}(b) - Δ_{j,m}(b + il), so each
        # pair of positions is compared once, i < j
        for j, m in steps:
            later = seen[key - drop[j][m]][1]
            for i, l in steps:
                if i >= j:
                    break  # steps go in position order
                checked += 1
                if here[l][i] < later[l][i]:
                    bp = extend(b, j, m)
                    return CheckReport(False, checked, (b, bp, i, l), "submodularity violated")
    return CheckReport(True, checked)


def _check_axioms_random(g: UtilityFunction, trials: int, seed: int) -> CheckReport:
    n = g.arity
    if not n:
        return CheckReport(True, 0)  # no position to test, so no draw makes a check
    rng = random.Random(seed)
    fn, step = g.fn, g.step
    states = 3**n
    checked = 0
    while checked < trials:
        # b' in base 3, position 0 lowest; an outcome in (0, 1, STAR) is its
        # own digit, since STAR == 2
        r = rng.randrange(states)
        bp = []
        for _ in range(n):
            r, v = divmod(r, 3)
            bp.append(v)
        bp = tuple(bp)
        # b clears b''s tested positions on the set bits of one draw
        mask = rng.getrandbits(n)
        b = tuple([STAR if mask >> i & 1 else v for i, v in enumerate(bp)])
        vb, vbp = fn(b), fn(bp)
        at_b, at_bp = step(b), step(bp)
        # the step records are checked before the axioms read them: g(b') at
        # b''s tested positions, and one random child of b against fn
        if any(at_bp[0][i] != vbp or at_bp[1][i] != vbp for i, v in enumerate(bp) if v != STAR):
            return CheckReport(False, checked, (bp,), "step disagrees with fn")
        free = [i for i, v in enumerate(b) if v == STAR]
        if free:
            k = rng.randrange(2 * len(free))
            i, l = free[k >> 1], k & 1
            checked += 1
            if fn(b[:i] + (l,) + b[i + 1 :]) != at_b[l][i]:
                return CheckReport(False, checked, (b,), "step disagrees with fn")
        for i, v in enumerate(bp):
            if v != STAR:
                continue
            for l in (0, 1):
                checked += 1
                early = at_b[l][i] - vb
                late = at_bp[l][i] - vbp
                if late < 0 or early < 0:
                    return CheckReport(False, checked, (b, bp, i, l), "monotonicity violated")
                if early < late:
                    return CheckReport(False, checked, (b, bp, i, l), "submodularity violated")
    return CheckReport(True, checked)


# ---------------------------------------------------------------------------
# goal-certificate equivalence


def check_goal_certificate(g: UtilityFunction, f) -> CheckReport:
    """The utility reaches its goal exactly on the partial assignments that
    force the instance's output.  Certificates come from the certified
    mask of certificate_table, built from the instance's flag planes, which
    never call the certificate shortcut."""
    n = g.arity
    if n > GOAL_CERTIFICATE_MAX_N:
        raise LimitError(
            f"goal-certificate check limited to n <= {GOAL_CERTIFICATE_MAX_N}, got {n}"
        )
    if f.arity != n:
        raise ValueError("arity mismatch")
    checked = 0
    mask = certificate_table(f)
    for b, flag in zip(all_partials(n), mask):
        checked += 1
        covered = g.fn(b) >= g.goal
        certified = flag == 1
        if covered != certified:
            return CheckReport(
                False,
                checked,
                (b,),
                f"goal/certificate mismatch at {b}: covered={covered}, certified={certified}",
            )
    return CheckReport(True, checked)


# ---------------------------------------------------------------------------
# dual feasibility (run family of the dual greedy)


@dataclass(frozen=True)
class DualCertificate:
    """Assembled dual solution from running the dual greedy on every input.

    ``slack`` maps (b, j), a leaf b of the policy's decision tree and a
    position j, to c_j - h'_w(Y): the slack of the dual constraint of j and
    any assignment w of the other positions whose completions reach b.
    ``tight[b, j]`` says whether j is tested at b.  Slack must be
    nonnegative everywhere and zero exactly where j is tested.
    """

    slack: dict
    tight: dict
    violations: tuple
    objective_gap: float
    runs: int

    @property
    def ok(self) -> bool:
        return not self.violations


def check_dual_feasibility(g: UtilityFunction, d, c) -> DualCertificate:
    """Run the dual greedy on all 2^n inputs and verify its dual solution.

    For every position j and every assignment w of the other positions, the
    mixed sum of prefix-gain-weighted dual values must equal c_j when j is
    tested and stay at most c_j when it is not.  One walk of the policy's
    decision tree covers every run, since each input consistent with a
    leaf's outcomes makes that leaf's run.  Both completions of w make the
    run of one leaf b when j is untested there; when j is tested they share
    every prefix up to its test, and j gains nothing after it.  So the sum
    is one number per (b, j), from b's prefixes alone.  Also checks that the
    expected run cost equals the dual objective mass (within accumulation
    error), both folded over the tree like `expected_cost`.

    The prefixes' records travel down the path (`_prefix_records`), and a
    leaf pairs each with its y from the ``ys`` of its state.  A prefix with
    y = 0 would add an exact 0.0 to every sum, so the leaf leaves it out.
    A record keeps the step's values at its prefix S, so the leaf reads the
    gain of j there as the value less g(S), one exact integer subtraction.
    """
    n = g.arity
    if n > DUAL_MAX_N:
        raise LimitError(f"dual check limited to n <= {DUAL_MAX_N}, got {n}")
    pol = DualGreedyPolicy(g, d, c)
    p, cc = pol.p, pol.c
    slack = {}
    tight = {}
    violations = []

    def leaf(b, state, records):
        dual = [(y, base, zero, one, gained)
                for y, (_, base, zero, one, gained) in zip(state[0], records) if y]
        for j in range(n):
            h = 0.0
            for y, base, _, one, _ in dual:
                h += p[j] * y * (one[j] - base)
            for y, base, zero, _, _ in dual:
                h += (1.0 - p[j]) * y * (zero[j] - base)
            s = cc[j] - h
            slack[b, j] = s
            tight[b, j] = tested = b[j] != STAR
            if tested and abs(s) > DUAL_EPS:
                violations.append(((b, j), f"tested coordinate not tight: slack {s}"))
            elif not tested and s < -DUAL_EPS:
                violations.append(((b, j), f"dual constraint violated: slack {s}"))
        mass = 0.0
        for y, _, _, _, gained in dual:
            mass += y * gained
        return 0.0, mass, 1 << b.count(STAR)

    cost, mass, runs = walk_policy(
        pol,
        n,
        leaf,
        lambda i, lo, hi: (
            cc[i] + p[i] * hi[0] + (1.0 - p[i]) * lo[0],
            p[i] * hi[1] + (1.0 - p[i]) * lo[1],
            lo[2] + hi[2],
        ),
        _prefix_records(pol),
    )
    return DualCertificate(slack, tight, tuple(violations), abs(cost - mass), runs)


def _prefix_records(pol: DualGreedyPolicy):
    """The ``grow`` of the dual greedy's walks here: the record of each
    prefix S of the path, in order, as (goal - g(S), g(S), zero, one,
    gained), where (g(S), zero, one) is the policy's gain record at S, so
    the gain of j there is zero[j] - g(S) or one[j] - g(S), and gained sums
    what each test below S gained at S.  A test adds its gain
    at S to every open record and opens one for the node that made it, from
    the policy's gain record there, so no node's record is read after its
    test.  A node that tests is short of the goal, so goal - g(S) > 0."""
    goal = pol.g.goal

    def grow(records, b, i, v):
        records = [
            (gap, base, zero, one, gained + ((one[i] if v else zero[i]) - base))
            for gap, base, zero, one, gained in records
        ]
        base, zero, one = pol.gains(b)
        records.append((goal - base, base, zero, one, (one[i] if v else zero[i]) - base))
        return records

    return grow


def adg_cost_and_alpha(g: UtilityFunction, d, c) -> tuple:
    """Exact expected cost of the dual greedy and its observed alpha, the
    worst per-prefix ratio over every possible input, from one walk of its
    decision tree.

    Every input follows some root-to-leaf path, so the leaf paths cover all
    (input, prefix) pairs.  A prefix S's ratio is the utility the run's
    tests from S on would each add at S, summed, over goal - g(S).  Both
    travel down the path in S's record (`_prefix_records`), so a leaf's
    ratios are one division each, read from the policy's gain record at the
    node that made them: the alpha costs no utility calls.
    """
    pol = DualGreedyPolicy(g, d, c)
    p, cc = pol.p, pol.c
    return walk_policy(
        pol,
        g.arity,
        lambda b, state, records: (
            0.0,
            max([1.0] + [gained / gap for gap, _, _, _, gained in records]),
        ),
        lambda i, lo, hi: (
            cc[i] + p[i] * hi[0] + (1.0 - p[i]) * lo[0],
            max(lo[1], hi[1]),
        ),
        _prefix_records(pol),
    )


def observed_alpha(g: UtilityFunction, d, c) -> float:
    """Worst per-prefix ratio of the dual greedy over every possible input."""
    return adg_cost_and_alpha(g, d, c)[1]


# ---------------------------------------------------------------------------
# empirical cost-versus-optimum certification


@dataclass(frozen=True)
class RatioRow:
    id: str
    cost: float
    opt: float
    ratio: float
    bound: float
    ok: bool


@dataclass(frozen=True)
class RatioReport:
    rows: tuple
    worst_ratio: float
    ok: bool

    @property
    def violations(self) -> tuple:
        return tuple(r for r in self.rows if not r.ok)


def cost_verdict(cost: float, opt: float, bound: float, tol: float = 1e-6) -> tuple:
    """(cost / opt, whether cost <= bound * opt + tol): the one verdict on a
    cost against its claimed bound.  Against an optimum of 0 the ratio is 1
    when cost is within ``tol`` of 0 as well, and infinite otherwise."""
    if opt <= 0.0:
        ratio = 1.0 if cost <= tol else float("inf")
    else:
        ratio = cost / opt
    ok = cost <= bound * opt + tol
    return ratio, ok


def ratio_vs_opt(drive, battery, *, tol: float = 1e-6) -> tuple:
    """Compare policies' exact expected costs with the exhaustive optimum on
    every battery instance; flag any instance exceeding its claimed bound.
    ``drive(case)`` gives a list of (policy, bound) pairs, and the result
    holds one report per position in that list.  Each case's optimum is
    computed once, and a policy object listed twice is costed once."""
    rows = {}  # position in drive's list -> its rows
    for case in battery:
        opt = optimal_expected_cost(case.f, case.dist, case.costs)
        costs = {}
        for k, (policy, bound) in enumerate(drive(case)):
            if id(policy) not in costs:
                costs[id(policy)] = expected_cost(policy, case.dist, case.costs)
            cost = costs[id(policy)]
            ratio, ok = cost_verdict(cost, opt, bound, tol)
            rows.setdefault(k, []).append(RatioRow(case.id, cost, opt, ratio, bound, ok))
    return tuple(
        RatioReport(tuple(r), max(row.ratio for row in r), all(row.ok for row in r))
        for r in rows.values()
    )
