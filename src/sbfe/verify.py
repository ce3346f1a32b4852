"""Executable checks: utility axioms, goal-certificate equivalence, dual
feasibility and tightness of the dual-greedy run family, and empirical
cost-versus-optimum certification."""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Optional

from .core import (
    STAR,
    LimitError,
    RunTrace,
    all_assignments,
    all_partials,
    as_costs,
    as_probabilities,
    certificate_table,
    clear,
    encode,
    expected_cost,
    extend,
    extensions,
    optimal_expected_cost,
    prob_of,
    walk_policy,
)
from .policies import DualGreedyPolicy, prefix_ratios
from .utility import UtilityFunction

DUAL_EPS = 1e-9
# Size limits of the exhaustive checks.
GOAL_CERTIFICATE_MAX_N = 8
DUAL_MAX_N = 12
ALPHA_MAX_N = 12


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

    Exhaustive mode scans every pair (b, b') with b' extending b (arity <= 6);
    random mode samples such pairs.  Reports the first violating
    (b, b', i, l) tuple.
    """
    n = g.arity
    if mode == "exhaustive":
        if n > 6:
            raise LimitError(f"exhaustive axiom check limited to n <= 6, got {n}")
        return _check_axioms_exhaustive(g)
    if mode == "random":
        return _check_axioms_random(g, trials, seed)
    raise ValueError(f"unknown mode {mode!r}")


def _check_axioms_exhaustive(g: UtilityFunction) -> CheckReport:
    n = g.arity
    val = {b: g.fn(b) for b in all_partials(n)}
    checked = 0
    for b in val:
        vb = val[b]
        for i in range(n):
            if b[i] != STAR:
                continue
            for l in (0, 1):
                checked += 1
                if val[extend(b, i, l)] < vb:
                    return CheckReport(False, checked, (b, b, i, l), "monotonicity violated")
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


def _check_axioms_random(g: UtilityFunction, trials: int, seed: int) -> CheckReport:
    n = g.arity
    rng = random.Random(seed)
    fn = g.fn
    checked = 0
    for _ in range(trials):
        bp = tuple(rng.choice((0, 1, STAR)) for _ in range(n))
        untested = [i for i, v in enumerate(bp) if v == STAR]
        if not untested:
            continue
        tested = [i for i, v in enumerate(bp) if v != STAR]
        b = bp
        for i in tested:
            if rng.random() < 0.5:
                b = clear(b, i)
        i = rng.choice(untested)
        l = rng.randrange(2)
        vb, vbp = fn(b), fn(bp)
        early = fn(extend(b, i, l)) - vb
        late = fn(extend(bp, i, l)) - vbp
        checked += 1
        if late < 0 or early < 0:
            return CheckReport(False, checked, (b, bp, i, l), "monotonicity violated")
        if early < late:
            return CheckReport(False, checked, (b, bp, i, l), "submodularity violated")
    return CheckReport(True, checked)


# ---------------------------------------------------------------------------
# goal-certificate equivalence


def check_goal_certificate(g: UtilityFunction, f) -> CheckReport:
    """The utility reaches its goal exactly on the partial assignments that
    force the instance's output.  Certificates come from an enumeration table
    built only from f.evaluate, independent of any formula shortcut."""
    n = g.arity
    if n > GOAL_CERTIFICATE_MAX_N:
        raise LimitError(
            f"goal-certificate check limited to n <= {GOAL_CERTIFICATE_MAX_N}, got {n}"
        )
    if f.arity != n:
        raise ValueError("arity mismatch")
    table = certificate_table(f)
    checked = 0
    for b in all_partials(n):
        checked += 1
        covered = g.fn(b) >= g.goal
        certified = table[encode(b)] is not None
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

    ``y_values`` maps (prefix tuple, input) to the dual value that run gave
    the prefix.  ``slack`` maps each one-star assignment w to
    c_{j(w)} - h'_w(Y): the constraint slack of the dual program.  Slack must
    be nonnegative everywhere and zero exactly where j(w) is tested.
    """

    y_values: dict
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
    tested (on both completions of w, which agree by the neighbor property)
    and stay at most c_j when it is not.  Also checks that the expected run
    cost equals the dual objective mass (within accumulation error).
    """
    n = g.arity
    if n > DUAL_MAX_N:
        raise LimitError(f"dual check limited to n <= {DUAL_MAX_N}, got {n}")
    p = as_probabilities(d)
    cc = as_costs(c)

    # One walk of the policy's decision tree covers all 2^n runs: every
    # input consistent with a leaf's outcomes produces that leaf's trace.
    pol = DualGreedyPolicy(g, d, cc)
    traces = {}
    prefix_cache = {}

    def leaf(b, state, path):
        prefixes, ys, _ = state
        tested = tuple(idx for idx, _ in path)
        outs = tuple(v for _, v in path)
        cost = sum(cc[idx] for idx in tested)
        tr = RunTrace(tested, outs, cost, dual_values=ys)
        for a in extensions(b):
            traces[a] = tr
            prefix_cache[a] = prefixes

    walk_policy(pol, n, leaf, lambda i, if0, if1: None)

    def prefix_gain(pfx, j, v):
        _, down, up, _ = pol.gains(pfx)
        return up[j] if v else down[j]

    y_values = {}
    for a, tr in traces.items():
        for t, y in enumerate(tr.dual_values):
            y_values[(tr.tested[:t], a)] = y

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
            for t, y in enumerate(t1.dual_values):
                if y != 0.0:
                    h += p[j] * y * prefix_gain(prefix_cache[a1][t], j, 1)
            for t, y in enumerate(t0.dual_values):
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
        for t, y in enumerate(tr.dual_values):
            if y == 0.0:
                continue
            pfx = prefix_cache[a][t]
            gain_sum = sum(prefix_gain(pfx, i, v) for i, v in zip(tr.tested, tr.outcomes))
            rhs += pa * y * gain_sum
    return DualCertificate(
        y_values, slack, tight, tuple(violations), abs(lhs - rhs), len(traces)
    )


def adg_cost_and_alpha(g: UtilityFunction, d, c) -> tuple:
    """Exact expected cost of the dual greedy and its observed alpha, the
    worst per-prefix ratio over every possible input, from one walk of its
    decision tree.

    Every input follows some root-to-leaf path, so the leaf paths cover all
    (input, prefix) pairs; the ratios read the policy's gain record, so the
    second quantity costs no utility calls.
    """
    n = g.arity
    if n > ALPHA_MAX_N:
        raise LimitError(f"alpha scan limited to n <= {ALPHA_MAX_N}, got {n}")
    pol = DualGreedyPolicy(g, d, c)
    p, cc = pol.p, pol.c
    return walk_policy(
        pol,
        n,
        lambda b, state, path: (
            0.0,
            max([1.0] + [r for _, r in prefix_ratios(g, path, pol.gains)]),
        ),
        lambda i, lo, hi: (
            cc[i] + p[i] * hi[0] + (1.0 - p[i]) * lo[0],
            max(lo[1], hi[1]),
        ),
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


def cost_ratio(cost: float, opt: float, tol: float = 1e-6) -> float:
    """cost / opt; against an optimum of 0 the ratio is 1 when cost is
    within ``tol`` of 0 as well, and infinite otherwise."""
    if opt <= 0.0:
        return 1.0 if cost <= tol else float("inf")
    return cost / opt


def ratio_vs_opt(drive, battery, *, tol: float = 1e-6) -> RatioReport:
    """Compare a policy's exact expected cost with the exhaustive optimum on
    every battery instance; flag any instance exceeding its claimed bound.
    ``drive(case)`` gives the policy to run on the case and that bound."""
    rows = []
    worst = 0.0
    for case in battery:
        policy, bound = drive(case)
        cost = expected_cost(policy, case.dist, case.costs)
        opt, _ = optimal_expected_cost(case.f, case.dist, case.costs)
        ratio = cost_ratio(cost, opt, tol)
        worst = max(worst, ratio)
        rows.append(RatioRow(case.id, cost, opt, ratio, bound, cost <= bound * opt + tol))
    return RatioReport(tuple(rows), worst, all(r.ok for r in rows))
