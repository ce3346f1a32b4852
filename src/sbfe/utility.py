"""Utility functions on partial assignments and the concrete constructions.

A utility function maps partial assignments to nonnegative integers, is 0 on
the all-untested assignment, and "covers" once it reaches its integer goal.
For the constructions built here the goal is reached exactly when the tested
bits force the underlying function's value.

Literals are signed and 1-based, DIMACS style: +i means x_i, -i means its
negation.  Test positions everywhere else are 0-based.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

from .core import (
    STAR,
    Assignment,
    ConstantFunctionError,
    InvalidUtilityError,
    LimitError,
    Partial,
    all_assignments,
    extend,
    to_string,
    tree_leaf_paths,
)

MAX_GOAL = 2**63 - 1  # goals can blow up combinatorially; fail loudly, never wrap


@dataclass(frozen=True)
class UtilityFunction:
    """Integer-valued utility with a goal; ``fn`` evaluates partial assignments."""

    arity: int
    goal: int
    fn: Callable[[Partial], int] = field(repr=False)

    def __post_init__(self):
        if self.goal < 0:
            raise ValueError("goal must be nonnegative")
        if self.goal > MAX_GOAL:
            raise LimitError(f"goal {self.goal} exceeds {MAX_GOAL}")

    def value(self, b: Partial) -> int:
        return self.fn(b)


def marginal(g: UtilityFunction, b: Partial, i: int, l: int) -> int:
    """Utility gained by setting position i to l; 0 when i is already tested."""
    if b[i] != STAR:
        return 0
    gain = g.fn(extend(b, i, l)) - g.fn(b)
    if gain < 0:
        raise InvalidUtilityError(
            f"monotonicity violated at {b} with position {i} set to {l}"
        )
    return gain


def expected_gain(g: UtilityFunction, b: Partial, i: int, p, base: int) -> float:
    """p_i * gain(i, 1) + (1 - p_i) * gain(i, 0); 0 when i is already tested.

    ``p`` is the tuple of probabilities and ``base`` the value g.fn(b), which
    callers scanning many positions at one b compute once.
    """
    if b[i] != STAR:
        return 0.0
    up = g.fn(extend(b, i, 1)) - base
    down = g.fn(extend(b, i, 0)) - base
    if up < 0 or down < 0:
        raise InvalidUtilityError(f"monotonicity violated at {to_string(b)}, position {i}")
    return p[i] * up + (1.0 - p[i]) * down


def gains_at(g: UtilityFunction, b: Partial) -> tuple:
    """(g(b), down, up) with down[j] and up[j] the utility gained by setting
    position j to 0 and to 1 (0 for tested positions), checked for
    monotonicity.  Once b reaches the goal no test is bought there, so down
    and up are None and only g(b) is computed."""
    fn = g.fn
    base = fn(b)
    if base >= g.goal:
        return base, None, None
    down = [0] * len(b)
    up = [0] * len(b)
    for j, v in enumerate(b):
        if v == STAR:
            up[j] = fn(extend(b, j, 1)) - base
            down[j] = fn(extend(b, j, 0)) - base
            if up[j] < 0 or down[j] < 0:
                raise InvalidUtilityError(f"monotonicity violated at {to_string(b)}, position {j}")
    return base, tuple(down), tuple(up)


def constant_zero_utility(n: int) -> UtilityFunction:
    """Goal-0 utility: already covered, contributes nothing."""
    return UtilityFunction(n, 0, lambda b: 0)


# ---------------------------------------------------------------------------
# combinators


def combine_or(g0: UtilityFunction, g1: UtilityFunction) -> UtilityFunction:
    """Utility covered as soon as either input is covered.

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
    return UtilityFunction(g0.arity, goal, lambda b: goal - (q0 - f0(b)) * (q1 - f1(b)))


def combine_and(g0: UtilityFunction, g1: UtilityFunction) -> UtilityFunction:
    """Utility covered only when both inputs are covered: pointwise sum."""
    if g0.arity != g1.arity:
        raise ValueError("combine_and needs equal arities")
    goal = g0.goal + g1.goal
    if goal > MAX_GOAL:
        raise LimitError(f"combined goal {goal} exceeds {MAX_GOAL}")
    f0, f1 = g0.fn, g1.fn
    return UtilityFunction(g0.arity, goal, lambda b: f0(b) + f1(b))


def combine_and_all(gs) -> UtilityFunction:
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
    return UtilityFunction(n, goal, lambda b: sum(fn(b) for fn in fns))


# ---------------------------------------------------------------------------
# CNF/DNF pairs


def _literal_true(lit: int, b: Partial) -> bool:
    v = b[abs(lit) - 1]
    if v == STAR:
        return False
    return v == (1 if lit > 0 else 0)


def _literal_false(lit: int, b: Partial) -> bool:
    v = b[abs(lit) - 1]
    if v == STAR:
        return False
    return v == (0 if lit > 0 else 1)


@dataclass(frozen=True)
class CdnfFormula:
    """A Boolean function given simultaneously as a CNF and a DNF.

    ``clauses`` and ``terms`` are frozensets of signed 1-based literals.
    Both representations must compute the same function; this is checked
    exhaustively for arity <= 12 and is a caller obligation above that.
    A clause containing complementary literals is a tautology and a term
    containing them is a contradiction; a formula whose clauses are all
    tautologies (terms all contradictions) is identically 1 (0).
    """

    arity: int
    clauses: tuple
    terms: tuple

    def __post_init__(self):
        object.__setattr__(self, "clauses", tuple(frozenset(cl) for cl in self.clauses))
        object.__setattr__(self, "terms", tuple(frozenset(t) for t in self.terms))
        if not self.clauses or not self.terms:
            raise ValueError("need at least one clause and one term")
        for group in (self.clauses, self.terms):
            for lits in group:
                if not lits:
                    raise ValueError("empty clause or term")
                for lit in lits:
                    if lit == 0 or abs(lit) > self.arity:
                        raise ValueError(f"literal {lit} out of range for arity {self.arity}")
        if self.arity <= 12:
            for x in all_assignments(self.arity):
                if self._eval_cnf(x) != self._eval_dnf(x):
                    raise ValueError(
                        f"CNF and DNF disagree at {x}; not the same function"
                    )

    @property
    def k(self) -> int:
        return len(self.clauses)

    @property
    def d(self) -> int:
        return len(self.terms)

    def _eval_cnf(self, x: Assignment) -> int:
        return int(all(any(_literal_true(l, x) for l in cl) for cl in self.clauses))

    def _eval_dnf(self, x: Assignment) -> int:
        return int(any(all(_literal_true(l, x) for l in t) for t in self.terms))

    def evaluate(self, x: Assignment) -> int:
        return self._eval_dnf(x)

    def clauses_satisfied(self, b: Partial) -> int:
        """Number of clauses with some literal already made true by b."""
        return sum(1 for cl in self.clauses if any(_literal_true(l, b) for l in cl))

    def terms_falsified(self, b: Partial) -> int:
        """Number of terms with some literal already made false by b."""
        return sum(1 for t in self.terms if any(_literal_false(l, b) for l in t))

    @cached_property
    def _effective_clauses(self) -> tuple:
        return tuple(cl for cl in self.clauses if not any(-l in cl for l in cl))

    @cached_property
    def _effective_terms(self) -> tuple:
        return tuple(t for t in self.terms if not any(-l in t for l in t))

    def constant_value(self) -> Optional[int]:
        if not self._effective_clauses:
            return 1
        if not self._effective_terms:
            return 0
        return None

    @property
    def degenerate(self) -> bool:
        """True when some but not all clauses/terms are tautological or
        contradictory; such formulas are evaluable but carry slack counts."""
        if self.constant_value() is not None:
            return False
        return len(self._effective_clauses) != self.k or len(self._effective_terms) != self.d

    def certificate(self, b: Partial) -> Optional[int]:
        cv = self.constant_value()
        if cv is not None:
            return cv
        if all(any(_literal_true(l, b) for l in cl) for cl in self._effective_clauses):
            return 1
        if all(any(_literal_false(l, b) for l in t) for t in self._effective_terms):
            return 0
        return None


def cdnf_utility(f: CdnfFormula) -> UtilityFunction:
    """Covering utility for a CNF/DNF pair: satisfied-clause and falsified-term
    counters, disjunctively combined.  Goal is k*d."""
    cv = f.constant_value()
    if cv is not None:
        raise ConstantFunctionError(cv)
    if f.degenerate:
        raise ValueError(
            "tautological clauses or contradictory terms are not supported here; "
            "drop them from the formula first"
        )
    g1 = UtilityFunction(f.arity, f.k, f.clauses_satisfied)
    g0 = UtilityFunction(f.arity, f.d, f.terms_falsified)
    return combine_or(g1, g0)


def decision_tree_to_cdnf(t, arity: int) -> CdnfFormula:
    """CNF from the 0-leaf paths, DNF from the 1-leaf paths.

    A path step (i, 1) contributes literal i+1 to its term and -(i+1) to its
    clause; clause count plus term count equals the leaf count.
    """
    clauses = []
    terms = []
    for path, label in tree_leaf_paths(t):
        if label == 1:
            terms.append(frozenset((i + 1) if v == 1 else -(i + 1) for i, v in path))
        elif label == 0:
            clauses.append(frozenset(-(i + 1) if v == 1 else (i + 1) for i, v in path))
        else:
            raise ValueError(f"leaf label {label!r} is not a bit")
    if not clauses:
        raise ConstantFunctionError(1)
    if not terms:
        raise ConstantFunctionError(0)
    return CdnfFormula(arity, tuple(clauses), tuple(terms))


# ---------------------------------------------------------------------------
# linear threshold formulas


def _restricted_extrema(coeffs, b: Partial) -> tuple:
    """(min, max) of sum(coeffs_i * x_i) over all extensions of b."""
    lo = hi = 0
    for a, v in zip(coeffs, b):
        if v == 1:
            lo += a
            hi += a
        elif v == STAR:
            if a < 0:
                lo += a
            else:
                hi += a
    return lo, hi


@dataclass(frozen=True)
class ThresholdFormula:
    """f(x) = 1 iff sum(coeffs_i * x_i) >= theta, with integer coefficients."""

    coeffs: tuple
    theta: int

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(int(a) for a in self.coeffs))
        object.__setattr__(self, "theta", int(self.theta))
        if not self.coeffs:
            raise ValueError("need at least one coefficient")
        if self.total_magnitude > MAX_GOAL:
            raise ValueError("coefficient magnitudes overflow the goal range")

    @property
    def arity(self) -> int:
        return len(self.coeffs)

    @cached_property
    def total_magnitude(self) -> int:
        return sum(abs(a) for a in self.coeffs)

    def min_of(self, b: Partial) -> int:
        """Smallest achievable value of sum - theta over extensions of b."""
        return _restricted_extrema(self.coeffs, b)[0] - self.theta

    def max_of(self, b: Partial) -> int:
        return _restricted_extrema(self.coeffs, b)[1] - self.theta

    @cached_property
    def r_min(self) -> int:
        return self.min_of((STAR,) * self.arity)

    @cached_property
    def r_max(self) -> int:
        return self.max_of((STAR,) * self.arity)

    def constant_value(self) -> Optional[int]:
        if self.r_min >= 0:
            return 1
        if self.r_max < 0:
            return 0
        return None

    def evaluate(self, x: Assignment) -> int:
        return int(sum(a * v for a, v in zip(self.coeffs, x)) >= self.theta)

    def certificate(self, b: Partial) -> Optional[int]:
        if self.min_of(b) >= 0:
            return 1
        if self.max_of(b) < 0:
            return 0
        return None


def threshold_utility(f: ThresholdFormula) -> UtilityFunction:
    """Covering utility for a threshold formula.

    One side tracks how far the guaranteed minimum has risen toward 0, the
    other how far the achievable maximum has fallen below 0; the disjunctive
    combination covers exactly on certificates.  Goal (-r_min) * (r_max + 1).
    """
    cv = f.constant_value()
    if cv is not None:
        raise ConstantFunctionError(cv)
    q1 = -f.r_min
    q0 = f.r_max + 1
    r_min, r_max = f.r_min, f.r_max

    g1 = UtilityFunction(f.arity, q1, lambda b: min(q1, f.min_of(b) - r_min))
    g0 = UtilityFunction(f.arity, q0, lambda b: min(q0, r_max - f.max_of(b)))
    return combine_or(g1, g0)


# ---------------------------------------------------------------------------
# truth tables


@dataclass(frozen=True)
class TruthTable:
    """Explicit function table; entry at index sum(x_i << i) is f(x)."""

    arity: int
    table: tuple

    def __post_init__(self):
        object.__setattr__(self, "table", tuple(int(v) for v in self.table))
        if len(self.table) != 1 << self.arity:
            raise ValueError(f"table needs {1 << self.arity} entries")
        if any(v not in (0, 1) for v in self.table):
            raise ValueError("table entries must be bits")

    def evaluate(self, x: Assignment) -> int:
        idx = 0
        for i, v in enumerate(x):
            idx |= v << i
        return self.table[idx]

    def count_extensions(self, b: Partial, value: int) -> int:
        base = 0
        star_bits = []
        for i, v in enumerate(b):
            if v == 1:
                base |= 1 << i
            elif v == STAR:
                star_bits.append(1 << i)
        count = 0
        for pattern in itertools.product((0, 1), repeat=len(star_bits)):
            idx = base
            for bit, on in zip(star_bits, pattern):
                if on:
                    idx |= bit
            if self.table[idx] == value:
                count += 1
        return count

    def constant_value(self) -> Optional[int]:
        total = sum(self.table)
        if total == len(self.table):
            return 1
        if total == 0:
            return 0
        return None

    def certificate(self, b: Partial) -> Optional[int]:
        if self.count_extensions(b, 0) == 0:
            return 1
        if self.count_extensions(b, 1) == 0:
            return 0
        return None


def truth_table_utility(f: TruthTable) -> UtilityFunction:
    """Generic covering utility: count how many 0-rows and 1-rows of the table
    the tested bits have ruled out, disjunctively combined."""
    cv = f.constant_value()
    if cv is not None:
        raise ConstantFunctionError(cv)
    ones = sum(f.table)
    zeros = len(f.table) - ones
    g1 = UtilityFunction(f.arity, ones, lambda b: ones - f.count_extensions(b, 1))
    g0 = UtilityFunction(f.arity, zeros, lambda b: zeros - f.count_extensions(b, 0))
    return combine_or(g1, g0)


# ---------------------------------------------------------------------------
# linear function systems (for ranking)


@dataclass(frozen=True)
class LinearSystem:
    """m integer linear functions over shared Boolean variables, row-major."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "coeffs", tuple(tuple(int(a) for a in row) for row in self.coeffs)
        )
        if not self.coeffs:
            raise ValueError("need at least one function")
        n = len(self.coeffs[0])
        if n < 1 or any(len(row) != n for row in self.coeffs):
            raise ValueError("all functions need the same positive arity")

    @property
    def m(self) -> int:
        return len(self.coeffs)

    @property
    def arity(self) -> int:
        return len(self.coeffs[0])

    def value(self, j: int, x: Assignment) -> int:
        return sum(a * v for a, v in zip(self.coeffs[j], x))

    def diff(self, i: int, j: int) -> tuple:
        return tuple(a - b for a, b in zip(self.coeffs[i], self.coeffs[j]))

    @cached_property
    def d_values(self) -> tuple:
        return tuple(sum(abs(a) for a in row) for row in self.coeffs)

    @property
    def d_max(self) -> int:
        return max(self.d_values)

    @property
    def d_avg(self) -> float:
        return sum(self.d_values) / self.m

    def known_le(self, i: int, j: int, b: Partial) -> bool:
        """True when b already forces f_i(x) <= f_j(x) on every extension."""
        _, hi = _restricted_extrema(self.diff(i, j), b)
        return hi <= 0

    def known_ge(self, i: int, j: int, b: Partial) -> bool:
        lo, _ = _restricted_extrema(self.diff(i, j), b)
        return lo >= 0


def ranking_pair_utility(sys: LinearSystem, i: int, j: int) -> UtilityFunction:
    """Utility covered once the order of f_i(x) and f_j(x) is decided.

    One side covers when the difference f_i - f_j is forced <= 0, the other
    when it is forced >= 0; a side whose direction holds vacuously gets goal
    0.  Identical functions therefore yield a goal-0 utility that is covered
    from the start.
    """
    if not i < j:
        raise ValueError("require i < j")
    delta = sys.diff(i, j)
    r_lo = sum(a for a in delta if a < 0)
    r_hi = sum(a for a in delta if a > 0)
    n = sys.arity

    if r_hi <= 0:
        g_le = constant_zero_utility(n)
    else:
        g_le = UtilityFunction(
            n, r_hi, lambda b: min(r_hi, r_hi - _restricted_extrema(delta, b)[1])
        )
    if r_lo >= 0:
        g_ge = constant_zero_utility(n)
    else:
        g_ge = UtilityFunction(
            n, -r_lo, lambda b: min(-r_lo, _restricted_extrema(delta, b)[0] - r_lo)
        )
    return combine_or(g_le, g_ge)
