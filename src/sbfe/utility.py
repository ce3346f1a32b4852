"""Utility functions on partial assignments and the concrete constructions.

A utility function maps partial assignments to nonnegative integers, is 0 on
the all-untested assignment, and "covers" once it reaches its integer goal.
For the constructions built here the goal is reached exactly when the tested
bits force the underlying function's value.

Literals are signed and 1-based, DIMACS style: +i means x_i, -i means its
negation.  Test positions everywhere else are 0-based.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

from .core import (
    OPTIMUM_MAX_N,
    STAR,
    ConstantFunctionError,
    InvalidUtilityError,
    LimitError,
    Partial,
    rank_sums,
    to_string,
    tree_leaf_paths,
)

MAX_GOAL = 2**63 - 1  # goals can blow up combinatorially; fail loudly, never wrap

# A Boolean output v, written as an ASCII digit, to its flag field 1 << v
# (see core.certificate_table).
_DIGIT_FLAG = bytes.maketrans(b"01", bytes([1, 2]))


@dataclass(frozen=True)
class UtilityFunction:
    """Integer-valued utility with a goal; ``fn`` evaluates partial assignments.

    ``step`` gives the values of every one-test extension in one pass:
    ``step(b)`` is ``(zero, one)`` with ``zero[j]`` the value at b with
    position j set to 0 and ``one[j]`` with it set to 1; a tested position
    carries g(b) in both.  The two must agree: a policy walk calls ``fn``
    once, at its root, and below it takes g(b) from the parent's ``step``.
    """

    arity: int
    goal: int
    fn: Callable[[Partial], int] = field(repr=False)
    step: Callable[[Partial], tuple] = field(repr=False)

    def __post_init__(self):
        if self.goal < 0:
            raise ValueError("goal must be nonnegative")
        if self.goal > MAX_GOAL:
            raise LimitError(f"goal {self.goal} exceeds {MAX_GOAL}")


def gains_at(g: UtilityFunction, b: Partial, base: Optional[int] = None) -> tuple:
    """(g(b), down, up) with down[j] and up[j] the utility gained by setting
    position j to 0 and to 1 (0 for tested positions), checked for
    monotonicity.  Once b reaches the goal no test is bought there, so down
    and up are None and ``step`` is not called.  g(b) is ``base`` when given,
    else one ``g.fn`` call; the extension values come from ``g.step``."""
    if base is None:
        base = g.fn(b)
    if base >= g.goal:
        return base, None, None
    zero, one = g.step(b)
    down = tuple([v - base for v in zero])
    up = tuple([v - base for v in one])
    if min(down, default=0) < 0 or min(up, default=0) < 0:
        j = next(j for j in range(len(b)) if down[j] < 0 or up[j] < 0)
        raise InvalidUtilityError(f"monotonicity violated at {to_string(b)}, position {j}")
    return base, down, up


def constant_zero_utility(n: int) -> UtilityFunction:
    """Goal-0 utility: already covered, contributes nothing."""
    zeros = (0,) * n
    return UtilityFunction(n, 0, lambda b: 0, lambda b: (zeros, zeros))


# ---------------------------------------------------------------------------
# combinators


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
    return UtilityFunction(
        g0.arity,
        goal,
        lambda b: goal - (q0 - f0(b)) * (q1 - f1(b)),
        _combined_step(
            (g0, g1), lambda vs: tuple([goal - (q0 - v0) * (q1 - v1) for v0, v1 in zip(*vs)])
        ),
    )


def combine_and_all(gs) -> UtilityFunction:
    """Utility covered only when every input is covered: pointwise sum."""
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


# ---------------------------------------------------------------------------
# CNF/DNF pairs


def _hits(groups, sign: int) -> tuple:
    """For each group of literals, the (position, bit) pairs that make one
    of its literals true, each literal's sign multiplied by ``sign``: with 1
    the tests that satisfy a clause, with -1 those that falsify a term.  A
    group holding a literal and its negation is left out: as a clause it
    always holds and as a term it never does, so it decides nothing."""
    return tuple(
        tuple((abs(l) - 1, int(l * sign > 0)) for l in lits)
        for lits in groups
        if not any(-l in lits for l in lits)
    )


@dataclass(frozen=True)
class CdnfFormula:
    """A Boolean function given simultaneously as a CNF and a DNF.

    ``clauses`` and ``terms`` are frozensets of signed 1-based literals.
    Both representations must compute the same function.  Up to arity
    OPTIMUM_MAX_N this is checked at every assignment, by bit planes over
    the 2^n assignments (`_check_agreement`); above it only the polynomial
    half is, that the DNF implies the CNF (`_check_implication`), and the
    converse is a caller obligation.
    A clause containing complementary literals is a tautology and a term
    containing them is a contradiction; neither changes the function, and
    both are left out of the `_hits` tables that `certificate`,
    `constant_value`, `flag_planes`, both agreement checks and
    `cdnf_utility` read.  A formula whose clauses are all tautologies
    (terms all contradictions) is identically 1 (0).
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
        if self.arity <= OPTIMUM_MAX_N:
            self._check_agreement()
        else:
            self._check_implication()

    @cached_property
    def _rank_sets(self) -> tuple:
        """(cnf, dnf): bit r of each is set where that form holds at the
        assignment of rank r in `all_assignments` order (x_1 most
        significant).  Each (position, bit) pair is one such integer;
        clauses OR the pairs that satisfy them, terms AND the complements
        of the pairs that falsify them."""
        n = self.arity
        size = 1 << n
        everywhere = (1 << size) - 1
        holds = []  # holds[j][bit]: the ranks where x_j == bit
        for j in range(n):
            h = 1 << (n - 1 - j)  # position j flips every h ranks, starting at 0
            one = int(("1" * h + "0" * h) * (size // (2 * h)), 2)
            holds.append((one ^ everywhere, one))
        cnf = everywhere
        for hits in self._clause_hits:
            sat = 0
            for j, bit in hits:
                sat |= holds[j][bit]
            cnf &= sat
        dnf = 0
        for misses in self._term_misses:
            sat = everywhere
            for j, bit in misses:
                sat &= holds[j][1 - bit]
            dnf |= sat
        return cnf, dnf

    def _check_agreement(self) -> None:
        """Raise unless the CNF and the DNF agree at all 2^n assignments:
        the first disagreement is the lowest set bit of the XOR of the
        `_rank_sets`."""
        n = self.arity
        cnf, dnf = self._rank_sets
        diff = cnf ^ dnf
        if diff:
            r = (diff & -diff).bit_length() - 1
            x = tuple((r >> (n - i)) & 1 for i in range(1, n + 1))
            raise ValueError(f"CNF and DNF disagree at {x}; not the same function")

    def _check_implication(self) -> None:
        """Raise unless the DNF implies the CNF: every term that is not a
        contradiction shares a literal with every clause that is not a
        tautology.  A term and a clause that share none disagree where the
        term's literals hold and the clause's fail, the rest set to 0."""
        for misses in self._term_misses:
            holds = {(j, 1 - bit) for j, bit in misses}  # the term's literals
            for hits in self._clause_hits:
                if holds.isdisjoint(hits):
                    x = [0] * self.arity
                    for j, bit in hits:
                        x[j] = 1 - bit
                    for j, bit in holds:
                        x[j] = bit
                    raise ValueError(
                        f"CNF and DNF disagree at {tuple(x)}; not the same function"
                    )

    @property
    def k(self) -> int:
        return len(self.clauses)

    @property
    def d(self) -> int:
        return len(self.terms)

    @cached_property
    def _clause_hits(self) -> tuple:
        """The (position, bit) pairs that satisfy each clause."""
        return _hits(self.clauses, 1)

    @cached_property
    def _term_misses(self) -> tuple:
        """The (position, bit) pairs that falsify each term."""
        return _hits(self.terms, -1)

    def constant_value(self) -> Optional[int]:
        if not self._clause_hits:
            return 1
        if not self._term_misses:
            return 0
        return None

    def certificate(self, b: Partial) -> Optional[int]:
        if all(any(b[j] == bit for j, bit in cl) for cl in self._clause_hits):
            return 1
        if all(any(b[j] == bit for j, bit in t) for t in self._term_misses):
            return 0
        return None

    def flag_planes(self) -> tuple:
        """The DNF's rank set as the plane of the field 1 << f(x): its
        binary digits, lowest rank first."""
        bits = format(self._rank_sets[1], f"0{1 << self.arity}b")[::-1]
        return (bits.encode("ascii").translate(_DIGIT_FLAG),)


def cdnf_utility(f: CdnfFormula) -> UtilityFunction:
    """Covering utility for a CNF/DNF pair: the satisfied-clause and
    falsified-term counters, disjunctively combined.  Tautological clauses
    and contradictory terms count on neither side, so the goal is the number
    of clauses that are not tautologies times the number of terms that are
    not contradictions: k*d when there are none."""
    cv = f.constant_value()
    if cv is not None:
        raise ConstantFunctionError(cv)
    return combine_or(_hit_count(f.arity, f._clause_hits), _hit_count(f.arity, f._term_misses))


def _hit_count(n: int, hits) -> UtilityFunction:
    """The number of groups in ``hits``, a `_hits` table, with some pair
    (j, bit) that b holds; goal the number of groups.  In ``step`` an open
    group counts toward the extension of each untested position that
    closes it."""

    def fn(b):
        here = 0
        for group in hits:
            for j, bit in group:
                if b[j] == bit:
                    here += 1
                    break
        return here

    def step(b):
        here = 0
        opened = ([0] * len(b), [0] * len(b))  # by the outcome that closes a group
        for group in hits:
            for j, bit in group:
                if b[j] == bit:
                    here += 1
                    break
            else:
                for j, bit in group:
                    if b[j] == STAR:
                        opened[bit][j] += 1
        return tuple([here + k for k in opened[0]]), tuple([here + k for k in opened[1]])

    return UtilityFunction(n, len(hits), fn, step)


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

    @cached_property
    def r_min(self) -> int:
        """Smallest value of sum - theta: the negative coefficients' sum."""
        return sum(a for a in self.coeffs if a < 0) - self.theta

    @cached_property
    def r_max(self) -> int:
        """Largest value of sum - theta: the positive coefficients' sum."""
        return sum(a for a in self.coeffs if a > 0) - self.theta

    def constant_value(self) -> Optional[int]:
        if self.r_min >= 0:
            return 1
        if self.r_max < 0:
            return 0
        return None

    def certificate(self, b: Partial) -> Optional[int]:
        lo, hi = _restricted_extrema(self.coeffs, b)
        if lo >= self.theta:
            return 1
        if hi < self.theta:
            return 0
        return None

    def flag_planes(self) -> tuple:
        """The plane of the field 1 << f(x), from the sums at every rank."""
        theta = self.theta
        return (bytes([2 if s >= theta else 1 for s in rank_sums(self.coeffs)]),)


def threshold_utility(f: ThresholdFormula) -> UtilityFunction:
    """Covering utility for a threshold formula.

    One side tracks how far the guaranteed minimum has risen toward 0, the
    other how far the achievable maximum has fallen below 0; the disjunctive
    combination covers exactly on certificates.  Goal (-r_min) * (r_max + 1).
    """
    cv = f.constant_value()
    if cv is not None:
        raise ConstantFunctionError(cv)
    return _extrema_utility(f.arity, f.coeffs, -f.r_min, f.r_max + 1)


def _extrema_utility(n: int, coeffs, cap_min: int, cap_max: int) -> UtilityFunction:
    """The `combine_or` of two sides over sum(a_j * x_j) on the extensions
    of b: how far the minimum has risen from its all-untested value, capped
    at ``cap_min``, and how far the maximum has fallen from its own, capped
    at ``cap_max``.  Goal cap_min * cap_max.  ``fn`` takes both sides from
    one `_restricted_extrema` of b, and so does ``step`` for every
    extension: with a_j's positive part ap and negative part an, setting
    x_j to 1 raises the minimum by ap and lowers the maximum by an; setting
    it to 0 raises the minimum by an and lowers the maximum by ap.  When
    either side of b is already full, every extension is covered too and
    ``step`` returns the goal everywhere at once; otherwise it starts both
    vectors at g(b) and computes only the untested positions."""
    pos = tuple(max(a, 0) for a in coeffs)
    neg = tuple(max(-a, 0) for a in coeffs)
    lo_full = cap_min - sum(neg)  # the minimum at which its side is full
    hi_full = sum(pos) - cap_max  # the maximum at which its side is full
    goal = cap_min * cap_max
    if goal > MAX_GOAL:
        raise LimitError(f"combined goal {goal} exceeds {MAX_GOAL}")
    covered = (goal,) * n

    def fn(b):
        lo, hi = _restricted_extrema(coeffs, b)
        l, h = lo_full - lo, hi - hi_full
        return goal - l * h if l > 0 and h > 0 else goal

    def step(b):
        lo, hi = _restricted_extrema(coeffs, b)
        need_lo, need_hi = lo_full - lo, hi - hi_full  # each side's distance to full
        if need_lo <= 0 or need_hi <= 0:
            return covered, covered
        here = goal - need_lo * need_hi
        zero = [here] * n
        one = [here] * n
        for j, v in enumerate(b):
            if v == STAR:
                ap, an = pos[j], neg[j]
                l, h = need_lo - an, need_hi - ap
                zero[j] = goal - l * h if l > 0 and h > 0 else goal
                l, h = need_lo - ap, need_hi - an
                one[j] = goal - l * h if l > 0 and h > 0 else goal
        return tuple(zero), tuple(one)

    return UtilityFunction(n, goal, fn, step)


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

    @cached_property
    def _planes(self) -> tuple:
        """(ones, zeros): bit idx of ``ones`` is set when table[idx] is 1, of
        ``zeros`` when it is 0."""
        ones = int("".join(map(str, reversed(self.table))), 2)
        return ones, ones ^ ((1 << len(self.table)) - 1)

    @staticmethod
    def _subcube(b: Partial) -> tuple:
        """(base, mask): the table indices that extend b are base + s for each
        set bit s of ``mask``.  base holds the tested-1 bits and s ranges over
        the subsets of the untested ones, so the sum never carries."""
        base = 0
        mask = 1
        for i, v in enumerate(b):
            if v == 1:
                base |= 1 << i
            elif v == STAR:
                mask |= mask << (1 << i)
        return base, mask

    def constant_value(self) -> Optional[int]:
        ones, zeros = self._planes
        if not zeros:
            return 1
        if not ones:
            return 0
        return None

    def certificate(self, b: Partial) -> Optional[int]:
        base, mask = self._subcube(b)
        ones, zeros = self._planes
        if not (zeros >> base) & mask:
            return 1
        if not (ones >> base) & mask:
            return 0
        return None

    def flag_planes(self) -> tuple:
        """The plane of the field 1 << f(x): the table read in rank order,
        where rank r holds the index sum(x_i << i) of its assignment."""
        table = self.table
        index = rank_sums([1 << i for i in range(self.arity)])
        return (bytes([2 if table[k] else 1 for k in index]),)


def truth_table_utility(f: TruthTable) -> UtilityFunction:
    """Generic covering utility: count how many 0-rows and 1-rows of the table
    the tested bits have ruled out, disjunctively combined.  Goal #1 * #0.

    ``fn`` counts both planes on the subcube of b once, and so does its step,
    which takes each extension's counts from that by one AND with the
    indices whose bit j is set: the completions of b with x_j = 1 are those,
    with x_j = 0 the rest."""
    cv = f.constant_value()
    if cv is not None:
        raise ConstantFunctionError(cv)
    n = f.arity
    ones_plane, zeros_plane = f._planes
    ones = ones_plane.bit_count()
    zeros = zeros_plane.bit_count()
    goal = ones * zeros
    # has_bit[j]: the indices below 2^n with bit j set, h = 2^j of each 2h
    has_bit = tuple(
        int(("1" * h + "0" * h) * ((1 << n) // (2 * h)), 2) for h in (1 << j for j in range(n))
    )

    def fn(b):
        base, mask = f._subcube(b)
        co = ((ones_plane >> base) & mask).bit_count()
        return goal - co * ((zeros_plane >> base) & mask).bit_count()

    def step(b):
        base, mask = f._subcube(b)
        o = (ones_plane >> base) & mask
        z = (zeros_plane >> base) & mask
        co, cz = o.bit_count(), z.bit_count()
        here = goal - co * cz
        zero = [here] * n
        one = [here] * n
        for j, v in enumerate(b):
            if v == STAR:
                o1 = (o & has_bit[j]).bit_count()
                z1 = (z & has_bit[j]).bit_count()
                one[j] = goal - o1 * z1
                zero[j] = goal - (co - o1) * (cz - z1)
        return tuple(zero), tuple(one)

    return UtilityFunction(n, goal, fn, step)


# ---------------------------------------------------------------------------
# linear function systems (for ranking)


@dataclass(frozen=True)
class LinearSystem:
    """m integer linear functions over shared Boolean variables, row-major.
    As an instance its output is the order of every pair i < j, decided
    once b forces f_i <= f_j or f_i >= f_j."""

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

    def diff(self, i: int, j: int) -> tuple:
        return tuple(a - b for a, b in zip(self.coeffs[i], self.coeffs[j]))

    def known_order(self, i: int, j: int, b: Partial) -> tuple:
        """(le, ge): whether b already forces f_i(x) <= f_j(x), and whether it
        forces f_i(x) >= f_j(x), on every extension."""
        lo, hi = _restricted_extrema(self.diff(i, j), b)
        return hi <= 0, lo >= 0

    def certificate(self, b: Partial) -> Optional[tuple]:
        out = []
        for i in range(self.m):
            for j in range(i + 1, self.m):
                le, ge = self.known_order(i, j, b)
                if not (le or ge):
                    return None
                out.append((le, ge))
        return tuple(out)

    def flag_planes(self) -> tuple:
        """One field per pair i < j, le | ge << 1: a pair's order is forced
        at b while its le flag, or its ge flag, holds on every extension.
        From the sums of f_i - f_j at every rank, the field is 1 where the
        difference is negative, 2 where positive and 3 where zero."""
        m = self.m
        return tuple(
            bytes([1 if s < 0 else 2 if s > 0 else 3 for s in rank_sums(self.diff(i, j))])
            for i in range(m)
            for j in range(i + 1, m)
        )


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
    return _extrema_utility(sys.arity, delta, -r_lo, r_hi)
