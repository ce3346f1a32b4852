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
    """The gain record (g(b), zero, one) at b: the values ``g.step(b)``
    gives, checked for monotonicity with one ``min`` per vector, the first
    position where one falls below g(b) named in the error.  Once b reaches
    the goal no test is bought there, so zero and one are None and ``step``
    is not called.  g(b) is ``base`` when given, else one ``g.fn`` call."""
    if base is None:
        base = g.fn(b)
    if base >= g.goal:
        return base, None, None
    zero, one = g.step(b)
    if zero and (min(zero) < base or min(one) < base):
        j = next(j for j, (dj, uj) in enumerate(zip(zero, one)) if dj < base or uj < base)
        raise InvalidUtilityError(f"monotonicity violated at {to_string(b)}, position {j}")
    return base, zero, one


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
    Both representations must compute the same function.  When they mention
    at most OPTIMUM_MAX_N positions this is checked at every assignment of
    those, by bit planes (`_check_agreement`); otherwise only the
    polynomial half is, that the DNF implies the CNF (`_check_implication`),
    and the converse is a caller obligation.
    A clause containing complementary literals is a tautology and a term
    containing them is a contradiction; neither changes the function, and
    both are left out of the `_hits` tables that `certificate`,
    `flag_planes`, both agreement checks and `cdnf_utility` read.  A
    formula whose clauses are all tautologies (terms all contradictions) is
    identically 1 (0): the empty assignment certifies it, and its utility's
    goal is 0.
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
        groups = self._clause_hits + self._term_misses
        mentioned = sorted({j for hits in groups for j, _ in hits})
        if len(mentioned) <= OPTIMUM_MAX_N:
            self._check_agreement(mentioned)
        else:
            self._check_implication()

    def _rank_sets(self, positions) -> tuple:
        """(cnf, dnf) over ``positions``, increasing and holding every
        position the `_hits` tables mention: bit r of each is set where that
        form holds at the assignment of rank r over them, in
        `all_assignments` order (the first of them most significant).  Each
        (position, bit) pair is one such integer; clauses OR the pairs that
        satisfy them, terms AND the complements of the pairs that falsify
        them."""
        m = len(positions)
        size = 1 << m
        everywhere = (1 << size) - 1
        holds = {}  # holds[j][bit]: the ranks where x_j == bit
        for k, j in enumerate(positions):
            h = 1 << (m - 1 - k)  # position j flips every h ranks, starting at 0
            one = int(("1" * h + "0" * h) * (size // (2 * h)), 2)
            holds[j] = (one ^ everywhere, one)
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

    def _check_agreement(self, mentioned) -> None:
        """Raise unless the CNF and the DNF agree at all 2^n assignments.
        Neither reads a position outside ``mentioned``, so the first
        disagreement sets those to 0, and over ``mentioned`` it is the lowest
        set bit of the XOR of their `_rank_sets`."""
        cnf, dnf = self._rank_sets(mentioned)
        diff = cnf ^ dnf
        if diff:
            r = (diff & -diff).bit_length() - 1
            x = [0] * self.arity
            for k, j in enumerate(reversed(mentioned)):
                x[j] = (r >> k) & 1
            raise ValueError(f"CNF and DNF disagree at {tuple(x)}; not the same function")

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

    def certificate(self, b: Partial) -> Optional[int]:
        if all(any(b[j] == bit for j, bit in cl) for cl in self._clause_hits):
            return 1
        if all(any(b[j] == bit for j, bit in t) for t in self._term_misses):
            return 0
        return None

    def flag_planes(self) -> tuple:
        """The DNF's rank set as the plane of the field 1 << f(x): its
        binary digits, lowest rank first."""
        bits = format(self._rank_sets(range(self.arity))[1], f"0{1 << self.arity}b")[::-1]
        return (bits.encode("ascii").translate(_DIGIT_FLAG),)


def cdnf_utility(f: CdnfFormula) -> UtilityFunction:
    """Covering utility for a CNF/DNF pair: the satisfied-clause and
    falsified-term counters, disjunctively combined.  Tautological clauses
    and contradictory terms count on neither side, so the goal is the number
    of clauses that are not tautologies times the number of terms that are
    not contradictions: k*d when there are none, 0 when f is constant.

    With oc clauses and ot terms still open at b, the value is goal - oc*ot,
    and ``fn`` and ``step`` both read the open groups off the `_hits`
    tables.  ``step`` returns the goal everywhere when either side is
    closed.  Otherwise it starts both vectors at g(b) and, for every
    untested position in an open group, counts the open clauses and terms
    each outcome of it leaves; only those positions get the product."""
    n = f.arity
    clause_hits, term_misses = f._clause_hits, f._term_misses
    goal = len(clause_hits) * len(term_misses)
    covered = (goal,) * n

    def fn(b):
        return goal - len(_open_groups(clause_hits, b)) * len(_open_groups(term_misses, b))

    def step(b):
        open_clauses = _open_groups(clause_hits, b)
        open_terms = _open_groups(term_misses, b)
        oc, ot = len(open_clauses), len(open_terms)
        if not oc or not ot:
            return covered, covered
        here = goal - oc * ot
        zero = [here] * n
        one = [here] * n
        # left[j]: the open clauses x_j = 0 and x_j = 1 leave, then the open terms
        left = {}
        for groups, side in ((open_clauses, 0), (open_terms, 2)):
            for group in groups:
                for j, bit in group:
                    if b[j] == STAR:
                        r = left.get(j) or left.setdefault(j, [oc, oc, ot, ot])
                        r[side + bit] -= 1
        for j, (c0, c1, t0, t1) in left.items():
            zero[j] = goal - c0 * t0
            one[j] = goal - c1 * t1
        return tuple(zero), tuple(one)

    return UtilityFunction(n, goal, fn, step)


def _open_groups(hits, b) -> list:
    """The groups of ``hits``, a `_hits` table, with no pair (j, bit) that
    b holds."""
    out = []
    for group in hits:
        for j, bit in group:
            if b[j] == bit:
                break
        else:
            out.append(group)
    return out


def decision_tree_to_cdnf(t, arity: int) -> CdnfFormula:
    """CNF from the 0-leaf paths, DNF from the 1-leaf paths.

    A path step (i, 1) contributes literal i+1 to its term and -(i+1) to its
    clause; clause count plus term count equals the leaf count.  A tree whose
    leaves all carry one label leaves one side empty, and `CdnfFormula`
    refuses it with ValueError.
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
    combination covers exactly on certificates.  Goal
    max(0, -r_min) * max(0, r_max + 1), which is 0, covered at the root,
    exactly when f is constant.
    """
    return threshold_sum_utility((f,))


def threshold_sum_utility(formulas) -> UtilityFunction:
    """Sum of the `threshold_utility` of each of ``formulas``, all of one
    arity, as one `_extrema_utility` with a row per formula; covered when
    every formula is certified.  Each cap is clamped at 0, so a constant
    formula's row has goal 0, covered from the start."""
    return _extrema_utility(
        formulas[0].arity, [(f.coeffs, max(0, -f.r_min), max(0, f.r_max + 1)) for f in formulas]
    )


def _extrema_utility(n: int, rows) -> UtilityFunction:
    """Covering utility summed over ``rows``, each (coeffs, cap_min,
    cap_max) over the linear form sum(a_j * x_j) on the extensions of b.
    One side of a row counts how far the form's minimum has risen from its
    all-untested value, capped at cap_min, the other how far its maximum has
    fallen from its own, capped at cap_max.  The two are disjunctively
    combined: a row's value is cap_min * cap_max less its deficit l * h,
    with l and h the sides' distances to full, and less nothing once either
    is full.  The goal is the sum of the rows' cap_min * cap_max; each row's
    is checked before the sum.

    ``fn`` takes both sides of each row from one `_restricted_extrema` of
    b.  ``step`` tracks the distances instead, cap_min and cap_max at the
    root: setting x_j to 1 takes a_j's positive part ap off the minimum's
    distance and its negative part an off the maximum's; setting it to 0
    takes an off the minimum's and ap off the maximum's.  One of ap, an is
    0.  When no row is open, every extension is covered too and ``step``
    returns the goal everywhere at once.  Otherwise it starts both vectors
    at g(b) and visits only the untested positions: an extension takes
    |a_j| times the other side's distance off a row's deficit, or all of it
    once a side fills.  A single row gets `_row_step`, the same values in
    fewer operations."""
    if not rows:
        raise ValueError("need at least one row")
    goal = 0
    fulls = []  # per row, its coeffs and the minimum and maximum at which its sides are full
    for coeffs, cap_min, cap_max in rows:
        row_goal = cap_min * cap_max
        if row_goal > MAX_GOAL:
            raise LimitError(f"combined goal {row_goal} exceeds {MAX_GOAL}")
        goal += row_goal
        lo = hi = 0
        for a in coeffs:
            if a < 0:
                lo += a
            else:
                hi += a
        fulls.append((coeffs, cap_min + lo, hi - cap_max))
    if goal > MAX_GOAL:
        raise LimitError(f"combined goal {goal} exceeds {MAX_GOAL}")

    def fn(b):
        here = goal
        for coeffs, lo_full, hi_full in fulls:
            lo, hi = _restricted_extrema(coeffs, b)
            l, h = lo_full - lo, hi - hi_full
            if l > 0 and h > 0:
                here -= l * h
        return here

    if len(rows) == 1:
        return UtilityFunction(n, goal, fn, _row_step(n, *rows[0]))
    covered = (goal,) * n

    def step(b):
        free = []
        tested = []
        for j, v in enumerate(b):
            if v == STAR:
                free.append(j)
            else:
                tested.append((j, v))
        here = goal
        opened = []
        for coeffs, need_lo, need_hi in rows:  # each side's distance to full
            for j, v in tested:
                a = coeffs[j]
                if a > 0:
                    if v:
                        need_lo -= a
                    else:
                        need_hi -= a
                elif v:
                    need_hi += a
                else:
                    need_lo += a
            if need_lo > 0 and need_hi > 0:
                here -= need_lo * need_hi
                opened.append((coeffs, need_lo, need_hi))
        if not opened:
            return covered, covered
        zero = [here] * n
        one = [here] * n
        for coeffs, need_lo, need_hi in opened:
            deficit = need_lo * need_hi
            for j in free:
                a = coeffs[j]
                if a > 0:
                    zero[j] += need_lo * a if a < need_hi else deficit
                    one[j] += a * need_hi if a < need_lo else deficit
                elif a:
                    zero[j] -= a * need_hi if -a < need_lo else -deficit
                    one[j] -= a * need_lo if -a < need_hi else -deficit
        return tuple(zero), tuple(one)

    return UtilityFunction(n, goal, fn, step)


def _row_step(n: int, coeffs, cap_min: int, cap_max: int):
    """The `_extrema_utility` step of the one row (coeffs, cap_min,
    cap_max): one pass over b gives both distances and the untested
    positions, and each extension is assigned its value, where the rows
    step makes a second pass over the tested positions and adds each row's
    share to g(b)."""
    goal = cap_min * cap_max
    covered = (goal,) * n

    def step(b):
        need_lo, need_hi = cap_min, cap_max  # each side's distance to full
        free = []
        for j, v in enumerate(b):
            if v == STAR:
                free.append(j)
                continue
            a = coeffs[j]
            if a > 0:
                if v:
                    need_lo -= a
                else:
                    need_hi -= a
            elif v:
                need_hi += a
            else:
                need_lo += a
        if need_lo <= 0 or need_hi <= 0:
            return covered, covered
        here = goal - need_lo * need_hi
        zero = [here] * n
        one = [here] * n
        for j in free:
            a = coeffs[j]
            if a > 0:
                zero[j] = here + need_lo * a if a < need_hi else goal
                one[j] = here + a * need_hi if a < need_lo else goal
            elif a:
                zero[j] = here - a * need_hi if -a < need_lo else goal
                one[j] = here - a * need_lo if -a < need_hi else goal
        return tuple(zero), tuple(one)

    return step


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
    the tested bits have ruled out, disjunctively combined.  Goal #1 * #0,
    which is 0 when f is constant.

    ``fn`` counts both planes on the subcube of b once, and so does its step,
    which takes each extension's counts from that by one AND with the
    indices whose bit j is set: the completions of b with x_j = 1 are those,
    with x_j = 0 the rest."""
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
    return _extrema_utility(sys.arity, (_ranking_pair_row(sys, i, j),))


def ranking_utility(sys: LinearSystem) -> UtilityFunction:
    """Sum of the `ranking_pair_utility` of every pair i < j as one
    `_extrema_utility` with a row per pair; covered when the order of every
    pair is decided."""
    m = sys.m
    return _extrema_utility(
        sys.arity, [_ranking_pair_row(sys, i, j) for i in range(m) for j in range(i + 1, m)]
    )


def _ranking_pair_row(sys: LinearSystem, i: int, j: int) -> tuple:
    """The `_extrema_utility` row of the pair i < j: the difference f_i -
    f_j, with caps its own extrema."""
    if not i < j:
        raise ValueError("require i < j")
    delta = sys.diff(i, j)
    return delta, -sum(a for a in delta if a < 0), sum(a for a in delta if a > 0)
