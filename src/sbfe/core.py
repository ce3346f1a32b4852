"""Partial assignments, product distributions, and exact policy evaluation.

A partial assignment is a plain tuple over {0, 1, STAR} recording which
positions have been tested and with what outcome.  Positions are 0-based
everywhere in this package.  All functions here are pure; values are
immutable and safe to share across threads.
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterator, Optional

STAR = 2  # "not yet tested" marker; 0/1/STAR all fit in two bits

OPTIMUM_MAX_N = 14  # the optimum and the certificate table hold 3^n states

Partial = tuple
Assignment = tuple


class SbfeError(Exception):
    """Base class for errors raised by this package."""


class InvalidUtilityError(SbfeError):
    """A utility function violated monotonicity or cannot reach its goal."""


class PolicyError(SbfeError):
    """A policy requested an illegal, repeated, or post-termination test."""


class LimitError(SbfeError):
    """A size limit was exceeded: an exhaustive oracle's, or the 63-bit range
    of a utility goal."""


# ---------------------------------------------------------------------------
# partial assignments


def stars(n: int) -> Partial:
    """The empty partial assignment on n positions."""
    if n < 1:
        raise ValueError("need at least one position")
    return (STAR,) * n


def extend(b: Partial, i: int, l: int) -> Partial:
    """Copy of b with position i set to outcome l.  Requires b[i] untested."""
    if not 0 <= i < len(b):
        raise IndexError(f"position {i} out of range for arity {len(b)}")
    if b[i] != STAR:
        raise ValueError(f"position {i} is already set to {b[i]}")
    if l not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1, got {l}")
    return b[:i] + (l,) + b[i + 1 :]


def all_partials(n: int) -> Iterator[Partial]:
    return itertools.product((0, 1, STAR), repeat=n)


def all_assignments(n: int) -> Iterator[Assignment]:
    return itertools.product((0, 1), repeat=n)


def rank_sums(coeffs) -> list:
    """sum(a_i * x_i) at every full assignment, in all_assignments order, by
    doubling: the positions are added last to first, each one as the new
    most significant bit of the rank."""
    sums = [0]
    for a in reversed(coeffs):
        sums += [s + a for s in sums]
    return sums


def encode(b: Partial) -> int:
    """Index of b in the 3^n tables: sum of b_i * 3^(n-1-i), so that key
    order is all_partials order and both extensions of b at an untested
    position have smaller keys."""
    key = 0
    for v in b:
        key = 3 * key + v
    return key


def to_string(b: Partial) -> str:
    return "".join("*" if v == STAR else str(v) for v in b)


# ---------------------------------------------------------------------------
# distributions and costs


@dataclass(frozen=True)
class ProductDistribution:
    """Independent bits with Prob[x_i = 1] = p[i].

    Mode "sbfe" requires every p_i strictly inside (0, 1) so that every
    branch of a strategy is realized.  Mode "sssc" (pure covering) allows
    the degenerate endpoints, including the deterministic all-ones case.
    """

    p: tuple
    mode: str = "sbfe"

    def __post_init__(self):
        object.__setattr__(self, "p", tuple(float(v) for v in self.p))
        if self.mode not in ("sbfe", "sssc"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not self.p:
            raise ValueError("need at least one probability")
        for i, v in enumerate(self.p):
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"p[{i}] = {v} outside [0, 1]")
            if self.mode == "sbfe" and (v == 0.0 or v == 1.0):
                raise ValueError(f"p[{i}] = {v} not allowed: must be strictly in (0, 1)")

    @classmethod
    def certain_ones(cls, n: int) -> "ProductDistribution":
        """Deterministic all-ones outcomes (covering mode)."""
        return cls((1.0,) * n, mode="sssc")


@dataclass(frozen=True)
class CostVector:
    """Finite nonnegative per-test costs."""

    c: tuple

    def __post_init__(self):
        c = tuple(map(float, self.c))
        object.__setattr__(self, "c", c)
        if all(map(math.isfinite, c)) and min(c, default=0.0) >= 0:
            return
        for i, v in enumerate(c):
            if not math.isfinite(v):
                raise ValueError(f"c[{i}] = {v} is not finite")
            if v < 0:
                raise ValueError(f"c[{i}] = {v} is negative")


def as_probabilities(d) -> tuple:
    if isinstance(d, ProductDistribution):
        return d.p
    return ProductDistribution(tuple(d)).p


def as_costs(c) -> tuple:
    if isinstance(c, CostVector):
        return c.c
    return CostVector(tuple(c)).c


def sample_input(d, seed: int) -> Assignment:
    """Draw one full assignment; deterministic for a fixed seed (Mersenne Twister)."""
    p = as_probabilities(d)
    rng = random.Random(seed)
    return tuple(1 if rng.random() < pi else 0 for pi in p)


# ---------------------------------------------------------------------------
# decision trees


@dataclass(frozen=True)
class Leaf:
    label: object


@dataclass(frozen=True)
class Branch:
    index: int
    if0: "Leaf | Branch"
    if1: "Leaf | Branch"


def tree_leaf_paths(t) -> Iterator[tuple]:
    """Yield (path, label) pairs; a path is a tuple of (index, outcome) steps."""
    stack = [(t, ())]
    while stack:
        node, path = stack.pop()
        if isinstance(node, Leaf):
            yield path, node.label
        else:
            stack.append((node.if1, path + ((node.index, 1),)))
            stack.append((node.if0, path + ((node.index, 0),)))


# ---------------------------------------------------------------------------
# certificates

# An instance is any object with an integer ``arity``, a fast
# ``certificate(b) -> label | None`` on partial assignments, and a flag
# encoding of its labels: ``flag_planes()`` gives K planes, one per two-bit
# flag field, each a ``bytes`` of the field's value at every full assignment
# in all_assignments rank order.  A Boolean output v is the field 1 << v.
# The fields of a partial assignment b are the AND of the fields of its
# extensions, and b forces a label exactly when every field stays nonzero.
# The planes are built from the instance's own data, never from
# ``certificate``; the optimum and certificate_table read them once per
# call and widen them into one 3^n table (_certified_table): a single
# plane, widened, is that table, and several are ANDed into it.  That is
# the whole protocol: no instance evaluates a full assignment, and the
# tests' reference ``evaluate`` reads each kind's raw fields instead.  A
# constant function needs nothing more: ``certificate(stars(n))`` gives its
# label, and its utility has goal 0.


def certificate_check(f, b: Partial) -> Optional[object]:
    """Label forced by b, from the instance's own certificate shortcut."""
    return f.certificate(b)


_NONZERO_TO_ONE = bytes([0]) + bytes([1]) * 255
_ZERO_TO_ONE = bytes([1]) + bytes(255)


def certificate_table(f) -> bytes:
    """Certified mask of every partial assignment b, indexed by encode(b):
    byte 1 where b forces the instance's label, 0 elsewhere.

    Built bottom-up with no certificate call (see _certified_table), then
    one translate of its nonzero bytes to 1.
    """
    n = f.arity
    if n > OPTIMUM_MAX_N:
        raise LimitError(f"certificate table limited to n <= {OPTIMUM_MAX_N}, got {n}")
    return _certified_table(f.flag_planes(), n).translate(_NONZERO_TO_ONE)


def _certified_table(planes, n: int) -> bytes:
    """The 3^n table of flag planes over n positions, indexed by encode(b):
    nonzero exactly where b is certified, that is, where the field of every
    plane is nonzero.  One plane is its own table, its field at each b;
    several give one AND of their nonzero indicators, a 0/1 table; with
    none, every state is certified.

    Each plane takes n whole-plane steps, one per position from last to
    first.  The positions still binary are the low digits of an index, the
    last of them least significant, so a step's 0 and 1 slices are the even
    and odd bytes.  Its star slice is their AND, and the three slices become
    the step position's ternary digit, above the ones made before; after n
    steps the index is encode(b).
    """
    if not planes:
        return bytes([1]) * 3**n
    mask = -1
    for plane in planes:
        for _ in range(n):
            zero, one = plane[0::2], plane[1::2]
            star = int.from_bytes(zero, "little") & int.from_bytes(one, "little")
            star = star.to_bytes(len(zero), "little")  # frees the int before the join
            plane = b"".join((zero, one, star))
        if len(planes) == 1:
            return plane
        mask &= int.from_bytes(plane.translate(_NONZERO_TO_ONE), "little")
    return mask.to_bytes(3**n, "little")


def _squeeze(planes, c) -> tuple:
    """(planes, kept): the flag planes restricted to the positions kept, in
    rank order over those, and the kept positions in increasing order.

    A position is dropped when no plane depends on it and its cost is at
    least 2^-40 of the total.  Planes are read from the last position to
    the first, each then the least significant binary digit: it is
    irrelevant where every plane's even bytes equal its odd bytes.  A kept
    position moves above the others (zero + one); a dropped one keeps its
    0 slice.

    The cost margin keeps the optimum bitwise equal.  Both children of a
    test of a dropped i are worth the value W of its parent without i, and
    c_i + p_i*W + (1-p_i)*W can round a few ulps below W (one 5e-324 step
    where W is subnormal), which would make it the minimum.  W is at most
    about the total, so a cost of 2^-40 of it lifts the candidate to W or
    above.  The test reads c_i * 2^40 >= total, which cannot underflow to
    0 and let a zero cost through when the total is subnormal.
    """
    total = sum(c)
    kept = []
    for i in reversed(range(len(c))):
        halves = [(plane[0::2], plane[1::2]) for plane in planes]
        if c[i] * 2**40 < total or any(zero != one for zero, one in halves):
            kept.append(i)
            planes = [zero + one for zero, one in halves]
        else:
            planes = [zero for zero, _ in halves]
    kept.reverse()
    return planes, kept


# ---------------------------------------------------------------------------
# exact policy evaluation

# A policy exposes three methods:
#   initial_state() -> state
#   next_test(b, state) -> index or None (None means stop)
#   advance(b, state, i) -> (state after outcome 0, state after outcome 1) of test i
# State must be an immutable value so branches of the evaluation can share it.
# The walk calls advance once at each node that tests, right after next_test
# and with the same tuple b (see GreedyPolicy).


def _append_step(path, b, i, outcome):
    return path + ((i, outcome),)


def walk_policy(policy, n: int, leaf, branch, grow=_append_step, inputs=None):
    """Send a policy down the decision tree it induces on n positions.

    ``leaf(b, state, path)`` is the value where the policy stops, b being
    the final partial assignment.  Without ``inputs`` the walk is a
    post-order fold of the whole tree: ``branch(i, if0, if1)`` combines the
    values of the two outcomes of test i, and the root's value is returned.
    With a list of full assignments as ``inputs``, it visits only the
    outcomes some input reaches and returns each input's leaf value in input
    order, asking each leaf once.  An input whose length is not n raises
    ValueError before the walk starts, and so does an outcome it tests that
    is not a bit.  Outcome 0 goes first.  A test out of range or already
    done raises PolicyError, which also stops any path at n tests.  The
    walk keeps its own stack, so no tree is too deep for it.

    At a node b that tests i, one ``advance(b, state, i)`` call gives both
    child states.  ``path`` accumulates down the tree from ``()`` at the
    root: ``grow(path, b, i, outcome)`` is the child's path; by default,
    the tuple of (index, outcome) steps that led there.  The child states
    and paths of the outcomes to visit are made right after
    ``next_test(b, ...)``, before either subtree is walked, so a policy or
    a ``grow`` may read what ``next_test`` computed at b and nothing of b
    need outlive that.
    """
    next_test, advance = policy.next_test, policy.advance
    fold = inputs is None
    if not fold:
        for x in inputs:
            if len(x) != n:
                raise ValueError(f"input {tuple(x)!r} has length {len(x)}, not {n}")
    values = [] if fold else [None] * len(inputs)  # the fold's value stack
    # nodes (b, state, path, inputs reaching it), and the fold's pending tests
    todo = [(stars(n), policy.initial_state(), (), None if fold else range(len(inputs)))]
    while todo:
        node = todo.pop()
        if node.__class__ is int:
            hi = values.pop()
            values[-1] = branch(node, values[-1], hi)
            continue
        b, state, path, ks = node
        i = next_test(b, state)
        if i is None:
            value = leaf(b, state, path)
            if fold:
                values.append(value)
            else:
                for k in ks:
                    values[k] = value
            continue
        if not 0 <= i < n or b[i] != STAR:
            raise PolicyError(f"policy requested illegal test {i} at {to_string(b)}")
        if fold:
            todo.append(i)
            k0 = k1 = None  # both outcomes are visited
        else:
            k0, k1 = [], []
            for k in ks:
                v = inputs[k][i]
                if v == 0:
                    k0.append(k)
                elif v == 1:
                    k1.append(k)
                else:
                    raise ValueError(f"outcome {v!r} for test {i} is not a bit")
        s0, s1 = advance(b, state, i)
        if fold or k1:
            todo.append((b[:i] + (1,) + b[i + 1 :], s1, grow(path, b, i, 1), k1))
        if fold or k0:
            todo.append((b[:i] + (0,) + b[i + 1 :], s0, grow(path, b, i, 0), k0))
    return values[0] if fold else values


def expected_cost(policy, d, c) -> float:
    """Exact expected testing cost of a policy under a product distribution.

    Folds over the induced decision tree, weighting the two outcomes of each
    test by p_i and (1 - p_i).  Equals the sum over all x of p(x) times the
    cost the policy incurs on x.
    """
    p = as_probabilities(d)
    cc = as_costs(c)
    n = len(p)
    if len(cc) != n:
        raise ValueError("arity mismatch between costs and distribution")
    return walk_policy(
        policy,
        n,
        lambda b, state, path: 0.0,
        lambda i, lo, hi: cc[i] + p[i] * hi + (1.0 - p[i]) * lo,
    )


# ---------------------------------------------------------------------------
# exhaustive optimal oracle


def optimal_expected_cost(f, d, c) -> float:
    """Minimum expected evaluation cost over all testing strategies.

    The positions no flag plane depends on are squeezed out first (see
    _squeeze): a test of such a position leaves both children worth the
    same, so it never lowers the minimum, and the program runs on the k
    positions kept, with their p and c.  The value is bitwise the one over
    all n positions.

    Dynamic program over the 3^k partial assignments, indexed by encode(b):
    a state costs nothing once the certified table (_certified_table) says
    it forces a label; otherwise it costs min_i c_i + p_i * OPT(b with i=1)
    + (1-p_i) * OPT(b with i=0) over the untested i.  Both extensions have
    smaller keys, so one pass in key order over the uncertified states
    fills every value.  The pass goes one block of keys at a time, a block
    being the keys that share their high digits, and one level of blocks at
    a time, a level being the number of untested high positions.  A block
    stays the Python list it is computed in: its low children sit in it,
    and its high children are whole blocks one level below, read as they
    are.  Three things fix a block's values: its slice of the table, its
    untested high positions with their p and c, and which lists its high
    children are.  The blocks of a level that agree on all three share one
    list, filled once, so a repeated block costs one dict look-up.  The
    all-certified blocks are the fast case of this: one list of zeros that
    every level shares, found by searching a block's slice for a zero byte,
    and only a block that holds one is translated into the 0/1 selector of
    its uncertified states.  The set-up holds the one table, a byte per
    state, throughout, and under three while a plane's last widening step
    runs.  Two levels are held at a time, so an uncertified state of a
    distinct block costs a list slot and a float, 32 bytes, while its level
    and the next are held.  At k = 14 tracemalloc's peak is 13-15 MB where
    few states are uncertified (a disjunction, a threshold with 6%), 30 MB
    on a threshold with 33%, 42 MB on one with 57%, 45% of whose blocks
    repeat, and 72-90 MB on a linear system and a threshold set with 76%
    and 90%, whose blocks repeat less.  The cap, OPTIMUM_MAX_N, applies to
    n, not k.
    """
    n = f.arity
    p = as_probabilities(d)
    cc = as_costs(c)
    if n > OPTIMUM_MAX_N:
        raise LimitError(f"exhaustive optimum limited to n <= {OPTIMUM_MAX_N}, got {n}")
    if len(p) != n or len(cc) != n:
        raise ValueError("arity mismatch")
    for i, v in enumerate(p):
        if v in (0.0, 1.0):
            raise ValueError(f"p[{i}] = {v}: optimum oracle needs 0 < p_i < 1")

    planes, kept = _squeeze(f.flag_planes(), cc)
    n = len(kept)
    p = [p[i] for i in kept]
    cc = [cc[i] for i in kept]
    certified = _certified_table(planes, n)
    weight = [3 ** (n - 1 - i) for i in range(n)]
    step = [(weight[i], 2 * weight[i], cc[i], p[i], 1.0 - p[i]) for i in range(n)]

    # A key splits into high digits (positions before n - low) and low
    # digits; the untested positions of each half are tabulated once.
    low = n // 2
    low_size = 3**low

    def untested(positions):
        # one position at a time, as the new lowest digit: 0, 1, STAR
        lists = [()]
        for i in positions:
            lists = [t + e for t in lists for e in ((), (), (step[i],))]
        return lists

    # A low position's children sit in the same block, at these indices.
    in_block = [
        (lo, tuple((lo - w1, lo - w0, ci, pi, qi) for w1, w0, ci, pi, qi in steps))
        for lo, steps in enumerate(untested(range(n - low, n)))
    ]
    # The blocks by level, the number of untested high positions: a high
    # position's children are whole blocks one level below, read at the same
    # low index.
    levels = [[] for _ in range(n - low + 1)]
    for high, high_steps in enumerate(untested(range(n - low))):
        levels[len(high_steps)].append((high * low_size, high_steps))
    zeros = [0.0] * low_size  # every block whose states are all certified
    inf = math.inf
    below = {}  # the last level's blocks by base key
    for level in levels:
        done = {}
        shared = {}  # this level's blocks by what fixes their values
        for base, high_steps in level:
            sel = certified[base : base + low_size]
            if 0 not in sel:
                done[base] = zeros
                continue
            children = [(below[base - w1], below[base - w0], ci, pi, qi)
                        for w1, w0, ci, pi, qi in high_steps]
            # the child lists stay in `below` for the whole level, so their
            # ids name them
            key = (sel, high_steps, *[(id(one), id(zero)) for one, zero, _, _, _ in children])
            block = shared.get(key)
            if block is None:
                block = shared[key] = [0.0] * low_size
                for lo, steps in itertools.compress(in_block, sel.translate(_ZERO_TO_ONE)):
                    best = inf  # an uncertified state has an untested position
                    for one, zero, ci, pi, qi in children:
                        v = ci + pi * one[lo] + qi * zero[lo]
                        if v < best:
                            best = v
                    for a1, a0, ci, pi, qi in steps:
                        v = ci + pi * block[a1] + qi * block[a0]
                        if v < best:
                            best = v
                    block[lo] = best
            done[base] = block
        below = done
    (top,) = below.values()  # the one block with every high position untested
    return top[-1]


# ---------------------------------------------------------------------------
# run records


@dataclass(frozen=True)
class RunTrace:
    """Record of one adaptive run: tests in order, observed outcomes, cost,
    and the partial assignment ``final`` the run stopped at."""

    tested: tuple
    outcomes: tuple
    total_cost: float
    final: Partial

    def __post_init__(self):
        if len(self.tested) != len(set(self.tested)):
            raise ValueError("trace repeats a test")
        if len(self.tested) != len(self.outcomes):
            raise ValueError("one outcome per test required")
