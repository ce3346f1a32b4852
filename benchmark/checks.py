"""Output checks that do not rely on sbfe.

Every check recomputes what it needs from the raw inputs with its own
arithmetic (formula values, forcing sums, closed forms, enumeration), or
tests a property the method must have.  None compares against a stored copy
of earlier output.  A failed check raises CheckError.
"""
from __future__ import annotations

import math
import re

TOL = 1e-6  # the slack sbfe itself allows on cost <= bound * opt


class CheckError(AssertionError):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# arithmetic on raw instance data


def threshold_sum(coeffs, x) -> int:
    return sum(a for a, v in zip(coeffs, x) if v == 1)


def forced_range(coeffs, tested: dict) -> tuple:
    """(min, max) of sum(a_i x_i) over inputs agreeing with ``tested``."""
    lo = hi = 0
    for i, a in enumerate(coeffs):
        if i in tested:
            lo += a * tested[i]
            hi += a * tested[i]
        elif a < 0:
            lo += a
        else:
            hi += a
    return lo, hi


def threshold_forces(coeffs, theta, tested: dict):
    """Label the tested bits force on a threshold formula, or None."""
    lo, hi = forced_range(coeffs, tested)
    if lo >= theta:
        return 1
    if hi < theta:
        return 0
    return None


def threshold_goal(coeffs, theta) -> int:
    """Goal of the threshold covering utility: (-r_min) * (r_max + 1)."""
    lo, hi = forced_range(coeffs, {})
    if lo >= theta or hi < theta:
        return 0
    return (theta - lo) * (hi - theta + 1)


def literal_value(lit: int, bits: dict):
    v = bits.get(abs(lit) - 1)
    if v is None:
        return None
    return v if lit > 0 else 1 - v


def dnf_value(terms, x) -> int:
    full = dict(enumerate(x))
    return int(any(all(literal_value(l, full) == 1 for l in t) for t in terms))


def cnf_value(clauses, x) -> int:
    full = dict(enumerate(x))
    return int(all(any(literal_value(l, full) == 1 for l in cl) for cl in clauses))


def cdnf_forces(clauses, terms, tested: dict):
    """1 when every clause has a true literal, 0 when every term has a false
    literal, else None."""
    if all(any(literal_value(l, tested) == 1 for l in cl) for cl in clauses):
        return 1
    if all(any(literal_value(l, tested) == 0 for l in t) for t in terms):
        return 0
    return None


def pair_goal(row_i, row_j) -> int:
    delta = [a - b for a, b in zip(row_i, row_j)]
    hi = sum(a for a in delta if a > 0)
    lo = sum(a for a in delta if a < 0)
    return (hi if hi > 0 else 0) * (-lo if lo < 0 else 0)


def greedy_goal(data: dict) -> int:
    """Goal Q of the utility sbfe builds for a file, from the raw fields."""
    kind = data["kind"]
    if kind == "threshold":
        return threshold_goal(data["coefficients"], data["theta"])
    if kind == "thresholds":
        return sum(threshold_goal(s["coefficients"], s["theta"]) for s in data["formulas"])
    if kind == "cdnf":
        return len(data["clauses"]) * len(data["terms"])
    if kind == "disjunction":
        return data["n"]
    if kind == "truthtable":
        ones = sum(data["table"])
        return ones * (len(data["table"]) - ones)
    if kind == "linear-system":
        rows = data["functions"]
        return sum(
            pair_goal(rows[i], rows[j]) for i in range(len(rows)) for j in range(i + 1, len(rows))
        )
    raise CheckError(f"no goal for kind {kind!r}")


def disjunction_opt(p, c) -> float:
    """Expected cost of testing a disjunction in increasing c/p order,
    stopping at the first 1: the exact optimum."""
    order = sorted(range(len(p)), key=lambda i: (c[i] / p[i], i))
    total = 0.0
    reach = 1.0
    for i in order:
        total += reach * c[i]
        reach *= 1.0 - p[i]
    return total


def knapsack_opt(values, weights, theta) -> float:
    """Least total weight of a subset whose values reach theta.

    Subset enumeration for n <= 12; above that a dynamic program over total
    weight, which needs integral weights (the generator draws integers)."""
    n = len(values)
    if theta <= 0:
        return 0.0
    if n <= 12:
        best = math.inf
        for mask in range(1 << n):
            v = w = 0
            for i in range(n):
                if mask >> i & 1:
                    v += values[i]
                    w += weights[i]
            if v >= theta and w < best:
                best = w
        return float(best)
    require(all(float(w).is_integer() for w in weights), "knapsack DP needs integral weights")
    total = int(sum(weights))
    most = [0] + [-1] * total  # most value at exactly this weight
    for v, w in zip(values, weights):
        w = int(w)
        for t in range(total, w - 1, -1):
            if most[t - w] >= 0 and most[t - w] + v > most[t]:
                most[t] = most[t - w] + v
    return float(next(t for t in range(total + 1) if most[t] >= theta))


# ---------------------------------------------------------------------------
# eval rows


def parse_csv_rows(text: str) -> list:
    lines = text.splitlines()
    require(len(lines) >= 2, f"eval printed {len(lines)} lines")
    head = lines[0].split(",")
    require(
        head == ["instance-id", "kind", "n", "engine", "expected_cost", "opt", "ratio",
                 "bound", "alpha", "pass"],
        f"unexpected eval header {lines[0]!r}",
    )
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        require(len(cells) == len(head), f"bad eval row {line!r}")
        row = dict(zip(head, cells))
        for key in ("expected_cost", "opt", "ratio", "bound", "alpha"):
            row[key] = float(row[key]) if row[key] else None
        row["n"] = int(row["n"])
        rows.append(row)
    return rows


def check_eval_file(data: dict, rows: dict) -> None:
    """``rows`` maps engine name to the one row sbfe eval printed for the
    file in ``data`` (the raw JSON the benchmark wrote)."""
    kind = data["kind"]
    n = data["n"]
    opts = {row["opt"] for row in rows.values()}
    require(len(opts) == 1, f"{data['id']}: engines disagree on opt: {opts}")
    opt = opts.pop()
    require(opt is not None and opt >= 0.0, f"{data['id']}: no optimum")
    for engine, row in rows.items():
        where = f"{data['id']} {engine}"
        require(row["instance-id"] == data["id"] and row["kind"] == kind and row["n"] == n,
                f"{where}: row names another file")
        require(row["pass"] == "true", f"{where}: pass={row['pass']}")
        cost = row["expected_cost"]
        require(cost is not None and cost >= opt - TOL, f"{where}: cost {cost} below opt {opt}")
        if opt > 0:
            require(abs(row["ratio"] - cost / opt) <= 1e-9 * max(1.0, cost / opt),
                    f"{where}: ratio {row['ratio']} is not cost/opt")
        if kind == "knapsack":
            bound = 2.0
        elif row["engine"] == "constant":
            require(cost == 0.0, f"{where}: constant function with cost {cost}")
            continue
        elif engine == "greedy":
            q = greedy_goal(data)
            bound = math.log(q) + 1.0 if q else 0.0
        elif engine == "baseline":
            bound = float(n)
        elif kind == "threshold":
            bound = 3.0
        elif kind == "thresholds":
            bound = float(max(sum(abs(a) for a in s["coefficients"]) for s in data["formulas"]))
        else:  # adg elsewhere is bounded by its observed alpha, which is >= 1
            require(row["alpha"] is not None and row["alpha"] >= 1.0, f"{where}: alpha {row['alpha']}")
            bound = row["alpha"]
        require(abs(row["bound"] - bound) <= 1e-9 * max(1.0, bound),
                f"{where}: printed bound {row['bound']}, expected {bound}")
        require(cost <= bound * opt + TOL, f"{where}: cost {cost} above {bound} x opt {opt}")
    if kind == "disjunction":
        ref = disjunction_opt(data["p"], data["c"])
        require(abs(opt - ref) <= 1e-9 * max(1.0, ref), f"{data['id']}: opt {opt}, c/p order {ref}")
    if kind == "knapsack":
        ref = knapsack_opt(data["values"], data["weights"], data["theta"])
        require(abs(opt - ref) <= 1e-9, f"{data['id']}: opt {opt}, enumeration {ref}")


# ---------------------------------------------------------------------------
# online evaluations


def check_trace(tested, outcomes, total_cost, x, c) -> dict:
    require(len(set(tested)) == len(tested), "a bit was tested twice")
    require(len(outcomes) == len(tested), "one outcome per test")
    for i, v in zip(tested, outcomes):
        require(x[i] == v, f"outcome of bit {i} is not the hidden input's")
    paid = sum(c[i] for i in tested)
    require(abs(total_cost - paid) <= 1e-9 * max(1.0, paid), f"cost {total_cost}, tests sum {paid}")
    return dict(zip(tested, outcomes))


def check_threshold_answer(coeffs, theta, c, x, answer, trace) -> None:
    truth = int(threshold_sum(coeffs, x) >= theta)
    require(answer == truth, f"threshold answered {answer}, input gives {truth}")
    tested = check_trace(trace.tested, trace.outcomes, trace.total_cost, x, c)
    require(threshold_forces(coeffs, theta, tested) == truth, "tested bits do not force the answer")


def check_cdnf_answer(clauses, terms, c, x, answer, trace) -> None:
    truth = dnf_value(terms, x)
    require(cnf_value(clauses, x) == truth, "the file's CNF and DNF disagree")
    require(answer == truth, f"cdnf answered {answer}, input gives {truth}")
    tested = check_trace(trace.tested, trace.outcomes, trace.total_cost, x, c)
    require(cdnf_forces(clauses, terms, tested) == truth, "tested bits do not force the answer")


def check_simultaneous_answer(formulas, c, x, answer, trace) -> None:
    require(len(answer) == len(formulas), "one answer per formula")
    tested = check_trace(trace.tested, trace.outcomes, trace.total_cost, x, c)
    for (coeffs, theta), bit in zip(formulas, answer):
        truth = int(threshold_sum(coeffs, x) >= theta)
        require(bit == truth, f"formula answered {bit}, input gives {truth}")
        require(threshold_forces(coeffs, theta, tested) == truth, "tested bits do not force a formula")


def check_ranking_answer(rows, c, x, permutation, trace) -> None:
    require(sorted(permutation) == list(range(len(rows))), f"{permutation} is not a permutation")
    values = [threshold_sum(rows[j], x) for j in permutation]
    require(all(a <= b for a, b in zip(values, values[1:])), f"values {values} out of order")
    check_trace(trace.tested, trace.outcomes, trace.total_cost, x, c)


def check_knapsack_answer(values, weights, theta, items, cost, opt) -> None:
    require(len(set(items)) == len(items), "an item was picked twice")
    require(sum(values[i] for i in items) >= theta, "picked items fall short of theta")
    paid = sum(weights[i] for i in items)
    require(abs(cost - paid) <= 1e-9 * max(1.0, paid), f"cost {cost}, weights sum {paid}")
    require(cost <= 2.0 * opt + TOL, f"cost {cost} above 2 x opt {opt}")


# ---------------------------------------------------------------------------
# verify reports

VERIFY_LINES = 26
_WORST = re.compile(r"\(worst ([0-9.]+|inf)\)")
# Bounds of the ratio lines.  Symbolic bounds are replaced by what they are
# at most on sbfe's batteries: at most 4 clauses and 4 terms per CNF/DNF
# pair (k*d <= 16), n <= 8, at most 3 threshold formulas over coefficients
# in [-3, 3] (mass <= 24, sum of goals <= 3 * 13 * 13).
_RATIO_BOUNDS = (
    ("threshold adg ratio <= 3 ", 3.0),
    ("cdnf greedy ratio <= ln(kd)+1 ", math.log(16) + 1.0),
    ("cdnf greedy ratio <= 2(ln P + 1) ", 2.0 * (math.log(16) + 1.0)),
    ("disjunction cost/prob ordering exact ", 1.0),
    ("increasing-cost baseline ratio <= n ", 8.0),
    ("simultaneous greedy ratio <= ln(sum goals)+1 ", math.log(3 * 13 * 13) + 1.0),
    ("simultaneous adg ratio <= max coefficient mass ", 24.0),
)


def check_verify_report(rc: int, text: str) -> list:
    """Exit 0, 26 PASS lines, every worst ratio in [1, bound]; returns the
    printed worst ratios."""
    require(rc == 0, f"verify exited {rc}")
    lines = text.splitlines()
    require(len(lines) == VERIFY_LINES, f"verify printed {len(lines)} lines")
    for line in lines:
        require(line.startswith("[PASS] "), f"not a PASS line: {line!r}")
    worst = []
    for prefix, bound in _RATIO_BOUNDS:
        hits = [line for line in lines if line[len("[PASS] "):].startswith(prefix)]
        require(len(hits) == 1, f"{len(hits)} lines for {prefix.strip()!r}")
        m = _WORST.search(hits[0])
        require(m is not None, f"no worst ratio in {hits[0]!r}")
        w = float(m.group(1))
        require(1.0 - 1e-9 <= w <= bound + 1e-9, f"worst {w} outside [1, {bound}] in {hits[0]!r}")
        worst.append(w)
    for line in lines:
        if line.startswith("[PASS] dual-feasibility"):
            gap = float(line.rsplit("objective gap ", 1)[1])
            require(gap <= 1e-6, f"objective gap {gap} in {line!r}")
    return worst
