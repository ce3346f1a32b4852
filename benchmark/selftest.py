#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

    python3 benchmark/selftest.py

Produces real sbfe outputs on small inputs, checks that each checker accepts
them, then feeds each checker corrupted copies and checks that it rejects
every one.  Prints one line per case; exits 1 if any case goes wrong.
"""
from __future__ import annotations

import dataclasses
import json
import os
import random
import sys
import tempfile

import run

sbfe = run.import_sbfe()
if sbfe is None:
    sys.exit(f"error: no sbfe package under {run.SRC}")
import checks  # noqa: E402  (needs the path set up by import_sbfe)

failures = []


def expect(name: str, ok: bool, fn) -> None:
    try:
        fn()
        accepted = True
    except checks.CheckError:
        accepted = False
    good = accepted == ok
    print(f"[{'ok' if good else 'WRONG'}] {'accepts' if ok else 'rejects'} {name}")
    if not good:
        failures.append(name)


def eval_rows(tmp: str, kind: str, n: int, seed: int, engines) -> tuple:
    inst = sbfe.instances.generate_instance(kind, n, seed, m=2)
    path = os.path.join(tmp, f"{kind}.json")
    sbfe.instances.save(inst, path)
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    rows = {}
    for engine in engines:
        out = os.path.join(tmp, f"{kind}-{engine}.csv")
        assert sbfe.cli.main(["eval", path, "--engine", engine, "--out", out]) == 0
        with open(out, encoding="utf-8") as fh:
            (rows[engine],) = checks.parse_csv_rows(fh.read())
    return data, rows


def corrupt(rows: dict, engine: str, **changes) -> dict:
    out = {k: dict(v) for k, v in rows.items()}
    out[engine].update(changes)
    return out


def test_eval(tmp: str) -> None:
    for kind, engines in (("threshold", ("greedy", "baseline", "adg")),
                          ("disjunction", ("greedy", "baseline")),
                          ("knapsack", ("greedy",)),
                          ("truthtable", ("adg",))):
        data, rows = eval_rows(tmp, kind, 6, 11, engines)
        check = lambda r: checks.check_eval_file(data, r)
        expect(f"eval {kind} rows", True, lambda: check(rows))
        e = engines[0]
        opt = rows[e]["opt"]
        cost = rows[e]["expected_cost"]
        expect(f"eval {kind}: cost below opt", False,
               lambda: check(corrupt(rows, e, expected_cost=0.5 * opt,
                                     ratio=0.5 if opt else None)))
        expect(f"eval {kind}: pass=false", False, lambda: check(corrupt(rows, e, **{"pass": "false"})))
        expect(f"eval {kind}: cost above bound x opt", False,
               lambda: check(corrupt(rows, e, expected_cost=(rows[e]["bound"] + 1) * opt,
                                     ratio=rows[e]["bound"] + 1)))
        expect(f"eval {kind}: ratio not cost/opt", False,
               lambda: check(corrupt(rows, e, ratio=cost / opt + 0.25)))
        if len(engines) > 1:
            expect(f"eval {kind}: engines disagree on opt", False,
                   lambda: check(corrupt(rows, engines[1], opt=opt * 1.01)))
        if kind in ("disjunction", "knapsack"):
            for engine in engines:  # same wrong opt everywhere, cost still >= opt
                rows = corrupt(rows, engine, opt=opt * 0.999,
                               ratio=rows[engine]["expected_cost"] / (opt * 0.999))
            expect(f"eval {kind}: opt off the independent optimum", False, lambda: check(rows))


def test_online() -> None:
    p_mod, inst_mod = sbfe.problems, sbfe.instances
    rng = random.Random(5)
    n = 12
    f = inst_mod.gen_threshold(rng, n)
    p = inst_mod.gen_probabilities(rng, n)
    c = inst_mod.gen_costs(rng, n)
    d = sbfe.core.ProductDistribution(p)
    x = tuple(rng.randrange(2) for _ in range(n))
    answer, trace = p_mod.evaluate_threshold_greedy(f, d, c, x)
    check = lambda a, t: checks.check_threshold_answer(f.coeffs, f.theta, c, x, a, t)
    expect("threshold answer", True, lambda: check(answer, trace))
    expect("threshold: flipped answer", False, lambda: check(1 - answer, trace))
    expect("threshold: trace cost off", False,
           lambda: check(answer, dataclasses.replace(trace, total_cost=trace.total_cost + 1)))
    short = dataclasses.replace(trace, tested=trace.tested[:-1], outcomes=trace.outcomes[:-1],
                                total_cost=trace.total_cost - c[trace.tested[-1]])
    expect("threshold: tested bits do not force the answer", False, lambda: check(answer, short))

    g = inst_mod.gen_cdnf(rng, n)
    answer, trace = p_mod.evaluate_cdnf(g, d, c, x)
    clauses = [sorted(cl) for cl in g.clauses]
    terms = [sorted(t) for t in g.terms]
    check = lambda a, t: checks.check_cdnf_answer(clauses, terms, c, x, a, t)
    expect("cdnf answer", True, lambda: check(answer, trace))
    expect("cdnf: flipped answer", False, lambda: check(1 - answer, trace))
    if trace.tested:
        short = dataclasses.replace(trace, tested=trace.tested[:-1], outcomes=trace.outcomes[:-1],
                                    total_cost=trace.total_cost - c[trace.tested[-1]])
        expect("cdnf: tested bits do not force the answer", False, lambda: check(answer, short))

    fs = inst_mod.gen_threshold_set(rng, 2, n)
    bits, trace = p_mod.simultaneous_thresholds(fs, d, c, x)
    formulas = [(h.coeffs, h.theta) for h in fs.formulas]
    check = lambda a, t: checks.check_simultaneous_answer(formulas, c, x, a, t)
    expect("simultaneous answer", True, lambda: check(bits, trace))
    expect("simultaneous: one flipped bit", False, lambda: check((1 - bits[0],) + bits[1:], trace))

    ls = sbfe.utility.LinearSystem(((3, 0, 1, 0), (0, 2, 0, 0), (1, 1, 1, 1)))
    d4 = sbfe.core.ProductDistribution((0.5,) * 4)
    x4 = (1, 1, 0, 1)
    ranking, trace = p_mod.rank_linear_functions(ls, d4, (1.0,) * 4, x4)
    check = lambda perm: checks.check_ranking_answer(ls.coeffs, (1.0,) * 4, x4, perm, trace)
    expect("ranking answer", True, lambda: check(ranking.permutation))
    expect("ranking: reversed order", False, lambda: check(ranking.permutation[::-1]))

    kp = sbfe.problems.KnapsackInstance((5, 4, 3, 2, 6), (4.0, 3.0, 2.0, 1.0, 5.0), 9)
    items, cost = p_mod.min_knapsack_adg(kp)
    opt = checks.knapsack_opt(kp.values, kp.weights, kp.threshold)
    check = lambda it, co, o: checks.check_knapsack_answer(kp.values, kp.weights, kp.threshold, it, co, o)
    expect("knapsack answer", True, lambda: check(items, cost, opt))
    expect("knapsack: an item dropped", False,
           lambda: check(items[:-1], cost - kp.weights[items[-1]], opt))
    expect("knapsack: cost off the weights", False, lambda: check(items, cost + 1, opt))
    expect("knapsack: above twice the optimum", False, lambda: check(items, cost, cost / 2.5))
    big = sbfe.problems.KnapsackInstance(tuple(range(1, 15)), tuple(float(1 + i % 4) for i in range(14)), 40)
    expect("knapsack: DP agrees with enumeration", True, lambda: checks.require(
        checks.knapsack_opt(big.values, big.weights, big.threshold)
        == sbfe.problems.min_knapsack_bruteforce(big)[1], "DP and enumeration differ"))


def test_verify(tmp: str) -> None:
    out = os.path.join(tmp, "verify.txt")
    rc = sbfe.cli.main(["verify", "--seed", "3", "--max-n", "6", "--trials", "300", "--out", out])
    with open(out, encoding="utf-8") as fh:
        text = fh.read()
    check = lambda r, t: checks.check_verify_report(r, t)
    expect("verify report", True, lambda: check(rc, text))
    expect("verify: nonzero exit", False, lambda: check(1, text))
    expect("verify: a FAIL line", False, lambda: check(rc, text.replace("[PASS]", "[FAIL]", 1)))
    expect("verify: a line missing", False, lambda: check(rc, text.split("\n", 1)[1]))
    lines = text.splitlines()
    k = next(i for i, l in enumerate(lines) if "threshold adg ratio" in l)
    bad = lines[:k] + ["[PASS] threshold adg ratio <= 3 (worst 3.250)"] + lines[k + 1:]
    expect("verify: worst ratio above its bound", False, lambda: check(rc, "\n".join(bad) + "\n"))
    k = next(i for i, l in enumerate(lines) if "dual-feasibility" in l)
    bad = lines[:k] + [lines[k].rsplit("objective gap ", 1)[0] + "objective gap 1.00e-03"] + lines[k + 1:]
    expect("verify: objective gap too large", False, lambda: check(rc, "\n".join(bad) + "\n"))


def main() -> int:
    with tempfile.TemporaryDirectory(dir=run.HERE) as tmp:
        test_eval(tmp)
        test_online()
        test_verify(tmp)
    print(f"{len(failures)} wrong" if failures else "all checks behave")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
