"""Command-line experiment runner.

Subcommands: gen (write an instance file), eval (cost/optimum/ratio report),
verify (axiom, certificate, dual, and ratio suites), gap-demo (the harmonic
disjunction family where certificates are cheap but strategies are not).
Exit codes: 0 pass, 1 check failure, 2 usage or parse error.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from typing import Optional

from . import instances as inst_mod
from .core import (
    ConstantFunctionError,
    LimitError,
    expected_cost,
    optimal_expected_cost,
    sample_input,
)
from .instances import Instance, InstanceFormatError
from .policies import (
    DualGreedyPolicy,
    GreedyPolicy,
    bounds,
    cost_order_policy,
    cp_ratio_policy,
    run_policy,
)
from .problems import (
    RankingInstance,
    expected_certificate_cost_disjunction,
    harmonic_gap_instance,
    min_knapsack_adg,
    min_knapsack_bruteforce,
    ranking_utility,
)
from .utility import (
    cdnf_utility,
    threshold_utility,
    truth_table_utility,
)
from .verify import (
    ALPHA_MAX_N,
    adg_cost_and_alpha,
    check_axioms,
    check_dual_feasibility,
    check_goal_certificate,
    cost_ratio,
    observed_alpha,
    ratio_vs_opt,
)

# `eval --engine adg` takes its cost and alpha from one adg_cost_and_alpha
# walk and calls neither observed_alpha nor expected_cost.  observed_alpha
# (unused here) and expected_cost stay module globals all the same, because
# benchmark/tracer.py replaces both by name through sbfe.cli.__dict__ to
# time them as layers.

COLUMNS = (
    "instance-id",
    "kind",
    "n",
    "engine",
    "expected_cost",
    "opt",
    "ratio",
    "bound",
    "alpha",
    "pass",
)
RATIO_TOL = 1e-6


# ---------------------------------------------------------------------------
# report plumbing


def _fmt_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write(text: str, out: Optional[str]) -> None:
    """Write a report to the ``--out`` path, or to stdout without one."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_rows(rows, columns, fmt: str, out: Optional[str]) -> None:
    if fmt == "json":
        text = json.dumps(rows, indent=2, sort_keys=True) + "\n"
    else:
        lines = [",".join(columns)]
        for row in rows:
            lines.append(",".join(_fmt_cell(row[col]) for col in columns))
        text = "\n".join(lines) + "\n"
    _write(text, out)


# ---------------------------------------------------------------------------
# eval

# kind -> (utility builder, the object the exhaustive optimum and the
# baseline evaluate, claimed dual-greedy bound from the formula and the
# observed alpha).  Knapsack is not here: eval_instance solves it directly.
# The builders are looked up in this module when called, so a caller that
# replaces sbfe.cli.threshold_utility and the others sees every build.
_EVAL = {
    "threshold": (lambda f: threshold_utility(f), lambda f: f, lambda f, alpha: 3.0),
    "thresholds": (lambda f: f.utility(), lambda f: f, lambda f, alpha: float(f.d_max)),
    "cdnf": (lambda f: cdnf_utility(f), lambda f: f, lambda f, alpha: alpha),
    "truthtable": (lambda f: truth_table_utility(f), lambda f: f, lambda f, alpha: alpha),
    "linear-system": (lambda f: ranking_utility(f), RankingInstance, lambda f, alpha: alpha),
    "disjunction": (lambda f: cdnf_utility(f), lambda f: f, lambda f, alpha: alpha),
}


def _sampled_cost(policy, inst: Instance, trials: int, seed: int) -> float:
    total = 0.0
    for k in range(trials):
        x = sample_input(inst.dist, seed + k)
        total += run_policy(policy, x, inst.n, inst.costs).total_cost
    return total / trials


def _report_row(inst: Instance, engine: str, cost, opt, bound, alpha) -> dict:
    ratio = None
    passed = None
    if opt is not None:
        ratio = cost_ratio(cost, opt, RATIO_TOL)
        if bound is not None:
            passed = cost <= bound * opt + RATIO_TOL
    return {
        "instance-id": inst.id,
        "kind": inst.kind,
        "n": inst.n,
        "engine": engine,
        "expected_cost": cost,
        "opt": opt,
        "ratio": ratio,
        "bound": bound,
        "alpha": alpha,
        "pass": passed,
    }


def engine_policy(engine: str, g, inst: Instance, alpha: Optional[float] = None) -> tuple:
    """The policy an ``--engine`` runs on ``inst`` with utility ``g``, and the
    bound the paper claims for it: ln(goal) + 1 for greedy, the kind's
    dual-greedy bound (3, the largest coefficient mass, or the observed
    ``alpha``) for adg, and n for the increasing-cost baseline."""
    if engine == "greedy":
        return GreedyPolicy(g, inst.dist, inst.costs), bounds(g).lnq_bound
    _, oracle, adg_bound = _EVAL[inst.kind]
    if engine == "adg":
        return DualGreedyPolicy(g, inst.dist, inst.costs), adg_bound(inst.f, alpha)
    return cost_order_policy(inst.costs, oracle(inst.f)), float(inst.n)


def eval_instance(inst: Instance, args) -> dict:
    """One report row; ``args`` holds the ``eval`` flags."""
    if inst.kind == "knapsack":
        _, cost = min_knapsack_adg(inst.f)
        _, opt = min_knapsack_bruteforce(inst.f)
        return _report_row(inst, "adg", cost, opt, 2.0, None)

    build, oracle, _ = _EVAL[inst.kind]
    engine, alpha = args.engine, None
    try:
        g = build(inst.f)
    except ConstantFunctionError:
        engine, cost, bound = "constant", 0.0, 0.0
    else:
        exact = inst.n <= args.max_n
        if engine == "adg" and exact and inst.n <= ALPHA_MAX_N:
            cost, alpha = adg_cost_and_alpha(g, inst.dist, inst.costs)
        policy, bound = engine_policy(engine, g, inst, alpha)
        if alpha is None and exact:
            cost = expected_cost(policy, inst.dist, inst.costs)
        elif alpha is None:
            cost = _sampled_cost(policy, inst, max(1, args.trials), args.seed)

    opt = None
    if inst.n <= args.max_n:
        opt, _ = optimal_expected_cost(oracle(inst.f), inst.dist, inst.costs, limit=args.max_n)
    return _report_row(inst, engine, cost, opt, bound, alpha)


def cmd_eval(args) -> int:
    rows = []
    for path in args.instances:
        try:
            inst = inst_mod.load(path)
        except (InstanceFormatError, OSError) as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            return 2
        try:
            rows.append(eval_instance(inst, args))
        except LimitError as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            return 2
    rows.sort(key=lambda r: r["instance-id"])
    _emit_rows(rows, COLUMNS, args.format, args.out)
    return 0 if all(r["pass"] is not False for r in rows) else 1


# ---------------------------------------------------------------------------
# gen


def cmd_gen(args) -> int:
    try:
        inst = inst_mod.generate_instance(args.kind, args.n, args.seed, m=args.m)
    except (InstanceFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _write(inst_mod.dumps(inst), args.out)
    return 0


# ---------------------------------------------------------------------------
# verify


def _verify_lines(args):
    seed = args.seed
    n_small = min(args.max_n, 6)
    lines = []

    def record(name: str, ok: bool, detail: str = ""):
        lines.append((ok, f"[{'PASS' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail else "")))

    # Utility axioms, exhaustive at small arity and randomized larger.
    axiom_cases = []
    for case in inst_mod.threshold_battery(3, seed, n_lo=3, n_hi=4):
        axiom_cases.append(("threshold", threshold_utility(case.f)))
    for case in inst_mod.cdnf_battery(3, seed + 1, n_lo=3, n_hi=4):
        axiom_cases.append(("cdnf", cdnf_utility(case.f)))
    for case in inst_mod.truth_table_battery(2, seed + 2, n_lo=3, n_hi=4):
        axiom_cases.append(("truthtable", truth_table_utility(case.f)))
    for name, g in axiom_cases:
        rep = check_axioms(g, "exhaustive")
        record(f"axioms exhaustive {name} (n={g.arity})", rep.ok, rep.message)
    for case in inst_mod.threshold_battery(2, seed + 3, n_lo=8, n_hi=8):
        g = threshold_utility(case.f)
        rep = check_axioms(g, "random", trials=args.trials, seed=seed)
        record(f"axioms random threshold (n={g.arity}, {rep.checked} checks)", rep.ok, rep.message)

    # Goal-certificate equivalence.
    for case in inst_mod.threshold_battery(3, seed + 4, n_lo=3, n_hi=n_small):
        rep = check_goal_certificate(threshold_utility(case.f), case.f)
        record(f"goal-certificate {case.id}", rep.ok, rep.message)
    for case in inst_mod.cdnf_battery(3, seed + 5, n_lo=3, n_hi=n_small):
        rep = check_goal_certificate(cdnf_utility(case.f), case.f)
        record(f"goal-certificate {case.id}", rep.ok, rep.message)

    # Dual feasibility and the objective identity.
    for case in inst_mod.threshold_battery(3, seed + 6, n_lo=3, n_hi=n_small):
        cert = check_dual_feasibility(threshold_utility(case.f), case.dist, case.costs)
        record(
            f"dual-feasibility {case.id} ({cert.runs} runs)",
            cert.ok and cert.objective_gap <= 1e-6,
            f"objective gap {cert.objective_gap:.2e}"
            + ("" if cert.ok else f"; {len(cert.violations)} violations"),
        )

    # Cost ratios against the exhaustive optimum.
    def drive(engine):
        """The policy and the bound `sbfe eval --engine` reports for a case."""
        return lambda case: engine_policy(engine, _EVAL[case.kind][0](case.f), case)

    def single_gain(case):
        g = cdnf_utility(case.f)
        return GreedyPolicy(g, case.dist, case.costs), bounds(g).p_bound

    n_hi = min(args.max_n, 8)
    rep = ratio_vs_opt(
        drive("adg"), inst_mod.threshold_battery(10, seed + 7, n_lo=3, n_hi=n_hi)
    )
    record(f"threshold adg ratio <= 3 (worst {rep.worst_ratio:.3f})", rep.ok)
    rep = ratio_vs_opt(drive("greedy"), inst_mod.cdnf_battery(10, seed + 8, n_lo=3, n_hi=n_hi))
    record(f"cdnf greedy ratio <= ln(kd)+1 (worst {rep.worst_ratio:.3f})", rep.ok)
    rep = ratio_vs_opt(single_gain, inst_mod.cdnf_battery(10, seed + 8, n_lo=3, n_hi=n_hi))
    record(f"cdnf greedy ratio <= 2(ln P + 1) (worst {rep.worst_ratio:.3f})", rep.ok)
    rep = ratio_vs_opt(
        lambda case: (cp_ratio_policy(case.dist, case.costs, "or"), 1.0),
        inst_mod.disjunction_battery(12, seed + 9, n_lo=2, n_hi=n_hi),
        tol=1e-9,
    )
    record(f"disjunction cost/prob ordering exact (worst {rep.worst_ratio:.9f})", rep.ok)
    rep = ratio_vs_opt(
        drive("baseline"), inst_mod.cdnf_battery(8, seed + 10, n_lo=3, n_hi=n_hi)
    )
    record(f"increasing-cost baseline ratio <= n (worst {rep.worst_ratio:.3f})", rep.ok)
    rep = ratio_vs_opt(
        drive("greedy"),
        inst_mod.threshold_set_battery(6, seed + 11, m_hi=3, n_lo=3, n_hi=n_hi),
    )
    record(f"simultaneous greedy ratio <= ln(sum goals)+1 (worst {rep.worst_ratio:.3f})", rep.ok)
    rep = ratio_vs_opt(
        drive("adg"),
        inst_mod.threshold_set_battery(6, seed + 11, m_hi=3, n_lo=3, n_hi=n_hi),
    )
    record(f"simultaneous adg ratio <= max coefficient mass (worst {rep.worst_ratio:.3f})", rep.ok)
    return lines


def cmd_verify(args) -> int:
    lines = _verify_lines(args)
    _write("\n".join(line for _, line in lines) + "\n", args.out)
    ok = all(flag for flag, _ in lines)
    if not ok:
        print("verification failed", file=sys.stderr)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# gap-demo


def cmd_gap_demo(args) -> int:
    try:
        ns = [int(s) for s in args.ns.split(",") if s]
    except ValueError:
        print(f"error: bad --ns value {args.ns!r}", file=sys.stderr)
        return 2
    rows = []
    for n in ns:
        _, d, c = harmonic_gap_instance(n)
        opt = expected_cost(cp_ratio_policy(d, c, "or"), d, c)
        cert = expected_certificate_cost_disjunction(d, c)
        harmonic = float(sum(Fraction(1, t) for t in range(1, n + 1)))
        rows.append(
            {
                "n": n,
                "opt": opt,
                "harmonic": harmonic,
                "certificate_cost": cert,
                "gap": opt / cert if cert else math.inf,
            }
        )
    _emit_rows(rows, ("n", "opt", "harmonic", "certificate_cost", "gap"), args.format, args.out)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sbfe",
        description="Sequential Boolean function evaluation experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance file")
    gen.add_argument("--kind", required=True, choices=inst_mod.KINDS)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--m", type=int, default=2, help="formula count for set kinds")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", default=None)
    gen.set_defaults(func=cmd_gen)

    ev = sub.add_parser("eval", help="evaluate instances and report cost ratios")
    ev.add_argument("instances", nargs="+", help="instance files (sbfe-1 JSON)")
    ev.add_argument("--engine", default="greedy", choices=("greedy", "adg", "baseline"))
    ev.add_argument("--seed", type=int, default=0)
    ev.add_argument("--max-n", type=int, default=14, dest="max_n")
    ev.add_argument("--trials", type=int, default=200)
    ev.add_argument("--format", default="csv", choices=("csv", "json"))
    ev.add_argument("--out", default=None)
    ev.set_defaults(func=cmd_eval)

    ver = sub.add_parser("verify", help="run the verification suites")
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--max-n", type=int, default=8, dest="max_n")
    ver.add_argument("--trials", type=int, default=2000)
    ver.add_argument("--out", default=None)
    ver.set_defaults(func=cmd_verify)

    gap = sub.add_parser("gap-demo", help="harmonic gap between strategy and certificate cost")
    gap.add_argument("--ns", default="4,8,16", help="comma-separated sizes")
    gap.add_argument("--format", default="csv", choices=("csv", "json"))
    gap.add_argument("--out", default=None)
    gap.set_defaults(func=cmd_gap_demo)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
