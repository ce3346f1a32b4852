"""Command-line experiment runner.

Subcommands: gen (write an instance file), eval (cost/optimum/ratio report),
verify (axiom, certificate, dual, and ratio suites), gap-demo (the harmonic
disjunction family where certificates are cheap but strategies are not).
Exit codes: 0 pass, 1 check failure, 2 usage or parse error.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction
from typing import Optional

from . import instances as inst_mod
from .core import (
    ConstantFunctionError,
    LimitError,
    as_costs,
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
    policy_runs,
)
from .problems import (
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
VERIFY_MIN_N = 3  # the smallest size the verify batteries draw
# bounds input from outside: the cost-order walk and the exact Fraction harmonic
# sum grow as n^2 (--ns 4000 took 1.5 s, 16000 took 30 s on a 2-core host)
GAP_DEMO_MAX_N = 512


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


def _write(text: str, out: Optional[str]) -> int:
    """Write a report to the ``--out`` path, or to stdout without one, and
    return 0; a path that cannot be written gives one error line and 2."""
    if not out:
        sys.stdout.write(text)
        return 0
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: {out}: {exc.strerror}", file=sys.stderr)
        return 2
    return 0


def _emit_rows(rows, columns, fmt: str, out: Optional[str]) -> int:
    if fmt == "json":
        text = json.dumps(rows, indent=2, sort_keys=True) + "\n"
    else:
        lines = [",".join(columns)]
        for row in rows:
            lines.append(",".join(_fmt_cell(row[col]) for col in columns))
        text = "\n".join(lines) + "\n"
    return _write(text, out)


# ---------------------------------------------------------------------------
# eval

# kind -> (utility builder, claimed dual-greedy bound from the formula and
# the observed alpha).  The exhaustive optimum and the baseline read the
# instance itself, a linear system included.  Knapsack is not here:
# eval_instance solves it directly.  The builders are looked up in this
# module when called, so a caller that replaces sbfe.cli.threshold_utility
# and the others sees every build.
_EVAL = {
    "threshold": (lambda f: threshold_utility(f), lambda f, alpha: 3.0),
    "thresholds": (lambda f: f.utility(), lambda f, alpha: float(f.d_max)),
    "cdnf": (lambda f: cdnf_utility(f), lambda f, alpha: alpha),
    "truthtable": (lambda f: truth_table_utility(f), lambda f, alpha: alpha),
    "linear-system": (lambda f: ranking_utility(f), lambda f, alpha: alpha),
    "disjunction": (lambda f: cdnf_utility(f), lambda f, alpha: alpha),
}


def _sampled_cost(policy, inst: Instance, trials: int, seed: int) -> float:
    """Mean run cost of ``policy`` over ``trials`` inputs drawn from the
    instance's distribution with seeds ``seed``, ``seed + 1``, ...

    The runs go down the policy's tree together (`policy_runs`), so each
    node some input reaches is decided once and the greedy's gain record
    of that node serves every run through it.  The runs' costs are
    summed in seed order, the floats one `run_policy` per input gives."""
    xs = [sample_input(inst.dist, seed + k) for k in range(trials)]
    total = 0.0
    for _, _, cost, _ in policy_runs(policy, xs, inst.n, as_costs(inst.costs)):
        total += cost
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
    if engine == "adg":
        adg_bound = _EVAL[inst.kind][1]
        return DualGreedyPolicy(g, inst.dist, inst.costs), adg_bound(inst.f, alpha)
    return cost_order_policy(inst.costs, inst.f), float(inst.n)


def eval_instance(inst: Instance, args) -> dict:
    """One report row; ``args`` holds the ``eval`` flags."""
    if inst.kind == "knapsack":
        _, cost = min_knapsack_adg(inst.f)
        _, opt = min_knapsack_bruteforce(inst.f)
        return _report_row(inst, "adg", cost, opt, 2.0, None)

    build = _EVAL[inst.kind][0]
    exact = inst.n <= args.max_n
    # The optimum goes first, so that one over OPTIMUM_MAX_N fails at once.
    opt = None
    if exact:
        opt = optimal_expected_cost(inst.f, inst.dist, inst.costs)
    engine, alpha = args.engine, None
    try:
        g = build(inst.f)
    except ConstantFunctionError:
        engine, cost, bound = "constant", 0.0, 0.0
    else:
        if engine == "adg" and exact:
            cost, alpha = adg_cost_and_alpha(g, inst.dist, inst.costs)
        policy, bound = engine_policy(engine, g, inst, alpha)
        if alpha is None and exact:
            cost = expected_cost(policy, inst.dist, inst.costs)
        elif alpha is None:
            cost = _sampled_cost(policy, inst, args.trials, args.seed)
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
    if _emit_rows(rows, COLUMNS, args.format, args.out):
        return 2
    return 0 if all(r["pass"] is not False for r in rows) else 1


# ---------------------------------------------------------------------------
# gen


def cmd_gen(args) -> int:
    try:
        inst = inst_mod.generate_instance(args.kind, args.n, args.seed, m=args.m)
    except (InstanceFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _write(inst_mod.dumps(inst), args.out)


# ---------------------------------------------------------------------------
# verify


def _verify_lines(args):
    seed = args.seed
    n_small = min(args.max_n, 6)
    lines = []

    def suite(check, *names):
        """Add the (ok, text) lines ``check()`` gives.  If it raises, each of
        ``names`` gets a FAIL line naming the exception instead, and the
        remaining suites still run."""
        try:
            results = check()
        except Exception as exc:
            results = [(False, f"{name}: {type(exc).__name__}: {exc}") for name in names]
        lines.extend((ok, f"[{'PASS' if ok else 'FAIL'}] {text}") for ok, text in results)

    def reported(name: str, rep) -> list:
        return [(rep.ok, name + (f": {rep.message}" if rep.message else ""))]

    # Utility axioms, exhaustive at small arity and randomized larger.
    for build, battery in (
        (threshold_utility, inst_mod.threshold_battery(3, seed, n_lo=3, n_hi=4)),
        (cdnf_utility, inst_mod.cdnf_battery(3, seed + 1, n_lo=3, n_hi=4)),
        (truth_table_utility, inst_mod.truth_table_battery(2, seed + 2, n_lo=3, n_hi=4)),
    ):
        for case in battery:
            label = f"axioms exhaustive {case.kind} (n={case.n})"
            suite(lambda: reported(label, check_axioms(build(case.f), "exhaustive")), label)

    def random_axioms(g):
        rep = check_axioms(g, "random", trials=args.trials, seed=seed)
        return reported(f"axioms random threshold (n={g.arity}, {rep.checked} checks)", rep)

    for case in inst_mod.threshold_battery(2, seed + 3, n_lo=8, n_hi=8):
        label = f"axioms random threshold (n={case.n})"
        suite(lambda: random_axioms(threshold_utility(case.f)), label)

    # Goal-certificate equivalence.
    for build, battery in (
        (threshold_utility, inst_mod.threshold_battery(3, seed + 4, n_lo=3, n_hi=n_small)),
        (cdnf_utility, inst_mod.cdnf_battery(3, seed + 5, n_lo=3, n_hi=n_small)),
    ):
        for case in battery:
            label = f"goal-certificate {case.id}"
            suite(lambda: reported(label, check_goal_certificate(build(case.f), case.f)), label)

    # Dual feasibility and the objective identity.
    def dual(case):
        cert = check_dual_feasibility(threshold_utility(case.f), case.dist, case.costs)
        detail = f"objective gap {cert.objective_gap:.2e}"
        if not cert.ok:
            detail += f"; {len(cert.violations)} violations"
        ok = cert.ok and cert.objective_gap <= 1e-6
        return [(ok, f"dual-feasibility {case.id} ({cert.runs} runs): {detail}")]

    for case in inst_mod.threshold_battery(3, seed + 6, n_lo=3, n_hi=n_small):
        suite(lambda: dual(case), f"dual-feasibility {case.id}")

    # Cost ratios against the exhaustive optimum: one line per name, each
    # battery built and its optima computed once.
    def ratios(battery, drive, *names, places=3, tol=1e-6):
        def check():
            reports = ratio_vs_opt(drive, battery, tol=tol)
            return [
                (rep.ok, f"{name} (worst {rep.worst_ratio:.{places}f})")
                for name, rep in zip(names, reports)
            ]

        suite(check, *names)

    def drive(*engines):
        """The policies and bounds `sbfe eval --engine` reports for a case,
        one per engine, all on one utility."""

        def policies(case):
            g = _EVAL[case.kind][0](case.f)
            return [engine_policy(engine, g, case) for engine in engines]

        return policies

    def cdnf_greedy(case):
        """The greedy on a cdnf case, under both of its bounds."""
        g = cdnf_utility(case.f)
        policy, lnq_bound = engine_policy("greedy", g, case)
        return [(policy, lnq_bound), (policy, bounds(g).p_bound)]

    n_hi = min(args.max_n, 8)
    ratios(
        inst_mod.threshold_battery(10, seed + 7, n_lo=3, n_hi=n_hi),
        drive("adg"),
        "threshold adg ratio <= 3",
    )
    ratios(
        inst_mod.cdnf_battery(10, seed + 8, n_lo=3, n_hi=n_hi),
        cdnf_greedy,
        "cdnf greedy ratio <= ln(kd)+1",
        "cdnf greedy ratio <= 2(ln P + 1)",
    )
    ratios(
        inst_mod.disjunction_battery(12, seed + 9, n_lo=2, n_hi=n_hi),
        lambda case: [(cp_ratio_policy(case.dist, case.costs, "or"), 1.0)],
        "disjunction cost/prob ordering exact",
        places=9,
        tol=1e-9,
    )
    ratios(
        inst_mod.cdnf_battery(8, seed + 10, n_lo=3, n_hi=n_hi),
        drive("baseline"),
        "increasing-cost baseline ratio <= n",
    )
    ratios(
        inst_mod.threshold_set_battery(6, seed + 11, m_hi=3, n_lo=3, n_hi=n_hi),
        drive("greedy", "adg"),
        "simultaneous greedy ratio <= ln(sum goals)+1",
        "simultaneous adg ratio <= max coefficient mass",
    )
    return lines


def cmd_verify(args) -> int:
    if args.max_n < VERIFY_MIN_N:
        print(f"error: --max-n must be at least {VERIFY_MIN_N}, got {args.max_n}", file=sys.stderr)
        return 2
    lines = _verify_lines(args)
    if _write("\n".join(line for _, line in lines) + "\n", args.out):
        return 2
    ok = all(flag for flag, _ in lines)
    if not ok:
        print("verification failed", file=sys.stderr)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# gap-demo


def cmd_gap_demo(args) -> int:
    try:
        ns = [int(s) for s in args.ns.split(",")]  # an empty field is an error
    except ValueError:
        ns = None
    if ns is None or any(not 1 <= n <= GAP_DEMO_MAX_N for n in ns):
        print(
            f"error: bad --ns value {args.ns!r}; sizes are integers from 1 to {GAP_DEMO_MAX_N}",
            file=sys.stderr,
        )
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
    columns = ("n", "opt", "harmonic", "certificate_cost", "gap")
    return _emit_rows(rows, columns, args.format, args.out)


# ---------------------------------------------------------------------------
# argument parsing


def trial_count(text: str) -> int:
    """The ``--trials`` type: an integer of at least 1."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


@functools.cache
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
    ev.add_argument("--trials", type=trial_count, default=200)
    ev.add_argument("--format", default="csv", choices=("csv", "json"))
    ev.add_argument("--out", default=None)
    ev.set_defaults(func=cmd_eval)

    ver = sub.add_parser("verify", help="run the verification suites")
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--max-n", type=int, default=8, dest="max_n")
    ver.add_argument("--trials", type=trial_count, default=2000)
    ver.add_argument("--out", default=None)
    ver.set_defaults(func=cmd_verify)

    gap = sub.add_parser("gap-demo", help="harmonic gap between strategy and certificate cost")
    gap.add_argument("--ns", default="4,8,16", help="comma-separated sizes")
    gap.add_argument("--format", default="csv", choices=("csv", "json"))
    gap.add_argument("--out", default=None)
    gap.set_defaults(func=cmd_gap_demo)
    return parser


def main(argv=None) -> int:
    """Run one ``sbfe`` command on ``argv`` (default ``sys.argv[1:]``) and
    return its exit code.  The parser is built on the first call and reused
    by every later one in the process: parsing fills a fresh namespace each
    time and never changes the parser, so each call prints the same bytes as
    a one-shot ``sbfe`` with the same arguments."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
