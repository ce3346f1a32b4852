"""The four benchmark workloads.

Each workload builds its inputs from the run seed with the sbfe.instances
generators (``build``), runs a few untimed operations (``warm_up``),
exposes one round of operations as a list of callables, and checks a
round's outputs with benchmark/checks.py.  A round is the same list of
operations every time, so every run attempts whole rounds.
"""
from __future__ import annotations

import json
import os
import random

import checks

# Files per (kind, n) in one eval round, about 4-5 s of rows.  The optimum
# takes most of every eval-oracle row; the dual greedy's two tree walks take
# most of the eval-adg round (README.md lists the shares).  The seven
# truthtable n=6 files of eval-adg sit mid-round, so that its median row is
# one of several like rows rather than one file whose time moves with p, c.
EVAL_ORACLE_PLAN = (
    ("threshold", 10, 2),
    ("thresholds", 10, 1),
    ("cdnf", 10, 1),
    ("truthtable", 9, 1),
    ("linear-system", 10, 1),
    ("disjunction", 12, 1),
    ("knapsack", 12, 1),
)
EVAL_ADG_PLAN = (
    ("truthtable", 6, 7),
    ("truthtable", 7, 2),
    ("thresholds", 9, 3),
    ("threshold", 8, 1),
    ("linear-system", 8, 1),
    ("cdnf", 8, 1),
    ("disjunction", 9, 1),
    ("knapsack", 10, 1),
)
# (evaluation, sizes, instances, hidden inputs per instance) in one online
# round of 1015 evaluations, about 3 s.  Enough evaluations that the 99th
# percentile has ten above it.
ONLINE_PLAN = (
    ("threshold-greedy", (16, 24, 32), 10, 20),
    ("threshold-adg", (16, 24), 15, 5),
    ("cdnf", (16, 24, 32), 30, 20),
    ("simultaneous-greedy", (16, 24), 10, 5),
    ("simultaneous-adg", (16,), 5, 3),
    ("ranking", (16, 24), 10, 5),
    ("knapsack", (16, 20, 24), 25, 1),
)
VERIFY_CALLS = 8  # sbfe verify seeds per round, about 5-6 s
VERIFY_SEED_RANGE = 200  # verify seeds 0..199, each checked to PASS


def _seed_stream(seed: int, salt: int) -> random.Random:
    return random.Random(seed * 1_000_003 + salt)


# ---------------------------------------------------------------------------
# sbfe eval


class EvalWorkload:
    """``sbfe eval FILE --engine E`` through sbfe.cli.main, one file per call."""

    collect_each = True  # operations build large memo tables

    def __init__(self, sbfe, seed: int, workdir: str, plan, engines):
        self.sbfe = sbfe
        self.seed = seed
        self.workdir = workdir
        self.plan = plan
        self.engines = engines
        self.files = []
        self.ops = []

    def build(self) -> None:
        inst_mod = self.sbfe.instances
        rng = _seed_stream(self.seed, 1)
        self.files = []
        for slot, (kind, n, count) in enumerate(self.plan):
            for k in range(count):
                inst = self._instance(kind, n, 100 * slot + k, rng)
                path = os.path.join(self.workdir, f"{inst.id}.json")
                inst_mod.save(inst, path)
                self.files.append(path)
        self.ops = []
        for k, path in enumerate(self.files):
            for engine in self.engines:
                out = os.path.join(self.workdir, f"row-{k}-{engine}.csv")
                argv = ["eval", path, "--engine", engine, "--out", out]
                self.ops.append((f"{engine}:{os.path.basename(path)[:-5]}", argv, out))

    def warm_up(self) -> None:
        """Every kind and engine once on a small file."""
        inst_mod = self.sbfe.instances
        rng = _seed_stream(self.seed, 3)
        for kind in sorted({kind for kind, _, _ in self.plan}):
            inst = inst_mod.generate_instance(kind, 5, rng.getrandbits(48), m=2)
            path = os.path.join(self.workdir, f"warm-{kind}.json")
            inst_mod.save(inst, path)
            for engine in self.engines:
                rc = self.sbfe.cli.main(["eval", path, "--engine", engine,
                                         "--out", os.path.join(self.workdir, "warm.csv")])
                checks.require(rc == 0, f"warm-up eval of {kind} exited {rc}")

    def _instance(self, kind: str, n: int, formula_seed: int, rng: random.Random):
        """The formula of a slot is fixed; the run seed draws its
        probabilities and costs (and whole knapsack instances).

        The optimum visits every uncertified state whatever p and c are, so
        its work depends on the formula alone; formulas drawn from the run
        seed would move the round time by more than the bounds allow.
        """
        inst_mod = self.sbfe.instances
        if kind == "knapsack":
            return inst_mod.generate_instance(kind, n, rng.getrandbits(48))
        base = inst_mod.generate_instance(kind, n, formula_seed, m=2)
        dist = self.sbfe.core.ProductDistribution(inst_mod.gen_probabilities(rng, n))
        costs = inst_mod.gen_costs(rng, n)
        return inst_mod.Instance(f"{base.id}-p{self.seed}", kind, base.f, dist, costs)

    def round_ops(self):
        main = self.sbfe.cli.main
        return [(label, (lambda argv=argv: main(argv))) for label, argv, _ in self.ops]

    def check_round(self, returns) -> float:
        """Check every row; returns the mean of expected cost over optimal
        expected cost (1 where both are 0) over the rows of the paper's
        policies, greedy and adg.  Baseline rows are checked, not averaged:
        the cost-order baseline's ratio swings from 1.3 to 3 with the costs
        the seed draws."""
        rows = {}
        for (label, _, out), rc in zip(self.ops, returns):
            checks.require(rc == 0, f"{label}: eval exited {rc}")
            with open(out, encoding="utf-8") as fh:
                (row,) = checks.parse_csv_rows(fh.read())
            rows.setdefault(row["instance-id"], {})[label.split(":")[0]] = row
        ratios = []
        for path in self.files:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
            by_engine = rows[data["id"]]
            checks.require(sorted(by_engine) == sorted(self.engines), f"{data['id']}: rows missing")
            checks.check_eval_file(data, by_engine)
            ratios.extend(row["expected_cost"] / row["opt"] if row["opt"] else 1.0
                          for engine, row in by_engine.items() if engine != "baseline")
        return sum(ratios) / len(ratios)


# ---------------------------------------------------------------------------
# online evaluation through sbfe.problems


class OnlineWorkload:
    """Single evaluations on hidden inputs drawn from each instance's
    distribution, through the sbfe.problems functions; no oracle runs."""

    collect_each = False  # millisecond operations on a small heap

    def __init__(self, sbfe, seed: int, workdir: str):
        self.sbfe = sbfe
        self.seed = seed
        self.ops = []  # (label, call, checker)

    def build(self) -> None:
        """Instances are fixed (slot seeds); the run seed draws the hidden
        inputs.  Knapsack evaluations have no hidden input."""
        inst_mod = self.sbfe.instances
        problems = self.sbfe.problems
        dist_of = self.sbfe.core.ProductDistribution
        rng = _seed_stream(self.seed, 2)
        queues = []
        for slot, (kind, sizes, instances, inputs) in enumerate(ONLINE_PLAN):
            queue = []
            for k in range(instances):
                n = sizes[k % len(sizes)]
                frng = random.Random(1000 * slot + k)
                if kind == "knapsack":
                    kp = inst_mod.gen_knapsack(frng, n)
                    queue.append(self._knapsack_op(problems, kp, n))
                    continue
                made = self._formula(inst_mod, kind, frng, n)
                p = inst_mod.gen_probabilities(frng, n)
                c = inst_mod.gen_costs(frng, n)
                d = dist_of(p)
                for _ in range(inputs):
                    x = tuple(1 if rng.random() < pi else 0 for pi in p)
                    queue.append(self._formula_op(problems, kind, made, d, c, x, n))
            queues.append(queue)
        # interleave the evaluation kinds so that each spreads over the round
        self.ops = []
        while any(queues):
            for queue in queues:
                if queue:
                    self.ops.append(queue.pop(0))

    def warm_up(self) -> None:
        """Every twentieth evaluation of the round, checked."""
        for _, call, checker in self.ops[:: max(1, len(self.ops) // 20)]:
            checker(call())

    @staticmethod
    def _formula(inst_mod, kind, frng, n):
        if kind.startswith("threshold-"):
            return inst_mod.gen_threshold(frng, n)
        if kind == "cdnf":
            return inst_mod.gen_cdnf(frng, n)
        if kind.startswith("simultaneous-"):
            return inst_mod.gen_threshold_set(frng, 2, n)
        if kind == "ranking":
            return inst_mod.gen_linear_system(frng, 3, n)
        raise ValueError(kind)

    @staticmethod
    def _formula_op(problems, kind, f, d, c, x, n):
        label = f"{kind}:n{n}"
        if kind == "threshold-greedy":
            call = lambda: problems.evaluate_threshold_greedy(f, d, c, x)
            checker = lambda out: checks.check_threshold_answer(f.coeffs, f.theta, c, x, *out)
        elif kind == "threshold-adg":
            call = lambda: problems.evaluate_threshold_adg(f, d, c, x)
            checker = lambda out: checks.check_threshold_answer(f.coeffs, f.theta, c, x, *out)
        elif kind == "cdnf":
            clauses = [sorted(cl) for cl in f.clauses]
            terms = [sorted(t) for t in f.terms]
            call = lambda: problems.evaluate_cdnf(f, d, c, x)
            checker = lambda out: checks.check_cdnf_answer(clauses, terms, c, x, *out)
        elif kind.startswith("simultaneous-"):
            engine = kind.split("-")[1]
            formulas = [(g.coeffs, g.theta) for g in f.formulas]
            call = lambda: problems.simultaneous_thresholds(f, d, c, x, engine=engine)
            checker = lambda out: checks.check_simultaneous_answer(formulas, c, x, *out)
        else:
            call = lambda: problems.rank_linear_functions(f, d, c, x)
            checker = lambda out: checks.check_ranking_answer(
                f.coeffs, c, x, out[0].permutation, out[1])
        return label, call, checker

    @staticmethod
    def _knapsack_op(problems, kp, n):
        call = lambda: problems.min_knapsack_adg(kp)
        checker = lambda out: checks.check_knapsack_answer(
            kp.values, kp.weights, kp.threshold, out[0], out[1],
            checks.knapsack_opt(kp.values, kp.weights, kp.threshold))
        return f"knapsack:n{n}", call, checker

    def round_ops(self):
        return [(label, call) for label, call, _ in self.ops]

    def check_round(self, returns) -> float:
        """Check every answer; returns the mean realized cost per evaluation."""
        total = 0.0
        for (label, _, checker), out in zip(self.ops, returns):
            try:
                checker(out)
            except checks.CheckError as exc:
                raise checks.CheckError(f"{label}: {exc}") from None
            total += out[1] if label.startswith("knapsack") else out[1].total_cost
        return total / len(self.ops)


# ---------------------------------------------------------------------------
# sbfe verify


class VerifyWorkload:
    """``sbfe verify --seed s`` through sbfe.cli.main over a range of seeds."""

    collect_each = True

    def __init__(self, sbfe, seed: int, workdir: str):
        self.sbfe = sbfe
        self.seed = seed
        self.workdir = workdir
        self.seeds = []
        self.ops = []

    def build(self) -> None:
        self.seeds = [(self.seed * VERIFY_CALLS + k) % VERIFY_SEED_RANGE for k in range(VERIFY_CALLS)]
        self.ops = [
            (f"verify:s{s}", ["verify", "--seed", str(s), "--out",
                              os.path.join(self.workdir, f"verify-{s}.txt")])
            for s in self.seeds
        ]

    def warm_up(self) -> None:
        """One verify call with small batteries."""
        warm_out = os.path.join(self.workdir, "warm.txt")
        rc = self.sbfe.cli.main(["verify", "--seed", str(self.seeds[0]), "--max-n", "5",
                                 "--trials", "200", "--out", warm_out])
        checks.require(rc == 0, f"warm-up verify exited {rc}")

    def round_ops(self):
        main = self.sbfe.cli.main
        return [(label, (lambda argv=argv: main(argv))) for label, argv in self.ops]

    def check_round(self, returns) -> float:
        """Check every report; returns the mean printed worst cost/opt ratio."""
        worst = []
        for (label, argv), rc in zip(self.ops, returns):
            with open(argv[-1], encoding="utf-8") as fh:
                text = fh.read()
            try:
                worst.extend(checks.check_verify_report(rc, text))
            except checks.CheckError as exc:
                raise checks.CheckError(f"{label}: {exc}") from None
        return sum(worst) / len(worst)


WORKLOADS = {
    "eval-oracle": lambda sbfe, seed, workdir: EvalWorkload(
        sbfe, seed, workdir, EVAL_ORACLE_PLAN, ("greedy", "baseline")),
    "eval-adg": lambda sbfe, seed, workdir: EvalWorkload(
        sbfe, seed, workdir, EVAL_ADG_PLAN, ("adg",)),
    "online": OnlineWorkload,
    "verify": VerifyWorkload,
}
