"""The benchmark's tracer wraps sbfe functions and methods by the names its
callers look them up under.  Installing it on the real modules here makes a
rename fail in the test suite, not only in a traced benchmark run."""
import importlib
import random
import types
from pathlib import Path

import sbfe.cli
import sbfe.core
import sbfe.instances
import sbfe.policies
import sbfe.problems
import sbfe.utility
import sbfe.verify

BENCHMARK = Path(__file__).resolve().parent.parent / "benchmark"


def _tracing(monkeypatch):
    """The benchmark's tracer module and the sbfe modules it installs on."""
    monkeypatch.syspath_prepend(str(BENCHMARK))
    modules = types.SimpleNamespace(
        cli=sbfe.cli, core=sbfe.core, instances=sbfe.instances, policies=sbfe.policies,
        problems=sbfe.problems, utility=sbfe.utility, verify=sbfe.verify,
    )
    return importlib.import_module("tracer"), modules


def test_tracer_installs_and_counts_an_adg_eval(tmp_path, monkeypatch, capsys):
    tracing, modules = _tracing(monkeypatch)
    path = tmp_path / "t.json"
    gen = ["gen", "--kind", "threshold", "--n", "5", "--seed", "3", "--out", str(path)]
    assert sbfe.cli.main(gen) == 0
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, modules)
        assert sbfe.cli.main(["eval", str(path), "--engine", "adg"]) == 0
    finally:
        tracer.restore()
    assert tracer.counts.get("policies.adg_steps", 0) > 0
    assert tracer.call_count("utility.fn") > 0


def test_tracer_counts_the_optimum_and_the_table_in_verify(monkeypatch, capsys):
    tracing, modules = _tracing(monkeypatch)
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, modules)
        assert sbfe.cli.main(["verify", "--seed", "0", "--max-n", "5", "--trials", "100"]) == 0
    finally:
        tracer.restore()
    assert tracer.call_count("core.optimum") > 0
    assert tracer.call_count("core.certificate_table") > 0


def _traced_linear_system_eval(tmp_path, monkeypatch, engine):
    """The tracer after ``sbfe eval --engine ENGINE`` on a linear-system file."""
    tracing, modules = _tracing(monkeypatch)
    path = tmp_path / "ls.json"
    gen = ["gen", "--kind", "linear-system", "--n", "8", "--seed", "3", "--out", str(path)]
    assert sbfe.cli.main(gen) == 0
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, modules)
        assert sbfe.cli.main(["eval", str(path), "--engine", engine]) == 0
    finally:
        tracer.restore()
    return tracer


def test_ranking_baseline_certificates_are_counted(tmp_path, monkeypatch, capsys):
    # the baseline asks LinearSystem.certificate at every node; the tracer
    # reaches it through the problems.RankingInstance alias
    tracer = _traced_linear_system_eval(tmp_path, monkeypatch, "baseline")
    assert tracer.call_count("utility.certificate") > 0


def test_ranking_table_makes_no_certificate_call(tmp_path, monkeypatch, capsys):
    # the optimum's table reads LinearSystem.flag_planes, which takes each
    # pair's order from the sums of the coefficient differences, not from
    # certificate
    tracing, modules = _tracing(monkeypatch)
    path = tmp_path / "ls.json"
    gen = ["gen", "--kind", "linear-system", "--n", "8", "--seed", "3", "--out", str(path)]
    assert sbfe.cli.main(gen) == 0
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, modules)
        assert sbfe.cli.main(["eval", str(path), "--engine", "greedy"]) == 0
    finally:
        tracer.restore()
    assert tracer.call_count("core.optimum") == 1
    assert tracer.call_count("utility.certificate") == 0


def test_drivers_build_through_problems_and_count_what_they_buy(monkeypatch):
    # each driver builds its utility through a `problems` global, so the
    # tracer sees one utility.fn call per walk, and the tests bought are
    # read off the traces and item lists the drivers return
    tracing, modules = _tracing(monkeypatch)
    problems, inst_mod = sbfe.problems, sbfe.instances
    rng = random.Random(7)
    n = 8
    d = sbfe.core.ProductDistribution(inst_mod.gen_probabilities(rng, n))
    c = inst_mod.gen_costs(rng, n)
    x = tuple(rng.randrange(2) for _ in range(n))
    f = inst_mod.gen_threshold(rng, n)
    kp = problems.KnapsackInstance((5, 4, 3, 2, 6), (4.0, 3.0, 2.0, 1.0, 5.0), 9)
    calls = (
        lambda: problems.evaluate_threshold_greedy(f, d, c, x)[1].tested,
        lambda: problems.evaluate_threshold_adg(f, d, c, x)[1].tested,
        lambda: problems.evaluate_cdnf(inst_mod.gen_cdnf(rng, n), d, c, x)[1].tested,
        lambda: problems.simultaneous_thresholds(
            inst_mod.gen_threshold_set(rng, 2, n), d, c, x)[1].tested,
        lambda: problems.rank_linear_functions(
            inst_mod.gen_linear_system(rng, 3, n), d, c, x)[1].tested,
        lambda: problems.min_knapsack_adg(kp)[0],
    )
    tracer = tracing.Tracer()
    bought = 0
    try:
        tracing.install(tracer, modules)
        for call in calls:
            bought += len(call())
    finally:
        tracer.restore()
    assert bought > 0
    assert tracer.counts["problems.tests_bought"] == bought
    assert tracer.call_count("utility.fn") == len(calls)


def test_adg_spans_are_one_decision_and_one_advance_per_tested_node(tmp_path, monkeypatch, capsys):
    # `policies.adg` wraps DualGreedyPolicy.next_test and .advance, so its
    # spans are every decision plus one advance per node that tests, and
    # `policies.adg_steps` counts the decisions that buy a test
    tracing, modules = _tracing(monkeypatch)
    problems, core = sbfe.problems, sbfe.core
    path = tmp_path / "t.json"
    gen = ["gen", "--kind", "threshold", "--n", "7", "--seed", "3", "--out", str(path)]
    assert sbfe.cli.main(gen) == 0
    inst = sbfe.instances.load(path)
    g = sbfe.utility.threshold_utility(inst.f)
    # (decisions, tested nodes) of the tree `eval --engine adg` walks once
    decisions, tested = core.walk_policy(
        sbfe.policies.DualGreedyPolicy(g, inst.dist, inst.costs),
        inst.n,
        lambda b, s, p: (1, 0),
        lambda i, lo, hi: (lo[0] + hi[0] + 1, lo[1] + hi[1] + 1),
    )
    x = tuple(random.Random(7).randrange(2) for _ in range(inst.n))
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, modules)
        bought = len(problems.evaluate_threshold_adg(inst.f, inst.dist, inst.costs, x)[1].tested)
        assert sbfe.cli.main(["eval", str(path), "--engine", "adg"]) == 0
    finally:
        tracer.restore()
    assert 0 < bought == tracer.counts["problems.tests_bought"]
    # a run decides at each test and once where it stops
    assert tracer.call_count("policies.adg") == (bought + 1 + bought) + (decisions + tested)
    assert tracer.counts["policies.adg_steps"] == bought + tested
