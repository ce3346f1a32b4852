"""The benchmark's tracer wraps sbfe functions and methods by the names its
callers look them up under.  Installing it on the real modules here makes a
rename fail in the test suite, not only in a traced benchmark run."""
import importlib
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
