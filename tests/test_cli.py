import json
from fractions import Fraction

import pytest

from sbfe.cli import main


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_writes_deterministic_file(self, tmp_path, capsys):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["gen", "--kind", "cdnf", "--n", "5", "--seed", "9", "--out", str(p1)]) == 0
        assert main(["gen", "--kind", "cdnf", "--n", "5", "--seed", "9", "--out", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_stdout_schema(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--kind", "threshold", "--n", "6", "--seed", "1")
        assert code == 0
        data = json.loads(out)
        assert data["format"] == "sbfe-1"
        assert len(data["coefficients"]) == 6
        assert {"theta", "p", "c", "id"} <= set(data)

    def test_bad_kind_exits_two(self, capsys):
        code, _, _ = run_cli(capsys, "gen", "--kind", "nope", "--n", "4", "--seed", "1")
        assert code == 2


class TestEval:
    def _gen(self, tmp_path, kind, n, seed, **kw):
        path = tmp_path / f"{kind}-{n}-{seed}.json"
        args = ["gen", "--kind", kind, "--n", str(n), "--seed", str(seed), "--out", str(path)]
        assert main(args) == 0
        return path

    def test_threshold_adg_row(self, tmp_path, capsys):
        path = self._gen(tmp_path, "threshold", 5, 3)
        code, out, _ = run_cli(capsys, "eval", str(path), "--engine", "adg")
        assert code == 0
        header, row = out.strip().split("\n")
        assert header.startswith("instance-id,kind,n,engine,expected_cost,opt,ratio,bound")
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["engine"] == "adg"
        assert float(cells["ratio"]) <= 3.0 + 1e-6
        assert cells["pass"] == "true"

    def test_json_format_and_kinds(self, tmp_path, capsys):
        paths = [
            self._gen(tmp_path, "cdnf", 5, 2),
            self._gen(tmp_path, "knapsack", 6, 4),
            self._gen(tmp_path, "linear-system", 4, 5),
            self._gen(tmp_path, "thresholds", 4, 6),
        ]
        code, out, _ = run_cli(
            capsys, "eval", *map(str, paths), "--engine", "greedy", "--format", "json"
        )
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 4
        assert all(row["pass"] for row in rows)

    def test_baseline_bound_is_n(self, tmp_path, capsys):
        path = self._gen(tmp_path, "cdnf", 5, 7)
        code, out, _ = run_cli(capsys, "eval", str(path), "--engine", "baseline")
        assert code == 0
        header, row = out.strip().split("\n")
        cells = dict(zip(header.split(","), row.split(",")))
        assert float(cells["bound"]) == 5.0

    def test_broken_file_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        code, _, err = run_cli(capsys, "eval", str(bad))
        assert code == 2
        assert "bad.json" in err

    def test_identical_runs_identical_bytes(self, tmp_path, capsys):
        path = self._gen(tmp_path, "threshold", 5, 11)
        _, out1, _ = run_cli(capsys, "eval", str(path), "--engine", "greedy")
        _, out2, _ = run_cli(capsys, "eval", str(path), "--engine", "greedy")
        assert out1 == out2


class TestVerify:
    def test_default_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--seed", "1", "--max-n", "6", "--trials", "500")
        assert code == 0
        assert "[FAIL]" not in out
        assert out.count("[PASS]") >= 10

    def test_failing_check_exits_one(self, capsys, monkeypatch):
        import sbfe.cli as cli_mod

        monkeypatch.setattr(
            cli_mod,
            "_verify_lines",
            lambda cfg: [(False, "[FAIL] injected broken utility: counterexample (0, *)")],
        )
        code, out, err = run_cli(capsys, "verify")
        assert code == 1
        assert "[FAIL]" in out
        assert "failed" in err


class TestGapDemo:
    def test_values(self, capsys):
        code, out, _ = run_cli(capsys, "gap-demo", "--format", "json")
        assert code == 0
        rows = {row["n"]: row for row in json.loads(out)}
        for n in (4, 8, 16):
            h = float(sum(Fraction(1, t) for t in range(1, n + 1)))
            assert rows[n]["opt"] == pytest.approx(h, abs=1e-6)
            assert rows[n]["certificate_cost"] < 2.0

    def test_bad_ns_exits_two(self, capsys):
        code, _, _ = run_cli(capsys, "gap-demo", "--ns", "4,x")
        assert code == 2


class TestUsage:
    def test_no_command_exits_two(self, capsys):
        assert main([]) == 2

    def test_unknown_flag_exits_two(self, capsys):
        for argv in (
            ["eval", "--bogus"],
            ["verify", "--format", "json"],
            ["gap-demo", "--seed", "1"],
        ):
            assert main(argv) == 2, argv
