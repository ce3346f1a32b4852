import hashlib
import json
import math
from fractions import Fraction

import pytest

from sbfe.cli import main
from sbfe.instances import KINDS

ENGINES = ("greedy", "adg", "baseline")

# sha256 of sbfe's output on fixed inputs: `gen --n 5 --seed 3` of every kind,
# `eval` of each such file under every engine, and `verify --seed 0`.  Reports
# stay byte-identical for a fixed seed; a change that alters them on purpose
# updates these digests and says why.
GOLDEN = {
    "gen threshold": "54872d752ad4744af116d52038386713d26b36729dc7d1f620cc521ed3e9cb43",
    "eval threshold greedy": "85cb5135c0c099e434c0d217a4d3e9b67548634691d349a9113bc07fc16b4792",
    "eval threshold adg": "c5460b692ce31297140366cf85e182e33006797dac08a3219bc06bf28a44d229",
    "eval threshold baseline": "f4e15a829db4d420eba617e83576ef9669cf3576b51143ed494082a70c05b81c",
    "gen thresholds": "08e12b15e02c0ff012a1d6471872e3273a1cbea66ab736e368dc8ce90f85afe2",
    "eval thresholds greedy": "0eeacc0dd1a2d9bec23212eb7d714badec6c225ce13235aaeca22e0bf87828aa",
    "eval thresholds adg": "fe7a6cc4d166ffa6145595880d2ce6878952c8c3a83c401aed6f923bca990a43",
    "eval thresholds baseline": "76d47720ee09d360ab5b65f3b88158c1896fbee09d45849a248a772903ae4a68",
    "gen cdnf": "08472f64ca7c0920a497156d811fb76fc2a82e9086fdb238e4f752afd9ca4cf3",
    "eval cdnf greedy": "1fcb98d4e8d09ac0a6945ffef4243cb929eb42b874953d103cee1d05ac93cfc5",
    "eval cdnf adg": "3530ae5c67590c50e96a588ecf207180d82241a4dd2fc6239fe99c6621ba916b",
    "eval cdnf baseline": "6285311ff60ee5bc1fa9f7c31142f320764d49f4a83ec4f61035a616fdb80110",
    "gen truthtable": "0d62c7ae6140026ab0c5656def0ef065e49b684c4251a0357b0de99570f21a36",
    "eval truthtable greedy": "6430e461f78739620c4e03c4e45117a943e0d87cc2350993248db4cd18f9584f",
    "eval truthtable adg": "f99f0e80588df06b339c65aca53194eb968c8d0c1a6da6db18ff1a5f02b7f4cf",
    "eval truthtable baseline": "efc263b1fe7ab9cedd1c143e01900101a0d68e97575a8c9f9236ace39245161f",
    "gen linear-system": "4edae8ab9874e232303d1f4900ca40fbc04d28c817e365644420de9290eb37b7",
    "eval linear-system greedy": "2b48b56ad423884e7edcccbeb11452d564e2d7370ea49780e34305b980ff0d6e",
    "eval linear-system adg": "bff473b92f086cb5ecfb8bf4220da8a1fe2b23b2168cb1e7982327431a6402be",
    "eval linear-system baseline": "247bb6a9a0ed21783496fea689e1a98f54b0a44337b01d32db29c3f5338e2ad8",
    "gen knapsack": "691ac6be043186d708c10cd49b84370de1d08dfa3bb2a6332517294b607591cf",
    "eval knapsack greedy": "8f1f2c82102ea4683b0e44e9cced5cc1e71bdf874a84c476646425d24bae4125",
    "eval knapsack adg": "8f1f2c82102ea4683b0e44e9cced5cc1e71bdf874a84c476646425d24bae4125",
    "eval knapsack baseline": "8f1f2c82102ea4683b0e44e9cced5cc1e71bdf874a84c476646425d24bae4125",
    "gen disjunction": "736290cde8575cb04bcdae3433c9443ffdb37d07ca11f3a5426e1f6654f031fd",
    "eval disjunction greedy": "46a18441cfb374bc8e2d7869b44e9313b0cf56d89e2b7f8ed8cc1e2b737e6acc",
    "eval disjunction adg": "06fc2916482eeb6282e4f409a9d5d16ef679d7db2bd519b9014927febc6cc36a",
    "eval disjunction baseline": "2342620b6b81b1893ef95c6ba9d2bdd6e580bdad6a5ce54d51303f6da5b955c6",
    "verify 0": "3de2a079246f56d830fc4c929d9f5228327b41f0e8030c6a417f41264d7884a3",
}

# Edits of a generated file that `sbfe eval` must reject with exit 2:
# (kind, {field: edit of its value}).
BAD_PAYLOADS = [
    pytest.param("threshold", {"p": lambda p: p[:3]}, id="p-short"),
    pytest.param("threshold", {"c": lambda c: c[:3]}, id="c-short"),
    pytest.param("threshold", {"p": lambda p: [1.5] + p[1:]}, id="p-above-one"),
    pytest.param("threshold", {"p": lambda p: [0.0] + p[1:]}, id="p-zero"),
    pytest.param("threshold", {"c": lambda c: [-1] + c[1:]}, id="c-negative"),
    pytest.param("threshold", {"c": lambda c: [math.nan] + c[1:]}, id="c-nan"),
    pytest.param("threshold", {"c": lambda c: [math.inf] + c[1:]}, id="c-inf"),
    pytest.param("threshold", {"c": lambda c: [-math.inf] + c[1:]}, id="c-minus-inf"),
    pytest.param("threshold", {"n": lambda n: n + 0.5}, id="n-fraction"),
    pytest.param("threshold", {"theta": lambda t: 2.7}, id="theta-fraction"),
    pytest.param("threshold", {"theta": lambda t: True}, id="theta-bool"),
    pytest.param(
        "threshold", {"coefficients": lambda a: [a[0] + 0.5] + a[1:]}, id="coeff-fraction"
    ),
    pytest.param("threshold", {"coefficients": lambda a: [True] + a[1:]}, id="coeff-bool"),
    pytest.param(
        "thresholds",
        {"formulas": lambda fs: [{**fs[0], "theta": 0.5}] + fs[1:]},
        id="formula-theta",
    ),
    pytest.param(
        "linear-system",
        {"functions": lambda rows: [[0.5] + rows[0][1:]] + rows[1:]},
        id="functions",
    ),
    pytest.param("knapsack", {"values": lambda v: [v[0] + 0.5] + v[1:]}, id="values-fraction"),
    pytest.param("knapsack", {"theta": lambda t: t + 0.5}, id="knapsack-theta"),
    pytest.param("knapsack", {"weights": lambda w: [math.nan] + w[1:]}, id="weights-nan"),
    pytest.param("knapsack", {"weights": lambda w: [math.inf] + w[1:]}, id="weights-inf"),
    pytest.param("truthtable", {"table": lambda t: [True] + t[1:]}, id="table-bool"),
    pytest.param("truthtable", {"table": lambda t: [0.5] + t[1:]}, id="table-fraction"),
    pytest.param("knapsack", {"c": lambda c: [9.0] * len(c)}, id="knapsack-c-not-weights"),
    pytest.param("knapsack", {"p": lambda p: [0.5] * len(p)}, id="knapsack-p-not-one"),
    pytest.param(
        "knapsack",
        {"n": lambda n: n + 1, "p": lambda p: p + [1.0], "c": lambda c: c + [1.0]},
        id="knapsack-n-not-items",
    ),
    pytest.param(
        "threshold",
        {"coefficients": lambda a: [2**34, -(2**34), 2**34, 1, 1], "theta": lambda t: 2**34},
        id="goal-overflow",
    ),
]


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


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

    @pytest.mark.parametrize("kind", KINDS)
    def test_golden_bytes(self, capsys, kind):
        code, out, _ = run_cli(capsys, "gen", "--kind", kind, "--n", "5", "--seed", "3")
        assert code == 0
        assert sha256(out) == GOLDEN[f"gen {kind}"]


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

    @pytest.mark.parametrize("kind,edits", BAD_PAYLOADS)
    def test_bad_payload_exits_two(self, tmp_path, capsys, kind, edits):
        path = self._gen(tmp_path, kind, 5, 3)
        data = json.loads(path.read_text())
        for field, edit in edits.items():
            data[field] = edit(data[field])
        path.write_text(json.dumps(data))
        code, _, err = run_cli(capsys, "eval", str(path))
        assert code == 2
        assert err.startswith(f"error: {path}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("kind", KINDS)
    def test_every_kind_and_engine(self, tmp_path, capsys, kind, engine):
        path = self._gen(tmp_path, kind, 5, 3)
        code, out, _ = run_cli(capsys, "eval", str(path), "--engine", engine)
        assert code == 0
        assert sha256(out) == GOLDEN[f"eval {kind} {engine}"]

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

    def test_golden_bytes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--seed", "0")
        assert code == 0
        assert sha256(out) == GOLDEN["verify 0"]

    def test_failing_check_exits_one(self, capsys, monkeypatch):
        import sbfe.cli as cli_mod

        monkeypatch.setattr(
            cli_mod,
            "_verify_lines",
            lambda args: [(False, "[FAIL] injected broken utility: counterexample (0, *)")],
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
