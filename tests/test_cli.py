import errno
import hashlib
import inspect
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import dataclasses

import pytest

from helpers import reference_run, step_off_by_one
from sbfe import cli
from sbfe import instances as inst_mod
from sbfe import verify as verify_mod
from sbfe.cli import main
from sbfe.core import (
    OPTIMUM_MAX_N,
    PolicyError,
    as_costs,
    expected_cost,
    extend,
    sample_input,
    stars,
)
from sbfe.instances import KINDS
from sbfe.policies import cp_ratio_policy, policy_runs
from sbfe.problems import harmonic_gap_instance
from sbfe.utility import threshold_utility
from sbfe.verify import check_axioms

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
    "verify 0": "d0469c0d9030387a2cb50a841c9238d1cd4bf46b5f50af544d66fb17e10d092b",
    # `eval` of `gen --kind cdnf --n 14 --seed 1`, a formula that reads one
    # of its 14 positions
    "eval cdnf-n14-s1 greedy": "b28e0b1ab04ef1bcd55e75f2cb5a0dabbe5fc51f61e366b147c3af3c92333105",
    "eval cdnf-n14-s1 adg": "e421e38b1d5782eeee6c09b72c73cab7f2eb70ca6a10ec78bc0ea7523ae362f7",
}

# Hand-written constant files, in report order: CNF/DNF always 1 (its one
# clause a tautology), threshold always 1, truth table always 0.
CONSTANT_FILES = {
    "cdnf-n2": {"kind": "cdnf", "n": 2, "clauses": [[1, -1]], "terms": [[1], [-1]]},
    "threshold-n3": {"kind": "threshold", "n": 3, "coefficients": [1, 1, 1], "theta": 0},
    "truthtable-n2": {"kind": "truthtable", "n": 2, "table": [0, 0, 0, 0]},
}
# Their `eval` rows by (engine, --max-n), each after its `instance-id,kind,n,`
# cells.  Under `--max-n 1` the adg has no alpha, so a kind whose adg bound
# is alpha has none either.
CONSTANT_ROWS = {
    ("greedy", 14): ["greedy,0.0,0.0,1.0,0.0,,true"] * 3,
    ("adg", 14): [
        "adg,0.0,0.0,1.0,1.0,1.0,true",
        "adg,0.0,0.0,1.0,3.0,1.0,true",
        "adg,0.0,0.0,1.0,1.0,1.0,true",
    ],
    ("baseline", 14): [
        "baseline,0.0,0.0,1.0,2.0,,true",
        "baseline,0.0,0.0,1.0,3.0,,true",
        "baseline,0.0,0.0,1.0,2.0,,true",
    ],
    ("greedy", 1): ["greedy,0.0,,,0.0,,"] * 3,
    ("adg", 1): ["adg,0.0,,,,,", "adg,0.0,,,3.0,,", "adg,0.0,,,,,"],
    ("baseline", 1): ["baseline,0.0,,,2.0,,", "baseline,0.0,,,3.0,,", "baseline,0.0,,,2.0,,"],
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
    pytest.param("threshold", {"c": lambda c: [10**400] + c[1:]}, id="c-overflow"),
    # each weight finite, their total not (see test_costs_with_infinite_total_exit_two)
    pytest.param(
        "knapsack",
        {"weights": lambda w: [1e308] * len(w), "c": lambda c: [1e308] * len(c)},
        id="weights-total-inf",
    ),
    pytest.param(
        "cdnf", {"clauses": lambda cs: [[True]], "terms": lambda ts: [[True]]}, id="literal-bool"
    ),
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
    pytest.param("linear-system", {"functions": lambda rows: rows[:1]}, id="functions-one"),
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
    # p, c and weights hold JSON numbers in a list, not whatever float() takes
    pytest.param("threshold", {"c": lambda c: [True] + c[1:]}, id="c-bool"),
    pytest.param("threshold", {"c": lambda c: ["2"] + c[1:]}, id="c-string"),
    pytest.param("threshold", {"c": lambda c: "12345"}, id="c-digit-string"),
    pytest.param("threshold", {"p": lambda p: ["0.5"] + p[1:]}, id="p-string"),
    pytest.param("threshold", {"p": lambda p: {str(v): 0 for v in p}}, id="p-dict"),
    pytest.param("knapsack", {"weights": lambda w: [str(w[0])] + w[1:]}, id="weights-string"),
    pytest.param(
        "knapsack",
        {"weights": lambda w: "".join(str(int(v)) for v in w)},
        id="weights-digit-string",
    ),
    # the id is one CSV cell as written: a string with no comma, quote or
    # line break
    pytest.param("threshold", {"id": lambda i: "a,b\nc"}, id="id-comma-newline"),
    pytest.param("threshold", {"id": lambda i: i + ","}, id="id-comma"),
    pytest.param("threshold", {"id": lambda i: 'a"b'}, id="id-quote"),
    pytest.param("threshold", {"id": lambda i: i + "\r"}, id="id-cr"),
    pytest.param("threshold", {"id": lambda i: i + "\n"}, id="id-lf"),
    pytest.param("threshold", {"id": lambda i: {"x": 1}}, id="id-object"),
    pytest.param("threshold", {"id": lambda i: None}, id="id-null"),
    pytest.param("threshold", {"id": lambda i: 7}, id="id-number"),
    # a declared m is an integer equal to the formula or function count
    pytest.param("thresholds", {"m": lambda m: 7}, id="m-not-count"),
    pytest.param("thresholds", {"m": lambda m: "x"}, id="m-string"),
    pytest.param("thresholds", {"m": lambda m: True}, id="m-bool"),
    pytest.param("linear-system", {"m": lambda m: 9}, id="functions-m-not-count"),
]


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(*args):
    """Run a fresh interpreter that imports sbfe from this checkout's src."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))
    ))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60,
    )


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

    def test_negative_seed_exits_two(self, tmp_path, capsys):
        # random.Random(-1) draws what random.Random(1) draws, so --seed -1
        # would write the --seed 1 instance under another id
        path = tmp_path / "t.json"
        argv = ("gen", "--kind", "threshold", "--n", "6", "--seed", "-1", "--out", str(path))
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", "error: --seed must be at least 0, got -1\n")
        assert not path.exists()

    def test_one_function_linear_system_exits_two(self, capsys):
        code, out, err = run_cli(
            capsys, "gen", "--kind", "linear-system", "--n", "3", "--seed", "1", "--m", "1"
        )
        assert code == 2
        assert out == ""
        assert err == "error: a linear system needs at least two functions, got 1\n"

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

    def test_negative_seed_exits_two(self, tmp_path, capsys):
        # sampled seeds -5 to -1 would repeat the draws of seeds 5 to 1
        path = self._gen(tmp_path, "threshold", 5, 3)
        argv = ("eval", str(path), "--max-n", "3", "--seed", "-5", "--trials", "50")
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", "error: --seed must be at least 0, got -5\n")

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

    def test_adg_row_carries_alpha_above_twelve(self, tmp_path, capsys):
        # the observed alpha is computed wherever the exact optimum runs
        path = self._gen(tmp_path, "disjunction", 13, 1)
        code, out, _ = run_cli(capsys, "eval", str(path), "--engine", "adg")
        assert code == 0
        assert out.split("\n")[1] == (
            "disjunction-n13-s1,disjunction,13,adg,1.7949868243435305,"
            "1.7714476651759927,1.0132880917852005,1.9230769230769231,"
            "1.9230769230769231,true"
        )

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

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("terms", ([[1]], [[1], [2, -2]]), ids=("x1", "contradiction"))
    def test_tautological_clause_evaluates(self, tmp_path, capsys, terms, engine):
        # x_1 with a clause that always holds, and then also a term that never does
        path = self._gen(tmp_path, "cdnf", 2, 1)
        data = json.loads(path.read_text())
        data.update(clauses=[[1, -1], [1]], terms=terms)
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "eval", str(path), "--engine", engine)
        assert (code, err) == (0, "")
        header, row = out.strip().split("\n")
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["pass"] == "true"

    @pytest.mark.parametrize("max_n", (14, 1))
    @pytest.mark.parametrize("engine", ENGINES)
    def test_constant_files_run_the_engine_asked_for(self, tmp_path, capsys, engine, max_n):
        # a constant function's utility has goal 0: every engine stops at the
        # root and prints its own bound, as for a goal-0 linear system
        paths = []
        for name, fields in CONSTANT_FILES.items():
            path = tmp_path / f"{name}.json"
            n = fields["n"]
            payload = {"format": "sbfe-1", "id": name, "p": [0.5] * n, "c": [1.0] * n, **fields}
            path.write_text(json.dumps(payload))
            paths.append(str(path))
        code, out, err = run_cli(
            capsys, "eval", *paths, "--engine", engine, "--max-n", str(max_n)
        )
        assert (code, err) == (0, "")
        want = [
            f"{name},{fields['kind']},{fields['n']},{row}"
            for (name, fields), row in zip(CONSTANT_FILES.items(), CONSTANT_ROWS[engine, max_n])
        ]
        assert out.strip().split("\n")[1:] == want

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("n", (13, 16))
    def test_disagreeing_pair_exits_two_at_load(self, tmp_path, capsys, n, engine):
        # x_13 alone makes the DNF true and the CNF (x_1) false.  The exact
        # check finds it on the two positions mentioned, at either n; the
        # parent walked into an InvalidUtilityError, or printed pass=true
        path = tmp_path / "cdnf.json"
        payload = {
            "format": "sbfe-1", "kind": "cdnf", "n": n, "clauses": [[1]], "terms": [[1], [13]],
            "p": [0.5] * n, "c": [1.0] * n,
        }
        path.write_text(json.dumps(payload))
        code, out, err = run_cli(capsys, "eval", str(path), "--engine", engine)
        x = tuple(int(i == 12) for i in range(n))
        assert (code, out) == (2, "")
        assert err == (
            f"error: {path}: bad instance payload: CNF and DNF disagree at {x}; "
            "not the same function\n"
        )

    @pytest.mark.parametrize("n", (13, 16))
    def test_dnf_short_of_the_cnf_exits_two_at_load(self, tmp_path, capsys, n):
        # x_1 or x_2 as the CNF, x_1 alone as the DNF: the DNF implies the
        # CNF, so no term-clause check sees that x_2 alone makes them differ;
        # the exact check on the two positions mentioned does, above n = 14
        # as well
        path = tmp_path / "cdnf.json"
        payload = {
            "format": "sbfe-1", "kind": "cdnf", "n": n, "clauses": [[1, 2]], "terms": [[1]],
            "p": [0.5] * n, "c": [1.0] * n,
        }
        path.write_text(json.dumps(payload))
        code, out, err = run_cli(capsys, "eval", str(path))
        x = tuple(int(i == 1) for i in range(n))
        assert (code, out) == (2, "")
        assert err == (
            f"error: {path}: bad instance payload: CNF and DNF disagree at {x}; "
            "not the same function\n"
        )

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

    @pytest.mark.parametrize(
        "kind, members", [("thresholds", "formulas"), ("linear-system", "functions")]
    )
    def test_declared_m(self, tmp_path, capsys, kind, members):
        path = self._gen(tmp_path, kind, 5, 3)
        data = json.loads(path.read_text())
        _, want, _ = run_cli(capsys, "eval", str(path))
        del data["m"]  # m may be left out
        path.write_text(json.dumps(data))
        assert run_cli(capsys, "eval", str(path)) == (0, want, "")
        data["m"] = 2.0  # it reads as an integer, like n
        path.write_text(json.dumps(data))
        assert run_cli(capsys, "eval", str(path)) == (0, want, "")
        data["m"] = 3
        path.write_text(json.dumps(data))
        err = f"error: {path}: declared m disagrees with the number of {members}\n"
        assert run_cli(capsys, "eval", str(path)) == (2, "", err)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_costs_with_infinite_total_exit_two(self, tmp_path, capsys, engine):
        # the parent printed expected_cost=inf, ratio=inf and pass=true here
        path = tmp_path / "t.json"
        payload = {
            "format": "sbfe-1", "kind": "threshold", "n": 3, "coefficients": [1, 2, 3],
            "theta": 3, "p": [0.5, 0.5, 0.5], "c": [1e308, 1e308, 1e308],
        }
        path.write_text(json.dumps(payload))
        code, out, err = run_cli(capsys, "eval", str(path), "--engine", engine)
        assert (code, out, err) == (2, "", f"error: {path}: c must have a finite total\n")

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("kind", KINDS)
    def test_every_kind_and_engine(self, tmp_path, capsys, kind, engine):
        path = self._gen(tmp_path, kind, 5, 3)
        code, out, _ = run_cli(capsys, "eval", str(path), "--engine", engine)
        assert code == 0
        assert sha256(out) == GOLDEN[f"eval {kind} {engine}"]

    @pytest.mark.parametrize("engine", ("greedy", "adg"))
    def test_row_reading_one_of_fourteen(self, tmp_path, capsys, engine):
        # the optimum runs on the one position the formula reads
        path = self._gen(tmp_path, "cdnf", 14, 1)
        code, out, _ = run_cli(capsys, "eval", str(path), "--engine", engine)
        assert code == 0
        assert sha256(out) == GOLDEN[f"eval cdnf-n14-s1 {engine}"]

    def test_optimum_over_cap_exits_two(self, tmp_path, capsys):
        n = OPTIMUM_MAX_N + 1
        path = self._gen(tmp_path, "threshold", n, 3)
        code, out, err = run_cli(capsys, "eval", str(path), "--max-n", str(n))
        assert code == 2
        assert out == ""
        assert err == (
            f"error: {path}: exhaustive optimum limited to n <= {OPTIMUM_MAX_N}, got {n}\n"
        )

    def test_knapsack_above_max_n_keeps_its_cost(self, tmp_path, capsys):
        # as for every other kind, no optimum above --max-n; below it the
        # enumeration runs, and exits 2 above its own cap of 20
        path = self._gen(tmp_path, "knapsack", 15, 1)
        row = "knapsack-n15-s1,knapsack,15,adg,7.0,{}\n"
        _, out, _ = run_cli(capsys, "eval", str(path))
        assert out.split("\n", 1)[1] == row.format(",,2.0,,")
        _, out, _ = run_cli(capsys, "eval", str(path), "--max-n", "15")
        assert out.split("\n", 1)[1] == row.format("6.0,1.1666666666666667,2.0,,true")
        path = self._gen(tmp_path, "knapsack", 22, 1)
        code, out, _ = run_cli(capsys, "eval", str(path))
        assert code == 0
        assert out.split("\n", 1)[1] == "knapsack-n22-s1,knapsack,22,adg,6.0,,,2.0,,\n"
        code, out, err = run_cli(capsys, "eval", str(path), "--max-n", "22")
        assert (code, out) == (2, "")
        assert err == f"error: {path}: knapsack enumeration limited to n <= 20, got 22\n"

    @pytest.mark.parametrize("gap, passed", [(1e-3, False), (5e-7, True), (-1e-3, True)])
    def test_pass_verdict_at_its_edge(self, tmp_path, capsys, monkeypatch, gap, passed):
        # the greedy's ratio on this file is about 1.155; its bound is moved
        # so that bound * opt sits ``gap`` below the cost: a gap beyond
        # RATIO_TOL fails the row and the run, one within it passes
        path = self._gen(tmp_path, "threshold", 10, 2)
        code, out, _ = run_cli(capsys, "eval", str(path), "--format", "json")
        (row,) = json.loads(out)
        assert code == 0 and row["pass"] is True
        cost, opt = row["expected_cost"], row["opt"]
        assert 1.15 < cost / opt < 1.16
        edge = (cost - gap) / opt
        engine_policy = cli.engine_policy
        monkeypatch.setattr(cli, "engine_policy", lambda *args: (engine_policy(*args)[0], edge))
        code, out, _ = run_cli(capsys, "eval", str(path), "--format", "json")
        (row,) = json.loads(out)
        assert (row["expected_cost"], row["opt"], row["bound"]) == (cost, opt, edge)
        assert row["pass"] is passed
        assert code == (0 if passed else 1)

    def test_identical_runs_identical_bytes(self, tmp_path, capsys):
        path = self._gen(tmp_path, "threshold", 5, 11)
        _, out1, _ = run_cli(capsys, "eval", str(path), "--engine", "greedy")
        _, out2, _ = run_cli(capsys, "eval", str(path), "--engine", "greedy")
        assert out1 == out2


class TestSampledCost:
    """``eval`` above ``--max-n`` averages sampled runs that go down the
    policy's tree together."""

    @staticmethod
    def _instance(tmp_path, kind, n, seed):
        path = tmp_path / f"{kind}-{n}-{seed}.json"
        args = ["gen", "--kind", kind, "--n", str(n), "--seed", str(seed), "--out", str(path)]
        assert main(args) == 0
        return inst_mod.load(path)

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize(
        "kind", ["threshold", "thresholds", "cdnf", "truthtable", "linear-system", "disjunction"]
    )
    def test_same_float_as_one_run_per_input(self, tmp_path, kind, engine):
        inst = self._instance(tmp_path, kind, 9, 4)
        # costs that are not integers, so that the order of the sums shows
        inst = dataclasses.replace(inst, costs=tuple(c / 3 + 0.1 for c in inst.costs))
        g = cli._EVAL[kind][0](inst.f)
        trials, seed = 157, 11
        total = 0.0
        for k in range(trials):
            x = sample_input(inst.dist, seed + k)
            policy, _ = cli.engine_policy(engine, g, inst)
            total += reference_run(policy, x, inst.n, as_costs(inst.costs))[2]
        policy, _ = cli.engine_policy(engine, g, inst)
        assert cli._sampled_cost(policy, inst, trials, seed) == total / trials

    @pytest.mark.parametrize("kind, n", [("threshold", 20), ("thresholds", 16), ("disjunction", 16)])
    def test_one_record_per_reached_node(self, tmp_path, kind, n):
        inst = self._instance(tmp_path, kind, n, 1)
        g = cli._EVAL[kind][0](inst.f)
        trials, seed = 200, 0
        reached = set()
        for k in range(trials):
            policy, _ = cli.engine_policy("adg", g, inst)
            trace = policy_runs(policy, [sample_input(inst.dist, seed + k)], inst.n, policy.c)[0]
            b = stars(inst.n)
            for i, v in zip(trace.tested, trace.outcomes):
                reached.add(b)
                b = extend(b, i, v)
        count = [0]

        def step(b):
            count[0] += 1
            return g.step(b)

        policy, _ = cli.engine_policy("adg", dataclasses.replace(g, step=step), inst)
        cli._sampled_cost(policy, inst, trials, seed)
        assert count[0] == len(reached) > 1


class TestVerify:
    def test_negative_seed_exits_two(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--seed", "-3")
        assert (code, out, err) == (2, "", "error: --seed must be at least 0, got -3\n")

    def test_default_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--seed", "1", "--max-n", "6", "--trials", "500")
        assert code == 0
        assert "[FAIL]" not in out
        assert out.count("[PASS]") >= 10

    def test_golden_bytes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--seed", "0")
        assert code == 0
        assert sha256(out) == GOLDEN["verify 0"]

    @pytest.mark.parametrize("seed", range(8))
    def test_dual_feasibility_line_format(self, capsys, seed):
        # the shape benchmark/checks.py parses the objective gap from
        code, out, _ = run_cli(capsys, "verify", "--seed", str(seed))
        assert code == 0
        lines = [line for line in out.splitlines() if " dual-feasibility " in line]
        assert len(lines) == 3
        for line in lines:
            assert re.fullmatch(
                r"\[PASS\] dual-feasibility threshold-\d+-\d{3} \(\d+ runs\): "
                r"objective gap \d\.\d\de[+-]\d\d",
                line,
            ), line

    def test_random_lines_draw_their_own_states(self, capsys, monkeypatch):
        # each random line draws from its own seed, and makes at least
        # --trials checks
        draws = []

        def recording(g, mode, **kw):
            rep = check_axioms(g, mode, **kw)
            if mode == "random":
                draws.append(kw["seed"])
                assert rep.checked >= kw["trials"]
            return rep

        monkeypatch.setattr(cli, "check_axioms", recording)
        for seed in range(4):
            code, out, _ = run_cli(capsys, "verify", "--seed", str(seed), "--max-n", "3")
            assert code == 0
        assert len(draws) == len(set(draws)) == 8

    def test_one_trial(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--trials", "1")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 26 and all(line.startswith("[PASS] ") for line in lines)
        counts = re.findall(r"axioms random threshold \(n=8, (\d+) checks\)", out)
        assert len(counts) == 2
        # one draw: a child of b, and two checks per untested position of b'
        assert all(1 <= int(k) <= 17 for k in counts)

    def test_wrong_step_fails_the_random_lines(self, capsys, monkeypatch):
        # step one too high at every state with five untested positions, fn
        # intact: the exhaustive axiom lines (n = 3, 4) have no such state,
        # the random lines (n = 8) must find one
        monkeypatch.setattr(
            cli, "threshold_utility", lambda f: step_off_by_one(threshold_utility(f), 5)
        )
        code, out, _ = run_cli(capsys, "verify", "--seed", "0")
        assert code == 1
        axioms = [line for line in out.splitlines() if " axioms " in line]
        exhaustive = [line for line in axioms if "exhaustive threshold" in line]
        assert len(exhaustive) == 3 and all(line.startswith("[PASS] ") for line in exhaustive)
        random_lines = [line for line in axioms if " axioms random " in line]
        assert len(random_lines) == 2
        for line in random_lines:
            assert line.startswith("[FAIL] ") and line.endswith(": step disagrees with fn")

    def test_objective_gap_fails_the_dual_lines(self, capsys, monkeypatch):
        # every record the walks open gains 1e-4 more than its test did: the
        # dual sums are untouched, but the dual mass drifts from the cost by
        # 1.7e-5 to 5.1e-5, past the 1e-6 the dual lines allow
        prefix_records = verify_mod._prefix_records

        def inflated(pol):
            grow = prefix_records(pol)

            def inflating(records, b, i, v):
                records = grow(records, b, i, v)
                gap, base, zero, one, gained = records[-1]
                records[-1] = (gap, base, zero, one, gained + 1e-4)
                return records

            return inflating

        monkeypatch.setattr(verify_mod, "_prefix_records", inflated)
        code, out, _ = run_cli(capsys, "verify", "--seed", "0")
        assert code == 1
        failed = [line for line in out.splitlines() if not line.startswith("[PASS] ")]
        assert len(failed) == 3
        for line in failed:
            m = re.fullmatch(
                r"\[FAIL\] dual-feasibility threshold-\d+-\d{3} \(\d+ runs\): "
                r"objective gap (\d\.\d\de-\d\d)",
                line,
            )
            assert m and 1e-5 < float(m[1]) < 1e-4, line

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

    def test_raising_suite_keeps_the_report(self, capsys, monkeypatch):
        import sbfe.cli as cli_mod

        argv = ("verify", "--seed", "1", "--max-n", "5", "--trials", "100")
        code, passing, _ = run_cli(capsys, *argv)
        assert code == 0

        def broken(g, d, c):
            raise PolicyError("policy requested illegal test 2 at **0**")

        monkeypatch.setattr(cli_mod, "check_dual_feasibility", broken)
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert "Traceback" not in out + err
        want = passing.splitlines()
        got = out.splitlines()
        assert len(got) == len(want)
        dual = [k for k, text in enumerate(want) if text.startswith("[PASS] dual-feasibility ")]
        assert len(dual) == 3
        for k, (w, g) in enumerate(zip(want, got)):
            if k in dual:
                case_id = w.split()[2]
                assert g == (
                    f"[FAIL] dual-feasibility {case_id}: PolicyError: "
                    "policy requested illegal test 2 at **0**"
                )
            else:
                assert g == w


class TestUnwritableOut:
    """``--out`` to a path that cannot be written: one error line and exit 2
    from every subcommand, no traceback."""

    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    @pytest.mark.parametrize("command", ["gen", "eval", "verify", "gap-demo"])
    def test_exits_two_with_one_line(self, tmp_path, capsys, command, where):
        gen = ["gen", "--kind", "threshold", "--n", "4", "--seed", "1"]
        inst = tmp_path / "t.json"
        assert main([*gen, "--out", str(inst)]) == 0
        args = {
            "gen": gen,
            "eval": ["eval", str(inst)],
            "verify": ["verify", "--max-n", "3", "--trials", "1"],
            "gap-demo": ["gap-demo", "--ns", "4"],
        }[command]
        if where == "directory":
            out, code = tmp_path, errno.EISDIR
        else:
            out, code = tmp_path / "missing" / "x.csv", errno.ENOENT
        assert run_cli(capsys, *args, "--out", str(out)) == (
            2, "", f"error: {out}: {os.strerror(code)}\n"
        )


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
        for ns in ("4,x", "0", "-1", "4,0", "", ",", "4,,8", "1000", "4,1000"):
            code, out, err = run_cli(capsys, "gap-demo", "--ns", ns)
            assert code == 2, ns
            assert out == "", ns
            assert err.startswith("error: ") and err.count("\n") == 1, ns


class TestUsage:
    def test_no_command_exits_two(self, capsys):
        assert main([]) == 2

    def test_python_dash_m(self, capsys):
        argv = ["gen", "--kind", "truthtable", "--n", "3", "--seed", "1"]
        done = run_python("-m", "sbfe", *argv)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["format"] == "sbfe-1"
        assert done.stdout == run_cli(capsys, *argv)[1]

    def test_bad_numeric_flag_exits_two(self, tmp_path, capsys):
        # n = 5 is above --max-n 3, so eval would sample --trials runs
        path = tmp_path / "t.json"
        gen = ["gen", "--kind", "threshold", "--n", "5", "--seed", "1", "--out", str(path)]
        assert main(gen) == 0
        for argv in (
            ["verify", "--max-n", "2"],
            ["verify", "--max-n", "0"],
            ["verify", "--trials", "0"],
            ["verify", "--trials", "-5"],
            ["eval", str(path), "--max-n", "3", "--trials", "0"],
            ["eval", str(path), "--max-n", "3", "--trials", "-5"],
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2, argv
            assert out == "", argv
            assert "error: " in err, argv

    def test_verify_max_n_below_three_is_one_line(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--max-n", "2")
        assert code == 2
        assert err == "error: --max-n must be at least 3, got 2\n"

    def test_unknown_flag_exits_two(self, capsys):
        for argv in (
            ["eval", "--bogus"],
            ["verify", "--format", "json"],
            ["gap-demo", "--seed", "1"],
        ):
            assert main(argv) == 2, argv


class TestParserReuse:
    """`main` builds its parser once per process and reuses it."""

    def test_one_parser_per_process(self):
        assert cli._build_parser() is cli._build_parser()

    def test_import_builds_no_parser(self):
        # a fresh interpreter, so that this module's import is not reloaded
        script = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def spy(self, *a, **kw):\n"
            "    built.append(self)\n"
            "    init(self, *a, **kw)\n"
            "argparse.ArgumentParser.__init__ = spy\n"
            "import sbfe.cli\n"
            "at_import = len(built)\n"
            "sbfe.cli.main(['gap-demo', '--ns', '4'])\n"
            "first = len(built)\n"
            "sbfe.cli.main(['gap-demo', '--ns', '4'])\n"
            "print(at_import, first, len(built) - first)\n"
        )
        done = run_python("-c", script)
        assert done.returncode == 0, done.stderr
        at_import, first, second = map(int, done.stdout.split()[-3:])
        assert at_import == 0
        assert first > 0
        assert second == 0

    def test_mixed_calls_match_fresh_parsers(self, tmp_path, capsys, monkeypatch):
        # n = 10 lies between verify's default --max-n (8) and eval's (14):
        # a default leaking from one subcommand into the other would sample
        # the eval row, or run verify's suites at another size
        path = tmp_path / "t.json"
        assert main(["gen", "--kind", "threshold", "--n", "10", "--seed", "2",
                     "--out", str(path)]) == 0
        capsys.readouterr()
        calls = (
            ["eval", str(path)],
            ["verify"],
            ["eval", str(path), "--engine", "adg", "--format", "json"],
            ["eval", str(path), "--engine", "bogus"],
            ["eval", str(path)],
        )
        shared = [run_cli(capsys, *argv) for argv in calls]
        assert [code for code, _, _ in shared] == [0, 0, 0, 2, 0]
        monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
        fresh = [run_cli(capsys, *argv) for argv in calls]
        assert shared == fresh


class TestDeepWalk:
    """Every walk of a policy keeps its own stack, so no valid file is too
    deep to evaluate."""

    @staticmethod
    def _disjunction(tmp_path, n):
        path = tmp_path / f"disjunction-n{n}.json"
        payload = {"format": "sbfe-1", "id": f"deep-n{n}", "kind": "disjunction", "n": n,
                   "p": [0.0005] * n, "c": [1.0] * n}
        path.write_text(json.dumps(payload), encoding="utf-8")
        return path

    def test_eval_at_n_1200(self, capsys, tmp_path):
        path = self._disjunction(tmp_path, 1200)
        argv = ("eval", str(path), "--engine", "baseline", "--trials", "2")
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 2  # the header and one row

    def test_walks_below_a_shallow_recursion_limit(self, tmp_path):
        inst = inst_mod.load(self._disjunction(tmp_path, 300))
        g = cli._EVAL["disjunction"][0](inst.f)
        xs = [sample_input(inst.dist, k) for k in range(2)]
        policy, _ = cli.engine_policy("greedy", g, inst)
        runs = [reference_run(policy, x, inst.n, as_costs(inst.costs)) for x in xs]
        f, d, c = harmonic_gap_instance(512)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 60)
        try:
            harmonic = expected_cost(cp_ratio_policy(d, c), d, c)
            got = {}
            for engine in ("greedy", "adg"):
                policy, _ = cli.engine_policy(engine, g, inst)
                got[engine] = cli._sampled_cost(policy, inst, 2, 0)
            policy, _ = cli.engine_policy("greedy", g, inst)
            trace = policy_runs(policy, xs[:1], inst.n, policy.c)[0]
        finally:
            sys.setrecursionlimit(limit)
        assert harmonic == pytest.approx(float(sum(Fraction(1, t) for t in range(1, 513))))
        # on unit costs and equal p both policies test in index order
        assert got["greedy"] == got["adg"] == (runs[0][2] + runs[1][2]) / 2
        assert (trace.tested, trace.outcomes, trace.total_cost) == runs[0][:3]
