"""Command-line interface: grammar, JSON contract, exit codes."""

import json

import pytest

from chaineff.cli import run

FOUR_CITY_TEXT = "4\n0 1 2 3\n1 0 4 5\n2 4 0 6\n3 5 6 0\n"


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def assert_one_line_error(capsys):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1


class TestCount:
    def test_builtin_matchcomp(self, capsys):
        code, doc = run_json(capsys, ["count", "ideals", "--builtin", "matchcomp:4"])
        assert code == 0
        assert doc["value"] == str(2**5 + 3)

    def test_extensions_method_flag(self, capsys):
        code, doc = run_json(
            capsys,
            ["count", "extensions", "--builtin", "circulant:5:0,1", "--method", "ideal-dp"],
        )
        assert code == 0
        assert doc["provenance"]["method"] == "ideal-dp"

    def test_poset_file(self, capsys, tmp_path):
        f = tmp_path / "p.txt"
        f.write_text("3 2\n0 1\n1 2\n")
        code, doc = run_json(capsys, ["count", "ideals", "--poset", str(f)])
        assert code == 0 and doc["value"] == "4"

    def test_missing_file_exit_2(self, capsys):
        assert run(["count", "ideals", "--poset", "/no/such/file"]) == 2

    def test_malformed_builtin_exit_2(self, capsys):
        assert run(["count", "ideals", "--builtin", "circulant:xyz"]) == 2

    @pytest.mark.parametrize("method", ["bipartite-sum", "circulant-transfer"])
    def test_kernel_memory_budget_exit_3(self, capsys, method):
        argv = ["count", "ideals", "--builtin", "circulant:12:0,1,10", "--method", method]
        assert run(["--memory-budget", "16", *argv]) == 3
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("cover_line", ["0 1 2", "1"])
    def test_malformed_cover_line_exit_2(self, capsys, tmp_path, cover_line):
        f = tmp_path / "p.txt"
        f.write_text(f"3 2\n0 1\n{cover_line}\n")
        assert run(["count", "ideals", "--poset", str(f)]) == 2
        assert_one_line_error(capsys)


class TestEfficiencyAndChains:
    def test_tower_efficiency(self, capsys):
        code, doc = run_json(capsys, ["efficiency", "--builtin", "tower:2:2"])
        assert code == 0 and float(doc["inv_eta"]) > 1.0

    def test_poset_efficiency(self, capsys):
        code, doc = run_json(capsys, ["efficiency", "--builtin", "matchcomp:3"])
        assert code == 0
        assert doc["alpha"] == "18" and doc["lambda"] == "48"

    def test_ideals_builtin_efficiency(self, capsys):
        code, doc = run_json(capsys, ["efficiency", "--builtin", "ideals:matchcomp:4"])
        assert code == 0
        assert doc["size"] == "35" and doc["chains"] == "720"

    def test_ideals_of_bucket_order_are_the_tower(self, capsys):
        from chaineff.cli import _parse_builtin

        kind, ideals = _parse_builtin("ideals:bucket:4:2")
        assert kind == "setsystem"
        assert ideals.members == _parse_builtin("tower:4:2")[1].members

    @pytest.mark.parametrize("name", ["ideals:tower:2:2", "ideals:", "ideals:nosuch:3"])
    def test_ideals_of_a_non_poset_exit_2(self, capsys, name):
        assert run(["efficiency", "--builtin", name]) == 2
        assert_one_line_error(capsys)

    def test_chains_tower(self, capsys):
        code, doc = run_json(capsys, ["chains", "--builtin", "tower:3:2"])
        assert code == 0 and doc["value"] == "36"

    @pytest.mark.parametrize("member", ["-1", "3", "0 7"])
    def test_member_outside_universe_exit_2(self, capsys, tmp_path, member):
        f = tmp_path / "a.txt"
        f.write_text(f"3 3\n-\n{member}\n0 1 2\n")
        assert run(["efficiency", "--setsystem", str(f)]) == 2
        assert_one_line_error(capsys)


class TestCover:
    def test_greedy_deterministic(self, capsys):
        argv = ["cover", "--builtin", "tower:2:2"]
        _, doc1 = run_json(capsys, argv)
        _, doc2 = run_json(capsys, argv)
        assert doc1 == doc2 and doc1["certified"]

    def test_random_seeded(self, capsys):
        argv = ["cover", "--builtin", "tower:2:2", "--strategy", "random", "--seed", "3"]
        _, doc1 = run_json(capsys, argv)
        _, doc2 = run_json(capsys, argv)
        assert doc1 == doc2
        assert doc1["provenance"]["seed"] == 3

    @pytest.mark.parametrize("factor", ["nan", "inf", "1e300", "2"])
    def test_factor_is_not_an_option_exit_2(self, capsys, factor):
        argv = ["cover", "--builtin", "tower:2:2", "--strategy", "random", "--factor", factor]
        assert run(argv) == 2
        assert "Traceback" not in capsys.readouterr().err


class TestSolve:
    def test_tsp_all_algorithms(self, capsys, tmp_path):
        f = tmp_path / "four.txt"
        f.write_text(FOUR_CITY_TEXT)
        for algo in ("held-karp", "gs"):
            code, doc = run_json(capsys, ["solve", "tsp", "--matrix", str(f), "--algo", algo])
            assert code == 0 and doc["value"] == "14"
        stats = doc["stats"]
        assert stats["peakResidentEntries"] == stats["sweepPeakEntries"] == "16"
        assert int(stats["batchResidentEntries"]) > 0
        code, doc = run_json(
            capsys,
            ["solve", "tsp", "--matrix", str(f), "--algo", "tradeoff", "--builtin", "tower:2:2"],
        )
        assert code == 0 and doc["value"] == "14"
        assert doc["witness"] is not None
        assert float(doc["stats"]["wallTime"]) >= 0.0

    def test_dfas(self, capsys, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("3 3\n0 1\n1 2\n2 0\n")
        code, doc = run_json(capsys, ["solve", "dfas", "--graph", str(f), "--algo", "held-karp"])
        assert code == 0 and doc["value"] == "1"

    @pytest.mark.parametrize("arc_line", ["0", "0 1 2"])
    def test_malformed_arc_line_exit_2(self, capsys, tmp_path, arc_line):
        f = tmp_path / "g.txt"
        f.write_text(f"3 2\n0 1\n{arc_line}\n")
        assert run(["solve", "dfas", "--graph", str(f), "--algo", "held-karp"]) == 2
        assert_one_line_error(capsys)

    def test_malformed_matrix_exit_2(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("3\n0 1\n")
        assert run(["solve", "tsp", "--matrix", str(f), "--algo", "gs"]) == 2

    def test_memory_budget_exit_3(self, capsys, tmp_path):
        f = tmp_path / "four.txt"
        f.write_text(FOUR_CITY_TEXT)
        code = run(
            ["--memory-budget", "2", "solve", "tsp", "--matrix", str(f), "--algo", "held-karp"]
        )
        assert code == 3

    def test_tradeoff_memory_budget_exit_3(self, capsys, tmp_path):
        f = tmp_path / "four.txt"
        f.write_text(FOUR_CITY_TEXT)
        argv = ["solve", "tsp", "--matrix", str(f), "--algo", "tradeoff", "--builtin", "tower:2:2"]
        assert run(["--memory-budget", "2", *argv]) == 3
        assert "Traceback" not in capsys.readouterr().err

    def test_tradeoff_on_an_ideal_family(self, capsys, tmp_path):
        f = tmp_path / "six.txt"
        weights = [[0 if i == j else (7 * i + 3 * j) % 11 for j in range(6)] for i in range(6)]
        f.write_text("6\n" + "".join(" ".join(map(str, row)) + "\n" for row in weights))
        base = ["solve", "tsp", "--matrix", str(f), "--algo"]
        _, held_karp = run_json(capsys, [*base, "held-karp"])
        code, doc = run_json(capsys, [*base, "tradeoff", "--builtin", "ideals:matchcomp:2"])
        assert code == 0 and doc["value"] == held_karp["value"]
        stats = doc["stats"]
        assert stats["peakResidentEntries"] == max(
            stats["sweepPeakEntries"], stats["witnessPeakEntries"], key=int
        )

    @pytest.mark.parametrize("g", ["0", "-3"])
    def test_tradeoff_power_below_one_exit_2(self, capsys, tmp_path, g):
        f = tmp_path / "four.txt"
        f.write_text(FOUR_CITY_TEXT)
        argv = ["solve", "tsp", "--matrix", str(f), "--algo", "tradeoff", "--builtin", "tower:2:2"]
        assert run([*argv, "--g", g]) == 2
        assert_one_line_error(capsys)

    def test_gs_memory_budget_exit_3(self, capsys, tmp_path):
        f = tmp_path / "four.txt"
        f.write_text(FOUR_CITY_TEXT)
        assert run(["--memory-budget", "2", "solve", "tsp", "--matrix", str(f), "--algo", "gs"]) == 3

    @pytest.mark.parametrize("budget", ["-1", "0"])
    @pytest.mark.parametrize(
        "command",
        [
            ["solve", "tsp", "--matrix", "{four}", "--algo", "held-karp"],
            ["count", "ideals", "--builtin", "circulant:5:0,1", "--method", "circulant-transfer"],
        ],
    )
    def test_memory_budget_below_one_exit_2(self, capsys, tmp_path, budget, command):
        f = tmp_path / "four.txt"
        f.write_text(FOUR_CITY_TEXT)
        argv = [arg.format(four=f) for arg in command]
        assert run(["--memory-budget", budget, *argv]) == 2
        assert_one_line_error(capsys)


class TestBounds:
    def test_improved(self, capsys):
        code, doc = run_json(capsys, ["bounds", "improved"])
        assert code == 0
        assert float(doc["auxiliaries"]["gamma"]) <= 0.3261

    def test_basic(self, capsys):
        code, doc = run_json(capsys, ["bounds", "basic", "1000"])
        assert code == 0 and 0.3 < float(doc["value"]) < 0.36

    def test_regbip_reglimit(self, capsys):
        code, doc = run_json(capsys, ["bounds", "regbip", "13", "13"])
        assert code == 0
        code, doc = run_json(capsys, ["bounds", "reglimit", "6"])
        assert code == 0 and float(doc["value"]) > 3.6


class TestVerify:
    def test_kp_baseline(self, capsys):
        code, doc = run_json(capsys, ["verify", "kp-baseline"])
        assert code == 0 and doc["status"] == "PASS"

    def test_power_identity(self, capsys):
        code, doc = run_json(capsys, ["verify", "power-identity"])
        assert code == 0 and doc["status"] == "PASS"

    def test_byte_identical_output(self, capsys):
        run(["bounds", "improved"])
        first = capsys.readouterr().out
        run(["bounds", "improved"])
        second = capsys.readouterr().out
        assert first == second


class TestOutput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "ideals", "--builtin", "matchcomp:3"],
            ["efficiency", "--builtin", "tower:2:2"],
            ["chains", "--builtin", "tower:2:2"],
            ["cover", "--builtin", "tower:2:2"],
            ["bounds", "improved"],
            ["verify", "kp-baseline"],
            ["solve", "tsp", "--matrix", "{four}", "--algo", "held-karp"],
            ["solve", "tsp", "--matrix", "{four}", "--algo", "gs"],
            ["solve", "tsp", "--matrix", "{four}", "--algo", "tradeoff", "--builtin", "tower:2:2"],
        ],
        ids=lambda argv: argv[5] if argv[0] == "solve" else argv[0],
    )
    def test_output_is_one_line_of_json(self, capsys, tmp_path, argv):
        f = tmp_path / "four.txt"
        f.write_text(FOUR_CITY_TEXT)
        assert run([arg.format(four=f) for arg in argv]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 1 and out.endswith("\n")
        assert isinstance(json.loads(out), dict)
