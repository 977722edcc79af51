"""Command-line interface: grammar, JSON contract, exit codes."""

import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import chaineff.poset
from chaineff.cli import _BUILTINS, _parse_builtin, run
from chaineff.efficiency import inv_eta_string
from chaineff.setsystem import SetSystem

SRC = Path(__file__).resolve().parent.parent / "src"
FOUR_CITY_TEXT = "4\n0 1 2 3\n1 0 4 5\n2 4 0 6\n3 5 6 0\n"


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def assert_one_line_error(capsys, prefix="error: "):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith(prefix) and err.count("\n") == 1


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
        # a field too few or too many; a matching complement far past 64
        # elements is refused before its offsets range(1, m) are built
        for name in ["circulant:xyz", "counterexample:5", "matchcomp:4:7", "matchcomp:99999999999"]:
            assert run(["count", "ideals", "--builtin", name]) == 2
            assert_one_line_error(capsys)
        assert run(["chains", "--builtin", "tower:3:2:9"]) == 2
        assert_one_line_error(capsys)

    @pytest.mark.parametrize("method", ["bipartite-sum", "circulant-transfer"])
    def test_kernel_memory_budget_exit_3(self, capsys, method):
        argv = ["count", "ideals", "--builtin", "circulant:12:0,1,10", "--method", method]
        assert run(["--memory-budget", "16", *argv]) == 3
        assert "Traceback" not in capsys.readouterr().err

    def test_transfer_start_states_over_budget_exit_3(self, capsys):
        # w = 29: one row pair per start state, but 2^29 start states
        argv = ["count", "ideals", "--builtin", "circulant:30:0,29", "--method", "circulant-transfer"]
        assert run(argv) == 3
        err = capsys.readouterr().err
        assert err == (
            "resource limit: circulant-transfer needs 536870912 resident entries,"
            " over the budget of 268435456\n"
        )

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
        ideals = _parse_builtin("ideals:bucket:4:2")
        assert isinstance(ideals, SetSystem)
        assert ideals.members == _parse_builtin("tower:4:2").members

    @pytest.mark.parametrize("name", ["ideals:tower:2:2", "ideals:", "ideals:nosuch:3"])
    def test_ideals_of_a_non_poset_exit_2(self, capsys, name):
        assert run(["efficiency", "--builtin", name]) == 2
        assert_one_line_error(capsys)

    @pytest.mark.parametrize("name", ["bucket:4:3", "counterexample"])
    def test_general_poset_efficiency_matches_the_separate_counts(self, capsys, name):
        code, doc = run_json(capsys, ["efficiency", "--builtin", name])
        assert code == 0
        _, ideals = run_json(capsys, ["count", "ideals", "--builtin", name])
        _, extensions = run_json(capsys, ["count", "extensions", "--builtin", name])
        alpha, lam = ideals["value"], extensions["value"]
        assert (doc["alpha"], doc["lambda"]) == (alpha, lam)
        assert doc["inv_eta"] == inv_eta_string(doc["n"], int(alpha), int(lam))
        assert doc["provenance"]["method"] == "ideals:lattice,extensions:ideal-dp"

    def test_tower_past_the_memory_budget_exit_3(self, capsys):
        # tower:20:2 has 2,097,151 members
        assert run(["--memory-budget", "100000", "chains", "--builtin", "tower:20:2"]) == 3
        assert_one_line_error(capsys, "resource limit: ")

    def test_chains_tower(self, capsys):
        code, doc = run_json(capsys, ["chains", "--builtin", "tower:3:2"])
        assert code == 0 and doc["value"] == "36"

    @pytest.mark.parametrize("member", ["-1", "3", "0 7"])
    def test_member_outside_universe_exit_2(self, capsys, tmp_path, member):
        f = tmp_path / "a.txt"
        f.write_text(f"3 3\n-\n{member}\n0 1 2\n")
        assert run(["efficiency", "--setsystem", str(f)]) == 2
        assert_one_line_error(capsys)


def _seeded(tmp_path, command):
    """A random-cover call of ``command`` ("cover" or "solve"), without its seed."""
    cover = ["--builtin", "tower:2:2", "--strategy", "random"]
    if command == "cover":
        return ["cover", *cover]
    f = tmp_path / "four.txt"
    f.write_text(FOUR_CITY_TEXT)
    return ["solve", "tsp", "--matrix", str(f), "--algo", "tradeoff", *cover]


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

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616", "-18446744073709551611"])
    @pytest.mark.parametrize("command", ["cover", "solve"])
    def test_seed_out_of_range_exit_2(self, capsys, tmp_path, command, seed):
        # a seed folded mod 2^64 would print one seed and draw from another
        assert run([*_seeded(tmp_path, command), "--seed", seed]) == 2
        assert_one_line_error(capsys)

    @pytest.mark.parametrize("seed", [0, (1 << 64) - 1])
    @pytest.mark.parametrize("command", ["cover", "solve"])
    def test_seed_bounds_are_accepted(self, capsys, tmp_path, command, seed):
        code, doc = run_json(capsys, [*_seeded(tmp_path, command), "--seed", str(seed)])
        assert code == 0 and doc["provenance"]["seed"] == seed

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
        # the tower's 7 members fit, so the solver refuses its DP table
        assert run(["--memory-budget", "7", *argv]) == 3
        assert capsys.readouterr().err == (
            "resource limit: DP table needs 10 resident entries, over the budget of 7\n"
        )

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

    @pytest.mark.parametrize(
        "command, text",
        [
            (["count", "ideals", "--poset"], "3 2\n0 1\n1 2\n0 2\n"),
            (["solve", "tsp", "--algo", "gs", "--matrix"], FOUR_CITY_TEXT + "1 2 3 4\n"),
            (["solve", "tsp", "--algo", "gs", "--matrix"], "4 0\n" + FOUR_CITY_TEXT[2:]),
            (["solve", "dfas", "--algo", "held-karp", "--graph"], "3 2\n0 1\n1 2\n2 0\n"),
            (["solve", "dfas", "--algo", "held-karp", "--graph"], "3 3 0\n0 1\n1 2\n2 0\n"),
        ],
        ids=["poset-line", "tsp-row", "tsp-header", "dfas-arc", "dfas-header"],
    )
    def test_content_past_declared_size_exit_2(self, capsys, tmp_path, command, text):
        f = tmp_path / "input.txt"
        f.write_text(text)
        assert run([*command, str(f)]) == 2
        assert_one_line_error(capsys)

    @pytest.mark.parametrize(
        "command, text",
        [
            (["dfas", "--graph"], "40000 0\n"),
            (["dfas", "--graph"], "70 1\n0 69\n"),
            (["tsp", "--matrix"], "66\n" + ("0 " * 66 + "\n") * 66),
        ],
        ids=["dfas-40000", "dfas-70", "tsp-66"],
    )
    def test_more_than_64_elements_exit_2(self, capsys, tmp_path, command, text):
        # every DP mask is a uint64; the instance is refused as it is read
        f = tmp_path / "input.txt"
        f.write_text(text)
        argv = ["--memory-budget", str(10**25), "solve", command[0], command[1], str(f)]
        assert run([*argv, "--algo", "held-karp"]) == 2
        assert_one_line_error(capsys)

    def test_tradeoff_at_64_elements(self, capsys, tmp_path):
        # 64 vertices in groups of 3 are 21 whole groups and one of a single
        # element, 4^21 * 2 masks; 65 vertices are refused as they are read
        graph, system = tmp_path / "g.txt", tmp_path / "a.txt"
        system.write_text("3 4\n-\n0\n0 1\n0 1 2\n")
        argv = ["solve", "dfas", "--graph", str(graph), "--algo", "tradeoff"]
        graph.write_text("64 0\n")
        assert run([*argv, "--setsystem", str(system)]) == 3
        assert_one_line_error(capsys, "resource limit: ")
        graph.write_text("65 0\n")
        assert run([*argv, "--setsystem", str(system)]) == 2
        assert_one_line_error(capsys)

    @pytest.mark.parametrize(
        "text, algo",
        [
            ("45 0\n", ["held-karp"]),
            ("64 0\n", ["held-karp"]),
            ("64 0\n", ["tradeoff", "--builtin", "tower:8:1"]),
        ],
        ids=["held-karp-45", "held-karp-64", "power-set-tradeoff-64"],
    )
    def test_family_past_physical_memory_exit_3(self, capsys, tmp_path, text, algo):
        # a budget far above the machine: the family's masks alone would not fit
        f = tmp_path / "g.txt"
        f.write_text(text)
        argv = ["--memory-budget", str(10**25), "solve", "dfas", "--graph", str(f), "--algo"]
        assert run([*argv, *algo]) == 3
        assert_one_line_error(capsys, "resource limit: ")

    @pytest.mark.parametrize("problem", ["tsp", "dfas"])
    def test_held_karp_holds_its_largest_byte_charge(self, capsys, monkeypatch, tmp_path, problem):
        # under a budget far above the machine, physical memory is the guard;
        # each refusal names the bytes it needed, so raising the machine to
        # them in turn ends at the largest charge: it runs there, within 1.5
        # times its peak, and one byte fewer is refused
        rng, f = random.Random(5), tmp_path / "input.txt"
        if problem == "tsp":
            rows = [[0 if i == j else rng.randint(1, 1000) for j in range(13)] for i in range(13)]
            f.write_text("13\n" + "".join(" ".join(map(str, row)) + "\n" for row in rows))
        else:
            arcs = [(u, v) for u in range(14) for v in range(14) if u != v and rng.random() < 0.3]
            f.write_text(f"14 {len(arcs)}\n" + "".join(f"{u} {v}\n" for u, v in arcs))
        flag = "--matrix" if problem == "tsp" else "--graph"
        argv = ["--memory-budget", str(10**12), "solve", problem, flag, str(f)]
        argv += ["--algo", "held-karp"]
        machine = [0]
        monkeypatch.setattr(chaineff.poset, "physical_bytes", lambda: machine[0])
        for _ in range(40):
            if run(argv) == 0:
                break
            err = capsys.readouterr().err
            need = re.fullmatch(r"resource limit: .* needs (\d+) bytes, over physical memory\n", err)
            machine[0] = int(need.group(1))
        largest = machine[0]
        capsys.readouterr()
        tracemalloc.start()
        try:
            assert run(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert largest > 1_000_000 and peak <= 1.5 * largest
        capsys.readouterr()
        machine[0] = largest - 1
        assert run(argv) == 3
        assert_one_line_error(capsys, "resource limit: DP plan needs")

    @pytest.mark.parametrize(
        "error", [MemoryError(), MemoryError("Unable to allocate 8.00 EiB for an array")]
    )
    def test_memory_error_exit_3(self, capsys, monkeypatch, error):
        def exhausted(*args):
            raise error

        monkeypatch.setattr("chaineff.cli.count_ideals", exhausted)
        assert run(["count", "ideals", "--builtin", "matchcomp:3"]) == 3
        assert_one_line_error(capsys, "resource limit: ")

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
        code, doc = run_json(capsys, ["bounds", "regbip", "29", "6"])
        assert code == 0

    @pytest.mark.parametrize(
        "argv",
        [["bounds", "reglimit", "100000000"], ["bounds", "regbip", "100000", "3"]],
        ids=["reglimit", "regbip"],
    )
    def test_past_64_elements_exit_2(self, capsys, argv):
        # a d-regular bipartite poset has 2m >= 2d elements, at most 64
        assert run(argv) == 2
        assert_one_line_error(capsys)


class TestVerify:
    def test_kp_baseline(self, capsys):
        code, doc = run_json(capsys, ["verify", "kp-baseline"])
        assert code == 0 and doc["status"] == "PASS"

    def test_counterexample_tower_holds_the_memory_budget(self, capsys):
        # alpha = 260,553 ideals fit; the tower of 17-cubes holds 262,143 members
        code, doc = run_json(capsys, ["--memory-budget", "262143", "verify", "counterexample"])
        assert code == 0 and doc["status"] == "PASS"
        assert run(["--memory-budget", "262142", "verify", "counterexample"]) == 3
        assert_one_line_error(capsys, "resource limit: tower:17:2 needs 262143 resident entries")

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


class TestUsageErrors:
    """Argument errors from the parser and its subparsers are one line."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "dfas", "--graph", "g.txt", "--algo", "gs"],
            ["cover", "--builtin", "tower:2:2", "--strategy", "nope"],
            ["bounds", "nope"],
            ["verify", "nope"],
            ["--memory-budget", "x", "count", "ideals", "--builtin", "matchcomp:4"],
            [],
        ],
        ids=["algo", "strategy", "bound", "target", "budget", "no-command"],
    )
    def test_usage_error_is_one_line_exit_2(self, capsys, argv):
        assert run(argv) == 2
        assert_one_line_error(capsys)

    @pytest.mark.parametrize("argv", [["--help"], ["bounds", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        assert run(argv) == 0
        assert "usage:" in capsys.readouterr().out


class TestRunReuse:
    """One process runs many commands through the same parser."""

    def test_same_argv_same_stdout(self, capsys, tmp_path):
        f = tmp_path / "four.txt"
        f.write_text(FOUR_CITY_TEXT)
        argv = ["solve", "tsp", "--matrix", str(f), "--algo", "tradeoff", "--builtin", "tower:2:2"]
        outs = []
        for _ in range(2):
            assert run(argv) == 0
            doc = json.loads(capsys.readouterr().out)
            doc["stats"].pop("wallTime")
            outs.append(doc)
        assert outs[0] == outs[1]

    def test_valid_call_after_usage_error(self, capsys):
        # the failed call parses --strategy and --seed before its error
        bad = ["cover", "--builtin", "tower:2:2", "--strategy", "random", "--seed", "5", "--x"]
        assert run(bad) == 2
        code, doc = run_json(capsys, ["cover", "--builtin", "tower:2:2"])
        assert code == 0 and doc["certified"] is True
        assert doc["provenance"]["method"] == "greedy"

    def test_memory_budget_does_not_carry(self, capsys, tmp_path):
        f = tmp_path / "four.txt"
        f.write_text(FOUR_CITY_TEXT)
        argv = ["solve", "tsp", "--matrix", str(f), "--algo", "held-karp"]
        assert run(["--memory-budget", "2", *argv]) == 3
        code, doc = run_json(capsys, argv)
        assert code == 0 and doc["value"] == "14"

    def test_parser_is_built_at_first_use(self):
        # the parser is cached, but importing the CLI builds nothing
        code = (
            "import chaineff.cli as cli, chaineff.cover as cover;"
            "print(cli._build_parser.cache_info().currsize,"
            " cover._rank_table.cache_info().currsize)"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert out.stdout.split() == ["0", "0"]


    def test_runs_as_a_module(self):
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        argv = [sys.executable, "-m", "chaineff", "bounds", "reglimit", "2"]
        out = subprocess.run(argv, env=env, capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout)["name"] == "regular-bipartite-limit"

# Tokens near the readers' edges: counts past 64, negative and huge
# integers, inf, words, and the set-system reader's "-" for the empty set.
_JUNK = st.sampled_from(["-1", "inf", "x", "-", "1e3", "64", "65", ""])
_JUNK |= st.integers(2**62, 2**66).map(str)


@st.composite
def _texts(draw, shape):
    """Bytes shaped like a reader's input, now and then broken.

    "square" is a count n and n rows of n tokens (a TSP matrix); "pairs" a
    header "n m" and m lines of two (a graph or a poset); "lines" a header
    "n k" and k lines of up to three (a set system).  Half the texts hold
    weights below 10 or elements below n only.  In the others a header
    field is junk one time in five and any other token one time in ten.
    One text in ten is raw bytes.
    """
    if draw(st.integers(0, 9)) == 0:
        return draw(st.binary(max_size=40))
    n = draw(st.integers(0, 7))
    broken = draw(st.booleans())
    token = st.integers(0, 9 if shape == "square" else max(n - 1, 0)).map(str)
    if broken:
        token = st.one_of(*[token] * 9, _JUNK)
    count = n if shape == "square" else draw(st.integers(0, 7))
    lines = []
    for _ in range(count):
        width = {"square": n, "pairs": 2}.get(shape) or draw(st.integers(0, 3))
        lines.append(" ".join(draw(st.lists(token, min_size=width, max_size=width))))
    header = [str(n)] if shape == "square" else [str(n), str(count)]
    if broken:
        header = [draw(st.one_of(*[st.just(field)] * 4, _JUNK)) for field in header]
    return "\n".join([" ".join(header), *lines]).encode()


# A builtin name: a known or unknown kind, then ':'-separated fields,
# mostly small integers, some of them comma lists.  ``ideals:`` wraps
# another name.
_FIELD = st.one_of(
    *[st.integers(1, 8).map(str)] * 4,
    st.integers(-1, 12).map(str),
    st.sampled_from(["32", "64", "65", "", "x", "0,1", "1,3,5", "0,,1"]),
)
_KINDS = [*sorted(_BUILTINS), "ideals:matchcomp", "ideals:tower", "?"]
_NAMES = st.builds(
    lambda kind, fields: ":".join([kind, *fields]),
    st.sampled_from(_KINDS),
    st.lists(_FIELD, max_size=3),
)

_FUZZ = settings(max_examples=80, suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestInputBoundary:
    """Any file or builtin name either succeeds or exits 2 or 3 with one line
    on stderr.  The budget keeps every example to a few MB."""

    def check(self, capsys, argv):
        code = run(["--memory-budget", "100000", *argv])
        captured = capsys.readouterr()
        assert code in (0, 2, 3)
        if code:
            assert "Traceback" not in captured.err
            assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
        else:
            assert captured.err == ""
            assert isinstance(json.loads(captured.out), dict)

    def write(self, tmp_path, data):
        f = tmp_path / "input.txt"
        f.write_bytes(data)
        return str(f)

    @_FUZZ
    @given(data=_texts("square"), algo=st.sampled_from(["held-karp", "gs"]))
    def test_tsp_reader(self, capsys, tmp_path, data, algo):
        self.check(capsys, ["solve", "tsp", "--matrix", self.write(tmp_path, data), "--algo", algo])

    @_FUZZ
    @given(data=_texts("pairs"))
    def test_dfas_reader(self, capsys, tmp_path, data):
        graph = self.write(tmp_path, data)
        self.check(capsys, ["solve", "dfas", "--graph", graph, "--algo", "held-karp"])

    @_FUZZ
    @given(data=_texts("lines"), command=st.sampled_from([["chains"], ["efficiency"]]))
    # an element below a universe past 64 is not shifted into a mask
    @example(data=b"99999999999999999999 1\n99999999999999999998\n", command=["chains"])
    def test_setsystem_reader(self, capsys, tmp_path, data, command):
        self.check(capsys, [*command, "--setsystem", self.write(tmp_path, data)])

    @_FUZZ
    @given(data=_texts("pairs"), kind=st.sampled_from(["ideals", "extensions"]))
    def test_poset_reader(self, capsys, tmp_path, data, kind):
        self.check(capsys, ["count", kind, "--poset", self.write(tmp_path, data)])

    @_FUZZ
    @given(
        name=_NAMES,
        command=st.sampled_from(
            [["count", "ideals"], ["count", "extensions"], ["efficiency"], ["chains"]]
        ),
    )
    def test_builtin_grammar(self, capsys, name, command):
        self.check(capsys, [*command, "--builtin", name])
