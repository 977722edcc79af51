"""The names the benchmark tracer swaps must exist in the chaineff modules,
and its spans must fire.

``bench/spans.py`` wraps library functions by module attribute name; a
renamed or deleted attribute only shows as an ``AttributeError`` in a
traced benchmark run, and a call that no longer goes through the swapped
name leaves its spans silently empty, so both are checked here.  The file
is loaded from its source without writing a bytecode cache.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location("_bench_spans", SPANS_PATH)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def swapped_names(spans):
    names = [(module, attr) for module, attr, _ in spans._SPANS]
    names += [(module, attr) for attr in spans._KERNELS for module in ("cli", "poset")]
    names += [("cli", attr) for attr in spans._PROBLEM_BUILDERS]
    return names + [("poset", "enumerate_ideals")]


def test_every_swapped_name_exists(spans):
    missing = [
        f"chaineff.{module}.{attr}"
        for module, attr in swapped_names(spans)
        if not hasattr(importlib.import_module("chaineff." + module), attr)
    ]
    assert not missing


def test_tracer_installs_and_restores(spans):
    cli = importlib.import_module("chaineff.cli")
    before = cli.count_ideals
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.count_ideals is not before
    finally:
        tracer.uninstall()
    assert cli.count_ideals is before


def test_spans_fire_through_the_cli(spans, tmp_path, capsys):
    cli = importlib.import_module("chaineff.cli")
    matrix = tmp_path / "five.txt"
    rows = [[0 if i == j else 1 + (3 * i + 5 * j) % 7 for j in range(5)] for i in range(5)]
    matrix.write_text("5\n" + "".join(" ".join(map(str, row)) + "\n" for row in rows))
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.run(["cover", "--builtin", "tower:2:2"]) == 0
        argv = ["solve", "tsp", "--matrix", str(matrix), "--algo", "tradeoff"]
        assert cli.run([*argv, "--builtin", "tower:2:2"]) == 0
        assert cli.run(["bounds", "reglimit", "6"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    recorded = {span[0] for span in tracer.spans}
    assert {"cover.greedy", "solver.tradeoff", "bounds"} <= recorded
    assert tracer.counts["cover.size"] > 0
    assert tracer.counts["solver.updates"] > 0
