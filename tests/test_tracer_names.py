"""The names the benchmark tracer swaps must exist in the chaineff modules.

``bench/spans.py`` wraps library functions by module attribute name; a
renamed or deleted attribute only shows as an ``AttributeError`` in a
traced benchmark run, so the names are checked here.  The file is loaded
from its source without writing a bytecode cache.
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
