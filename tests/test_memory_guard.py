"""Every memory refusal in the library goes through ``poset.charge``.

A kernel that checks its own budget inline raises ``ResourceLimit`` outside
``charge``, so the raise sites are pinned: ``charge`` itself, and the hard
caps, which refuse an instance by its size whatever the budget says.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "chaineff"

#: (module, function) -> the ResourceLimit raises it holds.
ALLOWED = {
    ("poset", "charge"): 2,  # resident entries over the budget, bytes over physical memory
    ("poset", "_or_closure_sum"): 1,  # a bipartite-sum side of more than 34 elements
    ("poset", "_count_extensions_brute"): 1,  # brute force past n = 10
    ("setsystem", "full_power_set"): 1,  # an explicit power set past n = 24
    ("arraydp", "build_plan"): 1,  # DP masks past 64 elements
    ("cover", "greedy_cover"): 1,  # covers are certified over S_n, n <= MAX_N
    ("cover", "randomized_cover"): 1,
    ("cover", "verify_cover"): 1,
}


def resource_limit_raises(module: str, source: str) -> Counter:
    """(module, innermost enclosing function) of each ``raise ResourceLimit``."""
    found = Counter()

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "ResourceLimit":
                found[module, func] += 1
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source), None)
    return found


def test_every_resource_limit_is_a_charge_or_a_hard_cap():
    found = Counter()
    for path in sorted(SRC.glob("*.py")):
        found += resource_limit_raises(path.stem, path.read_text())
    assert found == Counter(ALLOWED)

