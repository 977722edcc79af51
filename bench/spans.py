"""Spans around the calls into each chaineff layer, recorded in memory.

``Tracer.install`` swaps wrappers into the module namespaces the calls
are looked up in (``chaineff.cli`` imports most library functions by
name, and ``solve_chain_tradeoff`` reaches ``greedy_cover`` through
``chaineff.solver``); ``uninstall`` puts the originals back, so untraced
rounds run the program unchanged.  A span is (name, start, end, parent);
a layer's self time is its spans' durations minus their children's.
The cost oracle is called hundreds of thousands of times per solve, so
its calls are summed into their parent span instead of being stored.
"""

from __future__ import annotations

import ctypes
import dataclasses
import importlib
import json
import os
import resource
import time
from collections import defaultdict

_SPANS = [
    ("cli", "solve_held_karp", "solver.held_karp"),
    ("cli", "solve_chain_tradeoff", "solver.tradeoff"),
    ("cli", "solve_gurevich_shelah", "solver.gs"),
    ("cli", "greedy_cover", "cover.greedy"),
    ("solver", "greedy_cover", "cover.greedy"),
    ("cli", "randomized_cover", "cover.random"),
    ("solver", "randomized_cover", "cover.random"),
    ("cover", "verify_cover", "cover.verify"),
    ("cli", "count_maximal_chains", "setsystem.chains"),
    ("cover", "count_maximal_chains", "setsystem.chains"),
    ("setsystem", "count_maximal_chains", "setsystem.chains"),
    ("cli", "cartesian_power", "setsystem.power"),
    ("solver", "cartesian_power", "setsystem.power"),
    ("cli", "tower_of_cubes", "setsystem.build"),
    ("cli", "setsystem_from_text", "setsystem.build"),
    ("poset", "make_report", "efficiency.report"),
    ("setsystem", "make_report", "efficiency.report"),
    ("bounds", "basic_upper_bound", "bounds"),
    ("bounds", "improved_upper_bound", "bounds"),
    ("bounds", "regular_bipartite_bounds", "bounds"),
    ("bounds", "regular_bipartite_efficiency_limit", "bounds"),
]

# counting entry points, spanned per method under the kernel's name
_KERNELS = {
    "count_ideals": "lattice",
    "count_linear_extensions": "ideal-dp",
}
_KERNEL_SPANS = {
    "lattice": "poset.lattice",
    "bipartite-sum": "poset.bipartite_sum",
    "circulant-transfer": "poset.transfer",
    "ideal-dp": "poset.ideal_dp",
    "bipartite-fst": "poset.fst",
    "orbit": "poset.orbit",
}
_PROBLEM_BUILDERS = ("tsp_as_permutation_problem", "dfas_as_permutation_problem")


def _peak_growth_mb(fn, args, kwargs):
    """Run ``fn`` in a forked child; returns (its result, peak RSS growth in MB).

    A forked child's peak RSS starts from its own resident size, and the
    child first hands its free heap back to the system, so the growth is
    what the kernel itself held at its peak.  tracemalloc measures the same
    but slows lattice and ideal-dp about 25-fold.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child always ends in os._exit, never returns
        status, payload = 1, json.dumps(["no result", 0.0])
        try:
            os.close(read_fd)
            ctypes.CDLL(None).malloc_trim(0)
            with open("/proc/self/statm") as fh:
                base = int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
            value = fn(*args, **kwargs)
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
            status, payload = 0, json.dumps([str(value), (peak - base) / 2**20])
        except Exception as exc:  # reported to the parent, which raises
            payload = json.dumps([repr(exc), 0.0])
        finally:
            try:
                with os.fdopen(write_fd, "w") as fh:
                    fh.write(payload)
            finally:
                os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd) as fh:
        payload = fh.read()
    _, status = os.waitpid(pid, 0)
    value, mb = json.loads(payload)
    if status != 0:
        raise RuntimeError(f"kernel failed in the memory probe: {value}")
    return int(value), mb


class Tracer:
    """Records spans and per-layer counters while installed."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, child seconds]
        self.stack = []
        self.counts = defaultdict(float)  # per-layer counters and leaf times
        self.alloc = False
        self.alloc_peak_mb = {}
        self._saved = []

    # -- recording ---------------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        parent = self.stack[-1] if self.stack else None
        index = len(self.spans)
        span = [name, time.perf_counter(), None, parent, 0.0]
        self.spans.append(span)
        self.stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()
            if parent is not None:
                self.spans[parent][4] += span[2] - span[1]

    def _leaf(self, name, fn):
        def leaf(*args):
            t0 = time.perf_counter()
            out = fn(*args)
            dt = time.perf_counter() - t0
            self.counts[name + "_s"] += dt
            self.counts[name + "_calls"] += 1
            if self.stack:
                self.spans[self.stack[-1]][4] += dt
            return out

        return leaf

    def self_times(self, first: int = 0) -> dict:
        """Seconds per span name, children excluded, over spans[first:]."""
        out = defaultdict(float)
        for name, start, end, _parent, child in self.spans[first:]:
            out[name] += end - start - child
        return out

    # -- wrappers ----------------------------------------------------------

    def _spanned(self, name, fn):
        def wrapper(*args, **kwargs):
            out = self.call(name, fn, *args, **kwargs)
            self._count(name, out)
            return out

        return wrapper

    def _kernel(self, fn, default):
        def wrapper(p, method=default, *args, **kwargs):
            name = _KERNEL_SPANS.get(method, "poset." + method)
            if not self.alloc:
                return self.call(name, fn, p, method, *args, **kwargs)
            value, mb = _peak_growth_mb(fn, (p, method, *args), kwargs)
            self.alloc_peak_mb[name] = max(mb, self.alloc_peak_mb.get(name, 0.0))
            return value

        return wrapper

    def _problem(self, fn):
        def wrapper(*args, **kwargs):
            problem = fn(*args, **kwargs)
            return dataclasses.replace(
                problem, cost_fn=self._leaf("semiring.cost", problem.cost_fn)
            )

        return wrapper

    def _ideals(self, fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.counts["poset.ideals"] += len(out)
            return out

        return wrapper

    def _count(self, name, out):
        stats = getattr(out, "stats", None)
        if stats is not None:
            self.counts["solver.entries"] += stats.peak_resident_entries
            self.counts["solver.updates"] += stats.total_dp_updates
            if name == "solver.tradeoff":
                self.counts["solver.tuples"] += stats.cover_product_size
        if name.startswith("cover.") and hasattr(out, "perms"):
            self.counts["cover.size"] += len(out.perms)

    def _swap(self, module, attr, wrapper):
        mod = importlib.import_module("chaineff." + module)
        original = getattr(mod, attr)
        self._saved.append((mod, attr, original))
        setattr(mod, attr, wrapper(original))

    def install(self, alloc=False):
        """Swap the wrappers in.  With ``alloc``, only the counting kernels
        are wrapped, each call running in a forked child for its peak memory."""
        self.alloc = alloc
        for attr, default in _KERNELS.items():
            for module in ("cli", "poset"):
                self._swap(module, attr, lambda fn, d=default: self._kernel(fn, d))
        if alloc:
            return
        for module, attr, name in _SPANS:
            self._swap(module, attr, lambda fn, name=name: self._spanned(name, fn))
        for attr in _PROBLEM_BUILDERS:
            self._swap("cli", attr, self._problem)
        self._swap("poset", "enumerate_ideals", self._ideals)

    def uninstall(self):
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)
