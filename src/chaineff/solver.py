"""Exact solvers for permutation problems.

Three routes: full-subset dynamic programming (Held-Karp style), a
polynomial-space divide-and-conquer for TSP, and the chain-tradeoff
solver that restricts the subset DP to a chain-efficient set system and
sweeps a product of permutation covers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cache
from itertools import combinations, permutations
from math import ceil, comb, factorial

import numpy as np

from .arraydp import SCRATCH_ENTRIES, ArrayDP
from .cover import PermutationCover, greedy_cover, randomized_cover
from .errors import (
    InvalidInstance,
    InvalidSetSystem,
    ResourceLimit,
    UnsupportedSemiring,
)
from .poset import DEFAULT_MEMORY_BUDGET
from .semiring import (
    ARRAY_INF,
    INF,
    PermutationProblem,
    Semiring,
    TspInstance,
    tsp_weight_array,
)
from .setsystem import SetSystem, cartesian_power


@dataclass
class SolveStats:
    """Space and time of one solve.

    ``peak_resident_entries`` is the larger of ``sweep_peak_entries``, the
    largest table one DP run of the sweep (or Held-Karp's one run) holds,
    and ``witness_peak_entries``, that of the tradeoff's witness re-run.
    ``batch_resident_entries`` is the table space the memory budget was
    checked against: a batch of dense per-tuple tables on the array kernel
    (the budget also holds its plan), the finite entries held on the
    callback DP.  For gs the peaks are those of the sequential recursion,
    and ``batch_resident_entries`` bounds its batched kernel's arrays.
    """

    peak_resident_entries: int = 0
    total_dp_updates: int = 0
    cover_product_size: int = 1
    wall_time: float = 0.0
    sweep_peak_entries: int = 0
    witness_peak_entries: int = 0
    batch_resident_entries: int = 0


@dataclass
class SolveResult:
    value: object
    witness: tuple | None
    stats: SolveStats


@dataclass(frozen=True)
class SolverConfig:
    set_system: SetSystem | None = None
    g: int = 1
    cover_strategy: str = "greedy"  # or "random"
    seed: int = 0
    memory_budget: int = DEFAULT_MEMORY_BUDGET


# ---------------------------------------------------------------------------
# Shared restricted subset DP
#
# A state is (X, key): X is the set of placed elements and key the ordered
# tuple of the last min(d - 1, |X|) of them, which is all that the next
# step's window reads.  g(X, key) is the semiring sum, over the orders of X
# that end in key and whose every prefix is admissible, of the product of
# the local costs.  From the root g({}, ()) = one, placing ``last`` after
# the state (X, pkey) charges cost_fn(X + last, pkey + (last,)) and lands
# on (X + last, the last d - 1 elements of that window).  For d = 1 every
# key is (), so the states are plain subsets; for d = 2 they are the
# (subset, last city) states of Held-Karp.  Only admissible masks get a
# row, so a missing parent row contributes the additive identity.


def _subset_dp(
    n: int,
    degree: int,
    sr: Semiring,
    cost_fn,
    masks_by_popcount,
    budget: int,
    stats: SolveStats,
    want_parents: bool,
):
    """Run the DP; returns (table, parents).

    ``masks_by_popcount`` lists admissible masks per cardinality;
    ``table[mask]`` maps keys to semiring values, and ``parents[mask]``
    maps each key to the (last, parent key) step that produced its value.
    Entries equal to the additive identity are not stored.  Without parent
    pointers a layer reads only the one before it, so the rows of popcount
    k - 2 are dropped before layer k is built and ``table`` ends with the
    last two layers; ``resident`` counts the live entries.
    """
    keep = degree - 1
    zero, add, mul = sr.zero, sr.add, sr.mul
    table: dict[int, dict[tuple, object]] = {0: {(): sr.one}}
    parents: dict[int, dict[tuple, tuple]] = {}
    resident = peak = 1
    updates = 0
    for k in range(1, n + 1):
        if not want_parents and k >= 2:
            for mask in masks_by_popcount[k - 2]:
                resident -= len(table.pop(mask, ()))
        for mask in masks_by_popcount[k]:
            row = {}
            prow = {}
            rest = mask
            while rest:
                bit = rest & -rest
                rest ^= bit
                prev_row = table.get(mask ^ bit)
                if prev_row is None:
                    continue
                last = bit.bit_length() - 1
                for pkey, pvalue in prev_row.items():
                    window = pkey + (last,)
                    cand = mul(pvalue, cost_fn(mask, window))
                    updates += 1
                    key = window[-keep:] if keep else ()
                    current = row.get(key)
                    if current is None:
                        if cand == zero:
                            continue
                        resident += 1
                        if resident > budget:
                            raise ResourceLimit("DP table exceeds the memory budget")
                        row[key] = cand
                        if want_parents:
                            prow[key] = (last, pkey)
                    else:
                        merged = add(current, cand)
                        row[key] = merged
                        if want_parents and merged == cand and merged != current:
                            prow[key] = (last, pkey)
            if row:
                table[mask] = row
                if want_parents:
                    parents[mask] = prow
        peak = max(peak, resident)
    stats.total_dp_updates += updates
    stats.peak_resident_entries = max(stats.peak_resident_entries, peak)
    return table, parents


def _final_value(table, full_mask, sr):
    row = table.get(full_mask)
    if not row:
        return sr.zero, None
    best_val = sr.zero
    best_key = None
    for key, value in row.items():
        merged = sr.add(best_val, value)
        if best_key is None or (merged == value and merged != best_val):
            best_key = key
        best_val = merged
    return best_val, best_key


def _reconstruct(parents, full_mask, key):
    """Walk parent pointers from (full_mask, key) back to the empty set."""
    mask = full_mask
    order = []
    while mask:
        last, key = parents[mask][key]
        order.append(last)
        mask ^= 1 << last
    return tuple(reversed(order))


# ---------------------------------------------------------------------------
# Held-Karp


def solve_held_karp(
    problem: PermutationProblem, memory_budget: int = DEFAULT_MEMORY_BUDGET
) -> SolveResult:
    """Full subset DP over all 2^N prefix sets; works for any semiring.

    A problem with an array form runs the array kernel on the family of
    all subsets; any other runs the callback DP.
    """
    n = problem.n
    stats = SolveStats()
    t0 = time.monotonic()
    if 1 << n > memory_budget:
        raise ResourceLimit("the 2^N prefix sets exceed the memory budget")
    if problem.arrays is not None:
        dp = ArrayDP(
            problem.arrays, n, np.arange(1 << n, dtype=np.uint64), n, problem.degree, memory_budget
        )
        dp.batch_size(1, memory_budget, keep_all=True)
        identity = np.arange(n)
        run = dp.run(identity[None], keep_all=True)
        value = run.value(0)
        witness = dp.walk(run, identity) if value != INF else None
        stats.total_dp_updates = int(run.updates[0])
        stats.peak_resident_entries = int(run.live[0].sum())
        stats.batch_resident_entries = dp.entries(keep_all=True)
    else:
        masks_by_popcount = [[] for _ in range(n + 1)]
        for mask in range(1 << n):
            masks_by_popcount[mask.bit_count()].append(mask)
        table, parents = _subset_dp(
            n,
            problem.degree,
            problem.semiring,
            problem.cost_fn,
            masks_by_popcount,
            memory_budget,
            stats,
            want_parents=True,
        )
        full_mask = (1 << n) - 1
        value, key = _final_value(table, full_mask, problem.semiring)
        witness = None
        if key is not None and value != problem.semiring.zero:
            witness = _reconstruct(parents, full_mask, key)
        stats.batch_resident_entries = stats.peak_resident_entries
    stats.sweep_peak_entries = stats.peak_resident_entries
    stats.wall_time = time.monotonic() - t0
    return SolveResult(value=value, witness=witness, stats=stats)


# ---------------------------------------------------------------------------
# Divide-and-conquer TSP in polynomial space
#
# A node is a set of k cities, and its table T[s, t] is the least length
# of an s-t path through exactly those cities.  A leaf (k <= 3) has one
# ordering per pair s != t, so its table is read off its k! orderings.  A
# larger node splits its cities every way into a first half of ceil(k / 2)
# and the rest, in ``itertools.combinations`` order; the split (L, R)
# offers min over u, v of T_L[s, u] + w[u, v] + T_R[v, t] for s in L and
# t in R, and the node's table is the minimum over its splits.
#
# The kernel runs a batch of nodes of one size along axis 0 and a node's
# splits along axis 1, so that a node's whole subtree is a few numpy
# passes.  Its space figure is that of the sequential recursion instead,
# which keeps only finite entries and runs a split's halves one after the
# other.  With c_i the finite entries of a node's table after its first i
# splits, that recursion holds, relative to the node's start, c_{i-1} plus
# the left half's peak, then c_{i-1} + |T_L| plus the right half's peak,
# then c_i + |T_L| + |T_R| before it frees both halves.  A node's peak P is
# the largest of these over its splits, and a leaf's is |T|.


@cache
def _leaf_plan(k: int) -> np.ndarray:
    """(k!, k) the orderings of k positions."""
    return np.array(list(permutations(range(k))), dtype=np.intp)


@cache
def _split_plan(k: int) -> tuple[np.ndarray, np.ndarray]:
    """(S, ceil(k/2)) first halves and (S, rest) second halves of k positions."""
    left = np.array(list(combinations(range(k), ceil(k / 2))), dtype=np.intp)
    rest = np.ones((len(left), k), dtype=bool)
    rest[np.arange(len(left))[:, None], left] = False
    return left, np.nonzero(rest)[1].reshape(len(left), -1)


@cache
def _footprint(k: int) -> tuple[int, int]:
    """Entries one k-city node's arrays hold, per batch row: (whole, own per split).

    A leaf holds its orderings' cities, their costs, one gathered step and
    its table.  A node holds its table and the carried minimum; a split
    adds its slot of the running minimum, its halves' cities and the
    weights between them, the two-stage minimum's sums and results, and
    its halves' subtrees.  ``whole`` runs every split at once.
    """
    if k <= 3:
        return factorial(k) * (k + 2) + k * k, 0
    h = ceil(k / 2)
    r = k - h
    own = k + k * k + h * r * (3 + h + r)
    return 2 * k * k + comb(k, h) * (own + _footprint(h)[0] + _footprint(r)[0]), own


def _finite(tables: np.ndarray, inf) -> np.ndarray:
    """Finite entries of each table on the last two axes."""
    finite = tables < inf
    return finite.reshape(*finite.shape[:-2], -1).sum(axis=-1)


def _path_tables(sets: np.ndarray, w: np.ndarray, inf, stats: SolveStats):
    """Tables of a batch of sorted city sets (B, k): (B, k, k) tables, (B,) peaks, held.

    Tables hold ``inf`` where no path exists.  The node's splits run at
    once when its whole subtree fits SCRATCH_ENTRIES, else in chunks of as
    many as fit, at least one.  ``held`` bounds the entries the arrays of
    this call and its subtree hold at once, counting a pass's arrays as
    all live together; the updates of the sequential recursion, |T_L| *
    |T_R| finite pairs per split and k! (k - 1) steps per leaf, are added
    to ``stats``.
    """
    rows, k = sets.shape
    if k <= 3:
        perms = _leaf_plan(k)
        cities = sets[:, perms]
        cost = np.zeros((rows, len(perms)), dtype=w.dtype)
        for j in range(k - 1):
            cost += w[cities[:, :, j], cities[:, :, j + 1]]
        table = np.full((rows, k, k), inf, dtype=w.dtype)
        table[:, perms[:, 0], perms[:, -1]] = np.minimum(cost, inf)
        stats.total_dp_updates += rows * len(perms) * (k - 1)
        return table, _finite(table, inf), rows * _footprint(k)[0]
    left, right = _split_plan(k)
    h, r = left.shape[1], right.shape[1]
    _, own = _footprint(k)
    per_split = own + _footprint(h)[0] + _footprint(r)[0]
    chunk = min(len(left), max(1, (SCRATCH_ENTRIES - 2 * rows * k * k) // (rows * per_split)))
    table = np.full((rows, k, k), inf, dtype=w.dtype)
    peak = np.zeros(rows, dtype=np.int64)
    held = 0
    for lo in range(0, len(left), chunk):
        lp, rp = left[lo : lo + chunk], right[lo : lo + chunk]
        c = len(lp)
        ls, rs = sets[:, lp].reshape(-1, h), sets[:, rp].reshape(-1, r)
        t_left, p_left, held_left = _path_tables(ls, w, inf, stats)
        t_right, p_right, held_right = _path_tables(rs, w, inf, stats)
        n_left, n_right = _finite(t_left, inf), _finite(t_right, inf)
        stats.total_dp_updates += int(n_left @ n_right)
        # via[s, v] = min_u T_L[s, u] + w[u, v]; block[s, t] = min_v via[s, v] + T_R[v, t]
        via = (t_left[:, :, :, None] + w[ls[:, None, :, None], rs[:, None, None, :]]).min(axis=2)
        block = (via[:, :, :, None] + t_right[:, None, :, :]).min(axis=2)
        # slot 0 carries the table so far, which starts at inf, so the
        # minimum along the splits also keeps every entry at most inf
        acc = np.full((rows, c + 1, k, k), inf, dtype=w.dtype)
        acc[:, 0] = table
        slot = np.arange(1, c + 1)[:, None, None]
        acc[:, slot, lp[:, :, None], rp[:, None, :]] = block.reshape(rows, c, h, r)
        np.minimum.accumulate(acc, axis=1, out=acc)
        sizes = _finite(acc, inf)
        before, after = sizes[:, :-1], sizes[:, 1:]
        n_left, n_right = n_left.reshape(rows, c), n_right.reshape(rows, c)
        p_left, p_right = p_left.reshape(rows, c), p_right.reshape(rows, c)
        steps = np.maximum(
            np.maximum(before + p_left, before + n_left + p_right), after + n_left + n_right
        )
        np.maximum(peak, steps.max(axis=1), out=peak)
        table = acc[:, -1].copy()
        held = max(held, rows * (2 * k * k + c * own) + held_left + held_right)
    return table, peak, held


def solve_gurevich_shelah(
    inst: TspInstance, memory_budget: int = DEFAULT_MEMORY_BUDGET
) -> SolveResult:
    """Optimal tour in 4^N-style time and polynomial space.

    Recursively splits the city set in halves, combining all-pairs path
    tables; anchoring matches tsp_as_permutation_problem (tours start at
    city 0), so the optimum equals the adapter's permutation optimum.
    Runs on int64 with ARRAY_INF when ``tsp_weight_array`` gives the
    weights, and on Python objects with INF otherwise.  The budget must
    hold the full tables of one split, every pair s != t of the N cities
    and of its two halves, before any array is made, and the sequential
    recursion's peak after; ``batch_resident_entries`` reports the
    kernel's arrays apart.
    """
    n = inst.n
    if n < 2:
        raise InvalidInstance("TSP needs at least 2 cities")
    stats = SolveStats()
    t0 = time.monotonic()
    halves = (ceil(n / 2), n // 2) if n > 3 else ()
    if sum(k * (k - 1) for k in (n, *halves)) > memory_budget:
        raise ResourceLimit("the path tables of one split exceed the memory budget")
    w = tsp_weight_array(inst)
    inf = ARRAY_INF
    if w is None:
        w, inf = np.array(inst.weights, dtype=object), INF
    table, peak, held = _path_tables(np.arange(n)[None], w, inf, stats)
    stats.peak_resident_entries = stats.sweep_peak_entries = int(peak[0])
    stats.batch_resident_entries = held
    if stats.peak_resident_entries > memory_budget:
        raise ResourceLimit("path tables exceed the memory budget")
    best = (table[0, 0, 1:] + w[1:, 0]).min()
    stats.wall_time = time.monotonic() - t0
    return SolveResult(value=INF if best >= inf else int(best), witness=None, stats=stats)


# ---------------------------------------------------------------------------
# Chain-tradeoff solver


def _padded_cost_fn(problem: PermutationProblem, n_padded: int):
    """Extend the cost oracle to the padded size.

    Positions beyond the original size accept only the identity placement;
    any earlier appearance of a padding element is rejected through the
    additive identity, which annihilates the product.
    """
    n = problem.n
    sr = problem.semiring
    clean = (1 << n) - 1

    def padded(mask, window):
        j = mask.bit_count()
        if j > n:
            return sr.one if window[-1] == j - 1 else sr.zero
        if mask & ~clean:
            return sr.zero
        return problem.cost_fn(mask, window)

    return padded


def _build_cover(system: SetSystem, cfg: SolverConfig) -> PermutationCover:
    if cfg.cover_strategy == "greedy":
        return greedy_cover(system)
    if cfg.cover_strategy == "random":
        return randomized_cover(system, cfg.seed)
    raise InvalidInstance(f"unknown cover strategy {cfg.cover_strategy!r}")


def _product_family(system: SetSystem, s: int) -> np.ndarray:
    """uint64 masks of A^s: one member of A per group of system.n elements."""
    members = np.array(system.members, dtype=np.uint64)
    family = np.zeros(1, dtype=np.uint64)
    for i in range(s):
        family = (family[:, None] | (members << np.uint64(i * system.n))).ravel()
    return family


def _tuple_labels(cover: PermutationCover, s: int, lo: int, hi: int) -> np.ndarray:
    """Labelling rows of the cover tuples lo..hi-1, in ``itertools.product`` order.

    The tuple (pi_1, ..., pi_s) admits a mask iff relabelling element v of
    group i as pi_i(v) turns it into a member of A^s.  So its DP is the
    DP over A^s in which element w of group i stands for the problem's
    element pi_i^-1(w) of group i; a row lists those elements.
    """
    gn = cover.n
    inverses = np.argsort(np.array(cover.perms, dtype=np.int64).reshape(-1, gn), axis=1)
    digits = np.unravel_index(np.arange(lo, hi), (len(cover),) * s)
    return np.hstack([inverses[d] + i * gn for i, d in enumerate(digits)])


def _relabel(family: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """The masks of ``family`` with each bit x moved to bit inv[x]."""
    out = np.zeros_like(family)
    for x, y in enumerate(inv.tolist()):
        out |= ((family >> np.uint64(x)) & np.uint64(1)) << np.uint64(y)
    return out


def _sweep_arrays(problem, cfg, family, n_padded, cover, s, stats):
    """Value and witness of the sweep on the array kernel."""
    n = problem.n
    dp = ArrayDP(problem.arrays, n, family, n_padded, problem.degree, cfg.memory_budget)
    tuples = len(cover) ** s
    batch = dp.batch_size(tuples, cfg.memory_budget, keep_all=False)
    stats.batch_resident_entries = batch * dp.entries(keep_all=False)
    best_value, best_tuple = ARRAY_INF, 0
    for lo in range(0, tuples, batch):
        run = dp.run(_tuple_labels(cover, s, lo, min(lo + batch, tuples)))
        stats.total_dp_updates += int(run.updates.sum())
        stats.sweep_peak_entries = max(stats.sweep_peak_entries, run.sweep_peak())
        row = int(np.argmin(run.values))
        if run.values[row] < best_value:
            best_value, best_tuple = int(run.values[row]), lo + row
    if best_value >= ARRAY_INF:
        return INF, None
    dp.batch_size(1, cfg.memory_budget, keep_all=True)
    inv = _tuple_labels(cover, s, best_tuple, best_tuple + 1)
    run = dp.run(inv, keep_all=True)
    stats.total_dp_updates += int(run.updates[0])
    stats.witness_peak_entries = int(run.live[0].sum())
    return best_value, dp.walk(run, inv[0])[:n]


def _sweep_callback(problem, cfg, family, n_padded, cover, s, stats):
    """Value and witness of the sweep on the callback DP, one tuple at a time."""
    sr = problem.semiring
    padded_cost = _padded_cost_fn(problem, n_padded)
    full_mask = (1 << n_padded) - 1
    pop = np.bitwise_count(family)
    sweep, rerun = SolveStats(), SolveStats()

    def run_tuple(t, run_stats, want_parents):
        masks = _relabel(family, _tuple_labels(cover, s, t, t + 1)[0])
        masks_by_popcount = [masks[pop == k].tolist() for k in range(n_padded + 1)]
        return _subset_dp(
            n_padded,
            problem.degree,
            sr,
            padded_cost,
            masks_by_popcount,
            cfg.memory_budget,
            run_stats,
            want_parents=want_parents,
        )

    best_value = sr.zero
    best_tuple = None
    for t in range(len(cover) ** s):
        table, _ = run_tuple(t, sweep, want_parents=False)
        value, _ = _final_value(table, full_mask, sr)
        merged = sr.add(best_value, value)
        if best_tuple is None or (merged == value and merged != best_value):
            best_tuple = t
        best_value = merged

    witness = None
    if best_value != sr.zero and best_tuple is not None:
        # re-run the winning tuple with parent tracking; keeps the sweep's
        # peak space free of parent pointers
        table, parents = run_tuple(best_tuple, rerun, want_parents=True)
        _, key = _final_value(table, full_mask, sr)
        if key is not None:
            witness = _reconstruct(parents, full_mask, key)[: problem.n]
    stats.total_dp_updates += sweep.total_dp_updates + rerun.total_dp_updates
    stats.sweep_peak_entries = sweep.peak_resident_entries
    stats.witness_peak_entries = rerun.peak_resident_entries
    stats.batch_resident_entries = max(stats.sweep_peak_entries, stats.witness_peak_entries)
    return best_value, witness


def solve_chain_tradeoff(problem: PermutationProblem, cfg: SolverConfig) -> SolveResult:
    """Sweep cover tuples, running the restricted subset DP for each.

    The instance is padded to a multiple of the group size, one certified
    cover is built for the g-th power of the system and shared by all
    groups through the group bijections, and the per-tuple results are
    combined with the idempotent addition.  Every tuple's admissible
    masks are A^s relabelled, so a problem with an array form sweeps
    the tuples in batches over one plan of A^s; any other runs the
    callback DP per tuple on the relabelled masks.
    """
    sr = problem.semiring
    if not sr.idempotent:
        raise UnsupportedSemiring("chain-tradeoff requires idempotent addition")
    base = cfg.set_system
    if base is None:
        raise InvalidSetSystem("chain-tradeoff needs a set system")
    if not base.admits_chains():
        raise InvalidSetSystem("set system must contain the empty and full set")
    system = cartesian_power(base, cfg.g)
    gn = system.n
    n = problem.n
    s = ceil(n / gn)
    n_padded = gn * s
    t0 = time.monotonic()
    cover = _build_cover(system, cfg)
    if not cover.certified:
        raise ResourceLimit("cover could not be certified")
    if len(system) ** s > cfg.memory_budget:
        raise ResourceLimit(f"|A|^{s} exceeds the memory budget")

    stats = SolveStats()
    stats.cover_product_size = len(cover) ** s
    family = _product_family(system, s)
    sweep = _sweep_arrays if problem.arrays is not None else _sweep_callback
    value, witness = sweep(problem, cfg, family, n_padded, cover, s, stats)
    stats.peak_resident_entries = max(stats.sweep_peak_entries, stats.witness_peak_entries)
    stats.wall_time = time.monotonic() - t0
    return SolveResult(value=value, witness=witness, stats=stats)
