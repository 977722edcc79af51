"""Exact solvers for permutation problems.

Two routes: the chain-tradeoff solver, which restricts the subset DP to
a product of chain-efficient set systems, one per group of elements, and
sweeps the product of the groups' permutation covers, and a
polynomial-space divide-and-conquer for TSP.  Full-subset dynamic
programming (Held-Karp) is the tradeoff over all 2^N subsets, whose one
cover tuple is the identity.  One driver runs every sweep on the DP of
``arraydp``, whose costs come from the problem's array form when it has
one and from its cost oracle otherwise.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cache
from itertools import combinations, permutations
from math import ceil, comb, factorial, prod

import numpy as np

from .arraydp import ArrayDP
from .cover import PermutationCover, greedy_cover, randomized_cover
from .errors import InvalidInstance, InvalidSetSystem, UnsupportedSemiring
from .poset import _BLOCK_ENTRIES, DEFAULT_MEMORY_BUDGET, charge
from .semiring import (
    ARRAY_INF,
    INF,
    PermutationProblem,
    TspInstance,
    tsp_weight_array,
)
from .setsystem import SetSystem, cartesian_power, product_family, restriction


@dataclass
class SolveStats:
    """Space and time of one solve.

    ``peak_resident_entries`` is the larger of ``sweep_peak_entries``, the
    largest table one DP run of the sweep holds, and
    ``witness_peak_entries``, that of the winning tuple's re-run.  A sweep
    of one tuple (Held-Karp, or a tradeoff whose cover product is 1) has
    no re-run: its one run keeps every layer for the witness, its peak is
    the sweep's, and the witness peak is 0.  ``batch_resident_entries`` is
    the table space the memory budget was checked against, the most that
    any one run held, the witness re-run included: a batch of dense
    per-tuple tables (the budget also holds the plan).  The peaks count
    the entries that are not the semiring's zero.  For gs the peaks are
    those of the sequential recursion, and ``batch_resident_entries``
    bounds its batched kernel's arrays.
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
# The kernel runs a batch of nodes of one size along the last axis and a
# node's splits along the first, so that a node's whole subtree is a few
# numpy passes, each over the batch in contiguous memory.  A split's
# minimum is two min-plus products, T_L by w[L, R] and that by T_R, each
# a running minimum over its inner index, so with h = ceil(k / 2) and
# r = k - h no array of the two is larger than (h, r).  The (h, r) block
# goes to the split's slot of a (splits + 1, k, k, nodes) running minimum
# from slot to slot, whose last slot is the node's table.
#
# The kernel's space figure is that of the sequential recursion instead,
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
    adds its halves' cities, its slot of the running minimum along the
    splits and as many entries again for counting that slot's finite
    entries (numpy sums the bool mask through an int64 buffer), three
    (h, r) arrays, which are a min-plus product's input, running minimum
    and term, and its halves' subtrees.  ``whole`` runs every split at
    once.
    """
    if k <= 3:
        return factorial(k) * (k + 2) + k * k, 0
    h = ceil(k / 2)
    r = k - h
    own = k + 2 * k * k + 3 * h * r
    return 2 * k * k + comb(k, h) * (own + _footprint(h)[0] + _footprint(r)[0]), own


def _finite(tables: np.ndarray, inf) -> np.ndarray:
    """Finite entries of each table, on the two axes before the batch axis."""
    return (tables < inf).sum(axis=(-3, -2))


def _min_plus(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """out[s, t, ...] = min_u a[s, u, ...] + b[u, t, ...], a running minimum over u.

    Besides its inputs it holds out and one term, both of out's shape; the
    int64 and the object arrays run the same ufuncs.
    """
    out = a[:, :1] + b[:1]
    term = np.empty_like(out)
    for u in range(1, len(b)):
        np.add(a[:, u : u + 1], b[u : u + 1], out=term)
        np.minimum(out, term, out=out)
    return out


def _path_tables(sets: np.ndarray, w: np.ndarray, inf, stats: SolveStats):
    """Tables of a batch of sorted city sets, one a column of (k, B): (k, k, B)
    tables, (B,) finite entries of each table, (B,) peaks, held.

    Tables hold ``inf`` where no path exists.  A split's block is
    ``_min_plus(_min_plus(T_L, w[L, R]), T_R)``, whose sums keep the order
    (T_L + w) + T_R, so int64 entries stay at most 3 * ARRAY_INF < 2^63.
    The batch runs along the last axis, so every pass over a batch is a
    contiguous one.  The node's splits run at once when its whole subtree
    fits the kernels' block, ``_BLOCK_ENTRIES``, else in chunks of as many
    as fit, at least one.  Weights are gathered from the flat ``w`` by
    index u * n + v, which serves the int64 and the object arrays alike.
    ``held`` bounds the entries the arrays of this call and its subtree
    hold at once, counting a pass's arrays as all live together; the
    updates of the sequential recursion, |T_L| * |T_R| finite pairs per
    split and k! (k - 1) steps per leaf, are added to ``stats``.
    """
    k, rows = sets.shape
    n = len(w)
    flat = w.reshape(-1)
    if k <= 3:
        perms = _leaf_plan(k)
        cities = sets[perms.T]
        cost = np.zeros((len(perms), rows), dtype=w.dtype)
        for j in range(k - 1):
            cost += flat.take(cities[j] * n + cities[j + 1])
        table = np.full((k, k, rows), inf, dtype=w.dtype)
        table[perms[:, 0], perms[:, -1]] = np.minimum(cost, inf)
        stats.total_dp_updates += rows * len(perms) * (k - 1)
        size = _finite(table, inf)
        return table, size, size, rows * _footprint(k)[0]
    left, right = _split_plan(k)
    h, r = left.shape[1], right.shape[1]
    _, own = _footprint(k)
    per_split = own + _footprint(h)[0] + _footprint(r)[0]
    chunk = min(len(left), max(1, (_BLOCK_ENTRIES - 2 * rows * k * k) // (rows * per_split)))
    table = np.full((k, k, rows), inf, dtype=w.dtype)
    peak = np.zeros(rows, dtype=np.int64)
    held = 0
    for lo in range(0, len(left), chunk):
        lp, rp = left[lo : lo + chunk].T, right[lo : lo + chunk].T
        c = lp.shape[1]
        # a child's column is split * rows + row
        ls, rs = sets[lp].reshape(h, -1), sets[rp].reshape(r, -1)
        t_left, n_left, p_left, held_left = _path_tables(ls, w, inf, stats)
        t_right, n_right, p_right, held_right = _path_tables(rs, w, inf, stats)
        stats.total_dp_updates += int(n_left @ n_right)
        # via[s, v] = min_u T_L[s, u] + w[u, v]; block[s, t] = min_v via[s, v] + T_R[v, t]
        via = _min_plus(t_left, flat.take(ls[:, None] * n + rs[None]))
        block = _min_plus(via, t_right)
        del via  # not held beside the accumulator
        # slot 0 carries the table so far, which starts at inf, so the
        # minimum along the splits also keeps every entry at most inf
        acc = np.full((c + 1, k, k, rows), inf, dtype=w.dtype)
        acc[0] = table
        acc[np.arange(1, c + 1), lp[:, None], rp[None]] = block.reshape(h, r, c, rows)
        # slot by slot: np.minimum.accumulate makes a strided pass per entry
        # of a slot, which is slower as soon as a slot holds a batch
        for i in range(c):
            np.minimum(acc[i], acc[i + 1], out=acc[i + 1])
        sizes = _finite(acc, inf)
        before, after = sizes[:-1], sizes[1:]
        n_left, n_right = n_left.reshape(c, rows), n_right.reshape(c, rows)
        p_left, p_right = p_left.reshape(c, rows), p_right.reshape(c, rows)
        steps = np.maximum(
            np.maximum(before + p_left, before + n_left + p_right), after + n_left + n_right
        )
        np.maximum(peak, steps.max(axis=0), out=peak)
        table = acc[-1].copy()
        held = max(held, rows * (2 * k * k + c * own) + held_left + held_right)
        del t_left, t_right, block, acc  # freed before the next chunk's halves
    return table, after[-1], peak, held


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
    charge("gs split", sum(k * (k - 1) for k in (n, *halves)), memory_budget)
    w = tsp_weight_array(inst)
    inf = ARRAY_INF
    if w is None:
        w, inf = np.array(inst.weights, dtype=object), INF
    table, _, peak, held = _path_tables(np.arange(n)[:, None], w, inf, stats)
    stats.peak_resident_entries = stats.sweep_peak_entries = int(peak[0])
    stats.batch_resident_entries = held
    charge("gs recursion", stats.peak_resident_entries, memory_budget)
    best = (table[0, 1:, 0] + w[1:, 0]).min()
    stats.wall_time = time.monotonic() - t0
    return SolveResult(value=INF if best >= inf else int(best), witness=None, stats=stats)


# ---------------------------------------------------------------------------
# Chain-tradeoff solver, and Held-Karp as its sweep over 2^[N]


def build_cover(system: SetSystem, strategy: str, seed: int) -> PermutationCover:
    """The ``greedy`` or ``random`` (seeded) cover of ``system``."""
    if strategy == "greedy":
        return greedy_cover(system)
    if strategy == "random":
        return randomized_cover(system, seed)
    raise InvalidInstance(f"unknown cover strategy {strategy!r}")


def _tuple_labels(covers: list[PermutationCover], lo: int, hi: int) -> np.ndarray:
    """Labelling rows of the cover tuples lo..hi-1, in ``itertools.product`` order.

    Group i holds the next covers[i].n elements, and the tuple (pi_1, ...,
    pi_s) admits a mask iff relabelling element v of group i as pi_i(v)
    turns it into a member of the groups' product.  So its DP is the DP
    over that product in which element w of group i stands for the
    problem's element pi_i^-1(w) of group i; a row lists those elements.
    """
    digits = np.unravel_index(np.arange(lo, hi), [len(cover) for cover in covers])
    rows, offset = [], 0
    for cover, d in zip(covers, digits):
        inverses = np.argsort(np.array(cover.perms, dtype=np.int64).reshape(-1, cover.n), axis=1)
        rows.append(inverses[d] + offset)
        offset += cover.n
    return np.hstack(rows)


def _solve(problem, budget, family, covers, t0) -> SolveResult:
    """Sweep the tuples of the groups' ``covers`` over ``family`` on one plan of it.

    Tuples run in batches that keep two layers, and the first best
    one is re-run keeping every layer for its witness; a lone tuple runs
    once, keeping every layer, and that run gives both.  A semiring whose
    addition is not idempotent has no optimal order, so no witness.  The
    wall time runs from ``t0``.
    """
    sr = problem.semiring
    tuples = prod(map(len, covers))
    stats = SolveStats(cover_product_size=tuples)
    dp = ArrayDP(problem, family, budget)

    def account(run) -> int:
        stats.total_dp_updates += int(run.updates.sum())
        stats.batch_resident_entries = max(stats.batch_resident_entries, dp.held(run))
        return run.peak()

    keep_all = tuples == 1
    batch = dp.batch_size(tuples, budget, keep_all)
    best_value, best_tuple = sr.zero, None
    for lo in range(0, tuples, batch):
        run = dp.run(_tuple_labels(covers, lo, min(lo + batch, tuples)), keep_all)
        stats.sweep_peak_entries = max(stats.sweep_peak_entries, account(run))
        for t, value in enumerate(run.values, lo):
            merged = sr.add(best_value, value)
            if merged != best_value:
                best_value, best_tuple = merged, t
    witness = None
    if best_tuple is not None and sr.idempotent:
        labels = _tuple_labels(covers, best_tuple, best_tuple + 1)
        if not keep_all:
            dp.batch_size(1, budget, keep_all=True)
            run = dp.run(labels, keep_all=True)
            stats.witness_peak_entries = account(run)
        witness = dp.walk(run, labels[0])
    stats.peak_resident_entries = max(stats.sweep_peak_entries, stats.witness_peak_entries)
    stats.wall_time = time.monotonic() - t0
    return SolveResult(value=best_value, witness=witness, stats=stats)


def solve_chain_tradeoff(
    problem: PermutationProblem,
    system: SetSystem,
    g: int = 1,
    strategy: str = "greedy",
    seed: int = 0,
    memory_budget: int = DEFAULT_MEMORY_BUDGET,
) -> SolveResult:
    """Sweep cover tuples, running the restricted subset DP for each.

    The N elements fall into s groups of n, the size of A, the g-th power
    of ``system``, but the last group holds only the r = N - (s - 1) n
    left over, and runs A|[r] = {X & [r] : X in A}, which holds the empty
    set and [r].  Each distinct group family gets one certified cover
    (``strategy`` "greedy" or "random", the latter drawn from ``seed``).
    For every order of [N] some cover tuple relabels each of its prefixes
    into the product A^(s-1) x A|[r], so the per-tuple results, combined
    with the idempotent addition, give the optimum.  Every tuple's admissible
    masks are that product relabelled, so the tuples run in batches over
    one plan of it.
    """
    sr = problem.semiring
    if not sr.idempotent:
        raise UnsupportedSemiring("chain-tradeoff requires idempotent addition")
    if not system.admits_chains():
        raise InvalidSetSystem("set system must contain the empty and full set")
    system = cartesian_power(system, g)
    s = ceil(problem.n / system.n)
    groups = [system] * (s - 1) + [restriction(system, problem.n - (s - 1) * system.n)]
    charge(f"the product family of {s} groups", prod(map(len, groups)), memory_budget)
    t0 = time.monotonic()
    covers = {a: build_cover(a, strategy, seed) for a in dict.fromkeys(groups)}
    family = product_family(groups)
    return _solve(problem, memory_budget, family, [covers[a] for a in groups], t0)


def solve_held_karp(
    problem: PermutationProblem, memory_budget: int = DEFAULT_MEMORY_BUDGET
) -> SolveResult:
    """Full subset DP over all 2^N prefix sets; works for any semiring.

    It is the chain tradeoff over A = 2^[N], whose cover is the identity
    alone; with one tuple swept, the semiring need not be idempotent.  When
    it is not, the value sums over orders and no optimal order exists, so
    the witness is None.
    """
    n = problem.n
    t0 = time.monotonic()
    charge(f"the family of 2^{n} prefix sets", 1 << n, memory_budget)
    identity = PermutationCover(n, (tuple(range(n)),), True)
    family = np.arange(1 << n, dtype=np.uint64)
    return _solve(problem, memory_budget, family, [identity], t0)
