"""Solver equivalence, witnesses, and space accounting."""

import dataclasses
import hashlib
import json
import os
import random
import time
import tracemalloc
from itertools import combinations, permutations
from math import ceil, comb, factorial, log2, perm
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chaineff.cover import greedy_cover, randomized_cover
from chaineff.errors import InvalidInstance, ResourceLimit, UnsupportedSemiring
from chaineff.poset import _BLOCK_ENTRIES, DEFAULT_MEMORY_BUDGET, Poset, make_matching_complement
from chaineff.semiring import (
    ARRAY_INF,
    BOOLEAN,
    INF,
    MIN_PLUS,
    SUM_PRODUCT,
    DfasInstance,
    PermutationProblem,
    TspInstance,
    brute_force_optimum,
    dfas_as_permutation_problem,
    evaluate_permutation,
    tsp_as_permutation_problem,
)
import numpy as np

from chaineff.arraydp import ArrayDP, _relabel, build_plan
from chaineff.setsystem import (
    cartesian_power,
    from_poset_ideals,
    full_power_set,
    product_family,
    restriction,
    tower_of_cubes,
)
from chaineff.solver import (
    SolveStats,
    _footprint,
    _min_plus,
    solve_chain_tradeoff,
    solve_gurevich_shelah,
    solve_held_karp,
)

FOUR_CITY = [[0, 1, 2, 3], [1, 0, 4, 5], [2, 4, 0, 6], [3, 5, 6, 0]]


def random_tsp(rng, n):
    w = [[0 if i == j else rng.randint(0, 99) for j in range(n)] for i in range(n)]
    return TspInstance.from_matrix(w)


def random_dfas(rng, n):
    arcs = [(i, j) for i in range(n) for j in range(n) if i != j and rng.random() < 0.4]
    return DfasInstance.from_arcs(n, arcs)


class TestHeldKarp:
    def test_four_city(self):
        prob = tsp_as_permutation_problem(TspInstance.from_matrix(FOUR_CITY))
        res = solve_held_karp(prob)
        assert res.value == 14
        assert evaluate_permutation(prob, res.witness) == 14

    def test_dfas_three_cycle(self):
        prob = dfas_as_permutation_problem(DfasInstance.from_arcs(3, [(0, 1), (1, 2), (2, 0)]))
        assert solve_held_karp(prob).value == 1

    def test_single_element(self):
        from chaineff.semiring import MIN_PLUS

        prob = PermutationProblem(n=1, degree=1, semiring=MIN_PLUS, cost_fn=lambda m, w: 5)
        res = solve_held_karp(prob)
        assert res.value == 5 and res.witness == (0,)

    def test_sum_product_accepted(self):
        # full-power-set DP does not need idempotency
        prob = PermutationProblem(
            n=4, degree=1, semiring=SUM_PRODUCT, cost_fn=lambda m, w: 2.0
        )
        res = solve_held_karp(prob)
        assert res.value == pytest.approx(24 * 16.0)
        # a sum over orders has no optimal one
        assert res.witness is None


class _TableAccountant:
    def __init__(self, memory_budget):
        self.budget = memory_budget
        self.current = 0
        self.peak = 0

    def alloc(self, size):
        self.current += size
        self.peak = max(self.peak, self.current)
        if self.current > self.budget:
            raise ResourceLimit("path tables exceed the memory budget")

    def free(self, size):
        self.current -= size


def _path_table(cities, w, acct, stats):
    """dict (s, t) -> min length of an s-t path visiting exactly ``cities``.

    The reference recursion for the gs kernel.  The table's entries are
    charged to ``acct`` as they are created: those of each split while the
    two sub-tables it reads are still resident, so the peak counts the
    partial table.  The caller frees the table.
    """
    k = len(cities)
    table = {}
    charged = 0
    if k == 1:
        table[(cities[0], cities[0])] = 0
    elif k <= 3:
        for sigma in permutations(cities):
            cost = 0
            for a, b in zip(sigma, sigma[1:]):
                cost += w[a][b]
                stats.total_dp_updates += 1
            key = (sigma[0], sigma[-1])
            if cost < table.get(key, INF):
                table[key] = cost
    else:
        half = ceil(k / 2)
        for left_sel in combinations(cities, half):
            left = list(left_sel)
            right = [c for c in cities if c not in left_sel]
            t_left = _path_table(left, w, acct, stats)
            t_right = _path_table(right, w, acct, stats)
            for (s, u), cost_l in t_left.items():
                for (v, t), cost_r in t_right.items():
                    cand = cost_l + w[u][v] + cost_r
                    stats.total_dp_updates += 1
                    if cand < table.get((s, t), INF):
                        table[(s, t)] = cand
            acct.alloc(len(table) - charged)
            charged = len(table)
            acct.free(len(t_left))
            acct.free(len(t_right))
    acct.alloc(len(table) - charged)
    return table


def dict_gurevich_shelah(inst):
    """(value, updates, peak) of the reference recursion."""
    stats = SolveStats()
    acct = _TableAccountant(DEFAULT_MEMORY_BUDGET)
    table = _path_table(list(range(inst.n)), inst.weights, acct, stats)
    best = INF
    for (s, t), cost in table.items():
        if s == 0 and t != 0:
            best = min(best, cost + inst.weights[t][0])
    return best, stats.total_dp_updates, acct.peak


def min_plus_oracle(a, b):
    """min over u of a[s, u, i] + b[u, t, i], by a triple loop over Python values."""
    (h, m, batch), r = a.shape, b.shape[1]
    return [
        [[min(a[s, u, i] + b[u, t, i] for u in range(m)) for i in range(batch)] for t in range(r)]
        for s in range(h)
    ]


# (h, m, r, batch): a is (h, m, batch) and b (m, r, batch), with h != r as in
# the kernel's two stages, T_L by the weights and the result by T_R
MIN_PLUS_SHAPES = [(3, 3, 2, 1), (2, 2, 3, 1), (4, 4, 3, 5), (4, 3, 3, 5), (2, 1, 3, 3)]


class TestMinPlus:
    @pytest.mark.parametrize("shape", MIN_PLUS_SHAPES)
    def test_int64_with_inf(self, shape):
        # a holds up to 2 ARRAY_INF (a first stage's result) and b up to ARRAY_INF;
        # in batch column 0, a's row 0 and b's column 0 hold nothing else, so
        # out[0, 0] is 3 * 2^61
        h, m, r, batch = shape
        rng = np.random.default_rng(sum(shape))
        a = rng.choice([0, 1, 7, ARRAY_INF - 1, ARRAY_INF, 2 * ARRAY_INF], (h, m, batch))
        b = rng.choice([0, 3, 9, ARRAY_INF], (m, r, batch))
        a[0, :, 0], b[:, 0, 0] = 2 * ARRAY_INF, ARRAY_INF
        got = _min_plus(a, b)
        assert got.dtype == np.int64 and got.shape == (h, r, batch)
        want = min_plus_oracle(a.astype(object), b.astype(object))
        assert got.tolist() == want
        assert want[0][0][0] == 3 * ARRAY_INF

    @pytest.mark.parametrize("shape", MIN_PLUS_SHAPES)
    def test_object_ints_past_int64(self, shape):
        h, m, r, batch = shape
        rng = random.Random(sum(shape))
        big = [(1 << 62) + 5, (1 << 63) + 1, (1 << 70) + 3, 1, INF]
        a = np.array([rng.choice(big) for _ in range(h * m * batch)], dtype=object)
        b = np.array([rng.choice(big) for _ in range(m * r * batch)], dtype=object)
        a, b = a.reshape(h, m, batch), b.reshape(m, r, batch)
        got = _min_plus(a, b)
        assert got.dtype == object and got.shape == (h, r, batch)
        assert got.tolist() == min_plus_oracle(a, b)
        assert all(type(x) is int or x == INF for x in got.flat)


class TestGurevichShelah:
    def test_four_city(self):
        assert solve_gurevich_shelah(TspInstance.from_matrix(FOUR_CITY)).value == 14

    def test_two_city(self):
        inst = TspInstance.from_matrix([[0, 3], [5, 0]])
        assert solve_gurevich_shelah(inst).value == 8

    def test_rejects_single_city(self):
        with pytest.raises(InvalidInstance):
            solve_gurevich_shelah(TspInstance.from_matrix([[0]]))

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_held_karp(self, seed):
        rng = random.Random(300 + seed)
        inst = random_tsp(rng, rng.randint(4, 9))
        prob = tsp_as_permutation_problem(inst)
        assert solve_gurevich_shelah(inst).value == solve_held_karp(prob).value

    @pytest.mark.parametrize("n", [4, 6, 8, 10, 12])
    def test_space_accounting(self, n):
        rng = random.Random(n)
        inst = random_tsp(rng, n)
        res = solve_gurevich_shelah(inst)
        assert res.stats.peak_resident_entries <= 8 * n * n * (ceil(log2(n)) + 1)

    def test_peak_counts_partial_tables(self):
        # The finished table of N(N-1) pairs, plus the partial and
        # sub-tables resident while it fills, each counted once.
        peaks = [16, 28, 42, 60, 84, 108, 138, 168, 204]
        for n, peak in zip(range(4, 13), peaks):
            res = solve_gurevich_shelah(random_tsp(random.Random(n), n))
            assert res.stats.peak_resident_entries == peak

    @pytest.mark.parametrize("n", range(2, 12))
    def test_kernel_matches_dict_recursion(self, n):
        rng = random.Random(900 + n)
        inst = zero_inf_tsp(rng, n)
        w = [list(row) for row in inst.weights]
        row = rng.randrange(n)
        w[row] = [0 if j == row else INF for j in range(n)]
        for case in (inst, TspInstance.from_matrix(w)):
            res = solve_gurevich_shelah(case)
            stats = res.stats
            got = (res.value, stats.total_dp_updates, stats.peak_resident_entries)
            assert got == dict_gurevich_shelah(case)
            assert type(res.value) is int or res.value == INF
            assert stats.sweep_peak_entries == stats.peak_resident_entries

    @pytest.mark.parametrize("n", range(4, 13))
    def test_chunks_match_dict_recursion(self, monkeypatch, n):
        # a cap of 1 runs every node's splits one per chunk; 2^62 runs the whole tree at once
        rng = random.Random(950 + n)
        w = [list(row) for row in zero_inf_tsp(rng, n).weights]
        row = rng.randrange(n)
        w[row] = [0 if j == row else INF for j in range(n)]
        inst = TspInstance.from_matrix(w)
        want = dict_gurevich_shelah(inst)
        for cap in (1, 1 << 62):
            monkeypatch.setattr("chaineff.solver._BLOCK_ENTRIES", cap)
            stats = (res := solve_gurevich_shelah(inst)).stats
            assert (res.value, stats.total_dp_updates, stats.peak_resident_entries) == want

    def test_large_weights_are_exact(self):
        rng = random.Random(41)
        big = 1 << 60
        w = [[0 if i == j else rng.choice([big + rng.randint(0, 9), 1, INF]) for j in range(6)]
             for i in range(6)]
        inst = TspInstance.from_matrix(w)
        res = solve_gurevich_shelah(inst)
        assert res.value == brute_force_optimum(tsp_as_permutation_problem(inst))
        assert res.value >= big and type(res.value) is int
        assert (res.value, res.stats.total_dp_updates, res.stats.peak_resident_entries) == (
            dict_gurevich_shelah(inst)
        )

    def test_large_weights_are_exact_across_chunks(self):
        # 10 cities run the object-weight kernel in chunks; every tour passes 2^63
        rng = random.Random(43)
        big, n = 1 << 60, 10
        w = [[0 if i == j else rng.choice([big + rng.randint(0, 9)] * 5 + [INF]) for j in range(n)]
             for i in range(n)]
        inst = TspInstance.from_matrix(w)
        res = solve_gurevich_shelah(inst)
        assert res.value > 1 << 63 and type(res.value) is int
        assert (res.value, res.stats.total_dp_updates, res.stats.peak_resident_entries) == (
            dict_gurevich_shelah(inst)
        )

    @pytest.mark.parametrize("n", [3, 4, 10])
    def test_budget_holds_the_peak(self, n):
        inst = random_tsp(random.Random(n), n)
        peak = solve_gurevich_shelah(inst).stats.peak_resident_entries
        res = solve_gurevich_shelah(inst, memory_budget=peak)
        assert res.value == dict_gurevich_shelah(inst)[0]
        with pytest.raises(ResourceLimit):
            solve_gurevich_shelah(inst, memory_budget=peak - 1)

    def test_kernel_holds_no_more_than_it_reports(self):
        # after a warm-up fills the plan caches, the solve's own allocations
        # fit 8 bytes per entry of batch_resident_entries
        for n in (6, 8, 10, 11, 12):
            inst = random_tsp(random.Random(n), n)
            solve_gurevich_shelah(inst)
            tracemalloc.start()
            try:
                stats = solve_gurevich_shelah(inst).stats
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 8 * stats.batch_resident_entries, n

    def test_batch_is_reported_apart(self):
        # up to 9 cities the whole tree runs at once; at 10 and 11 the root's splits run in chunks
        for n in range(4, 10):
            stats = solve_gurevich_shelah(random_tsp(random.Random(n), n)).stats
            assert stats.batch_resident_entries == _footprint(n)[0] <= _BLOCK_ENTRIES
        for n in (10, 11):
            stats = solve_gurevich_shelah(random_tsp(random.Random(n), n)).stats
            assert stats.batch_resident_entries <= _BLOCK_ENTRIES < _footprint(n)[0]


class TestChainTradeoff:
    def systems(self):
        return [
            full_power_set(4),
            tower_of_cubes(2, 2),
            from_poset_ideals(make_matching_complement(2)),
        ]

    @pytest.mark.parametrize("seed", range(8))
    def test_tsp_equivalence(self, seed):
        rng = random.Random(400 + seed)
        inst = random_tsp(rng, rng.randint(4, 9))
        prob = tsp_as_permutation_problem(inst)
        ref = brute_force_optimum(prob)
        for a in self.systems():
            res = solve_chain_tradeoff(prob, a, g=1)
            assert res.value == ref
            assert evaluate_permutation(prob, res.witness) == ref

    @pytest.mark.parametrize("seed", range(8))
    def test_dfas_equivalence(self, seed):
        rng = random.Random(500 + seed)
        inst = random_dfas(rng, rng.randint(4, 8))
        prob = dfas_as_permutation_problem(inst)
        ref = brute_force_optimum(prob)
        for a in self.systems():
            res = solve_chain_tradeoff(prob, a, g=1)
            assert res.value == ref

    def test_g2_matches(self):
        rng = random.Random(77)
        inst = random_tsp(rng, 7)
        prob = tsp_as_permutation_problem(inst)
        a = full_power_set(3)
        res = solve_chain_tradeoff(prob, a, g=2)
        assert res.value == brute_force_optimum(prob)

    def test_randomized_cover_strategy(self):
        rng = random.Random(88)
        inst = random_tsp(rng, 6)
        prob = tsp_as_permutation_problem(inst)
        res = solve_chain_tradeoff(
            prob,
            tower_of_cubes(2, 2),
            strategy="random",
            seed=9,
        )
        assert res.value == brute_force_optimum(prob)

    def test_space_accounting(self):
        rng = random.Random(99)
        inst = random_tsp(rng, 9)
        prob = tsp_as_permutation_problem(inst)
        a = tower_of_cubes(2, 2)
        res = solve_chain_tradeoff(prob, a, g=1)
        s = ceil(prob.n / a.n)
        n_padded = a.n * s
        assert res.stats.peak_resident_entries <= len(a.members) ** s * n_padded**prob.degree
        assert res.stats.cover_product_size >= 1

    def test_rejects_non_idempotent(self):
        prob = PermutationProblem(
            n=4, degree=1, semiring=SUM_PRODUCT, cost_fn=lambda m, w: 1.0
        )
        with pytest.raises(UnsupportedSemiring):
            solve_chain_tradeoff(prob, full_power_set(2))

    def test_rejects_chainless_system(self):
        from chaineff.errors import InvalidSetSystem
        from chaineff.setsystem import SetSystem

        prob = tsp_as_permutation_problem(TspInstance.from_matrix(FOUR_CITY))
        with pytest.raises(InvalidSetSystem):
            solve_chain_tradeoff(prob, SetSystem(3, [0b1, 0b111]))

    def test_inf_only_tours(self):
        w = [[0, INF, 1], [1, 0, INF], [INF, 1, 0]]
        inst = TspInstance.from_matrix(w)
        prob = tsp_as_permutation_problem(inst)
        res = solve_held_karp(prob)
        assert res.value == brute_force_optimum(prob)


def table_problem(rng, n, degree):
    """A min-plus problem whose costs come from random tables.

    The cost of a step is a[window] + b[prefix mask]; about one window in
    ten costs INF, so some orders are forbidden outright.
    """
    a = {}
    for r in range(1, degree + 1):
        for window in permutations(range(n), r):
            a[window] = INF if rng.random() < 0.1 else rng.randint(0, 30)
    b = [rng.randint(0, 5) for _ in range(1 << n)]
    return PermutationProblem(
        n=n, degree=degree, semiring=MIN_PLUS, cost_fn=lambda m, w: a[w] + b[m]
    )


class TestStateSpace:
    """The DP keys a state by its mask and the last d-1 placed elements."""

    @pytest.mark.parametrize("seed", range(12))
    def test_table_costs_match_brute_force(self, seed):
        rng = random.Random(600 + seed)
        degree = 1 + seed % 4
        prob = table_problem(rng, rng.randint(3, 6), degree)
        ref = brute_force_optimum(prob)
        results = [solve_held_karp(prob)]
        for a in (full_power_set(3), tower_of_cubes(2, 2)):
            results.append(solve_chain_tradeoff(prob, a, g=1))
        for res in results:
            assert res.value == ref
            if ref == INF:
                assert res.witness is None
            else:
                assert evaluate_permutation(prob, res.witness) == ref

    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    def test_unit_sum_product_counts_every_order_once(self, degree):
        prob = PermutationProblem(
            n=6, degree=degree, semiring=SUM_PRODUCT, cost_fn=lambda m, w: 1
        )
        res = solve_held_karp(prob)
        assert res.value == factorial(6)
        assert res.witness is None

    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    def test_held_karp_entries(self, degree):
        n = 7
        prob = PermutationProblem(n=n, degree=degree, semiring=MIN_PLUS, cost_fn=lambda m, w: 1)
        expect = 1 + sum(comb(n, k) * perm(k, min(k, degree - 1)) for k in range(1, n + 1))
        assert solve_held_karp(prob).stats.peak_resident_entries == expect


def _subset_dp(n, degree, sr, cost_fn, masks_by_popcount, budget, stats, want_parents):
    """The callback DP with parent pointers; returns (table, parents).

    The reference for ``ArrayDP`` on the cost oracle: ``parents[mask]``
    maps each key to the (last, parent key) step that produced its value,
    moved only on a strict improvement.  Without parent pointers the rows of popcount
    k - 2 are dropped before layer k is built.
    """
    keep = degree - 1
    zero, add, mul = sr.zero, sr.add, sr.mul
    table = {0: {(): sr.one}}
    parents = {}
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


def _all_masks(n):
    masks_by_popcount = [[] for _ in range(n + 1)]
    for mask in range(1 << n):
        masks_by_popcount[mask.bit_count()].append(mask)
    return masks_by_popcount


def boolean_problem(rng, n, degree):
    """A boolean problem that forbids about one window in five."""
    allowed = {
        window: rng.random() < 0.8
        for r in range(1, degree + 1)
        for window in permutations(range(n), r)
    }
    return PermutationProblem(
        n=n, degree=degree, semiring=BOOLEAN, cost_fn=lambda m, w: allowed[w]
    )


class TestParentPointerOracle:
    """Walking back by equality finds the step a parent pointer records."""

    @pytest.mark.parametrize("seed", range(24))
    def test_held_karp_matches(self, seed):
        rng = random.Random(1000 + seed)
        n, degree = rng.randint(1, 7), 1 + seed % 4
        make = table_problem if seed % 3 else boolean_problem
        prob = make(rng, n, degree)
        ref = SolveStats()
        table, parents = _subset_dp(
            n, degree, prob.semiring, prob.cost_fn, _all_masks(n), 1 << 20, ref, want_parents=True
        )
        value, key = _final_value(table, (1 << n) - 1, prob.semiring)
        res = solve_held_karp(prob)
        assert prob.arrays is None
        assert res.value == value
        if value == prob.semiring.zero:
            assert res.witness is None
        else:
            assert res.witness == _reconstruct(parents, (1 << n) - 1, key)
        assert res.stats.total_dp_updates == ref.total_dp_updates
        assert res.stats.sweep_peak_entries == ref.peak_resident_entries
        assert res.stats.peak_resident_entries == ref.peak_resident_entries
        assert res.stats.witness_peak_entries == 0


class TestLiveLayers:
    """A run that keeps no layer for the witness holds only the two in use."""

    def dp(self, prob, budget):
        return ArrayDP(prob, np.arange(1 << prob.n, dtype=np.uint64), budget)

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_peak_is_two_largest_consecutive_layers(self, degree):
        n = 7
        prob = table_problem(random.Random(300 + degree), n, degree)
        dp = self.dp(prob, 1 << 20)
        identity = np.arange(n)[None]
        full, lean = dp.run(identity, keep_all=True), dp.run(identity)
        layers = [1] + [int(np.count_nonzero(vals[0] != INF)) for _, vals in full.kept]
        assert full.peak() == sum(layers)
        assert lean.peak() == max(layers[k - 1] + layers[k] for k in range(1, n + 1))
        assert lean.live.tolist() == full.live.tolist() == [layers]
        assert lean.values[0] == full.values[0]
        assert not lean.kept
        assert lean.updates[0] == full.updates[0]
        # the parent-pointer DP's peaks, with and without its pointers
        args = (n, degree, MIN_PLUS, prob.cost_fn, _all_masks(n), 1 << 20)
        full_stats, lean_stats = SolveStats(), SolveStats()
        _subset_dp(*args, full_stats, want_parents=True)
        _subset_dp(*args, lean_stats, want_parents=False)
        assert full.peak() == full_stats.peak_resident_entries
        assert lean.peak() == lean_stats.peak_resident_entries

    def test_budget_holds_the_plan_and_two_dense_layers(self):
        n = 7
        prob = PermutationProblem(n=n, degree=1, semiring=MIN_PLUS, cost_fn=lambda m, w: 1)
        identity = np.arange(n)[None]
        dp = self.dp(prob, 1 << 20)
        two_layers = max(comb(n, k - 1) + comb(n, k) for k in range(1, n + 1))
        assert dp.plan_entries == n << (n - 1) and dp.entries(False) == two_layers
        fits = dp.plan_entries + two_layers
        assert dp.batch_size(1, fits, keep_all=False) == 1
        assert dp.run(identity).values[0] == n
        with pytest.raises(ResourceLimit):
            dp.batch_size(1, fits - 1, keep_all=False)


class TestWallTime:
    def test_tradeoff_wall_time_covers_the_cover_build(self, monkeypatch):
        import chaineff.solver as solver_mod

        built = []

        def slow_greedy(system):
            # the pause makes the cover build outlast the sweep itself
            t0 = time.monotonic()
            time.sleep(0.05)
            cover = greedy_cover(system)
            built.append(time.monotonic() - t0)
            return cover

        monkeypatch.setattr(solver_mod, "greedy_cover", slow_greedy)
        # 5 elements over A x A|[1]: a cover of each
        prob = tsp_as_permutation_problem(random_tsp(random.Random(6), 6))
        res = solve_chain_tradeoff(prob, tower_of_cubes(2, 2), g=1)
        assert len(built) == 2
        assert res.stats.wall_time >= sum(built)


def callback_only(prob):
    """The same problem without its array form, so it runs the callback DP."""
    return dataclasses.replace(prob, arrays=None)


def zero_inf_tsp(rng, n):
    """Weights 0..9 with about one in six INF, so some tours are forbidden."""
    w = [
        [0 if i == j else (INF if rng.random() < 1 / 6 else rng.randint(0, 9)) for j in range(n)]
        for i in range(n)
    ]
    return TspInstance.from_matrix(w)


def parallel_arc_dfas(rng, n):
    arcs = [(i, j) for i in range(n) for j in range(n) if i != j and rng.random() < 0.4]
    arcs += [arc for arc in arcs if rng.random() < 0.3]
    return DfasInstance.from_arcs(n, arcs)


class TestArrayKernel:
    """The array kernel against the callback DP on the same problem."""

    def assert_same(self, prob, solve):
        fast, slow = solve(prob), solve(callback_only(prob))
        assert fast.value == slow.value == brute_force_optimum(prob)
        assert type(fast.value) is int or fast.value == INF
        if fast.value == INF:
            assert fast.witness is None and slow.witness is None
        else:
            assert evaluate_permutation(prob, fast.witness) == fast.value
        for field in ("total_dp_updates", "peak_resident_entries", "sweep_peak_entries"):
            assert getattr(fast.stats, field) == getattr(slow.stats, field), field
        assert fast.stats.witness_peak_entries == slow.stats.witness_peak_entries

    @pytest.mark.parametrize("seed", range(12))
    def test_held_karp(self, seed):
        rng = random.Random(700 + seed)
        n = rng.randint(2, 8)
        for prob in (
            tsp_as_permutation_problem(zero_inf_tsp(rng, n)),
            dfas_as_permutation_problem(parallel_arc_dfas(rng, n)),
        ):
            assert prob.arrays is not None
            self.assert_same(prob, solve_held_karp)

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize(
        "system, g, strategy",
        [
            (tower_of_cubes(2, 2), 1, "greedy"),
            (from_poset_ideals(make_matching_complement(2)), 1, "random"),
            (full_power_set(3), 1, "random"),
            (tower_of_cubes(1, 2), 2, "greedy"),
        ],
        ids=["tower22", "matchcomp2-random", "power3-random", "tower12-g2"],
    )
    def test_tradeoff(self, seed, system, g, strategy):
        # 5 or 6 elements over groups of 3 or 4: s = 2, mostly with a short last group
        rng = random.Random(800 + seed)
        n = rng.randint(5, 6)
        for prob in (
            tsp_as_permutation_problem(zero_inf_tsp(rng, n + 1)),
            dfas_as_permutation_problem(parallel_arc_dfas(rng, n)),
        ):
            assert ceil(prob.n / (system.n * g)) == 2
            self.assert_same(prob, lambda p: solve_chain_tradeoff(p, system, g, strategy, seed))

    def test_sweep_and_witness_space_apart(self):
        rng = random.Random(31)
        prob = tsp_as_permutation_problem(random_tsp(rng, 10))
        res = solve_chain_tradeoff(prob, tower_of_cubes(3, 2))
        # 9 elements: A x A|[3], swept over 20 x 1 tuples
        assert res.stats.cover_product_size == 20
        assert res.stats.sweep_peak_entries == 123
        assert res.stats.witness_peak_entries == 373
        assert res.stats.peak_resident_entries == 373
        assert res.value == solve_held_karp(prob).value

    def test_large_weights_take_the_exact_callback_path(self):
        big = 1 << 60
        w = [[0, big, 1, big], [big, 0, big, 1], [1, big, 0, big], [big, 1, big, 0]]
        prob = tsp_as_permutation_problem(TspInstance.from_matrix(w))
        assert prob.arrays is None
        ref = brute_force_optimum(prob)
        assert ref == 2 * big + 2
        assert solve_held_karp(prob).value == ref
        assert solve_chain_tradeoff(prob, tower_of_cubes(2, 2)).value == ref

    def test_diagonal_is_ignored(self):
        w = [[0 if i == j else (3 * i + j) % 7 for j in range(5)] for i in range(5)]
        w[2][2] = 1 << 70
        inst = TspInstance.from_matrix(w)
        prob = tsp_as_permutation_problem(inst)
        assert prob.arrays is not None
        ref = brute_force_optimum(prob)
        assert solve_held_karp(prob).value == solve_gurevich_shelah(inst).value == ref

    def test_budget_checks_a_whole_tuple_before_the_sweep(self):
        # 7 elements over A x A|[3]: 6 x 3 cover tuples
        prob = tsp_as_permutation_problem(random_tsp(random.Random(5), 8))
        system = tower_of_cubes(2, 2)
        family = product_family([system, restriction(system, 3)])
        dp = ArrayDP(prob, family, DEFAULT_MEMORY_BUDGET)
        for keep_all in (False, True):
            fits = dp.plan_entries + dp.entries(keep_all)
            assert dp.batch_size(18, fits, keep_all) == 1
            assert dp.batch_size(18, fits + dp.entries(keep_all), keep_all) == 2
            with pytest.raises(ResourceLimit):
                dp.batch_size(18, fits - 1, keep_all)
        res = solve_chain_tradeoff(prob, system)
        assert res.stats.cover_product_size == 18
        assert res.stats.batch_resident_entries == 18 * dp.entries(False) == 594
        # a budget that fits the witness re-run but a batch of fewer tables
        budget = dp.plan_entries + dp.entries(True)
        batch = dp.batch_size(18, budget, False)
        assert batch * dp.entries(False) < dp.entries(True)
        res = solve_chain_tradeoff(prob, system, memory_budget=budget)
        assert res.stats.batch_resident_entries == dp.entries(True)
        # the plan alone passes this budget: no array of it is kept
        with pytest.raises(ResourceLimit):
            solve_chain_tradeoff(prob, system, memory_budget=dp.plan_entries - 1)


EXTENDED = os.environ.get("CHAINEFF_EXTENDED") == "1"


class TestRemainders:
    """N = n + r for every r in 1..n: the second group runs A|[r] with its own
    cover, and with every weight finite each tuple's DP, and the witness
    re-run when there is more than one tuple, visits every transition."""

    SYSTEMS = {
        "tower22": (tower_of_cubes(2, 2), 1),
        "tower32": (tower_of_cubes(3, 2), 1),
        "tower13-g2": (tower_of_cubes(1, 3), 2),
        "ideals7": (from_poset_ideals(Poset(7, [(0, 1), (0, 2), (3, 4), (5, 6)])), 1),
    }
    # on the cost oracle these two take about 100 s together on a 2-core
    # VM, 63 s of it in ideals7 with random covers (the dict DP this path
    # replaced took about 130 s)
    EXTENDED_ONLY = {("tower13-g2", "callback"), ("ideals7", "callback")}

    @pytest.mark.parametrize("engine", ["array", "callback"])
    @pytest.mark.parametrize("strategy", ["greedy", "random"])
    @pytest.mark.parametrize("name", list(SYSTEMS))
    def test_every_remainder(self, name, strategy, engine):
        if (name, engine) in self.EXTENDED_ONLY and not EXTENDED:
            pytest.skip("extended tier: set CHAINEFF_EXTENDED=1")
        system, g = self.SYSTEMS[name]
        a = cartesian_power(system, g)

        def cover_size(x):
            return len(greedy_cover(x) if strategy == "greedy" else randomized_cover(x, 7))

        for r in range(1, a.n + 1):
            rng = random.Random(r)
            last = restriction(a, r)
            tuples = cover_size(a) * cover_size(last)
            family = product_family([a, last])
            for prob in (
                tsp_as_permutation_problem(random_tsp(rng, a.n + r + 1)),
                dfas_as_permutation_problem(random_dfas(rng, a.n + r)),
            ):
                plan = build_plan(family, prob.n, prob.degree, DEFAULT_MEMORY_BUDGET)
                transitions = sum(len(layer.pred) for layer in plan)
                ref = solve_held_karp(prob).value
                run = callback_only(prob) if engine == "callback" else prob
                res = solve_chain_tradeoff(run, system, g, strategy, 7)
                assert res.value == ref
                assert evaluate_permutation(prob, res.witness) == ref
                assert res.stats.cover_product_size == tuples
                assert res.stats.total_dp_updates == (tuples + (tuples > 1)) * transitions


class TestPlanBudget:
    def test_refused_layer_is_not_allocated(self):
        # degree 2 over the masks of at most 5 of 16 elements: layers 1..4
        # hold 25,456 transitions and layer 5 alone 87,360.  The kept layers
        # take three budget-sized int64 arrays, and layer 5 is refused once
        # the lookup kernel has found the 21,840 edges into its 4,368 masks
        # and its transitions are counted from them, before its index
        # arrays are built, so the peak stays under 10 such arrays.
        # Building its index arrays as well passes 21.
        masks = np.arange(1 << 16, dtype=np.uint64)
        family = masks[np.bitwise_count(masks) <= 5]
        sizes = [len(layer.pred) for layer in build_plan(family, 16, 2, DEFAULT_MEMORY_BUDGET)]
        assert sizes[:5] == [16, 240, 3360, 21840, 87360]
        budget = sum(sizes[:4])
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimit):
                build_plan(family, 16, 2, budget)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 8 * budget


def _sparse_family(seed, with_empty):
    """About 60% of the subsets of 7 to 9 elements, so that some members are
    not reachable from the empty set."""
    rng = random.Random(seed)
    n = rng.randint(7, 9)
    members = [s for s in range(1, 1 << n) if rng.random() < 0.6]
    return np.array([0] * with_empty + members, dtype=np.uint64), n


def _tower_with_remainder(r):
    a = tower_of_cubes(3, 2)
    return product_family([a, restriction(a, r)]), 6 + r


# (family, n) of each family whose plans ``golden_plans.json`` pins
GOLDEN_PLAN_FAMILIES = {
    **{f"tower:3:2 x r={r}": lambda r=r: _tower_with_remainder(r) for r in range(1, 7)},
    "tower:2:3": lambda: (tower_of_cubes(2, 3).masks, 6),
    "ideals:matchcomp:4^2": lambda: (
        cartesian_power(from_poset_ideals(make_matching_complement(4)), 2).masks,
        16,
    ),
    "2^[12]": lambda: (full_power_set(12).masks, 12),
    "sparse:1": lambda: _sparse_family(1, True),
    "sparse:5": lambda: _sparse_family(5, True),
    "sparse:4 without the empty set": lambda: _sparse_family(4, False),
}


def plan_digests(layers):
    """Per layer, the first 16 hex digits of a sha256 over the dtype, shape
    and bytes of its five arrays."""
    digests = []
    for layer in layers:
        h = hashlib.sha256()
        for arr in (layer.pred, layer.starts, layer.prev, layer.elem, layer.out):
            h.update(f"{arr.dtype.str}{arr.shape}".encode())
            h.update(np.ascontiguousarray(arr).tobytes())
        digests.append(h.hexdigest()[:16])
    return digests


GOLDEN_PLANS = json.loads((Path(__file__).resolve().parent / "golden_plans.json").read_text())


class TestGoldenPlans:
    """Plans pinned from the edge scan that ran nonzero over every bit,
    binary-searched the parents and grouped the edges by np.unique."""

    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    @pytest.mark.parametrize("name", list(GOLDEN_PLAN_FAMILIES))
    def test_plan_matches(self, name, degree):
        family, n = GOLDEN_PLAN_FAMILIES[name]()
        plan = build_plan(family, n, degree, DEFAULT_MEMORY_BUDGET)
        assert plan_digests(plan) == GOLDEN_PLANS[name][str(degree)]

    @pytest.mark.parametrize("name", [name for name in GOLDEN_PLAN_FAMILIES if "sparse" in name])
    def test_sparse_families_hold_unreachable_members(self, name):
        family, n = GOLDEN_PLAN_FAMILIES[name]()
        reachable = {0}
        for mask in sorted(family.tolist(), key=int.bit_count):
            if any(mask & ~(1 << v) in reachable for v in range(n) if mask >> v & 1):
                reachable.add(mask)
        assert len(reachable - {0}) < np.count_nonzero(family)


class TestPowerSetIsHeldKarp:
    """Over A = 2^[k] the identity alone covers S_k, and A|[r] = 2^[r] too, so
    the sweep has one tuple over 2^[N] at every N: the tradeoff is
    Held-Karp, stats and all."""

    @pytest.mark.parametrize("seed", range(6))
    def test_same_result_and_stats(self, seed):
        rng = random.Random(900 + seed)
        k = rng.randint(2, 4)
        n = rng.randint(1, 7)
        problems = [
            tsp_as_permutation_problem(zero_inf_tsp(rng, n + 1)),
            dfas_as_permutation_problem(parallel_arc_dfas(rng, n)),
            table_problem(rng, n, rng.randint(1, 4)),
        ]
        for prob in problems + [callback_only(p) for p in problems[:2]]:
            held_karp = solve_held_karp(prob)
            for system in (full_power_set(k), tower_of_cubes(k, 1)):
                res = solve_chain_tradeoff(prob, system)
                assert res.value == held_karp.value
                assert res.witness == held_karp.witness
                assert dataclasses.replace(res.stats, wall_time=0.0) == dataclasses.replace(
                    held_karp.stats, wall_time=0.0
                )
                assert res.stats.cover_product_size == 1
                assert res.stats.witness_peak_entries == 0


@st.composite
def engine_cases(draw):
    """A family over [n] that holds the empty set and [n], a labelling, and
    a problem of degree 1..4 on table costs: min-plus with INF, boolean, or
    sum-product.  The family is the prefixes of a few orders, which make
    [n] reachable, and random masks, which may not."""
    n = draw(st.integers(1, 6))
    family = {0, (1 << n) - 1} | draw(st.sets(st.integers(0, (1 << n) - 1), max_size=40))
    for order in draw(st.lists(st.permutations(range(n)), max_size=4)):
        family |= {sum(1 << v for v in order[:j]) for j in range(n)}
    family = np.array(sorted(family), dtype=np.uint64)
    inv = np.array(draw(st.permutations(range(n))))
    degree = draw(st.integers(1, 4))
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(["min-plus", "boolean", "sum-product"]))
    if kind == "min-plus":
        prob = table_problem(rng, n, degree)
    elif kind == "boolean":
        prob = boolean_problem(rng, n, degree)
    else:
        windows = [w for r in range(1, degree + 1) for w in permutations(range(n), r)]
        counts = {w: rng.randint(0, 2) for w in windows}
        prob = PermutationProblem(
            n=n, degree=degree, semiring=SUM_PRODUCT, cost_fn=lambda m, w: counts[w]
        )
    return prob, family, inv


class TestOneEngine:
    """The plan's DP on the cost oracle against the parent-pointer DP over
    the same masks, for every degree and semiring."""

    @given(engine_cases())
    def test_matches_parent_pointer_dp(self, case):
        prob, family, inv = case
        n, sr = prob.n, prob.semiring
        calls = []

        def counted(mask, window):
            calls.append(1)
            return prob.cost_fn(mask, window)

        dp = ArrayDP(dataclasses.replace(prob, cost_fn=counted), family, 1 << 20)
        full = dp.run(inv[None], keep_all=True)
        assert len(calls) == full.updates[0]
        lean = dp.run(inv[None])
        masks = [[] for _ in range(n + 1)]
        for mask in _relabel(family, inv[None])[0].tolist():
            masks[mask.bit_count()].append(mask)
        args = (n, prob.degree, sr, prob.cost_fn, masks, 1 << 20)
        full_ref, lean_ref = SolveStats(), SolveStats()
        table, parents = _subset_dp(*args, full_ref, want_parents=True)
        _subset_dp(*args, lean_ref, want_parents=False)
        value, key = _final_value(table, (1 << n) - 1, sr)
        assert full.values[0] == lean.values[0] == value
        assert full.updates[0] == lean.updates[0] == full_ref.total_dp_updates
        assert full.peak() == full_ref.peak_resident_entries
        assert lean.peak() == lean_ref.peak_resident_entries
        if sr.idempotent and value != sr.zero:
            assert dp.walk(full, inv) == _reconstruct(parents, (1 << n) - 1, key)

    @pytest.mark.parametrize("seed", range(12))
    def test_witness_does_not_depend_on_the_cost_source(self, seed):
        # a random cover relabels the plan, so tied optimal orders must be
        # broken in the problem's labels for the two sources to agree
        rng = random.Random(800 + seed)
        n = rng.randint(5, 6)
        for prob in (
            tsp_as_permutation_problem(zero_inf_tsp(rng, n + 1)),
            dfas_as_permutation_problem(parallel_arc_dfas(rng, n)),
        ):
            tables, oracle = (
                solve_chain_tradeoff(p, full_power_set(3), 1, "random", seed)
                for p in (prob, callback_only(prob))
            )
            assert tables.witness == oracle.witness
