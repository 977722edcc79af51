"""Poset counting: ideals and linear extensions, all methods cross-checked."""

import importlib
import math
import random
import sys
import tracemalloc
from itertools import permutations
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chaineff.poset
from chaineff import cli
from chaineff.errors import InvalidInstance, MethodMismatch, ResourceLimit
from chaineff.poset import (
    DEFAULT_MEMORY_BUDGET,
    EXTENSION_METHODS,
    IDEAL_METHODS,
    Poset,
    closed_form_matching_complement,
    count_by_insertion,
    count_ideals,
    count_ideals_and_extensions,
    count_linear_extensions,
    default_count_methods,
    enumerate_ideals,
    family_layers,
    make_antichain,
    make_bucket_order,
    make_chain,
    make_circulant,
    make_counterexample,
    make_matching_complement,
    poset_efficiency,
    poset_from_text,
    poset_to_text,
    _ideal_layers,
)
from chaineff.setsystem import (
    SetSystem,
    cartesian_power,
    count_maximal_chains,
    tower_of_cubes,
)


def brute_ideals(p):
    """Independent oracle: test all 2^n subsets for downward closure."""
    count = 0
    for mask in range(1 << p.n):
        ok = True
        for v in range(p.n):
            if mask & (1 << v) and (p.pred_mask[v] & mask) != p.pred_mask[v]:
                ok = False
                break
        count += ok
    return count


def brute_extensions(p):
    count = 0
    for sigma in permutations(range(p.n)):
        pos = {v: i for i, v in enumerate(sigma)}
        if all(pos[u] < pos[v] for u, v in p.covers):
            count += 1
    return count


def bfs_ideals(p):
    """Oracle: the ideals by a breadth-first search over Python sets, in
    (popcount, value) order."""
    full = (1 << p.n) - 1
    layers = [[0]]
    while layers[-1]:
        nxt = set()
        for ideal in layers[-1]:
            free = full & ~ideal
            while free:
                v = (free & -free).bit_length() - 1
                free &= free - 1
                if p.pred_mask[v] & ~ideal == 0:
                    nxt.add(ideal | (1 << v))
        layers.append(sorted(nxt))
    return [ideal for layer in layers for ideal in layer]


def dict_ideal_dp(p):
    """Oracle: linear extensions by a dict over the ideals, each summing
    its predecessors without one maximal element."""
    ideals = bfs_ideals(p)
    lam = {0: 1}
    for ideal in ideals[1:]:
        acc = 0
        rest = ideal
        while rest:
            v = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            if p.succ_mask[v] & ideal == 0:  # v maximal in the ideal
                acc += lam[ideal & ~(1 << v)]
        lam[ideal] = acc
    return lam[ideals[-1]]


def dict_fst(p):
    """Oracle: linear extensions of a bipartite poset by a dict F(S, t)
    over every subset S of the lower side X, with e(S) counted by a
    superset loop; F(S, t) = sum_x F(S + x, t) + (e(S) - t) F(S, t + 1)."""
    x_side, y_side = p.bipartition()
    nx, ny = len(x_side), len(y_side)
    pos = {x: i for i, x in enumerate(x_side)}
    size = 1 << nx
    e = bytearray(size)
    for y in y_side:
        nb = sum(1 << pos[x] for x in x_side if p.cover_down[y] >> x & 1)
        free = (size - 1) & ~nb
        sub = free
        while True:  # add 1 to every superset of nb
            e[nb | sub] += 1
            if sub == 0:
                break
            sub = (sub - 1) & free
    full = size - 1
    f_by_mask = {full: [factorial(ny - t) for t in range(ny + 1)]}
    for k in range(nx - 1, -1, -1):
        new = {}
        for mask in (s for s in range(size) if bin(s).count("1") == k):
            e_s = e[mask]
            row = [0] * (e_s + 1)
            for t in range(e_s, -1, -1):
                acc = 0
                rest = full & ~mask
                while rest:
                    x = rest & -rest
                    rest &= rest - 1
                    acc += f_by_mask[mask | x][t]
                if t < e_s:
                    acc += (e_s - t) * row[t + 1]
                row[t] = acc
            new[mask] = row
        f_by_mask = new
    return f_by_mask[0][0]


def object_layer_chains(layers):
    """Oracle: maximal chains of popcount layers with each count a Python
    int in an object array, each member summing its parents' counts."""
    layers = iter(layers)
    prev = next(layers)
    counts = np.ones(prev.size, dtype=object)
    for k, layer in enumerate(layers, 1):
        if not counts.size:
            return 0
        parents = np.empty((k, layer.size), dtype=np.uint64)
        rest = layer.copy()
        for j in range(k):
            low = rest & -rest
            rest ^= low
            parents[j] = layer ^ low
        at = np.minimum(np.searchsorted(prev, parents), prev.size - 1)
        found = prev[at] == parents
        ways = np.zeros(parents.shape, dtype=object)
        ways[found] = counts[at[found]]
        prev, counts = layer, ways.sum(axis=0)
    return int(counts.sum())


def brute_family_layers(family, n):
    """Oracle: the (layer, src, starts) tuples of ``family_layers``, each
    member scanned for the members of the kept layer below that it holds,
    by element, and kept when it holds one."""
    members = family.tolist()
    prev = [0] if 0 in members else []
    layers = [(prev, [], [])]
    for k in range(1, n + 1):
        at = {parent: i for i, parent in enumerate(prev)}
        layer, src, starts = [], [], []
        for child in sorted(x for x in members if x.bit_count() == k):
            parents = [at[child ^ 1 << v] for v in range(n) if child ^ 1 << v in at]
            if parents:
                starts.append(len(src))
                layer.append(child)
                src += parents
        layers.append((layer, src, starts))
        prev = layer
    return [
        tuple(np.array(x, dtype=t) for x, t in zip(layer, (np.uint64, np.intp, np.intp)))
        for layer in layers
    ]


def assert_same_layers(got, expect):
    """The (layer, src, starts) tuples agree, array for array and in dtype."""
    assert len(got) == len(expect)
    for got_arrays, expect_arrays in zip(got, expect):
        for a, b in zip(got_arrays, expect_arrays):
            assert a.dtype == b.dtype and np.array_equal(a, b)


def as_family(masks):
    """Distinct masks as a uint64 array sorted by (popcount, value)."""
    return np.array(sorted(set(masks), key=lambda x: (x.bit_count(), x)), dtype=np.uint64)


def system_layers(a):
    """The members of a set system as sorted uint64 popcount layers."""
    members = np.array(a.members, dtype=np.uint64)
    sizes = np.bitwise_count(members)
    return [members[sizes == k] for k in range(a.n + 1)]


def rotation_classes(m, k):
    """Number of rotation classes of the k-subsets of an m-cycle."""
    full = (1 << m) - 1
    return len(
        {
            min(((s << r) | (s >> (m - r))) & full for r in range(m))
            for s in range(1 << m)
            if bin(s).count("1") == k
        }
    )


def byte_charges(monkeypatch, call):
    """(what, bytes) of each ``chaineff.poset.charge`` that ``call()`` makes."""
    charges, real = [], chaineff.poset.charge

    def spy(what, entries, memory_budget, nbytes=None):
        charges.append((what, 8 * entries if nbytes is None else nbytes))
        real(what, entries, memory_budget, nbytes)

    monkeypatch.setattr(chaineff.poset, "charge", spy)
    call()
    monkeypatch.setattr(chaineff.poset, "charge", real)
    return charges


def dense_transfer_trace(p):
    """Oracle: the ideal count of a circulant as the trace of M^m, each
    start state s0 walking m full steps over all 2^w states (w = max D).
    A 1 appended to state s weighs 2 iff s covers need >> 1, where bit
    w - d of need stands for offset d."""
    m, offsets = p.m, p.offsets
    w = max(offsets)
    if w == 0:
        return 3**m
    nstates = 1 << w
    cols = min(nstates, max(1, (1 << 20) >> w))
    need = 0
    for d in offsets:
        need |= 1 << (w - d)
    states = np.arange(nstates, dtype=np.uint64)
    heavy = (states & np.uint64(need >> 1)) == need >> 1
    weight1 = heavy.astype(np.uint64) + 1
    half = nstates >> 1
    heavy_lo = np.flatnonzero(heavy[:half])
    heavy_hi = np.flatnonzero(heavy[half:])
    mask = np.uint64(nstates - 1)
    total = 0
    for start in range(0, nstates, cols):
        s0 = states[start : start + cols]
        vec = np.ones((1, s0.size), dtype=np.uint64)
        for t in range(w):
            state = ((s0 << np.uint64(t)) | states[: 1 << t, None]) & mask
            nxt = np.empty((1 << t, 2, s0.size), dtype=np.uint64)
            nxt[:, 0] = vec
            np.multiply(vec, weight1[state], out=nxt[:, 1])
            vec = nxt.reshape(2 << t, s0.size)
        for _ in range(m - w):
            lo, hi = vec[:half], vec[half:]
            nxt = np.empty((half, 2, s0.size), dtype=np.uint64)
            np.add(lo, hi, out=nxt[:, 0])
            nxt[:, 1] = nxt[:, 0]
            nxt[heavy_lo, 1] += lo[heavy_lo]
            nxt[heavy_hi, 1] += hi[heavy_hi]
            vec = nxt.reshape(nstates, s0.size)
        total += sum(vec[start : start + s0.size].diagonal().tolist())
    return total


def lucas(n):
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def random_bipartite(rng, nx, ny, density=0.4):
    covers = [(x, nx + y) for x in range(nx) for y in range(ny) if rng.random() < density]
    return Poset(nx + ny, covers)


def random_poset(rng, n):
    covers = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.3:
                covers.append((i, j))
    return Poset(n, covers)


@st.composite
def posets(draw, max_n):
    """A poset on up to ``max_n`` elements: k of the pairs i < j, k at most
    a drawn multiple of n, relabelled by a random permutation."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(i, j) for j in range(n) for i in range(j)]
    k = draw(st.integers(min_value=0, max_value=draw(st.sampled_from([1, 2, n])) * n))
    label = draw(st.permutations(range(n)))
    chosen = draw(st.permutations(pairs))[:k]
    return Poset(n, [(label[i], label[j]) for i, j in chosen])


def warshall_closure(p):
    """Independent oracle: (pred, succ) masks of the strict closure of
    ``p.covers`` by Warshall's algorithm over a boolean matrix."""
    reach = [[False] * p.n for _ in range(p.n)]
    for u, v in p.covers:
        reach[u][v] = True
    for w in range(p.n):
        for u in range(p.n):
            if reach[u][w]:
                for v in range(p.n):
                    reach[u][v] = reach[u][v] or reach[w][v]
    succ = tuple(sum(1 << v for v in range(p.n) if reach[u][v]) for u in range(p.n))
    pred = tuple(sum(1 << u for u in range(p.n) if reach[u][v]) for v in range(p.n))
    return pred, succ


class TestConstruction:
    @pytest.mark.parametrize("length", range(2, 7))
    def test_rejects_cycle(self, length):
        # the cycle sits on the odd elements, entered by a cover from 0
        ring = [2 * i + 1 for i in range(length)]
        covers = [(ring[i], ring[(i + 1) % length]) for i in range(length)]
        with pytest.raises(InvalidInstance, match="cover relation contains a cycle"):
            Poset(2 * length, covers + [(0, ring[0])])

    @given(posets(max_n=12))
    @settings(max_examples=80, deadline=None)
    def test_closure_matches_warshall(self, p):
        assert (p.pred_mask, p.succ_mask) == warshall_closure(p)

    def test_chain_counts(self):
        p = make_chain(6)
        assert count_ideals(p) == 7
        assert count_linear_extensions(p) == 1

    def test_antichain_counts(self):
        p = make_antichain(5)
        assert count_ideals(p) == 32
        assert count_linear_extensions(p) == 120

    def test_bucket_order_ideals(self):
        # two buckets of 13: alpha = 2^14 - 1
        p = make_bucket_order(13, 2)
        assert count_ideals(p, "lattice") == 2**14 - 1

    def test_text_roundtrip(self):
        p = random_poset(random.Random(3), 7)
        q = poset_from_text(poset_to_text(p))
        assert q.n == p.n and set(q.covers) == set(p.covers)


class TestIdealCounting:
    @pytest.mark.parametrize("seed", range(15))
    def test_lattice_matches_brute(self, seed):
        p = random_poset(random.Random(seed), 7)
        assert count_ideals(p, "lattice") == brute_ideals(p)

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_bipartite_methods_agree(self, m):
        p = make_matching_complement(m)
        values = {count_ideals(p, meth) for meth in IDEAL_METHODS}
        assert len(values) == 1

    @pytest.mark.parametrize(
        "m,offsets", [(3, (0,)), (5, (0, 1)), (7, (0, 1, 3)), (9, (0, 2, 3))]
    )
    def test_circulant_methods_agree(self, m, offsets):
        p = make_circulant(m, offsets)
        values = {count_ideals(p, meth) for meth in IDEAL_METHODS}
        assert len(values) == 1

    @pytest.mark.parametrize("m", range(2, 33))
    def test_crown_is_lucas(self, m):
        # The crown D = {0, 1} has L_{2m} ideals.  At m = 32 the entries of
        # M^m reach the uint64 bound 2^(2m - w) = 2^63 of the transfer kernel.
        p = make_circulant(m, (0, 1))
        assert count_ideals(p, "circulant-transfer") == lucas(2 * m)
        if m <= 9:
            assert count_ideals(p, "lattice") == lucas(2 * m)

    @pytest.mark.parametrize("m", [1, 2, 5, 13, 32])
    def test_matching_is_power_of_three(self, m):
        p = make_circulant(m, (0,))
        assert count_ideals(p, "circulant-transfer") == 3**m
        if m <= 16:
            assert count_ideals(p, "bipartite-sum") == 3**m

    @pytest.mark.parametrize("seed", range(8))
    def test_wide_transfer_matches_bipartite_sum(self, seed):
        rng = random.Random(500 + seed)
        w = rng.randint(10, 13)
        m = rng.randint(w + 1, 18)
        offsets = {0, w} | set(rng.sample(range(1, w), rng.randint(0, 4)))
        p = make_circulant(m, offsets)
        assert count_ideals(p, "circulant-transfer") == count_ideals(p, "bipartite-sum")

    @pytest.mark.parametrize("shape", ["m<2w", "m=2w", "m>2w"])
    @pytest.mark.parametrize("cols", [None, 1, 8, 3])
    def test_transfer_matches_dense_trace(self, monkeypatch, shape, cols):
        # cols None runs the real block; 1 and 8 force blocks of that many
        # start states, and 3, which is not a power of two, is rounded down
        # to blocks of 2, so no block is short
        rng = random.Random(f"{shape}{cols}")
        for _ in range(25):
            if shape == "m<2w":
                w = rng.randint(2, 8)
                m = rng.randint(w + 1, 2 * w - 1)
            elif shape == "m=2w":
                w = rng.randint(1, 8)
                m = 2 * w
            else:
                w = rng.randint(1, 6)
                m = rng.randint(2 * w + 1, 16)
            # D = {w} about one time in four; 0 is left out of D about half the time
            low = rng.sample(range(w), rng.randint(0, w)) if rng.random() < 0.75 else []
            p = make_circulant(m, {w, *low})
            if cols is not None:
                monkeypatch.setattr(chaineff.poset, "_BLOCK_ENTRIES", cols << min(w, m - w))
            assert count_ideals(p, "circulant-transfer") == dense_transfer_trace(p), p

    @pytest.mark.parametrize("seed", range(6))
    def test_transfer_blocks_skip_adds_their_high_bits_fail(self, monkeypatch, seed):
        # wide circulants in 8 to 32 blocks of 2^c start states; the step
        # that appends s0's top bit w - 1 tests a bit past c, so at least the
        # block of high bits 0 skips its add
        rng = random.Random(700 + seed)
        w = rng.randint(10, 12)
        m = rng.randint(max(20, w + 1), 25)
        p = make_circulant(m, {w, *rng.sample(range(w), rng.randint(1, 4))})
        c = w - rng.randint(3, 5)
        monkeypatch.setattr(chaineff.poset, "_BLOCK_ENTRIES", 1 << (min(w, m - w) + c))

        class CountedAdds:
            adds = 0

            def __getattr__(self, name):
                return getattr(np, name)

            def add(self, *args, **kwargs):
                CountedAdds.adds += 1
                return np.add(*args, **kwargs)

        monkeypatch.setattr(chaineff.poset, "np", CountedAdds())
        value = count_ideals(p, "circulant-transfer")
        monkeypatch.undo()
        # unskipped, every block makes one add per step and one per halving
        assert CountedAdds.adds < (1 << (w - c)) * (m + m - w)
        assert value == count_ideals(p, "bipartite-sum") == dense_transfer_trace(p), p

    @pytest.mark.parametrize(
        "m,offsets", [(16, (1, 3, 8)), (13, (6,)), (12, (2, 5, 6)), (32, (0, 3, 10))]
    )
    def test_transfer_matches_dense_trace_pinned(self, m, offsets):
        # m = 2w with 0 not in D; D = {w}; m = 2w; and m = 32, the largest m
        p = make_circulant(m, offsets)
        assert count_ideals(p, "circulant-transfer") == dense_transfer_trace(p)

    @pytest.mark.parametrize("nx,ny", [(3, 5), (5, 3), (5, 7), (7, 4), (1, 6)])
    def test_bipartite_sum_matches_lattice(self, nx, ny):
        p = random_bipartite(random.Random(nx * 10 + ny), nx, ny)
        assert count_ideals(p, "bipartite-sum") == count_ideals(p, "lattice")

    def test_bipartite_sum_side_without_neighbours(self):
        # An antichain has an empty upper side; one isolated element joins
        # a side whose other members have neighbours.
        assert count_ideals(make_antichain(7), "bipartite-sum") == 2**7
        p = Poset(6, [(0, 3), (1, 3), (1, 4)])
        assert count_ideals(p, "bipartite-sum") == count_ideals(p, "lattice")

    def test_bipartite_sum_at_sixty_three(self):
        # one x below 63 y's, and one y above 63 x's: K = 63, so the sum
        # 2^63 + 2^0 passes every 64-bit float and integer type exactly
        below = Poset(64, [(0, y) for y in range(1, 64)])
        above = Poset(64, [(x, 63) for x in range(63)])
        assert count_ideals(below, "bipartite-sum") == 2**63 + 1
        assert count_ideals(above, "bipartite-sum") == 2**63 + 1

    @pytest.mark.parametrize("block", [None, 1, 12])
    @pytest.mark.parametrize("seed", range(4))
    def test_bipartite_sum_shared_neighbourhoods(self, monkeypatch, seed, block):
        # every x takes one of at most three neighbourhoods, so many subsets
        # of a half share an OR; block 1 and 12 force blocks of at most that
        # many distinct pairs, and 12 leaves a short last block at seed 0
        rng = random.Random(900 + seed)
        nx, ny = 8, 8
        pool = [rng.getrandbits(ny) for _ in range(rng.randint(1, 3))]
        covers = []
        for x in range(nx):
            nb = rng.choice(pool)
            covers += [(x, nx + y) for y in range(ny) if nb >> y & 1]
        p = Poset(nx + ny, covers)
        if block is not None:
            monkeypatch.setattr(chaineff.poset, "_BLOCK_ENTRIES", block)
        assert count_ideals(p, "bipartite-sum") == count_ideals(p, "lattice")

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_bipartite_sum_matches_lattice_property(self, data):
        # lopsided sides: at most 3 elements against up to 13
        small = data.draw(st.integers(min_value=0, max_value=3))
        large = data.draw(st.integers(min_value=1, max_value=13))
        nx, ny = (small, large) if data.draw(st.booleans()) else (large, small)
        pairs = [(x, nx + y) for x in range(nx) for y in range(ny)]
        covers = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        p = Poset(nx + ny, covers)
        assert count_ideals(p, "bipartite-sum") == count_ideals(p, "lattice")

    @pytest.mark.parametrize("method", ["bipartite-sum", "circulant-transfer"])
    def test_kernel_peak_is_about_two_blocks(self, method):
        # each kernel peaks at 2.05 blocks of _BLOCK_ENTRIES uint64 entries:
        # its two block buffers and, for bipartite-sum, a few arrays of
        # distinct ORs
        p = make_circulant(25, (0, 2, 3, 10, 12))
        tracemalloc.start()
        try:
            value = count_ideals(p, method)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == 217984283
        assert peak < 2.5 * chaineff.poset._BLOCK_ENTRIES * 8

    @pytest.mark.parametrize("method", ["bipartite-sum", "circulant-transfer"])
    @pytest.mark.parametrize("builtin", ["24:0,3,11", "25:0,2,3,10,12", "28:0,1,5,13"])
    def test_block_kernel_peak_is_within_its_byte_charge(
        self, monkeypatch, capsys, builtin, method
    ):
        # both of a kernel's blocks are charged in bytes: its peak is within
        # 1.5 times its largest charge, and a machine one byte smaller
        # refuses the count with one line
        m, offsets = builtin.split(":")
        p = make_circulant(int(m), map(int, offsets.split(",")))
        tracemalloc.start()
        try:
            charges = byte_charges(monkeypatch, lambda: count_ideals(p, method))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        most = max(nbytes for _, nbytes in charges)
        assert peak <= 1.5 * most
        monkeypatch.setattr(chaineff.poset, "physical_bytes", lambda: most - 1)
        argv = ["count", "ideals", "--builtin", f"circulant:{builtin}", "--method", method]
        assert cli.run(argv) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"resource limit: {method} needs {most} bytes, over physical memory\n"

    @pytest.mark.parametrize("method", ["bipartite-sum", "circulant-transfer"])
    def test_kernels_check_budget(self, method):
        p = make_circulant(12, (0, 1, 10))
        with pytest.raises(ResourceLimit):
            count_ideals(p, method, memory_budget=16)

    def test_transfer_requires_circulant(self):
        with pytest.raises(MethodMismatch):
            count_ideals(make_chain(4), "circulant-transfer")

    def test_ideal_enumeration_is_lattice(self):
        p = random_poset(random.Random(42), 6)
        ideals = enumerate_ideals(p)
        assert len(ideals) == brute_ideals(p)
        assert 0 in ideals and (1 << p.n) - 1 in ideals


class TestLayerKernel:
    """The layered numpy kernels against the set BFS and the dict DP."""

    @pytest.mark.parametrize("seed", range(20))
    def test_random_posets_match_oracles(self, seed):
        rng = random.Random(900 + seed)
        p = random_poset(rng, rng.randint(1, 10))
        ideals = enumerate_ideals(p)
        assert ideals == bfs_ideals(p)
        assert all(type(ideal) is int for ideal in ideals)
        assert count_ideals(p, "lattice") == len(ideals)
        assert count_linear_extensions(p, "ideal-dp") == dict_ideal_dp(p)

    @pytest.mark.parametrize(
        "poset",
        [lambda: make_bucket_order(13, 2), lambda: make_circulant(11, (0, 1, 3))],
        ids=["bucket13x2", "c11"],
    )
    def test_ideal_order_matches_bfs(self, poset):
        p = poset()
        assert enumerate_ideals(p) == bfs_ideals(p)

    def test_chain_of_64_sets_bit_63(self):
        p = make_chain(64)
        assert enumerate_ideals(p) == bfs_ideals(p) == [(1 << k) - 1 for k in range(65)]
        assert count_linear_extensions(p, "ideal-dp") == dict_ideal_dp(p) == 1

    def test_counts_past_uint64(self):
        p = make_bucket_order(10, 4)
        lam = count_linear_extensions(p, "ideal-dp")
        assert lam == dict_ideal_dp(p) == factorial(10) ** 4
        assert lam > 1 << 64

    @given(posets(max_n=8))
    def test_ideal_dp_matches_brute_property(self, p):
        assert count_linear_extensions(p, "ideal-dp") == count_linear_extensions(p, "brute")

    @settings(max_examples=60)
    @given(posets(max_n=16))
    def test_ideal_dp_matches_dict_dp_property(self, p):
        assert count_linear_extensions(p, "ideal-dp") == dict_ideal_dp(p)

    @settings(max_examples=60)
    @given(posets(max_n=16))
    def test_lattice_layers_and_edges_match_bfs_property(self, p):
        ideals = bfs_ideals(p)
        assert count_ideals(p, "lattice") == len(ideals)
        layers = list(_ideal_layers(p, DEFAULT_MEMORY_BUDGET))
        assert [x for layer, _, _ in layers for x in layer.tolist()] == ideals
        # the edges into each ideal come from exactly the ideals less one
        # of its maximal elements
        for (prev, _, _), (layer, src, starts) in zip(layers, layers[1:]):
            assert starts[0] == 0 and starts.size == layer.size
            for ideal, parents in zip(layer.tolist(), np.split(prev[src], starts[1:])):
                expect = [
                    ideal & ~(1 << v)
                    for v in range(p.n)
                    if ideal >> v & 1 and p.succ_mask[v] & ideal == 0
                ]
                assert sorted(parents.tolist()) == sorted(expect)

    @settings(max_examples=60)
    @given(posets(max_n=12))
    def test_lookup_kernel_finds_the_lattice_edges_property(self, p):
        # the two edge builders agree on an ideal family, array for array
        walk = list(_ideal_layers(p, DEFAULT_MEMORY_BUDGET))
        family = np.concatenate([layer for layer, _, _ in walk])
        lookup = list(family_layers(family, p.n))
        assert len(lookup) == len(walk) == p.n + 1
        for got, expect in zip(lookup, walk):
            for a, b in zip(got, expect):
                assert a.dtype == b.dtype and np.array_equal(a, b)

    @pytest.mark.parametrize(
        "family,n",
        [
            *[
                (lambda t=t, k=k: tower_of_cubes(t, k).masks, t * k)
                for t in range(1, 7)
                for k in range(1, 4)
            ],
            (lambda: cartesian_power(tower_of_cubes(2, 2), 2).masks, 8),
            # layer 1 is {0b1}, whose core 0b1 the candidate 0b110 lacks
            (lambda: as_family([0, 0b1, 0b11, 0b101, 0b110, 0b111, 0b1111]), 4),
            # layer 3 is empty, so layer 4 is, though 0b1111 is a member
            (lambda: as_family([0, 0b1, 0b11, 0b1111]), 4),
            (lambda: as_family([0b1, 0b11]), 2),
        ],
        ids=[f"tower:{t}:{k}" for t in range(1, 7) for k in range(1, 4)]
        + ["tower:2:2^2", "lacks-core", "empty-middle", "no-empty-set"],
    )
    def test_family_layers_match_a_parent_scan(self, family, n):
        family = family()
        assert_same_layers(list(family_layers(family, n)), brute_family_layers(family, n))

    @settings(max_examples=60)
    @given(st.integers(min_value=1, max_value=10).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=300))
    ))
    def test_family_layers_match_a_parent_scan_property(self, drawn):
        # random families that hold the empty set
        n, masks = drawn
        family = as_family([0, *masks])
        assert_same_layers(list(family_layers(family, n)), brute_family_layers(family, n))

    @settings(max_examples=60)
    @given(posets(max_n=16))
    def test_one_walk_matches_the_separate_counts_property(self, p):
        alpha, lam = count_ideals_and_extensions(p)
        assert alpha == count_ideals(p, "lattice") == len(bfs_ideals(p))
        assert lam == dict_ideal_dp(p)
        if p.n <= 8:
            assert lam == count_linear_extensions(p, "brute")
        # the same walk, so the same refusal one ideal short of alpha
        with pytest.raises(ResourceLimit) as joint:
            count_ideals_and_extensions(p, memory_budget=alpha - 1)
        with pytest.raises(ResourceLimit) as alone:
            count_ideals(p, "lattice", memory_budget=alpha - 1)
        assert str(joint.value) == str(alone.value)
        assert count_ideals_and_extensions(p, memory_budget=alpha) == (alpha, lam)

    @pytest.mark.parametrize(
        "call,lattice_walks,insertion_walks",
        [
            # J(P') of the counterexample, its 18 elements that are not
            # maximal, and no walk of J(P)
            (lambda: cli.run(["verify", "counterexample"]) == 0, [], [18]),
            (lambda: poset_efficiency(make_bucket_order(4, 3)).inv_eta == "4.52308665836", [12], []),
        ],
        ids=["verify-counterexample", "efficiency-bucket4x3"],
    )
    def test_alpha_and_lambda_take_one_lattice_walk(
        self, monkeypatch, capsys, call, lattice_walks, insertion_walks
    ):
        walks = {"lattice": [], "insertion": []}
        lattice, insertion = chaineff.poset._ideal_layers, chaineff.poset._prefix_dp

        def counted_lattice(p, *args, **kwargs):
            walks["lattice"].append(p.n)
            return lattice(p, *args, **kwargs)

        def counted_insertion(nx, *args, **kwargs):
            walks["insertion"].append(nx)
            return insertion(nx, *args, **kwargs)

        monkeypatch.setattr(chaineff.poset, "_ideal_layers", counted_lattice)
        monkeypatch.setattr(chaineff.poset, "_prefix_dp", counted_insertion)
        assert call()
        capsys.readouterr()
        assert walks == {"lattice": lattice_walks, "insertion": insertion_walks}

    @pytest.mark.parametrize("seed", range(12))
    def test_limbs_match_object_kernel_on_posets(self, seed):
        # sparse random orders on up to 20 elements, so some counts pass 2^32
        rng = random.Random(1300 + seed)
        n, density = rng.randint(1, 20), rng.choice([0.05, 0.1, 0.3])
        p = Poset(n, [(i, j) for j in range(n) for i in range(j) if rng.random() < density])
        layers = [layer for layer, _, _ in _ideal_layers(p, DEFAULT_MEMORY_BUDGET)]
        assert count_linear_extensions(p, "ideal-dp") == object_layer_chains(layers)

    @pytest.mark.parametrize(
        "seed, keep, with_empty",
        [pytest.param(seed, None, True, id=str(seed)) for seed in range(12)]
        + [pytest.param(seed, 0.35, True, id=f"sparse{seed}") for seed in (55, 56, 60)]
        + [pytest.param(12, None, False, id="no-empty-set")],
    )
    def test_limbs_match_object_kernel_on_systems(self, seed, keep, with_empty):
        # dense random families on up to 14 elements, so some counts pass
        # 2^32; in the sparse ones 15-43% of the members, and in the last
        # every member, cannot be reached from the empty set
        rng = random.Random(1400 + seed)
        n = rng.randint(4, 14)
        keep = keep or rng.choice([0.5, 0.99, 1.0])
        members = [0, (1 << n) - 1] + [s for s in range(1 << n) if rng.random() < keep]
        a = SetSystem(n, members if with_empty else members[1:])
        assert count_maximal_chains(a) == object_layer_chains(system_layers(a))

    @pytest.mark.parametrize("t, k", [(11, 3), (8, 8)], ids=["tower11x3", "tower8x8"])
    def test_counts_across_limb_boundaries(self, t, k):
        # (11!)^3 ~ 2^76 and (8!)^8 ~ 2^122 need three and four limbs;
        # tower:8:8 has 64 elements, so bit 63 is some member's lowest bit
        a = tower_of_cubes(t, k)
        chains = count_maximal_chains(a)
        assert chains == factorial(t) ** k == object_layer_chains(system_layers(a))
        assert type(chains) is int

    def test_empty_middle_layer_has_no_chains(self):
        a = SetSystem(6, [s for s in range(1 << 6) if bin(s).count("1") != 3])
        assert count_maximal_chains(a) == 0 == object_layer_chains(system_layers(a))

    @pytest.mark.parametrize("method", ["lattice", "ideal-dp"])
    def test_budget_is_the_ideal_count(self, method):
        # bucket:13:2 has alpha = 2^14 - 1 = 16,383 ideals
        p = make_bucket_order(13, 2)
        count = count_ideals if method == "lattice" else count_linear_extensions
        count(p, method, memory_budget=16383)
        with pytest.raises(ResourceLimit):
            count(p, method, memory_budget=16382)
        assert len(enumerate_ideals(p, memory_budget=16383)) == 16383
        with pytest.raises(ResourceLimit):
            enumerate_ideals(p, memory_budget=16382)

    def test_next_layer_refused_before_its_edges(self):
        # 64 incomparable elements: layers of C(64, k) ideals, each with k
        # parents, so the bound E / (k + 1) on the next layer is exact.  Up
        # to layer 2 there are 2,081 ideals, and layer 3 holds 41,664 with
        # 124,992 edges into it.
        p = make_antichain(64)
        with pytest.raises(ResourceLimit, match="43745 ideals and at least 635376 in the next"):
            count_ideals(p, memory_budget=2081 + 41664)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimit, match="at least 41664 in the next layer"):
                count_ideals(p, memory_budget=2081 + 41663)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 124992 * 8

    def test_edges_past_physical_memory_are_refused(self, monkeypatch):
        # the same layer 3 under the default budget, on a machine whose
        # memory holds one edge fewer than its 124,992 edges need
        p = make_antichain(64)
        monkeypatch.setattr(
            chaineff.poset, "physical_bytes", lambda: chaineff.poset._EDGE_BYTES * 124991
        )
        tracemalloc.start()
        try:
            refusal = r"by 124992 edges\) needs 4999680 bytes, over physical memory"
            with pytest.raises(ResourceLimit, match=refusal):
                count_ideals(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 124992 * 8


class TestDefaultMethods:
    """The default ideal kernel for a circulant is the cheaper estimate."""

    @pytest.mark.parametrize(
        "poset,method",
        [
            (lambda: make_matching_complement(12), "bipartite-sum"),
            (lambda: make_circulant(18, (0, 1, 3, 6)), "circulant-transfer"),
            (lambda: make_circulant(24, (0, 5, 10, 13)), "bipartite-sum"),
            (lambda: make_circulant(29, (0, 1, 3, 6, 10, 15)), "bipartite-sum"),
            (lambda: make_circulant(5, (0,)), "circulant-transfer"),
            (lambda: make_circulant(15, (0, 2, 6)), "circulant-transfer"),
        ],
        ids=["matchcomp12", "m18w6", "m24w13", "m29w15", "m5w0", "m15w6"],
    )
    def test_circulant_ideal_method(self, poset, method):
        assert default_count_methods(poset())[0] == method

    def test_general_poset_uses_lattice(self):
        assert default_count_methods(make_chain(4)) == ("lattice", "ideal-dp")

    @pytest.mark.parametrize(
        "poset",
        [
            lambda: make_matching_complement(12),
            lambda: make_circulant(18, (0, 1, 3, 6)),
            lambda: make_circulant(22, (0, 2)),
            lambda: make_circulant(29, (0, 1, 3, 6, 10, 15)),
        ],
        ids=["matchcomp12", "m18", "m22", "m29"],
    )
    def test_circulant_extensions_use_orbit(self, poset):
        assert default_count_methods(poset())[1] == "orbit"


class TestExtensionCounting:
    @pytest.mark.parametrize("seed", range(15))
    def test_ideal_dp_matches_brute(self, seed):
        p = random_poset(random.Random(200 + seed), 7)
        assert count_linear_extensions(p, "ideal-dp") == brute_extensions(p)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_bipartite_methods_agree(self, m):
        p = make_matching_complement(m)
        ref = count_linear_extensions(p, "brute")
        for meth in list(EXTENSION_METHODS)[1:]:
            assert count_linear_extensions(p, meth) == ref

    @pytest.mark.parametrize(
        "m,offsets",
        [
            (7, (0, 1, 3)),
            (9, (0, 1, 3)),
            (11, (0, 1, 3)),
            (6, (0, 2)),
            (10, (0, 1, 4, 7)),
            (13, (0, 3)),
            # D is invariant under a rotation by m / |D|, so many sets S
            # are too, and their rotation classes hold fewer than m sets
            (12, (0, 4, 8)),
            (6, (0, 3)),
            (8, (0, 2, 4, 6)),
        ],
    )
    def test_circulant_methods_agree(self, m, offsets):
        p = make_circulant(m, offsets)
        a = count_linear_extensions(p, "ideal-dp")
        b = count_linear_extensions(p, "bipartite-fst")
        c = count_linear_extensions(p, "orbit")
        assert a == b == c


class TestPrefixKernel:
    """bipartite-fst and orbit share one insertion kernel; checked against
    the dict F(S, t) DP, brute force and the ideal DP, and at their budgets."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_bipartite_matches_oracles(self, seed):
        # |X| != |Y|, and isolated elements at density 0.25
        rng = random.Random(700 + seed)
        nx = rng.randint(1, 6)
        ny = rng.choice([k for k in range(0, 6) if k != nx and 1 <= nx + k <= 10])
        p = random_bipartite(rng, nx, ny, density=0.25)
        value = count_linear_extensions(p, "bipartite-fst")
        assert value == dict_fst(p) == brute_extensions(p)

    @pytest.mark.parametrize("nx,ny", [(9, 4), (4, 9), (11, 7)])
    def test_unequal_sides_match_dict_dp(self, nx, ny):
        p = random_bipartite(random.Random(nx * 100 + ny), nx, ny, density=0.3)
        value = count_linear_extensions(p, "bipartite-fst")
        assert value == dict_fst(p) == count_linear_extensions(p, "ideal-dp")

    def test_isolated_elements(self):
        # 0 and 5 are isolated; 4 has one neighbour
        p = Poset(7, [(1, 3), (2, 3), (2, 4), (6, 3)])
        assert count_linear_extensions(p, "bipartite-fst") == dict_fst(p) == brute_extensions(p)

    @pytest.mark.parametrize("n", [1, 5, 9])
    def test_antichain_has_no_upper_side(self, n):
        p = make_antichain(n)
        assert count_linear_extensions(p, "bipartite-fst") == dict_fst(p) == factorial(n)

    def test_fst_budget_is_the_subset_count(self):
        p = make_circulant(7, (0, 1, 3))
        lam = count_linear_extensions(p, "ideal-dp")
        assert count_linear_extensions(p, "bipartite-fst", memory_budget=2**7) == lam
        with pytest.raises(ResourceLimit, match=r"2\^7 subset table"):
            count_linear_extensions(p, "bipartite-fst", memory_budget=2**7 - 1)

    @pytest.mark.parametrize("m,offsets", [(8, (0, 1, 3)), (11, (0, 2, 5))])
    def test_orbit_budget_is_two_layers_of_classes(self, m, offsets):
        p = make_circulant(m, offsets)
        classes = [rotation_classes(m, k) for k in range(m + 1)]
        need = max(a + b for a, b in zip(classes, classes[1:]))
        lam = count_linear_extensions(p, "ideal-dp")
        assert count_linear_extensions(p, "orbit", memory_budget=need) == lam
        with pytest.raises(ResourceLimit, match="orbit layer"):
            count_linear_extensions(p, "orbit", memory_budget=need - 1)

    @settings(max_examples=60)
    @given(st.data())
    def test_circulant_kernels_agree_property(self, data):
        m = data.draw(st.integers(min_value=1, max_value=13))
        offsets = data.draw(st.sets(st.integers(min_value=0, max_value=m - 1), min_size=1))
        p = make_circulant(m, offsets)
        counts = {count_linear_extensions(p, meth) for meth in ["orbit", "bipartite-fst", "ideal-dp"]}
        assert len(counts) == 1

    @pytest.mark.parametrize("m,offsets,bits", [(13, (0, 3), 72), (14, (0, 1, 3, 5), 77)])
    def test_counts_carry_past_two_limbs(self, m, offsets, bits):
        p = make_circulant(m, offsets)
        lam = count_linear_extensions(p, "orbit")
        assert lam.bit_length() == bits
        assert lam == count_linear_extensions(p, "bipartite-fst") == count_linear_extensions(p, "ideal-dp")

    @pytest.mark.parametrize("method", ["orbit", "bipartite-fst"])
    def test_no_column_outgrows_its_limbs(self, monkeypatch, method):
        # each layer carries its one column of H once, after the factor
        # N - |S| and before the division, and that product stays under the
        # bound that fixes the layer's limbs, so no carry leaves the top limb
        real, grew = chaineff.poset._carry, []

        def watch(limbs):
            out = real(limbs)
            grew.append(out is not limbs)
            return out

        monkeypatch.setattr(chaineff.poset, "_carry", watch)
        cases = [(13, (0, 3)), (12, (0, 4, 8)), (9, (0, 1, 3)), (7, (0, 1, 2, 3, 4, 5, 6))]
        for m, offsets in cases:
            count_linear_extensions(make_circulant(m, offsets), method)
        assert len(grew) == sum(m for m, _ in cases) and not any(grew)

    @pytest.mark.parametrize("block", [1, 7, 40, 333])
    @pytest.mark.parametrize("method", ["orbit", "bipartite-fst"])
    def test_count_does_not_depend_on_the_block(self, monkeypatch, method, block):
        # a block of a few edges, or of one child past its share
        p = make_circulant(11, (0, 2, 5))
        lam = count_linear_extensions(p, method)
        monkeypatch.setattr(chaineff.poset, "_BLOCK_ENTRIES", block)
        assert count_linear_extensions(p, method) == lam

    @pytest.mark.parametrize("seed", range(20))
    def test_edge_blocks_tile_the_children(self, seed):
        rng = random.Random(900 + seed)
        counts = [rng.randint(1, 9) for _ in range(rng.randint(1, 40))]
        bounds = np.concatenate([[0], np.cumsum(counts)])
        step = rng.randint(1, 30)
        blocks = list(chaineff.poset._edge_blocks(bounds, step))
        assert [lo for lo, _ in blocks] == [0] + [hi for _, hi in blocks[:-1]]
        assert blocks[-1][1] == len(counts)
        for lo, hi in blocks:
            # at most step edges unless it is one child, and the next child
            # would pass step
            assert bounds[hi] - bounds[lo] <= step or hi == lo + 1
            assert hi == len(counts) or bounds[hi + 1] - bounds[lo] > step

    def test_orbit_peak_is_a_few_blocks(self):
        # two layers of limbs and one block's gather
        p = make_circulant(20, (0, 1, 3, 6, 10))
        tracemalloc.start()
        try:
            lam = count_linear_extensions(p, "orbit")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert lam == 130202384885441894899799578414153728000
        assert peak <= 16_000_000

    @pytest.mark.parametrize(
        "method,layer_edges",
        [
            ("orbit", lambda: [k * rotation_classes(11, k) for k in range(1, 12)]),
            ("bipartite-fst", lambda: [k * math.comb(11, k) for k in range(1, 12)]),
        ],
    )
    def test_edges_past_physical_memory_are_refused(self, monkeypatch, method, layer_edges):
        # every layer's down edges are charged before they are built, and its
        # limbs before they are summed; on a machine whose memory holds the
        # largest charge the count runs, and one byte fewer is refused
        p = make_circulant(11, (0, 2, 5))
        lam = count_linear_extensions(p, "ideal-dp")
        charges = byte_charges(monkeypatch, lambda: count_linear_extensions(p, method))
        edges = [int(what.split("(")[1].split()[0]) for what, _ in charges if "edges" in what]
        assert edges == layer_edges()[::-1]
        most = max(nbytes for _, nbytes in charges)
        monkeypatch.setattr(chaineff.poset, "physical_bytes", lambda: most)
        assert count_linear_extensions(p, method) == lam
        monkeypatch.setattr(chaineff.poset, "physical_bytes", lambda: most - 1)
        refusal = rf"^{method} layer.* needs {most} bytes, over physical memory$"
        with pytest.raises(ResourceLimit, match=refusal):
            count_linear_extensions(p, method)

    def test_layer_limbs_past_physical_memory_are_refused(self, monkeypatch):
        # circulant:22:0 charges at most 15.4 MB for a layer's edges and
        # 14.4 MB for its limbs; the limbs of the layer of 12 elements
        # (13.1 MB) pass 13 MB before any edges do
        monkeypatch.setattr(chaineff.poset, "physical_bytes", lambda: 13_000_000)
        refusal = r"^orbit layer needs \d+ bytes, over physical memory$"
        with pytest.raises(ResourceLimit, match=refusal):
            count_linear_extensions(make_circulant(22, (0,)), "orbit")

    @pytest.mark.parametrize("m,offsets", [(20, (0,)), (22, (0,)), (22, (0, 1, 2, 4, 9))])
    def test_peak_is_within_the_largest_charge(self, monkeypatch, m, offsets):
        p = make_circulant(m, offsets)
        tracemalloc.start()
        try:
            charges = byte_charges(monkeypatch, lambda: count_linear_extensions(p, "orbit"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * max(nbytes for _, nbytes in charges)

    def test_fst_rejects_height_three(self):
        with pytest.raises(MethodMismatch, match="not bipartite"):
            count_linear_extensions(make_bucket_order(2, 3), "bipartite-fst")

    @pytest.mark.parametrize(
        "count,method,text",
        [
            (count_ideals, "circulant-transfer", "circulant-transfer needs"),
            (count_linear_extensions, "orbit", "orbit method needs"),
            (count_ideals, "nope", "unknown ideal-counting method 'nope'"),
            (count_linear_extensions, "nope", "unknown extension-counting method 'nope'"),
        ],
    )
    def test_method_mismatch_messages(self, count, method, text):
        with pytest.raises(MethodMismatch, match=text):
            count(make_chain(4), method)


def lower_part(p):
    """P' = p less its maximal elements, relabelled in order, as a Poset of
    at least one element, and its element count (0 for an antichain)."""
    rest = [v for v in range(p.n) if p.succ_mask[v]]
    at = {v: i for i, v in enumerate(rest)}
    covers = [(at[u], at[v]) for u, v in p.covers if u in at and v in at]
    return Poset(max(1, len(rest)), covers), len(rest)


class TestInsertion:
    """(alpha, lambda) of any poset from the ideals of P' = P - Y, its
    maximal elements Y inserted, against the walk of J(P), brute force and
    the closed forms."""

    @settings(max_examples=150)
    @given(posets(max_n=14))
    def test_matches_lattice_and_ideal_dp_property(self, p):
        alpha, lam = count_by_insertion(p)
        assert alpha == count_ideals(p, "lattice")
        assert lam == count_linear_extensions(p, "ideal-dp")
        if p.n <= 8:
            assert lam == count_linear_extensions(p, "brute")
            assert alpha == brute_ideals(p)

    @settings(max_examples=60)
    @given(st.integers(1, 8), st.integers(0, 8), st.floats(0, 1), st.randoms(use_true_random=False))
    def test_bipartite_matches_oracles_property(self, nx, ny, density, rng):
        # |X| != |Y| and isolated elements, which land in Y
        p = random_bipartite(rng, nx, ny, density)
        alpha, lam = count_by_insertion(p)
        assert alpha == count_ideals(p, "lattice") == count_ideals(p, "bipartite-sum")
        assert lam == count_linear_extensions(p, "ideal-dp")
        assert lam == count_linear_extensions(p, "bipartite-fst")
        if p.n <= 8:
            assert (alpha, lam) == (brute_ideals(p), brute_extensions(p))

    @pytest.mark.parametrize("n", [1, 2, 7, 20, 64])
    def test_antichain_has_no_lower_part(self, n):
        # P' is empty: alpha = 2^n, past uint64 at n = 64, and lambda = n!
        assert count_by_insertion(make_antichain(n)) == (1 << n, factorial(n))

    @pytest.mark.parametrize("n", [1, 2, 9, 64])
    def test_chain(self, n):
        assert count_by_insertion(make_chain(n)) == (n + 1, 1)

    @pytest.mark.parametrize("t,k", [(1, 5), (3, 3), (13, 2), (4, 4), (10, 4)])
    def test_bucket_orders(self, t, k):
        # a bucket order has (2^t - 1) k + 1 ideals and (t!)^k extensions
        assert count_by_insertion(make_bucket_order(t, k)) == ((2**t - 1) * k + 1, factorial(t) ** k)

    def test_isolated_elements_and_a_dummy_chain(self):
        # 0 and 5 are isolated, 6 < 7 < 8 is a chain of height three
        p = Poset(9, [(1, 3), (2, 3), (2, 4), (6, 7), (7, 8)])
        assert count_by_insertion(p) == (brute_ideals(p), brute_extensions(p))

    def test_counterexample(self):
        p = make_counterexample()
        assert count_by_insertion(p) == (260553, 131576429145341435860520294400)
        assert lower_part(p)[1] == 18

    @pytest.mark.parametrize("m,offsets", [(7, (0, 1, 3)), (10, (0, 1, 4, 7)), (12, (0, 4, 8))])
    def test_circulants_match_every_method(self, m, offsets):
        p = make_circulant(m, offsets)
        alpha, lam = count_by_insertion(p)
        assert alpha == count_ideals(p, "bipartite-sum") == count_ideals(p, "circulant-transfer")
        assert lam == count_linear_extensions(p, "orbit") == count_linear_extensions(p, "ideal-dp")

    @pytest.mark.parametrize(
        "poset",
        [make_counterexample, lambda: make_bucket_order(13, 2), lambda: make_circulant(9, (0, 2))],
        ids=["counterexample", "bucket13x2", "circulant9"],
    )
    def test_budget_is_two_layers_of_lower_ideals(self, poset):
        p = poset()
        lower, nx = lower_part(p)
        sizes = np.bincount(np.bitwise_count(np.array(enumerate_ideals(lower), dtype=np.uint64)))
        need = max(int(a + b) for a, b in zip(sizes[: nx + 1], sizes[1 : nx + 1]))
        counts = count_by_insertion(p)
        assert count_by_insertion(p, memory_budget=need) == counts
        with pytest.raises(ResourceLimit, match=rf"^insertion layer needs {need} resident"):
            count_by_insertion(p, memory_budget=need - 1)

    def test_a_wrong_count_trips_the_remainder_check(self, monkeypatch):
        # F(P') = |Y|! + 1 is no count of extensions, and some division by
        # D(I) leaves a remainder
        monkeypatch.setattr(chaineff.poset, "factorial", lambda k: factorial(k) + 1)
        with pytest.raises(RuntimeError, match="not a multiple of D"):
            count_by_insertion(make_counterexample())


def test_runs_without_scipy(monkeypatch):
    """Every counting method works, from a fresh import, when scipy is absent."""
    monkeypatch.setitem(sys.modules, "scipy", None)
    for name in [k for k in sys.modules if k == "chaineff" or k.startswith("chaineff.")]:
        monkeypatch.delitem(sys.modules, name)
    poset = importlib.import_module("chaineff.poset")
    # w = 10 is past the width below which the old transfer kernel avoided scipy.
    wide = poset.make_circulant(12, (0, 1, 10))
    ideals = {poset.count_ideals(wide, meth) for meth in poset.IDEAL_METHODS}
    small = poset.make_circulant(4, (0, 1, 3))
    extensions = {
        poset.count_linear_extensions(small, meth) for meth in poset.EXTENSION_METHODS
    }
    assert len(ideals) == 1 and len(extensions) == 1


class TestMatchingComplement:
    @pytest.mark.parametrize("m", range(2, 8))
    def test_closed_forms(self, m):
        alpha, lam = closed_form_matching_complement(m)
        p = make_matching_complement(m)
        from math import factorial

        assert alpha == 2 ** (m + 1) + m - 1
        assert lam == factorial(m - 1) * factorial(m) * (m + 1)
        assert count_ideals(p, "lattice") == alpha
        ref = (
            count_linear_extensions(p, "brute")
            if 2 * m <= 10
            else count_linear_extensions(p, "ideal-dp")
        )
        assert lam == ref

    def test_m13_efficiency(self):
        alpha, lam = closed_form_matching_complement(13)
        report = poset_efficiency(make_matching_complement(13), alpha=alpha, lam=lam)
        assert abs(report.inv_eta_float - 3.9161) < 0.0005


class TestCounterexample:
    def test_shape(self):
        p = make_counterexample()
        assert p.n == 34


class TestEfficiencyBridge:
    def test_inv_eta_on_small_circulant(self):
        p = make_circulant(5, (0, 1))
        report = poset_efficiency(p)
        # definition cross-check: (alpha^2 * n! / lambda)^(1/n)
        import math

        alpha = count_ideals(p)
        lam = count_linear_extensions(p)
        expect = (alpha**2 * math.factorial(p.n) / lam) ** (1 / p.n)
        assert abs(report.inv_eta_float - expect) < 1e-9
