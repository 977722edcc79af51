"""Posets, constructions, and exact counting of ideals and linear extensions.

Elements are integers 0..n-1 and subsets are machine-word bitmasks, so n
is capped at 64.  Several independent counting algorithms are provided;
tests require them to agree bit-for-bit wherever more than one applies.
"""

from __future__ import annotations

import os
from itertools import permutations
from math import factorial

import numpy as np

from .efficiency import EfficiencyReport, make_report
from .errors import (
    InvalidInstance,
    InvalidOffset,
    InvalidSize,
    MethodMismatch,
    ResourceLimit,
)

MAX_ELEMENTS = 64

#: Default cap on resident DP entries / enumerated ideals.
DEFAULT_MEMORY_BUDGET = 1 << 28


def physical_bytes() -> int:
    """The machine's physical memory in bytes."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


class Poset:
    """Partial order given by its cover relation (a Hasse-diagram DAG)."""

    def __init__(self, n: int, covers):
        if not 1 <= n <= MAX_ELEMENTS:
            raise InvalidSize(f"element count must be in [1, {MAX_ELEMENTS}]")
        covers = tuple(sorted({(int(u), int(v)) for u, v in covers}))
        for u, v in covers:
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise InvalidInstance(f"bad cover pair ({u}, {v})")
        self.n = n
        self.covers = covers
        self._build_masks()

    def _build_masks(self):
        n = self.n
        up = [0] * n  # direct cover successors
        down = [0] * n
        for u, v in self.covers:
            up[u] |= 1 << v
            down[v] |= 1 << u
        # Longest-path layering doubles as the cycle check.
        indeg = [bin(down[v]).count("1") for v in range(n)]
        order = [v for v in range(n) if indeg[v] == 0]
        seen = 0
        succ = [0] * n
        for v in order:
            seen += 1
            m = up[v]
            while m:
                w = (m & -m).bit_length() - 1
                m &= m - 1
                indeg[w] -= 1
                if indeg[w] == 0:
                    order.append(w)
        if seen != n:
            raise InvalidInstance("cover relation contains a cycle")
        for v in reversed(order):
            m = up[v]
            s = m
            while m:
                w = (m & -m).bit_length() - 1
                m &= m - 1
                s |= succ[w]
            succ[v] = s
        pred = [0] * n
        for v in range(n):
            m = succ[v]
            while m:
                w = (m & -m).bit_length() - 1
                m &= m - 1
                pred[w] |= 1 << v
        self.succ_mask = tuple(succ)  # strict successors in the closure
        self.pred_mask = tuple(pred)  # strict predecessors in the closure
        self.cover_up = tuple(up)
        self.cover_down = tuple(down)

    def __eq__(self, other):
        return isinstance(other, Poset) and (self.n, self.covers) == (other.n, other.covers)

    def __hash__(self):
        return hash((self.n, self.covers))

    def __repr__(self):
        return f"Poset(n={self.n}, covers={len(self.covers)})"

    def bipartition(self):
        """(X, Y) with all covers from X to Y, or MethodMismatch.

        X is the set of minimal elements; isolated elements land in X.
        """
        n = self.n
        x_side = [v for v in range(n) if self.pred_mask[v] == 0]
        in_x = set(x_side)
        for u, v in self.covers:
            if u not in in_x or v in in_x:
                raise MethodMismatch("poset is not bipartite (height > 2)")
        y_side = [v for v in range(n) if v not in in_x]
        return x_side, y_side


class CirculantBipartitePoset(Poset):
    """Bipartite poset on parts of size m with (x_i, y_j) iff (i-j) mod m in D.

    Elements 0..m-1 are x_0..x_{m-1}; elements m..2m-1 are y_0..y_{m-1}.
    """

    def __init__(self, m: int, offsets):
        if 2 * m > MAX_ELEMENTS:  # before offsets, which may be range(1, m)
            raise InvalidSize(f"2m = {2 * m} exceeds {MAX_ELEMENTS} elements")
        offsets = frozenset(int(d) for d in offsets)
        if not offsets:
            raise InvalidOffset("offset set must be nonempty")
        if any(d < 0 or d >= m for d in offsets):
            raise InvalidOffset(f"offsets must lie in [0, {m})")
        covers = [
            (i, m + j)
            for i in range(m)
            for j in range(m)
            if (i - j) % m in offsets
        ]
        super().__init__(2 * m, covers)
        self.m = m
        self.offsets = offsets

    def __repr__(self):
        return f"CirculantBipartitePoset(m={self.m}, D={sorted(self.offsets)})"


def make_circulant(m: int, offsets) -> CirculantBipartitePoset:
    return CirculantBipartitePoset(m, offsets)


def make_matching_complement(m: int) -> CirculantBipartitePoset:
    """Complete bipartite order on two m-sets minus a perfect matching."""
    if m < 2:
        raise InvalidSize("matching complement needs m >= 2")
    return make_circulant(m, range(1, m))


def make_counterexample() -> Poset:
    """34-element poset whose ideal family beats the tower of 17-cubes.

    Base part: circulant m=16, D={0,...,6}; plus dummy elements d_0=32,
    d_1=33 with extra covers (x_0, y_8), (y_8, d_0), (y_15, d_1).
    """
    m = 16
    base = [(i, m + j) for i in range(m) for j in range(m) if (i - j) % m in range(7)]
    extra = [(0, m + 8), (m + 8, 32), (m + 15, 33)]
    return Poset(34, base + extra)


def make_bucket_order(t: int, k: int) -> Poset:
    """k consecutive buckets of size t; everything in bucket i precedes bucket i+1."""
    if t < 1 or k < 1:
        raise InvalidSize("bucket order needs t, k >= 1")
    if t * k > MAX_ELEMENTS:
        raise InvalidSize(f"{t * k} elements exceeds {MAX_ELEMENTS}")
    covers = []
    for b in range(k - 1):
        for u in range(b * t, (b + 1) * t):
            for v in range((b + 1) * t, (b + 2) * t):
                covers.append((u, v))
    return Poset(t * k, covers)


def make_chain(n: int) -> Poset:
    return Poset(n, [(i, i + 1) for i in range(n - 1)])


def make_antichain(n: int) -> Poset:
    return Poset(n, [])


# ---------------------------------------------------------------------------
# Ideal enumeration and counting


#: Bytes per Hasse edge that ``_extend_ideals`` holds at once: five int64 arrays.
_EDGE_BYTES = 40


def _ideal_layers(p: Poset, memory_budget: int, with_edges: bool = True):
    """The ideals of p, one popcount layer at a time, with their Hasse edges.

    Yields (layer, src, starts): the layer as sorted uint64 masks, and the
    edges into it from the layer before as ``_extend_ideals`` returns them
    (both empty for the layer {0}, None without ``with_edges``).  The
    ideals so far are checked against the budget.  The E edges out of layer
    k are counted before they are built, and an ideal of k + 1 elements has
    at most k + 1 parents, so the build is refused when the ideals so far
    and E / (k + 1) pass the budget, or when the edges pass physical memory.
    """
    pred = np.array(p.pred_mask, dtype=np.uint64)
    bits = np.uint64(1) << np.arange(p.n, dtype=np.uint64)
    layer = np.zeros(1, dtype=np.uint64)
    src = starts = np.zeros(0, dtype=np.intp) if with_edges else None
    total = 0
    for k in range(p.n + 1):
        total += layer.size
        if total > memory_budget:
            raise ResourceLimit(f"ideal lattice exceeds budget of {memory_budget} entries")
        yield layer, src, starts
        edges = sum(int(np.count_nonzero(_fits(layer, pv, bv))) for pv, bv in zip(pred, bits))
        if not edges:
            return
        least = -(-edges // (k + 1))
        if total + least > memory_budget:
            raise ResourceLimit(
                f"ideal lattice exceeds budget of {memory_budget} entries:"
                f" {total} ideals and at least {least} in the next layer"
            )
        if _EDGE_BYTES * edges > physical_bytes():
            raise ResourceLimit(f"ideal lattice: {edges} next-layer edges pass physical memory")
        layer, src, starts = _extend_ideals(layer, pred, bits, with_edges)


def _fits(layer, pv, bv):
    """Which ideals of ``layer`` lack element ``bv`` and hold its predecessors ``pv``."""
    return (layer & (pv | bv)) == pv


def _extend_ideals(layer, pred, bits, with_edges):
    """The ideals one element larger than those of ``layer``, and the edges
    into them: (next layer, src, starts), or (next layer, None, None)
    without ``with_edges``.

    An ideal I extends by each v outside it whose predecessors it holds,
    I & (pred[v] | v) == pred[v].  The children I | v of one v form a sorted
    run, since OR-ing a bit into sorted masks that lack it keeps their
    order, so the stable argsort of ``_merge_children`` merges the n runs
    cheaply.
    """
    ok = [np.flatnonzero(_fits(layer, pv, bv)) for pv, bv in zip(pred, bits)]
    cand = np.concatenate([layer[at] | bv for at, bv in zip(ok, bits)])
    if not with_edges:
        return sorted_unique(cand), None, None
    return _merge_children(cand, ok)


def _merge_children(cand, ok):
    """(layer, src, starts) of the children ``cand``, one run per bit, whose
    parents' indices are the runs of ``ok``: the distinct children sorted,
    the index of each edge's parent with the edges ordered by child (by
    bit within a child), and the first edge into each child.  ``cand`` is
    sorted in place, so the caller's reference holds no second copy."""
    order = np.argsort(cand, kind="stable")
    cand[:] = cand[order]
    first = np.ones(cand.size, dtype=bool)
    first[1:] = cand[1:] != cand[:-1]
    return cand[first], np.concatenate(ok)[order], np.flatnonzero(first)


def sorted_unique(cand):
    """The distinct values of ``cand``, sorted (``cand`` is sorted in place)."""
    cand.sort()
    first = np.ones(cand.size, dtype=bool)
    first[1:] = cand[1:] != cand[:-1]
    return cand[first]


def family_layers(family, n: int):
    """The members of ``family`` reachable from the empty set, one popcount
    layer at a time, with the Hasse edges into each layer.

    ``family`` holds distinct uint64 masks over n elements, sorted by
    (popcount, value).  Yields n + 1 tuples (layer, src, starts) in the
    format of ``_ideal_layers``, the edges into a child ordered by element;
    every layer after an empty one is empty.  A member of k elements has k
    candidate parents, one per peeled low bit, looked up in the layer below
    one peel row at a time, where the queries are nearly sorted.  An edge's
    element is not stored: it is bitwise_count((child ^ parent) - 1).
    """
    ends = np.searchsorted(np.bitwise_count(family), np.arange(n + 2)).tolist()
    layer = family[: ends[1]]
    src = starts = np.zeros(0, dtype=np.intp)
    yield layer, src, starts
    for k in range(1, n + 1):
        cand = family[ends[k] : ends[k + 1]] if layer.size else family[:0]
        layer, src, starts = _edges_into(cand, k, layer)
        yield layer, src, starts


#: Candidate parents searched at once: about 3 MB of working arrays, and on
#: tower:17:2 as fast as one search per layer with 13 MB less peak RSS.
_PEEL_ENTRIES = 1 << 17


def _edges_into(cand, k, below):
    """(layer, src, starts) of the members of ``cand``, sorted masks of k
    elements, that have a parent in ``below``, in blocks of candidates."""
    srcs, counts = [], []
    step = _PEEL_ENTRIES // k
    for lo in range(0, max(cand.size, 1), step):
        block = cand[lo : lo + step]
        # row j first holds each candidate less its j + 1 lowest bits; the
        # xor with row j - 1 and the candidate leaves only the (j + 1)-th out
        parents = np.empty((k, block.size), dtype=np.uint64)
        rest = block
        for row in parents:
            np.bitwise_and(rest, rest - 1, out=row)
            rest = row
        parents[1:] ^= parents[:-1] ^ block
        at = below.searchsorted(parents)
        hit = below.take(at, mode="clip") == parents
        # the hits in (candidate, row) order, which is child then element
        srcs.append(at.T[hit.T])
        counts.append(hit.sum(axis=0))
    counts = np.concatenate(counts)
    kept = counts > 0
    return cand[kept], np.concatenate(srcs), (np.add.accumulate(counts) - counts)[kept]


def fan_out(lo, counts):
    """(rows, opens): the ranges lo[i] .. lo[i] + counts[i] - 1 laid end to
    end, and where each range opens in them."""
    opens = np.add.accumulate(counts) - counts
    return np.arange(counts.sum()) - (opens - lo).repeat(counts), opens


#: Chain counts are held in base-2^32 limbs of uint64, so the sum of a
#: member's at most 64 parents' limbs stays below 2^38 and is exact.  Counts
#: reach 2^97 on the paper's families; a (limbs, members) array gains a row
#: only when a count outgrows the current ones.
_LIMB_BITS = 32
_LIMB_MASK = np.uint64((1 << _LIMB_BITS) - 1)


def _carry(limbs):
    """``limbs`` with every limb below 2^32, a top row added if it carries."""
    for low, high in zip(limbs[:-1], limbs[1:]):
        high += low >> np.uint64(_LIMB_BITS)
        low &= _LIMB_MASK
    top = limbs[-1] >> np.uint64(_LIMB_BITS)
    if not top.any():
        return limbs
    limbs[-1] &= _LIMB_MASK
    return np.vstack([limbs, top])


def _limbs_total(limbs) -> int:
    """The sum of the counts whose base-2^32 limbs are ``limbs``, a Python int."""
    return sum(sum(row.tolist()) << (_LIMB_BITS * l) for l, row in enumerate(limbs))


def count_layer_chains(layers):
    """(members, maximal chains) of the layers that ``_ideal_layers`` or
    ``family_layers`` yield, holding two layers at a time.

    A member of the first layer counts one chain, and a later member the
    sum of its parents' counts, by one ``reduceat`` along the edges per
    limb row; the chains, an exact Python int, end on the last layer.
    """
    layers = iter(layers)
    first = next(layers)[0]
    members, counts = first.size, np.ones((1, first.size), dtype=np.uint64)
    for layer, src, starts in layers:
        members += layer.size
        counts = _carry(np.vstack([np.add.reduceat(row[src], starts) for row in counts]))
    return members, _limbs_total(counts)


def enumerate_ideals(p: Poset, memory_budget: int = DEFAULT_MEMORY_BUDGET):
    """All ideals of p as bitmasks, sorted by (popcount, value)."""
    layers = _ideal_layers(p, memory_budget, with_edges=False)
    return np.concatenate([layer for layer, _, _ in layers]).tolist()


#: Entries in one block of an ideal kernel's working array (4 MB of
#: uint64): big enough to amortise numpy's per-call cost, small enough to
#: keep the kernels' memory flat.  On m = 25 circulants with max D = 12
#: (three offset sets, 2-core VM) the transfer trace measured fastest at
#: 2^18-2^19 (78-81 ms), 83-93 ms at 2^17 and 86-91 ms at 2^20; the
#: bipartite sum over distinct ORs took 33-42 ms from 2^15 to 2^20 and
#: 55-65 ms at 2^21.  Each kernel peaks at about two blocks.  The F(S, t)
#: kernel gathers one block of limbs at a time; on circulant:22:0,1,2,4,9
#: orbit took 272-290 ms from 2^15 to 2^19 and 294-304 ms at 2^20-2^21.
_BLOCK_ENTRIES = 1 << 19


def _check_budget(kernel: str, entries: int, memory_budget: int) -> None:
    if entries > memory_budget:
        raise ResourceLimit(
            f"{kernel} needs {entries} resident entries, over the budget of {memory_budget}"
        )


def _neighbor_masks(side, other, adjacency):
    """Bitmask, over positions in ``other``, of each element's neighbours."""
    return [
        sum(1 << i for i, u in enumerate(other) if adjacency[v] >> u & 1) for v in side
    ]


def _subset_ors(masks):
    """The OR of every subset of ``masks``, indexed by the subset's bits."""
    ors = np.zeros(1, dtype=np.uint64)
    for nb in masks:
        ors = np.concatenate([ors, ors | np.uint64(nb)])
    return ors


def _or_closure_sum(neighbor_masks, other_side_size, memory_budget):
    """Sum over all subsets S of 2^(K - |union of neighbor masks over S|).

    The subsets split into a low and a high half, whose ORs are enumerated
    once each.  Many subsets of a half share an OR, so each half keeps its
    distinct ORs with their multiplicities.  Every block of distinct high
    ORs is merged with all the distinct low ORs into a histogram of union
    sizes, each pair weighted by the product of its two multiplicities,
    and one exact sum of hist[c] * 2^(K - c) finishes the count.  A bin
    holds at most 2^s <= 2^34 subsets, so the float64 weights and sums are
    exact.  The budget is charged for the blocks of all 2^s pairs, an
    upper bound on the distinct pairs' blocks.
    """
    s = len(neighbor_masks)
    k = other_side_size
    if s > 34:
        raise ResourceLimit(f"bipartite-sum side of {s} elements is too large")
    lo = s // 2
    rows = min(1 << (s - lo), max(1, _BLOCK_ENTRIES >> lo))
    _check_budget("bipartite-sum", (1 << lo) + (1 << (s - lo)) + (rows << lo), memory_budget)
    lo_ors, lo_mult = np.unique(_subset_ors(neighbor_masks[:lo]), return_counts=True)
    hi_ors, hi_mult = np.unique(_subset_ors(neighbor_masks[lo:]), return_counts=True)
    lo_mult, hi_mult = lo_mult.astype(np.float64), hi_mult.astype(np.float64)
    step = min(hi_ors.size, max(1, _BLOCK_ENTRIES // lo_ors.size))
    # a block's ORs are replaced by their sizes in place, read as int64
    merged = np.empty((step, lo_ors.size), dtype=np.uint64)
    weights = np.empty((step, lo_ors.size))
    hist = np.zeros(k + 1)
    for start in range(0, hi_ors.size, step):
        block = hi_ors[start : start + step, None]
        n = block.shape[0]
        np.bitwise_or(block, lo_ors, out=merged[:n])
        sizes = np.bitwise_count(merged[:n], out=merged[:n]).view(np.int64)
        np.multiply(hi_mult[start : start + n, None], lo_mult, out=weights[:n])
        hist += np.bincount(sizes.ravel(), weights[:n].ravel(), minlength=k + 1)
    return sum(int(count) << (k - c) for c, count in enumerate(hist.tolist()))


def _count_ideals_bipartite_sum(p: Poset, memory_budget: int) -> int:
    x_side, y_side = p.bipartition()
    # Iterate over the smaller side; the formula is symmetric: fixing the
    # chosen side's ideal part forces nothing, fixing the co-ideal part of
    # X (equivalently the ideal part of Y) leaves the rest free.
    if len(x_side) <= len(y_side):
        # sum over X' subseteq X of 2^{|Y \ N(X')|}
        masks = _neighbor_masks(x_side, y_side, p.cover_up)
        return _or_closure_sum(masks, len(y_side), memory_budget)
    # sum over Y' subseteq Y of 2^{|X| - |N(Y')|}: members of Y' force
    # their predecessors into the ideal, the remaining X part is free.
    masks = _neighbor_masks(y_side, x_side, p.cover_down)
    return _or_closure_sum(masks, len(x_side), memory_budget)


def _transfer_trace(p: CirculantBipartitePoset, memory_budget: int) -> int:
    """Ideal count of a circulant poset as the trace of a transfer matrix.

    State = membership bits of the last w = max(D) processed x-elements.
    Appending the next membership bit closes the window of one y, which
    contributes weight 2 when every x it needs is present and 1 otherwise.
    Cyclic closure = closed walks of length m, i.e. trace of M^m.

    Columns are a block of start states s0.  A closed walk from s0 appends
    m bits: the first m - w are free, and the last w must be s0's own bits,
    top bit first.  So a column's rows index only the free bits in the
    window, as a cube of shape (2,)*f + (columns,) with the oldest free bit
    on axis 0.  A step doubles the rows when a free bit enters, and halves
    them by one lo + hi add when a free bit leaves (every step after w).
    Rows peak at 2^min(w, m - w), and each column ends as one entry, its
    diagonal entry.

    The y closed at step t needs the bits appended at steps t - w + d for
    d in D, step j <= 0 being s0's bit -j and step j > m - w s0's bit m - j.
    Its weight-2 test is a strided sub-cube of the rows (the free bits it
    needs set) and a mask over s0 (s0's bits it needs set); the entries
    that pass count their walks twice.  Whether a step halves or doubles,
    its sub-cube and its s0 bits form a plan built once, before the
    blocks.  A block runs in two buffers of the peak size: a halving adds
    the hi half into the lo half in place, and a doubling copies the
    rows into both halves of the new axis in the other buffer.

    uint64 is exact: every entry is an entry of M^t, which sums at most
    2^max(0, t-w) walks of weight at most 2^t, so it is at most
    2^(2m-w) <= 2^63 as 2m <= 64, w >= 1.  The diagonal is summed as
    Python ints.
    """
    m, offsets = p.m, p.offsets
    w = max(offsets)
    if w == 0:
        return 3**m  # D = {0}: m disjoint covers x_i < y_i, 3 ideals each
    free = m - w
    peak_bits = min(w, free)  # a column holds at most 2^peak_bits rows
    cols = min(1 << w, max(1, _BLOCK_ENTRIES >> peak_bits))
    # one block is resident, but the charge is never below the 2^w start
    # states, so a w past the budget is refused before it runs
    _check_budget("circulant-transfer", max(cols << peak_bits, 1 << w), memory_budget)
    plan = []  # per step: (free bits held, halves, reads hi, sub-cube, s0's bits, doubles)
    held = 0
    for t in range(1, m + 1):
        first = max(1, t - w)  # the oldest free step in the window, on axis 0
        rows = [slice(None)] * held
        forced = 0
        for d in offsets:
            j = t - w + d
            if j < 1 or j > free:
                forced |= 1 << (-j if j < 1 else m - j)
            elif j < t:
                rows[j - first] = 1
        halves, doubles = t > w, t <= free
        reads_hi = halves and rows.pop(0) == 1
        plan.append((held, halves, reads_hi, tuple(rows), forced, doubles))
        held += doubles - halves
    cur, other = np.empty((2, cols << peak_bits), dtype=np.uint64)
    total = 0
    for start in range(0, 1 << w, cols):
        s0 = np.arange(start, min(start + cols, 1 << w), dtype=np.uint64)
        n = s0.size
        cur[:n] = 1
        for held, halves, reads_hi, rows, forced, doubles in plan:
            vec = src = cur[: n << held].reshape((2,) * held + (n,))
            if halves:  # the oldest free bit leaves: lo + hi, in place
                lo, hi = vec
                np.add(lo, hi, out=lo)
                vec, src = lo, hi if reads_hi else lo
            if doubles:  # a free bit enters; only its 1 rows gain
                grown = other[: 2 * vec.size].reshape(vec.shape[:-1] + (2, n))
                np.copyto(grown, vec[..., None, :])
                dst = grown[..., 1, :][rows]
                cur, other = other, cur
            else:  # s0's bit m - t enters; the mask already holds it
                dst = vec[rows]
            if forced:
                col = (s0 & np.uint64(forced)) == forced
                np.add(dst, src[rows], out=dst, where=col)
            else:
                np.add(dst, src[rows], out=dst)
        total += sum(cur[:n].tolist())
    return total


def _count_ideals_lattice(p: Poset, memory_budget: int) -> int:
    return sum(layer.size for layer, _, _ in _ideal_layers(p, memory_budget, with_edges=False))


def _circulant_only(name: str, kernel):
    """``kernel`` behind the check that the poset is a circulant."""

    def run(p: Poset, memory_budget: int) -> int:
        if not isinstance(p, CirculantBipartitePoset):
            raise MethodMismatch(f"{name} needs a CirculantBipartitePoset")
        return kernel(p, memory_budget)

    return run


#: Ideal-counting methods: name -> kernel(p, memory_budget).
IDEAL_METHODS = {
    "lattice": _count_ideals_lattice,
    "bipartite-sum": _count_ideals_bipartite_sum,
    "circulant-transfer": _circulant_only("circulant-transfer", _transfer_trace),
}


def count_ideals(
    p: Poset, method: str = "lattice", memory_budget: int = DEFAULT_MEMORY_BUDGET
) -> int:
    """Exact number of ideals (down-sets) of p."""
    if method not in IDEAL_METHODS:
        raise MethodMismatch(f"unknown ideal-counting method {method!r}")
    return IDEAL_METHODS[method](p, memory_budget)


# ---------------------------------------------------------------------------
# Linear extensions


def _count_extensions_brute(p: Poset, memory_budget: int) -> int:
    """Tests every permutation; capped at n = 10 rather than by the budget."""
    if p.n > 10:
        raise ResourceLimit("brute-force extension counting is capped at n = 10")
    n = p.n
    constraints = [(u, v) for u, v in p.covers]
    count = 0
    for sigma in permutations(range(n)):
        pos = [0] * n
        for i, v in enumerate(sigma):
            pos[v] = i
        if all(pos[u] < pos[v] for u, v in constraints):
            count += 1
    return count


def count_ideals_and_extensions(p: Poset, memory_budget: int = DEFAULT_MEMORY_BUDGET):
    """(alpha, lambda): the ideals of p and the maximal chains of their
    lattice, which are the linear extensions, from one walk of the lattice
    whose budget and refusals are those of ``lattice`` and ``ideal-dp``."""
    return count_layer_chains(_ideal_layers(p, memory_budget))


def _count_extensions_ideal_dp(p: Poset, memory_budget: int) -> int:
    return count_ideals_and_extensions(p, memory_budget)[1]


def _prefix_dp(nx: int, needs, canon, memory_budget: int, name: str) -> int:
    """Linear extensions of a bipartite poset by the F(S, t) recurrence.

    The lower side X has ``nx`` elements and each upper element y has the
    bitmask ``needs[y]`` of its predecessors in X.  F(S, t) counts the
    partial extensions whose first |S| + t positions hold exactly S from X
    and t of the e(S) elements of Y whose needs lie in S:
    F(S, t) = sum_{x not in S} F(S + x, t) + (e(S) - t) F(S, t + 1)
    for t <= e(S), and F(X, t) = (|Y| - t)!.  Returns F({}, 0).

    ``canon`` maps an array of masks to their class representatives, and F
    must be constant on each class: the identity keeps every set, a rotation
    keeps one per orbit, so a class holds at most nx sets.  Layers run by
    |S| descending with two resident, each class S holding
    H(S, t) = |class(S)| F(S, t).  Counting the pairs (S', x) with S' in the
    class of S, |class(S)| sum_x F(S + x, t) is the sum of H(P, t) over the
    down edges into S: each class P of the layer above and each b in P with
    canon(P - b) = S.  So a layer is summed along those edges alone, and the
    recurrence in t, linear per class, carries over to H.  X and {} are
    classes of one set, so H({}, 0) is the answer.

    H is held exactly in base-2^32 limbs, a (limbs, t, classes) uint64
    array.  The t step multiplies by max(e(S) - t, 0), so a column t > e(S)
    holds only the sum of its parents' columns t, which no column
    t <= e(S) reads.  Every column, those included, then has
    F(S, t) <= (|X| + |Y| - |S| - t)!, so H <= nx (|X| + |Y| - |S|)! fixes
    a layer's limb count (the rows it adds to the layer above's start at
    zero), and ``_carry`` never carries out of the top limb.  A child has
    at most 64^2 edges in, so its uncarried sums stay below 2^44; each
    column is carried in place after its step.  The edges out of a layer
    are counted first and refused past physical memory; the classes of two
    layers are checked against the budget.
    """
    ny = len(needs)
    needs = np.array(needs, dtype=np.uint64)
    bits = np.uint64(1) << np.arange(nx, dtype=np.uint64)
    masks = np.array([(1 << nx) - 1], dtype=np.uint64)
    h = np.array(
        [[[factorial(ny - t) >> (_LIMB_BITS * l) & int(_LIMB_MASK)] for t in range(ny + 1)]
         for l in range(_limbs_for(nx * factorial(ny)))],
        dtype=np.uint64,
    )
    for k in range(nx - 1, -1, -1):
        edges = int(np.bitwise_count(masks).sum())
        if _EDGE_BYTES * edges > physical_bytes():
            raise ResourceLimit(f"{name} layer: {edges} edges pass physical memory")
        # the classes one element smaller, each with its down edges in
        ok = [np.flatnonzero(masks & b) for b in bits]
        cand = canon(np.concatenate([masks[at] & ~b for at, b in zip(ok, bits)]))
        new, src, starts = _merge_children(cand, ok)
        if new.size + masks.size > memory_budget:
            raise ResourceLimit(f"{name} layer exceeds the memory budget")
        e = ((new[:, None] & needs) == needs).sum(axis=1)
        width = int(e.max()) + 1  # no superset has a smaller e, so h is as wide
        g = _edge_sums(h[:, :width], src, starts, _limbs_for(nx * factorial(nx + ny - k)))
        _carry(g[:, -1])
        for t in range(width - 2, -1, -1):
            g[:, t] += np.maximum(e - t, 0).astype(np.uint64) * g[:, t + 1]
            _carry(g[:, t])
        masks, h = new, g
    return _limbs_total(h[:, 0])


def _limbs_for(bound: int) -> int:
    """The base-2^32 limbs that hold any count up to ``bound``."""
    return max(1, -(-bound.bit_length() // _LIMB_BITS))


def _edge_sums(h, src, starts, rows):
    """(rows, width, children): the sums of the parent columns ``src`` of
    ``h`` over the runs of edges opening at ``starts``, one ``reduceat`` per
    block of children whose edges hold at most ``_BLOCK_ENTRIES`` limbs;
    the ``rows`` past h's limbs are zero."""
    limbs, width, _ = h.shape
    flat = np.ascontiguousarray(h).reshape(limbs * width, -1)  # take would copy per block
    out = np.zeros((rows, width, starts.size), dtype=np.uint64)
    bounds = np.append(starts, src.size)
    for lo, hi in _edge_blocks(bounds, max(1, _BLOCK_ENTRIES // (limbs * width))):
        gather = flat.take(src[bounds[lo] : bounds[hi]], axis=1)
        sums = np.add.reduceat(gather, starts[lo:hi] - bounds[lo], axis=1)
        del gather  # freed before the next block's is taken
        out[:limbs, :, lo:hi] = sums.reshape(limbs, width, hi - lo)
    return out


def _edge_blocks(bounds, step):
    """Ranges lo..hi - 1 that tile the children whose edges open at
    ``bounds[:-1]`` (``bounds[-1]`` is the edge count): each the most
    children from lo whose edges number at most ``step``, or one child."""
    lo = 0
    while lo < bounds.size - 1:
        hi = max(lo + 1, int(bounds.searchsorted(bounds[lo] + step, side="right")) - 1)
        yield lo, hi
        lo = hi


def _count_extensions_bipartite_fst(p: Poset, memory_budget: int) -> int:
    """The F(S, t) recurrence over every subset S of the lower side."""
    x_side, y_side = p.bipartition()
    nx = len(x_side)
    if 1 << nx > memory_budget:
        raise ResourceLimit(f"2^{nx} subset table exceeds the memory budget")
    needs = _neighbor_masks(y_side, x_side, p.cover_down)
    return _prefix_dp(nx, needs, lambda masks: masks, memory_budget, "bipartite-fst")


def _canonical_rotation(arr, m):
    """Lexicographically minimal cyclic rotation of each m-bit mask.

    A circulant has m <= 32, so the rotations run on a uint32 copy, one bit
    at a time and in place: on 350k masks at m = 22, a fifth of the time of
    a fresh uint64 array per rotation."""
    best = arr.astype(np.uint32)
    rot, low = best.copy(), np.empty_like(best)
    full, one, back = np.uint32((1 << m) - 1), np.uint32(1), np.uint32(m - 1)
    for _ in range(1, m):
        np.right_shift(rot, back, out=low)
        rot <<= one
        rot &= full
        rot |= low
        np.minimum(best, rot, out=best)
    return best.astype(np.uint64)


def _count_extensions_orbit(p: CirculantBipartitePoset, memory_budget: int) -> int:
    """The F(S, t) recurrence over rotation classes of S.

    The circulant poset is invariant under simultaneous rotation of both
    sides, so F(S, t) depends only on the rotation class of S.
    """
    m = p.m
    # y_j needs x_{(j+d) mod m}: the needs-mask of y_0, rotated per j.
    need0 = sum(1 << d for d in p.offsets)
    full = (1 << m) - 1
    needs = [((need0 << j) | (need0 >> (m - j))) & full for j in range(m)]
    return _prefix_dp(m, needs, lambda masks: _canonical_rotation(masks, m), memory_budget, "orbit")


#: Extension-counting methods: name -> kernel(p, memory_budget).
EXTENSION_METHODS = {
    "brute": _count_extensions_brute,
    "ideal-dp": _count_extensions_ideal_dp,
    "bipartite-fst": _count_extensions_bipartite_fst,
    "orbit": _circulant_only("orbit method", _count_extensions_orbit),
}


def count_linear_extensions(
    p: Poset, method: str = "ideal-dp", memory_budget: int = DEFAULT_MEMORY_BUDGET
) -> int:
    """Exact number of linear extensions of p."""
    if method not in EXTENSION_METHODS:
        raise MethodMismatch(f"unknown extension-counting method {method!r}")
    return EXTENSION_METHODS[method](p, memory_budget)


def closed_form_matching_complement(m: int):
    """(ideal count, linear extension count) of the matching complement."""
    if m < 2:
        raise InvalidSize("matching complement needs m >= 2")
    return (1 << (m + 1)) + m - 1, factorial(m - 1) * factorial(m) * (m + 1)


def default_count_methods(p: Poset):
    """(ideal method, extension method) poset_efficiency would pick.

    For a circulant the cheaper ideal kernel by estimated work: the
    transfer trace writes about 2^w * (|m - 2w| + 3) * 2^min(w, m - w)
    entries (w = max D), the bipartite sum at most 2^m, one per pair of
    distinct subset ORs of its two halves.  The rule compares that upper
    bound, so the pick does not depend on how many ORs repeat.  Its
    extensions are counted by orbit, which keeps about 2^m / m rotation
    classes where bipartite-fst keeps 2^m sets.
    """
    if isinstance(p, CirculantBipartitePoset):
        m, w = p.m, max(p.offsets)
        cheaper = 2**w * (abs(m - 2 * w) + 3) * 2 ** min(w, m - w) < 2**m
        ideal_method = "circulant-transfer" if cheaper else "bipartite-sum"
        ext_method = "orbit"
    else:
        ideal_method = "lattice"
        ext_method = "ideal-dp"
    return ideal_method, ext_method


def poset_efficiency(
    p: Poset,
    memory_budget: int = DEFAULT_MEMORY_BUDGET,
    alpha: int | None = None,
    lam: int | None = None,
) -> EfficiencyReport:
    """Exact alpha, lambda, and 1/eta of the poset.

    Precomputed counts can be passed in to avoid recounting.  When neither
    is and the methods are ``lattice`` and ``ideal-dp``, both counts come
    from one walk of the ideal lattice.
    """
    ideal_method, ext_method = default_count_methods(p)
    if alpha is None and lam is None and ext_method == "ideal-dp":
        alpha, lam = count_ideals_and_extensions(p, memory_budget)
    if alpha is None:
        alpha = count_ideals(p, ideal_method, memory_budget)
    if lam is None:
        lam = count_linear_extensions(p, ext_method, memory_budget)
    return make_report(p.n, alpha, lam, method=f"ideals:{ideal_method},extensions:{ext_method}")


# ---------------------------------------------------------------------------
# Text formats.  Every input file is a header of integers, the last of which
# counts the record lines that follow; blank lines are ignored.  A poset file
# is "n m" and then m cover lines "u v" of 0-indexed pairs.


def read_records(text: str, what: str, header: int, record) -> tuple[list[int], list]:
    """The header's integers and ``record(tokens)`` of each record line.

    The first non-blank line must hold ``header`` integers, and exactly as
    many record lines as the last of them must follow.  Any other text, or a
    ValueError from ``record``, raises InvalidInstance naming the ``what`` file.
    """
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise InvalidInstance(f"empty {what} file")
    if len(lines[0]) != header:
        raise InvalidInstance(f"malformed {what} header {' '.join(lines[0])!r}")
    try:
        head = [int(tok) for tok in lines[0]]
        records = [record(tokens) for tokens in lines[1:]]
    except ValueError as exc:
        raise InvalidInstance(f"malformed {what} file: {exc}") from exc
    if len(records) != head[-1]:
        raise InvalidInstance(f"expected {head[-1]} {what} lines, found {len(records)}")
    return head, records


def int_pair(tokens) -> tuple[int, int]:
    """A record line of exactly two integers: a poset's cover or a digraph's arc."""
    if len(tokens) != 2:
        raise InvalidInstance(f"expected two integers, got {' '.join(tokens)!r}")
    return int(tokens[0]), int(tokens[1])


def poset_to_text(p: Poset) -> str:
    lines = [f"{p.n} {len(p.covers)}"]
    lines += [f"{u} {v}" for u, v in p.covers]
    return "\n".join(lines) + "\n"


def poset_from_text(text: str) -> Poset:
    (n, _), covers = read_records(text, "poset", 2, int_pair)
    return Poset(n, covers)
