"""Posets, constructions, and exact counting of ideals and linear extensions.

Elements are integers 0..n-1 and subsets are machine-word bitmasks, so n
is capped at 64.  Several independent counting algorithms are provided;
tests require them to agree bit-for-bit wherever more than one applies.
"""

from __future__ import annotations

import os
from functools import partial
from graphlib import CycleError, TopologicalSorter
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


def charge(what: str, entries: int, memory_budget: int, nbytes: int | None = None) -> None:
    """The one memory guard, called before the memory is allocated: refuse
    ``what`` when its ``entries`` resident entries pass ``memory_budget``, or
    its ``nbytes`` bytes (8 per entry by default) pass physical memory."""
    if entries > memory_budget:
        raise ResourceLimit(
            f"{what} needs {entries} resident entries, over the budget of {memory_budget}"
        )
    nbytes = 8 * entries if nbytes is None else nbytes
    if nbytes > physical_bytes():
        raise ResourceLimit(f"{what} needs {nbytes} bytes, over physical memory")


def bits_of(mask: int) -> list[int]:
    """The elements of ``mask``, ascending (the "0b" of ``bin`` holds no 1)."""
    return [i for i, bit in enumerate(reversed(bin(mask))) if bit == "1"]


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
        above = {v: bits_of(up[v]) for v in range(n)}
        try:  # each element after those above it; a cycle has no such order
            order = list(TopologicalSorter(above).static_order())
        except CycleError:
            raise InvalidInstance("cover relation contains a cycle") from None
        succ, pred = up[:], down[:]
        for v in order:
            for w in above[v]:
                succ[v] |= succ[w]
        for v in reversed(order):  # pred[v] is whole before v passes it up
            for w in above[v]:
                pred[w] |= pred[v]
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
    base = make_circulant(m, range(7)).covers
    return Poset(34, [*base, (0, m + 8), (m + 8, 32), (m + 15, 33)])


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


#: Bytes per Hasse edge that ``_extend_ideals`` holds at once: five int64
#: arrays.  A DP plan is charged as much per transition; it keeps about 28.
_EDGE_BYTES = 40


def _ideal_layers(p: Poset, memory_budget: int, with_edges: bool = True):
    """The ideals of p, one popcount layer at a time, with their Hasse edges.

    Yields (layer, src, starts): the layer as sorted uint64 masks, and the
    edges into it from the layer before as ``_extend_ideals`` returns them
    (both empty for the layer {0}, None without ``with_edges``).  The
    ideals so far are charged.  The E edges out of layer k are counted
    before they are built, and an ideal of k + 1 elements has at most k + 1
    parents, so the build is charged the ideals so far and E / (k + 1)
    against the budget, and ``_EDGE_BYTES`` per edge against physical memory.
    """
    pred = np.array(p.pred_mask, dtype=np.uint64)
    bits = np.uint64(1) << np.arange(p.n, dtype=np.uint64)
    layer = np.zeros(1, dtype=np.uint64)
    src = starts = np.zeros(0, dtype=np.intp) if with_edges else None
    total = 0
    for k in range(p.n + 1):
        total += layer.size
        charge("ideal lattice", total, memory_budget)
        yield layer, src, starts
        edges = sum(int(np.count_nonzero(_fits(layer, pv, bv))) for pv, bv in zip(pred, bits))
        if not edges:
            return
        least = -(-edges // (k + 1))
        detail = f"{total} ideals and at least {least} in the next layer, by {edges} edges"
        charge(f"ideal lattice ({detail})", total + least, memory_budget, _EDGE_BYTES * edges)
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


def by_popcount(masks):
    """The distinct values of ``masks`` sorted by (popcount, value), the order
    of ``family_layers`` (``masks`` is sorted in place)."""
    masks = sorted_unique(masks)
    # a stable popcount sort of the sorted values orders by (popcount, value)
    return masks[np.argsort(np.bitwise_count(masks), kind="stable")]


def family_layers(family, n: int):
    """The members of ``family`` reachable from the empty set, one popcount
    layer at a time, with the Hasse edges into each layer.

    ``family`` holds distinct uint64 masks over n elements, sorted by
    (popcount, value).  Yields n + 1 tuples (layer, src, starts) in the
    format of ``_ideal_layers``, the edges into a child ordered by element;
    every layer after an empty one is empty.  Every parent holds the core
    of the layer below, the AND of its members, so a member of k elements
    has k - |core| candidate parents, one per peeled bit outside the core,
    looked up in the layer below one peel row at a time, where the queries
    are nearly sorted.  An edge's child and element are not stored;
    ``edge_ends`` decodes them.
    """
    ends = np.searchsorted(np.bitwise_count(family), np.arange(n + 2)).tolist()
    layer = family[: ends[1]]
    src = starts = np.zeros(0, dtype=np.intp)
    yield layer, src, starts
    for k in range(1, n + 1):
        cand = family[ends[k] : ends[k + 1]] if layer.size else family[:0]
        layer, src, starts = _edges_into(cand, k, layer)
        yield layer, src, starts


def edge_ends(layer, src, starts, below):
    """(child, elem) of each edge into ``layer`` from ``below``, as
    ``family_layers`` yields them: the index in ``layer`` of the edge's
    child, and the element that the child adds to its parent."""
    child = starts.searchsorted(np.arange(src.size), side="right") - 1
    elem = np.bitwise_count((layer[child] ^ below[src]) - np.uint64(1)).astype(np.intp)
    return child, elem


#: Candidate parents searched at once: about 3 MB of working arrays.  On
#: tower:17:2 (2-core VM) the walk took 55-67 ms from 2^15 to 2^20, as fast
#: as one search per layer (62 ms), at a 7.7 MB tracemalloc peak against 10.0.
_PEEL_ENTRIES = 1 << 17


def _edges_into(cand, k, below):
    """(layer, src, starts) of the members of ``cand``, sorted masks of k
    elements, that have a parent in ``below``, in blocks of candidates.

    Every parent holds the core, the AND of ``below``, so a candidate
    loses only one of its bits outside the core, k - |core| peel rows.  A
    candidate that lacks a core bit gets queries that lack it too, which
    miss, so it is dropped."""
    core = np.bitwise_and.reduce(below) if below.size else np.uint64(0)
    peel = k - int(np.bitwise_count(core))
    srcs, counts = [], []
    step = _PEEL_ENTRIES // peel
    for lo in range(0, max(cand.size, 1), step):
        block = cand[lo : lo + step]
        # row j first holds each candidate's bits outside the core less the
        # j + 1 lowest; the xor with row j - 1 and the candidate leaves only
        # the (j + 1)-th out, and row 0 gets the candidate's core bits back
        parents = np.empty((peel, block.size), dtype=np.uint64)
        rest = block & ~core
        for row in parents:
            np.bitwise_and(rest, rest - 1, out=row)
            rest = row
        parents[1:] ^= parents[:-1] ^ block
        parents[0] |= block & core
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
#: 2^17-2^19 (48-52 ms), 59-63 ms at 2^16 and 60-80 ms at 2^20-2^21; the
#: bipartite sum over distinct ORs took 33-42 ms from 2^15 to 2^20 and
#: 55-65 ms at 2^21.  Each kernel peaks at about two blocks.  The insertion
#: kernel gathers one block of limbs at a time; on circulant:22:0,1,2,4,9
#: orbit took 209-242 ms from 2^15 to 2^19, 221-258 ms at 2^20 and
#: 250-273 ms at 2^21.
#: gs (``solver``) also sizes its chunks of splits by it: at N = 10-12 a
#: solve took 55-65% of its time under a 2^15 cap (in process, same VM).
_BLOCK_ENTRIES = 1 << 19


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
    entries = (1 << lo) + (1 << (s - lo)) + (rows << lo)
    # each entry is a uint64 held beside a float64: an OR and its
    # multiplicity, a merged OR (then its size) and its weight
    charge("bipartite-sum", entries, memory_budget, 16 * entries)
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

    Columns are a block of 2^c start states s0 (c <= w) that share their
    bits from c up, so the columns form a cube of c axes, s0's bit c - 1
    first.  A closed walk from s0 appends m bits: the first m - w are free,
    and the last w must be s0's own bits, top bit first.  So a column's
    rows index only the free bits in the window, as a cube of shape
    (2,)*f + (2,)*c with the oldest free bit on axis 0.  A step doubles the
    rows when a free bit enters, and halves them by one lo + hi add when a
    free bit leaves (every step after w).  Rows peak at 2^min(w, m - w),
    and each column ends as one entry, its diagonal entry.

    The y closed at step t needs the bits appended at steps t - w + d for
    d in D, step j <= 0 being s0's bit -j and step j > m - w s0's bit m - j.
    Its weight-2 test is one strided sub-cube of rows and columns (the free
    bits and s0's low c bits it needs set) and a test of the block's shared
    high bits; the entries that pass count their walks twice, and a block
    whose high bits fail skips the add.  Whether a step halves or doubles,
    its sub-cube and its high bits form a plan built once, before the
    blocks.  A block runs in two buffers of the peak size: a halving adds
    the hi half into the lo half in place, and a doubling copies the
    rows into both halves of the new axis in the other buffer.  Both
    buffers are charged against physical memory, and the block, never
    below the 2^w start states, against the budget.

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
    c = min(w, max(1, _BLOCK_ENTRIES >> peak_bits).bit_length() - 1)
    cols = 1 << c  # s0's low c bits are the column cube's axes
    # one block is resident, in two uint64 buffers, but the entries charged
    # are never below the 2^w start states, so a w past the budget is
    # refused before it runs
    block = cols << peak_bits
    charge("circulant-transfer", max(block, 1 << w), memory_budget, 16 * block)
    # per step: (free bits held, halves, reads hi, sub-cube, s0's high bits,
    # the new axis when a free bit enters, the sub-cube that gains)
    plan = []
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
        # s0's bit b < c is column axis c - 1 - b
        cube = tuple(1 if forced >> b & 1 else slice(None) for b in reversed(range(c)))
        sub = (*rows, *cube)
        if doubles:  # the new free bit's axis follows the held ones; its 1 rows gain
            spread, gain = (slice(None),) * len(rows) + (None,), (*rows, 1, *cube)
        else:  # s0's bit m - t enters; the sub-cube or the block test holds it
            spread, gain = None, sub
        plan.append((held, halves, reads_hi, sub, forced >> c, spread, gain))
        held += doubles - halves
    cur, other = np.empty((2, block), dtype=np.uint64)
    total = 0
    for high in range(1 << (w - c)):  # s0 >> c
        cur[:cols] = 1
        for held, halves, reads_hi, sub, forced, spread, gain in plan:
            # a trailing length-1 axis keeps a sub-cube of one entry a view
            vec = src = cur[: cols << held].reshape((2,) * (held + c) + (1,))
            if halves:  # the oldest free bit leaves: lo + hi, in place
                lo, hi = vec
                np.add(lo, hi, out=lo)
                vec, src = lo, hi if reads_hi else lo
            if spread is not None:  # a free bit enters: copy into both halves
                grown = other[: 2 * vec.size].reshape((2,) * vec.ndim + (1,))
                np.copyto(grown, vec[spread])
                vec = grown
                cur, other = other, cur
            if high & forced == forced:  # else no start state of the block passes
                dst = vec[gain]
                np.add(dst, src[sub], out=dst)
        total += sum(cur[:cols].tolist())
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


def count_by_insertion(p: Poset, memory_budget: int = DEFAULT_MEMORY_BUDGET):
    """(alpha, lambda) of p from one walk of J(P'), the ideals of p less its
    maximal elements Y, which ``_prefix_dp`` inserts: an ideal of p is an
    ideal I of P' with any subset of the e(I) elements of Y it releases, so
    alpha = sum_I 2^e(I).  An antichain gives (2^n, n!)."""
    top = [v for v in range(p.n) if not p.succ_mask[v]]
    rest = [v for v in range(p.n) if p.succ_mask[v]]
    succ = _neighbor_masks(rest, rest, p.succ_mask)
    needs = _neighbor_masks(top, rest, p.pred_mask)
    hist, lam = _prefix_dp(len(rest), succ, needs, memory_budget, "insertion")
    return sum(count << e for e, count in enumerate(hist)), lam


def _count_extensions_ideal_dp(p: Poset, memory_budget: int) -> int:
    return count_ideals_and_extensions(p, memory_budget)[1]


def _prefix_dp(nx: int, succ, needs, memory_budget: int, name: str, canon=None):
    """(histogram, lambda): the linear extensions of a poset P by inserting
    its maximal elements Y into the orders of the rest rather than tracking
    them, and without ``canon`` the ideals of P' = P - Y by e.

    P' has ``nx`` elements, ``succ[b]`` the bitmask of b's strict successors
    in P', and each y the bitmask ``needs[y]`` of its predecessors, all in P'
    since y is maximal.  For an ideal I of P', e(I) counts the y whose needs
    lie in I, and F(I) is the number of linear extensions of P - I.  With
    N = |P| and D(I) = |P' - I| + |Y| - e(I),

        F(I) = (N - |I|) / D(I) * sum_{x: I + x in J(P')} F(I + x),

    F(P') = |Y|! and lambda = F({}).  Let R(I) be P - I less the e(I)
    released y, which are isolated in P - I; it has D(I) elements.  An
    isolated element of a k-element poset has k places, so
    F(I) = (N - |I|)! / D(I)! * L(R(I)), L counting linear extensions.  The
    minimal elements of R(I) are the x, and R(I) - x is P - (I + x) less
    the same e(I) elements, so L(R(I) - x) = (D(I) - 1)! / (N - |I| - 1)!
    * F(I + x); summing over x gives the recurrence.  The division is
    exact: the sum times N - |I| is D(I) F(I), and F(I) counts extensions.
    D(I) >= 1 below P', which keeps an x.

    ``canon`` maps an array of masks to their class representatives, and F
    must be constant on each class: None keeps every ideal, a rotation of
    an antichain P' keeps one per orbit, so a class holds at most nx sets.
    Layers run by |I| descending with two resident, each class I holding
    H(I) = |class(I)| F(I).  Counting the pairs (I', x) with I' in the class
    of I, |class(I)| sum_x F(I + x) is the sum of H(Q) over the down edges
    into I: each class Q of the layer above and each b maximal in Q (no
    successor of b in Q) with canon(Q - b) = I.  So a layer is summed along
    those edges alone, and the factor N - |I| and the division by D(I),
    constant per class, carry over to H.  P' and {} are classes of one set,
    so H({}) is lambda.  Without ``canon`` the histogram counts the ideals I
    of P' by e(I), so alpha(P), the sum of 2^e(I), is finished from it (an
    ideal of P is an I with any subset of the y it releases); with
    ``canon`` it is None.  e is summed one y at a time.

    H is held exactly in base-2^32 limbs, a (limbs, classes) uint64 array.
    Before the division a class holds |class(I)| D(I) F(I), at most
    |class| (N - |I|)! (N - |I|), which fixes a layer's limb count (the rows
    it adds to the layer above's start at zero), so ``_carry`` never carries
    out of the top limb.  A child has at most 64^2 edges in and
    N - |I| <= 64, so the uncarried product stays below 2^50.  The division
    runs limb by limb from the top, each dividend below 2^38 as the
    remainder is below D(I) <= 64, and a nonzero final remainder raises an
    internal error.  A class of k + 1 elements has at most k + 1 down edges
    out, exactly that many when P' is an antichain, so a layer's edges are
    charged ``_EDGE_BYTES`` apiece by that bound, beside h, before they are
    built.  Then the classes of two layers are charged against the budget,
    and against physical memory the limbs that summing the layer holds: h,
    the new layer's H, one gather block with its sums, the edges' parent
    indices and three working rows (D, the remainder and its shift).
    """
    ny, n = len(needs), nx + len(needs)
    needs = np.array(needs, dtype=np.uint64)
    bits = np.uint64(1) << np.arange(nx, dtype=np.uint64)
    reach = np.array(succ, dtype=np.uint64) | bits  # b is maximal in I iff I & reach == b
    period = 1 if canon is None else nx
    masks = np.array([(1 << nx) - 1], dtype=np.uint64)
    top = factorial(ny)
    h = np.array([[top >> (_LIMB_BITS * l) & int(_LIMB_MASK)] for l in range(_limbs_for(top))],
                 dtype=np.uint64)
    hist = np.zeros(ny + 1, dtype=np.int64)
    hist[ny] = 1
    for k in range(nx - 1, -1, -1):
        edges = (k + 1) * masks.size
        charge(f"{name} layer ({edges} edges)", masks.size, memory_budget,
               _EDGE_BYTES * edges + h.nbytes)
        # the classes one element smaller, each with its down edges in
        ok = [((masks & r) == b).nonzero()[0] for r, b in zip(reach, bits)]
        cand = np.concatenate([masks[at] & ~b for at, b in zip(ok, bits)])
        if canon is not None:
            cand = canon(cand)
        new, src, starts = _merge_children(cand, ok)
        rows = _limbs_for(period * factorial(n - k) * (n - k))
        gather = min(_BLOCK_ENTRIES, h.shape[0] * src.size)
        limbs = h.size + (rows + 3) * new.size + 2 * gather + src.size
        charge(f"{name} layer", new.size + masks.size, memory_budget, 8 * limbs)
        e = np.zeros(new.size, dtype=np.uint8)
        for need in needs:  # one y at a time, with no (classes, |Y|) array
            e += (new & need) == need
        if canon is None:
            hist += np.bincount(e, minlength=ny + 1)
        g = _edge_sums(h, src, starts, rows)
        g *= np.uint64(n - k)
        _carry(g)
        d = np.uint64(nx - k + ny) - e
        rem = np.zeros(new.size, dtype=np.uint64)
        for row in g[::-1]:
            row |= rem << np.uint64(_LIMB_BITS)
            np.divmod(row, d, out=(row, rem))
        if rem.any():
            raise RuntimeError(f"{name}: a layer's sum is not a multiple of D(I)")
        masks, h = new, g
    return (None if canon is not None else hist.tolist()), _limbs_total(h)


def _limbs_for(bound: int) -> int:
    """The base-2^32 limbs that hold any count up to ``bound``."""
    return max(1, -(-bound.bit_length() // _LIMB_BITS))


def _edge_sums(h, src, starts, rows):
    """(rows, children): the sums of the parent columns ``src`` of ``h`` over
    the runs of edges opening at ``starts``, one gather and one ``reduceat``
    per block of children whose edges hold at most ``_BLOCK_ENTRIES`` limbs;
    the ``rows`` past h's limbs are zero."""
    limbs = h.shape[0]
    out = np.zeros((rows, starts.size), dtype=np.uint64)
    bounds = np.append(starts, src.size)
    for lo, hi in _edge_blocks(bounds, max(1, _BLOCK_ENTRIES // limbs)):
        edges, runs = src[bounds[lo] : bounds[hi]], starts[lo:hi] - bounds[lo]
        np.add.reduceat(h.take(edges, axis=1), runs, axis=1, out=out[:limbs, lo:hi])
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
    """The insertion recurrence over every subset S of the lower side."""
    x_side, y_side = p.bipartition()
    nx = len(x_side)
    charge(f"2^{nx} subset table", 1 << nx, memory_budget)
    needs = _neighbor_masks(y_side, x_side, p.cover_down)
    return _prefix_dp(nx, [0] * nx, needs, memory_budget, "bipartite-fst")[1]


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
    """The insertion recurrence over rotation classes of S.

    The circulant poset is invariant under simultaneous rotation of both
    sides, so F(S) depends only on the rotation class of S.
    """
    m = p.m
    # y_j (element m + j) needs x_{(j + d) mod m} for each d in D
    needs = _neighbor_masks(range(m, 2 * m), range(m), p.cover_down)
    rotate = partial(_canonical_rotation, m=m)
    return _prefix_dp(m, [0] * m, needs, memory_budget, "orbit", rotate)[1]


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
    transfer trace writes at most 2^w * (|m - 2w| + 3) * 2^min(w, m - w)
    entries (w = max D), fewer when a block of start states skips a
    weight-2 add, and the bipartite sum at most 2^m, one per pair of
    distinct subset ORs of its two halves.  The rule compares these upper
    bounds, so the pick depends neither on how many adds a block skips nor
    on how many ORs repeat.  Its extensions are counted by orbit, which
    keeps about 2^m / m rotation classes where bipartite-fst keeps 2^m sets.
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
