"""The min-plus subset DP on int64 arrays, for problems with an array form.

A plan over a family F of admissible prefix sets is built once, with numpy
passes over F and no per-entry Python: the states of each popcount layer,
and for each state the transitions into it, stored contiguously, so that
one ``np.minimum.reduceat`` per layer takes every state's minimum.  A state
is a prefix set (degree 1) or a prefix set with its last element (degree
2), the states of the callback DP ``solver._CallbackDP``, which keeps the
same run and walk contract for every other problem.

The plan reads no cost.  A run takes a batch of labellings, one row per
cover tuple: plan element x stands for the problem's element ``inv[x]``.
The tuples of a cover sweep differ only in this labelling (a chunk c of
group i is admissible iff pi_i(c) lies in A_i), so every tuple shares one
plan over the product F = A_1 x ... x A_s of the groups' families, and a
batch of tuples runs along axis 0 of each array.  Held-Karp is one run
over F = 2^[n] with the identity labelling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimit
from .semiring import ARRAY_INF, INF, ArrayCosts

# entries of one (tuples, transitions) scratch array; bounds the batch size,
# and with it the memory a sweep adds to the process (about 3 such arrays)
SCRATCH_ENTRIES = 1 << 15


@dataclass(frozen=True)
class _Layer:
    """The states of popcount layer k and the transitions into them.

    The transitions into a state are contiguous and ordered by state, so
    ``starts`` opens each state's run of transitions.
    """

    pred: np.ndarray  # (T,) the layer k - 1 state each transition leaves
    starts: np.ndarray  # (S,) each state's first transition
    prev: np.ndarray  # (T,) that state's last element; n at the root and for degree 1
    elem: np.ndarray  # (T,) the element placed
    out: np.ndarray  # (S_{k-1},) transitions leaving each layer k - 1 state


def build_plan(family: np.ndarray, n: int, degree: int, budget: int) -> list[_Layer]:
    """Layers 1..n of the DP over ``family`` (distinct uint64 masks over n elements).

    A mask is a state (degree 1) when a chain of members reaches it from
    the empty set; a degree-2 state is a reachable mask and an element
    whose removal leaves a reachable mask, and its predecessors are the
    states on that smaller mask.  Each layer's candidates are scanned for
    edges in blocks of at most SCRATCH_ENTRIES // n masks, and each block's
    transitions are charged before the next block is scanned, so
    ResourceLimit is raised once those stored would pass ``budget``,
    before the layer holding them is built.
    """
    if n > 64:
        raise ResourceLimit("the DP plan holds masks of at most 64 elements")
    family = np.sort(family)
    pop = np.bitwise_count(family)
    bits = np.left_shift(np.uint64(1), np.arange(n, dtype=np.uint64))
    masks = np.zeros(1, dtype=np.uint64)  # reachable masks of the layer below
    below_mask = np.zeros(1, dtype=np.int64)  # degree 2: states' indices into ``masks``
    below_last = np.full(1, n)  # degree 2: states' last elements
    block = max(1, SCRATCH_ENTRIES // n)  # candidate rows scanned at once
    stored = 0
    layers = []
    for k in range(1, n + 1):
        cand = family[pop == k]
        if degree == 2:
            # an edge's transitions leave the states on its parent mask
            first = np.searchsorted(below_mask, np.arange(len(masks) + 1))
        edges = []
        for b in range(0, max(len(cand), 1), block):  # an empty layer scans one empty block
            rows, elem = np.nonzero((cand[b : b + block, None] & bits) != 0)
            rows += b
            parents = cand[rows] ^ bits[elem]
            up = np.searchsorted(masks, parents)
            hit = masks[np.minimum(up, len(masks) - 1)] == parents
            up = up[hit]
            stored += len(up) if degree == 1 else int((first[up + 1] - first[up]).sum())
            if stored > budget:
                raise ResourceLimit("DP plan exceeds the memory budget")
            edges.append((rows[hit], elem[hit], up))
        # edges, ordered by child mask
        rows, elem, up = (np.concatenate(part) for part in zip(*edges))
        if degree == 2:
            lo = first[up]
            counts = first[up + 1] - lo
        reached, starts = np.unique(rows, return_index=True)
        if degree == 1:
            n_below = len(masks)
            masks = cand[reached]
            pred, prev = up, np.full(len(up), n)
        else:
            n_below = len(below_mask)
            masks = cand[reached]
            child = np.searchsorted(reached, rows)
            starts = np.cumsum(counts) - counts
            pred = np.arange(counts.sum()) - np.repeat(starts - lo, counts)
            prev = below_last[pred]
            below_mask, below_last = child, elem
            elem = np.repeat(elem, counts)
        out = np.bincount(pred, minlength=n_below)
        layers.append(_Layer(pred, starts, prev, elem, out))
    return layers


@dataclass
class Run:
    """One batch: per row its value, updates and finite entries per layer."""

    values: np.ndarray  # (B,) objects, the semiring's values; INF where no order is finite
    updates: np.ndarray  # (B,) transitions out of finite states
    live: np.ndarray  # (B, n + 1) finite entries per layer, the root's layer first
    # with keep_all, what walk reads: here layers 1..n of (B, T) candidates
    # and (B, S) values, on the callback DP its table
    kept: list | dict

    def peak(self) -> int:
        """Finite entries a row holds at most: every layer if kept, else two consecutive."""
        if self.kept:
            return int(self.live.sum(axis=1).max())
        return int((self.live[:, :-1] + self.live[:, 1:]).max())


class ArrayDP:
    """A plan over one family with the cost tables of one problem.

    Back costs (``ArrayCosts.back``) are summed along the plan: a run
    carries, for each state and each element q, the back cost of q to the
    state's prefix set, one row add per state from its first
    predecessor's sums, so a transition's back cost is one gather.
    """

    def __init__(self, costs: ArrayCosts, family, n: int, degree: int, budget: int):
        self.n = n
        self.layers = build_plan(family, n, degree, budget)
        self.plan_entries = sum(len(layer.pred) for layer in self.layers)
        self.sizes = [1] + [len(layer.starts) for layer in self.layers]
        self.step = _step_table(costs, n)
        self.back = costs.back

    def entries(self, keep_all: bool) -> int:
        """Dense entries one row holds.

        That is the largest two consecutive layers, or with ``keep_all``
        every layer and every transition's candidate.
        """
        if keep_all:
            return sum(self.sizes) + self.plan_entries
        return max(a + b for a, b in zip(self.sizes, self.sizes[1:]))

    def held(self, run: Run) -> int:
        """Entries the run held against the budget: its batch's dense tables."""
        return len(run.values) * self.entries(bool(run.kept))

    def batch_size(self, rows: int, budget: int, keep_all: bool) -> int:
        """Rows per batch, at least one.

        The plan's transitions and the batch's dense tables must fit
        ``budget``, and no (rows, transitions) array passes SCRATCH_ENTRIES
        unless one row alone does.  Raises ResourceLimit when not even one
        row fits.
        """
        room = budget - self.plan_entries
        dense = self.entries(keep_all)
        if dense > room:
            raise ResourceLimit("DP table exceeds the memory budget")
        scratch = max(len(layer.pred) for layer in self.layers)
        if self.back is not None:
            scratch = max(scratch, self.n * max(self.sizes))
        return max(1, min(rows, room // dense, SCRATCH_ENTRIES // scratch))

    def run(self, inv: np.ndarray, keep_all: bool = False) -> Run:
        """The DP for each labelling row of ``inv`` (B, n)."""
        inv = np.asarray(inv, dtype=np.int64)
        rows, n = inv.shape
        ext = np.hstack([inv, np.full((rows, 1), n)])
        vals = np.zeros((rows, 1), dtype=np.int64)
        updates = np.zeros(rows, dtype=np.int64)
        live = [np.ones(rows, dtype=np.int64)]
        kept = []
        if self.back is not None:
            # back_t[b, u, q] = back cost of q to u under row b's labels
            back_t = self.back.T[inv[:, :, None], inv[:, None, :]]
            sums = np.zeros((rows, 1, n), dtype=np.int64)
        for k, layer in enumerate(self.layers, 1):
            updates += (vals < ARRAY_INF) @ layer.out
            # in place where possible: at most three (B, T) arrays live at once
            index = ext[:, layer.prev]
            index *= n
            index += inv[:, layer.elem]
            cand = self.step[k][index]
            del index
            if self.back is not None:
                cand += sums.reshape(rows, -1)[:, layer.pred * n + layer.elem]
                sums = sums[:, layer.pred[layer.starts]] + back_t[:, layer.elem[layer.starts]]
            cand += vals[:, layer.pred]
            vals = np.minimum.reduceat(cand, layer.starts, axis=1)
            np.minimum(vals, ARRAY_INF, out=vals)
            live.append(np.count_nonzero(vals < ARRAY_INF, axis=1))
            if keep_all:
                kept.append((cand, vals))
        best = vals.min(axis=1)
        values = np.where(best < ARRAY_INF, best.astype(object), INF)
        return Run(values, updates, np.stack(live, axis=1), kept)

    def walk(self, run: Run, inv: np.ndarray) -> tuple:
        """An optimal order of a one-row ``keep_all`` run, in the problem's labels.

        From the best state of the last layer, each step back takes the
        first transition whose candidate equals the state's value.
        """
        state = int(np.argmin(run.kept[-1][1][0]))
        order = []
        for layer, (cand, vals) in zip(reversed(self.layers), reversed(run.kept)):
            lo = layer.starts[state]
            hi = layer.starts[state + 1] if state + 1 < len(layer.starts) else len(layer.pred)
            t = lo + int(np.argmax(cand[0, lo:hi] == vals[0, state]))
            order.append(int(inv[layer.elem[t]]))
            state = int(layer.pred[t])
        return tuple(reversed(order))


def _step_table(costs: ArrayCosts, n: int) -> np.ndarray:
    """(n + 1, (n + 1) * n): entry [k, p * n + q] costs placing q after p at position k.

    Labels are the problem's own; p = n is the root, and for degree 1,
    where no state has a last element, every step reads the root's row.
    """
    step = np.full((n + 1, n + 1, n), ARRAY_INF, dtype=np.int64)
    step[1, n] = costs.first
    if costs.pair is None:
        step[2:, n] = 0
    else:
        step[2:, :n] = costs.pair
    step[n] += costs.last
    np.minimum(step, ARRAY_INF, out=step)
    return step.reshape(n + 1, -1)
