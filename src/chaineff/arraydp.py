"""The restricted subset DP: one plan, one run loop and one walk for every problem.

A plan over a family F of admissible prefix sets is built once, with numpy
passes over F and no per-entry Python: the states of each popcount layer,
and for each state the transitions into it, stored contiguously, so that
one ``reduceat`` per layer takes every state's semiring sum.  A layer-k
state is a reachable prefix set with its last min(k, d - 1) elements, its
key, which is all that the next step's window reads.

The plan reads no cost.  A run takes a batch of labellings, one row per
cover tuple: plan element x stands for the problem's element ``inv[x]``.
The tuples of a cover sweep differ only in this labelling (a chunk c of
group i is admissible iff pi_i(c) lies in A_i), so every tuple shares one
plan over the product F = A_1 x ... x A_s of the groups' families, and a
batch of tuples runs along axis 0 of each array.  Held-Karp is one run
over F = 2^[n] with the identity labelling.

Only where the costs come from differs: int64 tables for a problem with
an array form, else its cost oracle on object arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimit
from .poset import _EDGE_BYTES, by_popcount, charge, edge_ends, family_layers, fan_out
from .semiring import ARRAY_INF, INF, MIN_PLUS, ArrayCosts, PermutationProblem

# entries of one (tuples, transitions) scratch array; bounds the sweep's
# batch size, and with it the memory a sweep adds to the process (about 3
# such arrays).  gs sizes its chunks by ``poset._BLOCK_ENTRIES`` instead.
SCRATCH_ENTRIES = 1 << 15


@dataclass(frozen=True)
class _Layer:
    """The states of popcount layer k and the transitions into them.

    The transitions into a state are contiguous and ordered by state, so
    ``starts`` opens each state's run of transitions.  A state's mask and
    key extend its first transition's predecessor's by that ``elem``.
    """

    pred: np.ndarray  # (T,) the layer k - 1 state each transition leaves
    starts: np.ndarray  # (S,) each state's first transition
    prev: np.ndarray  # (T,) that state's last element; n at the root and for degree 1
    elem: np.ndarray  # (T,) the element placed
    out: np.ndarray  # (S_{k-1},) transitions leaving each layer k - 1 state


def build_plan(family: np.ndarray, n: int, degree: int, budget: int) -> list[_Layer]:
    """Layers 1..n of the DP over ``family`` (distinct uint64 masks over n elements).

    The empty set is the root whether or not the family holds it, and the
    reachable masks and their edges are those of ``family_layers``.  An
    edge (a reachable mask less one element) and a state on the smaller
    mask make a transition into the state keyed by that state's key with
    the element appended, cut to its last d - 1.  The states on a mask are
    ordered by key, last element first, so the pairs of one edge that
    share a new key are contiguous, and a mask's edges, in element order,
    open its new states in that order without a sort.  Each layer's
    transitions are counted from its edges and, with those stored before
    them, charged against ``budget`` and at ``_EDGE_BYTES`` apiece before
    the layer holding them is built.
    """
    if n > 64:
        raise ResourceLimit("the DP plan holds masks of at most 64 elements")
    family = by_popcount(np.concatenate([family, np.zeros(1, dtype=np.uint64)]))
    below_mask = np.zeros(1, dtype=np.int64)  # degree >= 2: states' indices into ``masks``
    below_keys = np.zeros((1, 0), dtype=np.int64)  # degree >= 2: states' keys, last element last
    stored = 0
    layers = []
    edges = family_layers(family, n)
    masks = next(edges)[0]  # reachable masks of the layer below
    for k, (reached, up, opened) in enumerate(edges, 1):
        n_below = len(masks) if degree == 1 else len(below_mask)
        if degree >= 2:
            # an edge's transitions leave the states on its parent mask
            first = np.searchsorted(below_mask, np.arange(len(masks) + 1))
            lo = first[up]
            counts = first[up + 1] - lo
        stored += len(up) if degree == 1 else int(counts.sum())
        charge("DP plan", stored, budget, _EDGE_BYTES * stored)
        child, elem = edge_ends(reached, up, opened, masks)
        masks = reached
        if degree == 1:
            pred, starts, prev = up, opened, np.full(len(up), n)
        else:
            pred, opens = fan_out(lo, counts)
            prev = below_keys[pred, -1] if k > 1 else np.full(len(pred), n)
            elem = np.repeat(elem, counts)
            if degree == 2:
                starts, below_mask, below_keys = opens, child, elem[opens, None]
            else:
                # the new key drops the predecessor's oldest element once it has d - 1
                new = np.hstack([below_keys[pred, int(k >= degree) :], elem[:, None]])
                fresh = np.ones(len(pred), dtype=bool)
                fresh[1:] = (new[1:] != new[:-1]).any(axis=1)
                fresh[opens] = True
                starts = np.flatnonzero(fresh)
                below_mask, below_keys = np.repeat(child, counts)[starts], new[starts]
        out = np.bincount(pred, minlength=n_below)
        layers.append(_Layer(pred, starts, prev, elem, out))
    return layers


@dataclass
class Run:
    """One batch: per row its value, updates and live entries per layer."""

    values: np.ndarray  # (B,) objects, the semiring's values
    updates: np.ndarray  # (B,) transitions out of live states
    live: np.ndarray  # (B, n + 1) entries per layer that are not zero, the root's layer first
    # with keep_all, what walk reads: layers 1..n of (B, T) candidates and (B, S) values
    kept: list

    def peak(self) -> int:
        """Live entries a row holds at most: every layer if kept, else two consecutive."""
        if self.kept:
            return int(self.live.sum(axis=1).max())
        return int((self.live[:, :-1] + self.live[:, 1:]).max())


class ArrayDP:
    """A plan over one family with the costs of one problem.

    With the problem's array form, a transition's cost is one gather from
    an int64 step table, and back costs (``ArrayCosts.back``) are summed
    along the plan: a run carries, for each state and each element q, the
    back cost of q to the state's prefix set, one row add per state from
    its first predecessor's sums.  Without it, a run calls ``cost_fn``.
    """

    def __init__(self, problem: PermutationProblem, family, budget: int):
        self.n, self.degree, self.cost_fn = problem.n, problem.degree, problem.cost_fn
        self.layers = build_plan(family, self.n, self.degree, budget)
        self.plan_entries = sum(len(layer.pred) for layer in self.layers)
        self.sizes = [1] + [len(layer.starts) for layer in self.layers]
        sr, costs = problem.semiring, problem.arrays
        self.step = None if costs is None else _step_table(costs, self.n)
        self.back = None if costs is None else costs.back
        self.zero, self.one = (sr.zero, sr.one) if costs is None else (ARRAY_INF, 0)
        if sr is MIN_PLUS:  # every array form is min-plus
            self.mul, self.add = np.add, np.minimum
        else:
            self.mul, self.add = np.frompyfunc(sr.mul, 2, 1), np.frompyfunc(sr.add, 2, 1)

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
        unless one row alone does.  One row's dense tables, at 8 bytes an
        entry, are charged before any is allocated.
        """
        room = budget - self.plan_entries
        dense = self.entries(keep_all)
        charge("DP table", self.plan_entries + dense, budget, 8 * dense)
        scratch = max(1, *(len(layer.pred) for layer in self.layers))
        if self.back is not None:
            scratch = max(scratch, self.n * max(self.sizes))
        return max(1, min(rows, room // dense, SCRATCH_ENTRIES // scratch))

    def run(self, inv: np.ndarray, keep_all: bool = False) -> Run:
        """The DP for each labelling row of ``inv`` (B, n)."""
        inv = np.asarray(inv, dtype=np.int64)
        rows = len(inv)
        tables = self.step is not None
        costs = self._table_costs(inv) if tables else self._oracle_costs(inv)
        vals = np.full((rows, 1), self.one, dtype=np.int64 if tables else object)
        updates = np.zeros(rows, dtype=np.int64)
        live = [np.ones(rows, dtype=np.int64)]
        kept = []
        for k, layer in enumerate(self.layers, 1):
            alive = vals != self.zero
            updates += alive @ layer.out
            cand = costs(k, layer, alive)
            self.mul(vals[:, layer.pred], cand, out=cand)
            vals = self.add.reduceat(cand, layer.starts, axis=1)
            if tables:
                np.minimum(vals, ARRAY_INF, out=vals)
            live.append(np.count_nonzero(vals != self.zero, axis=1))
            if keep_all:
                kept.append((cand, vals))
        values = self.add.reduce(vals, axis=1, initial=self.zero)
        if tables:
            values = np.where(values < ARRAY_INF, values.astype(object), INF)
        return Run(values, updates, np.stack(live, axis=1), kept)

    def _table_costs(self, inv: np.ndarray):
        """costs(k, layer, alive): layer k's (B, T) transition costs from the tables."""
        rows, n = inv.shape
        ext = np.hstack([inv, np.full((rows, 1), n)])
        if self.back is not None:
            # back_t[b, u, q] = back cost of q to u under row b's labels
            back_t = self.back.T[inv[:, :, None], inv[:, None, :]]
            sums = np.zeros((rows, 1, n), dtype=np.int64)

        def costs(k, layer, alive):
            nonlocal sums
            # in place where possible: at most three (B, T) arrays live at once
            index = ext[:, layer.prev]
            index *= n
            index += inv[:, layer.elem]
            cand = self.step[k][index]
            del index
            if self.back is not None:
                cand += sums.reshape(rows, -1)[:, layer.pred * n + layer.elem]
                sums = sums[:, layer.pred[layer.starts]] + back_t[:, layer.elem[layer.starts]]
            return cand

        return costs

    def _oracle_costs(self, inv: np.ndarray):
        """costs(k, layer, alive): layer k's (B, T) transition costs from ``cost_fn``.

        Each transition out of a live state is one call, on its mask and
        window in the row's labels; any other costs ``one``, as zero
        annihilates.  The states' masks and keys are built layer by layer.
        """
        rows, n = inv.shape
        bits = np.left_shift(np.uint64(1), np.arange(n, dtype=np.uint64))
        masks = np.zeros(1, dtype=np.uint64)
        keys = np.zeros((1, 0), dtype=np.int64)

        def costs(k, layer, alive):
            nonlocal masks, keys
            first = layer.starts
            window = np.hstack([keys[layer.pred], layer.elem[:, None]])
            masks = masks[layer.pred[first]] | bits[layer.elem[first]]
            keys = window[first, window.shape[1] - min(k, self.degree - 1) :]
            b, t = np.nonzero(alive[:, layer.pred])
            state = np.searchsorted(first, t, side="right") - 1
            own = _relabel(masks, inv)[b, state].tolist()
            windows = map(tuple, inv[b[:, None], window[t]].tolist())
            cand = np.full((rows, len(layer.pred)), self.one, dtype=object)
            cand[b, t] = np.array(list(map(self.cost_fn, own, windows)), dtype=object)
            return cand

        return costs

    def walk(self, run: Run, inv: np.ndarray) -> tuple:
        """The first optimal order of a one-row ``keep_all`` run in the problem's labels.

        It ends in the optimal last-layer state of least key, and each step
        back takes, of the transitions whose candidate equals the state's
        value, the one of least element, then least predecessor key.  Keys
        compare in the problem's labels, last element first.
        """
        top = len(self.layers)
        finals = np.flatnonzero(run.kept[-1][1][0] == run.values[0]).tolist()
        state = min(finals, key=lambda s: self._key(top, s, inv))
        order = []
        for k in range(top, 0, -1):
            layer, (cand, vals) = self.layers[k - 1], run.kept[k - 1]
            lo = layer.starts[state]
            hi = layer.starts[state + 1] if state + 1 < len(layer.starts) else len(layer.pred)
            ties = (lo + np.flatnonzero(cand[0, lo:hi] == vals[0, state])).tolist()
            t = min(ties, key=lambda t: (inv[layer.elem[t]], self._key(k - 1, layer.pred[t], inv)))
            order.append(int(inv[layer.elem[t]]))
            state = int(layer.pred[t])
        return tuple(reversed(order))

    def _key(self, k: int, state: int, inv: np.ndarray) -> list:
        """The key of layer k's ``state`` in the problem's labels, last element first."""
        key = []
        while k and len(key) < self.degree - 1:
            layer = self.layers[k - 1]
            t = layer.starts[state]
            key.append(int(inv[layer.elem[t]]))
            state, k = layer.pred[t], k - 1
        return key


def _relabel(masks: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """(B, S): row b holds ``masks`` with each bit x moved to bit inv[b, x]."""
    out = np.zeros((len(inv), len(masks)), dtype=np.uint64)
    to = inv.astype(np.uint64)
    for x in range(inv.shape[1]):
        out |= ((masks >> np.uint64(x)) & np.uint64(1)) << to[:, x, None]
    return out


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
