"""Permutation covers: families F such that for every permutation pi some
pi' in F sends pi to a maximal chain of the set system.

Composition is fixed as (pi' . pi)(i) = pi'(pi(i)) throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import permutations
from math import factorial, log

import numpy as np

from .errors import DimensionMismatch, InvalidPermutation, NoChains, ResourceLimit
from .poset import edge_ends, family_layers, fan_out
from .setsystem import SetSystem, count_maximal_chains  # noqa: F401 (bench/spans.py wraps it here)

# covers are built and verified over all of S_n, and ``_ranks`` looks ranks
# up in a table of n^(n-1) int32 entries: 8 MB at n = 8, 470 KB at n = 7.
# Its float32 codes are exact while n^(n-1) <= 2^24, which holds up to
# n = 8 (8^7 = 2^21) and fails at n = 9 (9^8 > 2^25)
MAX_N = 8
# codes computed in one matrix product; bounds the scratch arrays at about
# 16 B a code (the float32 product, its intp codes, their int32 ranks), 1 MB
_BLOCK = 1 << 16


@dataclass(frozen=True)
class PermutationCover:
    n: int
    perms: tuple
    certified: bool

    def __len__(self):
        return len(self.perms)


def cover_size_bound(n: int, chains: int) -> float:
    """Greedy guarantee: (n!/c(A)) * (1 + ln c(A)).

    Every candidate covers exactly c(A) permutations and every permutation
    lies in exactly c(A) candidates, so greedy set cover stays within this
    (Lovasz 1975; Stein 1974).
    """
    return factorial(n) / chains * (1 + log(chains))


# ---------------------------------------------------------------------------
# S_n as arrays: a permutation is a uint8 row of images, and its rank is its
# lexicographic index, the order ``itertools.permutations`` yields.  Row r of
# ``_all_permutations(n)`` has rank r.  A permutation's code reads its first
# n - 1 images as base-n digits, least significant first; the last image is
# implied, so distinct permutations get distinct codes below n^(n-1), and
# ``_rank_table`` maps codes to ranks.  Every rank the covers need, of a
# row or of a composite, comes from one kernel, ``_ranks``: a matrix
# product against place values, then a lookup.  The tables are built once
# per n, on first use.


@cache
def _all_permutations(n: int):
    table = np.array(list(permutations(range(n))), dtype=np.uint8).reshape(-1, n)
    table.flags.writeable = False
    return table


@cache
def _rank_table(n: int):
    """int32 lexicographic rank of each permutation of [n], indexed by its
    code; n^(n-1) entries, 8 MB at n = 8."""
    perms = _all_permutations(n)
    codes = perms @ _weights(np.arange(n, dtype=np.uint8)[None])
    table = np.zeros(n ** (n - 1), dtype=np.int32)
    table[codes[:, 0].astype(np.intp)] = np.arange(len(perms), dtype=np.int32)
    table.flags.writeable = False
    return table


def _inverses(perms):
    """The inverses of the rows of a uint8 permutation table."""
    return np.argsort(perms, axis=1).astype(np.uint8)


def _weights(perms):
    """Place values of the rows p_j of a uint8 permutation table, as an
    (n, k) float32 table: entry [v, j] is n^p_j(v), and 0 where
    p_j(v) = n - 1, the implied last digit."""
    n = perms.shape[1]
    place = n ** np.arange(n, dtype=np.float32)
    place[-1] = 0
    return place[perms.T]


def _ranks(rows, weights):
    """int32 ranks of rows[i] . p_j^-1, for weights = ``_weights(p)``.

    (rows[i] . p_j^-1)(t) = rows[i, v] at t = p_j(v), so its code is
    sum_v rows[i, v] * n^p_j(v) over p_j(v) < n - 1: entry [i, j] of the
    product ``rows @ weights``, float32 for uint8 rows.  Codes and every
    partial sum are integers below n^(n-1) <= 8^7 = 2^21, and float32 holds
    every integer up to 2^24, so the float32 product is exact in any order
    of summation.  It is float32 rather than float64 because numpy converts
    float32 to intp several times faster: 0.4 against 2.7 ms for 576 x 576
    codes on an x86-64 VM.
    """
    codes = rows @ weights
    return _rank_table(rows.shape[1]).take(codes.astype(np.intp))


def _chain_table(a: SetSystem):
    """The chain permutations of A, as the rows of a uint8 table in no
    particular order: the paths from the empty set along the Hasse edges
    of ``family_layers``, where an edge appends its element to every path
    that ends on its parent.  Only the edges into members that reach [n]
    carry paths, so no row grows towards a dead end."""
    layers = list(family_layers(a.masks, a.n))
    # ends[k]: the child of each edge into layer k + 1, as an index into
    # it, and the element the edge adds
    ends = [edge_ends(*into, below) for (below, _, _), into in zip(layers, layers[1:])]
    # live[k]: whether each edge into layer k + 1 ends on a member that
    # reaches [n], marked by a backward pass from the last layer
    live = [None] * a.n
    reach = np.ones(layers[-1][0].size, dtype=bool)
    for k in range(a.n - 1, -1, -1):
        live[k] = reach[ends[k][0]]
        reach = np.zeros(layers[k][0].size, dtype=bool)
        reach[layers[k + 1][1][live[k]]] = True
    roots = layers[0][0].size
    paths = np.zeros((roots, 0), dtype=np.uint8)
    # rows first[i] .. first[i] + sizes[i] - 1 end on member i of the layer below
    first, sizes = np.zeros(roots, dtype=np.intp), np.ones(roots, dtype=np.intp)
    for (_, src, starts), (_, elem), on in zip(layers[1:], ends, live):
        counts = sizes[src] * on
        rows, opens = fan_out(first[src], counts)
        paths = np.concatenate([paths[rows], elem.astype(np.uint8).repeat(counts)[:, None]], axis=1)
        first, sizes = opens[starts], np.add.reduceat(counts, starts)
    return paths


def _covered_ranks(perms, through):
    """Ranks of the permutations that the rows of a uint8 table cover, in
    blocks of rows, for through = ``_weights`` of the chains' inverses: a
    block's row i lists pi_i^-1 . c over the chains c."""
    inverses = _inverses(perms)
    step = max(1, _BLOCK // through.shape[1])
    for lo in range(0, len(inverses), step):
        yield _ranks(inverses[lo : lo + step], through)


def greedy_cover(a: SetSystem) -> PermutationCover:
    """Certified cover by greedy set cover over the universe S_n.

    Each candidate pi' covers S(pi') = {pi : pi'.pi is a chain of A}
    = {pi'^-1 . c : c a chain permutation}, so pi is covered by exactly the
    candidates c . pi^-1.  ``gains[r]`` counts the uncovered permutations
    the candidate of rank r would cover.  A pick's row, ``_ranks`` of
    pi'^-1 against the place values of the chains' inverses, lists S(pi');
    each newly covered pi is taken away from the gains of its c(A)
    candidates, ``_ranks`` of the chains against pi's place values.  Ties
    break toward the lexicographically smallest pi' (``argmax`` returns
    the first maximum) for reproducibility.
    """
    n = a.n
    if n > MAX_N:
        raise ResourceLimit(f"greedy cover materializes S_n; capped at n = {MAX_N}")
    chains = _chain_table(a)
    if not len(chains):
        raise NoChains("set system has no maximal chain")
    perms = _all_permutations(n)
    through = _weights(_inverses(chains))
    gains = np.full(len(perms), len(chains), dtype=np.intp)
    uncovered = np.ones(len(perms), dtype=bool)
    left = len(perms)
    step = max(1, _BLOCK // len(chains))
    chosen = []
    while left:
        best = int(gains.argmax())
        chosen.append(tuple(perms[best].tolist()))
        row = _ranks(_inverses(perms[best : best + 1]), through)[0]
        fresh = row[uncovered[row]]
        uncovered[fresh] = False
        left -= len(fresh)
        if not left:  # the last pick's gains are never read
            break
        for lo in range(0, len(fresh), step):
            lost = _ranks(chains, _weights(perms[fresh[lo : lo + step]]))
            gains -= np.bincount(lost.ravel(), minlength=len(gains))
    return PermutationCover(n=n, perms=tuple(chosen), certified=True)


# ---------------------------------------------------------------------------
# Seeded random permutations: splitmix64 feeding Fisher-Yates, so covers are
# bit-reproducible across platforms.  The scalar generator draws one value
# at a time; ``random_permutations`` draws a block of rows from the same
# stream.

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        # rejection sampling keeps the draw unbiased
        limit = _MASK64 - (_MASK64 + 1) % bound
        while True:
            v = self.next_u64()
            if v <= limit:
                return v % bound


def _outputs(state: int, k: int):
    """The k SplitMix64 outputs after ``state``, as a uint64 array: the i-th
    one is mix(state + i * gamma), so they need no loop."""
    z = np.uint64(state) + np.arange(1, k + 1, dtype=np.uint64) * np.uint64(_GAMMA)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def random_permutations(n: int, count: int, rng: SplitMix64):
    """``count`` uniform permutations of [n] as uint8 rows.

    Each row is Fisher-Yates over ``rng.below``: position i swaps with
    below(i + 1) for i = n - 1 down to 1.  The draws of all rows come from
    one block of outputs, and ``rng.state`` ends where those ``below`` calls
    would leave it.
    """
    bounds = np.tile(np.arange(n, 1, -1, dtype=np.uint64), count)
    # below(b) rejects the outputs above 2^64 - 1 - (2^64 mod b), and the
    # stream after a rejection shifts by one; for b <= 8 that is a chance
    # below 2^-61 per draw
    limits = np.uint64(_MASK64) - (np.uint64(_MASK64) % bounds + np.uint64(1)) % bounds
    values = np.empty(len(bounds), dtype=np.uint64)
    done = 0
    while done < len(values):
        v = _outputs(rng.state, len(values) - done)
        rejected = np.flatnonzero(v > limits[done:])
        kept = int(rejected[0]) if len(rejected) else len(v)
        values[done : done + kept] = v[:kept]
        done += kept
        consumed = kept + 1 if len(rejected) else kept
        rng.state = (rng.state + consumed * _GAMMA) & _MASK64
    swaps = (values % bounds).astype(np.intp).reshape(count, n - 1)
    out = np.tile(np.arange(n, dtype=np.uint8), (count, 1))
    rows = np.arange(count)
    for col, i in enumerate(range(n - 1, 0, -1)):
        j = swaps[:, col]
        held = out[:, i].copy()
        out[:, i] = out[rows, j]
        out[rows, j] = held
    return out


def randomized_cover(a: SetSystem, seed: int) -> PermutationCover:
    """Certified cover from seeded uniform permutations, pruned to a minimal one.

    Permutations are drawn in blocks of ceil(n!/c(A)), the fewest a cover
    can hold, until their covered ranks mark all of S_n.  Reverse deletion
    then walks the draws from last to first and drops each one whose every
    covered permutation is still covered by another kept draw.  It visits
    only the first coverers, the draws that are the lowest-index coverer of
    some permutation.  Any other draw is always dropped: every permutation
    it covers has a lower-index coverer, still present at its turn.  A
    first coverer is kept iff some permutation it covered first is covered
    by no kept later draw, since no earlier draw covers that one.  A kept
    draw covers some permutation no other kept draw does, so no member can
    be dropped.  A draw covers exactly c(A) permutations, so when the
    covered sets partition S_n (a tower's chains form a Young subgroup and
    they are its cosets) the cover has exactly n!/c(A) members.
    """
    n = a.n
    if n > MAX_N:
        raise ResourceLimit(f"random cover is certified over S_n; capped at n = {MAX_N}")
    chains = _chain_table(a)
    if not len(chains):
        raise NoChains("set system has no maximal chain")
    rng = SplitMix64(seed)
    through = _weights(_inverses(chains))
    batch = -(-factorial(n) // len(chains))
    marked = np.zeros(factorial(n), dtype=bool)
    batches, blocks = [], []
    while not marked.all():
        batches.append(random_permutations(n, batch, rng))
        for covered in _covered_ranks(batches[-1], through):
            marked[covered] = True
            blocks.append(covered)
    drawn, rows = np.vstack(batches), np.vstack(blocks)
    del batches, blocks
    first = np.full(len(marked), len(rows), dtype=np.int32)
    draws = np.arange(len(rows), dtype=np.int32)
    np.minimum.at(first, rows.ravel(), draws.repeat(len(chains)))
    # the permutations each first coverer covered first, as runs of ``order``
    order = np.argsort(first)
    owners, starts = np.unique(first[order], return_index=True)
    ends = [*starts[1:].tolist(), len(order)]
    covered = np.zeros(len(marked), dtype=bool)
    keep = np.zeros(len(drawn), dtype=bool)
    for i, lo, hi in zip(owners[::-1].tolist(), starts[::-1].tolist(), ends[::-1]):
        if not covered[order[lo:hi]].all():
            keep[i] = True
            covered[rows[i]] = True
    perms = tuple(map(tuple, drawn[keep].tolist()))
    return PermutationCover(n=n, perms=perms, certified=True)


def verify_cover(a: SetSystem, cover: PermutationCover) -> bool:
    """True iff every permutation of [n] is sent to a chain by some member.

    pi is covered iff pi = pi'^-1 . c for a member pi' and a chain c, so the
    cover is certified iff those ranks mark all of S_n.
    """
    n = a.n
    if cover.n != n:
        raise DimensionMismatch(f"cover over {cover.n} elements, system over {n}")
    if n > MAX_N:
        raise ResourceLimit(f"verification enumerates S_n; capped at n = {MAX_N}")
    if any(sorted(pi) != list(range(n)) for pi in cover.perms):
        raise InvalidPermutation("a cover member is not a permutation of [n]")
    chains = _chain_table(a)
    if not len(chains):
        return False
    members = np.array(cover.perms, dtype=np.uint8).reshape(-1, n)
    marked = np.zeros(factorial(n), dtype=bool)
    for covered in _covered_ranks(members, _weights(_inverses(chains))):
        marked[covered] = True
    return bool(marked.all())
