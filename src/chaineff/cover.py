"""Permutation covers: families F such that for every permutation pi some
pi' in F sends pi to a maximal chain of the set system.

Composition is fixed as (pi' . pi)(i) = pi'(pi(i)) throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from math import factorial, log

import numpy as np

from .errors import DimensionMismatch, InvalidPermutation, NoChains, ResourceLimit
from .setsystem import SetSystem, count_maximal_chains  # noqa: F401 (bench/spans.py wraps it here)

# covers are built and verified over all of S_n, and ``_ranks`` keeps the
# used images of a permutation in a uint8 bitmask
MAX_N = 8
# permutation entries composed in one numpy pass; bounds the scratch arrays,
# about 1 MB for verify_cover at n = 7
_BLOCK = 1 << 18


@dataclass(frozen=True)
class PermutationCover:
    n: int
    perms: tuple
    certified: bool

    def __len__(self):
        return len(self.perms)


def chain_permutations(a: SetSystem):
    """All permutations whose every prefix set is a member of A."""
    n = a.n
    if 0 not in a:
        return []
    out = []
    stack = [(0, ())]
    while stack:
        mask, prefix = stack.pop()
        if len(prefix) == n:
            out.append(prefix)
            continue
        for v in range(n):
            bit = 1 << v
            if mask & bit:
                continue
            if (mask | bit) in a:
                stack.append((mask | bit, prefix + (v,)))
    return out


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
# ``_all_permutations(n)`` has rank r.


def _all_permutations(n: int):
    return np.array(list(permutations(range(n))), dtype=np.uint8).reshape(-1, n)


def _ranks(perms):
    """int32 lexicographic ranks of the rows of a uint8 permutation table.

    The Lehmer digit of position i counts the images after i that are
    smaller, i.e. perms[i] minus the smaller images already used; the rank
    sums digit_i * (n - 1 - i)!, accumulated in Horner form.  The used
    images are a uint8 bitmask, so n <= 8.
    """
    k, n = perms.shape
    rank = np.zeros(k, dtype=np.int32)
    used = np.zeros(k, dtype=np.uint8)
    for i in range(n - 1):
        bit = np.left_shift(np.uint8(1), perms[:, i])
        digit = perms[:, i] - np.bitwise_count(used & (bit - np.uint8(1)))
        used |= bit
        rank = rank * (n - i) + digit
    return rank


def _chain_table(a: SetSystem):
    return np.array(chain_permutations(a), dtype=np.uint8).reshape(-1, a.n)


def _covered_ranks(perms, chains):
    """Ranks of the permutations that the rows of a uint8 table cover, in
    blocks of rows: a block's row i lists pi_i^-1 . c over the chains c."""
    n = chains.shape[1]
    inverses = np.argsort(perms.reshape(-1, n), axis=1).astype(np.uint8)
    step = max(1, _BLOCK // (len(chains) * n))
    for lo in range(0, len(inverses), step):
        block = inverses[lo : lo + step][:, chains].reshape(-1, n)
        yield _ranks(block).reshape(-1, len(chains))


def greedy_cover(a: SetSystem) -> PermutationCover:
    """Certified cover by greedy set cover over the universe S_n.

    Each candidate pi' covers S(pi') = {pi : pi'.pi is a chain of A}
    = {pi'^-1 . c : c a chain permutation}, so pi is covered by exactly the
    candidates c . pi^-1.  ``gains[r]`` counts the uncovered permutations
    the candidate of rank r would cover; a pick covers its row and takes
    each newly covered pi away from the gains of its c(A) candidates.  Ties
    break toward the lexicographically smallest pi' (``np.argmax`` returns
    the first maximum) for reproducibility.
    """
    n = a.n
    if n > MAX_N:
        raise ResourceLimit(f"greedy cover materializes S_n; capped at n = {MAX_N}")
    chains = _chain_table(a)
    if not len(chains):
        raise NoChains("set system has no maximal chain")
    perms = _all_permutations(n)
    inverses = np.argsort(perms, axis=1).astype(np.uint8)
    gains = np.full(len(perms), len(chains), dtype=np.int32)
    uncovered = np.ones(len(perms), dtype=bool)
    left = len(perms)
    step = max(1, _BLOCK // (len(chains) * n))
    chosen = []
    while left:
        best = int(np.argmax(gains))
        chosen.append(tuple(perms[best].tolist()))
        row = _ranks(inverses[best][chains])
        fresh = row[uncovered[row]]
        uncovered[fresh] = False
        left -= len(fresh)
        if not left:  # the last pick's gains are never read
            break
        for lo in range(0, len(fresh), step):
            lost = _ranks(chains[:, inverses[fresh[lo : lo + step]]].reshape(-1, n))
            gains -= np.bincount(lost, minlength=len(gains)).astype(np.int32)
    return PermutationCover(n=n, perms=tuple(chosen), certified=True)


# ---------------------------------------------------------------------------
# Seeded random permutations: splitmix64 feeding Fisher-Yates, so covers are
# bit-reproducible across platforms.

_MASK64 = (1 << 64) - 1


class SplitMix64:
    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
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


def random_permutation(n: int, rng: SplitMix64) -> tuple:
    out = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.below(i + 1)
        out[i], out[j] = out[j], out[i]
    return tuple(out)


def randomized_cover(a: SetSystem, seed: int) -> PermutationCover:
    """Certified cover from seeded uniform permutations, pruned to a minimal one.

    Permutations are drawn in blocks of ceil(n!/c(A)), the fewest a cover
    can hold, until their covered ranks mark all of S_n.  Reverse
    deletion then walks the draws from last to first and drops each one
    whose every covered permutation is still covered by another kept draw;
    a kept draw covers some permutation no other kept draw does, so no
    member can be dropped.  A draw covers exactly c(A) permutations, so
    when the covered sets partition S_n (a tower's chains form a Young
    subgroup and they are its cosets) the cover has exactly n!/c(A) members.
    """
    n = a.n
    if n > MAX_N:
        raise ResourceLimit(f"random cover is certified over S_n; capped at n = {MAX_N}")
    chains = _chain_table(a)
    if not len(chains):
        raise NoChains("set system has no maximal chain")
    rng = SplitMix64(seed)
    batch = -(-factorial(n) // len(chains))
    marked = np.zeros(factorial(n), dtype=bool)
    drawn, blocks = [], []
    while not marked.all():
        draws = [random_permutation(n, rng) for _ in range(batch)]
        for covered in _covered_ranks(np.array(draws, dtype=np.uint8), chains):
            marked[covered] = True
            blocks.append(covered)
        drawn += draws
    rows = np.vstack(blocks)
    counts = np.bincount(rows.ravel(), minlength=len(marked))
    keep = np.ones(len(drawn), dtype=bool)
    for i in range(len(drawn) - 1, -1, -1):
        if counts[rows[i]].min() > 1:
            counts[rows[i]] -= 1
            keep[i] = False
    perms = tuple(pi for pi, kept in zip(drawn, keep.tolist()) if kept)
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
    marked = np.zeros(factorial(n), dtype=bool)
    for covered in _covered_ranks(np.array(cover.perms, dtype=np.uint8), chains):
        marked[covered] = True
    return bool(marked.all())
