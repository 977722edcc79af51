"""Idempotent semirings and the degree-d permutation-problem abstraction.

A permutation problem asks for the semiring sum, over all permutations
sigma of [N], of a product of local costs f_j.  Each f_j sees the prefix
set {sigma_1,...,sigma_j} and a window of the last min(d, j) placed
elements.  Elements are 0-indexed throughout; prefix sets are bitmasks.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import permutations
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidInstance, InvalidPermutation, InvalidSize
from .poset import MAX_ELEMENTS

INF = float("inf")

MAX_DEGREE = 4

# Array forms hold int64 costs with ARRAY_INF in place of INF.  A problem
# gets one only when its largest finite order cost is below ARRAY_INF, so
# every finite partial sum is exact and below ARRAY_INF; a DP step adds at
# most two costs of at most ARRAY_INF to a value of at most ARRAY_INF, so
# int64 never wraps.
ARRAY_INF = 1 << 61


@dataclass(frozen=True)
class Semiring:
    """An (add, mul) semiring over plain Python payloads.

    ``zero`` is the additive identity and annihilates ``mul``; ``one`` is
    the multiplicative identity.
    """

    add: Callable
    mul: Callable
    zero: object
    one: object
    idempotent: bool

    def add_many(self, values):
        acc = self.zero
        for v in values:
            acc = self.add(acc, v)
        return acc


MIN_PLUS = Semiring(
    add=min,
    mul=lambda a, b: a + b,
    zero=INF,
    one=0,
    idempotent=True,
)

BOOLEAN = Semiring(
    add=lambda a, b: a or b,
    mul=lambda a, b: a and b,
    zero=False,
    one=True,
    idempotent=True,
)

# Non-idempotent sum-product semiring.  Held-Karp accepts it; the
# chain-tradeoff solver must reject it.
SUM_PRODUCT = Semiring(
    add=lambda a, b: a + b,
    mul=lambda a, b: a * b,
    zero=0,
    one=1,
    idempotent=False,
)


@dataclass(frozen=True, eq=False)
class ArrayCosts:
    """The local costs of a min-plus problem of degree 1 or 2 as int64 arrays.

    Placing q at position j, after the prefix S whose last element is p,
    costs first[q] if j == 1 and pair[p, q] otherwise, plus last[q] if j
    is the last position, plus back[q, u] for each u in S.  ``pair`` is
    None for degree 1, where only first, last and back apply; ``back`` is
    None when no cost reads the prefix set.  ARRAY_INF forbids a step.
    """

    first: np.ndarray
    last: np.ndarray
    pair: np.ndarray | None = None
    back: np.ndarray | None = None


@dataclass(frozen=True)
class PermutationProblem:
    """A degree-d permutation problem over ``semiring``.

    ``cost_fn(prefix_mask, window)`` must be pure.  ``window`` is the
    tuple of the last min(d, j) placed elements where j is the popcount
    of ``prefix_mask`` (the prefix includes the element just placed).
    ``arrays``, when set, holds the same min-plus costs as arrays, and the
    solvers run their array kernel on it instead of calling ``cost_fn``.
    """

    n: int
    degree: int
    semiring: Semiring
    cost_fn: Callable[[int, tuple], object]
    arrays: ArrayCosts | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise InvalidInstance("need at least one element")
        if not 1 <= self.degree <= MAX_DEGREE:
            raise InvalidInstance(f"degree must be in [1, {MAX_DEGREE}]")


@dataclass(frozen=True)
class TspInstance:
    """N cities with an integer (or INF) weight matrix; diagonal ignored."""

    n: int
    weights: tuple

    @classmethod
    def from_matrix(cls, rows: Sequence[Sequence]) -> "TspInstance":
        n = len(rows)
        if n < 2:
            raise InvalidInstance("TSP needs at least 2 cities")
        if n > MAX_ELEMENTS + 1:
            # city 0 anchors the tour; the others are the DP's elements
            raise InvalidSize(f"TSP takes at most {MAX_ELEMENTS + 1} cities, got {n}")
        for row in rows:
            if len(row) != n:
                raise InvalidInstance("weight matrix must be square")
            for w in row:
                if w != INF and (not isinstance(w, int) or w < 0):
                    raise InvalidInstance(f"weights must be nonnegative integers or inf, got {w!r}")
        return cls(n, tuple(tuple(row) for row in rows))


@dataclass(frozen=True)
class DfasInstance:
    """Digraph for directed feedback arc set; parallel arcs allowed."""

    n: int
    arcs: tuple

    @classmethod
    def from_arcs(cls, n: int, arcs) -> "DfasInstance":
        if n < 1:
            raise InvalidInstance("DFAS needs at least one vertex")
        if n > MAX_ELEMENTS:
            raise InvalidSize(f"DFAS takes at most {MAX_ELEMENTS} vertices, got {n}")
        arcs = tuple((int(u), int(v)) for u, v in arcs)
        for u, v in arcs:
            if u == v:
                raise InvalidInstance("self-loops are not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidInstance("arc endpoint out of range")
        return cls(n, arcs)


def tsp_weight_array(inst: TspInstance) -> np.ndarray | None:
    """The weights as int64, ARRAY_INF for INF and on the ignored diagonal.

    A tour or path has at most N edges, so N times the largest finite
    weight bounds every finite sum; the array is returned only when that
    bound is below ARRAY_INF, and None otherwise.
    """
    n = inst.n
    off = [[x for j, x in enumerate(row) if j != i] for i, row in enumerate(inst.weights)]
    largest = max((x for row in off for x in row if x != INF), default=0)
    if n * largest >= ARRAY_INF:
        return None
    m = np.full((n, n), ARRAY_INF, dtype=np.int64)
    m[~np.eye(n, dtype=bool)] = [ARRAY_INF if x == INF else x for row in off for x in row]
    return m


def tsp_as_permutation_problem(inst: TspInstance) -> PermutationProblem:
    """Encode TSP as a min-plus problem of degree 2 over cities 1..N-1.

    Tours are anchored at city 0: element e stands for city e+1, the
    opening edge is charged at j=1 and the closing edge at j=N-1, so the
    minimum over all permutations is the optimal tour length.  The array
    form is attached when ``tsp_weight_array`` gives one.
    """
    n = inst.n
    w = inst.weights
    last_pos = n - 1
    m = tsp_weight_array(inst)
    arrays = None
    if m is not None:
        arrays = ArrayCosts(first=m[0, 1:], last=m[1:, 0], pair=m[1:, 1:])

    def cost(prefix_mask: int, window: tuple):
        j = prefix_mask.bit_count()
        city = window[-1] + 1
        if j == 1:
            c = w[0][city]
        else:
            c = w[window[-2] + 1][city]
        if j == last_pos:
            c = c + w[city][0]
        return c

    return PermutationProblem(n=n - 1, degree=2, semiring=MIN_PLUS, cost_fn=cost, arrays=arrays)


def dfas_as_permutation_problem(inst: DfasInstance) -> PermutationProblem:
    """Encode DFAS as a degree-1 min-plus problem.

    Placing vertex v after S charges one unit per arc from v back into
    S, so the optimum over permutations is the minimum number of arcs
    whose removal makes the digraph acyclic.  Each vertex's out-neighbours
    are grouped by arc multiplicity into one bitmask per multiplicity;
    v is never its own out-neighbour, so the prefix mask needs no
    masking of v.  The array form is the arc-multiplicity matrix; no
    order costs more than the number of arcs, which int64 holds exactly.
    """
    out: list[Counter] = [Counter() for _ in range(inst.n)]
    for u, v in inst.arcs:
        out[u][v] += 1
    by_mult: list[tuple] = []
    for counts in out:
        masks: dict[int, int] = {}
        for u, mult in counts.items():
            masks[mult] = masks.get(mult, 0) | (1 << u)
        by_mult.append(tuple(sorted(masks.items())))

    def cost(prefix_mask: int, window: tuple):
        total = 0
        for mult, mask in by_mult[window[-1]]:
            total += mult * (prefix_mask & mask).bit_count()
        return total

    arc_counts = np.array([[counts[u] for u in range(inst.n)] for counts in out], dtype=np.int64)
    zeros = np.zeros(inst.n, dtype=np.int64)
    arrays = ArrayCosts(first=zeros, last=zeros, back=arc_counts)
    return PermutationProblem(n=inst.n, degree=1, semiring=MIN_PLUS, cost_fn=cost, arrays=arrays)


def evaluate_permutation(problem: PermutationProblem, sigma: Sequence[int]):
    """Product of the local costs of ``sigma``; the brute-force oracle."""
    n = problem.n
    if len(sigma) != n or set(sigma) != set(range(n)):
        raise InvalidPermutation(f"not a permutation of range({n}): {sigma!r}")
    d = problem.degree
    sr = problem.semiring
    acc = sr.one
    mask = 0
    for j in range(1, n + 1):
        mask |= 1 << sigma[j - 1]
        window = tuple(sigma[max(0, j - d):j])
        acc = sr.mul(acc, problem.cost_fn(mask, window))
    return acc


def brute_force_optimum(problem: PermutationProblem):
    """Semiring sum of evaluate_permutation over all of S_n (reference oracle)."""
    sr = problem.semiring
    return sr.add_many(
        evaluate_permutation(problem, sigma) for sigma in permutations(range(problem.n))
    )
