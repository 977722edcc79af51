"""Independent checks for the benchmark's outputs.

Nothing here imports ``chaineff``: every reference is computed from the
raw inputs (weight matrices, arc lists, member lists, offsets) with its
own plain implementation.  ``self_test`` checks these references against
brute force at tiny sizes; ``python3 bench/checks.py`` runs it alone.
"""

from __future__ import annotations

import math
import random
from itertools import permutations

import numpy as np

INF = float("inf")


# ---------------------------------------------------------------------------
# TSP and DFAS references


def tsp_optimum(w) -> int:
    """Shortest tour through all cities of matrix ``w`` (Held-Karp 1962).

    State (S, j): a path from city 0 through the cities of S (a subset of
    1..N-1, bit i for city i+1) ending at city j+1.
    """
    k = len(w) - 1
    full = 1 << k
    dp = [[INF] * k for _ in range(full)]
    for j in range(k):
        dp[1 << j][j] = w[0][j + 1]
    for s in range(1, full):
        row = dp[s]
        free = (full - 1) & ~s
        for j in range(k):
            c = row[j]
            if c == INF:
                continue
            wj = w[j + 1]
            rest = free
            while rest:
                b = rest & -rest
                rest ^= b
                i = b.bit_length() - 1
                v = c + wj[i + 1]
                if v < dp[s | b][i]:
                    dp[s | b][i] = v
    last = dp[full - 1]
    return min(last[j] + w[j + 1][0] for j in range(k))


def _is_perm(seq, n) -> bool:
    return len(seq) == n and sorted(seq) == list(range(n))


def tour_cost(w, witness):
    """Length of the tour 0, witness[0]+1, ..., back to 0; None if malformed."""
    if not _is_perm(witness, len(w) - 1):
        return None
    cities = [0] + [e + 1 for e in witness]
    return sum(w[a][b] for a, b in zip(cities, cities[1:] + [0]))


def dfas_optimum(n: int, arcs) -> int:
    """Fewest backward arcs over all vertex orders (subset DP over prefixes)."""
    mult = [[0] * n for _ in range(n)]
    for u, v in arcs:
        mult[u][v] += 1
    full = 1 << n
    best = [INF] * full
    best[0] = 0
    for s in range(full):
        base = best[s]
        if base == INF:
            continue
        for v in range(n):
            if s >> v & 1:
                continue
            back = sum(mult[v][u] for u in range(n) if s >> u & 1)
            t = s | (1 << v)
            if base + back < best[t]:
                best[t] = base + back
    return best[full - 1]


def dfas_cost(n: int, arcs, order):
    """Arcs (u, v) with u placed after v; None if ``order`` is malformed."""
    if not _is_perm(order, n):
        return None
    pos = {v: i for i, v in enumerate(order)}
    return sum(1 for u, v in arcs if pos[u] > pos[v])


# ---------------------------------------------------------------------------
# Set systems and covers


def down_sets(n: int, covers) -> list:
    """Every ideal of the poset on range(n) with cover pairs u < v."""
    below = [0] * n
    for u, v in covers:
        below[v] |= 1 << u
    out = []
    for mask in range(1 << n):
        if all(below[v] & ~mask == 0 for v in range(n) if mask >> v & 1):
            out.append(mask)
    return out


def tower_members(t: int, k: int) -> list:
    """Sets sandwiched between consecutive unions of t-element blocks."""
    out = set()
    prefix = 0
    for s in range(k):
        for sub in range(1 << t):
            out.add(prefix | (sub << (s * t)))
        prefix |= ((1 << t) - 1) << (s * t)
    out.add(prefix)
    return sorted(out)


def _is_chain(pi, member_set) -> bool:
    mask = 0
    if 0 not in member_set:
        return False
    for v in pi:
        mask |= 1 << v
        if mask not in member_set:
            return False
    return True


def certify_cover(n: int, members, perms) -> bool:
    """True iff for every pi in S_n some cover member p makes p . pi a chain.

    (p . pi)(i) = p[pi[i]].  The pi reached through p from a chain c are
    p^-1 . c, so the covered set is collected per member and S_n is then
    enumerated against it.
    """
    member_set = set(members)
    chains = [c for c in permutations(range(n)) if _is_chain(c, member_set)]
    covered = set()
    for p in perms:
        if not _is_perm(p, n):
            return False
        inv = [0] * n
        for i, v in enumerate(p):
            inv[v] = i
        for c in chains:
            covered.add(tuple(inv[x] for x in c))
    return all(pi in covered for pi in permutations(range(n)))


# ---------------------------------------------------------------------------
# Bipartite ideal counts and closed forms


def circulant_neighbours(m: int, offsets) -> list:
    """Mask over y-indices of the y above each x_i: (i - j) mod m in D."""
    return [sum(1 << ((i - d) % m) for d in set(offsets)) for i in range(m)]


def bipartite_ideal_count(x_nbrs, ny: int) -> int:
    """Sum over X' of X of 2^{|Y \\ N(X')|}, X' being the x outside the ideal.

    The subset unions are built in two halves; popcounts are binned, so the
    exact total is one integer dot product at the end.
    """
    lo_n = len(x_nbrs) // 2
    lo = np.zeros(1, dtype=np.int64)
    for nb in x_nbrs[:lo_n]:
        lo = np.concatenate([lo, lo | np.int64(nb)])
    hi = [0]
    for nb in x_nbrs[lo_n:]:
        hi += [v | nb for v in hi]
    counts = np.zeros(ny + 1, dtype=np.int64)
    for hv in hi:
        counts += np.bincount(np.bitwise_count(lo | np.int64(hv)), minlength=ny + 1)
    return sum(int(c) << (ny - k) for k, c in enumerate(counts.tolist()))


def matching_complement_counts(m: int):
    """(ideals, linear extensions) of K_{m,m} minus a perfect matching."""
    return (1 << (m + 1)) + m - 1, math.factorial(m - 1) * math.factorial(m) * (m + 1)


def inv_eta(n: int, size: int, chains: int) -> float:
    """(size^2 n! / chains)^(1/n), through logs of the exact integers."""
    return math.exp((2 * math.log(size) + math.lgamma(n + 1) - math.log(chains)) / n)


# ---------------------------------------------------------------------------
# Brute-force self-test


def _brute_tsp(w):
    k = len(w) - 1
    return min(tour_cost(w, list(p)) for p in permutations(range(k)))


def _brute_dfas(n, arcs):
    return min(dfas_cost(n, arcs, list(p)) for p in permutations(range(n)))


def _brute_ideals(n, covers):
    """Ideals by closure of the order relation, independent of down_sets."""
    below = [set() for _ in range(n)]
    for u, v in covers:
        below[v].add(u)
    changed = True
    while changed:
        changed = False
        for v in range(n):
            extra = set().union(*(below[u] for u in below[v])) - below[v]
            if extra:
                below[v] |= extra
                changed = True
    return sum(
        1
        for mask in range(1 << n)
        if all(mask >> u & 1 for v in range(n) if mask >> v & 1 for u in below[v])
    )


def _brute_certify(n, members, perms):
    member_set = set(members)
    return all(
        any(_is_chain(tuple(p[x] for x in pi), member_set) for p in perms)
        for pi in permutations(range(n))
    )


def self_test() -> list:
    """Failures of the references against brute force at tiny sizes."""
    rng = random.Random(20260418)
    failures = []
    for trial in range(12):
        n = rng.randint(3, 7)
        w = [[0 if i == j else rng.randint(1, 50) for j in range(n)] for i in range(n)]
        if tsp_optimum(w) != _brute_tsp(w):
            failures.append(f"tsp_optimum trial {trial}")
        arcs = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < 0.4]
        arcs += arcs[:2]  # parallel arcs count with multiplicity
        if dfas_optimum(n, arcs) != _brute_dfas(n, arcs):
            failures.append(f"dfas_optimum trial {trial}")
    for trial in range(8):
        nx, ny = rng.randint(1, 5), rng.randint(1, 5)
        x_nbrs = [rng.randrange(1 << ny) for _ in range(nx)]
        covers = [(i, nx + j) for i in range(nx) for j in range(ny) if x_nbrs[i] >> j & 1]
        got = bipartite_ideal_count(x_nbrs, ny)
        if got != _brute_ideals(nx + ny, covers) or got != len(down_sets(nx + ny, covers)):
            failures.append(f"bipartite_ideal_count trial {trial}")
    for m in (2, 3):
        nbrs = circulant_neighbours(m, range(1, m))
        covers = [(i, m + j) for i in range(m) for j in range(m) if nbrs[i] >> j & 1]
        if bipartite_ideal_count(nbrs, m) != matching_complement_counts(m)[0]:
            failures.append(f"matching complement ideals m={m}")
        ext = sum(
            1
            for p in permutations(range(2 * m))
            if all(p.index(u) < p.index(v) for u, v in covers)
        )
        if ext != matching_complement_counts(m)[1]:
            failures.append(f"matching complement extensions m={m}")
    for trial in range(8):
        n = rng.randint(2, 4)
        covers = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        members = down_sets(n, covers)
        all_perms = list(permutations(range(n)))
        perms = rng.sample(all_perms, rng.randint(1, len(all_perms)))
        if certify_cover(n, members, perms) != _brute_certify(n, members, perms):
            failures.append(f"certify_cover trial {trial}")
    if not certify_cover(4, tower_members(4, 1), [(0, 1, 2, 3)]):
        failures.append("full power set is covered by one permutation")
    if certify_cover(3, [0, 1, 3, 7], [(0, 1, 2)]):
        failures.append("a single chain does not cover S_3")
    return failures


if __name__ == "__main__":
    problems = self_test()
    for line in problems:
        print("FAIL", line)
    print("self-test:", "PASS" if not problems else "FAIL")
    raise SystemExit(1 if problems else 0)
