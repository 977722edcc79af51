"""Set systems over [n]: maximal chains, chain efficiency, Cartesian powers.

Members are bitmasks kept deduplicated and sorted by (popcount, value) so
file output and DP iteration order are deterministic.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .efficiency import EfficiencyReport, make_report
from .errors import InvalidPermutation, InvalidSize, ResourceLimit
from .poset import (
    DEFAULT_MEMORY_BUDGET,
    MAX_ELEMENTS,
    Poset,
    count_layer_chains,
    enumerate_ideals,
)


class SetSystem:
    """A family of subsets of {0, ..., n-1}."""

    def __init__(self, n: int, members):
        if not 1 <= n <= MAX_ELEMENTS:
            raise InvalidSize(f"universe size must be in [1, {MAX_ELEMENTS}]")
        masks = np.sort(_mask_array(n, members))
        distinct = np.ones(len(masks), dtype=bool)
        distinct[1:] = masks[1:] != masks[:-1]
        masks = masks[distinct]
        # a stable popcount sort of the sorted values orders by (popcount, value)
        masks = masks[np.argsort(np.bitwise_count(masks), kind="stable")]
        self.n = n
        self.members = tuple(masks.tolist())
        self._member_set = frozenset(self.members)

    def __contains__(self, mask: int) -> bool:
        return mask in self._member_set

    def __len__(self) -> int:
        return len(self.members)

    def __eq__(self, other):
        return isinstance(other, SetSystem) and (self.n, self.members) == (
            other.n,
            other.members,
        )

    def __hash__(self):
        return hash((self.n, self.members))

    def __repr__(self):
        return f"SetSystem(n={self.n}, members={len(self.members)})"

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def admits_chains(self) -> bool:
        return 0 in self._member_set and self.full_mask in self._member_set


def _mask_array(n: int, members) -> np.ndarray:
    """The members, an iterable of int masks or an integer array, as uint64,
    each checked to lie in [0, 2^n)."""
    if isinstance(members, np.ndarray):
        values = members
        ends = (int(values.min()), int(values.max())) if values.size else ()
    else:
        values = [int(m) for m in members]
        ends = (min(values), max(values)) if values else ()
    for m in ends:
        if m < 0 or m >> n:
            raise InvalidSize(f"member {m:#x} outside universe of size {n}")
    return np.array(values, dtype=np.uint64)


def full_power_set(n: int) -> SetSystem:
    if n > 24:
        raise ResourceLimit("explicit power set is capped at n = 24")
    return SetSystem(n, range(1 << n))


def from_poset_ideals(p: Poset, memory_budget: int = DEFAULT_MEMORY_BUDGET) -> SetSystem:
    """The family of all ideals of p (always contains the empty and full set)."""
    return SetSystem(p.n, enumerate_ideals(p, memory_budget))


def tower_of_cubes(t: int, k: int) -> SetSystem:
    """All sets sandwiched between consecutive block-prefix unions.

    Block i covers indices [(i-1)t, it); members are prefix-union U_s plus
    any subset of block s+1.  Size is k(2^t - 1) + 1.
    """
    if t < 1 or k < 1:
        raise InvalidSize("tower needs t, k >= 1")
    if t * k > MAX_ELEMENTS:
        raise InvalidSize(f"universe {t * k} exceeds {MAX_ELEMENTS}")
    if k * ((1 << t) - 1) + 1 > DEFAULT_MEMORY_BUDGET:
        raise ResourceLimit("tower is too large to materialize")
    subsets = np.arange((1 << t) - 1, dtype=np.uint64)
    blocks = [np.uint64((1 << (s * t)) - 1) | (subsets << np.uint64(s * t)) for s in range(k)]
    members = np.concatenate([*blocks, np.array([(1 << (t * k)) - 1], dtype=np.uint64)])
    return SetSystem(t * k, members)


def count_maximal_chains(a: SetSystem) -> int:
    """Exact number of maximal chains: sequences from the empty set to the
    full universe, adding one element per step, all members of the family."""
    members = np.array(a.members, dtype=np.uint64)
    ends = np.searchsorted(np.bitwise_count(members), np.arange(a.n + 2))
    return count_layer_chains(members[ends[k] : ends[k + 1]] for k in range(a.n + 1))


def chain_efficiency(a: SetSystem, chains: int | None = None) -> EfficiencyReport:
    """Exact |A|, c(A), and 1/eta; eta = 0 is flagged via chains == 0."""
    if chains is None:
        chains = count_maximal_chains(a)
    return make_report(a.n, len(a), chains, method="chain-dp")


def cartesian_power(
    a: SetSystem, k: int, memory_budget: int = DEFAULT_MEMORY_BUDGET
) -> SetSystem:
    """System over k disjoint copies of the universe; members are unions of
    one member per copy.  Copy r occupies indices [r*n, (r+1)*n)."""
    if k < 1:
        raise InvalidSize("power needs k >= 1")
    if k * a.n > MAX_ELEMENTS:
        raise InvalidSize(f"universe {k * a.n} exceeds {MAX_ELEMENTS}")
    if len(a) ** k > memory_budget:
        raise ResourceLimit(f"|A|^{k} exceeds the memory budget")
    members = [0]
    for r in range(k):
        shift = r * a.n
        members = [base | (m << shift) for base in members for m in a.members]
    return SetSystem(k * a.n, members)


def chain_correspondence(a: SetSystem, pi: Sequence[int]) -> bool:
    """True iff every prefix set of pi, including the empty one, is in A."""
    if len(pi) != a.n or set(pi) != set(range(a.n)):
        raise InvalidPermutation(f"not a permutation of range({a.n}): {pi!r}")
    if 0 not in a:
        return False
    mask = 0
    for v in pi:
        mask |= 1 << v
        if mask not in a:
            return False
    return True


# ---------------------------------------------------------------------------
# Text format: line 1 "n k"; then k member lines of space-separated element
# indices, "-" for the empty set.  Members are written sorted by
# (popcount, value).


def setsystem_to_text(a: SetSystem) -> str:
    lines = [f"{a.n} {len(a)}"]
    for mask in a.members:
        if mask == 0:
            lines.append("-")
        else:
            elems = []
            rest = mask
            while rest:
                elems.append((rest & -rest).bit_length() - 1)
                rest &= rest - 1
            lines.append(" ".join(map(str, elems)))
    return "\n".join(lines) + "\n"


def setsystem_from_text(text: str) -> SetSystem:
    from .errors import InvalidInstance

    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise InvalidInstance("empty set-system file")
    try:
        n, k = map(int, lines[0].split())
    except ValueError as exc:
        raise InvalidInstance(f"malformed set-system header: {exc}") from exc
    if len(lines) - 1 != k:
        raise InvalidInstance("set-system file has a wrong member count")
    members = []
    for ln in lines[1:]:
        if ln.strip() == "-":
            members.append(0)
            continue
        try:
            elems = [int(tok) for tok in ln.split()]
        except ValueError as exc:
            raise InvalidInstance(f"malformed member line {ln!r}") from exc
        mask = 0
        for e in elems:
            if not 0 <= e < n:
                raise InvalidInstance(f"member element {e} outside universe of size {n}")
            mask |= 1 << e
        members.append(mask)
    return SetSystem(n, members)
