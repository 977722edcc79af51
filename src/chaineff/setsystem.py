"""Set systems over [n]: maximal chains, chain efficiency, Cartesian powers.

Members are bitmasks kept deduplicated and sorted by (popcount, value) so
file output and DP iteration order are deterministic.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from .efficiency import EfficiencyReport, make_report
from .errors import InvalidInstance, InvalidPermutation, InvalidSize, ResourceLimit
from .poset import (
    DEFAULT_MEMORY_BUDGET,
    MAX_ELEMENTS,
    Poset,
    count_layer_chains,
    enumerate_ideals,
    family_layers,
    physical_bytes,
    read_records,
)


class SetSystem:
    """A family of subsets of {0, ..., n-1}.

    ``masks`` holds the members as a read-only uint64 array, sorted by
    (popcount, value); ``members``, the same as a tuple of ints, is built
    on first use.
    """

    def __init__(self, n: int, members):
        if not 1 <= n <= MAX_ELEMENTS:
            raise InvalidSize(f"universe size must be in [1, {MAX_ELEMENTS}]")
        masks = np.sort(_mask_array(n, members))
        distinct = np.ones(len(masks), dtype=bool)
        distinct[1:] = masks[1:] != masks[:-1]
        masks = masks[distinct]
        # a stable popcount sort of the sorted values orders by (popcount, value)
        masks = masks[np.argsort(np.bitwise_count(masks), kind="stable")]
        masks.flags.writeable = False
        self.n = n
        self.masks = masks

    @functools.cached_property
    def members(self) -> tuple:
        return tuple(self.masks.tolist())

    @functools.cached_property
    def _member_set(self) -> frozenset:
        return frozenset(self.masks.tolist())

    def __contains__(self, mask: int) -> bool:
        return mask in self._member_set

    def __len__(self) -> int:
        return len(self.masks)

    def __eq__(self, other):
        return (
            isinstance(other, SetSystem)
            and self.n == other.n
            and np.array_equal(self.masks, other.masks)
        )

    def __hash__(self):
        return hash((self.n, self.masks.tobytes()))

    def __repr__(self):
        return f"SetSystem(n={self.n}, members={len(self.masks)})"

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def admits_chains(self) -> bool:
        """Whether the family holds the empty set and [n], its two ends."""
        m = self.masks
        return m.size > 0 and int(m[0]) == 0 and int(m[-1]) == self.full_mask


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


def tower_of_cubes(t: int, k: int, memory_budget: int = DEFAULT_MEMORY_BUDGET) -> SetSystem:
    """All sets sandwiched between consecutive block-prefix unions.

    Block i covers indices [(i-1)t, it); members are prefix-union U_s plus
    any subset of block s+1.  Size is k(2^t - 1) + 1.
    """
    if t < 1 or k < 1:
        raise InvalidSize("tower needs t, k >= 1")
    if t * k > MAX_ELEMENTS:
        raise InvalidSize(f"universe {t * k} exceeds {MAX_ELEMENTS}")
    check_family_size(k * ((1 << t) - 1) + 1, memory_budget, "tower")
    subsets = np.arange((1 << t) - 1, dtype=np.uint64)
    blocks = [np.uint64((1 << (s * t)) - 1) | (subsets << np.uint64(s * t)) for s in range(k)]
    members = np.concatenate([*blocks, np.array([(1 << (t * k)) - 1], dtype=np.uint64)])
    return SetSystem(t * k, members)


def count_maximal_chains(a: SetSystem) -> int:
    """Exact number of maximal chains: sequences from the empty set to the
    full universe, adding one element per step, all members of the family."""
    return count_layer_chains(family_layers(a.masks, a.n))[1]


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
    check_family_size(len(a) ** k, memory_budget, f"|A|^{k}")
    return SetSystem(k * a.n, product_family([a] * k))


def check_family_size(size: int, memory_budget: int, what: str) -> None:
    """Refuse a family of ``size`` masks past the budget or past physical memory.

    The uint64 masks alone take 8 bytes each, so a budget far above the
    machine still stops before numpy is asked for them.
    """
    if size > memory_budget:
        raise ResourceLimit(f"{what}: {size} masks exceed the memory budget")
    if 8 * size > physical_bytes():
        raise ResourceLimit(f"{what}: {size} masks take {8 * size} bytes, over physical memory")


def product_family(groups: Sequence[SetSystem]) -> np.ndarray:
    """The uint64 masks of A_1 x ... x A_s, unsorted.

    Group i's member is shifted past the universes of groups 1..i-1, and
    the last group's member varies fastest.
    """
    family = np.zeros(1, dtype=np.uint64)
    shift = 0
    for a in groups:
        members = a.masks << np.uint64(shift)
        family = (family[:, None] | members).ravel()
        shift += a.n
    return family


def restriction(a: SetSystem, r: int) -> SetSystem:
    """A|[r] = {X & [r] : X in A}, over the first r elements."""
    return SetSystem(r, a.masks & np.uint64((1 << r) - 1))


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
    for mask in a.masks.tolist():
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
    (n, _), lines = read_records(text, "set-system", 2, _member_elements)
    if not 1 <= n <= MAX_ELEMENTS:
        raise InvalidSize(f"universe size must be in [1, {MAX_ELEMENTS}]")
    members = []
    for elems in lines:
        mask = 0
        for e in elems:
            if not 0 <= e < n:
                raise InvalidInstance(f"member element {e} outside universe of size {n}")
            mask |= 1 << e
        members.append(mask)
    return SetSystem(n, members)


def _member_elements(tokens) -> list[int]:
    return [] if tokens == ["-"] else [int(tok) for tok in tokens]
