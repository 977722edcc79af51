"""Set systems: chain counting, powers, efficiency, ideal bridge."""

import random
from math import factorial
from itertools import permutations

import numpy as np
import pytest

import chaineff.poset
from chaineff.errors import InvalidSize, ResourceLimit
from chaineff.poset import Poset, count_linear_extensions, make_chain
from chaineff.setsystem import (
    SetSystem,
    cartesian_power,
    chain_correspondence,
    chain_efficiency,
    count_maximal_chains,
    from_poset_ideals,
    full_power_set,
    product_family,
    restriction,
    setsystem_from_text,
    setsystem_to_text,
    tower_of_cubes,
)


def brute_chains(a):
    """Independent oracle: check every permutation's prefix chain."""
    count = 0
    for sigma in permutations(range(a.n)):
        mask = 0
        ok = True
        for v in sigma:
            mask |= 1 << v
            if mask not in a:
                ok = False
                break
        count += ok
    return count


def dict_chains(a):
    """Oracle: maximal chains by a dict over the members in (popcount,
    value) order, each summing the members it extends by one element."""
    if 0 not in a:
        return 0
    ways = {0: 1}
    for mask in a.members[1:]:
        acc = 0
        rest = mask
        while rest:
            bit = rest & -rest
            rest &= rest - 1
            acc += ways.get(mask & ~bit, 0)
        if acc:
            ways[mask] = acc
    return ways.get(a.full_mask, 0)


def random_system(rng, n):
    members = {0, (1 << n) - 1}
    for _ in range(rng.randint(1, 2**n)):
        members.add(rng.randrange(1 << n))
    return SetSystem(n, sorted(members))


def random_poset(rng, n):
    covers = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3
    ]
    return Poset(n, covers)


class TestChainCounting:
    def test_full_power_set(self):
        for n in range(1, 6):
            assert count_maximal_chains(full_power_set(n)) == factorial(n)

    def test_single_chain(self):
        a = SetSystem(4, [0, 0b1, 0b11, 0b111, 0b1111])
        assert count_maximal_chains(a) == 1

    def test_no_chains(self):
        a = SetSystem(3, [0, 0b111])
        assert count_maximal_chains(a) == 0

    @pytest.mark.parametrize("seed", range(15))
    def test_matches_brute(self, seed):
        a = random_system(random.Random(seed), 5)
        assert count_maximal_chains(a) == brute_chains(a)

    def test_tower_chain_count(self):
        # blocks evolve independently: c = (t!)^k
        for t, k in [(2, 2), (3, 2), (2, 3)]:
            assert count_maximal_chains(tower_of_cubes(t, k)) == factorial(t) ** k

    @pytest.mark.parametrize("seed", range(20))
    def test_sparse_families_match_dict(self, seed):
        # Few members: most have missing parents, many have no chain.
        rng = random.Random(700 + seed)
        n = rng.randint(1, 9)
        members = {rng.randrange(1 << n) for _ in range(rng.randint(1, 3 * n))}
        with_ends = SetSystem(n, members | {0, (1 << n) - 1})
        assert count_maximal_chains(with_ends) == dict_chains(with_ends)
        without_empty = SetSystem(n, (members | {(1 << n) - 1}) - {0})
        assert count_maximal_chains(without_empty) == dict_chains(without_empty) == 0

    def test_chain_through_bit_63(self):
        a = from_poset_ideals(make_chain(64))
        assert count_maximal_chains(a) == dict_chains(a) == 1

    def test_counts_past_uint64(self):
        a = tower_of_cubes(10, 4)
        chains = count_maximal_chains(a)
        assert chains == dict_chains(a) == factorial(10) ** 4
        assert chains > 1 << 64

    def test_tower_size(self):
        for t, k in [(2, 2), (3, 2), (17, 2)]:
            assert len(tower_of_cubes(t, k).members) == k * (2**t - 1) + 1

    def test_tower_size_is_checked_against_the_budget(self, monkeypatch):
        # tower:4:2 has 31 members
        assert len(tower_of_cubes(4, 2, memory_budget=31)) == 31
        with pytest.raises(ResourceLimit, match="tower:4:2 needs 31 resident entries, over the"):
            tower_of_cubes(4, 2, memory_budget=30)
        monkeypatch.setattr(chaineff.poset, "physical_bytes", lambda: 8 * 30)
        with pytest.raises(ResourceLimit, match="over physical memory"):
            tower_of_cubes(4, 2)

    @pytest.mark.parametrize("t,k", [(1, 1), (3, 2), (2, 3), (1, 64), (8, 8), (16, 4)])
    def test_tower_members_match_set_construction(self, t, k):
        members = set()
        prefix = 0
        for s in range(k):
            members.update(prefix | (sub << (s * t)) for sub in range(1 << t))
            prefix |= ((1 << t) - 1) << (s * t)
        expect = tuple(sorted(members, key=lambda m: (m.bit_count(), m)))
        assert tower_of_cubes(t, k).members == expect


class TestPowerIdentity:
    @pytest.mark.parametrize("seed", range(10))
    def test_exact_identity(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 4)
        k = rng.randint(2, 3)
        a = random_system(rng, n)
        lhs = count_maximal_chains(cartesian_power(a, k))
        rhs = count_maximal_chains(a) ** k * factorial(k * n) // factorial(n) ** k
        assert lhs == rhs

    def test_power_of_power_set(self):
        a = full_power_set(2)
        p = cartesian_power(a, 3)
        assert count_maximal_chains(p) == factorial(6)


class TestPosetBridge:
    @pytest.mark.parametrize("seed", range(15))
    def test_ideal_chains_equal_extensions(self, seed):
        p = random_poset(random.Random(seed), 7)
        a = from_poset_ideals(p)
        assert count_maximal_chains(a) == count_linear_extensions(p)


class TestChainCorrespondence:
    def test_identity_in_power_set(self):
        a = full_power_set(4)
        assert chain_correspondence(a, (0, 1, 2, 3))

    def test_rejects_outside_chain(self):
        a = SetSystem(3, [0, 0b1, 0b11, 0b111])
        assert chain_correspondence(a, (0, 1, 2))
        assert not chain_correspondence(a, (2, 1, 0))


class TestEfficiency:
    def test_power_set_efficiency_is_size_driven(self):
        a = full_power_set(4)
        report = chain_efficiency(a)
        # c = n!, so 1/eta = (|A|^2)^{1/n} = 2^2
        assert abs(report.inv_eta_float - 4.0) < 1e-9

    def test_no_chains_reports_inf(self):
        a = SetSystem(3, [0, 0b111])
        report = chain_efficiency(a)
        assert report.inv_eta == "inf"


class TestValidationAndText:
    @pytest.mark.parametrize("seed", range(10))
    def test_members_sorted_by_popcount_then_value(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 64)
        masks = [rng.randrange(1 << n) for _ in range(rng.randint(0, 300))]
        a = SetSystem(n, masks)
        assert a.members == tuple(sorted(set(masks), key=lambda m: (bin(m).count("1"), m)))

    def test_rejects_out_of_range_member(self):
        with pytest.raises(InvalidSize):
            SetSystem(2, [0, 0b100])

    @pytest.mark.parametrize(
        "bad,as_array",
        [(0b100, False), (-1, False), (1 << 64, False), (-(1 << 70), False), (0b100, True), (-1, True)],
    )
    def test_rejects_negative_and_oversized_members(self, bad, as_array):
        members = [0, bad, 0b11]
        if as_array:
            members = np.array(members, dtype=np.int64)
        with pytest.raises(InvalidSize, match=f"member {bad:#x} outside"):
            SetSystem(2, members)

    def test_array_members_match_list_members(self):
        masks = [5, 0, 7, 5, 3, 1 << 63, (1 << 64) - 1, 3]
        a = SetSystem(64, np.array(masks, dtype=np.uint64))
        assert a == SetSystem(64, masks) and len(a) == 6
        assert SetSystem(3, np.array([], dtype=np.uint64)).members == ()

    def test_text_roundtrip(self):
        a = random_system(random.Random(9), 5)
        b = setsystem_from_text(setsystem_to_text(a))
        assert a.n == b.n and a.members == b.members


class TestMaskArray:
    def test_masks_are_read_only(self):
        a = SetSystem(3, [7, 0, 3])
        assert a.masks.tolist() == [0, 3, 7] == list(a.members)
        with pytest.raises(ValueError):
            a.masks[0] = 1

    def test_no_member_tuple_unless_asked(self):
        a, b = tower_of_cubes(8, 2), tower_of_cubes(8, 2)
        assert len(a) == 511 and a == b and hash(a) == hash(b) and a != tower_of_cubes(2, 8)
        assert "members" not in vars(a) and "members" not in vars(b)
        assert a.members == tuple(a.masks.tolist())

    def test_membership_after_the_lazy_build(self):
        a = tower_of_cubes(8, 8)
        assert "_member_set" not in vars(a)
        assert (1 << 63) - 1 in a and (1 << 64) - 1 in a and 0 in a
        assert 1 << 63 not in a and 0b1_0000_0000 not in a
        assert "_member_set" in vars(a)

    @pytest.mark.parametrize(
        "n, members, admits",
        [
            (3, [0, 1, 3, 7], True),
            (3, [1, 3, 7], False),
            (3, [0, 1, 3], False),
            (3, [], False),
            (1, [0, 1], True),
            (64, [0, (1 << 64) - 1], True),
            (64, [0, (1 << 63) - 1], False),
        ],
    )
    def test_admits_chains_reads_the_ends(self, n, members, admits):
        assert SetSystem(n, members).admits_chains() is admits

    def test_bit_63_through_product_and_restriction(self):
        a = tower_of_cubes(8, 8)
        assert SetSystem(64, product_family([a])) == a
        assert restriction(a, 64) == a
        low = restriction(a, 56)
        assert low == tower_of_cubes(8, 7)
        top = full_power_set(8)
        family = product_family([low, top])
        assert family.size == len(low) * 256
        assert set(a.members) <= set(family.tolist())
        assert {int(x) >> 56 for x in family} == set(range(256))
