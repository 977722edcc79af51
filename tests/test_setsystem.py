"""Set systems: chain counting, powers, efficiency, ideal bridge."""

import random
from math import factorial
from itertools import permutations

import pytest

from chaineff.errors import InvalidSize
from chaineff.poset import Poset, count_linear_extensions, make_chain
from chaineff.setsystem import (
    SetSystem,
    cartesian_power,
    chain_correspondence,
    chain_efficiency,
    count_maximal_chains,
    from_poset_ideals,
    full_power_set,
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

    def test_text_roundtrip(self):
        a = random_system(random.Random(9), 5)
        b = setsystem_from_text(setsystem_to_text(a))
        assert a.n == b.n and a.members == b.members
