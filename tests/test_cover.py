"""Permutation covers: greedy, randomized, verification, reproducibility."""

import json
import random
from itertools import permutations
from math import factorial, log

import numpy as np
import pytest

from chaineff.cli import run
from chaineff.cover import (
    PermutationCover,
    SplitMix64,
    _all_permutations,
    _ranks,
    chain_permutations,
    cover_size_bound,
    greedy_cover,
    random_permutation,
    randomized_cover,
    verify_cover,
)
from chaineff.errors import InvalidPermutation
from chaineff.poset import Poset
from chaineff.setsystem import (
    SetSystem,
    cartesian_power,
    count_maximal_chains,
    from_poset_ideals,
    full_power_set,
    tower_of_cubes,
)


def compose(outer, inner):
    """(outer . inner)(i) = outer(inner(i))."""
    return tuple(outer[v] for v in inner)


def invert(pi):
    inv = [0] * len(pi)
    for i, v in enumerate(pi):
        inv[v] = i
    return tuple(inv)


def brute_is_cover(a, perms):
    """Independent oracle: every permutation must be covered directly."""
    chains = set(chain_permutations(a))
    for pi in permutations(range(a.n)):
        if not any(compose(pp, pi) in chains for pp in perms):
            return False
    return True


def reference_greedy(a):
    """Greedy set cover over frozensets of S_n, the oracle for greedy_cover.

    Every candidate's covered set is materialised and intersected with the
    uncovered set on each pick; the strict ``>`` keeps the lexicographically
    smallest candidate among equal gains.
    """
    chains = chain_permutations(a)
    all_perms = list(permutations(range(a.n)))
    index = {pi: i for i, pi in enumerate(all_perms)}
    candidates = [
        (outer, frozenset(index[compose(invert(outer), c)] for c in chains))
        for outer in all_perms
    ]
    uncovered = set(range(len(all_perms)))
    chosen = []
    while uncovered:
        best = None
        best_gain = -1
        for outer, covered in candidates:
            gain = len(covered & uncovered)
            if gain > best_gain:
                best, best_gain = (outer, covered), gain
        chosen.append(best[0])
        uncovered -= best[1]
    return tuple(chosen)


def random_system(rng, n):
    members = {0, (1 << n) - 1}
    for _ in range(rng.randint(1, 2**n)):
        members.add(rng.randrange(1 << n))
    return SetSystem(n, sorted(members))


def random_ideal_family(rng, n):
    covers = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.35]
    return from_poset_ideals(Poset(n, covers))


class TestComposition:
    @pytest.mark.parametrize("seed", range(5))
    def test_inverse_law(self, seed):
        rng = SplitMix64(seed)
        pi = random_permutation(6, rng)
        assert compose(pi, invert(pi)) == tuple(range(6))
        assert compose(invert(pi), pi) == tuple(range(6))

    def test_composition_order(self):
        outer = (1, 2, 0)
        inner = (2, 0, 1)
        assert compose(outer, inner) == tuple(outer[inner[i]] for i in range(3))


class TestChainPermutations:
    def test_power_set_has_all(self):
        a = full_power_set(4)
        assert len(set(chain_permutations(a))) == factorial(4)

    def test_single_chain_single_perm(self):
        a = SetSystem(3, [0, 0b10, 0b110, 0b111])
        assert list(chain_permutations(a)) == [(1, 2, 0)]


class TestGreedyCover:
    def test_power_set_needs_one(self):
        cov = greedy_cover(full_power_set(3))
        assert len(cov.perms) == 1 and cov.certified

    def test_single_chain_needs_all(self):
        a = SetSystem(3, [0, 0b1, 0b11, 0b111])
        cov = greedy_cover(a)
        assert len(cov.perms) == factorial(3)
        assert verify_cover(a, cov)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_systems_certified_within_bound(self, seed):
        rng = random.Random(seed)
        n = rng.randint(3, 6)
        a = random_system(rng, n)
        from chaineff.setsystem import count_maximal_chains

        c = count_maximal_chains(a)
        if c == 0:
            return
        cov = greedy_cover(a)
        assert cov.certified
        assert verify_cover(a, cov)
        assert len(cov.perms) <= cover_size_bound(n, c)
        assert brute_is_cover(a, cov.perms)

    def test_bound_is_the_degree_bound(self, capsys):
        # tower:4:2 has c = 576 = (4!)^2 chains and a greedy cover of n!/c = 70
        bound = 70 * (1 + log(576))
        assert cover_size_bound(8, 576) == pytest.approx(bound)
        assert run(["cover", "--builtin", "tower:4:2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert int(doc["size"]) == 70
        assert float(doc["greedy_bound"]) == pytest.approx(bound, rel=1e-9)

    def test_tower_cover(self):
        a = tower_of_cubes(2, 2)
        cov = greedy_cover(a)
        assert cov.certified and verify_cover(a, cov)


class TestRanks:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_table_rows_have_their_rank(self, n):
        table = _all_permutations(n)
        assert table.dtype == np.uint8 and table.shape == (factorial(n), n)
        assert [tuple(row) for row in table[:50].tolist()] == list(permutations(range(n)))[:50]
        assert np.array_equal(_ranks(table), np.arange(factorial(n)))

    def test_ranks_of_shuffled_rows(self):
        table = _all_permutations(6)
        order = np.random.default_rng(3).permutation(len(table))
        assert np.array_equal(_ranks(table[order]), order)


class TestGreedyMatchesReference:
    """The array greedy picks exactly what the frozenset greedy picks."""

    @pytest.mark.parametrize("seed", range(20))
    def test_random_systems(self, seed):
        rng = random.Random(1000 + seed)
        for _ in range(5):
            a = random_system(rng, rng.randint(1, 6))
            if count_maximal_chains(a) == 0:
                continue
            assert greedy_cover(a).perms == reference_greedy(a)

    @pytest.mark.parametrize("seed", [5, 11])
    def test_seven_element_ideal_families(self, seed):
        a = random_ideal_family(random.Random(seed), 7)
        assert a.n == 7 and len(a.members) < 2**7
        assert greedy_cover(a).perms == reference_greedy(a)

    @pytest.mark.parametrize("t,k", [(3, 2), (2, 3)])
    def test_towers(self, t, k):
        a = tower_of_cubes(t, k)
        assert greedy_cover(a).perms == reference_greedy(a)


class TestVerifyCover:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_covers_match_brute_force(self, seed):
        rng = random.Random(2000 + seed)
        n = rng.randint(2, 5)
        a = random_system(rng, n)
        universe = list(permutations(range(n)))
        for _ in range(6):
            perms = tuple(rng.sample(universe, rng.randint(1, len(universe))))
            cover = PermutationCover(n=n, perms=perms, certified=False)
            assert verify_cover(a, cover) == brute_is_cover(a, perms)

    @pytest.mark.parametrize("seed", range(10))
    def test_certified_cover_minus_one_member(self, seed):
        rng = random.Random(3000 + seed)
        a = random_system(rng, rng.randint(3, 6))
        if count_maximal_chains(a) == 0:
            return
        perms = greedy_cover(a).perms
        assert verify_cover(a, PermutationCover(a.n, perms, False))
        for drop in {0, len(perms) - 1, rng.randrange(len(perms))}:
            rest = perms[:drop] + perms[drop + 1 :]
            cover = PermutationCover(a.n, rest, False)
            assert verify_cover(a, cover) == brute_is_cover(a, rest)

    def test_single_chain_cover_minus_one_fails(self):
        a = SetSystem(3, [0, 0b1, 0b11, 0b111])
        perms = greedy_cover(a).perms
        assert not verify_cover(a, PermutationCover(3, perms[1:], False))
        assert not verify_cover(a, PermutationCover(3, (), False))

    @pytest.mark.parametrize("bad", [(0, 0, 1), (0, 1), (0, 1, 3)])
    def test_rejects_non_permutations(self, bad):
        a = full_power_set(3)
        with pytest.raises(InvalidPermutation):
            verify_cover(a, PermutationCover(3, ((0, 1, 2), bad), False))


class TestEightElements:
    """n = 8: greedy and random covers are built and certified."""

    @pytest.mark.parametrize("g", [1, 2])
    def test_greedy_and_random_certified(self, g):
        a = tower_of_cubes(4, 2) if g == 1 else cartesian_power(tower_of_cubes(2, 2), 2)
        assert a.n == 8
        greedy = greedy_cover(a)
        assert len(greedy.perms) <= cover_size_bound(8, count_maximal_chains(a))
        for cov in (greedy, randomized_cover(a, seed=4)):
            assert cov.certified and verify_cover(a, cov)

    def test_cli_random_cover_certified(self, capsys):
        argv = ["cover", "--builtin", "tower:4:2", "--strategy", "random", "--seed", "1"]
        assert run(argv) == 0
        assert json.loads(capsys.readouterr().out)["certified"] is True

    def test_cli_g2_solve_matches_held_karp(self, capsys, tmp_path):
        rng = random.Random(9)
        w = [[0 if i == j else rng.randint(1, 99) for j in range(9)] for i in range(9)]
        f = tmp_path / "nine.txt"
        f.write_text("9\n" + "".join(" ".join(map(str, row)) + "\n" for row in w))
        docs = []
        for extra in (
            ["--algo", "held-karp"],
            ["--algo", "tradeoff", "--builtin", "tower:2:2", "--g", "2"],
        ):
            assert run(["solve", "tsp", "--matrix", str(f), *extra]) == 0
            docs.append(json.loads(capsys.readouterr().out))
        assert docs[0]["value"] == docs[1]["value"]

    def test_nine_elements_exit_3(self, capsys):
        assert run(["cover", "--builtin", "tower:3:3"]) == 3
        assert run(["cover", "--builtin", "tower:3:3", "--strategy", "random"]) == 3
        assert capsys.readouterr().out == ""

    def test_uncertified_cover_in_solve_exit_3(self, tmp_path):
        f = tmp_path / "five.txt"
        f.write_text("5\n0 1 2 3 4\n1 0 1 2 3\n2 1 0 1 2\n3 2 1 0 1\n4 3 2 1 0\n")
        argv = ["solve", "tsp", "--matrix", str(f), "--algo", "tradeoff", "--builtin", "tower:3:3"]
        assert run(argv) == 3
        assert run([*argv, "--strategy", "random"]) == 3


class TestRandomizedCover:
    def test_seeded_reproducibility(self):
        a = tower_of_cubes(2, 2)
        c1 = randomized_cover(a, seed=17)
        c2 = randomized_cover(a, seed=17)
        assert c1.perms == c2.perms

    def test_different_seeds_differ(self):
        a = tower_of_cubes(2, 2)
        c1 = randomized_cover(a, seed=1)
        c2 = randomized_cover(a, seed=2)
        assert c1.perms != c2.perms

    def test_certification_at_small_n(self):
        a = full_power_set(4)
        cov = randomized_cover(a, seed=5)
        assert cov.certified == verify_cover(a, cov)

    @pytest.mark.parametrize("t,k", [(3, 2), (2, 3), (4, 2)])
    @pytest.mark.parametrize("seed", range(3))
    def test_tower_covers_have_the_coset_count(self, t, k, seed):
        # a tower's chain permutations form a Young subgroup, so the sets the
        # members cover are its cosets and a minimal cover holds one per coset
        a = tower_of_cubes(t, k)
        cov = randomized_cover(a, seed)
        assert len(cov) == factorial(a.n) // count_maximal_chains(a)
        assert cov.certified and verify_cover(a, cov)

    @pytest.mark.parametrize("seed", [0, 1, 2**40 + 5])
    def test_cli_tower_cover_has_twenty_members(self, capsys, seed):
        argv = ["cover", "--builtin", "tower:3:2", "--strategy", "random", "--seed", str(seed)]
        assert run(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["certified"] is True and doc["size"] == "20" and len(doc["perms"]) == 20

    @pytest.mark.parametrize("seed", range(12))
    def test_random_systems_certified_and_minimal(self, seed):
        rng = random.Random(4000 + seed)
        a = random_system(rng, rng.randint(1, 6))
        while count_maximal_chains(a) == 0:
            a = random_system(rng, rng.randint(1, 6))
        perms = randomized_cover(a, seed).perms
        assert brute_is_cover(a, perms)
        for drop in range(len(perms)):
            rest = perms[:drop] + perms[drop + 1 :]
            assert not verify_cover(a, PermutationCover(a.n, rest, False))


class TestSplitMix64:
    def test_reference_stream(self):
        # known-answer values for seed 0 from the published finalizer
        rng = SplitMix64(0)
        assert rng.next_u64() == 0xE220A8397B1DCDAF
        assert rng.next_u64() == 0x6E789E6AA1B965F4
        assert rng.next_u64() == 0x06C45D188009454F

    def test_fisher_yates_uniformity(self):
        # all 24 permutations of 4 elements should appear near-uniformly
        rng = SplitMix64(2718)
        trials = 24_000
        counts = {}
        for _ in range(trials):
            pi = random_permutation(4, rng)
            counts[pi] = counts.get(pi, 0) + 1
        assert len(counts) == 24
        expect = trials / 24
        sigma = (trials * (1 / 24) * (23 / 24)) ** 0.5
        for c in counts.values():
            assert abs(c - expect) < 5 * sigma
