"""Permutation covers: greedy, randomized, verification, reproducibility."""

import json
import random
import tracemalloc
from itertools import permutations
from math import factorial, log
from pathlib import Path

import numpy as np
import pytest

from chaineff.cli import run
from chaineff.cover import (
    PermutationCover,
    SplitMix64,
    _all_permutations,
    _chain_table,
    _ranks,
    cover_size_bound,
    greedy_cover,
    random_permutations,
    randomized_cover,
    verify_cover,
)
from chaineff.errors import DimensionMismatch, InvalidPermutation
from chaineff.poset import Poset, make_matching_complement
from chaineff.setsystem import (
    SetSystem,
    cartesian_power,
    chain_correspondence,
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


def oracle_chains(a):
    """The chain permutations of A, each permutation of [n] tested apart."""
    return [pi for pi in permutations(range(a.n)) if chain_correspondence(a, pi)]


def table_rows(table):
    return {tuple(row) for row in table.tolist()}


def brute_is_cover(a, perms):
    """Independent oracle: every permutation must be covered directly."""
    chains = set(oracle_chains(a))
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
    chains = oracle_chains(a)
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


GOLDEN = json.loads((Path(__file__).resolve().parent / "golden_covers.json").read_text())

# The systems whose covers ``golden_covers.json`` pins, members written as
# digit strings; the file was recorded from the per-permutation
# implementation (scalar draws, Lehmer-code ranks).
GOLDEN_SYSTEMS = {
    "n1": lambda: SetSystem(1, [0, 1]),
    "tower:2:2": lambda: tower_of_cubes(2, 2),
    "tower:3:2": lambda: tower_of_cubes(3, 2),
    "tower:2:3": lambda: tower_of_cubes(2, 3),
    "tower:1:3^2": lambda: cartesian_power(tower_of_cubes(1, 3), 2),
    "ideals:7:5": lambda: random_ideal_family(random.Random(5), 7),
    "ideals:7:3": lambda: random_ideal_family(random.Random(3), 7),
}

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


def golden(perms):
    return " ".join("".join(map(str, pi)) for pi in perms)


def reference_permutation(n, rng):
    """Scalar Fisher-Yates over ``rng.below``, the oracle for block draws."""
    out = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.below(i + 1)
        out[i], out[j] = out[j], out[i]
    return tuple(out)


def seed_with_output(value, index):
    """A seed whose SplitMix64 stream yields ``value`` as its index-th output
    (from 0): the finalizer is a bijection, so it is undone step by step."""

    def unshift(y, s):
        x = y
        for _ in range(64 // s):
            x = y ^ (x >> s)
        return x

    z = unshift(value, 31)
    z = unshift(z * pow(0x94D049BB133111EB, -1, 1 << 64) & MASK64, 27)
    z = unshift(z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & MASK64, 30)
    return (z - (index + 1) * GAMMA) & MASK64


class TestComposition:
    @pytest.mark.parametrize("seed", range(5))
    def test_inverse_law(self, seed):
        pi = tuple(random_permutations(6, 1, SplitMix64(seed))[0].tolist())
        assert compose(pi, invert(pi)) == tuple(range(6))
        assert compose(invert(pi), pi) == tuple(range(6))

    def test_composition_order(self):
        outer = (1, 2, 0)
        inner = (2, 0, 1)
        assert compose(outer, inner) == tuple(outer[inner[i]] for i in range(3))


class TestChainPermutations:
    def test_power_set_has_all(self):
        a = full_power_set(4)
        assert len(table_rows(_chain_table(a))) == factorial(4)

    def test_single_chain_single_perm(self):
        a = SetSystem(3, [0, 0b10, 0b110, 0b111])
        assert _chain_table(a).tolist() == [[1, 2, 0]]

    @pytest.mark.parametrize(
        "shape",
        ["random", "no empty set", "no full set", "empty middle layer", "sparse"],
    )
    @pytest.mark.parametrize("seed", range(6))
    def test_rows_are_the_chain_permutations(self, shape, seed):
        rng = random.Random(f"{shape} {seed}")
        n = rng.randint(1, 7)
        full = (1 << n) - 1
        keep = 0.3 if shape == "sparse" else 0.7
        members = {0, full} | {s for s in range(1 << n) if rng.random() < keep}
        if shape == "no empty set":
            members.discard(0)
        elif shape == "no full set":
            members.discard(full)
        elif shape == "empty middle layer":
            members = {s for s in members if s.bit_count() != n // 2}
        a = SetSystem(n, members)
        table = _chain_table(a)
        assert table.dtype == np.uint8 and table.shape == (count_maximal_chains(a), n)
        assert table_rows(table) == set(oracle_chains(a))
        if shape in ("no empty set", "no full set", "empty middle layer"):
            assert table.shape == (0, n)

    def test_dead_ends_are_not_grown(self):
        # every proper subset of {0..8} is a member that cannot reach [11];
        # one chain through 9 and 10 does.  Growing the dead ends would hold
        # the 9! paths of 8 elements, about 10 MB at its peak.
        dead = list(range((1 << 9) - 1))
        chain = [1 << 9, 3 << 9] + [3 << 9 | (1 << i) - 1 for i in range(1, 10)]
        a = SetSystem(11, dead + chain)
        tracemalloc.start()
        try:
            table = _chain_table(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.tolist() == [[9, 10, 0, 1, 2, 3, 4, 5, 6, 7, 8]]
        assert peak < 1 << 20

    def test_matching_complement_of_six(self):
        a = from_poset_ideals(make_matching_complement(6))
        table = _chain_table(a)
        assert table.shape == (604800, 12)
        assert len(np.unique(table, axis=0)) == 604800 == count_maximal_chains(a)


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

    @pytest.mark.parametrize("n", range(1, 9))
    def test_random_rows_have_their_itertools_index(self, n):
        index = {pi: r for r, pi in enumerate(permutations(range(n)))}
        rows = np.random.default_rng(n).permuted(np.tile(np.arange(n), (300, 1)), axis=1)
        rows = rows.astype(np.uint8)
        expect = [index[tuple(row)] for row in rows.tolist()]
        assert _ranks(rows).tolist() == expect

    @pytest.mark.parametrize("n", range(1, 9))
    def test_zero_rows(self, n):
        ranks = _ranks(np.zeros((0, n), dtype=np.uint8))
        assert ranks.shape == (0,) and ranks.dtype == np.int32


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

    def test_rejects_a_cover_over_another_universe(self):
        with pytest.raises(DimensionMismatch, match="cover over 3 elements, system over 4"):
            verify_cover(full_power_set(4), PermutationCover(3, ((0, 1, 2),), False))


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
        # 10 cities are 9 elements, one whole group of tower:3:3, whose cover
        # would be certified over S_9; 5 cities need only a cover of A|[4]
        for cities, code in ((10, 3), (5, 0)):
            f = tmp_path / f"{cities}.txt"
            rows = (" ".join(str(abs(i - j)) for j in range(cities)) for i in range(cities))
            f.write_text(f"{cities}\n" + "\n".join(rows) + "\n")
            argv = ["solve", "tsp", "--matrix", str(f), "--algo", "tradeoff"]
            assert run([*argv, "--builtin", "tower:3:3"]) == code
            assert run([*argv, "--builtin", "tower:3:3", "--strategy", "random"]) == code


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
        for pi in map(tuple, random_permutations(4, trials, rng).tolist()):
            counts[pi] = counts.get(pi, 0) + 1
        assert len(counts) == 24
        expect = trials / 24
        sigma = (trials * (1 / 24) * (23 / 24)) ** 0.5
        for c in counts.values():
            assert abs(c - expect) < 5 * sigma


class TestBlockDraws:
    """Block draws are the scalar SplitMix64 stream fed to Fisher-Yates."""

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("seed", [0, 7, -1])
    def test_blocks_equal_the_scalar_stream(self, n, seed):
        block, scalar = SplitMix64(seed), SplitMix64(seed)
        for count in (1, 3, 0, 64, 5):
            rows = random_permutations(n, count, block)
            assert rows.dtype == np.uint8 and rows.shape == (count, n)
            expect = [reference_permutation(n, scalar) for _ in range(count)]
            assert list(map(tuple, rows.tolist())) == expect
            assert block.state == scalar.state

    @pytest.mark.parametrize(
        "n,index",
        [(3, 0), (3, 4), (3, 5), (4, 0), (4, 1), (7, 12), (8, 8), (8, 9), (8, 10), (8, 75)],
    )
    def test_rejected_output_shifts_the_stream(self, n, index):
        # 2^64 - 1 is rejected under every bound that is not a power of two
        # (at n = 3, output 4 meets bound 3 and output 5 bound 2; at n = 8,
        # outputs 8, 9, 10 and 75 meet bounds 7, 6, 5 and 3), and the block
        # must skip it exactly where the scalar below() does
        seed = seed_with_output(MASK64, index)
        stream = SplitMix64(seed)
        assert [stream.next_u64() for _ in range(index + 1)][index] == MASK64
        block, scalar = SplitMix64(seed), SplitMix64(seed)
        rows = random_permutations(n, 12, block)
        expect = [reference_permutation(n, scalar) for _ in range(12)]
        assert list(map(tuple, rows.tolist())) == expect
        assert block.state == scalar.state

    def test_rejection_consumes_an_output(self):
        # below(3) skips output 0 and returns output 1 mod 3
        seed = seed_with_output(MASK64, 0)
        assert SplitMix64(seed).next_u64() == MASK64
        rng = SplitMix64(seed)
        second = SplitMix64((seed + GAMMA) & MASK64).next_u64()
        assert rng.below(3) == second % 3
        assert rng.state == (seed + 2 * GAMMA) & MASK64
        # a row of S_3 draws below(3) and below(2): three outputs in all
        block = SplitMix64(seed)
        random_permutations(3, 1, block)
        assert block.state == (seed + 3 * GAMMA) & MASK64


class TestGoldenCovers:
    """Covers pinned from the per-permutation implementation."""

    @pytest.mark.parametrize("name", sorted(GOLDEN["greedy"]))
    def test_greedy(self, name):
        a = GOLDEN_SYSTEMS[name]()
        assert golden(greedy_cover(a).perms) == GOLDEN["greedy"][name]

    @pytest.mark.parametrize("key", sorted(GOLDEN["random"]))
    def test_random(self, key):
        name, seed = key.split()
        a = GOLDEN_SYSTEMS[name]()
        assert golden(randomized_cover(a, int(seed)).perms) == GOLDEN["random"][key]

    def test_random_family_has_over_100_chains(self):
        assert count_maximal_chains(GOLDEN_SYSTEMS["ideals:7:3"]()) > 100
