"""Semiring core: adapters, evaluation, brute-force reference."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaineff.errors import InvalidInstance, InvalidPermutation
from chaineff.semiring import (
    BOOLEAN,
    INF,
    MIN_PLUS,
    SUM_PRODUCT,
    DfasInstance,
    PermutationProblem,
    TspInstance,
    brute_force_optimum,
    dfas_as_permutation_problem,
    evaluate_permutation,
    tsp_as_permutation_problem,
)

FOUR_CITY = [[0, 1, 2, 3], [1, 0, 4, 5], [2, 4, 0, 6], [3, 5, 6, 0]]


def brute_tsp(weights):
    """Independent oracle: enumerate all tours anchored at city 0."""
    from itertools import permutations

    n = len(weights)
    best = INF
    for tail in permutations(range(1, n)):
        tour = (0,) + tail + (0,)
        cost = sum(weights[a][b] for a, b in zip(tour, tour[1:]))
        best = min(best, cost)
    return best


def brute_dfas(n, arcs):
    """Independent oracle: count backward arcs over every total order."""
    from itertools import permutations

    best = len(arcs)
    for sigma in permutations(range(n)):
        pos = {v: i for i, v in enumerate(sigma)}
        best = min(best, sum(1 for u, v in arcs if pos[u] > pos[v]))
    return best


class TestSemiringAxioms:
    @given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=8))
    def test_min_plus_idempotent_add(self, xs):
        acc = MIN_PLUS.zero
        for x in xs:
            acc = MIN_PLUS.add(acc, x)
        assert acc == min(xs)
        assert MIN_PLUS.add(acc, acc) == acc

    @given(st.integers(min_value=0, max_value=10**6))
    def test_min_plus_identities(self, x):
        assert MIN_PLUS.add(x, MIN_PLUS.zero) == x
        assert MIN_PLUS.mul(x, MIN_PLUS.one) == x
        assert MIN_PLUS.mul(x, MIN_PLUS.zero) == MIN_PLUS.zero

    def test_boolean_idempotent(self):
        assert BOOLEAN.add(True, True) is True
        assert BOOLEAN.idempotent

    def test_sum_product_not_idempotent(self):
        assert not SUM_PRODUCT.idempotent
        assert SUM_PRODUCT.add(2.0, 2.0) == 4.0


class TestTspInstance:
    def test_four_city_optimum(self):
        prob = tsp_as_permutation_problem(TspInstance.from_matrix(FOUR_CITY))
        assert brute_force_optimum(prob) == 14
        assert brute_tsp(FOUR_CITY) == 14

    def test_adapter_hand_evaluation(self):
        # tour 1-2-3-4-1 in 1-based city labels: sigma places cities 2,3,4
        prob = tsp_as_permutation_problem(TspInstance.from_matrix(FOUR_CITY))
        assert evaluate_permutation(prob, (0, 1, 2)) == 1 + 4 + 6 + 3

    def test_rejects_non_square(self):
        with pytest.raises(InvalidInstance):
            TspInstance.from_matrix([[0, 1], [1, 0], [2, 2]])

    def test_rejects_negative(self):
        with pytest.raises(InvalidInstance):
            TspInstance.from_matrix([[0, -1], [1, 0]])

    def test_inf_edges_allowed(self):
        inst = TspInstance.from_matrix([[0, 1, INF], [1, 0, 2], [INF, 2, 0]])
        prob = tsp_as_permutation_problem(inst)
        assert brute_force_optimum(prob) == 1 + 2 + INF or brute_force_optimum(prob) < INF

    def test_two_city(self):
        inst = TspInstance.from_matrix([[0, 3], [5, 0]])
        prob = tsp_as_permutation_problem(inst)
        assert brute_force_optimum(prob) == 8

    @pytest.mark.parametrize("seed", range(10))
    def test_adapter_matches_oracle(self, seed):
        rng = random.Random(seed)
        n = rng.randint(3, 6)
        w = [[0 if i == j else rng.randint(0, 50) for j in range(n)] for i in range(n)]
        prob = tsp_as_permutation_problem(TspInstance.from_matrix(w))
        assert brute_force_optimum(prob) == brute_tsp(w)


class TestDfasInstance:
    def test_three_cycle(self):
        inst = DfasInstance.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
        prob = dfas_as_permutation_problem(inst)
        assert brute_force_optimum(prob) == 1

    def test_acyclic_is_zero(self):
        inst = DfasInstance.from_arcs(4, [(0, 1), (1, 2), (0, 3)])
        prob = dfas_as_permutation_problem(inst)
        assert brute_force_optimum(prob) == 0

    def test_rejects_self_loop(self):
        with pytest.raises(InvalidInstance):
            DfasInstance.from_arcs(3, [(1, 1)])

    @pytest.mark.parametrize("seed", range(10))
    def test_adapter_matches_oracle(self, seed):
        rng = random.Random(100 + seed)
        n = rng.randint(3, 6)
        arcs = [(i, j) for i in range(n) for j in range(n) if i != j and rng.random() < 0.4]
        inst = DfasInstance.from_arcs(n, arcs)
        prob = dfas_as_permutation_problem(inst)
        assert brute_force_optimum(prob) == brute_dfas(n, arcs)

    @pytest.mark.parametrize("seed", range(5))
    def test_parallel_arcs_match_oracle(self, seed):
        # each arc is repeated one to three times; the cost counts every copy
        rng = random.Random(150 + seed)
        n = rng.randint(3, 6)
        arcs = [
            (i, j)
            for i in range(n)
            for j in range(n)
            if i != j and rng.random() < 0.4
            for _ in range(rng.randint(1, 3))
        ]
        inst = DfasInstance.from_arcs(n, arcs)
        prob = dfas_as_permutation_problem(inst)
        assert brute_force_optimum(prob) == brute_dfas(n, arcs)


class TestEvaluation:
    def test_rejects_non_bijection(self):
        prob = tsp_as_permutation_problem(TspInstance.from_matrix(FOUR_CITY))
        with pytest.raises(InvalidPermutation):
            evaluate_permutation(prob, (0, 0, 2))

    def test_single_element_problem(self):
        prob = PermutationProblem(
            n=1, degree=1, semiring=MIN_PLUS, cost_fn=lambda mask, window: 7
        )
        assert brute_force_optimum(prob) == 7

    @settings(max_examples=25)
    @given(st.integers(min_value=2, max_value=5), st.randoms(use_true_random=False))
    def test_boolean_problem_matches_any_semantics(self, n, rng):
        forbidden = {(i, j) for i in range(n) for j in range(n) if rng.random() < 0.3}

        def ok(mask, window):
            if len(window) < 2:
                return True
            return (window[-2], window[-1]) not in forbidden

        prob = PermutationProblem(n=n, degree=2, semiring=BOOLEAN, cost_fn=ok)
        from itertools import permutations

        expect = any(
            all((a, b) not in forbidden for a, b in zip(s, s[1:]))
            for s in permutations(range(n))
        )
        assert brute_force_optimum(prob) == expect


def test_property_tests_run_the_shared_profile():
    # loaded by conftest.py: the same examples every run, no deadline
    assert settings.default.derandomize and settings.default.deadline is None
