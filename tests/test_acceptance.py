"""Acceptance gate: the ten headline reproductions and properties.

Each test prints an ``ACCEPTANCE n: PASS|FAIL`` line before asserting,
so the gate's verdict is visible in plain pytest output.  Criterion 5
(the extended construction tier) runs only when CHAINEFF_EXTENDED=1 is
set: it recounts a 10^63-scale extension count exactly and takes a few
minutes on one core.
"""

import os
import random
from math import ceil, comb, factorial, log2

import mpmath
import pytest

from chaineff.cover import cover_size_bound, greedy_cover, randomized_cover
from chaineff.poset import (
    Poset,
    closed_form_matching_complement,
    count_ideals,
    count_linear_extensions,
    make_bucket_order,
    make_circulant,
    make_counterexample,
    make_matching_complement,
    poset_efficiency,
)
from chaineff.bounds import (
    improved_upper_bound,
    regular_bipartite_bounds,
    regular_bipartite_efficiency_limit,
)
from chaineff.semiring import (
    DfasInstance,
    TspInstance,
    brute_force_optimum,
    dfas_as_permutation_problem,
    tsp_as_permutation_problem,
)
from chaineff.setsystem import (
    SetSystem,
    cartesian_power,
    count_maximal_chains,
    from_poset_ideals,
    full_power_set,
    tower_of_cubes,
)
from chaineff.solver import (
    SolverConfig,
    solve_chain_tradeoff,
    solve_gurevich_shelah,
    solve_held_karp,
)

CONSTRUCTION_LAMBDA = (
    5463391192321648360195359004759601753062414786866369527808000000
)

EXTENDED = os.environ.get("CHAINEFF_EXTENDED") == "1"


def verdict(number: int, checks: list[tuple[str, bool]]) -> None:
    ok = all(flag for _, flag in checks)
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'}")
    failed = [name for name, flag in checks if not flag]
    assert not failed, f"criterion {number} failed checks: {failed}"


def test_criterion_01_counterexample():
    p = make_counterexample()
    alpha = count_ideals(p, "lattice")
    lam = count_linear_extensions(p, "ideal-dp")
    tower = tower_of_cubes(17, 2)
    chains = count_maximal_chains(tower)
    ratio = chains / lam
    verdict(
        1,
        [
            ("alpha", alpha == 260553),
            ("lambda", lam == 131576429145341435860520294400),
            ("tower_size", len(tower.members) == 262143),
            ("tower_chains", chains == factorial(17) ** 2),
            ("ratio", 0.95 <= ratio <= 0.97),
        ],
    )


def test_criterion_02_matching_complement():
    checks = []
    for m in range(2, 8):
        alpha, lam = closed_form_matching_complement(m)
        p = make_matching_complement(m)
        checks.append((f"alpha_m{m}", count_ideals(p, "lattice") == alpha))
        ext_method = "brute" if 2 * m <= 10 else "ideal-dp"
        checks.append((f"lambda_m{m}", count_linear_extensions(p, ext_method) == lam))
    alpha13, lam13 = closed_form_matching_complement(13)
    report = poset_efficiency(make_matching_complement(13), alpha=alpha13, lam=lam13)
    checks.append(("inv_eta_m13", abs(report.inv_eta_float - 3.9161) < 0.0005))
    verdict(2, checks)


def test_criterion_03_kp_baseline():
    theta = comb(26, 13) * (2**14 - 1) ** 2
    with mpmath.workprec(128):
        root = float(mpmath.power(theta, mpmath.mpf(1) / 26))
    verdict(3, [("theta_root", abs(root - 3.9271) < 0.0005)])


def test_criterion_04_construction_quick():
    p = make_circulant(29, (0, 1, 3, 6, 10, 15))
    scaled = make_circulant(11, (0, 1, 3))
    lams = {
        m: count_linear_extensions(scaled, m)
        for m in ("ideal-dp", "bipartite-fst", "orbit")
    }
    verdict(
        4,
        [
            ("alpha_sum", count_ideals(p, "bipartite-sum") == 2125130762),
            ("alpha_transfer", count_ideals(p, "circulant-transfer") == 2125130762),
            ("scaled_lambda_agree", len(set(lams.values())) == 1),
        ],
    )


@pytest.mark.skipif(not EXTENDED, reason="extended tier: set CHAINEFF_EXTENDED=1")
def test_criterion_05_construction_extended():
    p = make_circulant(29, (0, 1, 3, 6, 10, 15))
    lam = count_linear_extensions(p, "orbit", memory_budget=1 << 30)
    report = poset_efficiency(p, alpha=2125130762, lam=lam)
    verdict(
        5,
        [
            ("lambda", lam == CONSTRUCTION_LAMBDA),
            ("inv_eta", abs(report.inv_eta_float - 3.7492) < 0.0005),
        ],
    )


def _tradeoff_systems():
    return [
        full_power_set(4),
        tower_of_cubes(2, 2),
        from_poset_ideals(make_matching_complement(2)),
    ]


def test_criterion_06_solver_equivalence():
    systems = _tradeoff_systems()
    rng = random.Random(20240817)
    mismatches = 0
    for _ in range(100):
        n = rng.randint(4, 9)
        w = [[0 if i == j else rng.randint(0, 99) for j in range(n)] for i in range(n)]
        inst = TspInstance.from_matrix(w)
        prob = tsp_as_permutation_problem(inst)
        ref = brute_force_optimum(prob)
        values = {solve_held_karp(prob).value, solve_gurevich_shelah(inst).value}
        for a in systems:
            values.add(solve_chain_tradeoff(prob, SolverConfig(set_system=a, g=1)).value)
        if values != {ref}:
            mismatches += 1
    for _ in range(100):
        n = rng.randint(4, 8)
        arcs = [
            (i, j) for i in range(n) for j in range(n) if i != j and rng.random() < 0.4
        ]
        inst = DfasInstance.from_arcs(n, arcs)
        prob = dfas_as_permutation_problem(inst)
        ref = brute_force_optimum(prob)
        values = {solve_held_karp(prob).value}
        for a in systems:
            values.add(solve_chain_tradeoff(prob, SolverConfig(set_system=a, g=1)).value)
        if values != {ref}:
            mismatches += 1
    verdict(6, [("zero_mismatches", mismatches == 0)])


def test_criterion_07_power_identity():
    rng = random.Random(20240818)
    checks = []
    for trial in range(50):
        n = rng.randint(2, 5)
        k = rng.randint(2, 3)
        members = {0, (1 << n) - 1}
        for _ in range(rng.randint(1, 2**n)):
            members.add(rng.randrange(1 << n))
        a = SetSystem(n, sorted(members))
        lhs = count_maximal_chains(cartesian_power(a, k))
        rhs = count_maximal_chains(a) ** k * factorial(k * n) // factorial(n) ** k
        checks.append((f"system_{trial}", lhs == rhs))
    for trial in range(100):
        n = rng.randint(2, 8)
        covers = [
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3
        ]
        p = Poset(n, covers)
        checks.append(
            (
                f"poset_{trial}",
                count_maximal_chains(from_poset_ideals(p))
                == count_linear_extensions(p, "ideal-dp"),
            )
        )
    verdict(7, checks)


def test_criterion_08_cover_properties():
    rng = random.Random(20240819)
    checks = []
    tested = 0
    while tested < 10:
        n = rng.randint(3, 6)
        members = {0, (1 << n) - 1}
        for _ in range(rng.randint(1, 2**n)):
            members.add(rng.randrange(1 << n))
        a = SetSystem(n, sorted(members))
        chains = count_maximal_chains(a)
        if chains == 0:
            continue
        cov = greedy_cover(a)
        checks.append((f"certified_{tested}", cov.certified))
        checks.append(
            (f"size_bound_{tested}", len(cov.perms) <= cover_size_bound(n, chains))
        )
        r1 = randomized_cover(a, seed=tested)
        r2 = randomized_cover(a, seed=tested)
        checks.append((f"reproducible_{tested}", r1.perms == r2.perms))
        tested += 1
    verdict(8, checks)


def test_criterion_09_bounds():
    checks = []
    improved = improved_upper_bound()
    checks.append(("gamma", float(improved.auxiliaries["gamma"]) <= 0.3261))
    checks.append(("improved_value", improved.value_float <= 0.331644))
    checks.append(("reciprocal", 1 / improved.value_float > 3.015))
    for d in range(1, 9):
        checks.append(
            (f"limit_d{d}", regular_bipartite_efficiency_limit(d).value_float > 3.6)
        )
    for m, d in [(3, 1), (4, 2), (5, 3), (8, 3), (10, 4), (12, 5)]:
        p = make_circulant(m, tuple(range(d)))
        eta = 1 / poset_efficiency(p).inv_eta_float
        bound = regular_bipartite_bounds(m, d).value_float
        checks.append((f"sandwich_m{m}_d{d}", eta <= bound + 1e-9))
        checks.append((f"below_3_6_m{m}_d{d}", eta < 1 / 3.6 + 1e-9))
    # m=29 construction via quick alpha (+ extended lambda when enabled)
    lam29 = (
        count_linear_extensions(
            make_circulant(29, (0, 1, 3, 6, 10, 15)), "orbit", memory_budget=1 << 30
        )
        if EXTENDED
        else CONSTRUCTION_LAMBDA
    )
    report = poset_efficiency(
        make_circulant(29, (0, 1, 3, 6, 10, 15)), alpha=2125130762, lam=lam29
    )
    eta29 = 1 / report.inv_eta_float
    checks.append(("construction_below_3_6", eta29 < 1 / 3.6 + 1e-9))
    checks.append(
        ("construction_sandwich", eta29 <= regular_bipartite_bounds(29, 6).value_float + 1e-9)
    )
    verdict(9, checks)


def test_criterion_10_space_accounting():
    rng = random.Random(20240820)
    checks = []
    for n in range(4, 13):
        w = [[0 if i == j else rng.randint(0, 99) for j in range(n)] for i in range(n)]
        res = solve_gurevich_shelah(TspInstance.from_matrix(w))
        bound = 8 * n * n * (ceil(log2(n)) + 1)
        checks.append((f"gs_n{n}", res.stats.peak_resident_entries <= bound))
    for trial in range(10):
        n = rng.randint(4, 9)
        w = [[0 if i == j else rng.randint(0, 99) for j in range(n)] for i in range(n)]
        prob = tsp_as_permutation_problem(TspInstance.from_matrix(w))
        for t, k in [(2, 2), (3, 2)]:
            a = tower_of_cubes(t, k)
            res = solve_chain_tradeoff(prob, SolverConfig(set_system=a, g=1))
            s = ceil(prob.n / a.n)
            n_padded = a.n * s
            limit = len(a.members) ** s * n_padded**prob.degree
            checks.append(
                (f"tradeoff_{trial}_t{t}k{k}", res.stats.peak_resident_entries <= limit)
            )
    verdict(10, checks)
