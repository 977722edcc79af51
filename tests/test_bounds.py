"""Bound evaluations: entropy helpers, upper bounds, sandwich checks."""

import random
from math import comb

import mpmath
import pytest

from chaineff.bounds import (
    BOUND_PRECISION_BITS,
    GOLDEN_TOLERANCE,
    _limit_objective,
    basic_upper_bound,
    binary_entropy,
    improved_upper_bound,
    inverse_binary_entropy,
    regular_bipartite_bounds,
    regular_bipartite_efficiency_limit,
)
from chaineff.errors import InvalidDegree, InvalidSize
from chaineff.poset import make_circulant, make_matching_complement, poset_efficiency

#: (value, q) of regular_bipartite_efficiency_limit(d).  The values are
#: those the earlier two-bracket search printed; near_one_scan confirms them
#: and q for every d.
LIMITS = {
    1: ("4.24264068711929", "0.666666666774467"),
    2: ("4.05770506102945", "0.734675821318143"),
    3: ("3.87726927113975", "0.779793132909598"),
    4: ("3.72812029690780", "0.829780746939684"),
    5: ("3.62843089489157", "0.931355183868872"),
    6: ("3.60177570064083", "0.975036489807048"),
    7: ("3.60945869594015", "0.989622003035814"),
    8: ("3.62845731241362", "0.995355341944972"),
    9: ("3.65007291167038", "0.997829977013176"),
    10: ("3.67111119534160", "0.998959298545497"),
    11: ("3.69049791232872", "0.999492766909152"),
    12: ("3.70798991338761", "0.999750286621663"),
    13: ("3.72366174038119", "0.999876302390969"),
    14: ("3.73769530331205", "0.999938493375095"),
    15: ("3.75029393076913", "0.999969346918441"),
    16: ("3.76164903735022", "0.999984702568963"),
}


def scan_max(d, lo, hi, points=64, rounds=12):
    """Oracle: (q, objective) of the limit objective's maximum on [lo, hi],
    by scanning a grid at full precision and narrowing to the best point's
    neighbours, each round 32 times finer."""
    with mpmath.workprec(BOUND_PRECISION_BITS):
        lo, hi = mpmath.mpf(lo), mpmath.mpf(hi)
        for _ in range(rounds):
            step = (hi - lo) / points
            best = max(range(points + 1), key=lambda i: _limit_objective(lo + i * step, d))
            lo, hi = lo + max(0, best - 1) * step, lo + min(points, best + 1) * step
        q = (lo + hi) / 2
        return q, _limit_objective(q, d)


def limit_root(d):
    with mpmath.workprec(BOUND_PRECISION_BITS):
        return mpmath.power(comb(2 * d, d), mpmath.mpf(1) / (2 * d))


def near_one_scan(d):
    """Oracle: (printed value, q) of the limit's peak near q = 1, scanning
    the q with 1 - q in [2^-d / 8, 8 * 2^-d], clamped at q >= 0."""
    with mpmath.workprec(BOUND_PRECISION_BITS):
        gap = mpmath.mpf(2) ** -d
        q, peak = scan_max(d, max(0, 1 - 8 * gap), 1 - gap / 8)
        return mpmath.nstr(peak * limit_root(d), 15, strip_zeros=False), q


class TestEntropy:
    def test_symmetry_and_half(self):
        rng = random.Random(1)
        for _ in range(1000):
            p = rng.random()
            assert abs(float(binary_entropy(p) - binary_entropy(1 - p))) < 1e-12
        assert float(binary_entropy(0.5)) == 1.0

    def test_inverse(self):
        rng = random.Random(2)
        for _ in range(200):
            p = rng.random()
            back = float(inverse_binary_entropy(binary_entropy(p)))
            assert abs(back - min(p, 1 - p)) < 1e-9


class TestBasicBound:
    def test_rejects_small_n(self):
        with pytest.raises(InvalidSize):
            basic_upper_bound(2)

    def test_n3_vacuous(self):
        report = basic_upper_bound(3)
        assert abs(float(report.auxiliaries["explicit"]) - 3 * 2.718281828459045 / 3) < 1e-9

    def test_large_n_approaches_third(self):
        assert abs(basic_upper_bound(10**7).value_float - 1 / 3) < 1e-3

    def test_reports_tighter_form(self):
        report = basic_upper_bound(1000)
        explicit = float(report.auxiliaries["explicit"])
        simplified = float(report.auxiliaries["simplified"])
        assert report.value_float == min(explicit, simplified)
        # the explicit form is the tighter one for all moderate n
        assert explicit <= simplified

    def test_monotone_decreasing(self):
        values = [basic_upper_bound(n).value_float for n in (10, 100, 1000, 10000)]
        assert values == sorted(values, reverse=True)


class TestImprovedBound:
    def test_paper_constants(self):
        report = improved_upper_bound()
        delta = float(report.auxiliaries["delta"])
        gamma = float(report.auxiliaries["gamma"])
        assert abs(delta - 0.41069) < 1e-4
        assert gamma <= 0.3261
        assert report.value_float <= 0.331644
        assert 1 / report.value_float > 3.015

    def test_gamma_dominates_both_branches(self):
        report = improved_upper_bound()
        delta = float(report.auxiliaries["delta"])
        assert float(binary_entropy(delta)) / 3 <= 0.3261
        assert float(binary_entropy((1 - 2 * delta) / 3)) <= 0.3261

    def test_improved_beats_basic(self):
        improved = improved_upper_bound().value_float
        for n in (3, 10, 100, 10**6):
            assert improved < basic_upper_bound(n).value_float


class TestRegularBipartite:
    def test_rejects_bad_degree(self):
        with pytest.raises(InvalidDegree):
            regular_bipartite_bounds(5, 6)

    def test_rejects_more_than_max_elements(self):
        regular_bipartite_bounds(32, 3)
        with pytest.raises(InvalidSize):
            regular_bipartite_bounds(33, 3)

    def test_bucket_collapse(self):
        # d = m: the lower bound collapses to 2^{m+1} - 1
        report = regular_bipartite_bounds(13, 13)
        assert abs(float(report.auxiliaries["alpha_lower"]) - (2**14 - 1)) < 1e-3

    def test_m29_respects_construction(self):
        report = regular_bipartite_bounds(29, 6)
        assert float(report.auxiliaries["inv_eta_lower"]) <= 3.7492 + 0.0005

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_sandwich_on_exact_circulants(self, m):
        # d-regular circulants: exact efficiency below the bound
        for d in range(1, m + 1):
            offsets = tuple(range(d))
            p = make_circulant(m, offsets)
            exact = 1 / poset_efficiency(p).inv_eta_float
            bound = regular_bipartite_bounds(m, d).value_float
            assert exact <= bound + 1e-9


class TestEfficiencyLimit:
    @pytest.mark.parametrize("d", range(1, 9))
    def test_exceeds_3_6(self, d):
        assert regular_bipartite_efficiency_limit(d).value_float > 3.6

    def test_d6_maximizer(self):
        report = regular_bipartite_efficiency_limit(6)
        assert abs(float(report.auxiliaries["q"]) - 0.9750364898053781) < 1e-6

    def test_d7_maximizer(self):
        report = regular_bipartite_efficiency_limit(7)
        assert abs(float(report.auxiliaries["q"]) - 0.99) < 5e-3

    @pytest.mark.parametrize("d", sorted(LIMITS))
    def test_pinned_values(self, d):
        report = regular_bipartite_efficiency_limit(d)
        assert (report.value, report.auxiliaries["q"]) == LIMITS[d]

    @pytest.mark.parametrize("d", range(1, 33))
    def test_peak_near_one_matches_scan(self, d):
        value, q = near_one_scan(d)
        report = regular_bipartite_efficiency_limit(d)
        assert report.value == value
        # half the search tolerance, plus the printed digits
        tol = GOLDEN_TOLERANCE * 2.0**-d / 2 + 5e-16
        assert abs(mpmath.mpf(report.auxiliaries["q"]) - q) < tol

    @pytest.mark.parametrize("d", range(4, 33))
    def test_no_higher_peak_off_the_bracket(self, d):
        # the search brackets only the peak near q = 1; the interior peak,
        # near q = 1/2 for large d, and the rest of (0, 1) stay below it
        report = regular_bipartite_efficiency_limit(d)
        with mpmath.workprec(BOUND_PRECISION_BITS):
            gap = mpmath.mpf(2) ** -d
            for lo, hi in ((0, 1 - 8 * gap), (1 - gap / 8, 1)):
                _, peak = scan_max(d, lo, hi, rounds=6)
                assert peak * limit_root(d) < mpmath.mpf(report.value)

    def test_degree_range(self):
        regular_bipartite_efficiency_limit(32)
        for d in (0, 33):
            with pytest.raises(InvalidDegree):
                regular_bipartite_efficiency_limit(d)
