"""Chi-square numerics against independent scipy oracles and identities."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from marketrng import chi2 as chi2_module
from marketrng.chi2 import _norm_ppf, assess, chi2_critical, chi2_sf

REFERENCE_CRITICALS = {2: 5.991, 4: 9.488, 8: 15.507, 16: 26.296, 32: 46.194, 64: 83.675}


class TestSurvivalFunction:
    def test_zero_statistic_has_full_mass(self):
        for dof in (1, 2, 17, 1000):
            assert chi2_sf(0.0, dof) == 1.0
            assert chi2_sf(5e-324, dof) == 1.0  # its half rounds to 0.0, where log would raise

    def test_two_dof_closed_form(self):
        for x in (0.1, 1.0, 5.991, 20.0, 100.0):
            assert chi2_sf(x, 2) == pytest.approx(math.exp(-x / 2.0), rel=1e-13)

    def test_table_value(self):
        assert chi2_sf(5.991, 2) == pytest.approx(0.05, abs=1e-4)

    def test_against_scipy_oracle(self):
        for dof in (1, 2, 3, 7, 16, 64, 500, 10_000):
            for q in (0.9, 0.5, 0.1, 0.05, 0.01, 1e-4):
                x = stats.chi2.isf(q, dof)
                assert chi2_sf(x, dof) == pytest.approx(stats.chi2.sf(x, dof), abs=1e-10)

    def test_strictly_decreasing(self):
        # Quantile-anchored grid keeps sf away from the regions where it
        # rounds to exactly 1.0 or underflows to 0.0.
        for dof in (1, 4, 64, 4096):
            lo = chi2_critical(1.0 - 1e-10, dof)
            hi = chi2_critical(1e-10, dof)
            grid = np.linspace(lo, hi, 60)
            values = [chi2_sf(float(x), dof) for x in grid]
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            chi2_sf(-1.0, 2)
        with pytest.raises(ValueError):
            chi2_sf(1.0, 0)

    @pytest.mark.parametrize("dof", [1, 2, 64, 270_400])
    def test_infinite_statistic_has_no_mass(self, dof):
        assert chi2_sf(math.inf, dof) == 0.0
        result = assess(math.inf, dof, 0.05)
        assert result.p_value == 0.0 and result.significant

    @pytest.mark.parametrize("dof", [1, 2, 64, 270_400])
    def test_nan_statistic_is_rejected(self, dof):
        with pytest.raises(ValueError, match="nan"):
            chi2_sf(math.nan, dof)
        with pytest.raises(ValueError, match="nan"):
            assess(math.nan, dof, 0.05)


class TestCriticalValues:
    def test_reference_degrees_of_freedom(self):
        for dof in REFERENCE_CRITICALS:
            mine = chi2_critical(0.05, dof)
            oracle = stats.chi2.isf(0.05, dof)
            assert abs(mine - oracle) <= 1e-6
            assert mine == pytest.approx(REFERENCE_CRITICALS[dof], abs=5e-4)

    def test_very_large_dof(self):
        dof = 4225 * 64
        mine = chi2_critical(0.05, dof)
        oracle = stats.chi2.isf(0.05, dof)
        assert abs(mine - oracle) / oracle <= 1e-3

    def test_median_asymptote(self):
        for dof in (100, 1000, 100_000):
            assert chi2_critical(0.5, dof) == pytest.approx(dof - 2.0 / 3.0, rel=0.01)

    def test_monotone_in_dof(self):
        values = [chi2_critical(0.05, d) for d in (1, 2, 5, 10, 50, 100, 1000)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_round_trip(self):
        for alpha in (0.01, 0.05, 0.5):
            for dof in list(range(1, 101)) + [1000, 100_000]:
                x = chi2_critical(alpha, dof)
                assert abs(chi2_sf(x, dof) - alpha) <= 1e-6

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            chi2_critical(0.0, 5)
        with pytest.raises(ValueError):
            chi2_critical(1.0, 5)
        with pytest.raises(ValueError):
            chi2_critical(0.05, 0)


class TestAssessment:
    def test_zero_statistic(self):
        result = assess(0.0, 2, 0.05)
        assert result.p_value == 1.0
        assert not result.significant

    def test_negative_statistic_has_p_value_one(self):
        # A finite-sample second difference below zero, as simulate met on
        # a 12-bit sequence; chi2_sf itself keeps rejecting negative input.
        result = assess(-0.8000000000000007, 2, 0.05)
        assert result.statistic == -0.8000000000000007
        assert result.p_value == 1.0
        assert not result.significant
        assert result.critical_value == chi2_critical(0.05, 2)
        with pytest.raises(ValueError):
            chi2_sf(-0.8000000000000007, 2)
        with pytest.raises(ValueError):
            assess(-1.0, 0, 0.05)

    def test_reference_year_values(self):
        # 2001's second difference at two degrees of freedom discards the
        # null; 2002's 4.24 does not.
        assert assess(56.58, 2, 0.05).significant
        assert not assess(4.24, 2, 0.05).significant

    def test_statistic_at_the_critical_value_is_not_significant(self):
        assert assess(chi2_critical(0.05, 2), 2, 0.05).significant is False

    def test_consistency_invariant(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            dof = int(rng.integers(1, 200))
            statistic = float(rng.uniform(0.0, 3.0 * dof))
            result = assess(statistic, dof, 0.05)
            assert result.significant == (statistic > result.critical_value)
            assert 0.0 <= result.p_value <= 1.0

    def test_p_value_monotone_in_statistic(self):
        previous = 1.1
        for statistic in np.linspace(0.0, 50.0, 25):
            p = assess(float(statistic), 8, 0.05).p_value
            assert p < previous or (p == previous == 1.0)
            previous = p


class TestSimulatedMean:
    def test_mean_of_simulated_chi_square_draws(self):
        # Independent simulation oracle: a chi-square with d degrees of
        # freedom is a sum of d squared standard normals.
        rng = np.random.default_rng(99)
        n = 100_000
        for dof in (1, 2, 5):
            draws = (rng.standard_normal((n, dof)) ** 2).sum(axis=1)
            se = math.sqrt(2.0 * dof / n)
            assert abs(draws.mean() - dof) < 3.0 * se


# Degrees of freedom log-uniform over 1..10**7, the scale of combined
# statistics (|A| * 2**(nu-2) for thousands of sequences).
DOF = st.floats(0.0, 7.0).map(lambda e: int(round(10.0**e)))
# Upper-tail probabilities from 1e-12 to just under 1, log-spaced in each tail.
TAIL = st.floats(-12.0, -1e-3).map(lambda e: 10.0**e) | st.floats(-12.0, -0.3).map(
    lambda e: 1.0 - 10.0**e
)


def sf_bound(dof):
    """Relative error bound of chi2_sf against scipy.

    The prefactor exp(-x + a log x - lgamma(a)) loses about a*log(x)
    machine epsilons, so the error grows with dof.  Against scipy 1.17,
    4000 sampled points gave 9.5e-9 near the mean and at most 1.8e-8 in
    the tails at dof near 10**7, and under 1e-13 below dof 100.
    """
    return 1e-13 + 4e-15 * dof


class TestScipyProperties:
    @given(DOF, TAIL)
    @example(10**7, 0.5)
    @example(10**7, 1e-12)
    @example(1, 1.0 - 1e-12)
    def test_sf_matches_scipy(self, dof, q):
        x = float(stats.chi2.isf(q, dof))
        oracle = stats.chi2.sf(x, dof)
        assert abs(chi2_sf(x, dof) - oracle) <= sf_bound(dof) * oracle

    @given(DOF, st.floats(-8.0, -1e-3).map(lambda e: 10.0**e))
    @example(10**7, 0.05)
    @example(1, 0.999)
    # Below 2**-54, 1 - alpha rounds to 1.0, whose normal quantile is log(0).
    @example(2, 2.0**-53)
    @example(64, 2.0**-54)
    @example(2, 1e-17)
    @example(270_400, 1e-17)
    @example(64, 1e-100)
    @example(270_400, 1e-300)
    def test_critical_matches_scipy(self, dof, alpha):
        # Bisection stops once the bracket is 1e-9 * max(1, hi) wide and
        # returns its midpoint; the sf error moves the root far less.
        oracle = stats.chi2.isf(alpha, dof)
        assert abs(chi2_critical(alpha, dof) - oracle) <= 1e-9 * max(1.0, oracle)


def reference_critical(alpha, dof, sf=chi2_sf):
    """chi2_critical as plain bracket and bisection, evaluating ``sf`` at every point."""
    z = _norm_ppf(min(1.0 - alpha, 1.0 - 2.0**-53))
    t = 1.0 - 2.0 / (9.0 * dof) + z * math.sqrt(2.0 / (9.0 * dof))
    seed = dof * t**3 if t > 0.0 else 0.5
    lo = 0.0
    hi = max(seed, 1.0)
    while sf(hi, dof) > alpha:
        hi *= 2.0
    if seed > 0.0 and seed < hi and sf(seed, dof) > alpha:
        lo = seed
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if sf(mid, dof) > alpha:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-9 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


# The (0.05, dof) pairs that the benchmark runs assess at nu = 3..8 with the
# default trims: the 42 of the default 4225 x 227 simulate spec, then those
# the firm (1940 firms) and year (20 years) streams of its panel add.
SIM_DOFS = (
    2, 4, 8, 16, 32, 64, 8028, 8112, 8198, 8282, 8366, 8450, 16056, 16224, 16396, 16564, 16732, 16900,
    32112, 32448, 32792, 33128, 33464, 33800, 64224, 64896, 65584, 66256, 66928, 67600, 128448, 129792,
    131168, 132512, 133856, 135200, 256896, 259584, 262336, 265024, 267712, 270400,
)
PANEL_DOFS = (
    3686, 3726, 3764, 3804, 3842, 3880, 7372, 7452, 7528, 7608, 7684, 7760, 14744, 14904, 15056, 15216,
    15368, 15520, 29488, 29808, 30112, 30432, 30736, 31040, 58976, 59616, 60224, 60864, 61472, 62080,
    117952, 119232, 120448, 121728, 122944, 124160,
    38, 40, 76, 80, 152, 160, 304, 320, 608, 640, 1216, 1280,
)


class TestCriticalValueBits:
    """chi2_critical returns the plain bisection's value bit for bit.

    ``__wrapped__`` skips the cache, so every case computes afresh.
    """

    @pytest.mark.parametrize("dof", SIM_DOFS + PANEL_DOFS)
    def test_benchmark_pairs(self, dof):
        assert chi2_critical.__wrapped__(0.05, dof) == reference_critical(0.05, dof)

    @pytest.mark.parametrize("alpha", [1e-12, 1e-6, 0.01, 0.05, 0.5, 0.95, 1.0 - 1e-9])
    def test_dof_from_one_to_ten_million(self, alpha):
        dofs = list(range(1, 41)) + [int(round(10.0 ** (k / 4))) for k in range(6, 29)]
        for dof in dofs:
            assert chi2_critical.__wrapped__(alpha, dof) == reference_critical(alpha, dof), dof

    @settings(deadline=None)
    @given(DOF, TAIL)
    @example(1, 1e-12)
    @example(10**7, 1e-12)
    @example(1, 1.0 - 1e-9)
    @example(10**7, 1.0 - 1e-9)
    @example(10**7, 0.5)
    # Bisection evaluates a point inside the sf's rounding band at these two
    # (found by a search of 1,134 cases), so a Newton band narrower than
    # that rounding band changes the result's bits.
    @example(3 * 10**6, 0.48861880442715255)
    @example(10**7, 0.44457960405634067)
    def test_matches_plain_bisection(self, dof, alpha):
        assert chi2_critical.__wrapped__(alpha, dof) == reference_critical(alpha, dof)

    @pytest.mark.parametrize(
        "alpha, dof, flat", [(1.0 - 1e-9, 1, True), (1.0 - 1e-9, 2, True), (0.05, 270_400, False), (1e-12, 10**7, False)]
    )
    def test_band_skips_points_unless_sf_is_flat_there(self, monkeypatch, alpha, dof, flat):
        # Near alpha = 1 at small dof the root is so close to 0 that chi2_sf
        # rounds to one value across the band, so every point is evaluated.
        reference_points, points = [], []
        expected = reference_critical(alpha, dof, lambda x, d: reference_points.append(x) or chi2_sf(x, d))
        monkeypatch.setattr(chi2_module, "chi2_sf", lambda x, d: points.append(x) or chi2_sf(x, d))
        assert chi2_critical.__wrapped__(alpha, dof) == expected
        if flat:
            assert points[-len(reference_points) :] == reference_points
        else:
            assert len(points) <= 4 < len(reference_points)
