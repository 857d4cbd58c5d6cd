import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr, ndtri

import gaussdesign.rng as grng
import gaussdesign.covmap as covmap
from gaussdesign.covmap import (CovarianceMap, apply_map, binormal_density,
                                build_table, discretize, f_arm, f_cross,
                                quantile_thresholds, r_ij,
                                weighted_discrete_map)
from gaussdesign.elliptope import factor_from_rows, identity_factor
from gaussdesign.hermite import continuous_cov_maps


class TestQuantileThresholds:
    def test_two_arms(self):
        q = quantile_thresholds(2)
        assert q.thresholds == pytest.approx([0.0], abs=1e-12)

    def test_three_arms(self):
        # inverse-CDF oracle at 1/3, 2/3
        oracle = ndtri([1.0 / 3.0, 2.0 / 3.0])
        assert oracle[1] == pytest.approx(0.4307272992954576, abs=1e-12)
        q = quantile_thresholds(3)
        assert q.thresholds == pytest.approx(oracle, abs=1e-12)

    def test_four_arms(self):
        oracle = ndtri([0.25, 0.5, 0.75])
        assert oracle[2] == pytest.approx(0.6744897501960817, abs=1e-12)
        assert quantile_thresholds(4).thresholds == pytest.approx(oracle, abs=1e-12)

    def test_exactly_antisymmetric(self):
        # q_{K-i} = -q_i, so mirrored terms cancel exactly (b = 0 in the
        # asymptotic branch of the rectangle kernel)
        for K in range(2, 65):
            q = quantile_thresholds(K).thresholds
            assert np.array_equal(q, -q[::-1]), K

    @pytest.mark.parametrize("K", [1, 0, 65, -3])
    def test_range_errors(self, K):
        with pytest.raises(ValueError):
            quantile_thresholds(K)


class TestNormalHelpers:
    """covmap._ndtr and covmap._ndtri against scipy.special as the oracle."""

    def test_quantiles_within_four_ulp_of_scipy(self):
        # measured: 1309 of the 2016 quantiles i/K, K = 2..64, differ from
        # scipy's ndtri, by at most 4 ulp; Phi^-1(1/2) is exactly 0 in both
        for K in range(2, 65):
            for i in range(1, K):
                got, want = covmap._ndtri(i / K), float(ndtri(i / K))
                assert abs(got - want) <= 4 * np.spacing(abs(want)), (K, i)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.5, 1.5, np.nan])
    def test_quantile_ends_and_outside_match_scipy(self, p):
        np.testing.assert_equal(covmap._ndtri(p), ndtri(p))

    def test_cdf_within_scaled_bound_of_scipy(self):
        # measured over [-40, 10]: relative deviation at most 5.7e-16 (1 + x^2)
        # where scipy's Phi is a normal float (the tail's growth is the
        # rounding of x / sqrt(2), amplified by d log Phi / d log x), and at
        # most 5.9e-311 absolute where it is subnormal or 0
        x = np.concatenate([np.linspace(-40.0, 10.0, 50_001),
                            np.random.default_rng(0).uniform(-40.0, 10.0, 20_000)])
        got, want = covmap._ndtr(x), ndtr(x)
        normal = want >= np.finfo(float).tiny
        rel = np.abs(got - want)[normal] / want[normal]
        assert np.all(rel <= 1e-15 * (1.0 + x[normal] ** 2))
        assert np.all(np.abs(got - want)[~normal] <= 1e-310)

    def test_scalar_and_array_agree_bit_for_bit(self):
        x = np.concatenate([np.linspace(-40.0, 10.0, 5001), [-0.0, 0.0, np.nan, -np.inf, np.inf]])
        scalars = np.array([covmap._ndtr(float(v)) for v in x])
        assert np.array_equal(covmap._ndtr(x), scalars, equal_nan=True)
        assert isinstance(covmap._ndtr(0.3), float)
        assert covmap._ndtr(x.reshape(-1, 2)).shape == (x.size // 2, 2)

    @pytest.mark.parametrize("x", [-0.0, 0.0, np.nan, -np.inf, np.inf])
    def test_cdf_special_values_match_scipy(self, x):
        np.testing.assert_equal(covmap._ndtr(x), ndtr(x))
        np.testing.assert_equal(covmap._ndtr(np.array([x])), ndtr(np.array([x])))


class TestDiscretize:
    def test_far_left(self):
        assert discretize(-5.0, quantile_thresholds(3)) == 1

    def test_boundary_belongs_left(self):
        assert discretize(0.0, quantile_thresholds(2)) == 1
        q3 = quantile_thresholds(3)
        assert discretize(q3.thresholds[0], q3) == 1
        assert discretize(q3.thresholds[1], q3) == 2

    def test_above_second_threshold(self):
        assert discretize(0.431, quantile_thresholds(3)) == 3

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            discretize(np.nan, quantile_thresholds(2))

    def test_vectorized(self):
        q = quantile_thresholds(4)
        arms = discretize(np.array([-2.0, -0.3, 0.3, 2.0]), q)
        assert arms.tolist() == [1, 2, 3, 4]


class TestRij:
    def test_zero_is_empty_integral(self):
        assert r_ij(0.0, 0.7, -1.2) == 0.0

    def test_orthant_closed_form(self):
        # oracle: arcsin(rho) / (2 pi) for qi = qj = 0
        for rho in (-0.99, -0.5, 0.3, 0.5, 0.99):
            assert r_ij(rho, 0.0, 0.0) == pytest.approx(
                np.arcsin(rho) / (2 * np.pi), abs=1e-10)

    def test_comonotone_limit(self):
        assert r_ij(1.0, 0.0, 0.0) == pytest.approx(0.25, abs=1e-15)
        qi, qj = -0.3, 0.8
        expected = min(ndtr(qi), ndtr(qj)) - ndtr(qi) * ndtr(qj)
        assert r_ij(1.0, qi, qj) == pytest.approx(expected, abs=1e-15)

    def test_antimonotone_limit(self):
        qi, qj = -0.3, 0.8
        expected = max(0.0, ndtr(qi) + ndtr(qj) - 1.0) - ndtr(qi) * ndtr(qj)
        assert r_ij(-1.0, qi, qj) == pytest.approx(expected, abs=1e-15)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            r_ij(1.0001, 0.0, 0.0)

    def test_negated_thresholds_bit_identical_below_the_asymptotic_branch(self):
        rhos = np.concatenate([_kernel_rhos(), np.random.default_rng(8).uniform(-1.0, 1.0, 400)])
        rhos = rhos[np.abs(rhos) < 0.925]
        for K in (3, 8, 64):
            q = quantile_thresholds(K).thresholds
            for h, k in ((q[0], q[0]), (q[0], q[-1]), (q[0], q[1]), (-0.3, 0.8)):
                assert np.array_equal(r_ij(rhos, -h, -k), r_ij(rhos, h, k)), (K, h, k)


class TestFArm:
    def test_value_at_one_three_arms(self):
        assert f_arm(3, 1).eval(1.0) == pytest.approx(2.0 / 9.0, abs=1e-12)

    def test_binary_matches_orthant_form(self):
        assert f_arm(2, 1).eval(0.5) == pytest.approx(1.0 / 12.0, abs=1e-10)

    def test_middle_arm_at_zero(self):
        assert f_arm(3, 2).eval(0.0) == 0.0

    @pytest.mark.parametrize("K", [2, 3, 4, 5, 6])
    def test_endpoint_identities(self, K):
        for k in range(1, K + 1):
            m = f_arm(K, k)
            assert abs(m.eval(0.0)) < 1e-10
            assert m.eval(1.0) == pytest.approx((K - 1) / K**2, abs=1e-8)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            f_arm(3, 4)

    def test_binary_map_nondecreasing(self):
        vals = f_arm(2, 1).eval(np.linspace(-0.999, 0.999, 201))
        assert np.all(np.diff(vals) >= 0)

    @pytest.mark.parametrize("rho", [-0.99, -0.5, 0.5, 0.99])
    def test_integral_of_derivative_reconstructs(self, rho):
        m = f_arm(3, 2)
        val, err = quad(lambda r: m.deriv(r), 0.0, rho, epsabs=1e-10, limit=200)
        assert m.eval(rho) == pytest.approx(val, abs=1e-7)


class TestFArmPrime:
    def test_binary_at_zero(self):
        # bivariate density oracle: p_0(0, 0) = 1/(2 pi)
        assert f_arm(2, 1).deriv(0.0) == pytest.approx(1.0 / (2 * np.pi), abs=1e-14)

    def test_three_arm_at_zero(self):
        q1 = ndtri(1.0 / 3.0)
        phi = np.exp(-0.5 * q1**2) / np.sqrt(2 * np.pi)
        assert phi**2 == pytest.approx(0.1322047961439418, abs=1e-12)
        assert f_arm(3, 1).deriv(0.0) == pytest.approx(phi**2, abs=1e-12)

    @pytest.mark.parametrize("K,k", [(2, 1), (3, 1), (3, 2), (4, 3)])
    def test_matches_finite_difference(self, K, k):
        h = 1e-6
        m = f_arm(K, k)
        fd = (m.eval(0.3 + h) - m.eval(0.3 - h)) / (2 * h)
        assert f_arm(K, k).deriv(0.3) == pytest.approx(fd, abs=1e-6)

    def test_divergence_guard(self):
        with pytest.raises(ValueError):
            f_arm(3, 1).deriv(1.0)
        with pytest.raises(ValueError):
            f_arm(3, 1).deriv(-1.0)


class TestFCross:
    def test_complementary_binary_at_one(self):
        assert f_cross(2, 1, 2).eval(1.0) == pytest.approx(-0.25, abs=1e-15)

    def test_zero_for_all_pairs(self):
        for K in (2, 3, 4, 8, 16):
            for k in range(1, K + 1):
                for l in range(1, K + 1):
                    assert f_cross(K, k, l).eval(0.0) == 0.0

    def test_against_frozen_monte_carlo_oracle(self):
        # frozen oracle: 1e7 correlated pairs at rho = 0.5 gave
        # Cov(1{g(X)=1}, 1{g(Y)=2}) = -0.00735197 with SE 6.97e-5
        mc_value, mc_se = -0.0073519706479700, 6.97e-5
        assert f_cross(3, 1, 2).eval(0.5) == pytest.approx(mc_value, abs=3 * mc_se)

    def test_diagonal_reduces_to_arm_map(self):
        rhos = np.linspace(-0.95, 0.95, 11)
        for K, k in ((2, 1), (3, 2), (4, 4)):
            assert f_cross(K, k, k).eval(rhos) == pytest.approx(
                f_arm(K, k).eval(rhos), abs=1e-14)

    @pytest.mark.parametrize("K", [2, 3, 4, 5])
    def test_row_sum_identity(self, K):
        # indicators over arms sum to one, so cross covariances cancel
        rhos = np.array([-0.9, -0.4, 0.1, 0.6, 0.95])
        for k in range(1, K + 1):
            total = sum(f_cross(K, k, l).eval(rhos) for l in range(1, K + 1))
            assert np.max(np.abs(total)) < 1e-8


def test_monte_carlo_equivalence_reduced():
    # reduced version of the full acceptance sweep: K <= 3, 2e5 pairs
    n_pairs = 200_000
    z = grng.normals(11, np.arange(n_pairs // 100), 200).reshape(-1, 2)
    for rho in (-0.8, 0.3):
        x = z[:, 0]
        y = rho * x + np.sqrt(1 - rho**2) * z[:, 1]
        for K in (2, 3):
            q = quantile_thresholds(K)
            ax, ay = discretize(x, q), discretize(y, q)
            for k in range(1, K + 1):
                for l in range(1, K + 1):
                    ix, iy = (ax == k).astype(float), (ay == l).astype(float)
                    emp = np.mean(ix * iy) - ix.mean() * iy.mean()
                    se = np.std((ix - ix.mean()) * (iy - iy.mean())) / np.sqrt(x.size)
                    assert abs(emp - f_cross(K, k, l).eval(rho)) < 4 * se


def test_joint_probability_identity():
    # P(g(X)=k, g(Y)=k) = f_k(rho) + 1/K^2
    rho = 0.3
    n_pairs = 200_000
    z = grng.normals(13, np.arange(n_pairs // 100), 200).reshape(-1, 2)
    x = z[:, 0]
    y = rho * x + np.sqrt(1 - rho**2) * z[:, 1]
    q = quantile_thresholds(3)
    both = (discretize(x, q) == 1) & (discretize(y, q) == 1)
    se = np.std(both.astype(float)) / np.sqrt(x.size)
    assert abs(both.mean() - (f_arm(3, 1).eval(rho) + 1.0 / 9.0)) < 4 * se


class TestWeightedDiscreteMap:
    def test_equal_weights_at_one(self):
        m = weighted_discrete_map(np.full(3, 1.0 / 3.0), 3)
        assert m.eval(1.0) == pytest.approx(2.0 / 27.0, abs=1e-10)

    def test_zero_fixed_point(self):
        m = weighted_discrete_map(np.array([0.2, -0.5, 1.0]), 3)
        assert m.eval(0.0) == 0.0

    def test_degenerate_weight_reduces_to_arm(self):
        m = weighted_discrete_map(np.array([1.0, 0.0]), 2)
        grid = np.linspace(-0.99, 0.99, 101)
        assert m.eval(grid) == pytest.approx(f_arm(2, 1).eval(grid), abs=1e-13)

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            weighted_discrete_map(np.array([1.0, np.inf]), 2)
        with pytest.raises(ValueError):
            weighted_discrete_map(np.array([1.0]), 2)


class TestApplyMap:
    def test_identity_factor(self):
        m = f_arm(3, 1)
        out = apply_map(m, identity_factor(4))
        assert np.allclose(np.diag(out), m.eval(1.0))
        off = out[~np.eye(4, dtype=bool)]
        assert np.max(np.abs(off)) < 1e-15

    def test_duplicated_rows_give_constant(self):
        m = f_arm(2, 1)
        fac = factor_from_rows(np.array([[0.6, 0.8], [0.6, 0.8]]))
        out = apply_map(m, fac)
        assert np.allclose(out, m.eval(1.0))

    def test_matches_scalar_path(self):
        rows = np.random.default_rng(3).standard_normal((5, 3))
        fac = factor_from_rows(rows)
        m = f_arm(3, 2)
        out = apply_map(m, fac)
        g = np.clip(fac.rows @ fac.rows.T, -1, 1)
        np.fill_diagonal(g, 1.0)
        for i in range(5):
            for j in range(5):
                assert out[i, j] == pytest.approx(m.eval(float(g[i, j])), abs=1e-12)


class TestBuildTable:
    def test_matches_direct_quadrature(self):
        m = f_arm(3, 1)
        tab = build_table(m)
        pts = np.random.default_rng(0).uniform(-1 + 1e-6, 1 - 1e-6, 101)
        assert np.max(np.abs(tab.eval(pts) - m.eval(pts))) < 1e-8

    def test_endpoint_uses_analytic_limit(self):
        tab = build_table(f_arm(3, 1))
        assert tab.eval(1.0) == pytest.approx(2.0 / 9.0, abs=1e-12)
        assert tab.eval(-1.0) == f_arm(3, 1).eval(-1.0)

    def test_zero_query(self):
        tab = build_table(f_arm(3, 2))
        assert abs(tab.eval(0.0)) < 1e-12

    def test_sixteen_arm_tables_build_without_warning(self):
        # f_1, f_2, f_15 and f_16 of K = 16 are about 1e-300 near -1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in range(1, 17):
                build_table(f_arm(16, k))


def test_binormal_density_formula():
    rho, x, y = 0.4, 0.3, -0.7
    omr2 = 1 - rho**2
    expected = np.exp(-(x**2 + y**2 - 2 * rho * x * y) / (2 * omr2)) / (2 * np.pi * np.sqrt(omr2))
    assert binormal_density(rho, x, y) == pytest.approx(expected, rel=1e-15)


class TestTableError:
    def test_errors_stored_on_tabulated_map(self):
        m = f_arm(3, 1)
        assert m.table_f_error is None and m.table_d_error is None
        tab = build_table(m)
        assert 0.0 < tab.table_f_error <= 1e-5
        assert np.isfinite(tab.table_d_error)
        grid = tab.table.grid
        mid = 0.5 * (grid[1:] + grid[:-1])
        assert np.max(np.abs(tab.eval(mid) - m.eval(mid))) == tab.table_f_error

    def test_error_scales_with_weights(self):
        # f = sum_k w_k^2 f_k: ten times the contrast is 100 times the map
        # and its table error, and tabulating it must still succeed
        unit = build_table(weighted_discrete_map(np.array([1.0, -1.0, 0.0]), 3))
        big = build_table(weighted_discrete_map(np.array([10.0, -10.0, 0.0]), 3))
        assert big.table_f_error == pytest.approx(100 * unit.table_f_error, rel=1e-9)


def _bound_points():
    """8 10^5 uniform points in [-1, 1] and 10^5 each log-spaced toward
    +-(1 - the edge margin), inside the grid: 10^6 in all."""
    near = 1.0 - np.logspace(np.log10(covmap.DEFAULT_EDGE_MARGIN), -0.5, 100_000)
    return np.concatenate([np.random.default_rng(12).uniform(-1.0, 1.0, 800_000),
                           near, -near])


def _assert_table_bound(cmap, x):
    """f and f' of the table within the asserted bound of the direct
    evaluator (the exact Genz kernel for the discrete maps) at every x."""
    tab = build_table(cmap)
    inner = x[np.abs(x) < 1.0]
    f_err = np.max(np.abs(tab.eval(x) - cmap.eval(x)))
    d_err = np.max(np.abs(tab.deriv(inner) - cmap.deriv(inner)))
    assert f_err <= 1e-5 * np.max(np.abs(tab.table.f_values)), cmap.label
    assert d_err <= 1e-5 * np.max(np.abs(tab.table.d_values)), cmap.label


def _weighted_middle(K, k):
    w = np.zeros(K)
    w[[0, k - 1, K - 1]] = 1.0, -2.0, 0.5
    return weighted_discrete_map(w, K)


# maps of K arms around the middle arm k = (K + 1) // 2
_BOUND_MAPS = {"f_k": f_arm, "f_k,k+1": lambda K, k: f_cross(K, k, k + 1),
               "weighted": _weighted_middle}


class TestTableBound:
    @pytest.mark.parametrize("kind", sorted(_BOUND_MAPS))
    @pytest.mark.parametrize("K", [2, 3, 8, 16])
    def test_bound_against_exact_kernel(self, K, kind):
        _assert_table_bound(_BOUND_MAPS[kind](K, (K + 1) // 2), _bound_points())

    def test_bound_on_a_hermite_series_map(self):
        from gaussdesign.hermite import hermite_coeffs, series_cov_map

        cmap = series_cov_map(hermite_coeffs(lambda t: np.tanh(t) + 0.3 * t * t, 20), "series")
        _assert_table_bound(cmap, _bound_points())

    def test_every_k64_arm_and_neighbour_map_builds(self):
        for k in range(1, 65):
            build_table(f_arm(64, k))
            if k < 64:
                build_table(f_cross(64, k, k + 1))

    def test_kinked_map_is_rejected(self):
        # |rho| has a kink at rho = 0; cubics through it miss the bound
        with pytest.raises(ValueError, match="kink"):
            build_table(CovarianceMap(np.abs, np.sign, "kink"))


def _reference_r(mp, rho, h, k):
    """40-digit r(rho; h, k) = integral_0^rho p_r(h, k) dr.

    For |rho| > 0.5 the integral runs from the nearer endpoint s = sign(rho)
    with r = s (1 - u^2), which keeps the integrand smooth and avoids the
    cancellation of integrating all the way from 0; there
    h^2 + k^2 - 2 r h k is formed as (h - s k)^2 + 2 s h k u^2.
    """
    h, k, rho = mp.mpf(h), mp.mpf(k), mp.mpf(rho)
    if abs(rho) <= 0.5:
        return mp.quad(lambda r: mp.exp(-(h * h + k * k - 2 * r * h * k) / (2 * (1 - r * r)))
                       / (2 * mp.pi * mp.sqrt(1 - r * r)), [0, rho])
    s = 1 if rho > 0 else -1
    ph, pk = mp.ncdf(h), mp.ncdf(k)
    limit = (min(ph, pk) if s > 0 else max(0, ph + pk - 1)) - ph * pk

    def g(u):
        u2 = u * u
        return (mp.exp(-((h - s * k) ** 2 + 2 * s * h * k * u2) / (2 * u2 * (2 - u2)))
                / (mp.pi * mp.sqrt(2 - u2)))

    return limit - s * mp.quad(g, [0, mp.sqrt(1 - abs(rho))])


def _kernel_rhos():
    # both sides of each rule's limit (6, 12 and 20 nodes, then asymptotic)
    near_one = 1.0 - 10.0 ** -np.arange(1, 16)
    limits = np.array([0.3, 0.75, 0.925])
    fixed = np.concatenate([near_one, limits, np.nextafter(limits, 0.0)])
    random = np.random.default_rng(7).uniform(-1.0, 1.0, 6)
    return np.concatenate([fixed, -fixed, random])


class TestGenzKernel:
    @pytest.mark.parametrize("K", [2, 3, 8, 16, 64])
    def test_matches_40_digit_reference(self, K):
        mpmath = pytest.importorskip("mpmath")
        q = quantile_thresholds(K).thresholds
        m = q.size - 1
        pairs = sorted({(0, 0), (0, m), (m // 2, m // 2), (0, min(1, m))})
        rhos = _kernel_rhos()
        worst = 0.0
        with mpmath.workdps(40):
            for i, j in pairs:
                got = r_ij(rhos, q[i], q[j])
                for rho, value in zip(rhos, got):
                    ref = _reference_r(mpmath, rho, q[i], q[j])
                    worst = max(worst, abs(float(ref - mpmath.mpf(value))))
        assert worst <= 1e-14

    @pytest.mark.parametrize("K", [2, 3, 5, 8, 16])
    def test_row_sums_vanish_and_maps_are_symmetric(self, K):
        rhos = np.concatenate([np.linspace(-1.0, 1.0, 401), _kernel_rhos()])
        for k in range(1, K + 1):
            row = [f_cross(K, k, l).eval(rhos) for l in range(1, K + 1)]
            assert np.max(np.abs(sum(row))) <= 1e-15
            for l in range(1, K + 1):
                assert np.array_equal(row[l - 1], f_cross(K, l, k).eval(rhos))

    def test_nan_propagates(self):
        assert np.isnan(f_arm(3, 1).eval(np.array([0.5, np.nan]))[1])

    @pytest.mark.parametrize("chunk", [1, 7])
    def test_chunk_size_invariance(self, chunk, monkeypatch):
        import gaussdesign.covmap as covmap

        # every rule's band, alone and mixed within a chunk, and NaN
        bands = np.random.default_rng(2).uniform([0.0, 0.3, 0.75, 0.925], [0.3, 0.75, 0.925, 1.0],
                                                 (25, 4))
        rhos = np.concatenate([[0.0, 1.0, -1.0, np.nan], _kernel_rhos(),
                               bands.T.ravel(), -bands.ravel(), [np.nan],
                               np.random.default_rng(3).uniform(-1.0, 1.0, 500)])
        m = weighted_discrete_map(np.random.default_rng(4).standard_normal(5), 5)
        default = m.eval(rhos)
        assert np.isnan(default).sum() == 2
        monkeypatch.setattr(covmap, "_CHUNK", chunk)
        assert np.array_equal(m.eval(rhos), default, equal_nan=True)
        assert np.array_equal(r_ij(rhos, -0.2, 0.9),
                              np.array([r_ij(x, -0.2, 0.9) for x in rhos]), equal_nan=True)

    def test_memory_bounded_on_two_million_points(self):
        # every direct evaluator runs on chunks: the exact f and f' and a
        # Hermite series map's f and f'
        rhos = np.random.default_rng(5).uniform(-1.0, 1.0, 2_000_000)
        series = continuous_cov_maps(lambda t: np.exp(t / 4.0), lambda t: t ** 2 - 1.0).map_w
        for m in (f_cross(3, 1, 2), series):
            for evaluate in (m.eval, m.deriv):
                _assert_peak_below_output_plus(evaluate, rhos, 8 * 2 ** 20)


_TABLED = {
    "f_1(K=2)": lambda: f_arm(2, 1),
    "f_2(K=3)": lambda: f_arm(3, 2),
    "f_3,5(K=8)": lambda: f_cross(8, 3, 5),
    "f_16(K=16)": lambda: f_arm(16, 16),
    "weighted(K=3)": lambda: weighted_discrete_map(np.array([10.0, -10.0, 0.5]), 3),
}


class TestTableCoefficients:
    @pytest.mark.parametrize("label", sorted(_TABLED))
    def test_grid_nodes_return_node_values(self, label):
        # the cubics interpolate the stored values and slopes; a node's
        # arccos lands on it up to rounding, exactly at the upper edge and 0
        m = build_table(_TABLED[label]())
        tab = m.table
        g = tab.grid
        f, d = m.eval(g), m.deriv(g)
        assert np.max(np.abs(f - tab.f_values)) <= 1e-12 * np.max(np.abs(tab.f_values))
        assert np.max(np.abs(d - tab.d_values)) <= 1e-12 * np.max(np.abs(tab.d_values))
        assert f[-1] == tab.f_values[-1]
        assert f[g == 0.0].tolist() == [0.0]

    def test_non_finite_values_rejected(self):
        bad = CovarianceMap(lambda a: np.full_like(a, np.nan), lambda a: np.zeros_like(a), "bad")
        with pytest.raises(ValueError, match="finite"):
            build_table(bad)


class TestTableKernel:
    def test_random_points_equal_across_chunks(self, monkeypatch):
        tab = build_table(weighted_discrete_map(np.array([1.0, 2.0, 0.5, -1.0]), 4))
        x = np.random.default_rng(11).uniform(-1.0, 1.0, 3 * 2 ** 15 + 17)
        x[::1000] = 1.0
        x[1::1000] = -1.0
        inner = x[np.abs(x) < 1.0]
        f, d = tab.eval(x), tab.deriv(inner)
        monkeypatch.setattr(covmap, "_TABLE_CHUNK", 7)
        assert np.array_equal(tab.eval(x), f)
        assert np.array_equal(tab.deriv(inner), d)
        assert np.array_equal(f[:300], [tab.eval(xi) for xi in x[:300]])

    def test_last_grid_point_uses_last_cell(self):
        # grid[0] = cos(theta_end) is clipped into the last cell in theta
        m = f_arm(3, 3)
        tab = build_table(m)
        g = tab.table.grid
        assert tab.eval(g[0]) == pytest.approx(tab.table.f_values[0], rel=1e-12)
        assert tab.deriv(g[0]) == pytest.approx(tab.table.d_values[0], rel=1e-12)
        assert tab.eval(g[-1]) == tab.table.f_values[-1]

    def test_outside_grid_takes_direct_evaluator(self):
        m = f_cross(3, 1, 2)
        tab = build_table(m)
        g = tab.table.grid
        x = np.array([-1.0, np.nextafter(g[0], -2.0), np.nextafter(g[-1], 2.0), 1.0])
        assert np.array_equal(tab.eval(x), m.eval(x))
        assert np.array_equal(tab.deriv(x[1:3]), m.deriv(x[1:3]))

    def test_scalars_and_zero_d(self):
        m = f_arm(3, 1)
        tab = build_table(m)
        x = np.array([0.0, 0.3, -0.7, 1.0, tab.table.grid[5]])
        vec = tab.eval(x)
        for xi, v in zip(x, vec):
            for q in (float(xi), np.float64(xi), np.array(xi)):
                out = tab.eval(q)
                assert isinstance(out, float) and out == v
        assert isinstance(tab.deriv(np.array(0.3)), float)
        assert tab.deriv(np.array(0.3)) == tab.deriv(x[1:2])[0]
        assert tab.eval(np.zeros((0, 3))).shape == (0, 3)

    def test_nan_propagates_without_warning(self):
        import warnings

        tab = build_table(f_arm(3, 1))
        x = np.array([0.5, np.nan, -0.2, np.nan])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f = tab.eval(x)
            d = tab.deriv(x)
        assert np.isnan(f[[1, 3]]).all() and np.isnan(d[[1, 3]]).all()
        assert np.array_equal(f[[0, 2]], tab.eval(x[[0, 2]]))
        assert np.array_equal(d[[0, 2]], tab.deriv(x[[0, 2]]))

    def test_memory_bounded_on_two_million_points(self):
        rhos = np.random.default_rng(6).uniform(-1.0, 1.0, 2_000_000)
        tab = build_table(f_cross(3, 1, 2))
        for evaluate in (tab.eval, tab.deriv):
            _assert_peak_below_output_plus(evaluate, rhos, 8 * 2 ** 20)


def _assert_peak_below_output_plus(evaluate, rhos, extra):
    import tracemalloc

    tracemalloc.start()
    try:
        out = evaluate(rhos)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - out.nbytes < extra, (evaluate, peak - out.nbytes)
