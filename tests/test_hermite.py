import numpy as np
import pytest
from scipy.special import eval_hermitenorm, gammaln, roots_hermitenorm

from gaussdesign.hermite import (ThresholdIndicator, continuous_cov_maps,
                                 gauss_hermite_nodes, hermite_coeffs, mehler_series,
                                 normalized_hermite)

PHI0 = 1.0 / np.sqrt(2.0 * np.pi)


# Against scipy's roots_hermitenorm for every n = 1..700 (measured): nodes
# within 3.9e-14 absolute (n = 697), weights within 3.7e-12 relative
# (n = 143), over the weights that are normal floats
@pytest.mark.parametrize("n", [1, 2, 5, 20, 64, 100, 143, 200, 300, 400, 700])
def test_nodes_match_scipy(n):
    x, w = gauss_hermite_nodes(n)
    want_x, want_w = roots_hermitenorm(n)
    want_w = want_w * PHI0
    normal = want_w >= np.finfo(float).tiny
    np.testing.assert_allclose(x, want_x, rtol=0, atol=5e-14)
    np.testing.assert_allclose(w[normal], want_w[normal], rtol=5e-12, atol=0)
    assert np.all(np.isfinite(w)) and np.array_equal(w, w[::-1])
    assert abs(w.sum() - 1.0) <= 1e-15


@pytest.mark.parametrize("n", [0, 701])
def test_node_count_outside_the_stable_range(n):
    with pytest.raises(ValueError, match="node count"):
        gauss_hermite_nodes(n)


class TestNormalizedHermite:
    def test_degree_ceiling(self):
        normalized_hermite(200, 0.5)
        with pytest.raises(ValueError):
            normalized_hermite(201, 0.5)
        with pytest.raises(ValueError):
            normalized_hermite(250, 0.0)

    def test_quadratic_at_two(self):
        assert normalized_hermite(2, 2.0) == pytest.approx(3.0 / np.sqrt(2.0), rel=1e-14)

    def test_zero(self):
        assert normalized_hermite(0, 0.0) == 1.0

    def test_fourth_at_zero_vs_recurrence_oracle(self):
        # oracle: plain recurrence He_4(0) = 3
        he = [1.0, 0.0]
        for m in range(1, 4):
            he.append(0.0 * he[-1] - m * he[-2])
        assert he[4] == 3.0
        expected = he[4] / np.sqrt(24.0)
        assert expected == pytest.approx(0.6123724356957945, abs=1e-15)
        assert normalized_hermite(4, 0.0) == pytest.approx(expected, rel=1e-14)


class TestHermiteCoeffs:
    def test_linear_projects_to_h1(self):
        e = hermite_coeffs(lambda t: t, 5)
        assert e.coeffs[1] == pytest.approx(1.0, abs=1e-12)
        others = np.delete(e.coeffs, 1)
        assert np.max(np.abs(others)) < 1e-12

    def test_he2_projects_to_h2(self):
        # Gaussian-moment oracle: E[(Z^2 - 1)^2] = E Z^4 - 2 E Z^2 + 1 = 2
        x, w = gauss_hermite_nodes(200)
        moment = np.sum(w * (x**2 - 1.0) ** 2)
        assert moment == pytest.approx(2.0, abs=1e-12)
        e = hermite_coeffs(lambda t: t**2 - 1.0, 5)
        assert e.coeffs[2] == pytest.approx(np.sqrt(moment), abs=1e-12)
        assert np.max(np.abs(np.delete(e.coeffs, 2))) < 1e-12

    def test_indicator_closed_form(self):
        e = hermite_coeffs(ThresholdIndicator(0.0), 1)
        assert e.coeffs[1] == pytest.approx(-PHI0, abs=1e-15)

    def test_indicator_coefficients_past_m_factorial_overflow(self):
        # m! overflows a double past m = 170; the coefficients must not
        q, M = 0.3, 200
        e = hermite_coeffs(ThresholdIndicator(q), M)
        assert np.all(e.coeffs[171:] != 0.0)
        assert e.l2_norm_sq > hermite_coeffs(ThresholdIndicator(q), 170).l2_norm_sq
        # oracle: scipy's He_m, scaled by 1 / sqrt(m!) in logs
        phi_q = np.exp(-0.5 * q * q) / np.sqrt(2.0 * np.pi)
        m = np.arange(1, M + 1)
        want = -phi_q * eval_hermitenorm(m - 1, q) * np.exp(-0.5 * gammaln(m + 1))
        assert want[170] == pytest.approx(-0.00526, abs=1e-5)
        np.testing.assert_allclose(e.coeffs[1:], want, rtol=1e-12, atol=1e-15)

    def test_indicator_matches_quadrature_loosely(self):
        closed = hermite_coeffs(ThresholdIndicator(0.3), 8)
        quad = hermite_coeffs(lambda t: (t <= 0.3).astype(float), 8, nodes=400)
        assert np.max(np.abs(closed.coeffs - quad.coeffs)) < 5e-2

    def test_nonfinite_evaluation_names_node(self):
        with pytest.raises(ValueError, match="node"):
            hermite_coeffs(lambda t: np.where(np.abs(t) > 5, np.nan, t), 3)

    def test_node_count_guard(self):
        with pytest.raises(ValueError):
            hermite_coeffs(lambda t: t, 50, nodes=60)

    def test_l2_norm_populated(self):
        e = hermite_coeffs(lambda t: np.exp(t / 2.0), 30)
        assert e.l2_norm_sq == pytest.approx(float(np.sum(e.coeffs**2)), rel=1e-14)


class TestMehlerSeries:
    def test_identity_weight(self):
        e = hermite_coeffs(lambda t: t, 5)
        assert mehler_series(e, e, 0.7) == pytest.approx(0.7, abs=1e-12)

    def test_quadratic_weight(self):
        e = hermite_coeffs(lambda t: t**2 - 1.0, 5)
        assert mehler_series(e, e, 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_rho_zero(self):
        a = hermite_coeffs(lambda t: np.exp(t / 2.0), 20)
        b = hermite_coeffs(lambda t: t**3, 20)
        assert mehler_series(a, b, 0.0) == 0.0

    def test_domain_error(self):
        e = hermite_coeffs(lambda t: t, 3)
        with pytest.raises(ValueError):
            mehler_series(e, e, 1.2)

    @pytest.mark.parametrize("rho", [-0.9, -0.4, 0.3, 0.9])
    def test_against_tensor_quadrature(self, rho):
        # 2-D oracle: E g(X) h(Y) with X = Z1, Y = rho Z1 + sqrt(1-rho^2) Z2
        def g(t):
            return np.exp(t / 2.0)

        def h(t):
            return t**3 - t

        x, w = gauss_hermite_nodes(120)
        gx = g(x)
        hy = h(rho * x[:, None] + np.sqrt(1 - rho**2) * x[None, :])
        joint = float(np.einsum("i,j,i,ij->", w, w, gx, hy))
        cov_oracle = joint - np.sum(w * gx) * np.sum(w * h(x))
        eg, eh = hermite_coeffs(g, 40), hermite_coeffs(h, 40)
        assert mehler_series(eg, eh, rho) == pytest.approx(cov_oracle, abs=1e-6)


class TestContinuousCovMaps:
    def test_identity_pair(self):
        maps = continuous_cov_maps(lambda t: np.ones_like(t), lambda t: t, M=10)
        for rho in (-0.8, -0.2, 0.0, 0.4, 1.0):
            assert maps.map_w.eval(rho) == pytest.approx(rho, abs=1e-12)
            assert maps.map_y0w.eval(rho) == pytest.approx(rho, abs=1e-12)

    def test_quadratic_weight_map(self):
        maps = continuous_cov_maps(lambda t: np.ones_like(t), lambda t: t**2 - 1.0, M=10)
        for rho in (-0.9, 0.3, 1.0):
            assert maps.map_w.eval(rho) == pytest.approx(2.0 * rho**2, abs=1e-12)

    def test_linear_baseline_map_from_quadrature_oracle(self):
        # oracle: alpha_m of t -> t (1 - t/250) by brute-force quadrature;
        # alpha_1 = 1 and alpha_2 = -sqrt(2)/250, so f(rho) = rho + 2 rho^2/250^2
        x, w = gauss_hermite_nodes(300)
        prod = x * (1.0 - x / 250.0)
        a1 = float(np.sum(w * prod * x))
        a2 = float(np.sum(w * prod * (x**2 - 1.0) / np.sqrt(2.0)))
        assert a1 == pytest.approx(1.0, abs=1e-12)
        assert a2 == pytest.approx(-np.sqrt(2.0) / 250.0, abs=1e-12)
        maps = continuous_cov_maps(lambda t: 1.0 - t / 250.0, lambda t: t, M=10)
        for rho in (-0.7, 0.2, 0.9):
            expected = a1**2 * rho + a2**2 * rho**2
            assert maps.map_y0w.eval(rho) == pytest.approx(expected, abs=1e-14)

    def test_fixed_point_and_value_at_one(self):
        maps = continuous_cov_maps(lambda t: 1.0 - t / 250.0, lambda t: t, M=20)
        e_y0w, e_w = maps.expansions
        assert maps.map_y0w.eval(0.0) == 0.0
        assert maps.map_w.eval(0.0) == 0.0
        assert maps.map_w.eval(1.0) == pytest.approx(
            float(np.sum(e_w.coeffs[1:] ** 2)), rel=1e-12)
        assert maps.map_y0w.eval(1.0) == pytest.approx(
            float(np.sum(e_y0w.coeffs[1:] ** 2)), rel=1e-12)

    @pytest.mark.parametrize("rho", [-0.9, -0.5, 0.0, 0.5, 0.9])
    def test_derivative_matches_finite_differences(self, rho):
        maps = continuous_cov_maps(lambda t: np.exp(t / 4.0), lambda t: t**2 - 1.0, M=30)
        h = 1e-5
        for cmap in (maps.map_y0w, maps.map_w):
            fd = (cmap.eval(rho + h) - cmap.eval(rho - h)) / (2 * h)
            d = cmap.deriv(rho)
            assert d == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_monotone_consistency(self):
        maps = continuous_cov_maps(lambda t: np.exp(t / 4.0), lambda t: t**3 - t, M=30)
        rhos = np.linspace(0.0, 1.0, 21)
        assert np.all(maps.map_w.eval(rhos) >= 0.0)

    def test_tail_bound_reported(self):
        maps = continuous_cov_maps(lambda t: np.ones_like(t), lambda t: np.exp(t), M=8)
        assert maps.map_w.tail_bound(0.0) == 0.0
        assert maps.map_w.tail_bound(0.9) > 0.0
        # true tail at rho: sum_{m>M} a_m^2 rho^m is below the reported bound
        full = hermite_coeffs(lambda t: np.exp(t), 40)
        tail_true = float(np.sum(full.coeffs[9:] ** 2 * 0.9 ** np.arange(9, 41)))
        assert tail_true <= maps.map_w.tail_bound(0.9)


def test_orthonormality_property():
    x, w = gauss_hermite_nodes(200)
    H = np.array([[normalized_hermite(m, xi) for xi in x] for m in range(21)])
    gram = (H * w) @ H.T
    assert np.max(np.abs(gram - np.eye(21))) < 1e-10
