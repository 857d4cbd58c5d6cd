import warnings

import numpy as np
import pytest

from gaussdesign.elliptope import (CorrelationFactor, _row_norms, block_factor,
                                   factor_from_rows, identity_factor,
                                   load_factor, load_matrix, sample,
                                   save_factor, save_matrix, validate)


class TestIdentityFactor:
    def test_matrix_is_identity(self):
        assert np.array_equal(identity_factor(3).to_matrix(), np.eye(3))

    def test_rows_orthogonal(self):
        rows = identity_factor(4).rows
        assert np.allclose(rows @ rows.T, np.eye(4))

    def test_sampled_correlations_vanish(self):
        B = 1_000_000
        draws = sample(identity_factor(3), B, 12).draws
        corr = np.corrcoef(draws.T)
        off = corr[~np.eye(3, dtype=bool)]
        assert np.max(np.abs(off)) < 4.0 / np.sqrt(B)

    def test_needs_positive_n(self):
        with pytest.raises(ValueError):
            identity_factor(0)


class TestBlockFactor:
    def test_boundary_design_is_valid(self):
        # equicorrelation eigenvalue oracle: 1 + (m-1)c and 1 - c
        m, c = 3, -0.5
        lam = np.linalg.eigvalsh((1 - c) * np.eye(m) + c * np.ones((m, m)))
        assert lam == pytest.approx([0.0, 1.5, 1.5], abs=1e-12)
        fac = block_factor([0, 0, 0, 1, 1, 1], -0.5)
        sigma = fac.to_matrix()
        assert sigma[0, 1] == pytest.approx(-0.5, abs=1e-12)
        assert sigma[0, 3] == pytest.approx(0.0, abs=1e-12)
        assert validate(sigma).passed

    def test_zero_correlation_is_identity(self):
        fac = block_factor([0, 0, 1, 1], 0.0)
        assert np.allclose(fac.to_matrix(), np.eye(4), atol=1e-12)

    def test_below_psd_bound(self):
        with pytest.raises(ValueError, match="block"):
            block_factor([0, 0, 0], -0.6)

    def test_unequal_blocks(self):
        fac = block_factor(["a", "b", "a", "b", "a"], 0.3)
        sigma = fac.to_matrix()
        assert sigma[0, 2] == pytest.approx(0.3, abs=1e-12)
        assert sigma[0, 1] == pytest.approx(0.0, abs=1e-12)


class TestSample:
    def test_single_unit_variance(self):
        B = 1_000_000
        draws = sample(identity_factor(1), B, 3).draws[:, 0]
        # chi^2 concentration: var_hat in 1 +- 4 / sqrt(2B) w.h.p.
        assert abs(draws.var() - 1.0) < 4.0 / np.sqrt(2.0 * B)

    def test_perfect_correlation(self):
        fac = factor_from_rows(np.array([[1.0, 0.0], [1.0, 0.0]]))
        draws = sample(fac, 100, 9).draws
        assert np.array_equal(draws[:, 0], draws[:, 1])

    def test_empirical_matches_design(self):
        fac = block_factor([0, 0, 1, 1], -0.7)
        B = 400_000
        draws = sample(fac, B, 17).draws
        emp = np.corrcoef(draws.T)
        assert np.max(np.abs(emp - fac.to_matrix())) < 4.0 / np.sqrt(B)

    def test_bit_identical_for_same_seed(self):
        fac = block_factor([0, 0, 1], 0.4)
        a = sample(fac, 37, 123).draws
        b = sample(fac, 37, 123).draws
        assert np.array_equal(a, b)
        c = sample(fac, 37, 124).draws
        assert not np.array_equal(a, c)

    def test_provenance_tag(self):
        fac = identity_factor(2)
        assert sample(fac, 2, 0).factor_id == fac.tag

    def test_needs_positive_draws(self):
        with pytest.raises(ValueError):
            sample(identity_factor(2), 0, 1)


class TestValidate:
    def test_identity_passes(self):
        rep = validate(np.eye(3))
        assert rep.passed and rep.unit_diag
        assert rep.min_eigenvalue == pytest.approx(1.0, abs=1e-12)

    def test_off_diagonal_above_one_fails(self):
        rep = validate(np.array([[1.0, 1.5], [1.5, 1.0]]))
        assert not rep.passed
        assert rep.min_eigenvalue == pytest.approx(-0.5, abs=1e-12)

    def test_boundary_block_passes(self):
        sigma = block_factor([0, 0, 0], -0.5).to_matrix()
        rep = validate(sigma)
        assert rep.passed
        assert abs(rep.min_eigenvalue) < 1e-10

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            validate(np.ones((2, 3)))

    def test_round_trip_factors_always_pass(self):
        gen = np.random.default_rng(5)
        for n, k in ((4, 2), (6, 6), (3, 1)):
            fac = factor_from_rows(gen.standard_normal((n, k)))
            assert validate(fac.to_matrix()).passed


class TestFactorType:
    def test_rejects_non_unit_rows(self):
        with pytest.raises(ValueError):
            CorrelationFactor(np.array([[1.0, 1.0]]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            CorrelationFactor(np.array([[np.nan, 1.0]]))

    def test_rejects_zero_row_normalization(self):
        with pytest.raises(ValueError):
            factor_from_rows(np.zeros((2, 2)))

    @pytest.mark.parametrize("scale", [1e200, 1e-170])
    def test_normalizes_rows_whose_squares_leave_the_range(self, scale):
        # 1e200 used to overflow to unit-norm failure, 1e-170 to "zero row"
        rows = np.random.default_rng(0).standard_normal((6, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fac = factor_from_rows(rows * scale)
        assert np.max(np.abs(np.linalg.norm(fac.rows, axis=1) - 1.0)) <= 1e-15
        np.testing.assert_allclose(fac.rows, factor_from_rows(rows).rows, rtol=0, atol=1e-15)

    def test_ordinary_rows_keep_their_plain_norms(self):
        rows = np.random.default_rng(1).standard_normal((6, 3))
        rows[1] *= 1e200
        rows[2] *= 1e-170
        rows[3] = 0.0
        norms = _row_norms(rows)
        plain = [0, 4, 5]
        assert norms[plain].tobytes() == np.linalg.norm(rows[plain], axis=1).tobytes()
        np.testing.assert_allclose(norms[1:3] / np.array([1e200, 1e-170]),
                                   np.linalg.norm(rows[1:3] / np.array([[1e200], [1e-170]]),
                                                  axis=1), rtol=1e-15)
        assert norms[3] == 0.0
        ordinary = np.delete(rows, [1, 2, 3], axis=0)
        assert (factor_from_rows(ordinary).rows.tobytes()
                == (ordinary / np.linalg.norm(ordinary, axis=1, keepdims=True)).tobytes())

    def test_nan_row_leaves_the_others_plain(self):
        # a NaN norm fails both tests of the all-ordinary fast path
        rows = np.random.default_rng(2).standard_normal((4, 3))
        rows[2, 1] = np.nan
        norms = _row_norms(rows)
        assert np.isnan(norms[2])
        assert norms[[0, 1, 3]].tobytes() == np.linalg.norm(rows[[0, 1, 3]], axis=1).tobytes()


def test_csv_round_trips(tmp_path):
    fac = block_factor([0, 1, 0, 1], 0.25)
    fpath = tmp_path / "factor.csv"
    save_factor(fpath, fac)
    assert np.array_equal(load_factor(fpath).rows, fac.rows)

    mpath = tmp_path / "sigma.csv"
    save_matrix(mpath, fac.to_matrix())
    assert np.array_equal(load_matrix(mpath), fac.to_matrix())
