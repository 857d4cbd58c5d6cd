import itertools

import numpy as np
import pytest
from scipy.special import ndtri

import gaussdesign.rng as grng
from gaussdesign.estimators import (EstimandSpec, ExperimentRecords, WeightFn,
                                    ht_arm, ht_contrast, ht_continuous,
                                    records_from_csv, records_to_csv,
                                    rescale_treatment, true_estimand,
                                    weight_eval)

RECORDS4 = ExperimentRecords(Y=np.array([1.0, 2.0, 3.0, 4.0]),
                             D=np.array([1, 1, 2, 2]))


class TestHtArm:
    def test_direct_formula(self):
        assert ht_arm(RECORDS4, 1, 2) == pytest.approx(1.5)

    def test_empty_arm_gives_zero(self):
        rec = ExperimentRecords(Y=np.array([1.0, 2.0]), D=np.array([1, 1]))
        assert ht_arm(rec, 2, 2) == 0.0

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            ht_arm(ExperimentRecords(Y=np.array([])), 1, 2)

    def test_unbiased_under_iid_design(self):
        # Monte Carlo oracle: mean of HT estimates equals tau_k within 4 SE
        gen = np.random.default_rng(0)
        n, K, B = 12, 3, 20_000
        table = gen.standard_normal((n, K))
        t = grng.normals(5, np.arange(B), n)
        from gaussdesign.covmap import discretize, quantile_thresholds
        arms = discretize(t, quantile_thresholds(K))
        y = table[np.arange(n)[None, :], arms - 1]
        est = K / n * np.sum(np.where(arms == 2, y, 0.0), axis=1)
        truth = table[:, 1].mean()
        se = est.std() / np.sqrt(B)
        assert abs(est.mean() - truth) < 4 * se

    def test_latent_treatments_route_through_discretize(self):
        rec = ExperimentRecords(Y=np.array([1.0, 2.0]), T=np.array([-1.0, 1.0]))
        assert ht_arm(rec, 1, 2) == pytest.approx(1.0)
        assert ht_arm(rec, 2, 2) == pytest.approx(2.0)


class TestHtContrast:
    def test_basis_vector_matches_arm(self):
        assert ht_contrast(RECORDS4, np.array([1.0, 0.0]), 2) == ht_arm(RECORDS4, 1, 2)

    def test_two_arm_difference(self):
        assert ht_contrast(RECORDS4, np.array([1.0, -1.0]), 2) == pytest.approx(-2.0)

    def test_weight_length_checked(self):
        with pytest.raises(ValueError):
            ht_contrast(RECORDS4, np.array([1.0, -1.0, 0.0]), 2)

    def test_linearity_exact(self):
        w1 = np.array([0.3, -0.7])
        w2 = np.array([-1.1, 0.4])
        lhs = ht_contrast(RECORDS4, w1 + w2, 2)
        rhs = ht_contrast(RECORDS4, w1, 2) + ht_contrast(RECORDS4, w2, 2)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_factorial_main_effect_by_enumeration(self):
        # brute-force oracle: average HT over all 4^n equally likely i.i.d.
        # uniform assignments equals the main-effect contrast value
        gen = np.random.default_rng(7)
        n, K = 4, 4
        table = gen.standard_normal((n, K))
        w = 0.5 * np.array([-1.0, -1.0, 1.0, 1.0])  # D = 1 + 2A + B encoding
        truth = float(np.dot(w, table.mean(axis=0)))
        total = 0.0
        for assignment in itertools.product(range(1, K + 1), repeat=n):
            d = np.array(assignment)
            y = table[np.arange(n), d - 1]
            total += ht_contrast(ExperimentRecords(Y=y, D=d), w, K)
        assert total / K**n == pytest.approx(truth, abs=1e-10)


class TestHtContinuous:
    def test_linear_response_first_derivative(self):
        # Y(t) = t with w(t) = t: estimator is mean(T^2), expectation 1
        t = grng.normals(1, np.arange(300), 40).reshape(-1)
        rec = ExperimentRecords(Y=t, T=t)
        est = ht_continuous(rec, WeightFn.first_derivative())
        assert est == pytest.approx(1.0, abs=4 * 2.0 / np.sqrt(t.size))

    def test_cubic_response(self):
        # Gaussian-moment oracle: E[Z^4] = 3
        t = grng.normals(2, np.arange(500), 40).reshape(-1)
        rec = ExperimentRecords(Y=t**3, T=t)
        est = ht_continuous(rec, WeightFn.first_derivative())
        se = np.std(t**4) / np.sqrt(t.size)
        assert est == pytest.approx(3.0, abs=4 * se)

    def test_quadratic_second_derivative(self):
        # E[Z^2 (Z^2 - 1)] = 3 - 1 = 2
        t = grng.normals(3, np.arange(500), 40).reshape(-1)
        rec = ExperimentRecords(Y=t**2, T=t)
        est = ht_continuous(rec, WeightFn.second_derivative())
        se = np.std(t**2 * (t**2 - 1)) / np.sqrt(t.size)
        assert est == pytest.approx(2.0, abs=4 * se)

    def test_underflow_names_unit(self):
        rec = ExperimentRecords(Y=np.array([1.0, 1.0]), T=np.array([0.5, 40.0]))
        with pytest.raises(FloatingPointError, match="unit 2"):
            ht_continuous(rec, WeightFn.interval(39.0, 41.0))

    def test_requires_latent_treatment(self):
        with pytest.raises(ValueError):
            ht_continuous(RECORDS4, WeightFn.first_derivative())


class TestWeightEval:
    def test_first_derivative(self):
        assert weight_eval(WeightFn.first_derivative(), 2.0) == 2.0

    def test_second_derivative(self):
        assert weight_eval(WeightFn.second_derivative(), 1.0) == 0.0

    def test_interval_at_zero(self):
        # phi(0) = 1/sqrt(2 pi) oracle
        expected = 1.0 / (2.0 / np.sqrt(2 * np.pi))
        assert expected == pytest.approx(1.2533141373155003, abs=1e-12)
        assert weight_eval(WeightFn.interval(-1.0, 1.0), 0.0) == pytest.approx(expected)

    def test_interval_outside_is_zero(self):
        assert weight_eval(WeightFn.interval(-1.0, 1.0), 2.0) == 0.0

    def test_location_scale(self):
        w = WeightFn.first_derivative(mu=125.0, sigma=250.0 / 6.0)
        assert weight_eval(w, 125.0) == 0.0
        wc = WeightFn.second_derivative(mu=2.0, sigma=0.5)
        assert weight_eval(wc, 2.5) == pytest.approx((0.25 / 0.25 - 1.0) / 0.25)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            WeightFn.interval(1.0, 1.0)
        with pytest.raises(ValueError):
            WeightFn.first_derivative(sigma=0.0)


class TestRescaleTreatment:
    def test_midpoint(self):
        assert rescale_treatment(0.0, 0.0, 250.0) == 125.0

    def test_endpoint_by_construction(self):
        z999 = float(ndtri(0.999))
        assert rescale_treatment(z999, 0.0, 250.0) == pytest.approx(250.0, abs=1e-10)

    def test_high_probability_coverage(self):
        t = grng.normals(4, np.arange(2_000), 100).reshape(-1)
        r = rescale_treatment(t, 0.0, 250.0)
        assert np.mean((r >= 0.0) & (r <= 250.0)) >= 0.998 - 4 * np.sqrt(0.002 / t.size)

    def test_order_check(self):
        with pytest.raises(ValueError):
            rescale_treatment(0.0, 1.0, 1.0)


class TestTrueEstimand:
    def test_constant_outcomes_zero_sum_contrast(self):
        table = np.full((5, 3), 2.7)
        spec = EstimandSpec.contrast(np.array([1.0, -0.5, -0.5]), 3)
        assert true_estimand(table, spec) == pytest.approx(0.0, abs=1e-14)

    def test_factorial_interaction(self):
        from gaussdesign.simbench import gen_factorial
        sc = gen_factorial(123)
        spec = next(e for e in sc.estimands if e.label == "tau_12")
        assert true_estimand(sc.potential_outcomes, spec) == pytest.approx(0.25, abs=1e-12)

    def test_odd_integrand_vanishes(self):
        spec = EstimandSpec.continuous(WeightFn.first_derivative())

        def responses(t):
            return np.vstack([t**2, t**2])

        assert true_estimand(responses, spec) == pytest.approx(0.0, abs=1e-12)

    def test_arm_kind(self):
        table = np.arange(6.0).reshape(3, 2)
        assert true_estimand(table, EstimandSpec.arm(2, 2)) == pytest.approx(3.0)


class TestRecordsCsv:
    def test_round_trip(self, tmp_path):
        rec = ExperimentRecords(Y=np.array([1.0, 2.0]),
                                X=np.array([[0.1, 0.2], [0.3, 0.4]]),
                                T=np.array([-0.5, 0.5]), D=np.array([1, 2]))
        path = tmp_path / "records.csv"
        records_to_csv(path, rec)
        back = records_from_csv(path)
        assert np.array_equal(back.Y, rec.Y)
        assert np.array_equal(back.X, rec.X)
        assert np.array_equal(back.T, rec.T)
        assert np.array_equal(back.D, rec.D)

    def test_missing_columns_allowed(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("unit,T,D,Y\n1,,1,0.5\n2,,2,1.5\n")
        rec = records_from_csv(path)
        assert rec.T is None
        assert rec.D.tolist() == [1, 2]

    def test_missing_required_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("unit,T\n1,0.5\n")
        with pytest.raises(ValueError, match="Y"):
            records_from_csv(path)


def test_estimand_spec_validation():
    with pytest.raises(ValueError):
        EstimandSpec.arm(4, 3)
    with pytest.raises(ValueError):
        EstimandSpec.contrast(np.array([1.0, np.nan]), 2)
    spec = EstimandSpec.arm(2, 3)
    assert spec.arm_weights.tolist() == [0.0, 1.0, 0.0]
    with pytest.raises(ValueError):
        EstimandSpec.continuous(WeightFn.first_derivative()).arm_weights


class TestRecordsValidation:
    def test_covariate_rows_must_match_outcomes(self):
        with pytest.raises(ValueError, match="X has 3 rows"):
            ExperimentRecords(Y=np.ones(5), X=np.zeros((3, 2)))

    @pytest.mark.parametrize("column", ["T", "D"])
    def test_treatment_length_must_match_outcomes(self, column):
        with pytest.raises(ValueError, match=f"{column} has 4 rows"):
            ExperimentRecords(Y=np.ones(3), **{column: np.ones(4)})

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_outcome_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            ExperimentRecords(Y=np.array([1.0, bad, 2.0]), D=np.array([1, 2, 1]))

    def test_consistent_columns_accepted(self):
        rec = ExperimentRecords(Y=np.ones(3), X=np.zeros((3, 2)), T=np.zeros(3),
                                D=np.array([1, 2, 1]))
        assert rec.n == 3
