import io
import itertools
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

import gaussdesign.rng as grng
from gaussdesign.covmap import discretize, quantile_thresholds
from gaussdesign.estimators import (EstimandSpec, ExperimentRecords, WeightFn,
                                    ht_arm, ht_contrast, ht_continuous,
                                    records_from_csv, records_to_csv,
                                    rescale_treatment, true_estimand,
                                    weight_eval, write_rows)

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_treatment_rejected(self, bad):
        with pytest.raises(ValueError, match="treatments T contain non-finite values"):
            ExperimentRecords(Y=np.ones(3), T=np.array([0.1, bad, -0.2]))

    def test_missing_required_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("unit,T\n1,0.5\n")
        with pytest.raises(ValueError, match="Y"):
            records_from_csv(path)

    @pytest.mark.parametrize("row", ["2,0.2,2,1.0", "2,0.2,2,1.0,0.4,9"])
    def test_ragged_row_names_line_and_field_counts(self, tmp_path, row):
        path = tmp_path / "ragged.csv"
        fields = row.count(",") + 1
        # a blank line still counts toward the line number
        path.write_text(f"unit,T,D,Y,x1\n1,0.1,1,0.5,0.3\n\n{row}\n")
        with pytest.raises(ValueError, match=f":4: {fields} fields, but the header has 5"):
            records_from_csv(path)

    @pytest.mark.parametrize("ids,line", [("2,1", 2), ("1,1", 4), ("1,nan", 4),
                                          ("1,2.0", 4), ("0,1", 2)])
    def test_unit_ids_must_be_one_to_n_in_order(self, tmp_path, ids, line):
        path = tmp_path / "r.csv"
        first, second = ids.split(",")
        # a blank line still counts toward the line number
        path.write_text(f"unit,T,D,Y\n{first},,1,0.5\n\n{second},,2,1.5\n")
        with pytest.raises(ValueError, match=f"r.csv:{line}: unit id "):
            records_from_csv(path)

    @pytest.mark.parametrize("t,d,d_cols", [(True, True, 2), (False, True, 0),
                                            (True, False, 1), (False, False, 3)])
    def test_bytes_match_per_cell_writer(self, tmp_path, t, d, d_cols):
        gen = np.random.default_rng(d_cols)
        n = 37
        rec = ExperimentRecords(
            Y=gen.standard_normal(n) * 10.0 ** gen.integers(-300, 300, n),
            X=gen.standard_normal((n, d_cols)) if d_cols else None,
            T=np.r_[-0.0, 0.0, 5e-324, gen.standard_normal(n - 3)] if t else None,
            D=gen.integers(1, 17, n) if d else None)
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        records_to_csv(new, rec)
        _per_cell_records_to_csv(old, rec)
        assert new.read_bytes() == old.read_bytes()

    def test_empty_records_write_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        records_to_csv(path, ExperimentRecords(Y=np.zeros(0)))
        assert path.read_text() == "unit,T,D,Y\n"


def _per_cell_records_to_csv(path, records):
    """records_to_csv as it was written before the batched writer: one
    f-string per cell."""
    n = records.n
    d = 0 if records.X is None else records.X.shape[1]
    cols = ["unit", "T", "D", "Y"] + [f"x{j + 1}" for j in range(d)]
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for i in range(n):
            t = "" if records.T is None else f"{records.T[i]:.17g}"
            dd = "" if records.D is None else str(int(records.D[i]))
            row = [str(i + 1), t, dd, f"{records.Y[i]:.17g}"]
            row += [f"{records.X[i, j]:.17g}" for j in range(d)]
            fh.write(",".join(row) + "\n")


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
                1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308]


def test_write_rows_matches_per_cell_format():
    gen = np.random.default_rng(0)
    x = np.r_[np.nan, np.inf, -np.inf, _EDGE_FLOATS,
              gen.standard_normal(10**5) * 10.0 ** gen.integers(-320, 307, 10**5)]
    k = gen.integers(-10**12, 10**12, x.size)
    buf = io.StringIO()
    write_rows(buf, "%d;%.17g", [k, x])   # many blocks and a partial one
    assert buf.getvalue() == "".join(f"{a};{b:.17g}\n" for a, b in zip(k, x))


def _same(a, b):
    """Both absent, or equal dtype, shape and bytes (signed zeros included)."""
    if a is None or b is None:
        return a is None and b is None
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


_FINITE = st.one_of(st.sampled_from(_EDGE_FLOATS),
                    st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(1, 6), d=st.integers(0, 4),
       has_t=st.booleans(), has_d=st.booleans())
def test_records_csv_round_trip_bit_for_bit(data, n, d, has_t, has_d):
    def column(shape):
        values = data.draw(st.lists(_FINITE, min_size=int(np.prod(shape)),
                                    max_size=int(np.prod(shape))))
        return np.array(values, dtype=float).reshape(shape)

    rec = ExperimentRecords(
        Y=column((n,)), X=column((n, d)) if d else None,
        T=column((n,)) if has_t else None,
        D=np.array(data.draw(st.lists(st.integers(-5, 64), min_size=n, max_size=n)))
        if has_d else None)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "records.csv"
        records_to_csv(path, rec)
        back = records_from_csv(path)
    for name in ("Y", "X", "T", "D"):
        assert _same(getattr(back, name), getattr(rec, name)), name


def test_estimand_spec_validation():
    with pytest.raises(ValueError):
        EstimandSpec.arm(4, 3)
    with pytest.raises(ValueError):
        EstimandSpec.contrast(np.array([1.0, np.nan]), 2)
    spec = EstimandSpec.arm(2, 3)
    assert spec.arm_weights.tolist() == [0.0, 1.0, 0.0]
    with pytest.raises(ValueError):
        EstimandSpec.continuous(WeightFn.first_derivative()).arm_weights


class TestEstimandSpecEstimate:
    """Every estimand scores one experiment through EstimandSpec.estimate,
    checked against the estimator's formula summed with math.fsum; numpy's
    sum differs from it by at most n eps sum_i |term_i|."""

    N, K = 41, 3

    def _records(self, with_arms):
        gen = np.random.default_rng(5)
        t = gen.standard_normal(self.N)
        arms = discretize(t, quantile_thresholds(self.K))
        y = gen.standard_normal(self.N) + arms
        return ExperimentRecords(Y=y, T=t, D=arms if with_arms else None), arms

    @pytest.mark.parametrize("with_arms", [True, False], ids=["D", "T_only"])
    @pytest.mark.parametrize("spec", [EstimandSpec.arm(2, 3),
                                      EstimandSpec.contrast([1.0, -0.5, 0.25], 3)],
                             ids=["arm", "contrast"])
    def test_discrete_is_the_arm_weighted_sum(self, spec, with_arms):
        # (K/n) sum_i w_{D_i} Y_i; T-only records take their arms from discretize
        rec, arms = self._records(with_arms)
        terms = [spec.arm_weights[d - 1] * y for d, y in zip(arms, rec.Y)]
        scale = self.K / self.N
        eps = np.finfo(float).eps
        assert spec.estimate(rec) == pytest.approx(
            scale * math.fsum(terms), rel=0, abs=scale * self.N * eps * math.fsum(map(abs, terms)))

    @pytest.mark.parametrize("weight,w", [
        (WeightFn.interval(-0.5, 1.0),
         lambda t: (-0.5 <= t <= 1.0) / (1.5 * math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi))),
        (WeightFn.first_derivative(0.2, 1.5), lambda t: (t - 0.2) / 1.5 ** 2),
        (WeightFn.second_derivative(-0.1, 0.8),
         lambda t: ((t + 0.1) ** 2 / 0.8 ** 2 - 1.0) / 0.8 ** 2),
    ], ids=["interval", "first_derivative", "second_derivative"])
    def test_continuous_is_the_weighted_mean(self, weight, w):
        # (1/n) sum_i Y_i w(T_i); each w(T_i) may be a few ulp off the formula
        rec, _ = self._records(False)
        terms = [y * w(t) for t, y in zip(rec.T, rec.Y)]
        eps = np.finfo(float).eps
        assert EstimandSpec.continuous(weight).estimate(rec) == pytest.approx(
            math.fsum(terms) / self.N, rel=0,
            abs=(self.N + 8) * eps * math.fsum(map(abs, terms)) / self.N)

    @pytest.mark.parametrize("spec", [EstimandSpec.arm(1, 3),
                                      EstimandSpec.contrast([0.5, 0.5, -1.0], 3),
                                      EstimandSpec.continuous(WeightFn.second_derivative())],
                             ids=["arm", "contrast", "continuous"])
    def test_block_rows_score_as_experiments(self, spec):
        # estimates scores a (B, n) replicate block row by row, bit for bit
        t = grng.normals(8, np.arange(6), self.N)
        arms = discretize(t, quantile_thresholds(self.K))
        y = np.sin(3.0 * t) + arms
        block = spec.estimates(arms, t, y)
        assert block.shape == (6,)
        assert block.tolist() == [spec.estimate(ExperimentRecords(Y=y[b], T=t[b], D=arms[b]))
                                  for b in range(6)]


def test_estimand_specs_compare_by_value_and_hash():
    # the weights are held as a tuple: an array made == raise and hash fail
    assert (EstimandSpec.contrast([1, -1, 0], 3)
            == EstimandSpec.contrast(np.array([1.0, -1.0, 0.0]), 3))
    assert EstimandSpec.contrast([1, -1, 0], 3) != EstimandSpec.contrast([1, 0, -1], 3)
    assert len({EstimandSpec.arm(1, 3), EstimandSpec.arm(1, 3), EstimandSpec.arm(2, 3)}) == 2
    spec = EstimandSpec.arm(1, 3)
    spec.arm_weights[0] = 5.0   # writes the caller's copy only
    assert spec.arm_weights.tolist() == [1.0, 0.0, 0.0]


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_covariate_rejected(self, bad):
        X = np.zeros((3, 2))
        X[2, 1] = bad
        with pytest.raises(ValueError, match="covariates X contain non-finite"):
            ExperimentRecords(Y=np.ones(3), X=X, D=np.array([1, 2, 1]))

    def test_consistent_columns_accepted(self):
        rec = ExperimentRecords(Y=np.ones(3), X=np.zeros((3, 2)), T=np.zeros(3),
                                D=np.array([1, 2, 1]))
        assert rec.n == 3
