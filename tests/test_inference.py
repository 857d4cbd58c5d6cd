import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

import gaussdesign.rng as grng
from gaussdesign import blocks
from gaussdesign.covmap import discretize, f_arm, f_cross, quantile_thresholds
from gaussdesign.elliptope import (CorrelationFactor, block_factor, factor_from_rows,
                                   identity_factor)
from gaussdesign.estimators import ExperimentRecords, WeightFn
from gaussdesign.inference import (_JOINT_GUARD, ContinuousModelSpec, VarianceReport,
                                   aronow_samii_bound, normal_ci, ols_fit,
                                   randomization_ci_continuous,
                                   randomization_ci_discrete, true_variance,
                                   variance_ht_arm)


def _draw_records(table, factor, K, seed, streams):
    t = grng.normals(seed, streams, factor.k) @ factor.rows.T
    arms = discretize(t, quantile_thresholds(K))
    y = table[np.arange(table.shape[0])[None, :], arms - 1]
    return t, arms, y


class TestVarianceHtArm:
    def test_two_unit_direct_value(self):
        rec = ExperimentRecords(Y=np.array([1.0, 1.0]), D=np.array([1, 2]))
        rep = variance_ht_arm(rec, identity_factor(2), 1, 2)
        assert rep.well_defined
        # only the (1,1) diagonal term survives: 2 * f(1)/(f(1) + 1/4) = 1
        assert rep.point == pytest.approx(1.0, abs=1e-12)

    def test_zero_outcomes(self):
        rec = ExperimentRecords(Y=np.zeros(3), D=np.array([1, 2, 1]))
        assert variance_ht_arm(rec, identity_factor(3), 1, 2).point == 0.0

    def test_monte_carlo_unbiasedness(self):
        gen = np.random.default_rng(1)
        n, K, B = 6, 3, 30_000
        table = gen.uniform(0.5, 2.0, (n, K))
        factor = block_factor([0, 0, 0, 1, 1, 1], -0.3)
        truth = true_variance(table, factor, 1, K)
        _, arms, y = _draw_records(table, factor, K, 9, np.arange(B))
        # vectorized copy of the estimator for speed
        from gaussdesign.covmap import apply_map
        F = apply_map(f_arm(K, 1), factor)
        joint = F + 1.0 / K**2
        M = F / joint
        ind = (arms == 1).astype(float)
        yy = y * ind
        vals = K**2 / n * np.einsum("bi,ij,bj->b", yy, M, yy)
        se = vals.std() / np.sqrt(B)
        assert abs(vals.mean() - truth) < 4 * se
        # spot-check the vectorization against the reference implementation
        rec = ExperimentRecords(Y=y[0], D=arms[0])
        assert variance_ht_arm(rec, factor, 1, K).point == pytest.approx(vals[0])

    def test_guard_on_impossible_pair(self):
        # antithetic pair cannot share an arm; records claiming so trip the guard
        fac = factor_from_rows(np.array([[1.0], [-1.0]]))
        rec = ExperimentRecords(Y=np.array([1.0, 1.0]), D=np.array([1, 1]))
        rep = variance_ht_arm(rec, fac, 1, 2)
        assert not rep.well_defined
        assert rep.point is None
        assert rep.min_joint_prob <= 1e-8

    def test_no_unit_in_arm(self):
        rec = ExperimentRecords(Y=np.array([1.0, 1.0]), D=np.array([2, 2]))
        rep = variance_ht_arm(rec, identity_factor(2), 1, 2)
        assert rep.well_defined and rep.point == 0.0


class TestTrueVariance:
    def test_identity_two_arm(self):
        table = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        # f(1) = 1/4 for K = 2, so V = (4/n) * (1/4) ||Y(1)||^2 = ||Y(1)||^2 / n
        expected = np.sum(table[:, 0] ** 2) / 3.0
        assert true_variance(table, identity_factor(3), 1, 2) == pytest.approx(expected)

    def test_zero_outcomes(self):
        assert true_variance(np.zeros((4, 2)), identity_factor(4), 1, 2) == 0.0

    def test_matches_scaled_mse(self):
        gen = np.random.default_rng(2)
        n, K, B = 6, 2, 40_000
        table = gen.uniform(-1.0, 1.0, (n, K))
        factor = block_factor([0, 0, 1, 1, 2, 2], 0.5)
        _, arms, y = _draw_records(table, factor, K, 21, np.arange(B))
        est = K / n * np.sum(np.where(arms == 1, y, 0.0), axis=1)
        sq = n * (est - table[:, 0].mean()) ** 2
        se = sq.std() / np.sqrt(B)
        assert abs(sq.mean() - true_variance(table, factor, 1, K)) < 4 * se


class TestNormalCi:
    def test_standard_width(self):
        ci = normal_ci(0.0, 1.0, 100, 0.05)
        z = float(ndtri(0.975))
        assert z == pytest.approx(1.9599639845400545, abs=1e-12)
        assert ci.lower == pytest.approx(-z / 10.0)
        assert ci.upper == pytest.approx(z / 10.0)

    def test_degenerate_variance(self):
        ci = normal_ci(1.3, 0.0, 10, 0.05)
        assert ci.lower == ci.upper == 1.3

    def test_one_sigma_alpha(self):
        ci = normal_ci(0.0, 1.0, 1, 0.32)
        assert ci.upper == pytest.approx(float(ndtri(0.84)), abs=1e-12)
        assert ci.upper == pytest.approx(0.9944578832097532, abs=1e-9)

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            normal_ci(0.0, -1.0, 10, 0.05)


class TestAronowSamii:
    def test_zero_outcomes(self):
        rec = ExperimentRecords(Y=np.zeros(4), D=np.array([1, 2, 3, 1]))
        rep = aronow_samii_bound(rec, identity_factor(4), np.array([1.0, -1.0, 0.0]), 3)
        assert rep.point == 0.0

    def test_basis_weight_reduces_to_arm_variance(self):
        # with w = e_k the cross-arm bound term vanishes and the estimator
        # coincides with the arm variance estimator term by term
        gen = np.random.default_rng(3)
        y = gen.standard_normal(6)
        rec = ExperimentRecords(Y=y, D=np.array([1, 2, 3, 1, 2, 3]))
        fac = block_factor([0, 0, 0, 1, 1, 1], -0.3)
        w = np.array([0.0, 1.0, 0.0])
        bound = aronow_samii_bound(rec, fac, w, 3)
        direct = variance_ht_arm(rec, fac, 2, 3)
        assert bound.point == pytest.approx(direct.point, rel=1e-12)

    def test_conservative_on_average(self):
        gen = np.random.default_rng(4)
        n, K, B = 6, 3, 30_000
        table = gen.uniform(0.5, 1.5, (n, K))
        factor = block_factor([0, 0, 0, 1, 1, 1], -0.3)
        w = np.array([1.0, -1.0, 0.0])
        _, arms, y = _draw_records(table, factor, K, 31, np.arange(B))
        est = np.zeros(B)
        for k in range(1, K + 1):
            est += w[k - 1] * K / n * np.sum(np.where(arms == k, y, 0.0), axis=1)
        nvar = n * est.var()
        sample_idx = np.arange(0, B, B // 300)
        vb = np.array([
            aronow_samii_bound(ExperimentRecords(Y=y[b], D=arms[b]), factor, w, K).point
            for b in sample_idx])
        se = vb.std() / np.sqrt(vb.size)
        assert vb.mean() >= nvar - 4 * se

    def test_weight_shape_checked(self):
        rec = ExperimentRecords(Y=np.zeros(2), D=np.array([1, 2]))
        with pytest.raises(ValueError):
            aronow_samii_bound(rec, identity_factor(2), np.array([1.0]), 2)

    def test_factor_size_checked(self):
        rec = ExperimentRecords(Y=np.zeros(3), D=np.array([1, 2, 1]))
        with pytest.raises(ValueError, match="factor size"):
            aronow_samii_bound(rec, identity_factor(4), np.array([1.0, -1.0]), 2)


def _reference_aronow_samii(records, factor, w, K):
    """The bound as it was written before each cell map was evaluated once
    per unordered pair: every ordered pair (i, j), i != j, selected by n x n
    masks."""
    w = np.asarray(w, dtype=float)
    n = records.n
    arms = records.arms(K)
    Y = records.Y
    sigma = np.clip(factor.to_matrix(), -1.0, 1.0)
    var_ind = (K - 1.0) / K ** 2
    t1 = K ** 2 / n * float(np.sum(w[arms - 1] ** 2 * Y ** 2 * var_ind * K))
    t2 = 0.0
    min_joint = np.inf
    offdiag = ~np.eye(n, dtype=bool)
    yy = np.outer(Y, Y)
    for k in range(1, K + 1):
        for l in range(1, K + 1):
            sel = np.outer(arms == k, arms == l) & offdiag
            if not np.any(sel):
                continue
            C = f_cross(K, k, l).eval(sigma[sel])
            joint = C + 1.0 / K ** 2
            min_joint = min(min_joint, float(joint.min()))
            if min_joint <= _JOINT_GUARD:
                return VarianceReport(point=None, well_defined=False,
                                      min_joint_prob=min_joint,
                                      kind="aronow_samii_bound")
            t2 += w[k - 1] * w[l - 1] * float(np.sum(yy[sel] * C / joint))
    t2 *= K ** 2 / n
    t3 = 0.0
    absw = np.abs(w)
    for k in range(1, K + 1):
        for l in range(1, K + 1):
            if k == l:
                continue
            in_k = (arms == k).astype(float)
            in_l = (arms == l).astype(float)
            t3 += absw[k - 1] * absw[l - 1] * float(np.sum(Y ** 2 * (in_k + in_l) * K))
    t3 /= 2.0 * n
    return VarianceReport(point=t1 + t2 + t3, well_defined=True,
                          min_joint_prob=min_joint, kind="aronow_samii_bound")


def _bound_factor(kind, n, gen):
    """identity; random unit rows; random rows with exact duplicates and
    negations; signed basis rows, whose correlations are exactly -1, 0 or 1
    (an antithetic pair in one arm, or a comonotone pair in two arms, has
    joint probability 0 and trips the guard)."""
    if kind == "identity":
        return identity_factor(n)
    if kind == "signed basis":
        rows = np.zeros((n, 3))
        rows[np.arange(n), gen.integers(0, 3, n)] = gen.choice([-1.0, 1.0], n)
        return CorrelationFactor(rows)
    rows = factor_from_rows(gen.standard_normal((n, int(gen.integers(1, 6))))).rows.copy()
    if kind == "repeated rows":
        src = gen.integers(0, n, n // 2)
        rows[:n // 2] = rows[src] * gen.choice([-1.0, 1.0], (n // 2, 1))
    return CorrelationFactor(rows)


@settings(max_examples=120, deadline=None)
@given(K=st.sampled_from([2, 3, 5]), n=st.integers(1, 40),
       kind=st.sampled_from(["identity", "random", "repeated rows", "signed basis"]),
       skew=st.sampled_from(["uniform", "one arm", "sparse"]),
       seed=st.integers(0, 2**32 - 1))
def test_aronow_samii_matches_reference(K, n, kind, skew, seed):
    gen = np.random.default_rng(seed)
    # "one arm" and "sparse" leave arms with no unit or a single unit
    if skew == "uniform":
        D = gen.integers(1, K + 1, n)
    elif skew == "one arm":
        D = np.full(n, int(gen.integers(1, K + 1)))
        D[:int(gen.integers(0, 2))] = 1
    else:
        D = gen.choice([1, K], n, p=[0.9, 0.1])
    rec = ExperimentRecords(Y=gen.standard_normal(n), D=D)
    factor = _bound_factor(kind, n, gen)
    w = gen.standard_normal(K)
    got = aronow_samii_bound(rec, factor, w, K)
    want = _reference_aronow_samii(rec, factor, w, K)
    assert got.well_defined == want.well_defined
    assert got.min_joint_prob == want.min_joint_prob
    if want.point is None:
        assert got.point is None
    else:
        assert got.point.hex() == want.point.hex()


def test_aronow_samii_guard_reached_through_reference():
    # the guard cases of the property: an antithetic pair in one arm
    rec = ExperimentRecords(Y=np.ones(2), D=np.array([1, 1]))
    factor = CorrelationFactor(np.array([[1.0], [-1.0]]))
    for impl in (aronow_samii_bound, _reference_aronow_samii):
        rep = impl(rec, factor, np.array([1.0, -1.0]), 2)
        assert not rep.well_defined and rep.min_joint_prob <= _JOINT_GUARD


def test_aronow_samii_peak_memory():
    # sigma is the one n x n array; the cells are (n/K)^2 blocks
    n, K = 800, 3
    gen = np.random.default_rng(8)
    factor = factor_from_rows(gen.standard_normal((n, 20)))
    rec = ExperimentRecords(Y=gen.standard_normal(n),
                            T=factor.rows @ gen.standard_normal(20))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        rep = aronow_samii_bound(rec, factor, np.array([1.0, -1.0, 0.0]), K)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert rep.well_defined
    assert peak < 3 * 8 * n * n


def test_aronow_samii_peak_memory_on_four_workers(monkeypatch):
    # the exact kernel's chunk is split across the workers, so memory in
    # flight does not grow with their number
    monkeypatch.setattr(blocks, "_cpu_count", lambda: 4)
    test_aronow_samii_peak_memory()


class TestOlsFit:
    def test_exactly_determined(self):
        A = np.array([[1.0, 0.0], [1.0, 1.0]])
        y = np.array([2.0, 5.0])
        assert ols_fit(A, y) == pytest.approx(np.linalg.solve(A, y))

    def test_noiseless_recovery(self):
        gen = np.random.default_rng(5)
        A = gen.standard_normal((30, 4))
        beta = gen.standard_normal(4)
        assert ols_fit(A, A @ beta) == pytest.approx(beta, abs=1e-10)

    def test_duplicated_column_min_norm(self):
        gen = np.random.default_rng(6)
        a = gen.standard_normal(10)
        A = np.column_stack([a, a])
        y = 3.0 * a
        coef = ols_fit(A, y)
        # pseudoinverse oracle splits the coefficient evenly
        assert coef == pytest.approx(np.linalg.pinv(A) @ y, abs=1e-10)
        assert coef == pytest.approx([1.5, 1.5], abs=1e-10)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            ols_fit(np.array([[np.inf]]), np.array([1.0]))


def _linear_three_arm(seed=0, n=30):
    gen = np.random.default_rng(seed)
    X = gen.standard_normal((n, 2))
    beta = np.array([[1.0, -0.5], [0.2, 0.4], [-1.0, 2.0]])
    table = X @ beta.T  # n x 3, linear and noiseless
    return X, table


class TestRandomizationCiDiscrete:
    def test_seed_determinism(self):
        X, table = _linear_three_arm()
        factor = block_factor(np.arange(30) % 10, -0.4)
        t = grng.normals(3, [0], 30) @ factor.rows.T
        arms = discretize(t[0], quantile_thresholds(3))
        if len(np.unique(arms)) < 3:  # ensure the per-arm fit is possible
            arms[:3] = [1, 2, 3]
        y = table[np.arange(30), arms - 1]
        rec = ExperimentRecords(Y=y, X=X, D=arms)
        w = np.array([1.0, -1.0, 0.0])
        a = randomization_ci_discrete(rec, factor, 3, w, 400, 0.05, 7)
        b = randomization_ci_discrete(rec, factor, 3, w, 400, 0.05, 7)
        assert (a.lower, a.upper) == (b.lower, b.upper)
        c = randomization_ci_discrete(rec, factor, 3, w, 400, 0.05, 8)
        assert (a.lower, a.upper) != (c.lower, c.upper)

    def test_quantile_interval_nesting(self):
        X, table = _linear_three_arm(1)
        factor = identity_factor(30)
        arms = discretize(grng.normals(5, [0], 30)[0], quantile_thresholds(3))
        if len(np.unique(arms)) < 3:
            arms[:3] = [1, 2, 3]
        y = table[np.arange(30), arms - 1]
        rec = ExperimentRecords(Y=y, X=X, D=arms)
        w = np.array([1.0, -1.0, 0.0])
        narrow = randomization_ci_discrete(rec, factor, 3, w, 500, 0.2, 7)
        wide = randomization_ci_discrete(rec, factor, 3, w, 500, 0.05, 7)
        assert wide.lower <= narrow.lower and narrow.upper <= wide.upper

    def test_constant_outcomes_all_equal_factor_zero_width(self):
        # all-equal factor puts every unit in one arm per draw; with constant
        # outcomes every re-estimate collapses to the same value
        n = 9
        fac = factor_from_rows(np.ones((n, 1)))
        rec = ExperimentRecords(Y=np.full(n, 2.0), X=np.ones((n, 1)),
                                D=np.array([1, 2, 3] * 3))
        w = np.full(3, 1.0 / 3.0)
        ci = randomization_ci_discrete(rec, fac, 3, w, 300, 0.05, 3)
        assert ci.width == pytest.approx(0.0, abs=1e-12)

    def test_missing_arm_rejected(self):
        rec = ExperimentRecords(Y=np.ones(4), X=np.ones((4, 1)),
                                D=np.array([1, 1, 2, 2]))
        with pytest.raises(ValueError, match="arm 3"):
            randomization_ci_discrete(rec, identity_factor(4), 3,
                                      np.array([1.0, -1.0, 0.0]), 200, 0.05, 0)

    def test_minimum_replicates(self):
        rec = ExperimentRecords(Y=np.ones(2), X=np.ones((2, 1)), D=np.array([1, 2]))
        with pytest.raises(ValueError):
            randomization_ci_discrete(rec, identity_factor(2), 2,
                                      np.array([1.0, -1.0]), 50, 0.05, 0)

    def test_coverage_noiseless_linear(self):
        # outer Monte Carlo over experiments; imputation is exact in the
        # noiseless linear model, so coverage should be near nominal
        X, table = _linear_three_arm(2, n=60)
        factor = identity_factor(60)
        truth = (table[:, 0] - table[:, 1]).mean()
        w = np.array([1.0, -1.0, 0.0])
        hits = 0
        outer = 300
        for b in range(outer):
            t = grng.normals(77, [b], 60)[0]
            arms = discretize(t, quantile_thresholds(3))
            if len(np.unique(arms)) < 3:
                continue
            y = table[np.arange(60), arms - 1]
            rec = ExperimentRecords(Y=y, X=X, D=arms)
            ci = randomization_ci_discrete(rec, factor, 3, w, 300, 0.05,
                                           grng.derive_seed(77, b))
            hits += ci.contains(truth)
        assert hits / outer >= 0.90


class TestRandomizationCiContinuous:
    @staticmethod
    def _regressors(X, t):
        return np.column_stack([np.ones(t.size), X, t])

    def test_seed_determinism(self):
        gen = np.random.default_rng(8)
        X = gen.standard_normal((20, 2))
        t = grng.normals(1, [0], 20)[0]
        y = X @ np.array([1.0, -2.0]) + 0.7 * t
        rec = ExperimentRecords(Y=y, X=X, T=t)
        spec = ContinuousModelSpec(self._regressors, WeightFn.first_derivative())
        a = randomization_ci_continuous(rec, identity_factor(20), spec, 300, 0.05, 5)
        b = randomization_ci_continuous(rec, identity_factor(20), spec, 300, 0.05, 5)
        assert (a.lower, a.upper) == (b.lower, b.upper)

    def test_zero_outcomes_zero_width(self):
        X = np.ones((10, 1))
        t = grng.normals(2, [0], 10)[0]
        rec = ExperimentRecords(Y=np.zeros(10), X=X, T=t)
        spec = ContinuousModelSpec(self._regressors, WeightFn.first_derivative())
        ci = randomization_ci_continuous(rec, identity_factor(10), spec, 200, 0.05, 1)
        assert ci.width == 0.0

    def test_coverage_noiseless_in_span(self):
        gen = np.random.default_rng(9)
        n, outer = 40, 250
        X = gen.standard_normal((n, 2))
        beta = np.array([0.8, -1.2])
        slope = 0.6
        truth = slope  # E[Y'(Z)] for the linear response
        spec = ContinuousModelSpec(self._regressors, WeightFn.first_derivative())
        factor = identity_factor(n)
        hits = 0
        for b in range(outer):
            t = grng.normals(55, [b], n)[0]
            y = X @ beta + slope * t
            rec = ExperimentRecords(Y=y, X=X, T=t)
            ci = randomization_ci_continuous(rec, factor, spec, 300, 0.05,
                                             grng.derive_seed(55, b))
            hits += ci.contains(truth)
        assert hits / outer >= 0.90


def test_interval_report_validation():
    from gaussdesign.inference import IntervalReport
    with pytest.raises(ValueError):
        IntervalReport(lower=1.0, upper=0.0, alpha=0.05, method="normal")
    with pytest.raises(ValueError):
        IntervalReport(lower=0.0, upper=1.0, alpha=1.5, method="normal")
    rep = IntervalReport(lower=-1.0, upper=1.0, alpha=0.05, method="normal")
    assert rep.contains(0.0) and not rep.contains(2.0)
    assert rep.width == 2.0
