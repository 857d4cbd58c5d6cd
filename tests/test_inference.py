import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

import gaussdesign.rng as grng
from gaussdesign import blocks, covmap, elliptope
from gaussdesign.covmap import apply_map, discretize, f_arm, f_cross, quantile_thresholds
from gaussdesign.elliptope import (CorrelationFactor, block_factor, factor_from_rows,
                                   identity_factor, sample)
from gaussdesign.estimators import ExperimentRecords, WeightFn, _ht_arm_weights, _ht_weight
from gaussdesign.inference import (_JOINT_GUARD, ContinuousModelSpec, VarianceReport,
                                   _empirical_interval, aronow_samii_bound, normal_ci,
                                   ols_fit, randomization_ci_continuous,
                                   randomization_ci_discrete, true_variance,
                                   variance_ht_arm)
from gaussdesign.simbench import GaussianDesign


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

    @pytest.mark.parametrize("k", [0, 3, -1])
    def test_arm_index_out_of_range(self, k):
        rec = ExperimentRecords(Y=np.ones(2), D=np.array([1, 2]))
        with pytest.raises(ValueError, match="out of range 1..2"):
            variance_ht_arm(rec, identity_factor(2), k, 2)


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

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, 2.0, 3.0, -0.5, np.nan])
    def test_alpha_outside_unit_interval_names_alpha(self, alpha):
        # z = Phi^-1(1 - alpha / 2) is +-inf or NaN there, never an error of its own
        with pytest.raises(ValueError, match=r"^alpha must lie in \(0, 1\)$"):
            normal_ci(0.0, 1.0, 10, alpha)


class TestAronowSamii:
    def test_zero_outcomes(self):
        rec = ExperimentRecords(Y=np.zeros(4), D=np.array([1, 2, 3, 1]))
        rep = aronow_samii_bound(rec, identity_factor(4), np.array([1.0, -1.0, 0.0]), 3)
        assert rep.point == 0.0

    def test_basis_weight_reduces_to_arm_variance(self):
        # with w = e_k the cross-arm bound term is exactly 0, and the arm
        # variance estimator is the bound at that w, relabelled
        gen = np.random.default_rng(3)
        y = gen.standard_normal(6)
        rec = ExperimentRecords(Y=y, D=np.array([1, 2, 3, 1, 2, 3]))
        fac = block_factor([0, 0, 0, 1, 1, 1], -0.3)
        for k in range(1, 4):
            bound = aronow_samii_bound(rec, fac, np.eye(3)[k - 1], 3)
            direct = variance_ht_arm(rec, fac, k, 3)
            assert (bound.kind, direct.kind) == ("aronow_samii_bound", "ht_arm_variance")
            assert (bound.point, bound.min_joint_prob) == (direct.point, direct.min_joint_prob)

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


def _dense_min_joint(records, factor, K):
    """min over i != j of f_{D_i,D_j}(Sigma_ij) + 1/K^2, from the dense maps."""
    arms = records.arms(K)
    offdiag = ~np.eye(records.n, dtype=bool)
    cells = [apply_map(f_cross(K, k, l), factor)[np.outer(arms == k, arms == l) & offdiag]
             for k in range(1, K + 1) for l in range(1, K + 1)]
    return min((float(c.min()) + 1.0 / K ** 2 for c in cells if c.size), default=np.inf)


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
    if want.point is None:
        # The reference stops at the first cell at the guard; the streamed
        # bound reports the minimum over every pair i != j.  Measured first
        # over 6000 seeded draws of these strategies (3312 at the guard):
        # equal wherever the dense minimum is positive, and at most 2.4e-9
        # apart where it is 0 (an inner product within ulps of +-1).
        assert got.point is None
        assert got.min_joint_prob == pytest.approx(_dense_min_joint(rec, factor, K),
                                                   rel=1e-12, abs=5e-9)
        return
    # The streamed gram sums each inner product in another order.  Where it
    # lies within ulps of +-1 (rank-1 factors, repeated rows) the maps'
    # slope, which diverges there (f(1 - d) - f(1) ~ sqrt(d)), can turn an
    # ulp into about 1e-8 of f.  Measured first over 6000 seeded draws of
    # these strategies: worst relative deviation 4.4e-12 for the point and
    # 2.5e-14 for the minimum joint probability.
    assert got.point == pytest.approx(want.point, rel=1e-7, abs=0)
    assert got.min_joint_prob == pytest.approx(want.min_joint_prob, rel=1e-7, abs=0)


def test_aronow_samii_guard_reached_through_reference():
    # the guard cases of the property: an antithetic pair in one arm
    rec = ExperimentRecords(Y=np.ones(2), D=np.array([1, 1]))
    factor = CorrelationFactor(np.array([[1.0], [-1.0]]))
    for impl in (aronow_samii_bound, _reference_aronow_samii):
        rep = impl(rec, factor, np.array([1.0, -1.0]), 2)
        assert not rep.well_defined and rep.min_joint_prob <= _JOINT_GUARD


def test_zero_weight_arm_units_do_not_enter_the_bound():
    # an antithetic pair in arm 3 has joint probability 0, but w_3 = 0, so
    # neither unit enters: the bound is the bound without them
    gen = np.random.default_rng(6)
    K, w = 3, np.array([1.0, -1.0, 0.0])
    rows = gen.standard_normal((8, 3))
    rows[6], rows[7] = rows[5], -rows[5]
    factor = factor_from_rows(rows)
    D = np.array([1, 2, 1, 2, 1, 2, 3, 3])
    rec = ExperimentRecords(Y=gen.standard_normal(8), D=D)
    got = aronow_samii_bound(rec, factor, w, K)
    assert got.well_defined
    keep = D != 3
    # the records without those units are 6 of the 8, and the estimator
    # scales by 1/n: compare n * V_hat
    want = aronow_samii_bound(ExperimentRecords(Y=rec.Y[keep], D=D[keep]),
                              CorrelationFactor(factor.rows[keep]), w, K)
    assert 8 * got.point == pytest.approx(6 * want.point, rel=1e-13)
    assert got.min_joint_prob == want.min_joint_prob
    # the pair still trips the guard where its arm has weight
    assert not aronow_samii_bound(rec, factor, np.array([1.0, 0.0, -1.0]), K).well_defined


def test_aronow_samii_peak_memory():
    # Blocks of the gram stream through the cross term; no n x n array.
    # Measured: 5.5 MB on one worker, 7.6-8.2 MB on four (8 n^2 = 5.1 MB);
    # the dense sigma and its cells peaked at 10.3-10.7 MB.
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
    assert peak < 1.75 * 8 * n * n


def test_aronow_samii_peak_memory_on_four_workers(monkeypatch):
    # the exact kernel's chunk is split across the workers, so memory in
    # flight does not grow with their number
    monkeypatch.setattr(blocks, "_cpu_count", lambda: 4)
    test_aronow_samii_peak_memory()


# -- the streamed reductions against the dense maps ------------------------------

# sizes around a row block and past a column tile of the gram's blocks
REDUCE_SIZES = (1, 2, blocks.ROW_BLOCK - 1, blocks.ROW_BLOCK, blocks.ROW_BLOCK + 1,
                blocks.COL_TILE + 1, blocks.COL_TILE + blocks.ROW_BLOCK + 3)


def _edge_case(n, k, seed, K=3):
    """A factor of unit rows in k columns whose rows 0, 1 and 3 are e_1 and
    row 2 is -e_1 (correlations exactly +-1 in any summation order), the
    rest random; records with those units in arms 1, 1, 3, 1, so no joint
    probability is 0; outcome table and covariates."""
    gen = np.random.default_rng(seed)
    V = gen.standard_normal((n, k))
    m = min(n, 4)
    V[:m] = 0.0
    V[:m, 0] = [1.0, 1.0, -1.0, 1.0][:m]
    D = 1 + np.arange(n) % K
    D[:m] = [1, 1, 3, 1][:m]
    rec = ExperimentRecords(Y=gen.standard_normal(n), D=D)
    return factor_from_rows(V), rec, gen.standard_normal((n, K))


def _dense_variance_ht_arm(records, factor, k, K):
    """(point, minimum joint probability over pairs i != j) of
    variance_ht_arm from the dense map of the arm-k rows."""
    unit = np.flatnonzero(records.arms(K) == k)
    F = apply_map(f_arm(K, k), CorrelationFactor(factor.rows[unit]))
    joint = F + 1.0 / K ** 2
    y = records.Y[unit]
    pairs = joint[~np.eye(unit.size, dtype=bool)]
    return (K ** 2 / records.n * float(np.sum(np.outer(y, y) * F / joint)),
            float(pairs.min()) if pairs.size else np.inf)


@pytest.mark.parametrize("k", [9, 80])
@pytest.mark.parametrize("n", REDUCE_SIZES)
def test_consumers_match_dense_maps(n, k):
    # Measured first over these sizes, k in {9, 80} and seeds 0-2 and n:
    # worst relative deviation 1.2e-13 (true_variance), 3.3e-14
    # (variance_ht_arm, its minimum 0) and 8.2e-15 (aronow_samii_bound, its
    # minimum 6.6e-16).
    K = 3
    factor, rec, table = _edge_case(n, k, n)
    for arm in range(1, K + 1):
        y = table[:, arm - 1]
        dense = K ** 2 / n * float(y @ apply_map(f_arm(K, arm), factor) @ y)
        assert true_variance(table, factor, arm, K) == pytest.approx(dense, rel=1e-12)
        got = variance_ht_arm(rec, factor, arm, K)
        assert got.well_defined
        if np.any(rec.D == arm):
            point, min_joint = _dense_variance_ht_arm(rec, factor, arm, K)
            assert got.point == pytest.approx(point, rel=1e-12)
            assert got.min_joint_prob == pytest.approx(min_joint, rel=1e-12)
    w = np.array([0.5, -1.0, 2.0])
    got = aronow_samii_bound(rec, factor, w, K)
    want = _reference_aronow_samii(rec, factor, w, K)
    assert got.well_defined and want.well_defined
    assert got.point == pytest.approx(want.point, rel=1e-12)
    assert got.min_joint_prob == pytest.approx(want.min_joint_prob, rel=1e-12)


def test_true_variance_checks_the_factor_size():
    with pytest.raises(ValueError, match="factor size"):
        true_variance(np.ones((3, 2)), identity_factor(4), 1, 2)


def test_consumers_allocate_no_square_array(monkeypatch):
    # The exact kernel's chunk temporaries do not grow with n; a smaller
    # chunk leaves the reductions' own memory.  Measured on one worker at
    # n = 1200: at most 0.19 n^2 floats for each consumer; the dense maps
    # took 0.70 (variance_ht_arm) to 3.2 (the balance terms).
    monkeypatch.setattr(covmap, "_CHUNK", 1024)
    monkeypatch.setattr(blocks, "_cpu_count", lambda: 1)
    n, K = 1200, 2
    gen = np.random.default_rng(8)
    factor = factor_from_rows(gen.standard_normal((n, 10)))
    rec = ExperimentRecords(Y=gen.standard_normal(n),
                            T=factor.rows @ gen.standard_normal(10))
    X = gen.standard_normal((n, 5))
    calls = {"true_variance": lambda: true_variance(gen.standard_normal((n, K)), factor, 1, K),
             "variance_ht_arm": lambda: variance_ht_arm(rec, factor, 1, K),
             "aronow_samii_bound": lambda: aronow_samii_bound(rec, factor,
                                                              np.array([1.0, -1.0]), K),
             "arm_terms": lambda: GaussianDesign(factor).arm_terms(X, K, 0)}
    for name, call in calls.items():
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            call()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * n / 4, name


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


def _whole_array_ci_discrete(records, factor, K, w, B, alpha, seed):
    """randomization_ci_discrete as it was before the replicates were
    streamed: every B x n array at once."""
    w = np.asarray(w, dtype=float)
    arms_obs = records.arms(K)
    n = records.n
    X1 = np.column_stack([np.ones(n), records.X])
    fitted = np.empty((n, K))
    for k in range(1, K + 1):
        sel = arms_obs == k
        fitted[:, k - 1] = X1 @ ols_fit(X1[sel], records.Y[sel])
    draws = sample(factor, B, seed).draws
    arms_b = discretize(draws, quantile_thresholds(K))
    imputed = fitted[np.arange(n)[None, :], arms_b - 1]
    Yb = np.where(arms_b == arms_obs[None, :], records.Y[None, :], imputed)
    return _empirical_interval(_ht_arm_weights(arms_b, Yb, w, K), alpha, B)


def _whole_array_ci_continuous(records, factor, model_spec, B, alpha, seed):
    """randomization_ci_continuous as it was before the replicates were
    streamed: one B x n draw, scored in chunks of 200000 // n rows."""
    n = records.n
    coef = ols_fit(np.asarray(model_spec.regressors(records.X, records.T)), records.Y)
    draws = sample(factor, B, seed).draws
    estimates = np.empty(B)
    chunk = max(1, 200_000 // n)
    for lo in range(0, B, chunk):
        tb = draws[lo:lo + chunk]
        reps = tb.shape[0]
        basis = np.asarray(model_spec.regressors(np.tile(records.X, (reps, 1)),
                                                 tb.reshape(-1)), dtype=float)
        fitted = (basis @ coef).reshape(reps, n)
        yb = np.where(tb == records.T[None, :], records.Y[None, :], fitted)
        estimates[lo:lo + reps] = _ht_weight(tb, yb, model_spec.weight)
    return _empirical_interval(estimates, alpha, B)


def _streamed_case(n, K, seed, k=7):
    """A rank-k design whose first draw fills every arm, with records on it.
    k = 7 at n = 500 is a shape where BLAS rounds some rows of z V^T
    differently with the number of rows in one product."""
    gen = np.random.default_rng(seed)
    factor = factor_from_rows(gen.standard_normal((n, k)))
    X = gen.standard_normal((n, 2))
    t = sample(factor, 1, seed).draws[0]
    arms = discretize(t, quantile_thresholds(K))
    assert len(np.unique(arms)) == K
    y = X @ np.array([1.0, -0.5]) + 0.3 * arms + 0.5 * t + 0.1 * gen.standard_normal(n)
    return factor, ExperimentRecords(Y=y, X=X, T=t, D=arms)


class TestStreamedReplicates:
    """The randomization CIs draw their replicates in chunks of
    max(1, _DRAW_POINTS // n) rows instead of one B x n array."""

    N = 500
    CHUNK = elliptope._DRAW_POINTS // N   # 131 rows

    @staticmethod
    def _contrast(K):
        w = np.zeros(K)
        w[0], w[-1] = 1.0, -1.0
        return w

    def test_chunks_tile_the_replicates(self):
        # shapes where BLAS rounds some rows of z V^T differently with the
        # number of rows in one product: sample draws through the same chunks
        for n, k in [(self.N, 7), (801, 20)]:
            factor, _ = _streamed_case(n, 3, 0, k)
            chunk = elliptope._DRAW_POINTS // n
            B = 2 * chunk + 3
            chunks = list(elliptope._draw_chunks(factor, B, 4))
            assert [(lo, hi) for lo, hi, _ in chunks] == [
                (0, chunk), (chunk, 2 * chunk), (2 * chunk, B)]
            whole = sample(factor, B, 4).draws
            assert np.array_equal(np.vstack([c for _, _, c in chunks]), whole)

    @pytest.mark.parametrize("K", [2, 3, 5])
    @pytest.mark.parametrize("B", [100, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3])
    def test_discrete_equals_whole_array(self, B, K):
        # arms differ only where a latent value lies within an ulp of a
        # threshold, so the intervals are equal bit for bit
        factor, rec = _streamed_case(self.N, K, K)
        w = self._contrast(K)
        got = randomization_ci_discrete(rec, factor, K, w, B, 0.05, 11)
        want = _whole_array_ci_discrete(rec, factor, K, w, B, 0.05, 11)
        assert (got.lower, got.upper, got.replicates) == (want.lower, want.upper, B)

    @pytest.mark.parametrize("K", [2, 3, 5])
    def test_discrete_one_replicate_per_chunk(self, monkeypatch, K):
        # n > _DRAW_POINTS: every chunk holds a single replicate
        monkeypatch.setattr(elliptope, "_DRAW_POINTS", 64)
        factor, rec = _streamed_case(100, K, K)
        w = self._contrast(K)
        assert len(list(elliptope._draw_chunks(factor, 120, 0))) == 120
        got = randomization_ci_discrete(rec, factor, K, w, 120, 0.1, 5)
        want = _whole_array_ci_discrete(rec, factor, K, w, 120, 0.1, 5)
        assert (got.lower, got.upper) == (want.lower, want.upper)

    @pytest.mark.parametrize("B", [100, CHUNK, 2 * CHUNK + 3, 1000])
    def test_continuous_matches_whole_array(self, B):
        # A latent value may move by an ulp with the rows in one BLAS
        # product.  Measured first: over 48 intervals (n in {500, 801}, k in
        # {7, 20}, seeds 0-5, B in {100, 1000}) no endpoint moved.  1e-12
        # leaves room for a few ulps carried through the fit and the mean.
        factor, rec = _streamed_case(self.N, 3, 1)
        spec = ContinuousModelSpec(
            lambda X, t: np.column_stack([np.ones(t.size), X, t, t ** 2]),
            WeightFn.first_derivative())
        got = randomization_ci_continuous(rec, factor, spec, B, 0.05, 2)
        want = _whole_array_ci_continuous(rec, factor, spec, B, 0.05, 2)
        assert got.lower == pytest.approx(want.lower, rel=1e-12, abs=0)
        assert got.upper == pytest.approx(want.upper, rel=1e-12, abs=0)

    @staticmethod
    def _traced_peak(B):
        n, K = 800, 3
        factor, rec = _streamed_case(n, K, 8, k=20)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            randomization_ci_discrete(rec, factor, K, np.array([1.0, -1.0, 0.0]),
                                      B, 0.05, 3)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def test_discrete_peak_memory(self):
        # one chunk is 81 x 800 values, about 0.5 MB per array (measured
        # peak 3.1 MB); the whole B x n path peaked at 73 MB for B = 2000
        mb = 1 << 20
        assert self._traced_peak(2000) < 4 * mb
        # only the (B,) estimates grow with B
        assert self._traced_peak(8000) < 4 * mb + 8 * 8000


def test_interval_report_validation():
    from gaussdesign.inference import IntervalReport
    with pytest.raises(ValueError):
        IntervalReport(lower=1.0, upper=0.0, alpha=0.05, method="normal")
    with pytest.raises(ValueError):
        IntervalReport(lower=0.0, upper=1.0, alpha=1.5, method="normal")
    rep = IntervalReport(lower=-1.0, upper=1.0, alpha=0.05, method="normal")
    assert rep.contains(0.0) and not rep.contains(2.0)
    assert rep.width == 2.0
