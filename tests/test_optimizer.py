import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussdesign import blocks, covmap, optimizer
from gaussdesign.covmap import (CovarianceMap, _diagonal_forms, _gram, build_table, f_arm,
                                weighted_discrete_map)
from gaussdesign.elliptope import (CorrelationFactor, factor_from_rows, identity_factor,
                                   validate)
from gaussdesign.estimators import WeightFn
from gaussdesign.hermite import continuous_cov_maps
from gaussdesign.optimizer import (Backtracking, DesignProblem, FixedStep,
                                   OptimizationError, TraceRow, _is_identity, default_eta0,
                                   design_problem, discrete_problem,
                                   gradient_nuclear, gradient_operator,
                                   objective, pgd_gauss, pgd_step)

F2 = weighted_discrete_map(np.array([1.0, 1.0]), 2)   # f_1 + f_2 = 2 f_1 for K=2


def _random_problem(seed, d=2, K=3, norm="nuc", n=4):
    gen = np.random.default_rng(seed)
    X = gen.standard_normal((n, d))
    w = np.full(K, 1.0 / K)
    if norm == "nuc":
        prob = design_problem(X, cmap=weighted_discrete_map(w, K), norm="nuc")
    else:
        prob = DesignProblem(X=X, maps=tuple(f_arm(K, k) for k in range(1, K + 1)),
                             weights=w, norm="op")
    fac = factor_from_rows(gen.standard_normal((n, n)))
    return prob, fac


def _sigma_objective(prob, sigma):
    """Objective as a direct function of Sigma (test-side oracle)."""
    total = 0.0
    for w, m in zip(prob.weights, prob.maps):
        F = m.eval(np.clip(sigma, -1, 1))
        M = prob.X.T @ F @ prob.X
        sv = np.linalg.svd(M, compute_uv=False)
        total += w * w * (sv.sum() if prob.norm == "nuc" else sv[0])
    return total


class TestObjective:
    def test_two_unit_contrast_covariates(self):
        # X = (1, -1): X' F X = 2 f(1) - 2 f(rho); at rho = 0 this is 1/2
        X = np.array([[1.0], [-1.0]])
        prob = design_problem(X, cmap=f_arm(2, 1), norm="nuc")
        assert objective(prob, identity_factor(2)) == pytest.approx(0.5, abs=1e-10)

    def test_two_unit_equal_covariates_at_antithetic(self):
        # arcsin oracle: f(-1) = -1/4 so 2 f(1) + 2 f(-1) = 0
        X = np.array([[1.0], [1.0]])
        prob = design_problem(X, cmap=f_arm(2, 1), norm="nuc")
        fac = factor_from_rows(np.array([[1.0, 0.0], [-1.0, 0.0]]))
        assert objective(prob, fac) == pytest.approx(0.0, abs=1e-12)

    def test_zero_covariates(self):
        X = np.zeros((3, 2))
        for norm in ("nuc", "op"):
            prob = design_problem(X, cmap=f_arm(2, 1), norm=norm)
            assert objective(prob, identity_factor(3)) == 0.0

    def test_shape_mismatch(self):
        prob = design_problem(np.ones((3, 1)), cmap=f_arm(2, 1), norm="nuc")
        with pytest.raises(ValueError):
            objective(prob, identity_factor(4))

    def test_norm_validation(self):
        with pytest.raises(ValueError):
            design_problem(np.ones((2, 1)), cmap=f_arm(2, 1), norm="banana")

    @pytest.mark.parametrize("norm", ["nuc", "op"])
    def test_discrete_problem_is_the_direct_construction(self, norm):
        prob, fac = _random_problem(5, norm=norm, n=6)
        w = np.array([0.5, -0.25, 1.0 / 3.0])
        built = discrete_problem(prob.X, w, norm)
        direct = design_problem(prob.X, cmap=weighted_discrete_map(w, 3), norm="nuc") \
            if norm == "nuc" else \
            DesignProblem(X=prob.X, maps=tuple(f_arm(3, k) for k in (1, 2, 3)),
                          weights=w, norm="op")
        assert built.norm == direct.norm
        assert np.array_equal(built.weights, direct.weights)
        assert [(m.label, m.terms) for m in built.maps] == \
            [(m.label, m.terms) for m in direct.maps]
        assert objective(built, fac) == objective(direct, fac)
        with pytest.raises(ValueError, match="norm"):
            discrete_problem(prob.X, w, "banana")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weights_rejected(self, bad):
        X = np.random.default_rng(0).standard_normal((6, 2))
        with pytest.raises(ValueError, match="map weights must be finite"):
            DesignProblem(X=X, maps=tuple(f_arm(3, k) for k in (1, 2, 3)),
                          weights=np.array([bad, 1.0, 0.0]), norm="op")


class TestGradientNuclear:
    def test_identity_factor_closed_form(self):
        # closed-form oracle at the identity: grad = f'(0) (XX' - diag(XX'))
        gen = np.random.default_rng(1)
        X = gen.standard_normal((4, 2))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        cmap = weighted_discrete_map(np.full(3, 1 / 3), 3)
        prob = design_problem(X, cmap=cmap, norm="nuc")
        grad = gradient_nuclear(prob, identity_factor(4))
        expected = cmap.deriv(0.0) * (X @ X.T - np.eye(4))
        np.fill_diagonal(expected, 0.0)
        assert np.allclose(grad, expected, atol=1e-12)

    def test_orthogonal_rows_zero_gradient(self):
        X = np.eye(3)
        prob = design_problem(X, cmap=f_arm(2, 1), norm="nuc")
        assert np.all(gradient_nuclear(prob, identity_factor(3)) == 0.0)

    def test_diagonal_exactly_zero(self):
        prob, fac = _random_problem(3)
        grad = gradient_nuclear(prob, fac)
        assert np.all(np.diag(grad) == 0.0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_sigma_space_finite_differences(self, seed):
        prob, fac = _random_problem(seed, n=3)
        sigma = fac.to_matrix()
        grad = gradient_nuclear(prob, fac)
        h = 1e-6
        for i in range(3):
            for j in range(i + 1, 3):
                e = np.zeros((3, 3))
                e[i, j] = e[j, i] = h
                fd = (_sigma_objective(prob, sigma + e)
                      - _sigma_objective(prob, sigma - e)) / (2 * h)
                assert fd == pytest.approx(2.0 * grad[i, j], rel=1e-5, abs=1e-8)


class TestGradientOperator:
    def test_d1_coincides_with_nuclear(self):
        prob, fac = _random_problem(5, d=1, norm="op")
        nuc_prob = DesignProblem(X=prob.X, maps=prob.maps, weights=prob.weights,
                                 norm="nuc")
        op = gradient_operator(prob, fac)
        assert not op.is_subgradient
        assert np.allclose(op.matrix, gradient_nuclear(nuc_prob, fac), atol=1e-12)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_matches_v_space_finite_differences(self, seed):
        prob, fac = _random_problem(seed, d=2, norm="op")
        op = gradient_operator(prob, fac)
        assert not op.is_subgradient
        analytic = 2.0 * op.matrix @ fac.rows
        analytic -= np.sum(analytic * fac.rows, axis=1, keepdims=True) * fac.rows
        h = 1e-6
        V = fac.rows
        fd = np.zeros_like(V)
        for a in range(V.shape[0]):
            for b in range(V.shape[1]):
                vp, vm = V.copy(), V.copy()
                vp[a, b] += h
                vm[a, b] -= h
                fd[a, b] = (objective(prob, factor_from_rows(vp))
                            - objective(prob, factor_from_rows(vm))) / (2 * h)
        assert np.linalg.norm(fd - analytic) <= 1e-4 * max(np.linalg.norm(analytic), 1e-12)

    def test_degenerate_spectrum_flagged(self):
        # orthonormal covariate columns make X' f(I) X proportional to I_d
        X = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 2)))[0]
        prob = design_problem(X, cmap=f_arm(2, 1), norm="op")
        op = gradient_operator(prob, identity_factor(4))
        assert op.is_subgradient

    def test_tie_flag_does_not_depend_on_the_covariates_scale(self):
        # the top two eigenvalues of each X^T f_k(Sigma) X are 38-50 % of the
        # top one apart at every scale; a gap measured in absolute terms
        # flagged a tie at scale 1e-6, where the terms are of order 1e-12
        gen = np.random.default_rng(0)
        X = gen.standard_normal((30, 3))
        fac = factor_from_rows(gen.standard_normal((30, 30)))
        flags = [gradient_operator(DesignProblem(X=scale * X,
                                                 maps=tuple(f_arm(3, k) for k in (1, 2, 3)),
                                                 weights=np.full(3, 1 / 3), norm="op"),
                                   fac).is_subgradient
                 for scale in (1e-6, 1.0, 1e6)]
        assert flags == [False] * 3


class TestPgdStep:
    def test_zero_gradient_and_zero_step(self):
        fac = factor_from_rows(np.random.default_rng(2).standard_normal((3, 3)))
        same = pgd_step(fac, np.zeros((3, 3)), 0.5)
        assert np.allclose(same.rows, fac.rows)
        same = pgd_step(fac, np.ones((3, 3)) - np.eye(3), 0.0)
        assert np.allclose(same.rows, fac.rows)

    def test_one_step_closed_form(self):
        gen = np.random.default_rng(4)
        X = gen.standard_normal((5, 2))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        cmap = f_arm(2, 1)
        prob = design_problem(X, cmap=cmap, norm="nuc")
        eta = 0.07
        fac, _ = pgd_gauss(prob, identity_factor(5), 1, FixedStep(eta))
        V1 = np.eye(5) - eta * cmap.deriv(0.0) * (X @ X.T - np.eye(5))
        dn = np.linalg.norm(V1, axis=1)
        closed = (V1 @ V1.T) / np.outer(dn, dn)
        assert np.max(np.abs(fac.to_matrix() - closed)) < 1e-12

    def test_collapsed_row_kept_with_warning(self):
        fac = identity_factor(2)
        # this gradient maps row 0 exactly onto zero at eta = 1
        g = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.warns(RuntimeWarning, match="collapsed"):
            out = pgd_step(fac, g, 1.0)
        assert np.allclose(out.rows[0], fac.rows[0])

    def test_negative_step_rejected(self):
        fac = identity_factor(3)
        with pytest.raises(ValueError, match="nonnegative"):
            pgd_step(fac, np.ones((3, 3)) - np.eye(3), -0.1)


class TestPgdGauss:
    def test_zero_iterations(self):
        prob, fac = _random_problem(6)
        out, trace = pgd_gauss(prob, fac, 0)
        assert out is fac
        assert trace.rows == []
        assert trace.initial_objective == pytest.approx(objective(prob, fac))

    def test_matched_pair_limit(self):
        X = np.array([[1.0], [1.0]])
        prob = design_problem(X, cmap=F2, norm="nuc")
        fac, trace = pgd_gauss(prob, identity_factor(2), 500)
        assert trace.rows[-1].objective < 1e-3
        assert fac.to_matrix()[0, 1] < -0.999

    def test_three_arm_descent_and_feasibility(self):
        from gaussdesign.simbench import gen_three_arm
        sc = gen_three_arm("single_feature", 0)
        prob = design_problem(sc.X, cmap=weighted_discrete_map(np.full(3, 1 / 3), 3),
                              norm="nuc")
        fac, trace = pgd_gauss(prob, identity_factor(sc.n), 50)
        assert trace.rows[-1].objective < trace.initial_objective
        assert validate(fac.to_matrix()).passed
        objs = np.concatenate([[trace.initial_objective], trace.objectives])
        assert np.all(np.diff(objs) <= 1e-12)

    def test_operator_norm_descends(self):
        prob, _ = _random_problem(8, d=2, K=3, norm="op", n=6)
        fac, trace = pgd_gauss(prob, identity_factor(6), 40)
        assert trace.rows[-1].objective <= trace.initial_objective + 1e-12
        assert validate(fac.to_matrix()).passed

    def test_fixed_step_traced(self):
        prob, _ = _random_problem(9)
        _, trace = pgd_gauss(prob, identity_factor(4), 3, FixedStep(1e-3))
        assert len(trace.rows) == 3
        assert all(r.eta == 1e-3 for r in trace.rows)

    def test_gradient_stop(self):
        X = np.eye(3)  # orthogonal rows: zero gradient at the identity
        prob = design_problem(X, cmap=f_arm(2, 1), norm="nuc")
        _, trace = pgd_gauss(prob, identity_factor(3), 10)
        assert trace.rows == []

    def test_nonfinite_map_fails_in_build_table(self):
        bad = CovarianceMap(lambda a: np.full_like(a, np.nan),
                            lambda a: np.zeros_like(a), "bad")
        prob = DesignProblem(X=np.ones((2, 1)), maps=(bad,), weights=np.ones(1),
                             norm="nuc")
        with pytest.raises(ValueError, match="^bad: table values must be finite"):
            pgd_gauss(prob, identity_factor(2), 1, FixedStep(0.1))

    def test_nonfinite_start_objective_raises_with_trace(self):
        # finite at every table node, NaN at rho = +-1: the identity start's
        # diagonal goes to the direct evaluator
        base = f_arm(2, 1)
        ends = CovarianceMap(lambda a: np.where(np.abs(a) == 1.0, np.nan, base._fn(a)),
                             base._dfn, "nan at +-1")
        prob = DesignProblem(X=np.ones((2, 1)), maps=(ends,), weights=np.ones(1),
                             norm="nuc")
        with pytest.raises(OptimizationError, match="initial design") as info:
            pgd_gauss(prob, identity_factor(2), 1, FixedStep(0.1))
        assert info.value.trace is not None
        assert np.isnan(info.value.trace.initial_objective)

    @pytest.mark.parametrize("norm", ["nuc", "op"])
    def test_untabulated_map_sees_only_table_points_and_the_diagonal(self, norm):
        # From a non-identity start the map's own evaluator gets build_table's
        # nodes and midpoints once each; every other point it gets lies
        # outside the table's grid (the gram's unit diagonal), so no gram is
        # evaluated on the exact path.
        base = f_arm(3, 2)
        seen = []

        def fn(a):
            seen.append(np.array(a, dtype=float).ravel())
            return base._fn(a)

        counted = CovarianceMap(fn, base._dfn, "counted")
        prob, fac = _random_problem(21, norm=norm, n=40)
        prob = DesignProblem(X=prob.X, maps=(counted,), weights=np.ones(1), norm=norm)
        _, trace = pgd_gauss(prob, fac, 2)
        assert trace.rows
        grid = build_table(base).table.grid
        table_points = np.concatenate([grid, 0.5 * (grid[1:] + grid[:-1])])
        pts = np.concatenate(seen)
        inside = (pts >= grid[0]) & (pts <= grid[-1])
        assert np.array_equal(np.sort(pts[inside]), np.sort(table_points))
        assert np.all(pts[~inside] == 1.0)

    def test_trace_csv(self, tmp_path):
        prob, _ = _random_problem(10)
        _, trace = pgd_gauss(prob, identity_factor(4), 5)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iteration,objective,eta,grad_norm,halvings"
        assert len(lines) == 1 + len(trace.rows)

    def test_negative_iterations_rejected(self):
        prob, fac = _random_problem(11)
        with pytest.raises(ValueError):
            pgd_gauss(prob, fac, -1)

    @pytest.mark.parametrize("norm", ["nuc", "op"])
    @pytest.mark.parametrize("policy", [
        FixedStep(-1e-3), Backtracking(eta0=-1e-3),
        FixedStep(np.nan), FixedStep(np.inf), FixedStep(-np.inf),
        Backtracking(eta0=np.nan), Backtracking(eta0=np.inf), Backtracking(eta0=-np.inf)])
    def test_negative_step_size_rejected(self, norm, policy):
        # policies are built at collection time: the step is checked where it is used
        prob, _ = _random_problem(11, norm=norm)
        for init in (identity_factor(prob.n), _random_problem(11, norm=norm)[1]):
            with pytest.raises(ValueError, match="^step size must be finite and nonnegative$"):
                pgd_gauss(prob, init, 3, policy)


class TestBacktrackingPolicy:
    def test_monotone_descent_holds(self):
        prob, _ = _random_problem(12, K=2, n=5)
        _, trace = pgd_gauss(prob, identity_factor(5), 60,
                             Backtracking(eta0=0.5))
        objs = np.concatenate([[trace.initial_objective], trace.objectives])
        assert np.all(np.diff(objs) <= 1e-12)

    def test_halvings_recorded(self):
        prob, _ = _random_problem(13, K=2, n=5)
        _, trace = pgd_gauss(prob, identity_factor(5), 30,
                             Backtracking(eta0=100.0))
        assert any(r.halvings > 0 for r in trace.rows) or len(trace.rows) <= 30


# -- properties ---------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 12), k=st.integers(1, 12),
       eta=st.one_of(st.just(0.0), st.floats(0.0, 1e3, allow_nan=False)),
       scale=st.sampled_from([1e-6, 1.0, 1e4]))
def test_pgd_step_keeps_rows_on_the_unit_sphere(seed, n, k, eta, scale):
    gen = np.random.default_rng(seed)
    fac = factor_from_rows(gen.standard_normal((n, k)) + 1e-3)
    G = scale * gen.standard_normal((n, n))
    G = G + G.T
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # collapsed rows are kept
        out = pgd_step(fac, G, eta)
    assert out.rows.shape == (n, k)
    assert np.max(np.abs(np.linalg.norm(out.rows, axis=1) - 1.0)) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), norm=st.sampled_from(["nuc", "op"]),
       n=st.integers(2, 7), d=st.integers(1, 3), K=st.integers(2, 4),
       eta0=st.sampled_from([1e-3, 0.5, 50.0]))
def test_backtracking_trace_never_rises(seed, norm, n, d, K, eta0):
    prob, _ = _random_problem(seed, d=d, K=K, norm=norm, n=n)
    _, trace = pgd_gauss(prob, identity_factor(n), 8, Backtracking(eta0=eta0))
    objs = np.concatenate([[trace.initial_objective], trace.objectives])
    assert np.all(np.diff(objs) <= 1e-12)


# -- reference loop -----------------------------------------------------------
# The PGD loop as it stood before each factor's gram was shared: every
# objective forms its own gram per map, every gradient forms it again, every
# trial step forms G V again.  From an identity start, the start's terms,
# the first two iterations' trial grams and the rows they accept follow the
# closed forms of optimizer._IdentityStart, written densely.  pgd_gauss must
# match it bit for bit; at n = 40 every closed-form product is one block.

def _ref_gram(rows):
    g = np.clip(rows @ rows.T, -1.0, 1.0)
    np.fill_diagonal(g, 1.0)
    return g


def _ref_terms(problem, factor, gram=None):
    """X^T f(g) X = S + S^T + f(1) X^T X, S = X^T f(g above the diagonal) X:
    at n = 40 the one block of optimizer._terms."""
    g = _ref_gram(factor.rows) if gram is None else gram
    X = problem.X
    out = []
    for m in problem.maps:
        S = X.T @ m.eval(np.triu(g, 1)) @ X
        out.append(S + S.T + m.eval(1.0) * (X.T @ X))
    return out


def _ref_identity_terms(problem):
    """X^T f(I) X = f(1) X^T X: every map vanishes at 0."""
    return [m.eval(1.0) * (problem.X.T @ problem.X) for m in problem.maps]


def _ref_norm_sum(problem, terms):
    total = 0.0
    for w, M in zip(problem.weights, terms):
        if not np.all(np.isfinite(M)):
            return float("nan")
        sv = np.linalg.svd(M, compute_uv=False) if M.size else np.zeros(1)
        total += w * w * (float(np.sum(sv)) if problem.norm == "nuc" else float(sv[0]))
    return total


def _ref_objective(problem, factor, gram=None):
    return _ref_norm_sum(problem, _ref_terms(problem, factor, gram))


def _ref_deriv_offdiag(cmap, g):
    d = cmap.deriv(np.clip(g, -1.0 + 1e-6, 1.0 - 1e-6))
    np.fill_diagonal(d, 0.0)
    return d


def _ref_leading(problem, factor, gram=None, terms=None):
    terms = _ref_terms(problem, factor, gram) if terms is None else terms
    return [problem.X @ np.linalg.eigh(M)[1][:, -1] for M in terms]


def _ref_gradient(problem, factor, gram=None):
    g = np.clip(factor.rows @ factor.rows.T, -1.0, 1.0) if gram is None else gram
    grad = np.zeros_like(g)
    if problem.norm == "nuc":
        A = problem.X @ problem.X.T
        np.fill_diagonal(A, 0.0)
        for w, cmap in zip(problem.weights, problem.maps):
            grad += (w * w) * A * _ref_deriv_offdiag(cmap, g)
        return grad
    for w, cmap, b in zip(problem.weights, problem.maps, _ref_leading(problem, factor, gram)):
        A = np.outer(b, b)
        np.fill_diagonal(A, 0.0)
        grad += (w * w) * A * _ref_deriv_offdiag(cmap, g)
    return grad


def _ref_finish(g, inv):
    g *= inv[:, None]
    g *= inv
    np.clip(g, -1.0, 1.0, out=g)
    lower = np.tril_indices(g.shape[0], -1)
    g[lower] = g.T[lower]
    np.fill_diagonal(g, 1.0)
    return g


def _ref_scales(eta):
    return 1.0 / (1.0 + eta), eta / (1.0 + eta)


def _ref_identity_start(problem):
    """The closed forms of the first two iterations from the identity.

    Iteration 1: G = A - diag(A), A = B S B^T, is not formed; ||G_i||^2
    sums A's squared off-diagonal entries.  The trial of step eta
    normalizes alpha I - beta G (alpha = 1 / (1 + eta), beta = eta /
    (1 + eta)), whose square is E^2 - beta (E A + A E) + beta^2 B S B^T B S
    B^T with E = alpha + beta diag(A), and the accepted rows are
    V = diag(a) + L B^T.  Iteration 2 at the dense gradient G: the trial
    gram is (alpha I - beta G) V V^T (alpha I - beta G) off the diagonal,
    beta^2 H - alpha beta (a_i^2 + a_j^2) G + Q M Q^T with H = (G diag a^2)
    G^T, P = [diag(a) B, L], Q = alpha P - beta G P and
    M = [[0, I], [I, B^T B]]; the accepted rows are stepped from V and
    G V = G diag(a) + (G L) B^T.  Returns a namespace of those steps."""
    slopes = [w * w * float(m.deriv(np.zeros(1))[0]) for w, m in zip(problem.weights, problem.maps)]
    if problem.norm == "nuc":
        B = problem.X
        s = np.full(B.shape[1], sum(slopes))
    else:
        B = np.column_stack(_ref_leading(problem, None, terms=_ref_identity_terms(problem)))
        s = np.array(slopes)
    n, r = B.shape
    BS = B * s
    diag = np.einsum("ij,ij->i", BS, B)
    BSBBS = B @ (BS.T @ BS)
    tiles = BS @ B.T
    tiles[np.tril_indices(n)] = 0.0
    tiles *= tiles
    sq = np.zeros(n)
    sq += tiles.sum(axis=1)
    sq += tiles.sum(axis=0)
    state = SimpleNamespace(gnorm=float(np.sqrt(np.sum(sq))))

    def scales(eta):
        alpha, beta = _ref_scales(eta)
        return (beta, alpha + beta * diag, 1.0 / np.hypot(alpha, beta * np.sqrt(sq)))

    def first_gram(eta):
        beta, E, inv = scales(eta)
        left = np.hstack([beta * beta * BSBBS - (beta * E)[:, None] * BS, -beta * BS])
        right = np.hstack([B, E[:, None] * B])
        return _ref_finish(left @ right.T, inv)

    def accept(eta):
        beta, E, inv = scales(eta)
        state.a, state.L = E * inv, BS * (-beta * inv)[:, None]
        state.V = state.L @ B.T
        state.V[np.diag_indices(n)] += state.a

    def second(G):
        a, L = state.a, state.L
        H = (G * (a * a)) @ G.T
        hd = np.diagonal(H).copy()
        P = np.hstack([a[:, None] * B, L])
        GP = G @ P

        def step_rows(eta):
            alpha, beta = _ref_scales(eta)
            new = (alpha * L - beta * GP[:, r:]) @ B.T
            new -= G * (beta * a)
            new[np.diag_indices(n)] += alpha * a
            return _ref_normalize(new, state.V, alpha)

        def parts(eta):
            alpha, beta = _ref_scales(eta)
            Q = alpha * P - beta * GP
            QM = np.hstack([Q[:, r:], Q[:, :r] + Q[:, r:] @ (B.T @ B)])
            norms_sq = alpha * alpha * a * a + beta * beta * hd + np.einsum("ij,ij->i", QM, Q)
            return alpha, beta, QM, Q, norms_sq

        def gram(eta):
            alpha, beta, QM, Q, norms_sq = parts(eta)
            if np.any(norms_sq <= optimizer._ZERO_ROW ** 2):   # the trial steps its rows
                return _ref_gram(step_rows(eta))
            g = QM @ Q.T
            a2 = (alpha * beta) * a * a
            t = np.add.outer(a2, a2)
            t *= G
            g -= t
            g += np.multiply(H, beta * beta)
            return _ref_finish(g, 1.0 / np.sqrt(norms_sq))

        return gram, step_rows

    state.first_gram, state.accept, state.second = first_gram, accept, second
    return state


def _ref_normalize(new, rows, alpha):
    """new row-normalized, a row below alpha * _ZERO_ROW kept from rows."""
    norms = np.linalg.norm(new, axis=1)
    dead = norms < alpha * optimizer._ZERO_ROW
    new[dead] = rows[dead]
    norms[dead] = 1.0
    return new / norms[:, None]


def _ref_step(factor, GV, eta):
    alpha, beta = _ref_scales(eta)
    return type(factor)(_ref_normalize(alpha * factor.rows - beta * GV, factor.rows, alpha))


def _ref_pgd_gauss(problem, init, iters, step_policy=None):
    assert np.isfinite(_ref_objective(problem, init))
    work = DesignProblem(X=problem.X, maps=tuple(build_table(m) for m in problem.maps),
                         weights=problem.weights, norm=problem.norm)
    if step_policy is None:
        step_policy = Backtracking(eta0=default_eta0(work))
    factor = init
    identity = _is_identity(init.rows)
    obj = (_ref_norm_sum(work, _ref_identity_terms(work)) if identity
           else _ref_objective(work, factor))
    initial, rows = obj, []
    eta_prev = None
    gram = closed = None   # the accepted trial's closed-form gram; the closed forms
    for t in range(1, int(iters) + 1):
        if identity and t == 1:
            closed = _ref_identity_start(work)
            gnorm = closed.gnorm
        else:
            grad = _ref_gradient(work, factor, gram)
            gnorm = float(np.linalg.norm(grad))
        if gnorm < 1e-10:
            break
        if identity and t <= 2:
            closed_gram, accept = ((closed.first_gram, closed.accept) if t == 1
                                   else closed.second(grad))

            def try_eta(eta):
                g = closed_gram(eta)
                return (eta, g), _ref_objective(work, None, g)
        else:
            GV = grad @ factor.rows

            def try_eta(eta):
                cand = _ref_step(factor, GV, eta)
                return (cand, None), _ref_objective(work, cand)

        if isinstance(step_policy, FixedStep):
            accepted = try_eta(step_policy.eta) + (step_policy.eta, 0)
        else:
            base = step_policy.eta0 if eta_prev is None else eta_prev
            accepted = None
            halvings = 0
            grown, grown_obj = try_eta(base * 2.0)
            held, held_obj = try_eta(base)
            if grown_obj <= min(held_obj, obj + 1e-12):
                accepted = (grown, grown_obj, base * 2.0, 0)
            elif held_obj <= obj + 1e-12:
                accepted = (held, held_obj, base, 0)
            else:
                eta = base * 0.5
                while halvings < step_policy.max_halvings:
                    halvings += 1
                    cand, cand_obj = try_eta(eta)
                    if cand_obj <= obj + 1e-12:
                        accepted = (cand, cand_obj, eta, halvings)
                        break
                    eta *= 0.5
            if accepted is None:
                rows.append(TraceRow(t, obj, 0.0, gnorm, halvings))
                break
        (cand, gram), obj, eta_prev, halvings = accepted
        rows.append(TraceRow(t, obj, eta_prev, gnorm, halvings))
        if identity and t == 1:
            accept(eta_prev)
            factor = type(init)(closed.V)
        elif identity and t == 2:
            factor = type(init)(accept(eta_prev))
        else:
            factor = cand
    return factor, initial, rows


def _reference_cases():
    gen = np.random.default_rng(30)
    X = gen.standard_normal((40, 3))
    nuc = design_problem(X, cmap=weighted_discrete_map(np.full(3, 1 / 3), 3), norm="nuc")
    op = DesignProblem(X=X, maps=tuple(f_arm(4, k) for k in range(1, 5)),
                       weights=np.array([1.0, -1.0, 0.5, 0.0]), norm="op")
    start = factor_from_rows(gen.standard_normal((40, 9)))
    return {
        "nuc": (nuc, identity_factor(40), 6, None),
        "nuc, non-identity start": (nuc, start, 6, None),
        "op": (op, identity_factor(40), 5, None),
        "op, non-identity start": (op, start, 5, None),
        # runs that end after the identity's first iteration (its closed-form
        # rows, formed on return) or its second (the rows it stepped)
        "nuc, 1 iteration": (nuc, identity_factor(40), 1, None),
        "nuc, 2 iterations": (nuc, identity_factor(40), 2, None),
        "op, 1 iteration": (op, identity_factor(40), 1, None),
        "op, 2 iterations": (op, identity_factor(40), 2, None),
        "fixed step": (nuc, identity_factor(40), 4, FixedStep(1e-3)),
        "fixed step, non-identity start": (op, start, 4, FixedStep(1e-2)),
        "forced halvings": (nuc, identity_factor(40), 6, Backtracking(eta0=100.0)),
        "no acceptable step": (nuc, identity_factor(40), 3,
                               Backtracking(eta0=100.0, max_halvings=2)),
        "gradient stop": (design_problem(np.eye(3), cmap=f_arm(2, 1), norm="nuc"),
                          identity_factor(3), 10, None),
    }


@pytest.mark.parametrize("case", sorted(_reference_cases()))
def test_pgd_gauss_matches_reference_loop(case):
    prob, init, iters, policy = _reference_cases()[case]
    factor, trace = pgd_gauss(prob, init, iters, policy)
    ref_factor, ref_initial, ref_rows = _ref_pgd_gauss(prob, init, iters, policy)
    assert factor.rows.tobytes() == ref_factor.rows.tobytes()
    assert trace.initial_objective == ref_initial
    assert trace.rows == ref_rows
    if case == "forced halvings":
        assert trace.rows[0].halvings > 0
    if case == "no acceptable step":
        assert trace.rows[-1].eta == 0.0 and trace.rows[-1].halvings == 2
    if case == "gradient stop":
        assert trace.rows == []


@pytest.mark.parametrize("case", ["nuc", "op, non-identity start", "forced halvings"])
def test_each_factor_is_checked_once(case, monkeypatch):
    # Every trial checks its stepped rows once.  The accepted rows are
    # stepped again without a second check and wrapped once on return.  The
    # first two iterations from the identity step no trial's rows: the
    # first keeps its accepted rows in closed form, unchecked (they are
    # formed, and checked by the wrap, only when the run ends there), the
    # second checks its accepted rows once.
    prob, init, iters, policy = _reference_cases()[case]
    made = []

    class Counted(CorrelationFactor):
        def __post_init__(self):
            made.append(self)
            super().__post_init__()

    monkeypatch.setattr(optimizer, "CorrelationFactor", Counted)
    factor, trace = pgd_gauss(prob, init, iters, policy)
    assert len(trace.rows) == iters
    checks = [2 + r.halvings for r in trace.rows]
    if _is_identity(init.rows):
        checks[:2] = [0, 1]
    assert len(made) == sum(checks) + 1
    assert factor is made[-1]
    made.clear()
    factor, trace = pgd_gauss(prob, init, 1, policy)
    assert len(made) == (1 if _is_identity(init.rows) else 3 + trace.rows[0].halvings)
    assert factor is made[-1]


def _reference_eta0(problem):
    """The step size from its own X X^T and |X X^T| temporaries."""
    A = np.abs(problem.X @ problem.X.T)
    np.fill_diagonal(A, 0.0)
    dmax = 0.0
    for w, cmap in zip(problem.weights, problem.maps):
        tab = cmap if cmap.table is not None else build_table(cmap)
        dmax += w * w * float(np.max(np.abs(tab.table.d_values)))
    return 0.1 / (1.0 + float(A.max()) * dmax)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 60), d=st.integers(1, 6),
       norm=st.sampled_from(["nuc", "op"]), scale=st.sampled_from([1e-3, 1.0, 1e3]))
def test_default_eta0_equals_the_abs_gram_formula(seed, n, d, norm, scale):
    prob, _ = _random_problem(seed % 1000, d=d, norm=norm, n=n)
    X = scale * np.random.default_rng(seed).standard_normal((n, d))
    X[0] = -X[1] * 3.0   # the largest |offdiag| is negative
    prob = DesignProblem(X=X, maps=prob.maps, weights=prob.weights, norm=norm)
    assert default_eta0(prob).hex() == _reference_eta0(prob).hex()


@pytest.mark.parametrize("rows,want", [
    (np.eye(5), True),
    (np.eye(0), True),
    (np.eye(4)[:, :3], False),
    (np.diag([1.0, 1.0, 2.0]), False),
    (np.eye(3) + np.eye(3, k=1) * 1e-300, False),
    (np.eye(3)[::-1], False),
])
def test_is_identity(rows, want):
    assert bool(_is_identity(rows)) is want


def _collapsing_case(seed):
    """A rank-1 start of 6 units whose first row with v_i / (G V)_i > 0
    collapses exactly at eta = v_i / (G V)_i; returns (problem, start, eta)."""
    gen = np.random.default_rng(seed)
    prob = design_problem(gen.standard_normal((6, 2)),
                          cmap=build_table(weighted_discrete_map(np.full(3, 1 / 3), 3)))
    start = factor_from_rows(np.where(gen.random((6, 1)) < 0.5, -1.0, 1.0))
    GV = gradient_nuclear(prob, start) @ start.rows
    ratio = start.rows[:, 0] / GV[:, 0]
    return prob, start, float(ratio[ratio > 0][0])


def _collapsed(*rows):
    return [f"pgd_step: rows [{i}] collapsed; keeping previous values" for i in rows]


# the warnings a run gives when every trial keeps its rows: one per trial
# that collapses
@pytest.mark.parametrize("seed,policy,want", [
    (0, lambda eta: FixedStep(eta), _collapsed(1, 1)),
    (0, lambda eta: Backtracking(eta0=eta / 2), _collapsed(1, 1)),  # the grown step, accepted
    (0, lambda eta: Backtracking(eta0=eta), _collapsed(1)),         # the held step, rejected
    (4, lambda eta: Backtracking(eta0=2 * eta), _collapsed(0)),     # a halving, accepted
    (2, lambda eta: Backtracking(eta0=2 * eta), _collapsed(0)),     # a halving, rejected
], ids=["fixed step", "grown", "held", "halving accepted", "halving rejected"])
def test_collapsed_rows_warn_once_per_collapsing_trial(seed, policy, want):
    # The accepted trial's rows are stepped again without a warning, so the
    # warnings are those of the trials, as when every trial kept its rows.
    prob, start, eta = _collapsing_case(seed)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        factor, trace = pgd_gauss(prob, start, 2, policy(eta))
    assert [str(w.message) for w in caught] == want
    ref_factor, _, ref_rows = _ref_pgd_gauss(prob, start, 2, policy(eta))
    assert factor.rows.tobytes() == ref_factor.rows.tobytes()
    assert trace.rows == ref_rows


# -- first two iterations from the identity ----------------------------------
# The trial grams of the first two iterations from the identity come from
# closed forms (optimizer._IdentityStart), not from stepped rows.

def _first_step_problems(n, seed):
    """Covariates with one near-zero row, under the three objectives."""
    X = 30.0 * np.random.default_rng(seed).standard_normal((n, 3))
    X[0] *= 1e-3
    pair = continuous_cov_maps(lambda t: 1.0 + 0.5 * np.asarray(t), WeightFn.first_derivative())
    return {"nuc": discrete_problem(X, np.full(3, 1 / 3), "nuc"),
            "op": DesignProblem(X=X, maps=tuple(f_arm(4, k) for k in range(1, 5)),
                                weights=np.array([1.0, -1.0, 0.5, 0.0]), norm="op"),
            "continuous": DesignProblem(X=X, maps=(pair.map_y0w, pair.map_w),
                                        weights=np.ones(2), norm="nuc")}


_FIRST_ETAS = (1e-4, 1e-2, 0.3, 1.0, 7.0, 50.0, 200.0)


def _leading_of(work, terms):
    return optimizer._leading(work, terms)[0] if work.norm == "op" else None


def _identity_start(work):
    """(the closed forms, iteration 1's gradient, dense) at the identity."""
    fill = optimizer._held(np.eye(work.n))
    leading = _leading_of(work, optimizer._terms(work, fill))
    return optimizer._IdentityStart(work, leading), optimizer._gradient(work, fill, leading)


def _next_gradient(work, fill):
    """The gradient at the gram whose block function is ``fill``."""
    return optimizer._gradient(work, fill, _leading_of(work, optimizer._terms(work, fill)))


def _formed(n, fill):
    """The n x n gram whose block function is ``fill``, written whole: each
    block of the upper triangle through fill(b, g[b]), mirrored by
    covmap._map_symmetric."""
    g = np.empty((n, n))

    def block(b):
        g[b] = fill(b, g[b])

    return covmap._map_symmetric(block, g)


@pytest.mark.parametrize("n", [2, 3, 40, 129, 700])
@pytest.mark.parametrize("objective_name", ["nuc", "op", "continuous"])
def test_first_step_grams_match_the_stepped_rows(n, objective_name):
    # Measured on these inputs, seeds 0 and 3: at most 2.8e-15 for n >= 3,
    # and 1.1e-11 at n = 2 (continuous pair, eta = 200), where the
    # off-diagonal of G^2 vanishes, so the beta^2 terms cancel exactly and
    # their rounding is all that is left; it is largest next to the
    # near-zero row.
    bound = 5e-11 if n == 2 else 1e-14
    for seed in (0, 3):
        work = optimizer._tabulated(_first_step_problems(n, seed)[objective_name])
        closed, grad = _identity_start(work)
        assert closed.gnorm == pytest.approx(np.linalg.norm(grad), rel=1e-14)
        for eta in _FIRST_ETAS:
            gram = _formed(n, closed.trial(eta))
            stepped = _gram(optimizer._step_rows(np.eye(n), grad, eta)[0])
            assert np.array_equal(gram, gram.T) and np.all(np.diag(gram) == 1.0)
            assert np.max(np.abs(gram - stepped)) <= bound, (seed, eta)


@pytest.mark.parametrize("n", [2, 3, 40, 129, 700])
@pytest.mark.parametrize("objective_name", ["nuc", "op", "continuous"])
def test_second_step_grams_match_the_stepped_rows(n, objective_name):
    # Iteration 2's closed form against _gram(_step_rows(V, G V, eta)) with
    # V the accepted rows of iteration 1 (steps eta1: default_eta0, 1e-2
    # and 1).  Measured on these inputs, seeds 0 and 3: at most 1.2e-14 for
    # n >= 3 but 1.1e-13 at n = 129 (continuous pair, seed 3, eta1 =
    # default_eta0, eta = 7), and 5.5e-11 at n = 2 (continuous pair, eta1 =
    # 1, eta = 7).  The stepped rows' gram is the more accurate of the two
    # there (1.2e-15 from a long-double reference at n = 129): the closed
    # form adds H, G and Q M Q^T terms that cancel to the smaller gram entry.
    bound = 2e-10 if n == 2 else 5e-13
    for seed in (0, 3):
        work = optimizer._tabulated(_first_step_problems(n, seed)[objective_name])
        for eta1 in (default_eta0(work), 1e-2, 1.0):
            closed = _identity_start(work)[0]
            grad = _next_gradient(work, closed.trial(eta1))
            accepted = closed.accept(eta1)
            V = accepted.rows()
            GV = grad @ V
            trials = accepted.trials(grad)
            for eta in _FIRST_ETAS:
                gram = _formed(n, trials.trial(eta))
                stepped = _gram(optimizer._step_rows(V, GV, eta)[0])
                assert np.array_equal(gram, gram.T) and np.all(np.diag(gram) == 1.0)
                assert np.max(np.abs(gram - stepped)) <= bound, (seed, eta1, eta)


@pytest.mark.parametrize("objective_name", ["nuc", "op", "continuous"])
def test_first_iteration_from_the_identity_forms_no_gram(objective_name, monkeypatch):
    # the trials of the first iteration used to form 2 + halvings grams; now
    # neither of the first two iterations forms one, and the third does
    calls = []

    def counted(rows):
        calls.append(rows.shape)
        return _gram(rows)

    monkeypatch.setattr(optimizer, "_gram", counted)
    prob = _first_step_problems(40, 0)[objective_name]
    _, trace = pgd_gauss(prob, identity_factor(40), 1)
    assert len(trace.rows) == 1 and calls == []
    _, trace = pgd_gauss(prob, identity_factor(40), 3)
    assert len(calls) == 2 + trace.rows[2].halvings


@pytest.mark.parametrize("objective_name", ["nuc", "op", "continuous"])
def test_two_iterations_from_the_identity_form_one_cubic_product(objective_name, monkeypatch):
    # Every n x n x n product of pgd_gauss is a gram of rows (_gram, or
    # covmap._syrk under it), the stepped path's G V = grad @ rows or H
    # (_upper_strips).  A two-iteration run from the identity forms one, H,
    # and no map sees the identity's points: every map call of more than one
    # point is on a trial gram or iteration 2's gradient, strictly inside
    # (-1, 1) off the diagonal.
    n = 300
    products = []

    def counted(name, fn):
        def call(*args):
            products.append((name, args[0].shape))
            return fn(*args)
        return call

    monkeypatch.setattr(covmap, "_syrk", counted("syrk", covmap._syrk))
    monkeypatch.setattr(optimizer, "_upper_strips", counted("H", optimizer._upper_strips))
    monkeypatch.setattr(optimizer, "_gram", lambda rows: pytest.fail("a gram of rows"))
    monkeypatch.setattr(optimizer._Dense, "trials", lambda *a: pytest.fail("G V formed"))
    on_identity = []
    for method in ("eval", "deriv"):
        def spy(self, rho, out=None, _original=getattr(CovarianceMap, method)):
            pts = np.asarray(rho, dtype=float)
            if pts.size > 1 and np.all((pts == 0.0) | (np.abs(pts) >= 1.0 - 1e-6)):
                on_identity.append(pts.shape)
            return _original(self, rho, out)
        monkeypatch.setattr(CovarianceMap, method, spy)
    prob = _first_step_problems(n, 2)[objective_name]
    _, trace = pgd_gauss(prob, identity_factor(n), 2)
    assert len(trace.rows) == 2
    assert products == [("H", (n, n))]
    assert on_identity == []


@pytest.mark.parametrize("norm", ["nuc", "op"])
def test_second_iteration_steps_the_rows_of_a_vanishing_trial(norm, monkeypatch):
    # No natural input brings a squared row norm of iteration 2's trial down
    # to _ZERO_ROW^2, so the threshold is raised to the median row norm over
    # alpha = 1 / (1 + eta): the trial steps its rows, and those below the
    # median (alpha * _ZERO_ROW) collapse and keep their previous value,
    # with one warning, as _step_rows has it.
    prob = _reference_cases()[norm][0]
    eta = 1e-3
    work = optimizer._tabulated(prob)
    closed = optimizer._IdentityStart(work, _leading_of(work, _diagonal_forms(work.maps, work.X)))
    accepted = closed.accept(eta)
    trials = accepted.trials(_next_gradient(work, closed.trial(eta)))
    monkeypatch.setattr(optimizer, "_ZERO_ROW",
                        float(np.sqrt(np.median(trials._parts(eta)[-1]))) * (1 + eta))
    V = accepted.rows()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        factor, trace = pgd_gauss(prob, identity_factor(prob.n), 2, FixedStep(eta))
    kept = [i for i in range(prob.n) if np.array_equal(factor.rows[i], V[i])]
    assert 0 < len(kept) < prob.n
    assert [str(w.message) for w in caught] == [
        f"pgd_step: rows {kept} collapsed; keeping previous values"]
    ref_factor, _, ref_rows = _ref_pgd_gauss(prob, identity_factor(prob.n), 2, FixedStep(eta))
    assert factor.rows.tobytes() == ref_factor.rows.tobytes()
    assert trace.rows == ref_rows


@pytest.mark.parametrize("objective_name", ["nuc", "op", "continuous"])
def test_identity_start_is_the_same_on_one_and_two_workers(objective_name, monkeypatch):
    # n = 300: the trial grams span three row blocks, and the rows accepted
    # in iteration 2 (stepped from the closed forms) three row blocks of
    # panels; iteration 3 steps those rows
    prob = _first_step_problems(300, 1)[objective_name]
    runs = []
    for cpus in (1, 2):
        monkeypatch.setattr(blocks, "_cpu_count", lambda: cpus)
        factor, trace = pgd_gauss(prob, identity_factor(300), 3)
        runs.append((factor.rows.tobytes(), trace.initial_objective, trace.rows))
    assert len(runs[0][2]) == 3
    assert runs[0] == runs[1]


def _first_gram_in_place(closed, eta):
    """Iteration 1's trial gram as the closed forms wrote it in place before
    their trials were streamed."""
    beta, E, inv = closed._parts(eta)
    left = np.hstack([beta * beta * closed.BSBBS - (beta * E)[:, None] * closed.BS,
                      -beta * closed.BS])
    right = np.hstack([closed.B, E[:, None] * closed.B])

    def block(b, gb):
        rows, cols = b
        return optimizer._finish(covmap._panel_product(left[rows], right[cols], gb), b, inv)

    return _formed(closed.B.shape[0], block)


def _second_gram_in_place(trials, eta):
    """Iteration 2's, likewise."""
    alpha, beta, QM, Q, sq = trials._parts(eta)
    inv = 1.0 / np.sqrt(sq)
    a2 = (alpha * beta) * trials.a * trials.a

    def block(b, gb):
        rows, cols = b
        covmap._panel_product(QM[rows], Q[cols], gb)
        t = np.add.outer(a2[rows], a2[cols])
        t *= trials.G[b]
        gb -= t
        gb += np.multiply(trials.H[b], beta * beta, out=t)
        return optimizer._finish(gb, b, inv)

    return _formed(trials.G.shape[0], block)


@pytest.mark.parametrize("n", [300, 1001])
@pytest.mark.parametrize("objective_name", ["nuc", "op", "continuous"])
def test_closed_form_trials_stream_the_blocks_of_their_grams(n, objective_name):
    # Each closed-form trial's block function writes its blocks to the
    # block temporary it is given, and its partials are bit for bit those
    # of its formed gram's views (optimizer._held), and so are its terms and
    # its gradient, and that gram is the one the closed forms wrote in place
    # (iteration 2's from the same H).
    work = optimizer._tabulated(_first_step_problems(n, 1)[objective_name])
    closed = _identity_start(work)[0]
    eta1 = default_eta0(work)
    second = closed.accept(eta1).trials(_next_gradient(work, closed.trial(eta1)))
    diag = _diagonal_forms(work.maps, work.X)
    first = (slice(0, min(n, blocks.ROW_BLOCK)), slice(0, min(n, blocks.COL_TILE)))

    def partials(fill):
        return covmap._formed_blocks(n, fill, lambda b, gb: (b, gb.tobytes()))

    def terms(fill):
        return [M.tobytes() for M in optimizer._terms(work, fill, diag)]

    for trials, in_place in ((closed, _first_gram_in_place), (second, _second_gram_in_place)):
        for eta in (1e-2, 1.0, 50.0):
            fill = trials.trial(eta)
            out = np.empty((first[0].stop, first[1].stop))
            assert fill(first, out) is out
            g = _formed(n, fill)
            assert g.tobytes() == in_place(trials, eta).tobytes()
            held = optimizer._held(g)
            assert partials(fill) == partials(held)
            assert terms(fill) == terms(held)
            leading = _leading_of(work, optimizer._terms(work, fill, diag))
            assert (optimizer._gradient(work, fill, leading).tobytes()
                    == optimizer._gradient(work, held, leading).tobytes())


# -- memory -------------------------------------------------------------------
# At full rank a general iteration holds at most four n x n arrays (V, G V
# and two trial grams) plus block temporaries; the first two iterations from
# the identity hold at most two (G, then G and H), as their trial grams are
# streamed.  While every trial kept its rows and A = X X^T lived through the
# run, these peaks were 8.46 (nuc) and 7.45 (op) arrays with the start held
# by the caller, and 9.45 and 8.47 with the start allocated in the traced
# window and held by pgd_gauss.

_MEM_N = 1000


def _tabulated_problem(norm, n=_MEM_N):
    X = np.random.default_rng(40).standard_normal((n, 5))
    prob = discrete_problem(X, np.full(3, 1 / 3), norm)
    return DesignProblem(X=prob.X, maps=tuple(build_table(m) for m in prob.maps),
                         weights=prob.weights, norm=norm)


def _peak_squares(run, n=_MEM_N):
    """Peak traced allocation of run(), in n x n arrays of doubles."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak / (8 * n ** 2)


@pytest.mark.parametrize("norm", ["nuc", "op"])
def test_pgd_holds_fewer_than_six_square_arrays(norm):
    prob = _tabulated_problem(norm)
    init = identity_factor(_MEM_N)
    assert _peak_squares(lambda: pgd_gauss(prob, init, 2)) < 6.0


@pytest.mark.parametrize("norm", ["nuc", "op"])
def test_a_start_the_caller_does_not_hold_is_freed(norm):
    # allocated in the traced window and passed without a name, the start
    # is freed once the first iteration has stepped off it
    prob = _tabulated_problem(norm)
    assert _peak_squares(lambda: pgd_gauss(prob, identity_factor(_MEM_N), 2)) < 6.0


@pytest.mark.parametrize("norm", ["nuc", "op"])
def test_the_identity_start_holds_no_trial_gram(norm, monkeypatch):
    # The first two iterations from the identity stream their trial grams:
    # their peak is two arrays (G, then G and H) plus block temporaries,
    # 2.74 (nuc) and 2.71 (op) arrays at n = 1001 on two workers, and 2.77
    # and 2.74 while the accepted first gram was written whole for the next
    # gradient.  It was 4.46 (nuc) and 4.69 (op) with the trial grams held
    # whole and H formed from a copy G diag(a), and 3.33 and 3.29 with H
    # kept while the accepted rows are stepped.  A third iteration is a
    # general one, whose peak (V, G V, two trial grams and block
    # temporaries) was and is 5.00.  Each worker holds its own block
    # temporaries (0.15-0.25 arrays more at 4 workers than at 2 here), so the
    # worker count is fixed.
    monkeypatch.setattr(blocks, "_cpu_count", lambda: 2)
    n = 1001
    prob = _tabulated_problem(norm, n)
    init = identity_factor(n)
    assert _peak_squares(lambda: pgd_gauss(prob, init, 2), n) <= 3.0
    assert _peak_squares(lambda: pgd_gauss(prob, init, 3), n) <= 5.1

