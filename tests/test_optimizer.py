import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussdesign.covmap import (CovarianceMap, _is_identity, build_table, f_arm,
                                weighted_discrete_map)
from gaussdesign.elliptope import factor_from_rows, identity_factor, validate
from gaussdesign.optimizer import (Backtracking, DesignProblem, FixedStep,
                                   OptimizationError, TraceRow, default_eta0,
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

    def test_nonfinite_objective_raises_with_trace(self):
        bad = CovarianceMap(lambda a: np.full_like(a, np.nan),
                            lambda a: np.zeros_like(a), "bad")
        prob = DesignProblem(X=np.ones((2, 1)), maps=(bad,), weights=np.ones(1),
                             norm="nuc")
        with pytest.raises(OptimizationError) as info:
            pgd_gauss(prob, identity_factor(2), 1, FixedStep(0.1))
        assert info.value.trace is not None

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
    @pytest.mark.parametrize("policy", [FixedStep(-1e-3), Backtracking(eta0=-1e-3)])
    def test_negative_step_size_rejected(self, norm, policy):
        prob, _ = _random_problem(11, norm=norm)
        for init in (identity_factor(prob.n), _random_problem(11, norm=norm)[1]):
            with pytest.raises(ValueError, match="nonnegative"):
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


def test_cap_rank_projects_and_renormalizes():
    from gaussdesign.optimizer import cap_rank
    gen = np.random.default_rng(20)
    fac = factor_from_rows(gen.standard_normal((6, 6)))
    capped = cap_rank(fac, 2)
    assert capped.k == 2
    assert np.allclose(np.linalg.norm(capped.rows, axis=1), 1.0)
    # low-rank factors survive unchanged up to the basis rotation
    low = factor_from_rows(gen.standard_normal((5, 2)))
    same = cap_rank(low, 4)
    assert same is low
    rotated = cap_rank(low, 2)
    assert np.allclose(rotated.to_matrix(), low.to_matrix(), atol=1e-12)


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
# trial step forms G V again.  pgd_gauss must match it bit for bit.

def _ref_terms(problem, factor):
    out = []
    for m in problem.maps:
        g = np.clip(factor.rows @ factor.rows.T, -1.0, 1.0)
        np.fill_diagonal(g, 1.0)
        out.append(problem.X.T @ m.eval(g) @ problem.X)
    return out


def _ref_objective(problem, factor):
    total = 0.0
    for w, M in zip(problem.weights, _ref_terms(problem, factor)):
        if not np.all(np.isfinite(M)):
            return float("nan")
        sv = np.linalg.svd(M, compute_uv=False) if M.size else np.zeros(1)
        total += w * w * (float(np.sum(sv)) if problem.norm == "nuc" else float(sv[0]))
    return total


def _ref_deriv_offdiag(cmap, g):
    d = cmap.deriv(np.clip(g, -1.0 + 1e-6, 1.0 - 1e-6))
    np.fill_diagonal(d, 0.0)
    return d


def _ref_gradient(problem, factor):
    g = np.clip(factor.rows @ factor.rows.T, -1.0, 1.0)
    grad = np.zeros_like(g)
    if problem.norm == "nuc":
        A = problem.X @ problem.X.T
        np.fill_diagonal(A, 0.0)
        for w, cmap in zip(problem.weights, problem.maps):
            grad += (w * w) * A * _ref_deriv_offdiag(cmap, g)
        return grad
    for w, cmap, M in zip(problem.weights, problem.maps, _ref_terms(problem, factor)):
        u1 = np.linalg.eigh(M)[1][:, -1]
        b = problem.X @ u1
        A = np.outer(b, b)
        np.fill_diagonal(A, 0.0)
        grad += (w * w) * A * _ref_deriv_offdiag(cmap, g)
    return grad


def _ref_step(factor, grad, eta):
    rows = factor.rows - eta * (grad @ factor.rows)
    norms = np.linalg.norm(rows, axis=1)
    dead = norms < 1e-14
    rows[dead] = factor.rows[dead]
    norms[dead] = 1.0
    return type(factor)(rows / norms[:, None])


def _ref_pgd_gauss(problem, init, iters, step_policy=None):
    assert np.isfinite(_ref_objective(problem, init))
    work = DesignProblem(X=problem.X, maps=tuple(build_table(m) for m in problem.maps),
                         weights=problem.weights, norm=problem.norm)
    if step_policy is None:
        step_policy = Backtracking(eta0=default_eta0(work))
    factor = init
    obj = _ref_objective(work, factor)
    initial, rows = obj, []
    eta_prev = None
    for t in range(1, int(iters) + 1):
        grad = _ref_gradient(work, factor)
        gnorm = float(np.linalg.norm(grad))
        if gnorm < 1e-10:
            break
        if isinstance(step_policy, FixedStep):
            factor = _ref_step(factor, grad, step_policy.eta)
            obj = _ref_objective(work, factor)
            rows.append(TraceRow(t, obj, step_policy.eta, gnorm, 0))
            continue

        def try_eta(eta):
            cand = _ref_step(factor, grad, eta)
            return cand, _ref_objective(work, cand)

        base = step_policy.eta0 if eta_prev is None else eta_prev
        accepted = None
        halvings = 0
        grown, grown_obj = try_eta(base * step_policy.grow)
        held, held_obj = try_eta(base)
        if grown_obj <= min(held_obj, obj + 1e-12):
            accepted = (grown, grown_obj, base * step_policy.grow, 0)
        elif held_obj <= obj + 1e-12:
            accepted = (held, held_obj, base, 0)
        else:
            eta = base * step_policy.shrink
            while halvings < step_policy.max_halvings:
                halvings += 1
                cand, cand_obj = try_eta(eta)
                if cand_obj <= obj + 1e-12:
                    accepted = (cand, cand_obj, eta, halvings)
                    break
                eta *= step_policy.shrink
        if accepted is None:
            rows.append(TraceRow(t, obj, 0.0, gnorm, halvings))
            break
        factor, obj, eta_prev, halvings = accepted
        rows.append(TraceRow(t, obj, eta_prev, gnorm, halvings))
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
