"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the pass/fail lines.
Every tolerance is fixed here; Monte Carlo checks state their error bars in
standard-error units of the same run.
"""

import numpy as np
from scipy.stats import spearmanr

import gaussdesign.rng as grng
from gaussdesign.covmap import (apply_map, discretize, f_arm, f_cross,
                                quantile_thresholds, weighted_discrete_map)
from gaussdesign.elliptope import block_factor, identity_factor
from gaussdesign.estimators import (ExperimentRecords, WeightFn, ht_continuous,
                                    true_estimand)
from gaussdesign.inference import randomization_ci_discrete, true_variance
from gaussdesign.optimizer import (DesignProblem, FixedStep, design_problem,
                                   gradient_nuclear, gradient_operator,
                                   objective, pgd_gauss)
from gaussdesign.simbench import (GaussianDesign, gen_factorial, gen_three_arm,
                                  mc_estimates, mc_mse, run_scenario)


def report(num, ok, desc, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {status} - {desc}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {desc} {detail}"


RHO_GRID = (-0.99, -0.5, 0.0, 0.5, 0.99)


def test_criterion_01_endpoint_identities():
    worst0 = worst1 = 0.0
    for K in range(2, 7):
        for k in range(1, K + 1):
            m = f_arm(K, k)
            worst0 = max(worst0, abs(m.eval(0.0)))
            worst1 = max(worst1, abs(m.eval(1.0) - (K - 1) / K**2))
    report(1, worst0 < 1e-10 and worst1 < 1e-8,
           "f_k(0) = 0 and f_k(1) = (K-1)/K^2 for K = 2..6",
           f"max|f(0)| = {worst0:.2e}, max dev at 1 = {worst1:.2e}")


def test_criterion_02_binary_closed_form():
    m = f_arm(2, 1)
    worst = max(abs(m.eval(r) - np.arcsin(r) / (2 * np.pi)) for r in RHO_GRID)
    report(2, worst < 1e-8, "K = 2 arm map equals arcsin(rho)/(2 pi)",
           f"max dev = {worst:.2e}")


def test_criterion_03_monte_carlo_map_equivalence():
    n_pairs = 1_000_000
    z = grng.normals(30, np.arange(n_pairs // 500), 1000).reshape(-1, 2)
    cells = 0
    worst = 0.0
    ok = True
    for rho in RHO_GRID:
        x = z[:, 0]
        y = rho * x + np.sqrt(1.0 - rho * rho) * z[:, 1]
        for K in range(2, 6):
            q = quantile_thresholds(K)
            ax, ay = discretize(x, q), discretize(y, q)
            for k in range(1, K + 1):
                ik = ax == k
                pk = ik.mean()
                for l in range(1, K + 1):
                    il = ay == l
                    pl = il.mean()
                    emp = np.mean(ik & il) - pk * pl
                    se = np.std((ik - pk) * (il - pl)) / np.sqrt(n_pairs)
                    dev = abs(emp - f_cross(K, k, l).eval(rho))
                    cells += 1
                    worst = max(worst, dev / se)
                    ok &= dev < 4.0 * se
    report(3, ok, "empirical indicator covariances match f_arm/f_cross",
           f"{cells} cells, worst deviation = {worst:.2f} SE")


def _projected_gradient(prob, fac, grad_matrix):
    g = 2.0 * grad_matrix @ fac.rows
    return g - np.sum(g * fac.rows, axis=1, keepdims=True) * fac.rows


def _fd_v_space(prob, fac, h=1e-6):
    from gaussdesign.elliptope import factor_from_rows
    V = fac.rows
    fd = np.zeros_like(V)
    for a in range(V.shape[0]):
        for b in range(V.shape[1]):
            vp, vm = V.copy(), V.copy()
            vp[a, b] += h
            vm[a, b] -= h
            fd[a, b] = (objective(prob, factor_from_rows(vp))
                        - objective(prob, factor_from_rows(vm))) / (2 * h)
    return fd


def test_criterion_04_gradient_correctness():
    from gaussdesign.elliptope import factor_from_rows
    gen = np.random.default_rng(40)
    checked = 0
    worst = 0.0
    ok = True
    while checked < 20:
        d = int(gen.integers(1, 3))
        K = int(gen.integers(2, 4))
        X = gen.standard_normal((4, d))
        fac = factor_from_rows(gen.standard_normal((4, 4)))
        w = np.full(K, 1.0 / K)
        nuc = design_problem(X, cmap=weighted_discrete_map(w, K), norm="nuc")
        op = DesignProblem(X=X, maps=tuple(f_arm(K, k) for k in range(1, K + 1)),
                           weights=w, norm="op")
        og = gradient_operator(op, fac)
        if og.is_subgradient:
            continue
        for prob, gmat in ((nuc, gradient_nuclear(nuc, fac)), (op, og.matrix)):
            analytic = _projected_gradient(prob, fac, gmat)
            fd = _fd_v_space(prob, fac)
            rel = np.linalg.norm(fd - analytic) / max(np.linalg.norm(analytic), 1e-12)
            worst = max(worst, rel)
            ok &= rel < 1e-4
        checked += 1
    report(4, ok, "nuclear/operator gradients match finite differences",
           f"20 problems, worst relative error = {worst:.2e}")


def test_criterion_05_one_step_closed_form():
    gen = np.random.default_rng(50)
    X = gen.standard_normal((6, 2))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    cmap = f_arm(3, 1)
    prob = design_problem(X, cmap=cmap, norm="nuc")
    eta = 0.05
    fac, _ = pgd_gauss(prob, identity_factor(6), 1, FixedStep(eta))
    V1 = np.eye(6) - eta * cmap.deriv(0.0) * (X @ X.T - np.eye(6))
    dn = np.linalg.norm(V1, axis=1)
    closed = (V1 @ V1.T) / np.outer(dn, dn)
    dev = np.max(np.abs(fac.to_matrix() - closed))
    report(5, dev < 1e-12, "one PGD step from identity matches the closed form",
           f"max entry dev = {dev:.2e}")


def test_criterion_06_matched_pair_limit():
    X = np.array([[1.0], [1.0]])
    cmap = weighted_discrete_map(np.array([1.0, 1.0]), 2)
    prob = design_problem(X, cmap=cmap, norm="nuc")
    _, trace = pgd_gauss(prob, identity_factor(2), 500)
    final = trace.rows[-1].objective
    report(6, final < 1e-3, "matched-pair objective reaches the analytic minimum 0",
           f"objective after 500 iterations = {final:.2e}")


def test_criterion_07_three_arm_descent_and_mse_reduction():
    sc = gen_three_arm("single_feature", 0)
    w = np.full(3, 1.0 / 3.0)
    prob = design_problem(sc.X, cmap=weighted_discrete_map(w, 3), norm="nuc")
    fac, trace = pgd_gauss(prob, identity_factor(sc.n), 200)
    descended = trace.rows[-1].objective < trace.initial_objective
    estimand = sc.estimands[0]  # equal-weight contrast
    B = 20_000
    mse_id = mc_mse(sc, GaussianDesign(identity_factor(sc.n), "bg"), estimand, B, 70)
    mse_og = mc_mse(sc, GaussianDesign(fac, "og"), estimand, B, 70)
    reduction = 1.0 - mse_og / mse_id
    report(7, descended and mse_og < mse_id and reduction >= 0.40,
           "200-iteration optimization descends and cuts the estimator MSE",
           f"objective {trace.initial_objective:.3f} -> {trace.rows[-1].objective:.3f}, "
           f"MSE {mse_id:.4f} -> {mse_og:.4f}, reduction = {100 * reduction:.1f}%")


def test_criterion_08_unbiasedness_suite():
    B = 100_000
    ok = True
    details = []
    sc = gen_three_arm("single_feature", 1)
    w = np.full(3, 1.0 / 3.0)
    prob = design_problem(sc.X, cmap=weighted_discrete_map(w, 3), norm="nuc")
    optimized, _ = pgd_gauss(prob, identity_factor(sc.n), 50)
    designs = [GaussianDesign(identity_factor(sc.n), "bg"),
               GaussianDesign(optimized, "og")]
    for design in designs:
        for estimand in sc.estimands:
            est = mc_estimates(sc, design, estimand, B, 80)
            truth = true_estimand(sc.potential_outcomes, estimand)
            dev = abs(est.mean() - truth) * np.sqrt(B) / est.std()
            details.append(f"{design.name}/{estimand.label}: {dev:.2f} SE")
            ok &= dev < 4.0
    from gaussdesign.simbench import gen_continuous
    scc = gen_continuous("linear_slope", 20, 2)
    design = GaussianDesign(identity_factor(20), "bg")
    est = mc_estimates(scc, design, scc.estimands[0], B, 81)
    truth = true_estimand(scc.responses, scc.estimands[0])
    dev = abs(est.mean() - truth) * np.sqrt(B) / est.std()
    details.append(f"continuous/tau_L: {dev:.2f} SE")
    ok &= dev < 4.0
    report(8, ok, "HT arm/contrast/continuous estimators unbiased",
           "; ".join(details[:3]) + f"; ...; worst of {len(details)}")


def _variance_replicates(table, factor, K, k, B, seed):
    """Vectorized Eq.-style variance estimates and HT estimates per draw."""
    n = table.shape[0]
    t = grng.normals(seed, np.arange(B), factor.k) @ factor.rows.T
    arms = discretize(t, quantile_thresholds(K))
    y = table[np.arange(n)[None, :], arms - 1]
    F = apply_map(f_arm(K, k), factor)
    M = F / (F + 1.0 / K**2)
    yk = np.where(arms == k, y, 0.0)
    vhat = K**2 / n * np.einsum("bi,ij,bj->b", yk, M, yk)
    est = K / n * yk.sum(axis=1)
    return vhat, est


def test_criterion_09_variance_estimator():
    gen = np.random.default_rng(90)
    n, K, B = 6, 3, 100_000
    table = gen.uniform(0.5, 2.0, (n, K))
    factor = block_factor([0, 0, 0, 1, 1, 1], -0.3)
    truth = true_variance(table, factor, 1, K)
    vhat, est = _variance_replicates(table, factor, K, 1, B, 91)
    tau = table[:, 0].mean()
    se_v = vhat.std() / np.sqrt(B)
    dev_v = abs(vhat.mean() - truth) / se_v
    sq = n * (est - tau) ** 2
    se_m = sq.std() / np.sqrt(B)
    dev_m = abs(sq.mean() - truth) / se_m
    report(9, dev_v < 4.0 and dev_m < 4.0,
           "E[V_hat] and n x MSE both match (K^2/n) Y'f_k(Sigma)Y",
           f"V(Sigma) = {truth:.4f}, estimator dev = {dev_v:.2f} SE, "
           f"MSE dev = {dev_m:.2f} SE")


def test_criterion_10_conservative_bound():
    gen = np.random.default_rng(100)
    n, K, B = 6, 3, 100_000
    table = gen.uniform(0.5, 1.5, (n, K))
    factor = block_factor([0, 0, 0, 1, 1, 1], -0.3)
    w = np.array([1.0, -1.0, 0.0])
    t = grng.normals(101, np.arange(B), factor.k) @ factor.rows.T
    arms = discretize(t, quantile_thresholds(K))
    y = table[np.arange(n)[None, :], arms - 1]
    sigma = factor.to_matrix()
    # cross-covariance tensor C[k-1, l-1, i, j] = f_{k,l}(Sigma_ij)
    C = np.empty((K, K, n, n))
    for k in range(1, K + 1):
        for l in range(1, K + 1):
            C[k - 1, l - 1] = f_cross(K, k, l).eval(np.clip(sigma, -1, 1))
    joint = C + 1.0 / K**2
    a1 = arms[:, :, None] - 1
    a2 = arms[:, None, :] - 1
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    Cb = C[a1, a2, ii[None], jj[None]]
    Jb = joint[a1, a2, ii[None], jj[None]]
    wk = w[arms - 1]
    yy = y[:, :, None] * y[:, None, :]
    ww = wk[:, :, None] * wk[:, None, :]
    off = ~np.eye(n, dtype=bool)
    t2 = K**2 / n * np.sum(ww * yy * Cb / Jb * off[None], axis=(1, 2))
    var_ind = (K - 1.0) / K**2
    t1 = K**2 / n * np.sum(wk**2 * y**2 * var_ind * K, axis=1)
    absw = np.abs(w)
    s_abs = absw.sum()
    t3 = (K / n) * np.sum(y**2 * absw[arms - 1] * (s_abs - absw[arms - 1]), axis=1)
    vb = t1 + t2 + t3
    est = np.sum(np.where(arms == 1, y, 0.0) - np.where(arms == 2, y, 0.0), axis=1) * K / n
    nvar = n * est.var()
    se = vb.std() / np.sqrt(B)
    ok = vb.mean() >= nvar - 4.0 * se
    report(10, ok, "Aronow-Samii bound estimator is conservative on average",
           f"mean bound = {vb.mean():.4f} >= n Var = {nvar:.4f} - 4 SE ({se:.4f})")


def test_criterion_11_randomization_coverage():
    sc = gen_factorial(0)
    w_eq = np.full(4, 0.25)
    prob = design_problem(sc.X, cmap=weighted_discrete_map(w_eq, 4), norm="nuc")
    factor, _ = pgd_gauss(prob, identity_factor(sc.n), 200)
    estimand = next(e for e in sc.estimands if e.label == "tau_1")
    truth = true_estimand(sc.potential_outcomes, estimand)
    outer, inner = 1000, 500
    hits = 0
    for b in range(outer):
        t = (grng.normals(110, [b], factor.k) @ factor.rows.T)[0]
        arms = discretize(t, quantile_thresholds(4))
        if np.unique(arms).size < 4:
            continue  # Procedure needs one observation per arm
        y = sc.potential_outcomes[np.arange(sc.n), arms - 1]
        rec = ExperimentRecords(Y=y, X=sc.X, D=arms)
        ci = randomization_ci_discrete(rec, factor, 4, estimand.arm_weights,
                                       inner, 0.05, grng.derive_seed(110, b))
        hits += ci.contains(truth)
    coverage = hits / outer
    report(11, 0.90 <= coverage <= 0.99,
           "randomization CI coverage on the factorial scenario",
           f"coverage = {coverage:.3f} over {outer} replicates")


def test_criterion_12_factorial_dominance_and_balance_correlation():
    ok_dom = True
    balances, mses = [], []
    details = []
    for seed in range(5):
        report_rows = run_scenario({
            "generator": "factorial", "seed": seed,
            "designs": "bg,og,cr,rr", "replicates": 10_000, "iters": 200,
        }).rows
        by = {(r.design, r.estimand): r for r in report_rows}
        for label in ("tau_1", "tau_2", "tau_12"):
            og, cr = by[("og", label)].mse, by[("cr", label)].mse
            ok_dom &= og <= cr
            if seed == 0:
                details.append(f"{label}: OG {og:.4f} vs CR {cr:.4f}")
        balances += [r.balance_objective_nuc for r in report_rows]
        mses += [r.mse for r in report_rows]
    corr, _ = spearmanr(balances, mses)
    report(12, ok_dom and corr > 0.0,
           "optimized design dominates CR; balance correlates with MSE",
           f"seed-0 {', '.join(details)}; Spearman = {corr:.2f} over {len(mses)} rows")


def test_criterion_13_stein_estimands():
    B, n = 20_000, 50
    t = grng.normals(130, np.arange(B), n)
    est_l = np.mean(t**3 * t, axis=1)          # Y = t^3 with w_L = t
    est_c = np.mean(t**2 * (t**2 - 1), axis=1)  # Y = t^2 with w_C = t^2 - 1
    dev_l = abs(est_l.mean() - 3.0) * np.sqrt(B) / est_l.std()
    dev_c = abs(est_c.mean() - 2.0) * np.sqrt(B) / est_c.std()
    # same identities through the estimator API on a single experiment
    rec = ExperimentRecords(Y=t[0] ** 3, T=t[0])
    api_val = ht_continuous(rec, WeightFn.first_derivative())
    ok = dev_l < 4.0 and dev_c < 4.0 and np.isfinite(api_val)
    report(13, ok, "Stein-lemma weights recover average derivatives (3 and 2)",
           f"first-derivative dev = {dev_l:.2f} SE, second = {dev_c:.2f} SE")
