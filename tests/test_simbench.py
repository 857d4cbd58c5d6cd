import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chi2, chisquare

import gaussdesign
import gaussdesign.rng as grng
from gaussdesign import simbench
from gaussdesign.elliptope import identity_factor
from gaussdesign.estimators import EstimandSpec, true_estimand
from gaussdesign.inference import IntervalReport
from gaussdesign.simbench import (CompleteRandomization, GaussianDesign,
                                  Rerandomization, balance_objective_nuc,
                                  design_cr, design_rerand, gen_continuous,
                                  gen_factorial, gen_three_arm, mc_coverage,
                                  mc_estimates, mc_mse, rerand_threshold,
                                  run_scenario)
from gaussdesign.simbench import (_build_designs, _cr_batch,
                                  _pairwise_mahalanobis_max)


class TestGenThreeArm:
    def test_dimensions(self):
        sc = gen_three_arm("single_feature", 0)
        assert (sc.n, sc.d, sc.K) == (18, 5, 3)
        assert sc.potential_outcomes.shape == (18, 3)

    def test_outcomes_exactly_linear(self):
        sc = gen_three_arm("uniform", 3)
        beta, res, _, _ = np.linalg.lstsq(sc.X, sc.potential_outcomes, rcond=None)
        recon = sc.X @ beta
        assert np.max(np.abs(recon - sc.potential_outcomes)) < 1e-10

    def test_seed_reproducibility(self):
        a = gen_three_arm("single_feature", 5)
        b = gen_three_arm("single_feature", 5)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.potential_outcomes, b.potential_outcomes)
        c = gen_three_arm("single_feature", 6)
        assert not np.array_equal(a.X, c.X)

    def test_single_feature_scale_structure(self):
        sc = gen_three_arm("single_feature", 1)
        assert sc.X[:, 0].std() > 5 * sc.X[:, 1:].std()

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            gen_three_arm("banana", 0)


class TestGenFactorial:
    def test_interaction_constant_across_seeds(self):
        for seed in (0, 1, 2):
            sc = gen_factorial(seed)
            spec = next(e for e in sc.estimands if e.label == "tau_12")
            assert true_estimand(sc.potential_outcomes, spec) == pytest.approx(0.25, abs=1e-12)

    def test_main_effect_formula(self):
        sc = gen_factorial(11)
        b2 = np.array([0.0, 0.0, -8.0 / 5.0, 8.0 / 5.0, 8.0 / 5.0])
        spec = next(e for e in sc.estimands if e.label == "tau_1")
        expected = 0.25 + (sc.X @ b2).mean()
        assert true_estimand(sc.potential_outcomes, spec) == pytest.approx(expected, abs=1e-12)

    def test_four_arms(self):
        sc = gen_factorial(0)
        assert sc.K == 4
        assert sc.potential_outcomes.shape == (100, 4)


class TestGenContinuous:
    def test_flat_cubic_when_b_zero(self):
        sc = gen_continuous("cubic_monotone", 24, 0, b=0.0)
        assert np.all(sc.response_slope == 0.0)
        assert true_estimand(sc.responses, sc.estimands[0]) == pytest.approx(0.0, abs=1e-12)

    def test_linear_slope_identity(self):
        sc = gen_continuous("linear_slope", 24, 1)
        truth = true_estimand(sc.responses, sc.estimands[0])
        assert truth == pytest.approx(sc.response_slope.mean(), abs=1e-10)

    def test_quadratic_concave(self):
        sc = gen_continuous("quadratic_concave", 24, 2, b=1.5)
        truth = true_estimand(sc.responses, sc.estimands[0])
        # quadrature oracle: Y'' = 2 * (quadratic coefficient)
        assert truth == pytest.approx(2.0 * sc.response_slope.mean(), abs=1e-10)

    def test_unknown_kind_and_negative_b(self):
        with pytest.raises(ValueError):
            gen_continuous("quartic", 10, 0)
        with pytest.raises(ValueError):
            gen_continuous("cubic_monotone", 10, 0, b=-1.0)


class TestDesignCr:
    def test_balanced_counts(self):
        arms = design_cr(12, 3, 0)
        assert np.bincount(arms, minlength=4)[1:].tolist() == [4, 4, 4]

    def test_remainder_counts_differ_by_at_most_one(self):
        arms = _cr_batch(11, 3, 0, np.arange(200))
        counts = np.stack([np.bincount(a, minlength=4)[1:] for a in arms])
        assert np.all(counts.max(axis=1) - counts.min(axis=1) <= 1)

    def test_uniform_over_assignments(self):
        # enumeration oracle: n = 4, K = 2 has C(4,2) = 6 equal-count splits
        arms = _cr_batch(4, 2, 123, np.arange(100_000))
        keys = (arms - 1) @ (1 << np.arange(4))
        _, counts = np.unique(keys, return_counts=True)
        assert counts.size == 6
        _, p = chisquare(counts)
        assert p > 0.001

    def test_determinism(self):
        assert np.array_equal(design_cr(10, 2, 7), design_cr(10, 2, 7))


class TestDesignRerand:
    def test_full_acceptance_equals_cr(self):
        X = np.random.default_rng(0).standard_normal((12, 3))
        assert np.array_equal(design_rerand(X, 5, 1.0, 3), design_cr(12, 3, 5))

    def test_accepted_assignments_are_balanced(self):
        X = np.random.default_rng(1).standard_normal((40, 4))
        rr = Rerandomization(X, p_a=0.05)
        cr = CompleteRandomization()
        a_rr = rr.arms(3, np.arange(400), 2)
        a_cr = cr.arms(3, np.arange(400), 2, n=40)
        m_rr = _pairwise_mahalanobis_max(X, a_rr, 2, rr._S_inv)
        m_cr = _pairwise_mahalanobis_max(X, a_cr, 2, rr._S_inv)
        assert m_rr.mean() < m_cr.mean()

    def test_determinism(self):
        X = np.random.default_rng(2).standard_normal((20, 3))
        assert np.array_equal(design_rerand(X, 9, 0.1, 2), design_rerand(X, 9, 0.1, 2))

    def test_complete_randomization_needs_unit_count(self):
        with pytest.raises(ValueError, match=r"\bn\b"):
            CompleteRandomization().arms(0, np.arange(3), 2)

    def test_invalid_acceptance(self):
        X = np.zeros((4, 1))
        with pytest.raises(ValueError):
            design_rerand(X, 0, 0.0, 2)

    @pytest.mark.parametrize("p_a", [0.0, -0.5, 1.5, float("nan")])
    def test_class_rejects_acceptance_outside_unit_interval(self, p_a):
        X = np.random.default_rng(3).standard_normal((10, 2))
        with pytest.raises(ValueError, match="acceptance probability"):
            Rerandomization(X, p_a=p_a)

    def test_single_covariate(self):
        X = np.random.default_rng(4).standard_normal((30, 1))
        rr = Rerandomization(X, p_a=0.1)
        arms = rr.arms(2, np.arange(50), 3)
        assert arms.shape == (50, 30)
        m = _pairwise_mahalanobis_max(X, arms, 3, rr._S_inv)
        assert np.all(m < rerand_threshold(1, 3, 0.1))
        assert np.array_equal(design_rerand(X, 2, 0.1, 3), arms[0])

    def test_single_replicate_of_the_class(self):
        X = np.random.default_rng(5).standard_normal((24, 3))
        a = design_rerand(X, 11, 0.05, 3)
        assert np.array_equal(a, Rerandomization(X, 0.05).arms(11, np.arange(4), 3)[0])
        S_inv = np.linalg.pinv(np.cov(X, rowvar=False, ddof=1))
        assert _pairwise_mahalanobis_max(X, a, 3, S_inv) < rerand_threshold(3, 3, 0.05)


class TestRerandThreshold:
    def test_equals_chi2_ppf(self):
        for d in range(1, 40):
            for K in range(2, 17):
                pairs = K * (K - 1) // 2
                for p_a in (0.001, 0.01, 0.05, 0.1, 0.3, 0.5, 0.9, 1.0):
                    expected = float(chi2.ppf(p_a ** (1.0 / pairs), df=d))
                    assert rerand_threshold(d, K, p_a) == expected, (d, K, p_a)

    def test_import_leaves_scipy_stats_unloaded(self):
        src = str(Path(gaussdesign.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
        code = ("import sys, gaussdesign; "
                "print([m for m in ('scipy.stats', 'scipy.interpolate') if m in sys.modules])")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"


class TestMcMse:
    def test_zero_outcomes(self):
        sc = gen_three_arm("uniform", 0)
        zero = type(sc)(name=sc.name, seed=sc.seed, X=sc.X, K=sc.K,
                        potential_outcomes=np.zeros_like(sc.potential_outcomes),
                        estimands=sc.estimands)
        design = GaussianDesign(identity_factor(sc.n), "bg")
        assert mc_mse(zero, design, sc.estimands[0], 500, 3) == 0.0

    def test_iid_arm_mse_matches_true_variance(self):
        from gaussdesign.inference import true_variance
        sc = gen_three_arm("uniform", 4)
        design = GaussianDesign(identity_factor(sc.n), "bg")
        spec = next(e for e in sc.estimands if e.label == "arm_1")
        B = 200_000
        est = mc_estimates(sc, design, spec, B, 17)
        truth = true_estimand(sc.potential_outcomes, spec)
        mse = mc_mse(sc, design, spec, B, 17)
        expected = true_variance(sc.potential_outcomes, identity_factor(sc.n), 1, 3) / sc.n
        se = np.std((est - truth) ** 2) / np.sqrt(B)
        assert abs(mse - expected) < 4 * se

    def test_determinism(self):
        sc = gen_factorial(1)
        design = GaussianDesign(identity_factor(sc.n), "bg")
        a = mc_mse(sc, design, sc.estimands[0], 1000, 5)
        assert a == mc_mse(sc, design, sc.estimands[0], 1000, 5)

    def test_minimum_replicates(self):
        sc = gen_factorial(1)
        with pytest.raises(ValueError):
            mc_mse(sc, GaussianDesign(identity_factor(sc.n)), sc.estimands[0], 50, 5)


class TestMcEstimates:
    def test_tuple_of_specs_matches_single_specs(self):
        sc = gen_factorial(2)
        for design in (GaussianDesign(identity_factor(sc.n), "bg"),
                       CompleteRandomization(), Rerandomization(sc.X, p_a=0.2)):
            rows = mc_estimates(sc, design, sc.estimands, 5000, 8)
            assert rows.shape == (len(sc.estimands), 5000)
            for row, spec in zip(rows, sc.estimands):
                single = mc_estimates(sc, design, spec, 5000, 8)
                assert single.shape == (5000,)
                assert np.array_equal(row, single)

    def test_balance_tuple_matches_single_specs(self):
        sc = gen_three_arm("uniform", 1)
        for design in (GaussianDesign(identity_factor(sc.n), "bg"), CompleteRandomization()):
            many = balance_objective_nuc(sc, design, sc.estimands, 4)
            assert many == tuple(balance_objective_nuc(sc, design, e, 4)
                                 for e in sc.estimands)

    def test_continuous_needs_gaussian_design(self):
        sc = gen_continuous("linear_slope", 12, 0)
        with pytest.raises(ValueError, match="Gaussian design"):
            mc_estimates(sc, CompleteRandomization(), sc.estimands[0], 100, 0)


class TestMcCoverage:
    def test_oracle_interval_full_coverage(self):
        sc = gen_three_arm("uniform", 2)
        design = GaussianDesign(identity_factor(sc.n), "bg")

        def oracle(records, seed):
            return IntervalReport(lower=-np.inf, upper=np.inf, alpha=0.05,
                                  method="normal")

        res = mc_coverage(sc, design, sc.estimands[0], oracle, 100, 0)
        assert res["coverage"] == 1.0

    def test_empty_interval_zero_coverage(self):
        sc = gen_three_arm("uniform", 2)
        design = GaussianDesign(identity_factor(sc.n), "bg")

        def empty(records, seed):
            return IntervalReport(lower=0.0, upper=0.0, alpha=0.05, method="normal")

        res = mc_coverage(sc, design, sc.estimands[0], empty, 100, 0)
        assert res["coverage"] == 0.0
        assert res["mean_width"] == 0.0

    def test_normal_ci_clt_coverage(self):
        # bounded outcomes, i.i.d. design, n = 200: normal CI on the arm
        # estimator should cover near the nominal level
        from gaussdesign.estimators import ht_arm
        from gaussdesign.inference import normal_ci, variance_ht_arm
        gen = np.random.default_rng(3)
        n, K = 200, 2
        table = gen.uniform(0.0, 1.0, (n, K))
        sc = gen_three_arm("uniform", 0)
        scenario = type(sc)(name="bounded", seed=0, X=np.ones((n, 1)), K=K,
                            potential_outcomes=table,
                            estimands=(EstimandSpec.arm(1, K),))
        factor = identity_factor(n)
        design = GaussianDesign(factor, "bg")

        def proc(records, seed):
            rep = variance_ht_arm(records, factor, 1, K)
            return normal_ci(ht_arm(records, 1, K), rep.point, n, 0.05)

        res = mc_coverage(scenario, design, scenario.estimands[0], proc, 2000, 7)
        assert 0.93 <= res["coverage"] <= 0.97


def _count_draw_rows(monkeypatch):
    """Rows returned by the outermost design draws, per design name."""
    rows = Counter()
    depth = [0]
    for cls, method in ((GaussianDesign, "latent"), (GaussianDesign, "arms"),
                        (CompleteRandomization, "arms"), (Rerandomization, "arms")):
        def wrapper(self, *args, _fn=vars(cls)[method], **kwargs):
            depth[0] += 1
            try:
                out = _fn(self, *args, **kwargs)
            finally:
                depth[0] -= 1
            if depth[0] == 0:
                rows[self.name] += out.shape[0]
            return out

        monkeypatch.setattr(cls, method, wrapper)
    return rows


class TestRunScenario:
    CFG = {"generator": "three_arm_uniform", "designs": "bg,og,cr,rr",
           "replicates": 500, "seed": 3, "iters": 10}

    def test_rows_equal_per_cell_reference(self):
        seed, B = self.CFG["seed"], self.CFG["replicates"]
        report = run_scenario(dict(self.CFG))
        sc = gen_three_arm("uniform", seed)
        designs = _build_designs(["bg", "og", "cr", "rr"], sc, seed, self.CFG["iters"], "nuc")
        expected = [(d.name, e.label,
                     mc_mse(sc, d, e, B, grng.derive_seed(seed, 10)),
                     balance_objective_nuc(sc, d, e, grng.derive_seed(seed, 11)))
                    for d in designs for e in sc.estimands]
        got = [(r.design, r.estimand, r.mse, r.balance_objective_nuc) for r in report.rows]
        assert got == expected

    def test_one_draw_per_design(self, monkeypatch):
        rows = _count_draw_rows(monkeypatch)
        run_scenario(dict(self.CFG))
        B, B_emp = self.CFG["replicates"], simbench._BALANCE_DRAWS
        # Gaussian designs score balance exactly; cr and rr draw B_emp more
        assert rows == {"bg": B, "og": B, "cr": B + B_emp, "rr": B + B_emp}

    def test_too_few_replicates_fails_before_any_draw(self, monkeypatch):
        rows = _count_draw_rows(monkeypatch)

        def no_optimization(*args, **kwargs):
            raise AssertionError("designs built before the replicate check")

        monkeypatch.setattr(simbench, "pgd_gauss", no_optimization)
        with pytest.raises(ValueError, match="at least 100 replicates"):
            run_scenario(dict(self.CFG, replicates=99))
        assert not rows

    def test_empty_design_list(self):
        report = run_scenario({"generator": "factorial", "designs": [],
                               "replicates": 200, "seed": 1})
        assert report.rows == ()

    def test_factorial_cr_and_og_rows(self):
        report = run_scenario({"generator": "factorial", "designs": "cr,og",
                               "replicates": 300, "seed": 1, "iters": 20})
        assert len(report.rows) == 6  # two designs x three estimands
        designs = {r.design for r in report.rows}
        assert designs == {"cr", "og"}
        assert all(r.mse >= 0 for r in report.rows)
        assert all(r.replicates == 300 for r in report.rows)

    def test_unknown_generator_and_keys(self):
        with pytest.raises(ValueError, match="generator"):
            run_scenario({"generator": "nope"})
        with pytest.raises(ValueError, match="unknown config keys"):
            run_scenario({"generator": "factorial", "bogus": 1})

    def test_report_regeneration_identical(self, tmp_path):
        cfg = {"generator": "three_arm_single_feature", "designs": "bg,cr",
               "replicates": 300, "seed": 9, "iters": 10}
        r1 = run_scenario(dict(cfg))
        r2 = run_scenario(dict(cfg))
        assert r1 == r2
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        r1.to_csv(p1)
        r2.to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()


def test_scenario_responses_shape():
    sc = gen_continuous("linear_slope", 12, 0)
    out = sc.responses(np.array([0.0, 1.0, 2.0]))
    assert out.shape == (12, 3)
    t = grng.normals(0, np.arange(4), 12)
    assert sc.response_at(t).shape == (4, 12)


def test_scenario_dump_load_round_trip(tmp_path):
    from gaussdesign.simbench import load_scenario, save_scenario
    for sc in (gen_three_arm("single_feature", 3), gen_factorial(4),
               gen_continuous("cubic_monotone", 18, 5, b=0.5)):
        prefix = str(tmp_path / sc.name)
        save_scenario(prefix, sc)
        back = load_scenario(prefix)
        assert np.array_equal(back.X, sc.X)
        if sc.potential_outcomes is not None:
            assert np.array_equal(back.potential_outcomes, sc.potential_outcomes)
        else:
            assert np.array_equal(back.response_slope, sc.response_slope)


def test_benchmark_row_invariants():
    from gaussdesign.simbench import BenchmarkRow
    with pytest.raises(ValueError):
        BenchmarkRow("s", "d", "e", mse=-1.0, balance_objective_nuc=0.0,
                     coverage=None, mean_ci_width=None, replicates=10)
    with pytest.raises(ValueError):
        BenchmarkRow("s", "d", "e", mse=1.0, balance_objective_nuc=0.0,
                     coverage=None, mean_ci_width=None, replicates=0)
