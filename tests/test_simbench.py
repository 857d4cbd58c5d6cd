import json
import math
import os
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaincinv
from scipy.stats import chi2, chisquare

import gaussdesign
import gaussdesign.rng as grng
from gaussdesign import simbench
from gaussdesign.covmap import apply_map, f_arm
from gaussdesign.elliptope import factor_from_rows, identity_factor
from gaussdesign.estimators import (EstimandSpec, ExperimentRecords, records_to_csv,
                                   true_estimand)
from gaussdesign.hermite import gauss_hermite_nodes
from gaussdesign.inference import IntervalReport
from gaussdesign.simbench import (CompleteRandomization, GaussianDesign,
                                  Rerandomization, balance_objective_nuc,
                                  gen_continuous, gen_factorial, gen_three_arm,
                                  mc_coverage, mc_estimates, mc_mse,
                                  rerand_threshold, run_scenario)
from gaussdesign.simbench import _build_designs, _cr_batch


# The previous complete-randomization kernel and rerandomization loop, kept
# as references: the current ones must give the same assignments bit for bit.
def _ref_cr_batch(n, K, seed, streams):
    streams = np.asarray(streams)
    u = grng.uniforms(seed, streams, K + n)
    base, rem = divmod(n, K)
    full = np.empty((streams.size, n), dtype=int)
    full[:, :K * base] = np.repeat(np.arange(1, K + 1), base)[None, :]
    if rem:
        full[:, K * base:] = np.argsort(u[:, :K], axis=1)[:, :rem] + 1
    unit_order = np.argsort(u[:, K:], axis=1)
    return np.take_along_axis(full, unit_order, axis=1)


def _S_inv(X):
    return np.linalg.pinv(np.atleast_2d(np.cov(X, rowvar=False, ddof=1)))


def _pairwise_mahalanobis_max(X, arms, K, S_inv):
    """Largest pairwise-arm Mahalanobis distance of covariate means, per row
    of a (C, n) batch or for one (n,) assignment."""
    arms = np.asarray(arms)
    batch = np.atleast_2d(arms)
    means = np.empty((K, batch.shape[0], X.shape[1]))
    counts = np.empty((K, batch.shape[0]))
    for k in range(1, K + 1):
        ind = (batch == k).astype(float)
        counts[k - 1] = ind.sum(axis=1)
        means[k - 1] = (ind @ X) / counts[k - 1][:, None]
    worst = np.zeros(batch.shape[0])
    for a in range(K):
        for b in range(a + 1, K):
            diff = means[a] - means[b]
            scale = 1.0 / counts[a] + 1.0 / counts[b]
            m = np.einsum("cd,de,ce->c", diff, S_inv, diff) / scale
            worst = np.maximum(worst, m)
    return worst if arms.ndim == 2 else float(worst[0])


def _ref_rerand_arms(X, p_a, seed, streams, K):
    """The previous Rerandomization.arms, with its chi^2 cutoff from scipy and
    a copy of every improving candidate."""
    streams = np.asarray(streams, dtype=np.uint64)
    cap = simbench._RERAND_CAP
    n, d = X.shape
    thr = float(2.0 * gammaincinv(d / 2.0, p_a ** (1.0 / (K * (K - 1) // 2))))
    S_inv = _S_inv(X)
    out = np.empty((streams.size, n), dtype=int)
    best = np.empty_like(out)
    best_m = np.full(streams.size, np.inf)
    unresolved = np.arange(streams.size)
    t = 0
    while unresolved.size and t < cap:
        cand = _ref_cr_batch(n, K, seed, streams[unresolved] * np.uint64(cap) + np.uint64(t))
        m = _pairwise_mahalanobis_max(X, cand, K, S_inv)
        improved = m < best_m[unresolved]
        best[unresolved[improved]] = cand[improved]
        best_m[unresolved[improved]] = m[improved]
        ok = m < thr
        out[unresolved[ok]] = cand[ok]
        unresolved = unresolved[~ok]
        t += 1
    if unresolved.size:
        warnings.warn(f"rerandomization cap exhausted for {unresolved.size} "
                      "replicate(s); returning best-seen assignments",
                      RuntimeWarning)
        out[unresolved] = best[unresolved]
    return out


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


def _first(design, seed, K):
    """Stream 0 of a design: one assignment."""
    return design.arms(seed, np.arange(1), K)[0]


class TestDesignCr:
    def test_balanced_counts(self):
        arms = _first(CompleteRandomization(12), 0, 3)
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
        cr = CompleteRandomization(10)
        assert np.array_equal(cr.arms(7, np.arange(5), 2), cr.arms(7, np.arange(5), 2))

    @pytest.mark.parametrize("K", [2, 3, 4])
    @pytest.mark.parametrize("n", [3, 12, 13, 100])
    def test_kernel_equals_the_reference(self, n, K):
        streams = np.arange(300)
        assert np.array_equal(_cr_batch(n, K, 17, streams), _ref_cr_batch(n, K, 17, streams))


class TestDesignRerand:
    def test_full_acceptance_equals_cr(self):
        X = np.random.default_rng(0).standard_normal((12, 3))
        assert np.array_equal(_first(Rerandomization(X, 1.0), 5, 3),
                              _first(CompleteRandomization(12), 5, 3))

    def test_accepted_assignments_are_balanced(self):
        X = np.random.default_rng(1).standard_normal((40, 4))
        rr = Rerandomization(X, p_a=0.05)
        cr = CompleteRandomization(40)
        a_rr = rr.arms(3, np.arange(400), 2)
        a_cr = cr.arms(3, np.arange(400), 2)
        m_rr = _pairwise_mahalanobis_max(X, a_rr, 2, _S_inv(X))
        m_cr = _pairwise_mahalanobis_max(X, a_cr, 2, _S_inv(X))
        assert m_rr.mean() < m_cr.mean()

    def test_determinism(self):
        X = np.random.default_rng(2).standard_normal((20, 3))
        assert np.array_equal(Rerandomization(X, 0.1).arms(9, np.arange(3), 2),
                              Rerandomization(X, 0.1).arms(9, np.arange(3), 2))

    def test_complete_randomization_needs_unit_count(self):
        # n is fixed at construction, so arms() has the other designs' signature
        with pytest.raises(TypeError, match=r"\bn\b"):
            CompleteRandomization()

    def test_invalid_acceptance(self):
        X = np.zeros((4, 1))
        with pytest.raises(ValueError):
            Rerandomization(X, 0.0)

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
        m = _pairwise_mahalanobis_max(X, arms, 3, _S_inv(X))
        assert np.all(m < rerand_threshold(1, 3, 0.1))
        assert np.array_equal(_first(rr, 2, 3), arms[0])

    def test_single_replicate_of_the_class(self):
        X = np.random.default_rng(5).standard_normal((24, 3))
        a = _first(Rerandomization(X, 0.05), 11, 3)
        assert np.array_equal(a, Rerandomization(X, 0.05).arms(11, np.arange(4), 3)[0])
        assert _pairwise_mahalanobis_max(X, a, 3, _S_inv(X)) < rerand_threshold(3, 3, 0.05)

    def test_streams_that_would_wrap_are_rejected(self):
        # s * cap + t wraps modulo 2**64: streams 1 and 1 + 2**59 would
        # share every candidate
        X = np.random.default_rng(0).standard_normal((12, 3))
        streams = np.array([1, 1 + 2**59], dtype=np.uint64)
        with pytest.raises(ValueError, match=str(simbench._RERAND_MAX_STREAM)):
            Rerandomization(X, 0.5).arms(3, streams, 3)

    def test_largest_allowed_stream(self):
        cap, top = simbench._RERAND_CAP, simbench._RERAND_MAX_STREAM
        assert top * cap + cap - 1 < 2**64 <= (top + 1) * cap + cap - 1
        X = np.random.default_rng(1).standard_normal((12, 3))
        streams = np.array([top], dtype=np.uint64)
        # full acceptance takes candidate 0, CR stream top * cap
        assert np.array_equal(Rerandomization(X, 1.0).arms(3, streams, 3),
                              _cr_batch(12, 3, 3, np.array([top * cap], dtype=np.uint64)))
        assert Rerandomization(X, 0.05).arms(3, streams, 3).shape == (1, 12)
        with pytest.raises(ValueError, match="64 bits"):
            Rerandomization(X, 1.0).arms(3, streams + np.uint64(1), 3)

    @pytest.mark.parametrize("p_a", [0.01, 0.05, 1.0])
    @pytest.mark.parametrize("K", [2, 3, 4])
    @pytest.mark.parametrize("n", [12, 13, 100])
    def test_arms_equal_the_reference_loop(self, n, K, p_a):
        X = np.random.default_rng(n * K).standard_normal((n, 3))
        streams = np.arange(40)
        assert np.array_equal(Rerandomization(X, p_a).arms(5, streams, K),
                              _ref_rerand_arms(X, p_a, 5, streams, K))

    def test_exhausted_cap_returns_the_earliest_least_distance(self, monkeypatch):
        # n = 4 units in 2 arms: 25 candidates repeat the 6 assignments, so
        # least distances tie; nothing passes a cutoff of about 2e-9
        cap = 25
        monkeypatch.setattr(simbench, "_RERAND_CAP", cap)
        X = np.random.default_rng(8).standard_normal((4, 2))
        streams = np.arange(6, dtype=np.uint64)
        with pytest.warns(RuntimeWarning) as got:
            arms = Rerandomization(X, 1e-9).arms(2, streams, 2)
        with pytest.warns(RuntimeWarning) as want:
            ref = _ref_rerand_arms(X, 1e-9, 2, streams, 2)
        assert np.array_equal(arms, ref)
        assert [str(w.message) for w in got] == [str(w.message) for w in want] == [
            "rerandomization cap exhausted for 6 replicate(s); returning best-seen assignments"]
        for s, row in zip(streams, arms):
            cands = _ref_cr_batch(4, 2, 2, s * np.uint64(cap) + np.arange(cap, dtype=np.uint64))
            m = _pairwise_mahalanobis_max(X, cands, 2, _S_inv(X))
            assert np.count_nonzero(m == m.min()) > 1
            assert np.array_equal(row, cands[np.argmin(m)])

    def test_fewer_units_than_arms_is_rejected_before_drawing(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("drawn before the unit count was checked")

        monkeypatch.setattr(grng, "uniforms", no_draw)
        rr = Rerandomization(np.random.default_rng(0).standard_normal((2, 2)))
        with pytest.raises(ValueError, match=r"n = 2 units into K = 3 arms"):
            rr.arms(0, np.arange(3), 3)

    def test_one_arm_is_rejected(self):
        with pytest.raises(ValueError, match=r"K = 1\b"):
            rerand_threshold(3, 1, 0.1)
        X = np.random.default_rng(0).standard_normal((5, 3))
        with pytest.raises(ValueError, match=r"K = 1\b"):
            Rerandomization(X).arms(0, np.arange(2), 1)

    @pytest.mark.parametrize("shape", [(1, 3), (0, 2), (1,)])
    def test_fewer_than_two_units_are_rejected(self, shape):
        # np.cov with ddof = 1 would divide by n - 1 <= 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"n = {shape[0]}\b"):
                Rerandomization(np.ones(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_covariates_are_rejected(self, bad):
        X = np.random.default_rng(1).standard_normal((10, 3))
        X[4, 1] = bad
        with pytest.raises(ValueError, match="covariates must be finite"):
            Rerandomization(X)


_N = 12
_DESIGNS = {
    "gaussian": GaussianDesign(factor_from_rows(
        np.random.default_rng(6).standard_normal((_N, 4))), "og"),
    "cr": CompleteRandomization(_N),
    "rr": Rerandomization(np.random.default_rng(7).standard_normal((_N, 3)), p_a=0.3),
}


# streams stay below 2**47: rr numbers candidate t of stream s as
# s * 100000 + t in uint64 and rejects streams whose candidates would wrap
@pytest.mark.parametrize("name", sorted(_DESIGNS))
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**64 - 1),
       streams=st.lists(st.integers(0, 2**40), min_size=1, max_size=12, unique=True),
       K=st.integers(2, 4), data=st.data())
def test_design_rows_do_not_depend_on_requested_streams(name, seed, streams, K, data):
    design = _DESIGNS[name]
    streams = np.array(streams, dtype=np.uint64)
    full = design.arms(seed, streams, K)
    assert full.shape == (streams.size, _N)
    assert full.min() >= 1 and full.max() <= K
    arms, latent = design.draw(seed, streams, K)
    assert np.array_equal(arms, full)
    assert (latent is None) == (design.factor is None)
    idx = data.draw(st.permutations(range(streams.size)))
    idx = np.array(idx[:data.draw(st.integers(1, streams.size))])
    assert np.array_equal(design.arms(seed, streams[idx], K), full[idx])
    s = data.draw(st.integers(0, streams.size - 1))
    assert np.array_equal(design.arms(seed, streams[s:s + 1], K), full[s:s + 1])


# Largest distance from scipy.stats.chi2.ppf on the grid below, in ulp of
# the quantile (scipy 1.17: chi2.ppf is itself up to 105 ulp off there).
_PPF_ULP = 105

# (d, p, chi^2_d quantile at p) rounded from 45-digit bisection on mpmath's
# regularized incomplete gamma function.
_EXACT_QUANTILES = (
    (1, 1e-30, 1.570796326794897e-60), (1, 0.01, 0.00015708785790970197),
    (1, 0.6, 0.7083263008007937), (1, 0.999999999999, 50.84417133244917),
    (2, 1e-30, 2e-30), (2, 0.95, 5.99146454710798),
    (3, 1e-30, 2.4179879310247047e-20), (3, 0.3, 1.4236522430352796),
    (5, 0.01, 0.5542980767282771), (5, 0.95, 11.070497693516351),
    (10, 1e-30, 5.2103444317015676e-06), (10, 0.6, 10.473236231395452),
    (39, 0.01, 21.426163064945914), (39, 0.999999999999, 136.3851052824808),
    (80, 1e-30, 6.036163191231973), (80, 0.3, 72.91534231387618),
    (333, 0.01, 275.9194676946521), (333, 0.95, 376.5549566879191),
)

# The same above y = 400, where _gamma_terms starts from Stirling's series
_LARGE_D_QUANTILES = (
    (1000, 0.01, 898.9124469296132), (1000, 0.5, 999.333412403381),
    (1000, 0.99, 1106.9689943522174), (2001, 0.01, 1856.7795399173572),
    (2001, 0.5, 2000.3333728341727), (2001, 0.99, 2151.1024441198188),
    (3001, 0.01, 2823.718216451891), (3001, 0.5, 3000.333359668412),
    (3001, 0.99, 3184.1639481867337),
)


class TestRerandThreshold:
    def test_equals_chi2_ppf(self):
        # within _PPF_ULP ulp of chi2.ppf; full acceptance gives inf
        for d in range(1, 40):
            for K in range(2, 17):
                pairs = K * (K - 1) // 2
                for p_a in (0.001, 0.01, 0.05, 0.1, 0.3, 0.5, 0.9):
                    expected = float(chi2.ppf(p_a ** (1.0 / pairs), df=d))
                    got = rerand_threshold(d, K, p_a)
                    assert abs(got - expected) <= _PPF_ULP * math.ulp(expected), (d, K, p_a)
                assert rerand_threshold(d, K, 1.0) == math.inf

    @pytest.mark.parametrize("d, p, exact", _EXACT_QUANTILES)
    def test_within_two_ulp_of_the_exact_quantile(self, d, p, exact):
        # K = 2 is one pair, so the quantile is taken at p itself
        assert abs(rerand_threshold(d, 2, p) - exact) <= 2 * math.ulp(exact)

    @pytest.mark.parametrize("d, p, exact", _LARGE_D_QUANTILES)
    def test_within_five_ulp_of_the_exact_quantile_at_large_d(self, d, p, exact):
        assert abs(rerand_threshold(d, 2, p) - exact) <= 5 * math.ulp(exact)

    def test_import_leaves_scipy_stats_unloaded(self, tmp_path):
        # no scipy module at all after the import, the optimize (discrete
        # and continuous), sample, estimate, ci and simulate
        # (rerandomization included) commands, the chi^2 cutoff and the
        # Gauss-Hermite nodes
        g = np.random.default_rng(0)
        np.savetxt(tmp_path / "X.csv", g.standard_normal((20, 2)), delimiter=",")
        records_to_csv(tmp_path / "records.csv", ExperimentRecords(
            Y=g.standard_normal(20), X=g.standard_normal((20, 2)), D=np.tile([1, 2, 3, 1], 5)))
        (tmp_path / "sim.cfg").write_text("generator = factorial\ndesigns = bg,og,cr,rr\n"
                                          "replicates = 100\niters = 2\n")
        src = str(Path(gaussdesign.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
        out = subprocess.run([sys.executable, "-c", _SCIPY_FREE_RUN], cwd=tmp_path, env=env,
                             check=True, capture_output=True, text=True).stdout
        steps = json.loads(out.strip().splitlines()[-1])
        assert [s["step"] for s in steps] == [
            "import", "optimize", "optimize_continuous", "sample", "estimate", "ci_normal",
            "ci_randomization", "simulate", "rerand_threshold", "hermite_nodes"]
        for s in steps:
            assert s["code"] == 0 and s["scipy"] == [], s
        assert (tmp_path / "opt_continuous" / "factor.csv").exists()
        assert {line.split(",")[1] for line in
                (tmp_path / "sim.csv").read_text().splitlines()[1:]} == {"bg", "og", "cr", "rr"}
        assert steps[-2]["threshold"] == rerand_threshold(4, 3, 0.1)
        x, w = gauss_hermite_nodes(20)
        assert steps[-1]["nodes"] == x.tolist() and steps[-1]["weights"] == w.tolist()


_SCIPY_FREE_RUN = """
import json, sys

def step(name, code=0):
    steps.append({"step": name, "code": code,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")})

steps = []
import gaussdesign
from gaussdesign.cli import main
step("import")
common = ["--records", "records.csv", "--arms", "3"]
commands = {
    "optimize": ["optimize", "--covariates", "X.csv", "--arms", "3", "--iters", "3",
                 "--out-dir", "opt"],
    "optimize_continuous": ["optimize", "--covariates", "X.csv", "--continuous",
                            "--iters", "2", "--out-dir", "opt_continuous"],
    "sample": ["sample", "--factor", "opt/factor.csv", "--draws", "2", "--seed", "1",
               "--discretize", "3", "--out", "draws.csv"],
    "estimate": ["estimate", *common, "--estimand", "contrast:1,-1,0", "--out", "est.csv"],
    "ci_normal": ["ci", *common, "--factor", "opt/factor.csv", "--method", "normal",
                  "--estimand", "arm:1", "--out", "ci_normal.csv"],
    "ci_randomization": ["ci", *common, "--factor", "opt/factor.csv",
                         "--method", "randomization", "--estimand", "contrast:1,-1,0",
                         "--replicates", "100", "--seed", "3", "--out", "ci_rand.csv"],
    "simulate": ["simulate", "--config", "sim.cfg", "--out", "sim.csv"],
}
for name, argv in commands.items():
    step(name, main(argv))
from gaussdesign.simbench import rerand_threshold
threshold = rerand_threshold(4, 3, 0.1)
step("rerand_threshold")
steps[-1].update(threshold=threshold)
from gaussdesign.hermite import gauss_hermite_nodes
x, w = gauss_hermite_nodes(20)
step("hermite_nodes")
steps[-1].update(nodes=x.tolist(), weights=w.tolist())
print(json.dumps(steps))
"""


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
                       CompleteRandomization(sc.n), Rerandomization(sc.X, p_a=0.2)):
            rows = mc_estimates(sc, design, sc.estimands, 5000, 8)
            assert rows.shape == (len(sc.estimands), 5000)
            for row, spec in zip(rows, sc.estimands):
                single = mc_estimates(sc, design, spec, 5000, 8)
                assert single.shape == (5000,)
                assert np.array_equal(row, single)

    def test_balance_tuple_matches_single_specs(self):
        sc = gen_three_arm("uniform", 1)
        for design in (GaussianDesign(identity_factor(sc.n), "bg"),
                       CompleteRandomization(sc.n)):
            many = balance_objective_nuc(sc, design, sc.estimands, 4)
            assert many == tuple(balance_objective_nuc(sc, design, e, 4)
                                 for e in sc.estimands)

    def test_continuous_needs_gaussian_design(self):
        sc = gen_continuous("linear_slope", 12, 0)
        with pytest.raises(ValueError, match="Gaussian design"):
            mc_estimates(sc, CompleteRandomization(sc.n), sc.estimands[0], 100, 0)


class TestArmTerms:
    """arm_terms(X, K, seed) against X^T C_k X from the whole n x n C_k.
    Measured first: worst deviation 5.3e-16 (Gaussian designs, n up to 641,
    ranks 9 and 80, exact +-1 correlations) and 6.4e-15 (cr and rr against
    np.cov of their draws) of the largest |entry|."""

    @pytest.mark.parametrize("n", [1, 5, 127, 129, 641])
    @pytest.mark.parametrize("k", [9, 80])
    def test_gaussian_terms_equal_the_dense_maps(self, n, k):
        gen = np.random.default_rng(n + k)
        V = gen.standard_normal((n, k))
        if n >= 3:   # rows e_1, e_1, -e_1: correlations exactly +-1
            V[:3] = 0.0
            V[:3, 0] = [1.0, 1.0, -1.0]
        factor = factor_from_rows(V)
        X = gen.standard_normal((n, 3))
        K = 4
        terms = GaussianDesign(factor).arm_terms(X, K, 0)
        assert len(terms) == K
        for k_arm, M in enumerate(terms, 1):
            dense = X.T @ apply_map(f_arm(K, k_arm), factor) @ X
            assert np.array_equal(M, M.T)
            np.testing.assert_allclose(M, dense, rtol=0, atol=1e-12 * np.abs(dense).max())

    def test_arm_design_terms_equal_the_sample_covariances(self):
        sc = gen_factorial(1)
        for design in (CompleteRandomization(sc.n), Rerandomization(sc.X)):
            arms = design.arms(5, np.arange(simbench._BALANCE_DRAWS), sc.K)
            for k, M in enumerate(design.arm_terms(sc.X, sc.K, 5), 1):
                C = np.cov((arms == k).astype(float), rowvar=False, ddof=1)
                dense = sc.X.T @ C @ sc.X
                np.testing.assert_allclose(M, dense, rtol=0,
                                           atol=1e-12 * np.abs(dense).max())


_SMALL_DESIGNS = {
    "gaussian": lambda sc: GaussianDesign(identity_factor(50), "og"),
    "cr": lambda sc: CompleteRandomization(50),
    "rr": lambda sc: Rerandomization(sc.X[:50]),
}


@pytest.mark.parametrize("name", sorted(_SMALL_DESIGNS))
def test_unit_count_mismatch_is_reported_before_drawing(name):
    sc = gen_factorial(0)
    design = _SMALL_DESIGNS[name](sc)
    assert design.n == 50

    def no_draw(*args):
        raise AssertionError("drawn before the unit count was checked")

    design.draw = design.arm_terms = no_draw
    calls = (lambda: mc_estimates(sc, design, sc.estimands[0], 100, 0),
             lambda: mc_estimates(sc, design, sc.estimands, 100, 0),
             lambda: mc_coverage(sc, design, sc.estimands[0], no_draw, 100, 0),
             lambda: balance_objective_nuc(sc, design, sc.estimands[0], 0))
    for call in calls:
        with pytest.raises(ValueError, match=rf"design '{design.name}' has n = 50 "
                                             r"units but scenario 'factorial' has n = 100"):
            call()


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

    def test_assignment_design_records_carry_arms_only(self):
        sc = gen_three_arm("uniform", 2)
        design = CompleteRandomization(sc.n)
        seen = []

        def capture(records, seed):
            seen.append(records)
            return IntervalReport(lower=-np.inf, upper=np.inf, alpha=0.05,
                                  method="normal")

        res = mc_coverage(sc, design, sc.estimands[0], capture, 100, 4)
        assert res["coverage"] == 1.0
        expected = design.arms(4, np.arange(100), sc.K)
        assert len(seen) == 100
        for records, arms in zip(seen, expected):
            assert records.T is None
            assert np.array_equal(records.D, arms)
            assert np.array_equal(records.Y, sc.outcomes(arms, None))

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

    def test_unknown_norm(self):
        with pytest.raises(ValueError, match="norm"):
            run_scenario(dict(self.CFG, designs="og", norm="banana"))

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
    assert sc.outcomes(None, t).shape == (4, 12)


def test_benchmark_row_invariants():
    from gaussdesign.simbench import BenchmarkRow
    with pytest.raises(ValueError):
        BenchmarkRow("s", "d", "e", mse=-1.0, balance_objective_nuc=0.0,
                     coverage=None, mean_ci_width=None, replicates=10)
    with pytest.raises(ValueError):
        BenchmarkRow("s", "d", "e", mse=1.0, balance_objective_nuc=0.0,
                     coverage=None, mean_ci_width=None, replicates=0)
