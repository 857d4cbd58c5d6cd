import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gaussdesign
from gaussdesign import elliptope
from gaussdesign.cli import main, parse_config
from gaussdesign.covmap import (discretize, f_arm, f_cross, quantile_thresholds,
                                weighted_discrete_map)
from gaussdesign.elliptope import (factor_from_rows, identity_factor, load_factor,
                                   load_matrix, save_factor)
from gaussdesign.estimators import ExperimentRecords, records_to_csv, rescale_treatment


@pytest.fixture
def covariates(tmp_path):
    gen = np.random.default_rng(0)
    path = tmp_path / "cov.csv"
    np.savetxt(path, gen.standard_normal((18, 5)), delimiter=",")
    return path


@pytest.fixture
def records(tmp_path):
    gen = np.random.default_rng(1)
    rec = ExperimentRecords(Y=gen.standard_normal(12),
                            X=gen.standard_normal((12, 2)),
                            D=np.tile([1, 2, 3], 4))
    path = tmp_path / "records.csv"
    records_to_csv(path, rec)
    return path


class TestParseConfig:
    def test_key_values_and_comments(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# benchmark\ngenerator = factorial\nseed=3  # trailing\n\n")
        assert parse_config(path) == {"generator": "factorial", "seed": "3"}

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("generator factorial\n")
        with pytest.raises(ValueError):
            parse_config(path)


class TestOptimizeCommand:
    def test_writes_three_files_with_monotone_trace(self, covariates, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["optimize", "--covariates", str(covariates), "--arms", "3",
                     "--iters", "30", "--out-dir", str(out)])
        assert code == 0
        factor = load_factor(out / "factor.csv")
        sigma = load_matrix(out / "sigma.csv")
        assert np.allclose(factor.to_matrix(), sigma, atol=1e-12)
        trace = (out / "trace.csv").read_text().strip().splitlines()
        assert trace[0] == "iteration,objective,eta,grad_norm,halvings"
        objs = [float(line.split(",")[1]) for line in trace[1:]]
        assert all(b <= a + 1e-12 for a, b in zip(objs, objs[1:]))

    def test_missing_input_is_usage_error(self, tmp_path):
        assert main(["optimize", "--covariates", str(tmp_path / "none.csv"),
                     "--arms", "3"]) == 2

    def test_bad_norm_is_usage_error(self, covariates):
        assert main(["optimize", "--covariates", str(covariates), "--arms", "3",
                     "--norm", "banana"]) == 2

    def test_negative_step_size_is_usage_error(self, covariates, tmp_path):
        out = tmp_path / "out"
        assert main(["optimize", "--covariates", str(covariates), "--arms", "3",
                     "--step-size", "-0.1", "--iters", "3", "--out-dir", str(out)]) == 2
        assert not out.exists()

    def test_large_contrast_weights(self, covariates, tmp_path):
        # the objective map is sum_k w_k^2 f_k: ten times the contrast is about
        # 100 times the objective (the default step 0.1 / (1 + A max|f'|) is
        # not scale-free), and the run, table included, must still succeed
        initial = []
        for contrast in ("1,-1,0", "10,-10,0"):
            out = tmp_path / contrast
            code = main(["optimize", "--covariates", str(covariates), "--arms", "3",
                         "--contrast", contrast, "--iters", "5", "--out-dir", str(out)])
            assert code == 0
            trace = (out / "trace.csv").read_text().strip().splitlines()
            initial.append(float(trace[1].split(",")[1]))
        assert initial[1] == pytest.approx(100 * initial[0], rel=1e-3)

    def test_sixteen_arm_operator_norm_prints_no_overflow(self, tmp_path):
        # a fresh process, so stderr shows exactly what a user sees
        path = tmp_path / "cov20.csv"
        np.savetxt(path, np.random.default_rng(2).standard_normal((20, 2)), delimiter=",")
        src = str(Path(gaussdesign.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
        proc = subprocess.run(
            [sys.executable, "-m", "gaussdesign.cli", "optimize", "--covariates", str(path),
             "--arms", "16", "--norm", "op", "--iters", "3",
             "--out-dir", str(tmp_path / "out")],
            env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "overflow" not in proc.stderr

    def test_arithmetic_error_is_compute_error(self, covariates, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise FloatingPointError("overflow in step")

        monkeypatch.setattr("gaussdesign.cli.pgd_gauss", fail)
        code = main(["optimize", "--covariates", str(covariates), "--arms", "3"])
        assert code == 3
        assert "overflow in step" in capsys.readouterr().err

    def test_continuous_objective(self, covariates, tmp_path):
        out = tmp_path / "cont"
        code = main(["optimize", "--covariates", str(covariates), "--continuous",
                     "--weight", "first_derivative:0,1", "--y0-slope", "-0.004",
                     "--y0-intercept", "1.0", "--iters", "10",
                     "--out-dir", str(out)])
        assert code == 0
        assert (out / "factor.csv").exists()


class TestSampleCommand:
    def test_columns_and_determinism(self, tmp_path):
        fpath = tmp_path / "factor.csv"
        save_factor(fpath, identity_factor(4))
        out1, out2 = tmp_path / "d1.csv", tmp_path / "d2.csv"
        for out in (out1, out2):
            code = main(["sample", "--factor", str(fpath), "--draws", "2",
                         "--seed", "9", "--discretize", "2", "--out", str(out)])
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
        header = out1.read_text().splitlines()[0]
        assert header == "unit,rep,T,D"
        assert len(out1.read_text().strip().splitlines()) == 1 + 2 * 4

    def test_rescale_bounds(self, tmp_path):
        fpath = tmp_path / "factor.csv"
        save_factor(fpath, identity_factor(3))
        out = tmp_path / "d.csv"
        main(["sample", "--factor", str(fpath), "--draws", "50", "--seed", "1",
              "--rescale", "0", "250", "--out", str(out)])
        vals = np.loadtxt(out, delimiter=",", skiprows=1)
        assert np.mean((vals[:, -1] >= 0) & (vals[:, -1] <= 250)) > 0.99

    def test_invalid_factor_rejected(self, tmp_path):
        fpath = tmp_path / "bad.csv"
        np.savetxt(fpath, np.array([[1.0, 1.5], [1.5, 1.0]]), delimiter=",")
        assert main(["sample", "--factor", str(fpath), "--draws", "2"]) == 2

    def test_one_row_off_unit_norm_is_input_error(self, tmp_path, capsys):
        # the row is 2e-9 off in squared norm: inside the elliptope check's
        # 1e-8 diagonal tolerance, outside the factor's 1e-12 row check
        rows = identity_factor(3).rows.copy()
        rows[1, 1] = 1.0 + 1e-9
        fpath, out = tmp_path / "factor.csv", tmp_path / "d.csv"
        elliptope.save_matrix(fpath, rows)
        code = main(["sample", "--factor", str(fpath), "--draws", "2", "--out", str(out)])
        assert code == 2
        assert "unit norm" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n", [1, 2, 800])
    @pytest.mark.parametrize("K,rescale", [(None, None), (3, None), (None, (-2.0, 5.0)),
                                           (5, (0.0, 250.0))])
    def test_bytes_match_per_cell_writer(self, tmp_path, n, K, rescale):
        fpath = tmp_path / "factor.csv"
        save_factor(fpath, factor_from_rows(np.random.default_rng(n).standard_normal((n, 4))))
        B = 3 if n == 800 else 9
        options = ([] if K is None else ["--discretize", str(K)]) \
            + ([] if rescale is None else ["--rescale", *map(str, rescale)])
        out = tmp_path / "draws.csv"
        assert main(["sample", "--factor", str(fpath), "--draws", str(B), "--seed", "11",
                     *options, "--out", str(out)]) == 0
        draws = elliptope.sample(load_factor(fpath), B, 11).draws
        ref = tmp_path / "reference.csv"
        _per_cell_draws_csv(
            ref, draws, None if K is None else discretize(draws, quantile_thresholds(K)),
            None if rescale is None else rescale_treatment(draws, *rescale))
        assert out.read_bytes() == ref.read_bytes()


def _per_cell_draws_csv(path, draws, arms, rescaled):
    """The draws CSV as `sample` wrote it before the batched writer: one
    f-string per cell."""
    cols = ["unit", "rep", "T"] + (["D"] if arms is not None else []) \
        + (["T_rescaled"] if rescaled is not None else [])
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for b_idx in range(draws.shape[0]):
            for i in range(draws.shape[1]):
                row = [str(i + 1), str(b_idx + 1), f"{draws[b_idx, i]:.17g}"]
                if arms is not None:
                    row.append(str(int(arms[b_idx, i])))
                if rescaled is not None:
                    row.append(f"{rescaled[b_idx, i]:.17g}")
                fh.write(",".join(row) + "\n")


class TestEstimateCommand:
    def test_arm_estimate(self, records, capsys):
        assert main(["estimate", "--records", str(records),
                     "--estimand", "arm:1", "--arms", "3"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("arm_1,")

    def test_contrast_estimate(self, records, tmp_path, capsys):
        out = tmp_path / "est.csv"
        assert main(["estimate", "--records", str(records),
                     "--estimand", "contrast:1,-1,0", "--arms", "3",
                     "--out", str(out)]) == 0
        assert out.read_text().startswith("estimand,value\n")

    def test_bad_estimand(self, records):
        assert main(["estimate", "--records", str(records),
                     "--estimand", "banana"]) == 2

    def test_ragged_row_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "ragged.csv"
        path.write_text("unit,T,D,Y,x1\n1,0.1,1,0.5,0.3\n2,0.2,2,1.0\n")
        assert main(["estimate", "--records", str(path),
                     "--estimand", "arm:1", "--arms", "2"]) == 2
        assert ":3: 4 fields, but the header has 5" in capsys.readouterr().err

    def test_non_finite_covariate_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "nan.csv"
        path.write_text("unit,T,D,Y,x1\n1,,1,0.5,0.3\n2,,2,1.0,nan\n")
        assert main(["estimate", "--records", str(path),
                     "--estimand", "arm:1", "--arms", "2"]) == 2
        assert "non-finite" in capsys.readouterr().err


class TestCiCommand:
    def test_normal_ci(self, records, tmp_path, capsys):
        fpath = tmp_path / "factor.csv"
        save_factor(fpath, identity_factor(12))
        assert main(["ci", "--records", str(records), "--factor", str(fpath),
                     "--method", "normal", "--estimand", "arm:1",
                     "--arms", "3"]) == 0
        row = capsys.readouterr().out.strip()
        assert row.startswith("normal,arm_1,")

    def test_randomization_ci_deterministic(self, records, tmp_path, capsys):
        fpath = tmp_path / "factor.csv"
        save_factor(fpath, identity_factor(12))
        args = ["ci", "--records", str(records), "--factor", str(fpath),
                "--method", "randomization", "--estimand", "contrast:1,-1,0",
                "--arms", "3", "--replicates", "200", "--seed", "4"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_guard_exit_code_mentions_joint_probability(self, tmp_path, capsys):
        # antithetic pair recorded in the same arm: joint probability 0
        fpath = tmp_path / "factor.csv"
        np.savetxt(fpath, np.array([[1.0], [-1.0]]), delimiter=",")
        rpath = tmp_path / "records.csv"
        records_to_csv(rpath, ExperimentRecords(Y=np.ones(2), D=np.array([1, 1])))
        code = main(["ci", "--records", str(rpath), "--factor", str(fpath),
                     "--method", "normal", "--estimand", "arm:1", "--arms", "2"])
        assert code == 3
        assert "joint probability" in capsys.readouterr().err

    def test_negative_variance_estimate_is_compute_error(self, tmp_path, capsys):
        # equal outcomes on a strongly anti-correlated pair in one arm: the
        # unbiased estimate is -3.764...
        fpath = tmp_path / "factor.csv"
        np.savetxt(fpath, np.array([[1.0, 0.0], [-0.8, 0.6]]), delimiter=",")
        rpath = tmp_path / "records.csv"
        records_to_csv(rpath, ExperimentRecords(Y=np.ones(2), D=np.array([1, 1])))
        code = main(["ci", "--records", str(rpath), "--factor", str(fpath),
                     "--method", "normal", "--estimand", "arm:1", "--arms", "2"])
        assert code == 3
        err = capsys.readouterr().err
        assert "negative" in err and "-3.764" in err

    def test_linalg_error_is_compute_error(self, records, tmp_path, monkeypatch, capsys):
        def fail(*args):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr("gaussdesign.cli.variance_ht_arm", fail)
        fpath = tmp_path / "factor.csv"
        save_factor(fpath, identity_factor(12))
        code = main(["ci", "--records", str(records), "--factor", str(fpath),
                     "--method", "normal", "--estimand", "arm:1", "--arms", "3"])
        assert code == 3
        assert "SVD did not converge" in capsys.readouterr().err

    @pytest.mark.parametrize("method,estimand", [("normal", "arm:1"),
                                                 ("randomization", "contrast:1,-1,0")])
    def test_ragged_row_is_input_error(self, tmp_path, capsys, method, estimand):
        rpath = tmp_path / "ragged.csv"
        rpath.write_text("unit,T,D,Y,x1\n1,0.1,1,0.5,0.3\n2,0.2,2,1.0\n3,0.3,3,2.0,0.1\n")
        fpath = tmp_path / "factor.csv"
        save_factor(fpath, identity_factor(3))
        assert main(["ci", "--records", str(rpath), "--factor", str(fpath),
                     "--method", method, "--estimand", estimand, "--arms", "3",
                     "--replicates", "200"]) == 2
        assert ":3: 4 fields, but the header has 5" in capsys.readouterr().err

    @pytest.mark.parametrize("method,estimand", [("normal", "arm:1"),
                                                 ("randomization", "contrast:1,-1,0")])
    def test_non_finite_covariate_is_input_error(self, records, tmp_path, capsys,
                                                 method, estimand):
        # the records fixture with one covariate replaced by nan
        lines = records.read_text().splitlines()
        fields = lines[5].split(",")
        fields[-1] = "nan"
        lines[5] = ",".join(fields)
        rpath = tmp_path / "nan.csv"
        rpath.write_text("\n".join(lines) + "\n")
        fpath = tmp_path / "factor.csv"
        save_factor(fpath, identity_factor(12))
        assert main(["ci", "--records", str(rpath), "--factor", str(fpath),
                     "--method", method, "--estimand", estimand, "--arms", "3",
                     "--replicates", "200"]) == 2
        assert "covariates X contain non-finite values" in capsys.readouterr().err

    def test_continuous_randomization(self, tmp_path, capsys):
        gen = np.random.default_rng(5)
        n = 15
        t = gen.standard_normal(n)
        X = gen.standard_normal((n, 2))
        rec = ExperimentRecords(Y=X @ [1.0, 0.5] + 0.3 * t, X=X, T=t)
        rpath = tmp_path / "records.csv"
        records_to_csv(rpath, rec)
        fpath = tmp_path / "factor.csv"
        save_factor(fpath, identity_factor(n))
        assert main(["ci", "--records", str(rpath), "--factor", str(fpath),
                     "--method", "randomization", "--estimand", "continuous",
                     "--weight", "first_derivative", "--model", "1,x,t",
                     "--replicates", "150", "--seed", "2"]) == 0


class TestSimulateCommand:
    def test_config_driven_run(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("generator = factorial\ndesigns = cr\n"
                       "replicates = 200\nseed = 1\n")
        out = tmp_path / "report.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("scenario,design,estimand,mse,")
        assert len(lines) == 4  # header + three estimands

    def test_unknown_key_fails_closed(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("generator = factorial\nbanana = 1\n")
        assert main(["simulate", "--config", str(cfg)]) == 2

    def test_flag_overrides(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("generator = factorial\ndesigns = cr\nreplicates = 100\n")
        out1 = tmp_path / "r1.csv"
        assert main(["simulate", "--config", str(cfg), "--replicates", "150",
                     "--seed", "2", "--out", str(out1)]) == 0
        assert ",150" in out1.read_text()


class TestCovmapTableCommand:
    def test_grid_rows(self, tmp_path):
        out = tmp_path / "tab.csv"
        assert main(["covmap-table", "--arms", "3", "--arm", "1",
                     "--grid", "101", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "rho,f,f_prime"
        assert len(lines) == 102
        first = lines[1].split(",")
        assert float(first[0]) == -1.0
        assert first[2] == "inf"
        # endpoint value is the analytic limit
        assert float(first[1]) == pytest.approx(f_arm(3, 1).eval(-1.0), abs=1e-12)

    def test_full_precision_round_trip(self, tmp_path):
        out = tmp_path / "tab.csv"
        main(["covmap-table", "--arms", "2", "--arm", "1", "--grid", "11",
              "--out", str(out)])
        mid = out.read_text().strip().splitlines()[6].split(",")
        rho, f = float(mid[0]), float(mid[1])
        assert f == f_arm(2, 1).eval(rho)  # 17 significant digits survive

    def test_cross_map(self, tmp_path):
        out = tmp_path / "tab.csv"
        assert main(["covmap-table", "--arms", "3", "--cross", "1,2",
                     "--grid", "21", "--out", str(out)]) == 0

    @pytest.mark.parametrize("options,cmap", [
        (["--arm", "2"], lambda: f_arm(3, 2)),
        (["--cross", "1,3"], lambda: f_cross(3, 1, 3)),
        (["--weights", "1,-1,0.5"], lambda: weighted_discrete_map(np.array([1.0, -1.0, 0.5]), 3)),
    ])
    def test_bytes_match_per_cell_writer(self, tmp_path, options, cmap):
        out = tmp_path / "tab.csv"
        assert main(["covmap-table", "--arms", "3", *options, "--grid", "101",
                     "--out", str(out)]) == 0
        ref = tmp_path / "reference.csv"
        _per_cell_covmap_table(ref, cmap(), 101)
        assert out.read_bytes() == ref.read_bytes()


def _per_cell_covmap_table(path, cmap, grid_size):
    """The covmap-table CSV as it was written before the batched writer: one
    f-string per cell, and 'inf' spelled out for f' at the endpoints."""
    grid = np.linspace(-1.0, 1.0, grid_size)
    f_vals = cmap.eval(grid)
    interior = np.abs(grid) < 1.0
    d_vals = np.full(grid.shape, np.inf)
    d_vals[interior] = cmap.deriv(grid[interior])
    with open(path, "w") as fh:
        fh.write("rho,f,f_prime\n")
        for r, f, d in zip(grid, f_vals, d_vals):
            fh.write(f"{r:.17g},{f:.17g},{'inf' if np.isinf(d) else f'{d:.17g}'}\n")
