import numpy as np
import pytest

from gaussdesign.cli import main, parse_config
from gaussdesign.covmap import f_arm
from gaussdesign.elliptope import identity_factor, load_factor, load_matrix, save_factor
from gaussdesign.estimators import ExperimentRecords, records_to_csv


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
