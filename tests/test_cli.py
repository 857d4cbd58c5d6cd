import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import gaussdesign
from gaussdesign import elliptope
from gaussdesign.cli import main, parse_config
from gaussdesign.covmap import (discretize, f_arm, f_cross, quantile_thresholds,
                                weighted_discrete_map)
from gaussdesign.elliptope import factor_from_rows, identity_factor, load_factor, save_factor
from gaussdesign.estimators import (EstimandSpec, ExperimentRecords, WeightFn, ht_contrast,
                                    records_from_csv, records_to_csv, rescale_treatment)
from gaussdesign.inference import aronow_samii_bound, normal_ci


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
    def test_writes_factor_and_trace_with_monotone_trace(self, covariates, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["optimize", "--covariates", str(covariates), "--arms", "3",
                     "--iters", "30", "--out-dir", str(out)])
        assert code == 0
        assert load_factor(out / "factor.csv").n == 18
        # V V^T is not written: nothing reads it, and it is n^2 values of text
        assert sorted(p.name for p in out.iterdir()) == ["factor.csv", "trace.csv"]
        trace = (out / "trace.csv").read_text().strip().splitlines()
        assert trace[0] == "iteration,objective,eta,grad_norm,halvings"
        objs = [float(line.split(",")[1]) for line in trace[1:]]
        assert all(b <= a + 1e-12 for a, b in zip(objs, objs[1:]))

    def test_missing_input_is_usage_error(self, tmp_path):
        assert main(["optimize", "--covariates", str(tmp_path / "none.csv"),
                     "--arms", "3"]) == 2

    def test_numeric_first_row_of_another_width_is_usage_error(self, tmp_path, capsys):
        # a first row that parses as numbers is data, not a header to skip
        path = tmp_path / "cov.csv"
        path.write_text("0.5,0.25\n1,2,3\n4,5,6\n7,8,9\n")
        assert main(["optimize", "--covariates", str(path), "--arms", "2", "--iters", "1",
                     "--out-dir", str(tmp_path / "out")]) == 2
        assert "number of columns changed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_header_line_is_skipped(self, tmp_path):
        path = tmp_path / "cov.csv"
        path.write_text("x1,x2,x3\n1,2,3\n4,5,6\n7,8,9\n")
        out = tmp_path / "out"
        assert main(["optimize", "--covariates", str(path), "--arms", "2", "--iters", "1",
                     "--normalize-rows", "--out-dir", str(out)]) == 0
        assert load_factor(out / "factor.csv").n == 3

    def test_bad_norm_is_usage_error(self, covariates):
        assert main(["optimize", "--covariates", str(covariates), "--arms", "3",
                     "--norm", "banana"]) == 2

    def test_negative_step_size_is_usage_error(self, covariates, tmp_path):
        out = tmp_path / "out"
        assert main(["optimize", "--covariates", str(covariates), "--arms", "3",
                     "--step-size", "-0.1", "--iters", "3", "--out-dir", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("step", ["nan", "inf", "-inf"])
    def test_non_finite_step_size_is_usage_error(self, covariates, tmp_path, capsys, step):
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["optimize", "--covariates", str(covariates), "--arms", "3",
                         f"--step-size={step}", "--iters", "3", "--out-dir", str(out)])
        assert code == 2
        assert "error: step size must be finite and nonnegative" in capsys.readouterr().err
        assert [str(w.message) for w in caught] == []
        assert not out.exists()

    @pytest.mark.parametrize("arms", ["0", "-2", "1", "65"])
    def test_arm_count_out_of_range_is_usage_error(self, covariates, tmp_path, capsys, arms):
        out = tmp_path / "out"
        assert main(["optimize", "--covariates", str(covariates), f"--arms={arms}",
                     "--iters", "1", "--out-dir", str(out)]) == 2
        assert (f"error: arm count K = {arms} outside supported range [2, 64]"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("contrast", ["1,x,0", "1,-1", "1,-1,0,0", ""])
    def test_bad_contrast_list_names_the_flag(self, covariates, tmp_path, capsys, contrast):
        out = tmp_path / "out"
        assert main(["optimize", "--covariates", str(covariates), "--arms", "3",
                     f"--contrast={contrast}", "--iters", "1", "--out-dir", str(out)]) == 2
        assert (f"error: --contrast needs 3 comma-separated float values, got {contrast!r}"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("zero_row", [False, True])
    def test_huge_step_size_does_not_overflow(self, covariates, tmp_path, capsys, zero_row):
        # each step is alpha rows - beta G V, alpha = 1 / (1 + eta) and
        # beta = eta / (1 + eta), so no finite step overflows (rows - eta G V
        # did, and its rows failed the unit-norm check); a zero covariate row,
        # whose row of G is zero, keeps a finite first-step norm (alpha^2
        # underflows at this step, so the norm is hypot(alpha, beta ||G_i||))
        if zero_row:
            X = np.loadtxt(covariates, delimiter=",")
            X[3] = 0.0
            covariates = tmp_path / "zero_row.csv"
            np.savetxt(covariates, X, delimiter=",")
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["optimize", "--covariates", str(covariates), "--arms", "3",
                         "--step-size", "1e200", "--iters", "3", "--out-dir", str(out)])
        err = capsys.readouterr().err
        assert "factor rows must have unit norm" not in err
        assert code == 0, err
        assert [str(w.message) for w in caught if "overflow" in str(w.message)] == []
        # the zero row's alpha v_i is about 1e-200, whose squares underflow:
        # it is measured scaled, not reported as collapsed
        assert [str(w.message) for w in caught if "collapsed" in str(w.message)] == []
        assert load_factor(out / "factor.csv").n == 18

    @pytest.mark.parametrize("scale", [1e200, 1e-170])
    def test_normalize_rows_of_extreme_scale(self, covariates, tmp_path, capsys, scale):
        # the rows' squares overflow (1e200: the rows became zeros and the
        # identity was written) or underflow (1e-170: "zero covariate row");
        # measured scaled, the rows are the unscaled rows to rounding
        X = np.loadtxt(covariates, delimiter=",")
        scaled = tmp_path / "scaled.csv"
        np.savetxt(scaled, X * scale, delimiter=",", fmt="%.17g")
        traces = []
        for path, out in ((covariates, tmp_path / "plain"), (scaled, tmp_path / "scaled")):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main(["optimize", "--covariates", str(path), "--arms", "3",
                             "--normalize-rows", "--iters", "3", "--out-dir", str(out)])
            assert code == 0, capsys.readouterr().err
            assert [str(w.message) for w in caught] == []
            traces.append(np.loadtxt(out / "trace.csv", delimiter=",", skiprows=1, ndmin=2))
        assert traces[1].shape == (3, 5)
        np.testing.assert_allclose(traces[1], traces[0], rtol=1e-12, atol=0)

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

    def test_out_of_memory_is_compute_error(self, covariates, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise MemoryError("Unable to allocate 11.9 GiB for an array with shape "
                              "(40000, 40000) and data type float64")

        monkeypatch.setattr("gaussdesign.cli.pgd_gauss", fail)
        code = main(["optimize", "--covariates", str(covariates), "--arms", "3"])
        assert code == 3
        err = capsys.readouterr().err
        assert "error: out of memory: Unable to allocate 11.9 GiB" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("norm", ["nuc", "op"])
    def test_non_finite_contrast_is_usage_error(self, covariates, tmp_path, capsys, norm):
        out = tmp_path / "out"
        assert main(["optimize", "--covariates", str(covariates), "--arms", "3",
                     "--norm", norm, "--contrast", "inf,1,0", "--iters", "2",
                     "--out-dir", str(out)]) == 2
        assert "weights must be finite" in capsys.readouterr().err
        assert not out.exists()

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

    def test_zero_draws_is_input_error(self, tmp_path, capsys):
        fpath, out = tmp_path / "factor.csv", tmp_path / "d.csv"
        save_factor(fpath, identity_factor(3))
        assert main(["sample", "--factor", str(fpath), "--draws", "0", "--out", str(out)]) == 2
        assert "need at least one draw" in capsys.readouterr().err
        assert not out.exists()

    def test_draws_are_written_chunk_by_chunk(self, tmp_path, monkeypatch):
        # B x n draws would take 8 MB, and as much again per optional column;
        # one chunk of them and its temporaries take about 3.3 MB.  The writer
        # is stubbed: tracing its per-cell Python objects takes about 10 s,
        # and it holds at most one replicate's rows at a time.
        n, B = 500, 2000
        fpath, out = tmp_path / "factor.csv", tmp_path / "d.csv"
        save_factor(fpath, factor_from_rows(np.random.default_rng(0).standard_normal((n, 7))))
        rows = []
        monkeypatch.setattr("gaussdesign.cli.write_rows",
                            lambda fh, row_format, columns: rows.append(len(columns[2])))
        tracemalloc.start()
        try:
            code = main(["sample", "--factor", str(fpath), "--draws", str(B), "--seed", "1",
                         "--discretize", "3", "--rescale", "0", "1", "--out", str(out)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert rows == [n] * B
        assert peak < B * n * 8 / 2


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

    @pytest.mark.parametrize("arms", ["0", "-2", "1", "65"])
    @pytest.mark.parametrize("estimand", ["arm:1", "contrast:1,-1,0"])
    def test_arm_count_out_of_range_is_usage_error(self, records, capsys, arms, estimand):
        # the message optimize gives, not an arm index or weight count error
        assert main(["estimate", "--records", str(records), "--estimand", estimand,
                     f"--arms={arms}"]) == 2
        assert (f"error: arm count K = {arms} outside supported range [2, 64]"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("weights", ["1,x,0", "1,-1"])
    def test_bad_contrast_estimand_list_names_the_flag(self, records, capsys, weights):
        assert main(["estimate", "--records", str(records), "--estimand",
                     f"contrast:{weights}", "--arms", "3"]) == 2
        assert ("error: --estimand contrast needs 3 comma-separated float values, "
                f"got {weights!r}") in capsys.readouterr().err

    @pytest.mark.parametrize("options,spec", [
        (["arm:2"], EstimandSpec.arm(2, 3)),
        (["contrast:1,-1,0.5"], EstimandSpec.contrast([1.0, -1.0, 0.5], 3)),
        (["continuous", "--weight", "interval:-0.5,1"],
         EstimandSpec.continuous(WeightFn.interval(-0.5, 1.0))),
        (["continuous", "--weight", "first_derivative:0.2,1.5"],
         EstimandSpec.continuous(WeightFn.first_derivative(0.2, 1.5))),
        (["continuous", "--weight", "second_derivative"],
         EstimandSpec.continuous(WeightFn.second_derivative()))],
        ids=["arm", "contrast", "interval", "first_derivative", "second_derivative"])
    def test_prints_the_library_estimate(self, tmp_path, capsys, options, spec):
        gen = np.random.default_rng(4)
        t = gen.standard_normal(30)
        path = tmp_path / "records.csv"
        records_to_csv(path, ExperimentRecords(Y=gen.standard_normal(30), T=t,
                                               D=discretize(t, quantile_thresholds(3))))
        assert main(["estimate", "--records", str(path), "--arms", "3",
                     "--estimand", *options]) == 0
        value = spec.estimate(records_from_csv(path))
        assert capsys.readouterr().out == f"{spec.label},{value:.17g}\n"

    @pytest.mark.parametrize("estimand", ["arm:1", "contrast:1,-1"])
    def test_header_only_records_is_input_error(self, tmp_path, capsys, estimand):
        path = tmp_path / "empty.csv"
        path.write_text("unit,T,D,Y\n")
        assert main(["estimate", "--records", str(path), "--estimand", estimand,
                     "--arms", "2"]) == 2
        assert "error: no experimental records" in capsys.readouterr().err

    @pytest.mark.parametrize("weight,message", [
        ("interval:1", "bad --weight spec 'interval:1'"),
        ("interval:1,x", "bad --weight spec 'interval:1,x'"),
        ("first_derivative:0,-1", "bad --weight spec 'first_derivative:0,-1'"),
        ("cubic", "unknown weight tag 'cubic'"),
        ("cubic:0,1", "unknown weight tag 'cubic'")])
    def test_bad_weight_is_usage_error(self, records, capsys, weight, message):
        assert main(["estimate", "--records", str(records), "--estimand", "continuous",
                     "--weight", weight]) == 2
        assert f"error: {message}" in capsys.readouterr().err

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


    @pytest.mark.parametrize("value", ["nan", "inf", ""])
    def test_non_finite_treatment_is_input_error(self, tmp_path, capsys, value):
        # an empty cell of a T column that is not empty throughout reads as nan
        path = tmp_path / "t.csv"
        path.write_text(f"unit,T,D,Y\n1,0.5,,1.0\n2,{value},,2.0\n3,-0.2,,0.5\n")
        assert main(["estimate", "--records", str(path), "--estimand", "continuous"]) == 2
        assert "treatments T contain non-finite values" in capsys.readouterr().err


class TestCiCommand:
    def test_normal_ci(self, records, tmp_path, capsys):
        fpath = tmp_path / "factor.csv"
        save_factor(fpath, identity_factor(12))
        assert main(["ci", "--records", str(records), "--factor", str(fpath),
                     "--method", "normal", "--estimand", "arm:1",
                     "--arms", "3"]) == 0
        row = capsys.readouterr().out.strip()
        assert row.startswith("normal,arm_1,")

    @pytest.mark.parametrize("estimand,w", [("contrast:1,-1,0", [1.0, -1.0, 0.0]),
                                            ("contrast:0.5,2,-1", [0.5, 2.0, -1.0]),
                                            ("arm:2", [0.0, 1.0, 0.0])])
    def test_normal_ci_is_the_library_interval(self, tmp_path, capsys, estimand, w):
        # arms and contrasts alike: normal_ci of aronow_samii_bound
        gen = np.random.default_rng(7)
        n = 40
        factor = factor_from_rows(gen.standard_normal((n, 4)))
        t = factor.rows @ gen.standard_normal(4)
        rec = ExperimentRecords(Y=gen.standard_normal(n) + 3.0, T=t,
                                D=discretize(t, quantile_thresholds(3)))
        rpath, fpath = tmp_path / "records.csv", tmp_path / "factor.csv"
        records_to_csv(rpath, rec)
        save_factor(fpath, factor)
        assert main(["ci", "--records", str(rpath), "--factor", str(fpath),
                     "--method", "normal", "--estimand", estimand, "--arms", "3",
                     "--alpha", "0.1"]) == 0
        fields = capsys.readouterr().out.strip().split(",")
        back = records_from_csv(rpath)
        point = ht_contrast(back, np.array(w), 3)
        bound = aronow_samii_bound(back, load_factor(fpath), np.array(w), 3)
        interval = normal_ci(point, bound.point, n, 0.1)
        assert fields[2:5] == [f"{x:.17g}" for x in (point, interval.lower, interval.upper)]

    def test_normal_ci_of_continuous_estimand_is_usage_error(self, tmp_path, capsys):
        t = np.random.default_rng(8).standard_normal(10)
        rpath, fpath = tmp_path / "records.csv", tmp_path / "factor.csv"
        records_to_csv(rpath, ExperimentRecords(Y=t + 1.0, T=t))
        save_factor(fpath, identity_factor(10))
        assert main(["ci", "--records", str(rpath), "--factor", str(fpath),
                     "--method", "normal", "--estimand", "continuous"]) == 2
        assert ("error: the normal CI needs an arm or contrast estimand"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("ids,line,bad", [((2, 1, 3), 2, "2"), ((1, 1, 3), 3, "1"),
                                              ((1, "nan", 3), 3, "nan")],
                             ids=["shuffled", "duplicate", "nan"])
    def test_unit_ids_out_of_order_are_input_error(self, tmp_path, capsys, ids, line, bad):
        # records pair with factor rows by position; ids other than 1..n in
        # file order would pair them wrongly
        body = "".join(f"{u},,{d},{y},{x}\n" for u, d, y, x in
                       zip(ids, (1, 2, 3), (0.5, 1.0, 2.0), (0.1, -0.3, 0.7)))
        rpath, fpath = tmp_path / "records.csv", tmp_path / "factor.csv"
        rpath.write_text("unit,T,D,Y,x1\n" + body)
        save_factor(fpath, identity_factor(3))
        assert main(["ci", "--records", str(rpath), "--factor", str(fpath),
                     "--method", "normal", "--estimand", "contrast:1,-1,0",
                     "--arms", "3"]) == 2
        assert (f"records.csv:{line}: unit id {bad!r}, expected {line - 1}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("arms", ["0", "-2", "1", "65"])
    def test_normal_ci_arm_count_out_of_range_is_usage_error(self, records, tmp_path,
                                                              capsys, arms):
        fpath = tmp_path / "factor.csv"
        save_factor(fpath, identity_factor(12))
        assert main(["ci", "--records", str(records), "--factor", str(fpath),
                     "--method", "normal", "--estimand", "arm:1", f"--arms={arms}"]) == 2
        assert (f"error: arm count K = {arms} outside supported range [2, 64]"
                in capsys.readouterr().err)

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

        monkeypatch.setattr("gaussdesign.cli.aronow_samii_bound", fail)
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

    @pytest.mark.parametrize("option", [["--replicates", "50"], ["--alpha", "1.5"]])
    def test_randomization_usage_error_exits_2(self, records, tmp_path, capsys, option):
        fpath = tmp_path / "factor.csv"
        save_factor(fpath, identity_factor(12))
        assert main(["ci", "--records", str(records), "--factor", str(fpath),
                     "--method", "randomization", "--estimand", "contrast:1,-1,0",
                     "--arms", "3", "--replicates", "200", *option]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_randomization_empty_arm_is_compute_error(self, tmp_path, capsys):
        gen = np.random.default_rng(3)
        rpath = tmp_path / "records.csv"
        records_to_csv(rpath, ExperimentRecords(Y=gen.standard_normal(6),
                                                X=gen.standard_normal((6, 2)),
                                                D=np.array([1, 2, 1, 2, 1, 2])))
        fpath = tmp_path / "factor.csv"
        save_factor(fpath, identity_factor(6))
        assert main(["ci", "--records", str(rpath), "--factor", str(fpath),
                     "--method", "randomization", "--estimand", "contrast:1,-1,0",
                     "--arms", "3", "--replicates", "200"]) == 3
        assert "no unit observed in arm 3" in capsys.readouterr().err

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

    @pytest.mark.parametrize("model,term", [("1,t,xt", "xt"), ("1,x,t", "x")])
    def test_covariate_term_without_covariates_is_usage_error(self, tmp_path, capsys,
                                                               model, term):
        t = np.random.default_rng(6).standard_normal(15)
        rpath = tmp_path / "records.csv"
        records_to_csv(rpath, ExperimentRecords(Y=0.3 * t, T=t))
        fpath = tmp_path / "factor.csv"
        save_factor(fpath, identity_factor(15))
        assert main(["ci", "--records", str(rpath), "--factor", str(fpath),
                     "--method", "randomization", "--estimand", "continuous",
                     "--model", model, "--replicates", "150"]) == 2
        assert f"model term {term!r} needs covariate columns" in capsys.readouterr().err


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

    def test_repeated_key_fails_closed(self, tmp_path, capsys):
        # the last value used to win: 200 replicates ran, exit 0
        cfg = tmp_path / "run.cfg"
        cfg.write_text("generator = factorial\ndesigns = cr\nreplicates = 100\n"
                       "# again\nreplicates = 200\n")
        out = tmp_path / "report.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert (f"{cfg}:5: key 'replicates' repeated (first set on line 3)"
                in capsys.readouterr().err)
        assert not out.exists()

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

    @pytest.mark.parametrize("flag,value,want", [
        ("--weights", "1,x,0.5", "3 comma-separated float values"),
        ("--weights", "1,-1", "3 comma-separated float values"),
        ("--cross", "1", "2 comma-separated int values"),
        ("--cross", "1,x", "2 comma-separated int values"),
        ("--cross", "1.5,2", "2 comma-separated int values"),
    ])
    def test_bad_list_names_the_flag(self, tmp_path, capsys, flag, value, want):
        out = tmp_path / "tab.csv"
        assert main(["covmap-table", "--arms", "3", flag, value, "--out", str(out)]) == 2
        assert f"error: {flag} needs {want}, got {value!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("options", [["--weights", "1,2"], ["--cross", "1,2"]])
    def test_arm_count_out_of_range_is_usage_error(self, tmp_path, capsys, options):
        # the message optimize gives, not a weight count error
        assert main(["covmap-table", "--arms=-2", *options, "--out", str(tmp_path / "t.csv")]) == 2
        assert "error: arm count K = -2 outside supported range [2, 64]" in capsys.readouterr().err

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
