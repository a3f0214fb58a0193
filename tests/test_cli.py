import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import beamwander
from beamwander import arma, channel, cli, ingest, stats
from beamwander.cli import main

TABLE_MODEL = {
    "c": 0.0,
    "ar": [1.759, -0.7626],
    "ma": [-1.289, 0.3166],
    "sigma2": 2150.0,
    "sample_period_s": 1 / 300,
    "units": "um",
}


@pytest.fixture
def model_path(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(TABLE_MODEL))
    return str(path)


def run(tmp_path, *argv, sub="out"):
    out = tmp_path / sub
    return main(["--out-dir", str(out), *argv]), out


def read_lines(path):
    with open(path) as fh:
        return fh.read().splitlines()


def write_overflowing_trace(tmp_path, scale):
    """A 400-row N(0,1) * scale trace, whose squares overflow at 1e160 and
    whose sum of squares underflows to zero at 1e-165."""
    xs, ys = np.random.default_rng(0).normal(size=(2, 400)) * scale
    trace = tmp_path / "trace.csv"
    ingest.write_trace(ingest.WanderTrace(xs=xs, ys=ys, sample_period=0.01),
                       str(trace))
    return str(trace)


def failed_cleanly_fresh(tmp_path, named, *argv, error="ValueError", timeout=120):
    """Runs argv in a fresh interpreter and expects exit 1 within timeout
    seconds, no stdout, one `error: <error>:` line ending in `named`, and no
    file in the output directory. A fresh interpreter, because pytest turns
    warnings into errors (which main would print as one line) and LAPACK
    prints its complaints on the process's own stdout."""
    out = tmp_path / "out"
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(beamwander.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "beamwander.cli", "--out-dir", str(out), *argv],
        capture_output=True, text=True, env=env, timeout=timeout)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [f"error: {error}: {named}"]
    assert list(out.iterdir()) == []


def failed_cleanly(code, out, capsys, *named):
    """Exit 1, one `error:` line naming each of `named`, and no file in the
    output directory."""
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    for text in named:
        assert text in err[0]
    assert list(out.iterdir()) == []


class TestTheory:
    def test_values_and_manifest(self, tmp_path, capsys):
        code, out = run(tmp_path, "theory", "--cn2", "1e-14", "--L", "1000",
                        "--omega0", "0.02", "--wind", "5", "--r0", "0.018")
        assert code == 0
        result = json.loads((out / "theory.json").read_text())
        assert result["greenwood_hz"] == pytest.approx(0.43 * 5 / 0.018, rel=1e-12)
        assert result["rc_var"] > 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "theory"
        assert manifest["generator"] == "numpy.random.PCG64"
        assert "theory.json" in manifest["outputs"]
        assert json.loads(capsys.readouterr().out)["rc_var"] == result["rc_var"]

    def test_csv_format(self, tmp_path):
        code, out = run(tmp_path, "--format", "csv", "theory", "--cn2", "1e-14",
                        "--L", "1000", "--omega0", "0.02")
        assert code == 0
        lines = read_lines(out / "theory.csv")
        assert lines[0] == "quantity,value"
        assert any(line.startswith("rc_var,") for line in lines)

    @pytest.mark.parametrize("argv, named", [
        (["--wind", "-1"], "wind_speed must be >= 0"),
        (["--r0", "0"], "r0 must be positive"),
    ], ids=["wind_negative", "r0_zero"])
    def test_bad_wind_or_r0_fails_cleanly(self, tmp_path, capsys, argv, named):
        code, out = run(tmp_path, "theory", "--cn2", "1e-14", "--L", "1000",
                        "--omega0", "0.02", *argv)
        failed_cleanly(code, out, capsys, named)

    def test_overflow_fails_cleanly(self, tmp_path, capsys):
        code, out = run(tmp_path, "theory", "--cn2", "1e10", "--L", "1e100",
                        "--omega0", "0.01", "--omega-st", "1")
        failed_cleanly(code, out, capsys, "rc_var_general", "omega_lt")
        assert capsys.readouterr().out == ""


class TestSimulate:
    def test_outputs_and_determinism(self, tmp_path, model_path):
        code, out1 = run(tmp_path, "--seed", "7", "simulate", "--model",
                         model_path, "--n", "500", "--omega-st", "105.0",
                         sub="a")
        assert code == 0
        code, out2 = run(tmp_path, "--seed", "7", "simulate", "--model",
                         model_path, "--n", "500", "--omega-st", "105.0",
                         sub="b")
        assert code == 0
        for name in ("trace.csv", "fading.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_seed_changes_data(self, tmp_path, model_path):
        _, out1 = run(tmp_path, "--seed", "7", "simulate", "--model",
                      model_path, "--n", "200", "--omega-st", "105.0", sub="a")
        _, out2 = run(tmp_path, "--seed", "8", "simulate", "--model",
                      model_path, "--n", "200", "--omega-st", "105.0", sub="b")
        assert (out1 / "trace.csv").read_bytes() != (out2 / "trace.csv").read_bytes()

    def test_intensities_in_unit_interval(self, tmp_path, model_path):
        _, out = run(tmp_path, "simulate", "--model", model_path, "--n", "400",
                     "--omega-st", "105.0")
        vals = [float(l.split(",")[1]) for l in read_lines(out / "fading.csv")[1:]]
        assert all(0.0 <= v <= 1.0 for v in vals)

    def test_crosstalk_columns(self, tmp_path, model_path):
        _, out = run(tmp_path, "simulate", "--model", model_path, "--n", "50",
                     "--omega-st", "105.0", "--l-max", "5")
        header = read_lines(out / "crosstalk.csv")[0].split(",")
        assert header[:2] == ["t_s", "r_c_norm"]
        assert header[2:] == [f"C_{l}" for l in range(-5, 6)]
        row = [float(v) for v in read_lines(out / "crosstalk.csv")[1].split(",")]
        assert sum(row[2:]) < 1.0 + 1e-9

    @pytest.mark.parametrize("argv, named", [
        (["--omega-st", "0"], "omega_st must be positive"),
        (["--omega-st", "1", "--l-max", "-1"], "l_max must be >= 0"),
        (["--omega-st", "1e-6", "--l-max", "2"], "beam radii"),
    ], ids=["omega_st_zero", "l_max_negative", "beyond_bessel_range"])
    def test_failure_leaves_no_artifacts(self, tmp_path, capsys, argv, named):
        path = tmp_path / "ar1.json"
        path.write_text('{"c": 0, "ar": [0.5], "ma": [], "sigma2": 1}')
        code, out = run(tmp_path, "simulate", "--model", str(path), "--n", "50",
                        *argv)
        failed_cleanly(code, out, capsys, named)

    def test_n_zero_fails(self, tmp_path, model_path, capsys):
        code, out = run(tmp_path, "simulate", "--model", model_path, "--n", "0",
                        "--omega-st", "105.0")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert not (out / "manifest.json").exists()


class TestFit:
    def test_fit_recovers_simulated_model(self, tmp_path, model_path):
        _, sim = run(tmp_path, "--seed", "3", "simulate", "--model", model_path,
                     "--n", "4000", "--omega-st", "105.0", sub="sim")
        code, out = run(tmp_path, "fit", "--trace", str(sim / "trace.csv"),
                        "--p", "2", "--q", "2", "--fix-c", sub="fit")
        assert code == 0
        fitted = json.loads((out / "model.json").read_text())
        assert fitted["ar"] == pytest.approx(TABLE_MODEL["ar"], abs=0.15)
        assert fitted["units"] == "um"
        assert fitted["sample_period_s"] == pytest.approx(1 / 300, rel=1e-9)
        report = json.loads((out / "fit_report.json").read_text())
        assert report["converged"] and report["stationary"]
        diag = json.loads((out / "diagnostics.json").read_text())
        assert set(diag) >= {"ljung_box_q", "ljung_box_critical", "passed"}
        acf_lines = read_lines(out / "acf.csv")
        assert acf_lines[0] == "lag,value,bound"
        assert len(acf_lines) == 22  # header + lags 0..20
        # one band, from one function, reaches every file that carries it
        bound = stats.significance_bound(4000)
        for name in ("acf.csv", "pacf.csv"):
            assert [float(line.split(",")[2])
                    for line in read_lines(out / name)[1:]] == [bound] * 21
        assert diag["significance_bound"] == bound

    def test_scan_writes_grid(self, tmp_path, model_path):
        _, sim = run(tmp_path, "--seed", "3", "simulate", "--model", model_path,
                     "--n", "1500", "--omega-st", "105.0", sub="sim")
        code, out = run(tmp_path, "fit", "--trace", str(sim / "trace.csv"),
                        "--scan", "2", "2", "--fix-c", sub="scan")
        assert code == 0
        lines = read_lines(out / "scan.csv")
        assert lines[0] == "p,q,css,aic,bic,converged,stationary,invertible"
        assert len(lines) == 10  # header + 3x3 grid
        assert (out / "model.json").exists()
        report = json.loads((out / "fit_report.json").read_text())
        row = next(r for r in (line.split(",") for line in lines[1:])
                   if (int(r[0]), int(r[1])) == (report["p"], report["q"]))
        assert (report["css"], report["bic"]) == (float(row[2]), float(row[4]))

    @pytest.mark.parametrize("order", [["--p", "2", "--q", "2"], ["--scan", "2", "2"]],
                             ids=["single", "scan"])
    def test_model_carries_trace_period_and_units(self, tmp_path, model_path, order):
        _, sim = run(tmp_path, "--seed", "3", "simulate", "--model", model_path,
                     "--n", "1500", "--omega-st", "105.0", sub="sim")
        code, out = run(tmp_path, "fit", "--trace", str(sim / "trace.csv"),
                        *order, "--fix-c", sub="fit")
        assert code == 0
        fitted = json.loads((out / "model.json").read_text())
        assert fitted["units"] == "um"
        assert fitted["sample_period_s"] == pytest.approx(1 / 300, rel=1e-9)

    def test_estimated_c_of_offset_model(self, tmp_path, model_path):
        # c = 3 puts the process mean near 833, about 13 sigma from zero; the
        # demeaned fit recovers c and passes its own residuals' diagnostics
        model = tmp_path / "model_c3.json"
        model.write_text(json.dumps({**TABLE_MODEL, "c": 3.0}))
        _, sim = run(tmp_path, "--seed", "5", "simulate", "--model", str(model),
                     "--n", "3000", "--omega-st", "105.0", sub="sim")
        code, out = run(tmp_path, "fit", "--trace", str(sim / "trace.csv"),
                        "--p", "2", "--q", "2", sub="fit")
        assert code == 0
        fitted = strict_json(out / "model.json")
        report = strict_json(out / "fit_report.json")
        assert report["estimate_c"] and len(report["stderr"]) == 5
        assert abs(fitted["c"] - 3.0) <= 3 * report["stderr"][0]
        assert strict_json(out / "diagnostics.json")["passed"]

    def test_constant_trace_fails_before_fit(self, tmp_path, capsys):
        trace = tmp_path / "flat.csv"
        rows = ["t_s,x,y"] + [f"{i * 0.01},1.0,1.0" for i in range(100)]
        trace.write_text("\n".join(rows) + "\n")
        code, out = run(tmp_path, "fit", "--trace", str(trace))
        assert code == 1
        assert "error: " in capsys.readouterr().err
        assert not (out / "model.json").exists()

    def test_singular_covariance_writes_null_stderr(self, tmp_path, capsys, inputs,
                                                   monkeypatch):
        def singular(a):
            raise np.linalg.LinAlgError("singular matrix")
        monkeypatch.setattr(np.linalg, "inv", singular)
        code, out = run(tmp_path, "fit", "--trace", inputs["trace"])
        assert code == 0, capsys.readouterr().err
        assert strict_json(out / "fit_report.json")["stderr"] == [None] * 5

    def test_too_short_leaves_no_artifacts(self, tmp_path, capsys):
        trace = tmp_path / "short.csv"
        rows = ["t_s,x,y"] + [f"{i * 0.01},{(i * 7) % 5},1.0" for i in range(40)]
        trace.write_text("\n".join(rows) + "\n")
        code, out = run(tmp_path, "fit", "--trace", str(trace))
        failed_cleanly(code, out, capsys, "series too short")

    @pytest.mark.parametrize("scale, named", [
        (1e160, "series overflows: its sum of squares is not finite"),
        (1e100, "residuals overflow: their fourth moment is not finite"),
        (1e-100, "residuals underflow: the square of their variance is zero"),
        (1e-165, "series underflows: its sum of squares is zero"),
        (1e-80, "residuals underflow: the square of their variance is subnormal"),
    ], ids=["sum_of_squares", "fourth_moment", "variance_underflow",
            "sum_of_squares_underflow", "variance_subnormal"])
    def test_overflowing_trace_fails_cleanly(self, tmp_path, scale, named):
        failed_cleanly_fresh(tmp_path, named, "fit", "--trace",
                             write_overflowing_trace(tmp_path, scale),
                             "--p", "1", "--q", "0")

    @pytest.mark.parametrize("seed, offset", [(6, 0.0), (1, 5.0)], ids=["6", "1+5"])
    @pytest.mark.parametrize("fix_c", [True, False], ids=["fix_c", "estimate_c"])
    def test_overflowing_normal_equations_fail_cleanly(self, tmp_path, seed, offset,
                                                       fix_c):
        # every sum of squares is finite at 2^500, but 1/theta(B) amplifies the
        # Gauss-Newton regressors past the float range; given the overflowed
        # normal equations, LAPACK printed on stdout and, at seed 6 with c
        # fixed, did not return
        model = arma.ArmaModel.from_dict(TABLE_MODEL)
        xs = (arma.simulate(model, 3000, seed=seed) + offset) * 2.0**500
        trace = tmp_path / "trace.csv"
        ingest.write_trace(ingest.WanderTrace(xs=xs, ys=xs, sample_period=1 / 300),
                           str(trace))
        failed_cleanly_fresh(tmp_path, "normal equations are not finite",
                             "fit", "--trace", str(trace), "--p", "2", "--q", "2",
                             *(["--fix-c"] if fix_c else []),
                             error="LinAlgError", timeout=60)

    def test_scan_of_an_overflowing_css_names_the_residuals(self, tmp_path):
        # the (0,0) cell's css, 1.29e308, is finite while 2 pi css is not; its
        # log-likelihood read -inf and the scan failed with "no admissible
        # fits". The scan now selects (3,0), whose residuals' fourth moment
        # overflows in the diagnostics
        model = arma.ArmaModel.from_dict(TABLE_MODEL)
        xs = arma.simulate(model, 3000, seed=6) * 2.0**500
        trace = tmp_path / "trace.csv"
        ingest.write_trace(ingest.WanderTrace(xs=xs, ys=xs, sample_period=1 / 300),
                           str(trace))
        failed_cleanly_fresh(tmp_path,
                             "residuals overflow: their fourth moment is not finite",
                             "fit", "--trace", str(trace), "--scan", "3", "3", "--fix-c",
                             timeout=60)


class TestAnalyze:
    def test_hand_checked_rld(self, tmp_path, capsys):
        fading = tmp_path / "fading.csv"
        vals = [0.9, 0.8, 0.1, 0.2, 0.3, 0.7]
        rows = ["t_s,intensity"] + [f"{i * 0.01},{v}" for i, v in enumerate(vals)]
        fading.write_text("\n".join(rows) + "\n")
        code, out = run(tmp_path, "analyze", "--fading", str(fading),
                        "--threshold", "0.5")
        assert code == 0
        rld = {}
        for line in read_lines(out / "rld.csv")[1:]:
            side, length, count = line.split(",")
            rld[(side, int(length))] = int(count)
        assert rld == {("above", 2): 1, ("above", 1): 1, ("below", 3): 1}
        summary = json.loads((out / "summary.json").read_text())
        assert summary["max_run_length_below"] == 3
        assert "gamma_hat" not in summary  # only 6 samples
        assert json.loads(capsys.readouterr().out)["threshold"] == 0.5

    def test_zero_threshold_all_above(self, tmp_path):
        fading = tmp_path / "fading.csv"
        fading.write_text("t_s,intensity\n" + "".join(
            f"{i * 0.01},{0.2 + 0.1 * (i % 5)}\n" for i in range(12)))
        code, out = run(tmp_path, "analyze", "--fading", str(fading),
                        "--threshold", "0")
        assert code == 0
        assert read_lines(out / "rld.csv") == ["side,run_length,count", "above,12,1"]
        summary = json.loads((out / "summary.json").read_text())
        assert summary["max_run_length_above"] == 12
        assert summary["max_run_length_below"] == 0

    def rejected_at_line(self, tmp_path, capsys, rows, line):
        fading = tmp_path / "fading.csv"
        fading.write_text("t_s,intensity\n" + "".join(f"{r}\n" for r in rows))
        code, out = run(tmp_path, "analyze", "--fading", str(fading))
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert str(fading) in err[0] and f"line {line}" in err[0]
        assert list(out.iterdir()) == []  # rejected before anything is written

    def test_spacing_gap_rejected(self, tmp_path, capsys):
        times = [0.0, 0.01, 0.02, 0.03, 0.04, 0.53, 0.54]
        self.rejected_at_line(tmp_path, capsys,
                              [f"{t},0.5" for t in times], line=7)

    def test_short_row_rejected(self, tmp_path, capsys):
        self.rejected_at_line(tmp_path, capsys,
                              ["0.0,0.5", "0.01,0.6", "0.02", "0.03,0.4"], line=4)

    def test_nan_intensity_rejected(self, tmp_path, capsys):
        self.rejected_at_line(tmp_path, capsys,
                              ["0.0,0.5", "0.01,nan", "0.02,0.6"], line=3)

    def test_one_bin_leaves_no_artifacts(self, tmp_path, capsys):
        fading = tmp_path / "fading.csv"
        fading.write_text("t_s,intensity\n" + "".join(
            f"{i * 0.01},{0.5 + 0.1 * (i % 3)}\n" for i in range(20)))
        code, out = run(tmp_path, "analyze", "--fading", str(fading),
                        "--bins", "1")
        failed_cleanly(code, out, capsys, "bin_count")

    def test_overflowing_trace_fails_cleanly(self, tmp_path):
        # before anything is written: no warning, no rld.csv or pdf.csv
        fading = tmp_path / "fading.csv"
        fading.write_text("t_s,intensity\n" + "".join(
            f"{i * 0.01},{0.5 + 0.01 * (i % 7)}\n" for i in range(50)))
        failed_cleanly_fresh(tmp_path, "trace overflows: its radial variance is not finite",
                             "analyze", "--fading", str(fading), "--trace",
                             write_overflowing_trace(tmp_path, 1e160))

    @pytest.mark.parametrize("scale, named", [
        (1e200, "intensities out of range: their scintillation index is not finite"),
        (1.7e308, "intensities overflow: their mean is not finite"),
    ], ids=["square_overflow", "mean_overflow"])
    def test_overflowing_fading_fails_cleanly(self, tmp_path, scale, named):
        # every value is finite; their squares, or at 1.7e308 their sum, are not
        fading = tmp_path / "fading.csv"
        fading.write_text("t_s,intensity\n" + "".join(
            f"{i * 0.01},{(0.5 + 0.01 * (i % 7)) * scale!r}\n" for i in range(50)))
        failed_cleanly_fresh(tmp_path, named, "analyze", "--fading", str(fading))

    @pytest.mark.parametrize("values", [
        [0.3] * 50,
        [0.3] * 49 + [0.3 + 100 * math.ulp(0.3)],
        [3.3] * 50,
        [0.3] * 49 + [0.3 + math.ulp(0.3)],
    ], ids=["constant", "ulps_apart", "constant_above_one", "one_ulp_apart"])
    def test_rounding_level_index_is_zero(self, tmp_path, capsys, values):
        # <I^2>/<I>^2 - 1 rounds below zero on each (-4.4e-16 for 0.3),
        # constant or not, and summary.json carries its square root. A
        # range of 1 ulp holds no 50 bins: pdf.csv widens it as numpy
        # widens the constant file's.
        fading = tmp_path / "fading.csv"
        fading.write_text("t_s,intensity\n" + "".join(
            f"{i * 0.01},{v!r}\n" for i, v in enumerate(values)))
        code, out = run(tmp_path, "analyze", "--fading", str(fading))
        assert code == 0 and capsys.readouterr().err == ""  # warnings are errors here
        summary = strict_json(out / "summary.json")
        assert summary["scintillation_index"] == 0.0
        assert summary["scintillation_index_sqrt"] == 0.0

    @pytest.mark.parametrize("value", [0.3, 0.2770888466262316],
                             ids=["index_rounds_to_zero", "index_rounds_above_zero"])
    def test_constant_file_does_not_fade(self, tmp_path, capsys, value):
        # np.mean of 50 x 0.3 rounds to 0.30000000000000004, above every
        # sample, so the "mean" threshold is clipped back into the values.
        # Intensities that do not fade give index 0 and no gamma_hat, also
        # where <I^2>/<I>^2 - 1 rounds to 2.2e-16 (the second value)
        fading = tmp_path / "fading.csv"
        fading.write_text("t_s,intensity\n" + "".join(
            f"{i * 0.01},{value!r}\n" for i in range(50)))
        code, out = run(tmp_path, "analyze", "--fading", str(fading))
        assert code == 0 and capsys.readouterr().err == ""  # warnings are errors here
        summary = strict_json(out / "summary.json")
        assert summary["threshold"] == value
        assert summary["scintillation_index"] == 0.0
        assert summary["max_run_length_above"] == 50
        assert summary["max_run_length_below"] == 0
        assert "gamma_hat" not in summary
        assert read_lines(out / "rld.csv") == ["side,run_length,count", "above,50,1"]

    def test_gamma_hat_recovery(self, tmp_path, model_path):
        _, sim = run(tmp_path, "--seed", "11", "simulate", "--model", model_path,
                     "--n", "20000", "--omega-st", "105.21191045333147",
                     sub="sim")
        code, out = run(tmp_path, "analyze", "--fading",
                        str(sim / "fading.csv"), sub="an")
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["gamma_hat"] == pytest.approx(0.7, abs=0.1)
        assert summary["scintillation_index"] > 0


class TestCrosstalk:
    def test_from_trace(self, tmp_path, model_path):
        _, sim = run(tmp_path, "simulate", "--model", model_path, "--n", "40",
                     "--omega-st", "105.0", sub="sim")
        code, out = run(tmp_path, "crosstalk", "--trace",
                        str(sim / "trace.csv"), "--omega-st", "105.0",
                        "--l-max", "3", sub="ct")
        assert code == 0
        lines = read_lines(out / "crosstalk.csv")
        assert len(lines) == 41
        assert len(lines[0].split(",")) == 2 + 7

    def test_same_bytes_as_simulate(self, tmp_path, model_path):
        # simulate --l-max and crosstalk each build their own time axis
        _, sim = run(tmp_path, "simulate", "--model", model_path, "--n", "2000",
                     "--omega-st", "105.0", "--l-max", "3", sub="sim")
        code, out = run(tmp_path, "crosstalk", "--trace",
                        str(sim / "trace.csv"), "--omega-st", "105.0",
                        "--l-max", "3", sub="ct")
        assert code == 0
        assert (out / "crosstalk.csv").read_bytes() == \
            (sim / "crosstalk.csv").read_bytes()

    def test_mirrored_columns_share_text(self, tmp_path, model_path):
        _, sim = run(tmp_path, "simulate", "--model", model_path, "--n", "1500",
                     "--omega-st", "105.0", sub="sim")
        code, out = run(tmp_path, "crosstalk", "--trace", str(sim / "trace.csv"),
                        "--omega-st", "105.0", "--l-max", "4", sub="ct")
        assert code == 0
        header, *rows = read_lines(out / "crosstalk.csv")
        at = {name: i for i, name in enumerate(header.split(","))}
        for line in rows:
            fields = line.split(",")
            for l in range(1, 5):
                assert fields[at[f"C_{-l}"]] == fields[at[f"C_{l}"]]

    def test_table_passes_one_object_per_mode_pair(self):
        r_norm, weights = channel.crosstalk_trace([0.3, 1.0, 2.5], [0.1, -0.4, 0.0],
                                                  1.0, 3)
        assert weights.shape == (3, 4)  # C_0..C_3
        header, columns = cli._crosstalk_table(np.arange(3.0), r_norm, weights)
        assert header[2:] == [f"C_{l}" for l in range(-3, 4)]
        by_name = dict(zip(header, columns))
        for l in range(1, 4):
            assert by_name[f"C_{-l}"] is by_name[f"C_{l}"]
        assert np.array_equal(np.column_stack(columns[2:]),
                              np.concatenate((weights[:, :0:-1], weights), axis=1))


    def test_overflowing_trace_fails_cleanly(self, tmp_path):
        # the squared offset overflows to inf without a RuntimeWarning
        failed_cleanly_fresh(tmp_path, "sample 0: offset of inf beam radii, beyond the "
                             "Bessel kernel's 32768; are the trace and omega_st in the "
                             "same units?",
                             "crosstalk", "--trace", write_overflowing_trace(tmp_path, 1e160),
                             "--omega-st", "1.0")


class TestCompare:
    def test_deterministic_and_summed(self, tmp_path, model_path, capsys):
        code, out1 = run(tmp_path, "--seed", "5", "compare", "--model",
                         model_path, "--gamma", "0.7", "--n", "2000",
                         "--seeds", "2", "--omega-st", "105.21191045333147",
                         sub="a")
        assert code == 0
        comp = json.loads((out1 / "comparison.json").read_text())
        assert comp["seeds"] == 2 and len(comp["per_seed"]) == 2
        assert 0 <= comp["arma_longer_max_run_count"] <= 2
        total = 0
        for line in read_lines(out1 / "rld_arma.csv")[1:]:
            _, length, count = line.split(",")
            total += int(length) * int(count)
        assert total == 2 * 2000
        capsys.readouterr()
        code, out2 = run(tmp_path, "--seed", "5", "compare", "--model",
                         model_path, "--gamma", "0.7", "--n", "2000",
                         "--seeds", "2", "--omega-st", "105.21191045333147",
                         sub="b")
        assert (out1 / "comparison.json").read_bytes() == \
            (out2 / "comparison.json").read_bytes()

    def test_tables_match_loop_count(self, tmp_path, model_path):
        n, omega_st, tail = 600, 105.21191045333147, 8
        code, out = run(tmp_path, "--seed", "3", "compare", "--model", model_path,
                        "--gamma", "0.7", "--n", str(n), "--seeds", "3",
                        "--omega-st", str(omega_st), "--tail-length", str(tail))
        assert code == 0
        model = arma.ArmaModel.from_dict(TABLE_MODEL)
        seeds = cli._axis_seeds(3, 9)
        counts = {key: {"above": {}, "below": {}} for key in ("arma", "memoryless")}
        per_seed = []
        for i in range(3):
            sx, sy, sm = seeds[3 * i:3 * i + 3]
            traces = {"arma": channel.fading_trace(arma.simulate(model, n, seed=sx),
                                                   arma.simulate(model, n, seed=sy),
                                                   omega_st),
                      "memoryless": channel.memoryless_sample(0.7, n, seed=sm)}
            longest = {}
            for key, series in traces.items():
                threshold = float(np.mean(series))
                runs = []  # [side, length] of each maximal run, in time order
                for v in series.tolist():
                    side = "above" if v >= threshold else "below"
                    if runs and runs[-1][0] == side:
                        runs[-1][1] += 1
                    else:
                        runs.append([side, 1])
                for side, length in runs:
                    counts[key][side][length] = counts[key][side].get(length, 0) + 1
                longest[key] = max(length for _, length in runs)
            per_seed.append({"seed_index": i, "arma_max_run": longest["arma"],
                             "memoryless_max_run": longest["memoryless"]})
        for key in counts:
            want = ["side,run_length,count"] + [
                f"{side},{length},{c}" for side in ("above", "below")
                for length, c in sorted(counts[key][side].items())]
            assert read_lines(out / f"rld_{key}.csv") == want
        comp = json.loads((out / "comparison.json").read_text())
        assert comp["per_seed"] == per_seed
        for key in counts:
            assert comp[f"{key}_tail_count"] == sum(
                c for side in counts[key].values() for length, c in side.items()
                if length >= tail)


class TestIngest:
    def test_frames_csv_roundtrip(self, tmp_path):
        frames = tmp_path / "frames.csv"
        lines = ["3,3"]
        for cx in (0, 1, 2):
            g = np.zeros((3, 3))
            g[1, cx] = 5.0
            lines.append(",".join(str(v) for v in g.ravel()))
        frames.write_text("\n".join(lines) + "\n")
        code, out = run(tmp_path, "ingest", "--frames", str(frames),
                        "--fps", "300")
        assert code == 0
        from beamwander import ingest as ing
        tr = ing.read_trace(str(out / "trace.csv"))
        assert np.allclose(tr.xs, [-1.0, 0.0, 1.0])
        assert tr.sample_period == pytest.approx(1 / 300, rel=1e-9)
        assert tr.units == "pixels"

    @pytest.mark.parametrize("depth", [8, 16])
    def test_frames_csv_and_pgm_write_the_same_trace(self, tmp_path, depth):
        # the CSV's integer counts read as uint16, the PGM files' as
        # uint8 or uint16; both give the same bytes
        rng = np.random.default_rng(depth)
        counts = rng.integers(0, 2**depth, size=(30, 6, 9)).astype(f"u{depth // 8}")
        with open(tmp_path / "frames.csv", "w") as fh:
            fh.write("6,9\n")
            for frame in counts.reshape(30, -1).tolist():
                fh.write(",".join(map(str, frame)) + "\n")
        (tmp_path / "pgm").mkdir()
        for i, frame in enumerate(counts):
            (tmp_path / "pgm" / f"f{i:02d}.pgm").write_bytes(
                b"P5 9 6 %d\n" % (2**depth - 1) + frame.astype(">u%d" % (depth // 8)).tobytes())
        for sub, frames in (("csv", "frames.csv"), ("pgm", "pgm")):
            code, _ = run(tmp_path, "ingest", "--frames", str(tmp_path / frames),
                          "--fps", "300", "--threshold-fraction", "0.2", sub=sub)
            assert code == 0
        for name in ("trace.csv", "trace.csv.json"):
            assert (tmp_path / "csv" / name).read_bytes() == \
                (tmp_path / "pgm" / name).read_bytes()

    def test_missing_rate_fails(self, tmp_path, capsys):
        frames = tmp_path / "frames.csv"
        frames.write_text("1,1\n1.0\n1.0\n")
        code, _ = run(tmp_path, "ingest", "--frames", str(frames))
        assert code == 1
        assert "sample-period" in capsys.readouterr().err


    @pytest.mark.parametrize("rate, named", [
        (["--sample-period", "inf"], "--sample-period"),
        (["--sample-period", "nan"], "--sample-period"),
        (["--fps", "0"], "--fps"),
        (["--fps", "inf"], "--fps"),
        (["--fps", "nan"], "--fps"),
    ], ids=["period_inf", "period_nan", "fps_zero", "fps_inf", "fps_nan"])
    def test_bad_rate_fails_cleanly(self, tmp_path, capsys, rate, named):
        frames = tmp_path / "frames.csv"
        frames.write_text("1,2\n1.0,0.0\n0.0,1.0\n1.0,1.0\n")
        code, out = run(tmp_path, "ingest", "--frames", str(frames), *rate)
        failed_cleanly(code, out, capsys, named)

    def rejected_frames(self, tmp_path, capsys, frames, named):
        code, out = run(tmp_path, "ingest", "--frames", str(frames), "--fps", "300")
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert named in err[0]
        assert not (out / "trace.csv").exists()

    @pytest.mark.parametrize("second", [
        b"P5\n2 x\n255\n" + bytes([1] * 4),      # non-numeric size token
        b"P5\n2 2\n0\n" + bytes([1] * 4),        # maxval 0
        b"P5\n2 2\n70000\n" + bytes([1] * 8),    # maxval above 65535
        b"P5\n0 2\n255\n",                      # width 0
        b"P5\n2 3\n255\n" + bytes([1] * 6),      # shape differs from the first
    ], ids=["non_numeric", "maxval_0", "maxval_70000", "width_0", "mixed_shapes"])
    def test_bad_pgm_named(self, tmp_path, capsys, second):
        frames = tmp_path / "pgm"
        frames.mkdir()
        (frames / "f0.pgm").write_bytes(b"P5\n2 2\n255\n" + bytes([1] * 4))
        (frames / "f1.pgm").write_bytes(second)
        self.rejected_frames(tmp_path, capsys, frames, str(frames / "f1.pgm"))

    def test_negative_pixel_frame_named(self, tmp_path, capsys):
        frames = tmp_path / "frames.csv"
        frames.write_text("2,2\n1,0,0,0\n0,0,-1,1\n")
        self.rejected_frames(tmp_path, capsys, frames, "frame 1")


class TestModelFile:
    """A model JSON that cannot describe a model fails with one `error:`
    line naming the file, before anything is written."""

    @pytest.mark.parametrize("text, named", [
        ('{"c": 0.0, "ar": [0.5], "ma": [], "sigma2": 1.0, '
         '"sample_period_s": Infinity}', "sample_period_s"),
        ('{"ar": [0.5], "ma": [], "sigma2": 1.0}', "'c'"),
        ('{"c": 0.0, "ar": "0.5", "ma": [], "sigma2": 1.0}', "ar must be a list"),
        ('{"c": 0.0, "ar": [NaN], "ma": [], "sigma2": 1.0}', "ar[0]"),
        ('{"c": 0.0, "ar": [], "ma": [], "sigma2": Infinity}', "sigma2"),
        ('{"c": 0.0, "ar": [], "ma": [true], "sigma2": 1.0}', "ma[0]"),
        ('{"c": 0.0, "ar": [], "ma": [], "sigma2": 1.0, "units": 3}', "units"),
        ('[0.5]', "JSON object"),
        ('{"c": 0.0,', "Expecting"),
    ], ids=["infinite_period", "no_c", "ar_string", "ar_nan", "sigma2_inf",
            "ma_bool", "units_number", "not_object", "truncated"])
    @pytest.mark.parametrize("command", [
        ["simulate", "--n", "50", "--omega-st", "3.0"],
        ["compare", "--gamma", "0.7", "--n", "50"],
    ], ids=["simulate", "compare"])
    def test_bad_model_named(self, tmp_path, capsys, text, named, command):
        path = tmp_path / "model.json"
        path.write_text(text)
        code, out = run(tmp_path, command[0], "--model", str(path), *command[1:])
        failed_cleanly(code, out, capsys, str(path), named)

    def test_missing_file_named(self, tmp_path, capsys):
        path = tmp_path / "absent.json"
        code, out = run(tmp_path, "simulate", "--model", str(path), "--n", "5",
                        "--omega-st", "3.0")
        failed_cleanly(code, out, capsys, str(path))


class TestOverflowingModel:
    """A model whose series is about 6.5e299, so that its squared offsets
    overflow. Intensity is then 0, the far-beam limit; pytest makes any
    warning an error, which main would print as the one `error:` line."""

    @pytest.fixture
    def big_model(self, tmp_path):
        path = tmp_path / "big.json"
        path.write_text('{"c": 1e300, "ar": [-0.5287], "ma": [0.135, -0.0877], '
                        '"sigma2": 1.0}')
        return str(path)

    def test_simulate_fades_to_zero(self, tmp_path, capsys, big_model):
        code, out = run(tmp_path, "simulate", "--model", big_model, "--n", "50",
                        "--omega-st", "1.0")
        assert code == 0
        assert capsys.readouterr().err == ""
        fading = ingest.read_csv(str(out / "fading.csv"), cli.FADING_HEADER)
        assert fading.shape == (50, 2) and (fading[:, 1] == 0.0).all()

    def test_compare_runs(self, tmp_path, capsys, big_model):
        code, out = run(tmp_path, "compare", "--model", big_model, "--gamma", "0.7",
                        "--n", "50", "--seeds", "2", "--omega-st", "1.0")
        assert code == 0
        assert capsys.readouterr().err == ""
        assert json.loads((out / "comparison.json").read_text())["seeds"] == 2

    def test_crosstalk_of_it_refused(self, tmp_path, capsys, big_model):
        code, out = run(tmp_path, "simulate", "--model", big_model, "--n", "50",
                        "--omega-st", "1.0", "--l-max", "2")
        failed_cleanly(code, out, capsys, "ValueError: sample 0: offset of inf beam radii")

    @pytest.mark.parametrize("omega_st", ["1e-200", "1e200"])
    def test_omega_st_without_finite_square_refused(self, tmp_path, capsys, model_path,
                                                    omega_st):
        code, out = run(tmp_path, "simulate", "--model", model_path,
                        "--n", "50", "--omega-st", omega_st)
        failed_cleanly(code, out, capsys, "omega_st must have a finite, non-zero square")


class TestInputBytes:
    """Undecodable bytes and a malformed trace sidecar fail with one
    `error:` line naming the offending file, before anything is written."""

    def test_fading_not_utf8(self, tmp_path, capsys):
        fading = tmp_path / "fading.csv"
        fading.write_bytes(b"t_s,intensity\n0.0,0.5\n0.01,\xff\n")
        code, out = run(tmp_path, "analyze", "--fading", str(fading))
        failed_cleanly(code, out, capsys, f"ValueError: {fading}: ")

    def test_frames_not_utf8(self, tmp_path, capsys):
        frames = tmp_path / "frames.csv"
        frames.write_bytes(b"2,2\n\xff,0,0,0\n")
        code, out = run(tmp_path, "ingest", "--frames", str(frames), "--fps", "1")
        failed_cleanly(code, out, capsys, f"ValueError: {frames}: not UTF-8")

    @staticmethod
    def trace_csv(tmp_path):
        trace = tmp_path / "trace.csv"
        rows = ["t_s,x,y"] + [f"{i * 0.01},{(i * 7) % 5},1.0" for i in range(200)]
        trace.write_text("\n".join(rows) + "\n")
        return trace

    def test_trace_not_utf8(self, tmp_path, capsys):
        trace = self.trace_csv(tmp_path)
        trace.write_bytes(trace.read_bytes() + b"2.0,\xff,1.0\n")
        code, out = run(tmp_path, "fit", "--trace", str(trace))
        failed_cleanly(code, out, capsys, f"ValueError: {trace}: not UTF-8")

    @pytest.mark.parametrize("sidecar, named", [
        (b"{bad", "Expecting"),
        (b"[1,2]", "JSON object"),
        (b'{"units": 5}', "units must be a string"),
    ], ids=["truncated", "list", "units_number"])
    def test_bad_sidecar_named(self, tmp_path, capsys, sidecar, named):
        trace = self.trace_csv(tmp_path)
        path = tmp_path / "trace.csv.json"
        path.write_bytes(sidecar)
        code, out = run(tmp_path, "fit", "--trace", str(trace))
        failed_cleanly(code, out, capsys, f"ValueError: {path}: ", named)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Paths, by name, of a model JSON, a CSV-of-frames, and a simulated
    trace (with sidecar) and fading CSV."""
    d = tmp_path_factory.mktemp("inputs")
    (d / "model.json").write_text(json.dumps(TABLE_MODEL))
    (d / "frames.csv").write_text("2,2\n1,0,0,0\n0,1,0,0\n0,0,1,1\n")
    assert main(["--out-dir", str(d), "--seed", "4", "simulate", "--model",
                 str(d / "model.json"), "--n", "1000", "--omega-st", "105.0"]) == 0
    return {name: str(d / f"{name}.{ext}") for name, ext in (
        ("model", "json"), ("frames", "csv"), ("trace", "csv"), ("fading", "csv"))}


def fill(argv, inputs):
    return [a.format(**inputs) for a in argv]


THEORY = ["theory", "--cn2", "1e-14", "--L", "100", "--omega0", "0.01"]
FRAMES = ["ingest", "--frames", "{frames}", "--fps", "1"]


class TestOptionRange:
    """A float option that is not finite, an analyze threshold that is
    neither 'mean' nor a finite number, and an ingest pixel pitch or
    threshold fraction out of range fail with one `error:` line naming the
    option, before anything is written."""

    @pytest.mark.parametrize("argv, named", [
        (["theory", "--cn2", "inf", "--L", "100", "--omega0", "0.01"],
         "--cn2 must be finite, got inf"),
        (["theory", "--cn2", "1e-14", "--L", "inf", "--omega0", "0.01"], "--L "),
        (["theory", "--cn2", "1e-14", "--L", "100", "--omega0", "inf"], "--omega0 "),
        (THEORY + ["--kappa0", "inf"], "--kappa0 "),
        (THEORY + ["--wind", "nan"], "--wind must be finite, got nan"),
        (THEORY + ["--r0", "inf"], "--r0 "),
        (THEORY + ["--omega-st", "inf"], "--omega-st must be finite, got inf"),
        (["simulate", "--model", "{model}", "--n", "50", "--omega-st", "inf"],
         "--omega-st "),
        (["crosstalk", "--trace", "{trace}", "--omega-st", "inf"], "--omega-st "),
        (["compare", "--model", "{model}", "--gamma", "0.7", "--n", "50",
          "--omega-st", "inf"], "--omega-st "),
        (["compare", "--model", "{model}", "--gamma", "inf", "--n", "50"], "--gamma "),
        (["analyze", "--fading", "{fading}", "--threshold", "nan"], "--threshold "),
        (["analyze", "--fading", "{fading}", "--threshold", "high"], "--threshold "),
        (FRAMES + ["--threshold-fraction", "nan"], "--threshold-fraction "),
        (FRAMES + ["--threshold-fraction", "2"], "threshold_fraction must lie in [0, 1]"),
        (FRAMES + ["--pixel-pitch", "-1"], "pixel_pitch must be positive"),
        (FRAMES + ["--sample-period", "0.5"], "give --sample-period or --fps, not both"),
        (["fit", "--trace", "{trace}", "--p", "-1"], "p and q must be >= 0, got p=-1"),
        (["fit", "--trace", "{trace}", "--p", "1", "--q", "-2"],
         "p and q must be >= 0, got p=1, q=-2"),
        (["simulate", "--model", "{model}", "--n", "1", "--omega-st", "105.0"],
         "--n must be >= 2, got 1"),
        (["compare", "--model", "{model}", "--gamma", "0.7", "--n", "50",
          "--tail-length", "0"], "--tail-length must be >= 1, got 0"),
    ], ids=["theory_cn2", "theory_L", "theory_omega0", "theory_kappa0",
            "theory_wind", "theory_r0", "theory_omega_st", "simulate_omega_st",
            "crosstalk_omega_st", "compare_omega_st", "compare_gamma",
            "analyze_threshold_nan", "analyze_threshold_word",
            "ingest_threshold_nan", "ingest_threshold_2", "ingest_pitch",
            "ingest_fps_and_period",
            "fit_p_negative", "fit_q_negative", "simulate_n_one",
            "compare_tail_length_zero"])
    def test_rejected(self, tmp_path, capsys, inputs, argv, named):
        code, out = run(tmp_path, *fill(argv, inputs))
        failed_cleanly(code, out, capsys, named)


def strict_json(path):
    """The JSON in the file at path; NaN and Infinity are rejected."""
    def reject(name):
        raise ValueError(f"{path}: {name} is not JSON")
    return json.loads(path.read_text(), parse_constant=reject)


class TestWriterContract:
    """On valid inputs --out-dir holds exactly the manifest's outputs plus
    manifest.json, the outputs keep each command's order, and every JSON
    file is strict JSON."""

    @pytest.mark.parametrize("argv, outputs", [
        (THEORY + ["--wind", "5", "--r0", "0.018", "--omega-st", "0.01"],
         ["theory.json"]),
        (["--format", "csv", *THEORY, "--kappa0", "2"], ["theory.csv"]),
        (["simulate", "--model", "{model}", "--n", "300", "--omega-st", "105.0"],
         ["trace.csv", "trace.csv.json", "fading.csv"]),
        (["simulate", "--model", "{model}", "--n", "300", "--omega-st", "105.0",
          "--l-max", "2"],
         ["trace.csv", "trace.csv.json", "fading.csv", "crosstalk.csv"]),
        (["fit", "--trace", "{trace}"],
         ["acf.csv", "pacf.csv", "model.json", "fit_report.json", "diagnostics.json"]),
        (["fit", "--trace", "{trace}", "--scan", "2", "2", "--fix-c"],
         ["acf.csv", "pacf.csv", "scan.csv", "model.json", "fit_report.json",
          "diagnostics.json"]),
        (["analyze", "--fading", "{fading}", "--trace", "{trace}"],
         ["rld.csv", "pdf.csv", "summary.json"]),
        (["crosstalk", "--trace", "{trace}", "--omega-st", "105.0"], ["crosstalk.csv"]),
        (["compare", "--model", "{model}", "--gamma", "0.7", "--n", "300",
          "--seeds", "2"], ["rld_arma.csv", "rld_memoryless.csv", "comparison.json"]),
        (FRAMES + ["--pixel-pitch", "1e-5"], ["trace.csv", "trace.csv.json"]),
    ], ids=["theory", "theory_csv", "simulate", "simulate_l_max", "fit", "fit_scan",
            "analyze", "crosstalk", "compare", "ingest"])
    def test_outputs(self, tmp_path, capsys, inputs, argv, outputs):
        code, out = run(tmp_path, *fill(argv, inputs))
        assert code == 0, capsys.readouterr().err
        manifest = strict_json(out / "manifest.json")
        assert manifest["outputs"] == outputs
        assert sorted(os.listdir(out)) == sorted(outputs + ["manifest.json"])
        for name in outputs:
            if name.endswith(".json"):
                strict_json(out / name)


class TestManifest:
    def test_records_inputs_and_params(self, tmp_path, model_path):
        _, out = run(tmp_path, "--seed", "9", "simulate", "--model", model_path,
                     "--n", "50", "--omega-st", "105.0")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 9
        assert manifest["inputs"] == [model_path]
        assert manifest["params"]["n"] == 50
        assert manifest["version"]
        assert "timestamp" in manifest

    def test_unknown_command_exits_nonzero(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["--out-dir", str(tmp_path), "frobnicate"])
