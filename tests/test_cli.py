import json
import subprocess
import sys

import numpy as np
import pytest

from pabfit.cli import main, optimum_thickness_scan
from pabfit.dataio import report_csv_path
from pabfit.errors import InvalidInput
from pabfit.expmodel import ExpModelParams
from pabfit.gp import GpHyperParams, gp_fit


def run_cli(*argv):
    return main(list(argv))


class TestFitKinetics:
    def test_bundled_fixture_by_name(self, tmp_path, capsys):
        out = tmp_path / "kin.json"
        code = run_cli("fit-kinetics", "--input", "pcbc_run1.csv", "--output", str(out))
        assert code == 0
        payload = json.loads(out.read_text())
        assert round(payload["parameters"]["k"], 4) == -0.0006
        assert payload["metrics"]["r2"] >= 0.95
        assert set(payload) == {"model_kind", "parameters", "metrics", "predictions", "provenance"}
        csv_lines = report_csv_path(out).read_text().strip().splitlines()
        assert len(csv_lines) == 1 + 65

    def test_missing_input_is_io_error(self, tmp_path, capsys):
        out = tmp_path / "kin.json"
        code = run_cli("fit-kinetics", "--input", "no_such.csv", "--output", str(out))
        assert code == 5
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: stage=")
        assert len(err.strip().splitlines()) == 1

    def test_validation_error_leaves_no_output(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("time_min,concentration_mg_l\n0,40\n60,30\n90,20\n")
        out = tmp_path / "kin.json"
        code = run_cli("fit-kinetics", "--input", str(bad), "--output", str(out))
        assert code == 3
        assert not out.exists()
        assert "stage=load" in capsys.readouterr().err

    def test_parse_error_in_cell(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("time_min,concentration_mg_l\n10,forty\n")
        code = run_cli("fit-kinetics", "--input", str(bad), "--output", str(tmp_path / "o.json"))
        assert code == 2


class TestFitExp:
    def test_mb_fixture(self, tmp_path, capsys):
        out = tmp_path / "exp.json"
        code = run_cli(
            "fit-exp",
            "--input",
            "mb_run1.csv",
            "--contaminant",
            "mb",
            "--output",
            str(out),
        )
        assert code == 0
        payload = json.loads(out.read_text())
        # generated from the reference MB parameters at constant W, so the
        # curve is recovered (labels may sit on the mirror branch)
        assert payload["parameters"]["sse"] < 1e-8
        assert payload["metrics"]["r2"] > 0.9999
        assert payload["parameters"]["exponent_form"] == "literal"
        assert payload["parameters"]["negative_parameters"] is False
        assert "98.54%" in capsys.readouterr().out  # percent shown with 2 decimals

    def test_product_form_flag(self, tmp_path):
        out = tmp_path / "exp.json"
        code = run_cli(
            "fit-exp",
            "--input",
            "mb_run1.csv",
            "--contaminant",
            "mb",
            "--exponent-form",
            "product",
            "--output",
            str(out),
        )
        assert code == 0
        assert json.loads(out.read_text())["parameters"]["exponent_form"] == "product"

    def test_bad_x0(self, tmp_path, capsys):
        code = run_cli(
            "fit-exp",
            "--input",
            "mb_run1.csv",
            "--x0",
            "1,2,3",
            "--output",
            str(tmp_path / "o.json"),
        )
        assert code == 3


class TestFitGp:
    def test_reference_hyperparameters_on_fixture(self, tmp_path, capsys):
        out = tmp_path / "gp.json"
        code = run_cli(
            "fit-gp",
            "--input",
            "pcbc_run1.csv",
            "--contaminant",
            "pb",
            "--hyper",
            "v=0.3852,w=0.7839,2.8869,2.859e-9",
            "--output",
            str(out),
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["metrics"]["r2"] >= 0.99
        assert 0.99 <= payload["metrics"]["obs_pred_slope"] <= 1.01
        assert payload["parameters"]["v"] == 0.3852
        assert payload["parameters"]["w"] == [0.7839, 2.8869, 2.859e-9]
        assert payload["parameters"]["ph_assumed"] is False  # fixture has a ph column
        assert payload["predictions"][0]["variance"] >= 0.0

    def test_defaults_match_contaminant(self, tmp_path):
        out = tmp_path / "gp.json"
        assert run_cli("fit-gp", "--input", "mb_run1.csv", "--contaminant", "mb", "--output", str(out)) == 0
        payload = json.loads(out.read_text())
        assert payload["parameters"]["v"] == 0.2397
        assert payload["parameters"]["w"] == [14.6899, 2.2309]

    def test_optimize_improves_or_holds(self, tmp_path):
        synth = tmp_path / "série.csv"
        assert run_cli(
            "synth",
            "--generator",
            "gp-draw",
            "--v",
            "0.3",
            "--w",
            "6.0",
            "--mean",
            "0.5",
            "--seed",
            "5",
            "--contaminant",
            "mb",
            "--thickness",
            "1.0",
            "--output",
            str(synth),
        ) == 0
        base = tmp_path / "gp0.json"
        tuned = tmp_path / "gp1.json"
        assert run_cli(
            "fit-gp", "--input", str(synth), "--contaminant", "mb",
            "--hyper", "v=1.0,w=1.0,1.0", "--output", str(base),
        ) == 0
        assert run_cli(
            "fit-gp", "--input", str(synth), "--contaminant", "mb",
            "--hyper", "v=1.0,w=1.0,1.0", "--optimize", "--output", str(tuned),
        ) == 0
        assert json.loads(tuned.read_text())["parameters"]["optimized"] is True

    def test_bad_hyper_string(self, tmp_path, capsys):
        code = run_cli(
            "fit-gp",
            "--input",
            "pcbc_run1.csv",
            "--hyper",
            "q=3",
            "--output",
            str(tmp_path / "o.json"),
        )
        assert code == 2

    def test_infinite_weight_rejected_by_name(self, tmp_path, capsys):
        out = tmp_path / "o.json"
        code = run_cli(
            "fit-gp", "--input", "pcp_run1.csv", "--hyper", "v=0.3,w=inf,1,1", "--output", str(out)
        )
        assert code == 3
        assert "weights w must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_numeric_failure_exit_code(self, tmp_path, capsys):
        code = run_cli(
            "fit-gp",
            "--input",
            "pcbc_run1.csv",
            "--hyper",
            "v=1e300,w=0,0,0",
            "--output",
            str(tmp_path / "o.json"),
        )
        assert code == 4
        assert "stage=fit" in capsys.readouterr().err


class TestPredict:
    def fit_gp_report(self, tmp_path):
        out = tmp_path / "gp.json"
        assert run_cli("fit-gp", "--input", "pcbc_run1.csv", "--output", str(out)) == 0
        return out

    def test_kinetics_prediction(self, tmp_path):
        model = tmp_path / "kin.json"
        assert run_cli("fit-kinetics", "--input", "pcbc_run1.csv", "--output", str(model)) == 0
        out = tmp_path / "pred.json"
        assert run_cli(
            "predict", "--model", str(model), "--t-grid", "0,1800,3600", "--output", str(out)
        ) == 0
        payload = json.loads(out.read_text())
        assert len(payload["predictions"]) == 3
        k = payload["parameters"]["k"]
        b = payload["parameters"]["ln_c0_fit"]
        expected = float(np.exp(k * 3600.0 + b))
        assert payload["predictions"][-1]["predicted"] == pytest.approx(expected, rel=1e-12)

    def test_kinetics_rejects_w_grid(self, tmp_path):
        model = tmp_path / "kin.json"
        assert run_cli("fit-kinetics", "--input", "pcbc_run1.csv", "--output", str(model)) == 0
        code = run_cli(
            "predict",
            "--model",
            str(model),
            "--t-grid",
            "10",
            "--w-grid",
            "1",
            "--output",
            str(tmp_path / "p.json"),
        )
        assert code == 3

    def test_gp_grid_prediction(self, tmp_path):
        model = self.fit_gp_report(tmp_path)
        out = tmp_path / "pred.json"
        assert run_cli(
            "predict",
            "--model",
            str(model),
            "--t-grid",
            "10,60,3600",
            "--w-grid",
            "1.5,3.0",
            "--output",
            str(out),
        ) == 0
        payload = json.loads(out.read_text())
        assert len(payload["predictions"]) == 6
        assert payload["metrics"] is None
        # at a training input the rebuilt model reproduces the fit
        row = [r for r in payload["predictions"] if r["inputs"]["time_min"] == 3600.0 and r["inputs"]["thickness_cm"] == 3.0]
        assert row and row[0]["predicted"] == pytest.approx(0.8694, abs=5e-3)

    def test_exp_prediction_grid(self, tmp_path):
        model = tmp_path / "exp.json"
        assert run_cli(
            "fit-exp", "--input", "mb_run1.csv", "--contaminant", "mb", "--output", str(model)
        ) == 0
        out = tmp_path / "pred.json"
        assert run_cli(
            "predict",
            "--model",
            str(model),
            "--t-grid",
            "60,3600",
            "--w-grid",
            "1.0",
            "--output",
            str(out),
        ) == 0
        payload = json.loads(out.read_text())
        assert len(payload["predictions"]) == 2
        # the fixture is generated from this model at W=1, so prediction at
        # the final time reproduces its removal regardless of fit branch
        assert payload["predictions"][-1]["predicted"] == pytest.approx(
            0.9853613053949207, abs=1e-6
        )

    def test_time_outside_horizon_rejected(self, tmp_path):
        model = self.fit_gp_report(tmp_path)
        code = run_cli(
            "predict",
            "--model",
            str(model),
            "--t-grid",
            "4000",
            "--w-grid",
            "3.0",
            "--output",
            str(tmp_path / "p.json"),
        )
        assert code == 3


class TestSynth:
    def test_deterministic_bytes_across_processes(self, tmp_path, cli_env):
        args = [
            sys.executable,
            "-m",
            "pabfit",
            "synth",
            "--generator",
            "first-order",
            "--k",
            "-0.0006",
            "--seed",
            "1",
            "--noise-sd",
            "0.5",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        r = subprocess.run([*args, "--output", str(a)], capture_output=True, env=cli_env)
        assert r.returncode == 0, r.stderr
        r = subprocess.run([*args, "--output", str(b)], capture_output=True, env=cli_env)
        assert r.returncode == 0, r.stderr
        assert a.read_bytes() == b.read_bytes()

    def test_missing_parameter_is_validation_error(self, tmp_path, capsys):
        code = run_cli(
            "synth", "--generator", "first-order", "--output", str(tmp_path / "s.csv")
        )
        assert code == 3

    def test_synth_then_refit(self, tmp_path):
        synth = tmp_path / "s.csv"
        assert run_cli(
            "synth",
            "--generator",
            "first-order",
            "--k",
            "-0.0006",
            "--output",
            str(synth),
        ) == 0
        out = tmp_path / "kin.json"
        assert run_cli("fit-kinetics", "--input", str(synth), "--output", str(out)) == 0
        assert json.loads(out.read_text())["parameters"]["k"] == pytest.approx(-0.0006, abs=1e-10)


class TestReport:
    def test_merge_with_thickness_scan(self, tmp_path):
        exp_out = tmp_path / "exp.json"
        gp_out = tmp_path / "gp.json"
        assert run_cli(
            "fit-exp", "--input", "mb_run1.csv", "--contaminant", "mb", "--output", str(exp_out)
        ) == 0
        assert run_cli(
            "fit-gp", "--input", "mb_run1.csv", "--contaminant", "mb", "--output", str(gp_out)
        ) == 0
        merged = tmp_path / "summary.json"
        code = run_cli(
            "report",
            "--inputs",
            str(exp_out),
            str(gp_out),
            "--scan-w",
            "0,0.5,1.0,1.5",
            "--output",
            str(merged),
        )
        assert code == 0
        payload = json.loads(merged.read_text())
        assert payload["model_kind"] == "comparison"
        assert len(payload["comparison"]) == 2
        for entry in payload["comparison"]:
            scan = entry["thickness_scan"]
            assert scan["optimum_w_cm"] in (0.0, 0.5, 1.0, 1.5)
            assert 0.0 <= scan["removal_at_optimum"] <= 1.0

    def test_kinetics_report_skips_scan(self, tmp_path):
        kin = tmp_path / "kin.json"
        assert run_cli("fit-kinetics", "--input", "pcbc_run1.csv", "--output", str(kin)) == 0
        merged = tmp_path / "summary.json"
        assert run_cli(
            "report", "--inputs", str(kin), "--scan-w", "0,1", "--output", str(merged)
        ) == 0
        assert json.loads(merged.read_text())["comparison"][0]["thickness_scan"] is None


class TestThicknessScan:
    def test_known_peak_recovered(self):
        # train a 2-input GP whose removal peaks at W=0.5
        rng = np.random.default_rng(17)
        w_levels = np.array([0.0, 0.5, 1.0, 1.5])
        peak = {0.0: 0.3, 0.5: 0.9, 1.0: 0.5, 1.5: 0.4}
        x = np.array([[t, w] for t in (0.6, 1.0) for w in w_levels])
        y = np.array([peak[w] + 0.05 * (t - 1.0) for t, w in x])
        model = gp_fit(GpHyperParams(v=0.25, w=(2.0, 2.2309)), x, y)
        w_star, removal = optimum_thickness_scan(model, w_levels, t_fixed=1.0)
        assert w_star == 0.5
        assert removal == pytest.approx(0.9, abs=0.05)

    def test_single_element_grid(self):
        p = ExpModelParams(a=3.315, b=0.829)
        assert optimum_thickness_scan(p, [0.7], t_fixed=1.0)[0] == 0.7

    def test_all_equal_ties_to_smallest(self):
        p = ExpModelParams(a=1.0, b=1.0)
        w_star, removal = optimum_thickness_scan(p, [1.5, 0.5, 1.0], t_fixed=0.0)
        assert w_star == 0.5
        assert removal == 0.0

    def test_empty_grid_rejected(self):
        with pytest.raises(InvalidInput):
            optimum_thickness_scan(ExpModelParams(a=1, b=1), [], t_fixed=1.0)

    def test_exp_scan_prefers_larger_exponent(self):
        p = ExpModelParams(a=3.315, b=0.829)
        w_star, _ = optimum_thickness_scan(p, [0.0, 0.5, 1.0, 1.5], t_fixed=1.0)
        assert w_star == 1.5  # removal increases with thickness for these params


class TestParser:
    def test_argparse_exit_code_on_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["fit-kinetics", "--nope"])
        assert exc.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "pabfit" in capsys.readouterr().out
