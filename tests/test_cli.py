import errno
import importlib.util
import json
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from pabfit import cli, dataio, numeric
from pabfit.cli import (
    FixedInputWarning,
    _rebuild_model,
    _stage,
    main,
    optimum_thickness_scan,
    predict,
    predict_minutes,
)
from pabfit.dataio import FIXTURE_DIR, load_fixture, read_report, report_csv_path
from pabfit.errors import InvalidInput, ValidationError
from pabfit.expmodel import ExpModelParams, ExponentForm, exp_model_eval
from pabfit.domain import Contaminant
from pabfit.gp import (
    GpHyperParams,
    default_hyperparams,
    gp_fit,
    gp_predict,
    select_inputs,
    training_set,
)
from pabfit.kinetics import KineticFitResult
from pabfit.metrics import DegenerateFitWarning


DEGENERATE_LINE = (
    "warning: stage=fit kind=DegenerateFitWarning: "
    "constant observations: R^2 reported as 0 by convention\n"
)


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

    @pytest.mark.parametrize("argv", [
        ("fit-kinetics", "--input"),
        ("predict", "--t-grid", "100", "--model"),
        ("report", "--inputs"),
    ])
    def test_missing_path_does_not_fall_back_to_a_fixture(self, tmp_path, capsys, argv):
        # only a bare file name names a bundled fixture; a missing path whose
        # last part is one is still a missing file
        missing = str(tmp_path / "no_such_dir" / "pcp_run1.csv")
        out = tmp_path / "out.json"
        assert run_cli(*argv, missing, "--output", str(out)) == 5
        assert capsys.readouterr().err == (
            f"error: stage=load code=5 kind=FileIOError: no such file: {missing}\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_validation_error_leaves_no_output(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("time_min,concentration_mg_l\n0,40\n60,30\n90,20\n")
        out = tmp_path / "kin.json"
        code = run_cli("fit-kinetics", "--input", str(bad), "--output", str(out))
        assert code == 3
        assert not out.exists()
        assert "stage=load" in capsys.readouterr().err

    def test_time_at_one_is_invalid_time_at_load(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("time_min,concentration_mg_l\n10,40\n1,30\n90,20\n")
        code = run_cli("fit-kinetics", "--input", str(bad), "--output", str(tmp_path / "o.json"))
        assert code == 3
        assert "stage=load code=3 kind=InvalidTime: row 2: time 1.0 min is <= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "data",
        [
            b"time_min,concentration_mg_l\n10,forty\n",
            b"time_min,concentration_mg_l\n10,40\n60,30\xff\n90,20\n",
        ],
        ids=["cell", "not_utf8"],
    )
    def test_parse_error_in_cell(self, tmp_path, capsys, data):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(data)
        code = run_cli("fit-kinetics", "--input", str(bad), "--output", str(tmp_path / "o.json"))
        assert code == 2
        err = capsys.readouterr().err
        assert "stage=load code=2 kind=ParseError" in err
        assert len(err.strip().splitlines()) == 1

    def test_constant_series_warns_once(self, tmp_path, capsys):
        flat = tmp_path / "flat.csv"
        flat.write_text("time_min,concentration_mg_l\n10,30\n60,30\n90,30\n")
        out = tmp_path / "o.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli("fit-kinetics", "--input", str(flat), "--output", str(out)) == 0
        assert caught == []
        assert capsys.readouterr().err == DEGENERATE_LINE


@pytest.mark.parametrize("command", ["fit-exp", "fit-gp"])
def test_constant_removal_reports_r2_zero(tmp_path, capsys, command):
    # removal 0.4 three times: their mean rounds to 0.4000000000000001, so
    # SS_tot is 9.2e-33, not 0, and dividing by it gives an R^2 near -1e30
    flat = tmp_path / "flat.csv"
    flat.write_text("time_min,concentration_mg_l\n10,30\n60,30\n90,30\n")
    out = tmp_path / "o.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(command, "--input", str(flat), "--output", str(out)) == 0
    assert caught == []
    assert capsys.readouterr().err == DEGENERATE_LINE
    assert json.loads(out.read_text())["metrics"]["r2"] == 0.0


@pytest.mark.parametrize("command", ["fit-kinetics", "fit-exp", "fit-gp"])
def test_byte_order_mark_fits_the_same(tmp_path, command):
    # the same file saved with the mark a spreadsheet's "CSV UTF-8" export writes
    data = (FIXTURE_DIR / "pcbc_run1.csv").read_bytes()
    reports = []
    for sub, prefix in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
        (tmp_path / sub).mkdir()
        (tmp_path / sub / "run.csv").write_bytes(prefix + data)
        out = tmp_path / sub / "fit.json"
        assert run_cli(command, "--input", str(tmp_path / sub / "run.csv"), "--output", str(out)) == 0
        payload = json.loads(out.read_text())
        reports.append({key: payload[key] for key in ("parameters", "metrics", "predictions")})
    assert reports[0] == reports[1]


def test_constant_series_prints_no_python_warning(tmp_path, cli_env):
    flat = tmp_path / "flat.csv"
    flat.write_text("time_min,concentration_mg_l\n10,30\n60,30\n90,30\n")
    r = subprocess.run(
        [sys.executable, "-m", "pabfit", "fit-gp", "--input", str(flat), "--output", "o.json"],
        capture_output=True,
        text=True,
        env=cli_env,
        cwd=tmp_path,
    )
    assert r.returncode == 0, r.stderr
    assert r.stderr == DEGENERATE_LINE


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
        assert payload["parameters"]["identifiable"] is False
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

    def test_pb_literal_reports_the_least_squares_minimum(self, tmp_path):
        out = tmp_path / "exp.json"
        assert run_cli("fit-exp", "--input", "pcp_run1.csv", "--output", str(out)) == 0
        params = json.loads(out.read_text())["parameters"]
        assert params["sse"] < 0.078  # the steepest descent stopped at 2.28
        assert params["converged"] is True
        # the minimum has b < 0 (a growing exponential), and the report says so
        assert params["negative_parameters"] is True
        assert params["identifiable"] is False  # one thickness

    def test_literal_fit_does_not_depend_on_the_thickness(self, tmp_path):
        # pcp_run1 moved to 30 cm fits as at 3 cm: on one thickness the
        # curve depends on a and b + W only
        lines = (FIXTURE_DIR / "pcp_run1.csv").read_text().splitlines()
        column = lines[0].split(",").index("thickness_cm")
        rows = [line.split(",") for line in lines[1:]]
        for cells in rows:
            cells[column] = "30.0"
        moved = tmp_path / "pcp_30cm.csv"
        moved.write_text("\n".join([lines[0]] + [",".join(cells) for cells in rows]) + "\n")
        out = tmp_path / "exp.json"
        assert run_cli("fit-exp", "--input", str(moved), "--output", str(out)) == 0
        params = json.loads(out.read_text())["parameters"]
        assert params["sse"] == pytest.approx(0.07702, rel=1e-4)
        assert params["converged"] is True

    def test_max_iters_caps_the_fit(self, tmp_path, monkeypatch):
        out = tmp_path / "exp.json"
        monkeypatch.setattr(numeric, "_LM_MAX_ITERS", 1)
        assert run_cli("fit-exp", "--input", "pcp_run1.csv", "--output", str(out)) == 0
        assert json.loads(out.read_text())["parameters"]["converged"] is False

    @pytest.mark.parametrize("option,value", [("--max-iters", "5"), ("--x0", "1,1")])
    def test_iteration_cap_and_start_are_no_options(self, tmp_path, option, value):
        out = tmp_path / "exp.json"
        with pytest.raises(SystemExit) as exit_info:
            run_cli("fit-exp", "--input", "pcp_run1.csv", option, value, "--output", str(out))
        assert exit_info.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "fixture,sse",
        [
            ("pcp_run1.csv", 0.41280),
            ("pcp_run2.csv", 0.16425),
            ("pcbc_run1.csv", 0.43211),
            ("pcbc_run2.csv", 0.47169),
        ],
    )
    def test_product_form_reaches_its_lower_minimum(self, tmp_path, fixture, sse):
        # a run from q = a * (b + W) > 0 alone stops at SSE 1.682, 0.622,
        # 1.981, 1.767; the fit's start at q < 0 reaches the minimum
        # (on pcp_run1 a = 0.9488, b = -3.9488)
        out = tmp_path / "exp.json"
        argv = ["--input", fixture, "--exponent-form", "product"]
        assert run_cli("fit-exp", *argv, "--output", str(out)) == 0
        params = json.loads(out.read_text())["parameters"]
        assert params["sse"] == pytest.approx(sse, rel=1e-4)
        assert params["converged"] is True


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
        params = payload["parameters"]
        assert params["v"] == 0.3852
        # pH and W hold one value over the series: t_norm is the one input,
        # and the layout --hyper gives its weight
        assert params["inputs"] == ["t_norm"] and params["p"] == 1
        assert params["w"] == [0.7839]
        assert params["fixed_inputs"] == {"ph": 7.0, "thickness_cm": 3.0}
        assert params["ph_assumed"] is False  # fixture has a ph column
        assert payload["predictions"][0]["variance"] >= 0.0
        # every training row keeps every layout column
        assert all(
            set(row["inputs"]) == {"time_min", "t_norm", "ph", "thickness_cm"}
            for row in payload["predictions"]
        )

    def test_defaults_match_contaminant(self, tmp_path):
        out = tmp_path / "gp.json"
        assert run_cli("fit-gp", "--input", "mb_run1.csv", "--contaminant", "mb", "--output", str(out)) == 0
        payload = json.loads(out.read_text())
        assert payload["parameters"]["v"] == 0.2397
        assert payload["parameters"]["w"] == [14.6899]
        assert payload["parameters"]["inputs"] == ["t_norm"]
        assert payload["parameters"]["fixed_inputs"] == {"thickness_cm": 1.0}

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

    # --epsilon alone sets the jitter, so eps is an unknown --hyper key
    @pytest.mark.parametrize(
        "hyper", ["q=3", "v=0.3,eps=1e-6", "v=0.3,epsilon=1e-6", "0.5", "v=abc", "v=1,v=2", "w=1,w=2"]
    )
    def test_bad_hyper_string(self, tmp_path, capsys, hyper):
        code = run_cli(
            "fit-gp",
            "--input",
            "pcbc_run1.csv",
            "--hyper",
            hyper,
            "--output",
            str(tmp_path / "o.json"),
        )
        assert code == 2
        assert "stage=load code=2 kind=ParseError: --hyper" in capsys.readouterr().err

    @pytest.mark.parametrize("hyper,key", [("v=1,v=2", "v"), ("w=1,2,V=0.3,w=3", "w")])
    def test_repeated_hyper_key_named(self, tmp_path, capsys, hyper, key):
        # a repeated v, or a repeated w list, is named, not merged or overridden
        out = tmp_path / "o.json"
        assert run_cli("fit-gp", "--input", "pcbc_run1.csv", "--hyper", hyper, "--output", str(out)) == 2
        assert f"ParseError: --hyper: key {key!r} given more than once" in capsys.readouterr().err
        assert not out.exists()

    def test_infinite_weight_rejected_by_name(self, tmp_path, capsys):
        out = tmp_path / "o.json"
        code = run_cli(
            "fit-gp", "--input", "pcp_run1.csv", "--hyper", "v=0.3,w=inf,1,1", "--output", str(out)
        )
        assert code == 3
        assert "weights w must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "option,value,message",
        [
            ("--hyper", "v=nan", "signal variance must be positive"),
            ("--hyper", "v=0.3,w=inf,1,1", "weights w must be finite"),
            ("--epsilon", "0", "jitter epsilon must be finite and positive"),
            ("--epsilon", "inf", "jitter epsilon must be finite and positive"),
            ("--hyper", "w=1,2", "2 kernel weights but the pb layout has 3 columns"),
        ],
    )
    def test_bad_option_rejected_at_load(self, tmp_path, capsys, option, value, message):
        argv = ["fit-gp", "--input", "pcp_run1.csv", option, value]
        assert message in check_rejected(tmp_path, capsys, "load", *argv)

    def test_weight_count_follows_the_contaminant(self, tmp_path, capsys):
        argv = ["fit-gp", "--input", "mb_run1.csv", "--contaminant", "mb", "--hyper", "w=1,2,3"]
        err = check_rejected(tmp_path, capsys, "load", *argv)
        assert "3 kernel weights but the methylene_blue layout has 2 columns" in err

    def test_zero_starting_weight_on_an_input_rejected_at_load(self, tmp_path, capsys):
        # the search runs in log space; t_norm is pcp_run1's one input
        argv = ["fit-gp", "--input", "pcp_run1.csv", "--hyper", "v=0.3,w=0,2.8869,2.859e-9",
                "--optimize"]
        err = check_rejected(tmp_path, capsys, "load", *argv)
        assert "needs positive input weights, got {'t_norm': 0.0}" in err

    def test_zero_weight_on_a_fixed_column_does_not_block_the_search(self, tmp_path):
        # pH and W are constant in pcp_run1, so their weights are unused
        out = tmp_path / "gp.json"
        assert run_cli("fit-gp", "--input", "pcp_run1.csv", "--hyper", "v=0.3,w=0.7839,0,0",
                       "--optimize", "--output", str(out)) == 0
        params = json.loads(out.read_text())["parameters"]
        assert params["optimized"] is True and params["inputs"] == ["t_norm"]

    def test_a_varying_ph_is_an_input(self, tmp_path, capsys):
        # a hand-written lead series with two pH values: pH joins t_norm as
        # an input, with its weight from the layout --hyper, and --ph moves
        # the prediction
        csv = tmp_path / "two_ph.csv"
        rows = [f"{t},{50 - (0.01 if i % 2 else 0.005) * t},3.0,{6.5 if i % 2 else 7.5}"
                for i, t in enumerate(range(60, 3601, 60))]
        csv.write_text("time_min,concentration_mg_l,thickness_cm,ph\n" + "\n".join(rows) + "\n")
        model = tmp_path / "gp.json"
        assert run_cli("fit-gp", "--input", str(csv), "--hyper", "v=0.3852,w=0.7839,2.8869,5",
                       "--output", str(model)) == 0
        params = json.loads(model.read_text())["parameters"]
        assert params["inputs"] == ["t_norm", "ph"] and params["w"] == [0.7839, 2.8869]
        assert params["fixed_inputs"] == {"thickness_cm": 3.0}
        removal = []
        for ph in ("6.5", "7.5"):
            out = tmp_path / f"p{ph}.json"
            assert run_cli("predict", "--model", str(model), "--t-grid", "1800", "--w-grid", "3",
                           "--ph", ph, "--output", str(out)) == 0
            removal.append(json.loads(out.read_text())["predictions"][0]["predicted"])
        assert abs(removal[0] - removal[1]) > 1e-3
        assert "warning" not in capsys.readouterr().err

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

    def test_a_prediction_report_rebuilds_no_gp(self, tmp_path, capsys):
        # predict's rows carry no observed value, so they hold no training set
        model = self.fit_gp_report(tmp_path)
        pred = tmp_path / "pred.json"
        argv = ["--t-grid", "60,3600", "--w-grid", "3.0"]
        assert run_cli("predict", "--model", str(model), *argv, "--output", str(pred)) == 0
        capsys.readouterr()
        out = tmp_path / "again.json"
        assert run_cli("predict", "--model", str(pred), *argv, "--output", str(out)) == 3
        assert capsys.readouterr().err == (
            "error: stage=load code=3 kind=ValidationError: "
            "GP report carries no training rows; cannot rebuild the model\n"
        )
        assert not out.exists()

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


class TestRebuiltReportGivesItsRows:
    """A fit's report, rebuilt and asked through ``predict_minutes`` at its
    own rows' minutes, W and pH, gives back the rows' ``predicted``,
    ``variance`` and query columns bit for bit."""

    @staticmethod
    def varying_csv(path):
        """A lead series whose W and pH alternate, so each is a per-row input."""
        rows = [f"{t},{50 * np.exp(-0.0005 * t) * (1.02 if i % 2 else 1.0)},{2.0 + i % 2},{6.5 + i % 2}"
                for i, t in enumerate(range(60, 3601, 60))]
        path.write_text("time_min,concentration_mg_l,thickness_cm,ph\n" + "\n".join(rows) + "\n")

    @pytest.mark.parametrize("argv", [
        ["fit-kinetics", "--input", "pcbc_run1.csv"],
        ["fit-exp", "--input", "pcp_run1.csv"],
        ["fit-exp", "--input", "pcp_run1.csv", "--exponent-form", "product"],
        ["fit-exp", "--input", "mb_run1.csv", "--contaminant", "mb"],
        ["fit-exp", "--input", "varying.csv"],
        ["fit-gp", "--input", "pcp_run1.csv"],
        ["fit-gp", "--input", "mb_run1.csv", "--contaminant", "mb"],
        ["fit-gp", "--input", "pcbc_run2.csv", "--optimize", "--objective", "sse"],
        ["fit-gp", "--input", "varying.csv"],
    ], ids=["kinetics", "exp-literal", "exp-product", "exp-mb", "exp-varying",
            "gp-lead", "gp-mb", "gp-sse", "gp-varying"])
    def test_fit_rows(self, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        self.varying_csv(tmp_path / "varying.csv")
        assert run_cli(*argv, "--output", "fit.json") == 0
        report = read_report(tmp_path / "fit.json")
        rows = report.predictions
        held = rows[0].inputs.keys()
        column = {name: np.array([row.inputs[name] for row in rows]) for name in held}
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # each row sits at the training values
            inputs, mean, variance = predict_minutes(
                _rebuild_model(report), report.parameters.get("time_denominator"),
                column["time_min"], column.get("thickness_cm"), column.get("ph"),
            )
        assert inputs.keys() == held
        assert all(np.array_equal(inputs[name], column[name]) for name in held)
        assert np.array_equal(mean, [row.predicted for row in rows])
        if argv[0] == "fit-gp":
            assert np.array_equal(variance, [row.variance for row in rows])
        else:
            assert variance is None and all(row.variance is None for row in rows)


class TestPredictMinutesChecks:
    """``predict_minutes`` refuses minutes it cannot map with a ``ValidationError``."""

    kinetics = KineticFitResult(k=-0.0006, ln_c0_fit=3.9, n_points=3)

    @staticmethod
    def model(kind):
        if kind == "exp":
            return ExpModelParams(a=2.068, b=3.486)
        return TestPredictDispatch.fixture_model("pcp_run1.csv")

    @pytest.mark.parametrize("kind", ["exp", "gp"])
    def test_no_time_denominator(self, kind):
        with pytest.raises(ValidationError, match="no time_denominator; cannot map minutes"):
            predict_minutes(self.model(kind), None, [60.0], 3.0)

    @pytest.mark.parametrize("kind", ["exp", "gp"])
    def test_nan_minute_is_outside_the_range(self, kind):
        with pytest.raises(ValidationError, match=r"time nan min outside the model's range \(1, 2981\]"):
            predict_minutes(self.model(kind), 8.0, [60.0, float("nan")], 3.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_first_order_refuses_a_non_finite_minute(self, bad):
        with pytest.raises(ValidationError, match=f"time {bad} min is not finite"):
            predict_minutes(self.kinetics, None, [60.0, bad])

    def test_first_order_needs_no_time_denominator(self):
        minutes = np.array([0.0, 3600.0])
        inputs, mean, variance = predict_minutes(self.kinetics, None, minutes)
        assert inputs.keys() == {"time_min"} and np.array_equal(inputs["time_min"], minutes)
        assert np.array_equal(mean, np.exp(-0.0006 * minutes + 3.9))
        assert variance is None


def corrupted_fixture(tmp_path, column, value):
    """pcbc_run1.csv with the cell of ``column`` in data row 5 set to ``value``."""
    lines = (FIXTURE_DIR / "pcbc_run1.csv").read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[5].split(",")
    cells[header.index(column)] = value
    lines[5] = ",".join(cells)
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


class TestInfiniteC0:
    @pytest.mark.parametrize("command", ["fit-kinetics", "fit-exp", "fit-gp"])
    def test_rejected_at_load(self, tmp_path, capsys, command):
        err = check_rejected(
            tmp_path, capsys, "load", command, "--input", "pcbc_run1.csv", "--c0", "inf"
        )
        assert "c0 must be finite" in err


class TestNonFiniteSampleValues:
    @pytest.mark.parametrize("command", ["fit-kinetics", "fit-exp", "fit-gp"])
    @pytest.mark.parametrize(
        "column,value", [("thickness_cm", "nan"), ("ph", "inf"), ("time_min", "1e160")]
    )
    def test_rejected_at_load(self, tmp_path, capsys, command, column, value):
        bad = corrupted_fixture(tmp_path, column, value)
        out = tmp_path / "o.json"
        code = run_cli(command, "--input", str(bad), "--output", str(out))
        assert code == 3
        err = capsys.readouterr().err
        assert "stage=load code=3" in err
        assert "row 5" in err
        assert not out.exists()


class TestOverflowScaleThickness:
    def test_rejected_at_load_without_numpy_warnings(self, tmp_path, cli_env):
        bad = corrupted_fixture(tmp_path, "thickness_cm", "1e308")
        out = tmp_path / "o.json"
        r = subprocess.run(
            [sys.executable, "-m", "pabfit", "fit-exp", "--input", str(bad), "--output", str(out)],
            capture_output=True, text=True, env=cli_env, cwd=tmp_path,
        )
        assert r.returncode == 3
        assert "stage=load code=3" in r.stderr
        assert "row 5" in r.stderr
        assert "RuntimeWarning" not in r.stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "source,thickness",
        # --thickness is bounded as a thickness cell is, whether or not the
        # file has a thickness column: NaN, Infinity and 1e5 never reach a report
        [
            ("no_w.csv", "1e5"),
            ("pcbc_run1.csv", "nan"),
            ("pcbc_run1.csv", "inf"),
            ("pcbc_run1.csv", "1e5"),
        ],
    )
    @pytest.mark.parametrize("command", ["fit-kinetics", "fit-exp", "fit-gp"])
    def test_series_default_thickness_bounded(self, tmp_path, capsys, command, source, thickness):
        csv = tmp_path / "no_w.csv"
        csv.write_text("time_min,concentration_mg_l\n10,40\n60,30\n90,20\n")
        source = str(csv) if source == "no_w.csv" else source
        out = tmp_path / "o.json"
        code = run_cli(command, "--input", source, "--thickness", thickness, "--output", str(out))
        assert code == 3
        assert "stage=load code=3" in capsys.readouterr().err
        assert not out.exists()


def check_rejected(tmp_path, capsys, stage, *argv, code=3):
    """The command exits ``code`` at ``stage`` with one error line and no output."""
    out = tmp_path / "o.json"
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # no overflow reaches numpy
        assert run_cli(*argv, "--output", str(out)) == code
    err = capsys.readouterr().err
    assert f"stage={stage} code={code}" in err
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()
    return err


class TestCsvShape:
    """A CSV the loader or the series constructor rejects fails at load."""

    @pytest.mark.parametrize(
        "text,message",
        [
            # two same-named columns are rejected, not one chosen in silence
            ("time_min,concentration_mg_l,concentration_mg_l\n10,40,41\n60,30,31\n90,20,21\n",
             "repeated columns ['concentration_mg_l']"),
            # a row longer than the header is rejected, not cut in silence
            ("time_min,concentration_mg_l\n10,40\n20,30,5\n90,20\n",
             "row 2: 3 cells, the header has 2"),
            ("time_min,concentration_mg_l\n10,40\n,30\n90,20\n", "row 2: missing time"),
            ("time_min,concentration_mg_l\n10,40\n20,nan\n90,20\n",
             "row 2: concentration must be finite"),
            # times past the bound are rejected at load, before any fit can overflow on them
            ("time_min,concentration_mg_l\n1e160,40\n2e160,30\n3e160,20\n",
             "row 1: time 1e+160 min is past the bound of 1e+09 min"),
            ("time_min,removal_pct\n10,150\n60,40\n90,20\n",
             "row 1: removal fraction outside [0, 1]: 1.5"),
        ],
        ids=["repeated-column", "long-row", "empty-time", "nan-concentration", "time-past-the-bound",
             "removal-past-100-percent"],
    )
    def test_rejected_at_load(self, tmp_path, capsys, text, message):
        csv = tmp_path / "shape.csv"
        csv.write_text(text)
        err = check_rejected(tmp_path, capsys, "load", "fit-kinetics", "--input", str(csv))
        assert message in err

    def test_short_row_reads_as_empty_cells(self, tmp_path):
        csv = tmp_path / "short.csv"
        csv.write_text("time_min,concentration_mg_l,ph\n10,40,7\n60,30\n90,20,7\n")
        out = tmp_path / "o.json"
        assert run_cli("fit-kinetics", "--input", str(csv), "--output", str(out)) == 0


def no_ph_csv(tmp_path):
    """A three-row lead series with no ph column."""
    path = tmp_path / "no_ph.csv"
    path.write_text("time_min,concentration_mg_l,thickness_cm\n10,40,3\n60,30,3\n90,20,3\n")
    return path


class TestPhBound:
    """pH lies in [0, 14] wherever it enters: a CSV cell, ``--default-ph``,
    ``--ph`` and a report's ``default_ph``. Outside it a command exits 3 with
    one error line, before numpy sees the value."""

    @pytest.mark.parametrize("command", ["fit-kinetics", "fit-exp", "fit-gp"])
    @pytest.mark.parametrize("value", ["1e200", "-3", "14.5"])
    def test_csv_cell(self, tmp_path, capsys, command, value):
        bad = corrupted_fixture(tmp_path, "ph", value)
        err = check_rejected(tmp_path, capsys, "load", command, "--input", str(bad))
        assert "row 5" in err

    @pytest.mark.parametrize("value", ["1e200", "-3", "nan", "inf", "14.5"])
    @pytest.mark.parametrize("ph_column", [True, False])
    def test_default_ph(self, tmp_path, capsys, value, ph_column):
        csv = "pcbc_run1.csv" if ph_column else no_ph_csv(tmp_path)
        err = check_rejected(
            tmp_path, capsys, "load", "fit-gp", "--input", str(csv), "--default-ph", value
        )
        assert "--default-ph" in err

    @pytest.mark.parametrize("value", ["1e308", "-1", "14.000001"])
    def test_predict_and_report_ph(self, tmp_path, capsys, value):
        model = tmp_path / "gp.json"
        assert run_cli(*FIT_GP, "--output", str(model)) == 0
        check_rejected(
            tmp_path, capsys, "predict",
            "predict", "--model", str(model), "--t-grid", "60,3600", "--w-grid", "1", "--ph", value,
        )
        check_rejected(
            tmp_path, capsys, "scan",
            "report", "--inputs", str(model), "--scan-w", "0,1", "--ph", value,
        )

    def test_synth_ph(self, tmp_path, capsys):
        check_rejected(
            tmp_path, capsys, "generate",
            "synth", "--generator", "first-order", "--k", "-0.0006", "--ph", "1e200",
        )

    def test_bounds_are_inclusive(self, tmp_path):
        # a pH of 0 is a value, not a missing one: predict keeps it
        csv = no_ph_csv(tmp_path)
        model = tmp_path / "gp.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run_cli("fit-gp", "--input", str(csv), "--default-ph", "0",
                           "--output", str(model)) == 0
            out = tmp_path / "p.json"
            assert run_cli("predict", "--model", str(model), "--t-grid", "60",
                           "--w-grid", "1", "--output", str(out)) == 0
            assert json.loads(out.read_text())["predictions"][0]["inputs"]["ph"] == 0.0
            assert run_cli("predict", "--model", str(model), "--t-grid", "60",
                           "--w-grid", "1", "--ph", "14", "--output", str(out)) == 0
            assert json.loads(out.read_text())["predictions"][0]["inputs"]["ph"] == 14.0

    def test_predict_and_report_share_the_default_ph(self, tmp_path):
        # pcbc_run1 with pH cells alternating 7.0 / 7.3: without --ph both
        # commands query the GP at its mean training pH
        lines = (FIXTURE_DIR / "pcbc_run1.csv").read_text().splitlines()
        column = lines[0].split(",").index("ph")
        for i in range(1, len(lines)):
            cells = lines[i].split(",")
            cells[column] = "7.3" if i % 2 == 0 else "7.0"
            lines[i] = ",".join(cells)
        csv = tmp_path / "ph_mixed.csv"
        csv.write_text("\n".join(lines) + "\n")
        model, pred, summary = (tmp_path / n for n in ("gp.json", "pred.json", "summary.json"))
        assert run_cli("fit-gp", "--input", str(csv), "--output", str(model)) == 0
        t_max = lines[-1].split(",")[0]
        assert run_cli("predict", "--model", str(model), "--t-grid", t_max, "--w-grid", "1",
                       "--output", str(pred)) == 0
        assert run_cli("report", "--inputs", str(model), "--scan-w", "1", "--scan-t", "1",
                       "--output", str(summary)) == 0
        (row,) = json.loads(pred.read_text())["predictions"]
        assert row["inputs"]["t_norm"] == pytest.approx(1.0, rel=1e-12)
        scan = json.loads(summary.read_text())["comparison"][0]["thickness_scan"]
        assert row["predicted"] == pytest.approx(scan["removal_at_optimum"], rel=1e-9)
        assert row["inputs"]["ph"] == pytest.approx(7.15, abs=0.01)


FIT_EXP = ["fit-exp", "--input", "mb_run1.csv", "--contaminant", "mb"]
FIT_GP = ["fit-gp", "--input", "pcbc_run1.csv"]


class TestMalformedReportParameters:
    """A malformed report fails at load, with code 3 and one error line."""

    def rejected(self, tmp_path, capsys, argv, change, command, scan_w="0,1"):
        model = tmp_path / "model.json"
        assert run_cli(*argv, "--output", str(model)) == 0
        payload = json.loads(model.read_text())
        change(payload)
        model.write_text(json.dumps(payload))
        capsys.readouterr()
        out = tmp_path / "o.json"
        if command == "predict":
            rest = ["--model", str(model), "--t-grid", "60,3600", "--w-grid", "1"]
        else:
            rest = ["--inputs", str(model)] + ([] if scan_w is None else ["--scan-w", scan_w])
        assert run_cli(command, *rest, "--output", str(out)) == 3
        err = capsys.readouterr().err
        assert "stage=load code=3" in err
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()
        return err

    @pytest.mark.parametrize(
        "argv,key",
        [
            (["fit-kinetics", "--input", "pcbc_run1.csv"], "k"),
            (FIT_EXP, "a"),
            (FIT_GP, "w"),
        ],
        ids=["first_order", "exponential", "gaussian_process"],
    )
    @pytest.mark.parametrize("command", ["predict", "report"])
    def test_missing_parameter(self, tmp_path, capsys, argv, key, command):
        err = self.rejected(tmp_path, capsys, argv, lambda p: p["parameters"].pop(key), command)
        assert repr(key) in err

    @pytest.mark.parametrize(
        "argv,change",
        [
            (FIT_EXP, lambda p: p.update(metrics={})),
            (FIT_EXP, lambda p: p["predictions"][0].pop("inputs")),
            (FIT_EXP, lambda p: p["parameters"].update(time_denominator="x")),
            (FIT_EXP, lambda p: p["parameters"].update(time_denominator=0.0)),
            (FIT_EXP, lambda p: p["parameters"].update(time_denominator=1000.0)),
            (FIT_GP, lambda p: p["predictions"][0]["inputs"].update(t_norm="abc")),
            (FIT_GP, lambda p: p["predictions"][0].update(observed="x")),
            (FIT_GP, lambda p: p["predictions"][0].update(variance=[])),
            (FIT_GP, lambda p: p["parameters"].update(default_ph="x")),
            (FIT_GP, lambda p: p["parameters"].update(default_ph=1e200)),
            (FIT_GP, lambda p: p["parameters"].update(default_ph=-3.0)),
            (FIT_EXP, lambda p: p["parameters"].update(exponent_form=["literal"])),
            (FIT_EXP, lambda p: p["parameters"].update(exponent_form={})),
            (FIT_GP, lambda p: p["parameters"].update(w=[0.7839, 2.8869])),
            (FIT_GP, lambda p: p["parameters"].update(w=[0.7839, 2.8869, 2.859e-9, 1.0])),
            (FIT_GP, lambda p: p["parameters"].update(v=-1.0)),
            (FIT_GP, lambda p: p["parameters"].update(epsilon=0.0)),
            (FIT_GP, lambda p: p["parameters"].update(w=[-1.0])),
            (FIT_GP, lambda p: p["parameters"].update(inputs="t_norm")),
            (FIT_GP, lambda p: p["parameters"].update(inputs=["pH"])),
        ],
        ids=[
            "empty_metrics", "row_without_inputs", "time_denominator_text",
            "time_denominator_zero", "time_denominator_past_float_range", "gp_t_norm_text", "gp_observed_text",
            "gp_variance_list", "gp_default_ph_text", "gp_default_ph_huge",
            "gp_default_ph_negative", "exponent_form_list", "exponent_form_object",
            "gp_two_weights_one_input", "gp_four_weights", "gp_negative_v", "gp_zero_epsilon",
            "gp_negative_weight", "gp_inputs_text", "gp_unknown_input",
        ],
    )
    @pytest.mark.parametrize("command", ["predict", "report"])
    def test_malformed_report(self, tmp_path, capsys, argv, change, command):
        self.rejected(tmp_path, capsys, argv, change, command)

    @pytest.mark.parametrize("argv", [FIT_EXP, FIT_GP], ids=["exponential", "gaussian_process"])
    def test_missing_time_denominator(self, tmp_path, capsys, argv):
        # predict maps minutes through it, so checks it at load; a scan reads t_norm directly
        drop = lambda p: p["parameters"].pop("time_denominator")  # noqa: E731
        err = self.rejected(tmp_path, capsys, argv, drop, "predict")
        assert "report lacks time_denominator" in err
        merged = tmp_path / "merged.json"
        for scan_w in ([], ["--scan-w", "0,1"]):
            assert run_cli("report", "--inputs", str(tmp_path / "model.json"), *scan_w,
                           "--output", str(merged)) == 0
        assert json.loads(merged.read_text())["comparison"][0]["thickness_scan"]["w_grid"] == [0, 1]

    @pytest.mark.parametrize("command", ["predict", "report"])
    def test_gp_rows_without_an_input_column(self, tmp_path, capsys, command):
        drop = lambda p: [row["inputs"].pop("t_norm") for row in p["predictions"]]  # noqa: E731
        err = self.rejected(tmp_path, capsys, FIT_GP, drop, command)
        assert "GP report rows lack input column 't_norm'" in err

    def test_report_without_scan_checks_the_gp_domain(self, tmp_path, capsys):
        # a merge without --scan-w rebuilds no model, so the check runs at load
        err = self.rejected(
            tmp_path, capsys, FIT_GP, lambda p: p["parameters"].update(v=-1.0), "report", scan_w=None
        )
        assert "signal variance must be positive" in err


class TestGpTrainingRows:
    """A GP is rebuilt from training rows that all hold the same input
    columns, each within its bound; other rows go unchecked."""

    COMMANDS = {
        "predict": ["predict", "--t-grid", "600,3600", "--w-grid", "3", "--ph", "6", "--model"],
        "report": ["report", "--scan-w", "0,1", "--inputs"],
    }

    def rejected(self, tmp_path, capsys, payload, command):
        model = tmp_path / "model.json"
        model.write_text(json.dumps(payload))
        return check_rejected(tmp_path, capsys, "load", *self.COMMANDS[command], str(model))

    @pytest.mark.parametrize(
        "column,value,message",
        [
            ("t_norm", 1e200, "t_norm 1e+200 not in [0, 1]"),
            ("t_norm", -0.5, "t_norm -0.5 not in [0, 1]"),
            ("ph", 14.5, "ph 14.5 not in [0, 14]"),
            ("thickness_cm", 2e4, "thickness_cm 20000 not in [0, 10000]"),
        ],
        ids=["t_norm_overflowing_the_kernel", "t_norm_negative", "ph", "thickness"],
    )
    @pytest.mark.parametrize("command", ["predict", "report"])
    def test_value_out_of_bounds_rejected_at_load(self, tmp_path, capsys, column, value, message, command):
        model = tmp_path / "gp.json"
        assert run_cli(*FIT_GP, "--output", str(model)) == 0
        payload = json.loads(model.read_text())
        payload["predictions"][3]["inputs"][column] = value
        err = self.rejected(tmp_path, capsys, payload, command)
        assert f"GP report training {message}" in err

    @pytest.mark.parametrize("command", ["predict", "report"])
    def test_rows_with_other_columns_rejected_at_load(self, tmp_path, capsys, command):
        # pH varies and is an input, but the first training row lacks it:
        # the rebuild must not fit on t_norm alone in silence
        csv = tmp_path / "two_ph.csv"
        rows = [f"{t},{50 - (0.01 if i % 2 else 0.005) * t},3.0,{6.5 if i % 2 else 7.5}"
                for i, t in enumerate(range(60, 3601, 60))]
        csv.write_text("time_min,concentration_mg_l,thickness_cm,ph\n" + "\n".join(rows) + "\n")
        model = tmp_path / "gp.json"
        assert run_cli("fit-gp", "--input", str(csv), "--hyper", "v=0.3852,w=0.7839,2.8869,5",
                       "--output", str(model)) == 0
        payload = json.loads(model.read_text())
        assert payload["parameters"]["inputs"] == ["t_norm", "ph"]
        del payload["predictions"][0]["inputs"]["ph"]
        err = self.rejected(tmp_path, capsys, payload, command)
        assert "training rows do not all hold the same input columns" in err

    def test_rows_without_observed_are_not_checked(self, tmp_path, capsys):
        model = tmp_path / "gp.json"
        assert run_cli(*FIT_GP, "--output", str(model)) == 0
        payload = json.loads(model.read_text())
        payload["predictions"].append({"inputs": {"t_norm": 5.0}, "predicted": 0.5})
        model.write_text(json.dumps(payload))
        for command in self.COMMANDS.values():
            assert run_cli(*command, str(model), "--output", str(tmp_path / "o.json")) == 0

    def test_benchmark_reports_pass(self, tmp_path):
        # the lead GP reports the benchmark builds: 65 rows at pH 7 and W = 3
        spec = importlib.util.spec_from_file_location(
            "perfbench_inputs", Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
        )
        inputs = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(inputs)
        model = tmp_path / "gp.json"
        for seed in range(3):
            params, rows, _, _ = inputs.gp_report(seed, 3)
            payload = {"model_kind": "gaussian_process", "parameters": params, "metrics": None,
                       "predictions": rows, "provenance": {}}
            model.write_text(json.dumps(payload))
            for command in self.COMMANDS.values():
                assert run_cli(*command, str(model), "--output", str(tmp_path / "o.json")) == 0


class TestNonJsonNumbers:
    """NaN, Infinity and a float past the range are no JSON numbers: a report
    that holds one, in a field the checks read or not, fails at load with
    code 2 and one error line, so none is copied into an output."""

    @pytest.mark.parametrize(
        "command,argv,key,text",
        [
            ("report", ["fit-kinetics", "--input", "pcbc_run1.csv"], "extra", "NaN"),
            ("report", ["fit-kinetics", "--input", "pcbc_run1.csv"], "c0", "Infinity"),
            ("report", ["fit-kinetics", "--input", "pcbc_run1.csv"], "c0", "-Infinity"),
            ("report", ["fit-kinetics", "--input", "pcbc_run1.csv"], "extra", "1e400"),
            ("report", FIT_GP, "epsilon", "NaN"),
            ("predict", FIT_EXP, "sse", "NaN"),
        ],
        ids=["report_nan", "report_infinity", "report_minus_infinity", "report_overflow", "report_gp_epsilon_nan",
             "predict_nan"],
    )
    def test_rejected_at_load(self, tmp_path, capsys, command, argv, key, text):
        model = tmp_path / "model.json"
        assert run_cli(*argv, "--output", str(model)) == 0
        payload = json.loads(model.read_text())
        payload["parameters"][key] = "@"
        model.write_text(json.dumps(payload).replace('"@"', text))
        capsys.readouterr()
        out = tmp_path / "o.json"
        if command == "predict":
            rest = ["--model", str(model), "--t-grid", "60", "--w-grid", "1"]
        else:
            rest = ["--inputs", str(model)]
        assert run_cli(command, *rest, "--output", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: stage=load code=2 kind=ParseError: ")
        assert f"{text} is" in err
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()


class TestOutputIsNotAnInput:
    """No file a command writes may be one of its inputs: it fails at load,
    with code 3 and one error line, and the input keeps its bytes."""

    def refused(self, tmp_path, capsys, argv, inputs):
        before = {path: path.read_bytes() for path in inputs}
        listing = sorted(tmp_path.rglob("*"))
        capsys.readouterr()
        assert run_cli(*argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: stage=load code=3 kind=ValidationError: --output ")
        assert "would overwrite the input" in err
        assert len(err.strip().splitlines()) == 1
        assert {path: path.read_bytes() for path in inputs} == before
        assert sorted(tmp_path.rglob("*")) == listing

    @pytest.mark.parametrize("command", ["fit-kinetics", "fit-exp", "fit-gp"])
    @pytest.mark.parametrize("output", ["data.json", "data.csv", "link/data.json"])
    def test_fit_output_or_its_csv_at_the_input(self, tmp_path, capsys, monkeypatch, command, output):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "link").symlink_to(tmp_path)  # resolves to the input's directory
        data = tmp_path / "data.csv"
        data.write_bytes((FIXTURE_DIR / "pcbc_run1.csv").read_bytes())
        self.refused(tmp_path, capsys, [command, "--input", "data.csv", "--output", output], [data])

    def test_predict_output_at_its_model(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run_cli("fit-kinetics", "--input", "pcbc_run1.csv", "--output", "m.json") == 0
        for output in ("m.json", "./m.json"):
            self.refused(tmp_path, capsys, ["predict", "--model", "m.json", "--t-grid", "60",
                                            "--output", output], [tmp_path / "m.json"])
        # a model saved under a .csv name is the row CSV of the .json beside it
        (tmp_path / "r.csv").write_bytes((tmp_path / "m.json").read_bytes())
        self.refused(tmp_path, capsys, ["predict", "--model", "r.csv", "--t-grid", "60",
                                        "--output", "r.json"], [tmp_path / "r.csv"])

    def test_report_output_at_one_of_its_inputs(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for name in ("a", "b"):
            assert run_cli("fit-kinetics", "--input", "pcbc_run1.csv", "--output", f"{name}.json") == 0
        inputs = [tmp_path / "a.json", tmp_path / "b.json"]
        for output in ("a.json", "b.json"):
            self.refused(tmp_path, capsys, ["report", "--inputs", "a.json", "b.json",
                                            "--output", output], inputs)
        # a merge written under the .csv name of an input's stem is no clash
        assert run_cli("report", "--inputs", "a.json", "--output", "a.csv") == 0

    def test_report_reads_an_input_at_its_output_csv_name(self, tmp_path, capsys, monkeypatch):
        # report writes no row CSV, so a fit report saved as r.csv is no clash
        # with --output r.json
        monkeypatch.chdir(tmp_path)
        assert run_cli("fit-kinetics", "--input", "pcbc_run1.csv", "--output", "m.json") == 0
        (tmp_path / "r.csv").write_bytes((tmp_path / "m.json").read_bytes())
        listing = sorted(tmp_path.iterdir())
        assert run_cli("report", "--inputs", "r.csv", "--output", "r.json") == 0
        assert sorted(tmp_path.iterdir()) == sorted([*listing, tmp_path / "r.json"])
        assert json.loads((tmp_path / "r.json").read_text())["comparison"][0]["source"] == "r.csv"


class TestOutputIsItsOwnRowCsv:
    """A command that writes rows refuses an ``--output`` that is its own row
    CSV, which the report JSON would replace: it fails at load, with code 3
    and one error line, and writes no file."""

    def refused(self, tmp_path, capsys, argv):
        listing = sorted(tmp_path.rglob("*"))
        capsys.readouterr()
        assert run_cli(*argv, "--output", "out.csv") == 3
        err = capsys.readouterr().err
        assert err == ("error: stage=load code=3 kind=ValidationError: "
                       "--output out.csv is its own row CSV; give the report another suffix\n")
        assert sorted(tmp_path.rglob("*")) == listing

    @pytest.mark.parametrize("command", ["fit-kinetics", "fit-exp", "fit-gp"])
    def test_fit(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        self.refused(tmp_path, capsys, [command, "--input", "pcbc_run1.csv"])

    def test_predict(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run_cli("fit-exp", "--input", "pcbc_run1.csv", "--output", "m.json") == 0
        self.refused(tmp_path, capsys, ["predict", "--model", "m.json", "--t-grid", "60"])


class TestNameTooLong:
    """A path the file system cannot look up, a name past its length limit,
    fails with code 5 and one error line, and writes no file: an input at
    load, an output when it is written."""

    @pytest.mark.parametrize(
        "argv,stage",
        [
            (["fit-kinetics", "--input", "a" * 5000, "--output", "o.json"], "load"),
            (["fit-kinetics", "--input", "pcbc_run1.csv", "--output", "a" * 5000 + ".json"], "write"),
            (["report", "--inputs", "b" * 300, "--output", "o.json"], "load"),
        ],
        ids=["input", "output", "report_input"],
    )
    def test_fails_as_file_io_error(self, tmp_path, capsys, monkeypatch, argv, stage):
        monkeypatch.chdir(tmp_path)
        assert run_cli(*argv) == 5
        err = capsys.readouterr().err
        assert err.startswith(f"error: stage={stage} code=5 kind=FileIOError: ")
        assert "File name too long" in err
        assert len(err.strip().splitlines()) == 1
        assert list(tmp_path.iterdir()) == []


class TestFailedWrite:
    @pytest.mark.parametrize("command", ["fit-kinetics", "predict"])
    def test_directory_at_the_csv_leaves_no_json(self, tmp_path, capsys, command):
        # the CSV is written first, so its failure leaves no new JSON behind
        model = tmp_path / "model" / "kin.json"
        model.parent.mkdir()
        assert run_cli("fit-kinetics", "--input", "pcbc_run1.csv", "--output", str(model)) == 0
        (tmp_path / "out.csv").mkdir()
        capsys.readouterr()
        argv = {
            "fit-kinetics": ["--input", "pcbc_run1.csv"],
            "predict": ["--model", str(model), "--t-grid", "60,3600"],
        }[command]
        assert run_cli(command, *argv, "--output", str(tmp_path / "out.json")) == 5
        err = capsys.readouterr().err
        assert err.startswith("error: stage=write code=5 kind=FileIOError: cannot write ")
        assert len(err.strip().splitlines()) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model", "out.csv"]
        assert list((tmp_path / "out.csv").iterdir()) == []


class TestOverflowingPrediction:
    """A model whose prediction overflows fails with code 4 and writes nothing."""

    @pytest.mark.parametrize(
        "argv,change,command,stage",
        [
            (FIT_EXP, {"a": -2000}, ["predict", "--t-grid", "60,3600", "--w-grid", "1"], "predict"),
            (FIT_EXP, {"a": -2000}, ["report", "--scan-w", "0,1"], "scan"),
            (["fit-kinetics", "--input", "pcbc_run1.csv"], {"k": 1},
             ["predict", "--t-grid", "60,3600"], "predict"),
        ],
        ids=["exponential_predict", "exponential_scan", "first_order_predict"],
    )
    def test_fails_without_numpy_warnings(self, tmp_path, capsys, argv, change, command, stage):
        model = tmp_path / "model.json"
        assert run_cli(*argv, "--output", str(model)) == 0
        payload = json.loads(model.read_text())
        payload["parameters"].update(change)
        model.write_text(json.dumps(payload))
        capsys.readouterr()
        out = tmp_path / "o.json"
        source = "--model" if command[0] == "predict" else "--inputs"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run_cli(command[0], source, str(model), *command[1:], "--output", str(out)) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"error: stage={stage} code=4 kind=NumericError:")
        assert len(err.strip().splitlines()) == 1
        assert not out.exists() and not report_csv_path(out).exists()

    def test_first_order_fit_row(self, tmp_path, capsys):
        # ln c of -690, 709, 709: the fitted line reaches 942 at the last
        # row, past ln(float max), so that row's prediction is not finite
        csv = tmp_path / "steep.csv"
        csv.write_text("time_min,concentration_mg_l\n2,1e-300\n3,8e307\n4,8e307\n")
        out = tmp_path / "o.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run_cli("fit-kinetics", "--input", str(csv), "--c0", "1e308", "--output", str(out)) == 4
        assert capsys.readouterr().err == (
            "error: stage=fit code=4 kind=NumericError: "
            "the model's prediction is not finite at 1 of 3 grid points\n"
        )
        assert not out.exists() and not report_csv_path(out).exists()


class TestBadGrids:
    def fit(self, tmp_path, *argv):
        out = tmp_path / f"{argv[0]}.json"
        assert run_cli(*argv, "--output", str(out)) == 0
        return str(out)

    def kinetics(self, tmp_path):
        return self.fit(tmp_path, "fit-kinetics", "--input", "pcbc_run1.csv")

    def exp(self, tmp_path):
        return self.fit(tmp_path, "fit-exp", "--input", "mb_run1.csv", "--contaminant", "mb")

    def gp(self, tmp_path):
        return self.fit(tmp_path, "fit-gp", "--input", "pcbc_run1.csv")

    def test_nan_time_on_kinetics(self, tmp_path, capsys):
        model = self.kinetics(tmp_path)
        check_rejected(tmp_path, capsys, "predict", "predict", "--model", model, "--t-grid", "nan")

    @pytest.mark.parametrize("w_grid", ["nan", ",", "1,-0.5", "1e308", "1,10000.5"])
    @pytest.mark.parametrize("model_kind", ["exp", "gp"])
    def test_bad_thickness_grid(self, tmp_path, capsys, w_grid, model_kind):
        model = getattr(self, model_kind)(tmp_path)
        check_rejected(
            tmp_path, capsys, "predict",
            "predict", "--model", model, "--t-grid", "60,3600", "--w-grid", w_grid,
        )

    @pytest.mark.parametrize("model_kind", ["exp", "gp"])
    def test_thickness_bound_is_inclusive(self, tmp_path, model_kind):
        model = getattr(self, model_kind)(tmp_path)
        out = tmp_path / "o.json"
        argv = ["--model", model, "--t-grid", "60,3600", "--w-grid", "0,10000", "--output", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run_cli("predict", *argv) == 0
        rows = json.loads(out.read_text())["predictions"]
        assert len(rows) == 4 and all(np.isfinite(r["predicted"]) for r in rows)

    @pytest.mark.parametrize("t_grid", ["-10", ",", "inf"])
    def test_bad_time_grid(self, tmp_path, capsys, t_grid):
        model = self.kinetics(tmp_path)
        check_rejected(tmp_path, capsys, "predict", "predict", "--model", model, "--t-grid", t_grid)

    def test_unparsable_time_grid(self, tmp_path, capsys):
        model = self.kinetics(tmp_path)
        err = check_rejected(tmp_path, capsys, "predict",
                             "predict", "--model", model, "--t-grid", "60,abc", code=2)
        assert "kind=ParseError: --t-grid: cannot parse '60,abc'" in err

    def test_nan_ph(self, tmp_path, capsys):
        model = self.gp(tmp_path)
        check_rejected(
            tmp_path, capsys, "predict",
            "predict", "--model", model, "--t-grid", "60", "--w-grid", "1", "--ph", "nan",
        )

    @pytest.mark.parametrize("scan_w", ["nan", ",", "0,-1", "1,1e308"])
    def test_bad_scan_grid(self, tmp_path, capsys, scan_w):
        model = self.exp(tmp_path)
        check_rejected(
            tmp_path, capsys, "scan", "report", "--inputs", model, "--scan-w", scan_w
        )

    @pytest.mark.parametrize("scan_t", ["nan", "-0.5", "1e308", "1.5"])
    def test_bad_scan_time(self, tmp_path, capsys, scan_t):
        model = self.exp(tmp_path)
        check_rejected(
            tmp_path, capsys, "scan",
            "report", "--inputs", model, "--scan-w", "0,1", "--scan-t", scan_t,
        )

    def test_nan_scan_ph(self, tmp_path, capsys):
        model = self.gp(tmp_path)
        check_rejected(
            tmp_path, capsys, "scan",
            "report", "--inputs", model, "--scan-w", "0,1", "--ph", "nan",
        )


class TestPredictDispatch:
    """``predict`` on a (t, W) grid against one model call per point."""

    t = np.array([0.05, 0.3, 0.62, 0.9, 1.0])
    w = np.array([0.0, 0.5, 1.0, 3.0])

    @pytest.mark.parametrize("form", list(ExponentForm))
    def test_exp_grid_equals_pointwise(self, form):
        model = ExpModelParams(a=2.068, b=3.486, exponent_form=form)
        mean, variance = predict(model, self.t[:, None], self.w[None, :])
        assert variance is None
        pointwise = [[exp_model_eval(model, ti, wj) for wj in self.w] for ti in self.t]
        assert np.array_equal(mean, np.array(pointwise))

    @staticmethod
    def every_column_varies(hp):
        """A GP on 20 seeded rows over which each of its inputs varies."""
        scale = {"t_norm": 1.0, "ph": 14.0, "thickness_cm": 3.0}
        rng = np.random.default_rng(41)
        x = rng.uniform(0, 1, (20, hp.p)) * [scale[n] for n in hp.inputs]
        return gp_fit(hp, x, rng.uniform(0, 1, 20))

    @staticmethod
    def fixture_model(name):
        """A fixture's GP as ``predict`` rebuilds it: t_norm its one input."""
        series = load_fixture(name)
        columns, y, _, _ = training_set(series)
        hp, x, fixed = select_inputs(default_hyperparams(series.contaminant), columns)
        return replace(gp_fit(hp, x, y), fixed_inputs=fixed)

    @pytest.mark.parametrize(
        "contaminant,ph", [(Contaminant.PB, 6.8), (Contaminant.METHYLENE_BLUE, None)], ids=["pb", "mb"]
    )
    def test_gp_grid_equals_pointwise_rows(self, contaminant, ph):
        hp = default_hyperparams(contaminant)
        model = self.every_column_varies(hp)
        mean, variance = predict(model, self.t[:, None], self.w[None, :], ph)
        assert mean.shape == variance.shape == (self.t.size, self.w.size)
        # one row per point, (t, pH, W) or (t, W); a single gp_predict call,
        # since single-row calls sum k(x, X) alpha in another order
        point = lambda ti, wj: {"t_norm": ti, "ph": ph, "thickness_cm": wj}  # noqa: E731
        rows = [[point(ti, wj)[n] for n in hp.inputs] for ti in self.t for wj in self.w]
        pred = gp_predict(model, np.array(rows))
        assert np.array_equal(mean.ravel(), pred.mean)
        assert np.array_equal(variance.ravel(), pred.variance)

    def test_fixed_columns_answered_at_their_training_value(self):
        # pcbc_run1 holds pH 7 and W 3: a grid off them gets, at each
        # point, the answer at (t, 7, 3), and one warning
        model = self.fixture_model("pcbc_run1.csv")
        with pytest.warns(FixedInputWarning, match="ph=7, thickness_cm=3") as caught:
            mean, variance = predict(model, self.t[:, None], self.w[None, :], 6.8)
        assert len(caught) == 1
        pred = gp_predict(model, np.repeat(self.t, self.w.size)[:, None])
        assert np.array_equal(mean.ravel(), pred.mean)
        assert np.array_equal(variance.ravel(), pred.variance)

    def test_gp_ph_defaults_to_the_training_ph(self):
        # the mean of a pH input, or the one value of a fixed pH column
        model = self.every_column_varies(default_hyperparams(Contaminant.PB))
        given = predict(model, 1.0, self.w, float(np.mean(model.x_train[:, 1])))
        assert all(np.array_equal(a, b) for a, b in zip(predict(model, 1.0, self.w), given))
        model = self.fixture_model("pcp_run1.csv")
        with warnings.catch_warnings():
            warnings.simplefilter("error", FixedInputWarning)
            default = predict(model, 1.0, 3.0)
        assert all(np.array_equal(a, b) for a, b in zip(default, predict(model, 1.0, 3.0, 7.0)))

    def test_ph_ignored_without_ph_input(self):
        model = ExpModelParams(a=2.068, b=3.486)
        assert np.array_equal(predict(model, 1.0, self.w, 9.0)[0], predict(model, 1.0, self.w)[0])

    def test_unknown_model_is_invalid_input(self):
        with pytest.raises(InvalidInput, match="cannot predict with a object"):
            predict(object(), 0.5, 1.0)

    def test_thickness_required_or_refused(self):
        with pytest.raises(ValidationError, match="thickness grid"):
            predict(ExpModelParams(a=1.0, b=1.0), self.t, None)
        kinetics = KineticFitResult(k=-0.0006, ln_c0_fit=3.9, n_points=3)
        with pytest.raises(ValidationError, match="no thickness input"):
            predict(kinetics, self.t, self.w)
        mean, variance = predict(kinetics, np.array([0.0, 3600.0]), None)
        assert variance is None
        assert np.array_equal(mean, np.exp(-0.0006 * np.array([0.0, 3600.0]) + 3.9))


class TestFixedInputs:
    """A GP report names its inputs; a query off a fixed column's training
    value gets the answer at that value and one warning line."""

    def test_readme_gp_answers_every_ph_at_the_training_ph(self, tmp_path, capsys):
        model = tmp_path / "gp.json"
        assert run_cli("fit-gp", "--input", "pcbc_run1.csv", "--contaminant", "pb", "--hyper",
                       "v=0.3852,w=0.7839,2.8869,2.859e-9", "--output", str(model)) == 0
        for ph in ("7", "6.5", "6", "5"):
            out = tmp_path / f"pred{ph}.json"
            capsys.readouterr()
            assert run_cli("predict", "--model", str(model), "--t-grid", "3600", "--w-grid", "3",
                           "--ph", ph, "--output", str(out)) == 0
            (row,) = json.loads(out.read_text())["predictions"]
            assert row["predicted"] == pytest.approx(0.8740071, abs=1e-7)
            assert row["inputs"]["ph"] == float(ph)
            warnings_seen = [line for line in capsys.readouterr().err.splitlines() if line]
            assert warnings_seen == ([] if ph == "7" else [
                "warning: stage=predict kind=FixedInputWarning: "
                "trained at ph=7 only; queries off it get the answer there"
            ])
        first = json.loads((tmp_path / "pred7.json").read_text())["predictions"][0]["predicted"]
        for ph in ("6.5", "6", "5"):
            assert json.loads((tmp_path / f"pred{ph}.json").read_text())["predictions"][0][
                "predicted"] == first

    @staticmethod
    def layout_report(path):
        """A lead GP report as ``perfbench/inputs.py:gp_report`` writes it:
        three weights, no ``inputs``, pH 7 and W 3 in every training row."""
        t = np.array([10.0, 60.0, 600.0, 1800.0, 3600.0])
        t_norm = np.log(t) / np.log(t[-1])
        y = 0.9 * (1.0 - np.exp(-3.0 * t_norm))
        rows = [{"inputs": {"time_min": a, "t_norm": b, "ph": 7.0, "thickness_cm": 3.0},
                 "predicted": c, "observed": c} for a, b, c in zip(t.tolist(), t_norm.tolist(), y.tolist())]
        params = {"v": 0.3852, "w": [0.7839, 2.8869, 2.859e-9], "epsilon": 1.490116e-08, "p": 3,
                  "time_denominator": float(np.log(t[-1])), "default_ph": 7.0, "contaminant": "pb"}
        payload = {"model_kind": "gaussian_process", "parameters": params, "metrics": None,
                   "predictions": rows, "provenance": {}}
        path.write_text(json.dumps(payload))
        return payload

    def test_layout_report_without_inputs_predicts_and_scans(self, tmp_path, capsys):
        model = tmp_path / "model_gp.json"
        self.layout_report(model)
        pred, summary = tmp_path / "pred.json", tmp_path / "summary.json"
        capsys.readouterr()
        assert run_cli("predict", "--model", str(model), "--t-grid", "600,3600",
                       "--w-grid", "1,3", "--output", str(pred)) == 0
        assert run_cli("report", "--inputs", str(model), "--scan-w", "1,2,3",
                       "--output", str(summary)) == 0
        err = capsys.readouterr().err.splitlines()
        assert [line.split(": ")[1] for line in err] == [
            "stage=predict kind=FixedInputWarning",
            "stage=scan kind=FixedInputWarning",
        ]
        rows = json.loads(pred.read_text())["predictions"]
        # rebuilt on t_norm alone: W = 1 and W = 3 get the same answer
        assert [r["predicted"] for r in rows[0::2]] == [r["predicted"] for r in rows[1::2]]
        scan = json.loads(summary.read_text())["comparison"][0]["thickness_scan"]
        assert scan["optimum_w_cm"] == 1.0  # a tie at every grid point goes to the smallest

    @pytest.mark.parametrize(
        "change,message",
        [
            ({"inputs": ["t_norm", "ph"]}, "one per input"),
            ({"w": [0.7839], "inputs": ["ph"]}, "weights are for ['ph']"),
        ],
        ids=["w_count_not_inputs", "varying_column_without_weight"],
    )
    def test_report_inputs_checked_at_load(self, tmp_path, capsys, change, message):
        model = tmp_path / "model_gp.json"
        payload = self.layout_report(model)
        payload["parameters"].update(change)
        model.write_text(json.dumps(payload))
        err = check_rejected(tmp_path, capsys, "load", "predict", "--model", str(model),
                             "--t-grid", "3600", "--w-grid", "3")
        assert message in err


    def test_report_scan_rebuilds_at_load(self, tmp_path, capsys):
        # a scan reads the model, so a report the rebuild rejects fails at load, as under predict
        model = tmp_path / "model_gp.json"
        payload = self.layout_report(model)
        payload["parameters"].update(w=[0.7839], inputs=["ph"])
        model.write_text(json.dumps(payload))
        err = check_rejected(tmp_path, capsys, "load", "report", "--inputs", str(model),
                             "--scan-w", "0,1")
        assert "weights are for ['ph']" in err
        merged = tmp_path / "merged.json"
        assert run_cli("report", "--inputs", str(model), "--output", str(merged)) == 0
        assert json.loads(merged.read_text())["comparison"][0]["thickness_scan"] is None


def scipy_modules_after(cli_env, cwd, argv=()):
    """The scipy modules a child process holds after running ``pabfit argv`` in process."""
    run = f"assert pabfit.cli.main({list(argv)!r}) == 0\n" if argv else ""
    code = (
        f"import sys, pabfit.cli\n{run}"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=cli_env, cwd=cwd)
    assert r.returncode == 0, r.stderr
    return r.stdout.strip().splitlines()[-1]


def test_cli_import_leaves_scipy_unloaded(cli_env, tmp_path):
    assert scipy_modules_after(cli_env, tmp_path) == "[]"


@pytest.mark.parametrize(
    "command, loaded",
    [
        ("fit-kinetics --input pcbc_run1.csv --output o.json", []),
        (
            "fit-gp --input pcbc_run1.csv --contaminant pb --output o.json",
            ["scipy.linalg._fblas", "scipy.linalg._flapack"],
        ),
    ],
    ids=["fit-kinetics", "fit-gp"],
)
def test_command_loads_scipy_lapack_alone(cli_env, tmp_path, command, loaded):
    # a GP command loads scipy's BLAS and LAPACK extensions, not the scipy package
    assert scipy_modules_after(cli_env, tmp_path, command.split()) == repr(loaded)


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

    def test_jitter_is_no_option(self, tmp_path):
        # a draw's jitter is gp.DEFAULT_EPSILON, the fit-gp --epsilon default
        out = tmp_path / "gp.csv"
        with pytest.raises(SystemExit) as exit_info:
            run_cli("synth", "--generator", "gp-draw", "--v", "0.3", "--w", "6", "--epsilon", "1e-6",
                    "--output", str(out))
        assert exit_info.value.code == 2
        assert not out.exists()

    def test_more_than_three_weights_rejected(self, tmp_path, capsys):
        # a GP draw has at most three inputs (t_norm, pH, W); a fourth
        # weight must not be dropped in silence, and the weights' own type
        # rejects it
        err = check_rejected(
            tmp_path, capsys, "generate",
            "synth", "--generator", "gp-draw", "--v", "0.3", "--w", "1,2,3,4",
        )
        assert "kind=InvalidInput" in err

    @pytest.mark.parametrize(
        "argv",
        [["--generator", "gp-draw", "--v", "0.3", "--w", "1,x"],
         ["--generator", "first-order", "--k", "-0.001", "--schedule", "10,x"]],
        ids=["w", "schedule"],
    )
    def test_unparsable_option_fails_at_generate(self, tmp_path, capsys, argv):
        err = check_rejected(tmp_path, capsys, "generate", "synth", *argv, code=2)
        assert f"kind=ParseError: {argv[-2]}: cannot parse" in err

    @pytest.mark.parametrize(
        "generator,parameters",
        [("first-order", ["--k", "-0.0006"]), ("exp-model", ["--a", "3.3", "--b", "-0.8"])],
        ids=["first-order", "exp-model"],
    )
    def test_other_generators_ignore_w(self, tmp_path, generator, parameters):
        # --w sets a GP draw's weights; the other generators ignore it, as
        # they ignore --v, whatever its length
        plain, weighted = tmp_path / "plain.csv", tmp_path / "weighted.csv"
        argv = ["synth", "--generator", generator, *parameters, "--seed", "3"]
        assert run_cli(*argv, "--output", str(plain)) == 0
        assert run_cli(*argv, "--w", "1,2,3,4", "--output", str(weighted)) == 0
        assert weighted.read_bytes() == plain.read_bytes()

    @pytest.mark.parametrize(
        "option,value", [("--seed", "-1"), ("--noise-sd", "nan"), ("--noise-sd", "inf")]
    )
    def test_bad_seed_or_noise_rejected(self, tmp_path, capsys, option, value):
        err = check_rejected(
            tmp_path, capsys, "generate",
            "synth", "--generator", "first-order", "--k", "-0.0006", option, value,
        )
        assert "InvalidSpec" in err

    def test_first_order_overflow_clips_to_c0(self, tmp_path):
        out = tmp_path / "s.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run_cli(
                "synth", "--generator", "first-order", "--k", "1e300", "--output", str(out)
            )
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()]
        column = rows[0].index("concentration_mg_l")
        assert {float(row[column]) for row in rows[1:]} == {50.0}

    @pytest.mark.parametrize(
        "parameters", [("first-order", "--k", "-0.0006"), ("exp-model", "--a", "3.3", "--b", "0.8")]
    )
    def test_noise_past_the_float_range_saturates(self, tmp_path, parameters):
        out = tmp_path / "s.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run_cli(
                "synth", "--generator", *parameters, "--noise-sd", "1e308", "--output", str(out)
            )
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()]
        column = rows[0].index("concentration_mg_l")
        assert {float(row[column]) for row in rows[1:]} == {0.0, 50.0}

    @pytest.mark.parametrize(
        "generator,option,value,kind",
        [
            ("first-order", "--c0", "0", "InvalidInput"),
            ("first-order", "--c0", "-1", "InvalidInput"),
            ("first-order", "--schedule", "10,20,inf", "InvalidTime"),
            ("first-order", "--schedule", "10,20,nan", "InvalidTime"),
            ("exp-model", "--schedule", "10,20,inf", "InvalidTime"),
            ("exp-model", "--schedule", "10,20,nan", "InvalidTime"),
            ("first-order", "--schedule", "10,20,1e160", "InvalidTime: row 3: time 1e+160 min is past"),
            ("exp-model", "--schedule", "10,20,1e160", "InvalidTime: row 3: time 1e+160 min is past"),
            ("exp-model", "--schedule", "10,60,30", "InvalidInput: row 3: times must be strictly"),
            ("gp-draw", "--schedule", "10,60,30", "InvalidInput: row 3: times must be strictly"),
        ],
    )
    def test_value_the_series_rejects_warns_nothing(
        self, tmp_path, capsys, monkeypatch, generator, option, value, kind
    ):
        # no numpy warning (the log of a c0 <= 0, inf / inf) precedes the
        # error line, a nan time is named as the time, not as the
        # concentration it gives, and log_time_norm rejects a schedule
        # before the GP draw factors its covariance
        def no_factor(*_):
            raise AssertionError("covariance factored before the schedule was checked")

        monkeypatch.setattr(dataio, "covariance_factor", no_factor)
        parameters = {
            "first-order": ["--k", "-0.001"],
            "exp-model": ["--a", "3.3", "--b", "0.8"],
            "gp-draw": ["--v", "0.3", "--w", "1"],
        }
        err = check_rejected(
            tmp_path, capsys, "generate",
            "synth", "--generator", generator, *parameters[generator], option, value,
        )
        assert f"kind={kind}" in err

    @pytest.mark.parametrize(
        "parameters,message",
        [
            (["exp-model", "--a", "nan", "--b", "0.8"], "needs finite parameters, got a=nan"),
            (["exp-model", "--a", "3.3", "--b", "inf"], "needs finite parameters, got b=inf"),
            (["first-order", "--k", "nan"], "needs finite parameters, got k=nan"),
            (["first-order", "--k=-inf"], "needs finite parameters, got k=-inf"),
            # t * a * (b + W) overflows where e^{-t * (a + b + W)} is 0 or inf
            (["exp-model", "--a", "1e308", "--b", "0.8"], "NaN removal at a=1e+308, b=0.8, thickness=3.0"),
            (["exp-model", "--a", "-1000", "--b", "0.8"], "NaN removal at a=-1000.0, b=0.8"),
            (["gp-draw", "--v", "0.3", "--w", "1", "--mean", "nan"], "NaN removal at v=0.3, w=[1.0], mean=nan"),
        ],
        ids=["a-nan", "b-inf", "k-nan", "k-minus-inf", "a-overflows", "a-negative", "mean-nan"],
    )
    def test_parameters_named_when_the_curve_is_not_finite(self, tmp_path, capsys, parameters, message):
        # the error names the argument given, not a concentration derived from it
        err = check_rejected(tmp_path, capsys, "generate", "synth", "--generator", *parameters)
        assert f"kind=InvalidSpec: {parameters[0]} generator " in err
        assert message in err

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


class TestErrorNets:
    def test_stage_passes_other_warnings_to_showwarning(self, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with _stage("fit"):
                warnings.warn("not one of ours", RuntimeWarning)
                warnings.warn("flat", DegenerateFitWarning)
        assert [(w.category, str(w.message)) for w in caught] == [(RuntimeWarning, "not one of ours")]
        assert capsys.readouterr().err == "warning: stage=fit kind=DegenerateFitWarning: flat\n"

    def test_os_error_outside_a_stage_exits_5(self, tmp_path, capsys, monkeypatch):
        def broken_pipe(args):
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")

        help_text, options, _ = cli._COMMANDS["fit-kinetics"]
        monkeypatch.setitem(cli._COMMANDS, "fit-kinetics", (help_text, options, broken_pipe))
        out = tmp_path / "kin.json"
        assert run_cli("fit-kinetics", "--input", "pcbc_run1.csv", "--output", str(out)) == 5
        assert capsys.readouterr().err == "error: stage=io code=5 kind=OSError: [Errno 32] Broken pipe\n"
        assert not out.exists()


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
