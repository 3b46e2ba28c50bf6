"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Tolerances are pinned here and nowhere else.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from pabfit.dataio import (
    DEFAULT_SCHEDULE,
    FIXTURES,
    load_fixture,
)
from pabfit.domain import Contaminant, ObservationSeries, Sample
from pabfit.expmodel import ExpModelParams, exp_model_eval, exp_model_residual_jacobian
from pabfit.gp import (
    GpHyperParams,
    default_hyperparams,
    gp_fit,
    gp_nlml,
    gp_optimize_hyperparams,
    gp_predict,
    kernel_matrix,
    select_inputs,
    training_set,
)
from pabfit.kinetics import fit_first_order
from pabfit.metrics import compute_metrics
from pabfit.numeric import gradient_descent, levenberg_marquardt

from oracles import MB_EXP_PARAMS, PB_EXP_PARAMS, kinetic_r2


def done(number, name):
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


def test_01_removal_arithmetic_matches_published_percentages():
    for conc, want in ((6.53, "86.94"), (8.94, "82.12")):
        samples = (
            Sample(10.0, concentration=40.0, thickness_w=3.0),
            Sample(60.0, concentration=20.0, thickness_w=3.0),
            Sample(3600.0, concentration=conc, thickness_w=3.0),
        )
        series = ObservationSeries(Contaminant.PB, "accept", 50.0, samples)
        frac = series.removal_fractions()[-1]
        assert f"{100.0 * frac:.2f}" == want
    done(1, "removal arithmetic")


def test_02_kinetic_round_trip_100_random_series():
    rng = np.random.default_rng(20260810)
    t = np.asarray(DEFAULT_SCHEDULE)
    for _ in range(100):
        k = float(rng.uniform(-1e-2, -1e-5))
        c0 = float(rng.uniform(1.0, 100.0))
        samples = tuple(
            Sample(float(ti), concentration=float(c0 * math.exp(k * ti)), thickness_w=3.0)
            for ti in t
        )
        series = ObservationSeries(Contaminant.PB, "rt", c0, samples)
        fit = fit_first_order(series)
        assert abs(fit.k - k) < 1e-10
        assert abs(kinetic_r2(series, fit) - 1.0) < 1e-12
    done(2, "kinetic round trip")


def test_03_fixture_rate_constants_match_reference_table():
    table = {
        "pcp_run1.csv": (-0.0004, 0.94),
        "pcp_run2.csv": (-0.0002, 0.80),
        "pcbc_run1.csv": (-0.0006, 0.94),
        "pcbc_run2.csv": (-0.0005, 0.94),
    }
    for name, (k_ref, r2_min) in table.items():
        series = load_fixture(name)
        fit = fit_first_order(series)
        assert fit.k < 0.0, name
        assert math.floor(math.log10(abs(fit.k))) == math.floor(math.log10(abs(k_ref))), name
        r2 = kinetic_r2(series, fit)
        assert r2 >= r2_min, (name, r2)
    done(3, "fixture rate constants vs reference table")


def test_04_exp_model_boundary_and_reference_evaluation():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        p = ExpModelParams(a=float(rng.uniform(-5, 5)), b=float(rng.uniform(-5, 5)))
        assert exp_model_eval(p, 0.0, float(rng.uniform(0, 3))) == 0.0
    a, b = PB_EXP_PARAMS
    oracle = 1.0 - math.exp(-(a + b + 0.5)) - 1.0 * a * (b + 0.5) * math.exp(-(a + b + 0.5))
    got = float(exp_model_eval(ExpModelParams(a=a, b=b), 1.0, 0.5))
    assert abs(got - oracle) < 1e-12
    done(4, "exponential model boundary and evaluation")


def test_05_exp_fit_recovery_within_basin():
    t = np.linspace(0.05, 1.0, 20)
    w_values = (0.0, 0.5, 1.0)
    for a, b in (PB_EXP_PARAMS, MB_EXP_PARAMS):
        truth = ExpModelParams(a=a, b=b)
        data = [
            (float(ti), float(wj), float(exp_model_eval(truth, ti, wj)))
            for ti in t
            for wj in w_values
        ]
        tt, ww, y = np.array(data).T

        def residual_jacobian(theta):
            return exp_model_residual_jacobian(ExpModelParams(*theta), tt, ww, y)

        for da, db in ((0.5, 0.5), (-0.5, -0.5), (0.5, -0.5), (-0.5, 0.5)):
            fit = levenberg_marquardt(residual_jacobian, (a + da, b + db))
            assert abs(fit.x[0] - a) < 1e-3, (a, b, da, db)
            assert abs(fit.x[1] - b) < 1e-3, (a, b, da, db)
    done(5, "exponential fit recovery")


def test_06_gp_posterior_matches_explicit_inverse_oracle():
    for hp in map(default_hyperparams, Contaminant):
        rng = np.random.default_rng(6)
        scale = np.array([1.0, 9.0, 3.0])[: hp.p]
        for _ in range(50):
            n = int(rng.integers(1, 6))
            x = rng.uniform(0, 1, size=(n, hp.p)) * scale
            y = rng.uniform(0, 1, n)
            xq = rng.uniform(0, 1, size=(3, hp.p)) * scale
            pred = gp_predict(gp_fit(hp, x, y), xq)
            k_train = kernel_matrix(hp, x) + hp.epsilon * np.eye(n)
            k_cross = kernel_matrix(hp, xq, x)
            k_inv = np.linalg.inv(k_train)
            mean_o = k_cross @ k_inv @ y
            var_o = np.maximum(hp.v - np.einsum("ij,ij->i", k_cross @ k_inv, k_cross), 0.0)
            np.testing.assert_allclose(pred.mean, mean_o, atol=1e-8)
            np.testing.assert_allclose(pred.variance, var_o, atol=1e-8)
    done(6, "GP oracle equivalence")


def test_07_gp_reference_hyperparameters_interpolate_all_fixtures():
    for name, contaminant in FIXTURES.items():
        columns, y, _, _ = training_set(load_fixture(name))
        hp, x, _ = select_inputs(default_hyperparams(contaminant), columns)
        pred = gp_predict(gp_fit(hp, x, y), x)
        metrics = compute_metrics(y, pred.mean)
        assert metrics.r2 >= 0.99, (name, metrics.r2)
        assert 0.99 <= metrics.obs_pred_slope <= 1.01, (name, metrics.obs_pred_slope)
    done(7, "GP interpolation R^2 and slope on fixtures")


def test_08_gp_prior_posterior_sanity():
    rng = np.random.default_rng(8)
    for _ in range(20):
        v = float(rng.uniform(0.2, 2.0))
        hp = GpHyperParams(v=v, w=(3.0, 3.0))
        g = np.arange(3.0)
        x = np.array([[a, b] for a in g for b in g])
        y = rng.uniform(0, 1, len(x))
        model = gp_fit(hp, x, y)
        at_train = gp_predict(model, x)
        assert np.all(at_train.variance <= hp.epsilon * (1.0 + 1e-6) * max(1.0, v))
        anywhere = gp_predict(model, rng.uniform(-1, 3, size=(25, 2)))
        assert np.all(anywhere.variance <= v + 1e-12)
        far = gp_predict(model, np.array([[1e4, 1e4]]))
        assert abs(far.mean[0]) < 1e-9
        assert far.variance[0] == pytest.approx(v, rel=1e-12)
    done(8, "GP prior/posterior sanity")


def test_09_pb_kernel_thickness_insensitivity():
    hp = default_hyperparams(Contaminant.PB)
    rng = np.random.default_rng(9)
    for _ in range(200):
        t1, t2 = rng.uniform(0, 1, 2)
        ph1, ph2 = rng.uniform(5, 9, 2)
        w0 = float(rng.uniform(0, 3))
        base = kernel_matrix(hp, [[t1, ph1, w0]], [[t2, ph2, w0]])[0, 0]
        for dw in (1.5, -1.5):
            moved = kernel_matrix(hp, [[t1, ph1, w0]], [[t2, ph2, w0 + dw]])[0, 0]
            assert abs(moved - base) / base < 1e-8
    done(9, "thickness-insensitive lead kernel")


def test_10_optimizer_contract_and_hyperparameter_search():
    rng = np.random.default_rng(10)
    for _ in range(20):
        dim = int(rng.integers(1, 4))
        center = rng.standard_normal(dim)

        def quad(z):
            return float(np.sum((z - center) ** 2))

        x0 = rng.standard_normal(dim) * 2
        res = gradient_descent(quad, lambda z, center=center: 2.0 * (z - center), x0)
        assert res.fun <= quad(x0)

    wins = 0
    for seed in range(100):
        trial_rng = np.random.default_rng(1000 + seed)
        x = np.sort(trial_rng.uniform(0, 1, 15))[:, None]
        hp_true = GpHyperParams(v=0.5, w=(8.0,))
        cov = kernel_matrix(hp_true, x)
        cov[np.diag_indices_from(cov)] += hp_true.epsilon
        y = np.linalg.cholesky(cov) @ trial_rng.standard_normal(15)
        hp0 = GpHyperParams(v=1.0, w=(1.0,))
        before = gp_nlml(gp_fit(hp0, x, y))
        hp_opt = gp_optimize_hyperparams(x, y, hp0)
        after = gp_nlml(gp_fit(hp_opt, x, y))
        assert after <= before  # the contract: never worse than the start
        wins += after < before
    assert wins >= 95, wins
    done(10, "optimizer contract and NLML search")


def test_11_cli_byte_determinism(tmp_path, cli_env):
    # identical configs (relative paths, fixed seed) run in two fresh
    # working directories must produce byte-identical outputs
    def run(cwd):
        base = [sys.executable, "-m", "pabfit"]
        r1 = subprocess.run(
            [
                *base, "synth", "--generator", "gp-draw", "--v", "0.3852", "--w", "5.0",
                "--mean", "0.5", "--noise-sd", "0.02", "--seed", "42",
                "--contaminant", "mb", "--thickness", "1.0", "--output", "series.csv",
            ],
            capture_output=True,
            cwd=cwd,
            env=cli_env,
        )
        assert r1.returncode == 0, r1.stderr
        r2 = subprocess.run(
            [
                *base, "fit-gp", "--input", "series.csv", "--contaminant", "mb",
                "--output", "gp.json",
            ],
            capture_output=True,
            cwd=cwd,
            env=cli_env,
        )
        assert r2.returncode == 0, r2.stderr
        return (
            (cwd / "series.csv").read_bytes(),
            (cwd / "gp.json").read_bytes(),
            (cwd / "gp.csv").read_bytes(),
        )

    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    dir_a.mkdir()
    dir_b.mkdir()
    for got_a, got_b in zip(run(dir_a), run(dir_b)):
        assert got_a == got_b
    done(11, "CLI byte determinism")
