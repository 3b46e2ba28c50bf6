"""Seeded benchmark inputs and the numpy oracles that check outputs.

Nothing in this module imports pabfit. Inputs and reference answers are
built from the published model formulas, so a change to the code under
test can change neither what it is fed nor what it is checked against.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

# 65 effluent sample times (minutes): every 10 min for an hour, then hourly
SCHEDULE = np.array([*range(10, 61, 10), *range(120, 3601, 60)], dtype=float)
C0 = 50.0
EPSILON = 1.490116e-08  # the GP training-diagonal jitter the CLI uses by default

# published reference hyperparameters; columns (t_norm, pH, W) for lead and
# (t_norm, W) for methylene blue
PB_HYPER = (0.3852, (0.7839, 2.8869, 2.859e-9))
MB_HYPER = (0.2397, (14.6899, 2.2309))

FIXTURES = {  # bundled file -> (contaminant, default thickness in cm)
    "pcp_run1.csv": ("pb", 3.0),
    "pcp_run2.csv": ("pb", 3.0),
    "pcbc_run1.csv": ("pb", 3.0),
    "pcbc_run2.csv": ("pb", 3.0),
    "mb_run1.csv": ("mb", 1.0),
}


def rng(seed: int, stream: int) -> np.random.Generator:
    """Independent PCG64 stream ``stream`` of the run seed."""
    return np.random.Generator(np.random.PCG64([seed, stream]))


def fmt(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# model formulas
# ---------------------------------------------------------------------------


def exp_model(a: float, b: float, t_norm, w, form: str = "literal") -> np.ndarray:
    """C(t, W) = 1 - e^{-tE} - t a (b + W) e^{-tE}, E = a+b+W or a(b+W)."""
    t = np.asarray(t_norm, dtype=float)
    w = np.asarray(w, dtype=float)
    e = a + b + w if form == "literal" else a * (b + w)
    decay = np.exp(-t * e)
    return 1.0 - decay - t * a * (b + w) * decay


def exp_sse(a: float, b: float, t_norm, w, y, form: str) -> float:
    r = exp_model(a, b, t_norm, w, form) - y
    return float(np.dot(r, r))


def sq_exp_kernel(v: float, w, xa: np.ndarray, xb: np.ndarray) -> np.ndarray:
    """v * exp(-sum_p w_p (xa_p - xb_p)^2), one (n, m) plane per input column."""
    acc = np.zeros((xa.shape[0], xb.shape[0]))
    for p, wp in enumerate(w):
        d = xa[:, p, None] - xb[None, :, p]
        acc += wp * d * d
    return v * np.exp(-acc)


class GpOracle:
    """Posterior mean, variance, NLML and LOO SSE by the textbook formulas.

    Uses LU solves and an explicit inverse (numpy only), never the
    Cholesky-and-triangular-solve path of the code under test.
    """

    def __init__(self, v: float, w, eps: float, x: np.ndarray, y: np.ndarray, with_inverse: bool):
        self.v, self.w, self.x = v, tuple(w), x
        k = sq_exp_kernel(v, w, x, x)
        k[np.diag_indices_from(k)] += eps
        self.k = k
        self.alpha = np.linalg.solve(k, y)
        self.y = y
        self.inv = np.linalg.inv(k) if with_inverse else None

    def predict(self, xq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        cross = sq_exp_kernel(self.v, self.w, xq, self.x)
        sol = np.linalg.solve(self.k, cross.T)
        var = self.v - np.einsum("ij,ji->i", cross, sol)
        return cross @ self.alpha, np.maximum(var, 0.0)

    def nlml(self) -> float:
        _, logdet = np.linalg.slogdet(self.k)
        n = self.y.size
        return float(0.5 * self.y @ self.alpha + 0.5 * logdet + 0.5 * n * math.log(2 * math.pi))

    def loo_sse(self) -> float:
        resid = self.alpha / np.diag(self.inv)
        return float(resid @ resid)


# ---------------------------------------------------------------------------
# series and design matrices
# ---------------------------------------------------------------------------


def read_series(path: Path, contaminant: str, thickness: float) -> dict:
    """Columns of a breakthrough CSV, with removal as a fraction."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    t = np.array([float(r["time_min"]) for r in rows])
    if "removal_pct" in rows[0] and rows[0]["removal_pct"] not in ("", None):
        removal = np.array([float(r["removal_pct"]) / 100.0 for r in rows])
    else:
        removal = np.array([(C0 - float(r["concentration_mg_l"])) / C0 for r in rows])
    w = np.array([float(r.get("thickness_cm") or thickness) for r in rows])
    ph = np.array([float(r.get("ph") or 7.0) for r in rows])
    return {"contaminant": contaminant, "t": t, "removal": removal, "w": w, "ph": ph}


def t_norm(t: np.ndarray) -> np.ndarray:
    logs = np.log(t)
    return logs / logs.max()


def design(series: dict) -> tuple[np.ndarray, np.ndarray]:
    """GP training arrays in the published column order."""
    tn = t_norm(series["t"])
    if series["contaminant"] == "pb":
        x = np.column_stack([tn, series["ph"], series["w"]])
    else:
        x = np.column_stack([tn, series["w"]])
    return x, series["removal"].copy()


def exp_series(seed: int, stream: int, contaminant: str, a: float, b: float, w: float,
               form: str, noise_sd: float) -> dict:
    """Exponential-model breakthrough curve on SCHEDULE, optional Gaussian noise."""
    r = rng(seed, stream)
    removal = exp_model(a, b, t_norm(SCHEDULE), w, form)
    if noise_sd > 0:
        removal = removal + noise_sd * r.standard_normal(SCHEDULE.size)
    removal = np.clip(removal, 0.0, 1.0)
    n = SCHEDULE.size
    return {"contaminant": contaminant, "t": SCHEDULE.copy(), "removal": removal,
            "w": np.full(n, w), "ph": np.full(n, 7.0), "generator": (a, b, form, noise_sd)}


# ---------------------------------------------------------------------------
# files the program reads
# ---------------------------------------------------------------------------


def write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    lines = [",".join(header)]
    for row in zip(*columns):
        lines.append(",".join(fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_pb_concentration_csv(path: Path, seed: int, stream: int) -> None:
    """First-order decay c0 exp(k t) with 1% multiplicative noise, plus pH."""
    r = rng(seed, stream)
    k = -r.uniform(3e-4, 8e-4)
    conc = C0 * np.exp(k * SCHEDULE + 0.01 * r.standard_normal(SCHEDULE.size))
    conc = np.clip(conc, 1e-3, C0)
    n = SCHEDULE.size
    ph = round(float(r.uniform(6.5, 7.5)), 3)
    write_csv(path, ["time_min", "concentration_mg_l", "thickness_cm", "ph"],
              [SCHEDULE, conc, np.full(n, 3.0), np.full(n, ph)])


def write_report(path: Path, model_kind: str, parameters: dict, rows: list[dict]) -> None:
    """A fit report in the documented JSON layout (the only part predict reads)."""
    payload = {
        "model_kind": model_kind,
        "parameters": parameters,
        "metrics": None,
        "predictions": rows,
        "provenance": {"tool": "perfbench"},
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def exp_report_params(seed: int, stream: int) -> dict:
    r = rng(seed, stream)
    return {
        "a": float(r.uniform(2.5, 4.0)),
        "b": float(r.uniform(0.5, 1.5)),
        "exponent_form": "literal",
        "sse": 0.0,
        "converged": True,
        "time_denominator": float(np.log(SCHEDULE.max())),
        "c0": C0,
        "contaminant": "pb",
    }


def gp_report(seed: int, stream: int) -> tuple[dict, list[dict], np.ndarray, np.ndarray]:
    """Lead GP report: reference hyperparameters, 65 seeded training rows.

    Returns (parameters, rows, x_train, y_train); x columns (t_norm, pH, W).
    """
    r = rng(seed, stream)
    v, w = PB_HYPER
    tn = t_norm(SCHEDULE)
    ph = np.full(SCHEDULE.size, 7.0)
    thick = np.full(SCHEDULE.size, 3.0)
    y = np.clip(0.9 * (1.0 - np.exp(-r.uniform(2.0, 4.0) * tn))
                + 0.01 * r.standard_normal(SCHEDULE.size), 0.0, 1.0)
    rows = [
        {"inputs": {"time_min": float(t), "t_norm": float(a), "ph": float(p), "thickness_cm": float(b)},
         "predicted": float(o), "observed": float(o)}
        for t, a, p, b, o in zip(SCHEDULE, tn, ph, thick, y)
    ]
    params = {
        "v": v, "w": list(w), "epsilon": EPSILON, "p": 3,
        "time_denominator": float(np.log(SCHEDULE.max())),
        "jitter_used": 0.0, "default_ph": 7.0, "ph_assumed": False,
        "optimized": False, "objective": None, "c0": C0, "contaminant": "pb",
    }
    return params, rows, np.column_stack([tn, ph, thick]), y


def grid(r: np.random.Generator, n: int, lo: float, hi: float, decimals: int) -> list[float]:
    """n distinct sorted values in [lo, hi], rounded so they print short."""
    vals = np.unique(np.round(r.uniform(lo, hi, 4 * n), decimals))
    return sorted(float(v) for v in r.choice(vals, n, replace=False))


def csv_arg(values) -> str:
    return ",".join(repr(float(v)) for v in values)
