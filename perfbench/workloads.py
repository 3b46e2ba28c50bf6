"""The five closed-loop workloads: seeded set-up, one op, and its check.

Constructing a workload is its set-up: it writes the seeded inputs into its
own directory and computes the reference answers. ``cycle`` lists the ops;
the runner repeats whole cycles. ``run`` is the timed op, ``replay`` the
in-process form the traced run wraps, and ``check`` raises
:class:`CheckFailed` when an output is wrong.

Ops call pabfit through module attributes (``gp.gp_fit``), never through
names bound here, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np

import pabfit.cli as cli
import pabfit.expmodel as expmodel
import pabfit.gp as gp

from inputs import (
    EPSILON, FIXTURES, MB_HYPER, PB_HYPER, GpOracle, csv_arg, design, exp_model,
    exp_report_params, exp_series, exp_sse, gp_report, grid, read_series, rng, t_norm,
    write_pb_concentration_csv, write_report,
)

# Tolerances. Oracles solve by LU in numpy; the program by Cholesky and
# triangular solves, so results agree to rounding amplified by the
# conditioning of K + eps*I, not bit for bit.
TOL_EXP = 1e-12  # exponential model values: same formula, elementwise
TOL_GP = 1e-6  # GP posterior mean and variance, absolute
TOL_REL = 1e-9  # an objective recomputed from the returned parameters
TOL_EXP_RECOVERY = 1e-6  # SSE above that at the generating (a, b), noise-free series

OP_TIMEOUT_S = 150


class CheckFailed(Exception):
    pass


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def close(a, b, tol: float) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= tol))


def cli_main(argv: list[str], cwd: Path) -> tuple[int, bytes]:
    """Run the CLI in process the way a shell would: in a directory, stdout captured."""
    old = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.main(argv)
    finally:
        os.chdir(old)
    return code, out.getvalue().encode()


class Workload:
    name = ""
    cycle: list

    def warm_up(self) -> None:
        self.check(self.cycle[0], self.run(self.cycle[0]))

    def replay(self, op):
        return self.run(op)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# cli-mix
# ---------------------------------------------------------------------------


class CliMix(Workload):
    """One ``python -m pabfit`` process per op, cycling the README command set.

    Each command runs once per cycle, so each repeats often enough in a run
    for its best latency to be steady. Optimize commands run on bundled
    fixtures only, so their cost does not depend on the seed; seeded CSVs
    and reports feed the fixed-cost commands. The nlml optimization is the
    slowest op, the one p90 reads.
    """

    name = "cli-mix"

    def __init__(self, seed: int, workdir: Path, env: dict, root: Path):
        self.dir, self.env = workdir, env
        write_pb_concentration_csv(workdir / "syn_pb.csv", seed, 1)
        write_report(workdir / "model_exp.json", "exponential", exp_report_params(seed, 2), [])
        params, rows, _, _ = gp_report(seed, 3)
        write_report(workdir / "model_gp.json", "gaussian_process", params, rows)
        r = rng(seed, 4)
        t_grid, w_grid, scan = grid(r, 4, 2, 3600, 1), grid(r, 4, 0, 3, 2), grid(r, 6, 0, 3, 2)
        synth = ["--a", f"{r.uniform(1.5, 3.0):.4f}", "--b", f"{r.uniform(2.0, 4.0):.4f}",
                 "--seed", str(int(r.integers(1 << 30))), "--noise-sd", "0.005"]
        hyper = "v=%r,w=%r,%r,%r" % (PB_HYPER[0], *PB_HYPER[1])
        self.argv = [
            ["synth", "--generator", "exp-model", *synth, "--contaminant", "mb",
             "--thickness", "1.0", "--output", "synth_mb.csv"],
            ["fit-kinetics", "--input", "syn_pb.csv", "--output", "kin.json"],
            ["fit-exp", "--input", "mb_run1.csv", "--contaminant", "mb", "--output", "exp.json"],
            ["fit-exp", "--input", "pcp_run1.csv", "--exponent-form", "product",
             "--output", "exp_product.json"],
            ["fit-gp", "--input", "pcp_run2.csv", "--hyper", hyper, "--output", "gp.json"],
            ["fit-gp", "--input", "pcbc_run2.csv", "--optimize", "--objective", "sse",
             "--output", "gp_sse.json"],
            ["fit-gp", "--input", "pcbc_run1.csv", "--optimize", "--objective", "nlml",
             "--output", "gp_nlml.json"],
            ["predict", "--model", "model_gp.json", "--t-grid", csv_arg(t_grid),
             "--w-grid", csv_arg(w_grid), "--output", "pred.json"],
            ["report", "--inputs", "model_exp.json", "model_gp.json", "--scan-w", csv_arg(scan),
             "--output", "summary.json"],
        ]
        self.cycle = list(range(len(self.argv)))
        self.reference: dict[int, str] = {}

    def warm_up(self) -> None:
        subprocess.run([sys.executable, "-m", "pabfit", "--version"], cwd=self.dir, env=self.env,
                       check=True, capture_output=True, timeout=OP_TIMEOUT_S)

    def run(self, i: int):
        proc = subprocess.run([sys.executable, "-m", "pabfit", *self.argv[i]], cwd=self.dir,
                              env=self.env, capture_output=True, timeout=OP_TIMEOUT_S)
        return proc.returncode, proc.stdout

    def replay(self, i: int):
        return cli_main(self.argv[i], self.dir)

    def check(self, i: int, out) -> None:
        code, stdout = out
        require(code == 0, f"{self.argv[i][0]} exited with {code}")
        out_path = self.dir / self.argv[i][-1]
        paths = [out_path]
        if self.argv[i][0] not in ("synth", "report"):
            paths.append(out_path.with_suffix(".csv"))
        h = hashlib.sha256(stdout)
        for p in paths:
            h.update(p.read_bytes())
        digest = h.hexdigest()
        ref = self.reference.setdefault(i, digest)
        require(digest == ref, f"{' '.join(self.argv[i][:3])}: output differs from its first run")

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


class CliInproc(CliMix):
    """The cli-mix commands in process through ``pabfit.cli.main``, warm.

    Same seeded inputs, argv and checks as cli-mix, less the interpreter
    start and imports, and less ``fit-gp --optimize --objective nlml``.
    Every op then takes 40 ms or less and repeats hundreds of times in a
    run. On a shared host the best of an op's repetitions holds within ~5%
    between runs at that length, and swings by 14-30% for 0.25-1 s ops
    such as a cli-mix process or the nlml optimization. The sse
    optimization keeps the optimizer path (finite-difference descent over
    GP refits) in the op set; gp-scale calls ``gp_nlml``.
    """

    name = "cli-inproc"

    def __init__(self, seed: int, workdir: Path, env: dict, root: Path):
        super().__init__(seed, workdir, env, root)
        self.argv = [a for a in self.argv if "nlml" not in a]
        self.cycle = list(range(len(self.argv)))

    def warm_up(self) -> None:
        """One pass over the cycle: every code path warm, every reference output set."""
        for i in self.cycle:
            self.check(i, self.run(i))

    def run(self, i: int):
        return self.replay(i)

    def peak_rss_mb(self) -> float:
        return Workload.peak_rss_mb(self)


# ---------------------------------------------------------------------------
# hyperopt
# ---------------------------------------------------------------------------

# Optimizer cost swings from 8 to ~1800 fits on nearby data, so a pool drawn
# per run seed would make the work, not the program, vary between runs. The
# synthetic series therefore come from this fixed seed; the run seed sets
# the order of the ops in the cycle.
POOL_SEED = 20210107


class Hyperopt(Workload):
    """Every optimizer on one n=65 series per op, in process and warm."""

    name = "hyperopt"

    def __init__(self, seed: int, workdir: Path, env: dict, root: Path):
        fixture_dir = root / "src" / "pabfit" / "fixtures"
        pool = [read_series(fixture_dir / f, c, w) for f, (c, w) in FIXTURES.items()]
        r = rng(POOL_SEED, 0)
        pool.append(exp_series(POOL_SEED, 1, "mb", r.uniform(2.0, 4.5), r.uniform(0.8, 3.5),
                               1.0, "literal", 0.0))
        pool.append(exp_series(POOL_SEED, 2, "pb", r.uniform(2.0, 4.5), r.uniform(0.8, 3.5),
                               3.0, "literal", 0.01))
        self.series = []
        for s in pool:
            x, y = design(s)
            v, w = PB_HYPER if s["contaminant"] == "pb" else MB_HYPER
            hp0 = gp.GpHyperParams(v=v, w=w, epsilon=EPSILON)
            model0 = gp.gp_fit(hp0, x, y)
            tn = t_norm(s["t"])
            self.series.append({
                "x": x, "y": y, "hp0": hp0,
                "data": np.column_stack([tn, s["w"], s["removal"]]),
                "start": {"nlml": gp.gp_nlml(model0), "sse": gp.gp_loo_sse(model0)},
                "generator": s.get("generator"),
            })
        self.forms = (expmodel.ExponentForm.LITERAL, expmodel.ExponentForm.PRODUCT)
        self.cycle = [int(i) for i in rng(seed, 0).permutation(len(self.series))]
        self.warm = len(FIXTURES) - 1  # mb_run1, the cheapest fixture

    def warm_up(self) -> None:
        self.check(self.warm, self.run(self.warm))

    def run(self, i: int):
        s = self.series[i]
        hps = {obj: gp.gp_optimize_hyperparams(s["x"], s["y"], s["hp0"], objective=obj)
               for obj in ("nlml", "sse")}
        fits = [expmodel.fit_exp_model(s["data"], exponent_form=f) for f in self.forms]
        return hps, fits

    def check(self, i: int, out) -> None:
        s = self.series[i]
        hps, fits = out
        for obj, score in (("nlml", gp.gp_nlml), ("sse", gp.gp_loo_sse)):
            start = s["start"][obj]
            end = score(gp.gp_fit(hps[obj], s["x"], s["y"]))
            require(math.isfinite(end) and end <= start + TOL_REL * max(1.0, abs(start)),
                    f"series {i}: {obj} rose from {start!r} to {end!r}")
        t, w, y = s["data"].T
        for f, fit in zip(self.forms, fits):
            form = f.value
            sse = exp_sse(fit.a, fit.b, t, w, y, form)
            require(math.isfinite(sse) and abs(sse - fit.sse) <= TOL_REL * max(1e-6, sse),
                    f"series {i} {form}: reported sse {fit.sse!r}, recomputed {sse!r}")
            start = exp_sse(1.0, 1.0, t, w, y, form)
            require(fit.sse <= start + TOL_REL * max(1e-6, start),
                    f"series {i} {form}: sse {fit.sse!r} above start {start!r}")
            gen = s["generator"]
            if gen is not None and gen[2] == form and gen[3] == 0.0:
                floor = exp_sse(gen[0], gen[1], t, w, y, form)
                require(fit.sse <= floor + TOL_EXP_RECOVERY,
                        f"series {i} {form}: sse {fit.sse!r} vs {floor!r} at the generator")


# ---------------------------------------------------------------------------
# gp-scale
# ---------------------------------------------------------------------------


class GpScale(Workload):
    """gp_fit, gp_predict at m = n, gp_nlml and gp_loo_sse on n = 500 and 2000.

    Nineteen n=500 ops per n=2000 op: p50 and p90 read n = 500, an op short
    enough for its best repetition to be steady on a host whose speed
    changes within seconds. The n=2000 op is ~60% of ``ops_per_s`` and its
    (n, n, p) temporaries set the peak RSS.
    """

    name = "gp-scale"
    SIZES = (500, 2000)
    SAMPLE = 16  # query points checked against the oracle, per size

    def __init__(self, seed: int, workdir: Path, env: dict, root: Path):
        v, w = PB_HYPER
        self.hp = gp.GpHyperParams(v=v, w=w, epsilon=EPSILON)
        self.cases = []
        for k, n in enumerate(self.SIZES):
            r = rng(seed, 10 + k)
            x, xq = (np.column_stack([r.uniform(0.1, 1.0, n), r.uniform(6.0, 8.0, n),
                                      r.uniform(0.5, 3.0, n)]) for _ in range(2))
            y = np.clip(0.9 * (1 - np.exp(-3 * x[:, 0])) - 0.05 * (x[:, 1] - 7)
                        + 0.01 * r.standard_normal(n), 0.0, 1.0)
            idx = np.sort(r.choice(n, self.SAMPLE, replace=False))
            oracle = GpOracle(v, w, EPSILON, x, y, with_inverse=n <= 500)
            mean, var = oracle.predict(xq[idx])
            ref = {"mean": mean, "var": var}
            if oracle.inv is not None:
                ref.update(nlml=oracle.nlml(), loo=oracle.loo_sse())
            self.cases.append({"n": n, "x": x, "y": y, "xq": xq, "idx": idx, "ref": ref})
        self.cycle = [0] * 19 + [1]

    def run(self, k: int):
        c = self.cases[k]
        model = gp.gp_fit(self.hp, c["x"], c["y"])
        pred = gp.gp_predict(model, c["xq"])
        return pred.mean, pred.variance, gp.gp_nlml(model), gp.gp_loo_sse(model)

    def check(self, k: int, out) -> None:
        c, ref = self.cases[k], self.cases[k]["ref"]
        mean, var, nlml, loo = out
        n = c["n"]
        require(mean.shape == (n,) and var.shape == (n,), f"n={n}: wrong output shape")
        require(bool(np.all(np.isfinite(mean)) and np.all(var >= 0)), f"n={n}: bad posterior")
        require(close(mean[c["idx"]], ref["mean"], TOL_GP), f"n={n}: posterior mean off")
        require(close(var[c["idx"]], ref["var"], TOL_GP), f"n={n}: posterior variance off")
        require(math.isfinite(nlml) and math.isfinite(loo) and loo >= 0, f"n={n}: bad objective")
        if "nlml" in ref:
            require(abs(nlml - ref["nlml"]) <= 1e-6 * max(1.0, abs(ref["nlml"])), f"n={n}: nlml off")
            require(abs(loo - ref["loo"]) <= 1e-6 * max(1.0, ref["loo"]), f"n={n}: loo sse off")


# ---------------------------------------------------------------------------
# grid-predict
# ---------------------------------------------------------------------------


class GridPredict(Workload):
    """predict on a 200 x 50 grid and report --scan-w on 2000 thicknesses, in process."""

    name = "grid-predict"
    GP_SAMPLE = 64

    def __init__(self, seed: int, workdir: Path, env: dict, root: Path):
        self.dir = workdir
        self.exp = exp_report_params(seed, 20)
        write_report(workdir / "model_exp.json", "exponential", self.exp, [])
        params, rows, x, y = gp_report(seed, 21)
        write_report(workdir / "model_gp.json", "gaussian_process", params, rows)
        self.denom = params["time_denominator"]
        r = rng(seed, 22)
        self.t_grid = np.array(grid(r, 200, 2, 3600, 2))
        self.w_grid = np.array(grid(r, 50, 0, 3, 3))
        self.scan = np.array(grid(r, 2000, 0, 5, 4))
        self.argv = [
            ["predict", "--model", "model_exp.json", "--t-grid", csv_arg(self.t_grid),
             "--w-grid", csv_arg(self.w_grid), "--output", "pred_exp.json"],
            ["predict", "--model", "model_gp.json", "--t-grid", csv_arg(self.t_grid),
             "--w-grid", csv_arg(self.w_grid), "--output", "pred_gp.json"],
            ["report", "--inputs", "model_exp.json", "model_gp.json", "--scan-w",
             csv_arg(self.scan), "--output", "scan.json"],
        ]
        # row-major (time, thickness) grid, as predict writes it
        tt, ww = np.meshgrid(self.t_grid, self.w_grid, indexing="ij")
        self.tt, self.ww = tt.ravel(), ww.ravel()
        self.tn = np.log(self.tt) / self.denom
        self.exp_ref = exp_model(self.exp["a"], self.exp["b"], self.tn, self.ww)
        v, w = PB_HYPER
        oracle = GpOracle(v, w, EPSILON, x, y, with_inverse=False)
        self.gp_idx = np.sort(r.choice(self.tt.size, self.GP_SAMPLE, replace=False))
        q = np.column_stack([self.tn[self.gp_idx], np.full(self.GP_SAMPLE, 7.0), self.ww[self.gp_idx]])
        self.gp_ref = oracle.predict(q)
        scan_q = np.column_stack([np.ones(self.scan.size), np.full(self.scan.size, 7.0), self.scan])
        self.scan_ref = {
            "exponential": exp_model(self.exp["a"], self.exp["b"], 1.0, self.scan),
            "gaussian_process": oracle.predict(scan_q)[0],
        }
        self.cycle = [0, 1, 2]

    def warm_up(self) -> None:
        self.check(2, self.run(2))

    def run(self, i: int):
        return cli_main(self.argv[i], self.dir)[0]

    def _rows(self, name: str) -> list[dict]:
        payload = json.loads((self.dir / name).read_text(encoding="utf-8"))
        rows = payload["predictions"]
        require(len(rows) == self.tt.size, f"{name}: {len(rows)} rows")
        return rows

    def check(self, i: int, code) -> None:
        require(code == 0, f"{self.argv[i][0]} exited with {code}")
        if i == 2:
            return self._check_scan()
        name = self.argv[i][-1]
        rows = self._rows(name)
        inputs = np.array([[r["inputs"]["time_min"], r["inputs"]["t_norm"],
                            r["inputs"]["thickness_cm"]] for r in rows])
        require(np.array_equal(inputs[:, 0], self.tt) and np.array_equal(inputs[:, 2], self.ww),
                f"{name}: grid order")
        require(close(inputs[:, 1], self.tn, 1e-14), f"{name}: t_norm off")
        pred = np.array([r["predicted"] for r in rows])
        csv_lines = (self.dir / name).with_suffix(".csv").read_text(encoding="utf-8").splitlines()
        require(len(csv_lines) == pred.size + 1, f"{name}: csv has {len(csv_lines)} lines")
        require(np.array_equal(np.array([float(s.rsplit(",", 1)[1]) for s in csv_lines[1:]]), pred),
                f"{name}: csv and json disagree")
        if i == 0:
            require(close(pred, self.exp_ref, TOL_EXP), f"{name}: predictions off")
            return
        var = np.array([r["variance"] for r in rows])
        require(bool(np.all(np.isfinite(pred)) and np.all(var >= 0)), f"{name}: bad posterior")
        require(close(pred[self.gp_idx], self.gp_ref[0], TOL_GP), f"{name}: posterior mean off")
        require(close(var[self.gp_idx], self.gp_ref[1], TOL_GP), f"{name}: posterior variance off")

    def _check_scan(self) -> None:
        payload = json.loads((self.dir / "scan.json").read_text(encoding="utf-8"))
        entries = payload["comparison"]
        require(len(entries) == 2, "scan: expected two entries")
        for entry in entries:
            kind = entry["model_kind"]
            ref = self.scan_ref[kind]
            tol = TOL_EXP if kind == "exponential" else TOL_GP
            scan = entry["thickness_scan"]
            require(scan["w_grid"] == sorted(self.scan.tolist()), f"scan {kind}: grid")
            at = np.flatnonzero(self.scan == scan["optimum_w_cm"])
            require(at.size == 1, f"scan {kind}: optimum {scan['optimum_w_cm']} not on the grid")
            best = float(ref.max())
            require(abs(scan["removal_at_optimum"] - best) <= tol
                    and abs(float(ref[at[0]]) - best) <= tol, f"scan {kind}: not the optimum")


WORKLOADS = {w.name: w for w in (CliMix, CliInproc, Hyperopt, GpScale, GridPredict)}
