import json
import math
import os
import stat
from pathlib import Path

import numpy as np
import pytest

import pabfit
from pabfit.dataio import (
    DEFAULT_SCHEDULE,
    FIXTURE_C0,
    FIXTURES,
    fixture_dir,
    generate_synthetic,
    load_fixture,
    load_series,
    read_report,
    report_csv_path,
    resolve_input,
    write_comparison,
    write_report,
    write_series,
)
from pabfit.domain import (
    Contaminant,
    FitReport,
    ModelKind,
    PredictionRow,
)
from pabfit.errors import (
    FileIOError,
    InvalidInput,
    InvalidSpec,
    ParseError,
    ValidationError,
)
from pabfit.expmodel import fit_exp_model
from pabfit.gp import DEFAULT_EPSILON, training_set
from pabfit.kinetics import fit_first_order
from pabfit.metrics import FitMetrics

from oracles import kinetic_r2


def write_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


GOOD = """time_min,concentration_mg_l,thickness_cm,ph
10,40.0,3.0,7.0
60,30.0,3.0,7.0
3600,6.53,3.0,7.0
"""


class TestLoadSeries:
    def test_happy_path(self, tmp_path):
        path = write_csv(tmp_path, GOOD)
        s = load_series(path, Contaminant.PB, 50.0)
        assert len(s.samples) == 3
        assert s.removal_fractions()[-1] == pytest.approx(0.8694)
        assert s.samples[0].ph == 7.0

    def test_time_zero_names_row(self, tmp_path):
        path = write_csv(tmp_path, "time_min,concentration_mg_l\n0,40.0\n60,30.0\n")
        with pytest.raises(ValidationError, match="row 1"):
            load_series(path, Contaminant.PB, 50.0, default_thickness_cm=3.0)

    def test_unsorted_rejected(self, tmp_path):
        path = write_csv(tmp_path, "time_min,concentration_mg_l\n60,40.0\n30,41.0\n90,39.0\n")
        with pytest.raises(ValidationError, match="row 2"):
            load_series(path, Contaminant.PB, 50.0, default_thickness_cm=3.0)

    @pytest.mark.parametrize(
        "data,message",
        [
            (b"time_min,concentration_mg_l\n10,forty\n", "concentration_mg_l"),
            (b"time_min,concentration_mg_l\n10,40\n60,30\xff\n90,20\n", "not valid UTF-8"),
            (b"time_min,concentration_mg_l\n10," + b"4" * 200_000 + b"\n", "field limit"),
        ],
        ids=["cell", "not_utf8", "cell_past_the_csv_field_limit"],
    )
    def test_bad_cell_is_parse_error(self, tmp_path, data, message):
        path = tmp_path / "data.csv"
        path.write_bytes(data)
        with pytest.raises(ParseError, match=message):
            load_series(path, Contaminant.PB, 50.0, default_thickness_cm=3.0)

    def test_concentration_above_c0_rejected(self, tmp_path):
        path = write_csv(tmp_path, "time_min,concentration_mg_l\n10,51.0\n60,30.0\n90,20.0\n")
        with pytest.raises(ValidationError, match="row 1"):
            load_series(path, Contaminant.PB, 50.0, default_thickness_cm=3.0)

    def test_unknown_column_rejected(self, tmp_path):
        text = "time_min,concentration_mg_l,operator\n10,40.0,bob\n60,30.0,bob\n90,20.0,bob\n"
        path = write_csv(tmp_path, text)
        with pytest.raises(ValidationError, match="operator"):
            load_series(path, Contaminant.PB, 50.0, default_thickness_cm=3.0)

    def test_removal_pct_divided_by_100(self, tmp_path):
        path = write_csv(tmp_path, "time_min,removal_pct,thickness_cm\n10,10.0,1.0\n60,50.0,1.0\n90,86.94,1.0\n")
        s = load_series(path, Contaminant.METHYLENE_BLUE, 50.0)
        assert [x.removal_fraction for x in s.samples] == [0.1, 0.5, 0.8694]

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(FileIOError):
            load_series(tmp_path / "nope.csv", Contaminant.PB, 50.0)

    def test_needs_response_column(self, tmp_path):
        path = write_csv(tmp_path, "time_min,thickness_cm\n10,1\n")
        with pytest.raises(ValidationError):
            load_series(path, Contaminant.PB, 50.0)

    def test_missing_thickness_cell_takes_the_default(self, tmp_path):
        text = "time_min,concentration_mg_l,thickness_cm\n10,40,1.5\n60,30,\n90,20,\n"
        path = write_csv(tmp_path, text)
        s = load_series(path, Contaminant.PB, 50.0, default_thickness_cm=3.0)
        assert [x.thickness_w for x in s.samples] == [1.5, 3.0, 3.0]



    def test_byte_order_mark_is_read_past(self, tmp_path):
        # a spreadsheet's "CSV UTF-8" export starts with one
        bom = tmp_path / "pcbc_run1.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + (fixture_dir() / "pcbc_run1.csv").read_bytes())
        assert load_series(bom, Contaminant.PB, FIXTURE_C0) == load_fixture("pcbc_run1.csv")
        bom.write_bytes(b"\xef\xbb\xbftime_min,concentration_mg_l\n10,40\n60,30\xff\n90,20\n")
        with pytest.raises(ParseError, match="not valid UTF-8"):
            load_series(bom, Contaminant.PB, FIXTURE_C0)


class TestFixtures:
    def test_all_fixture_anchors(self):
        final_removal = {  # removal fraction at the last sample time (fixtures/README.md)
            "pcp_run1.csv": 0.72,
            "pcp_run2.csv": 0.584,
            "pcbc_run1.csv": 0.8694,
            "pcbc_run2.csv": 0.8212,
            "mb_run1.csv": 0.9853613053949207,
        }
        assert set(final_removal) == set(FIXTURES)
        for name, removal in final_removal.items():
            series = load_fixture(name)
            assert series.removal_fractions()[-1] == pytest.approx(removal, abs=1e-4), name
            assert len(series.samples) == len(DEFAULT_SCHEDULE)

    def test_pcbc_run1_final_concentration(self):
        s = load_fixture("pcbc_run1.csv")
        assert s.samples[-1].t_raw == 3600.0
        assert s.samples[-1].concentration == pytest.approx(6.53, abs=1e-9)

    def test_fixture_kinetics_match_reference_table(self):
        reference = {
            "pcp_run1.csv": (-0.0004, 0.94),
            "pcp_run2.csv": (-0.0002, 0.80),
            "pcbc_run1.csv": (-0.0006, 0.94),
            "pcbc_run2.csv": (-0.0005, 0.94),
        }
        for name, (k_ref, r2_min) in reference.items():
            series = load_fixture(name)
            fit = fit_first_order(series)
            assert fit.k < 0, name
            assert math.floor(math.log10(abs(fit.k))) == math.floor(
                math.log10(abs(k_ref))
            ), name
            assert kinetic_r2(series, fit) >= r2_min, name

    def test_fixture_dir_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PABFIT_FIXTURE_DIR", str(tmp_path))
        assert fixture_dir() == tmp_path
        with pytest.raises(FileIOError):
            resolve_input("pcbc_run1.csv")

    def test_a_bare_name_resolves_from_the_fixture_dir(self, tmp_path, monkeypatch):
        # the override's file of a bundled name, three rows of pcbc_run1.csv
        monkeypatch.chdir(tmp_path)
        override = tmp_path / "fixtures"
        override.mkdir()
        bundled = Path(pabfit.__file__).parent / "fixtures"
        head = (bundled / "pcbc_run1.csv").read_text().splitlines()[:4]
        (override / "pcbc_run1.csv").write_text("\n".join(head) + "\n")
        monkeypatch.setenv("PABFIT_FIXTURE_DIR", str(override))
        assert resolve_input("pcbc_run1.csv") == override / "pcbc_run1.csv"
        assert len(load_fixture("pcbc_run1.csv").samples) == 3
        monkeypatch.delenv("PABFIT_FIXTURE_DIR")
        assert resolve_input("pcbc_run1.csv") == bundled / "pcbc_run1.csv"
        assert len(load_fixture("pcbc_run1.csv").samples) == 65

    def test_only_a_bare_name_falls_back_to_a_fixture(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert resolve_input("pcbc_run1.csv") == fixture_dir() / "pcbc_run1.csv"
        for path in ("./pcbc_run1.csv", "sub/pcbc_run1.csv", tmp_path / "pcbc_run1.csv"):
            with pytest.raises(FileIOError, match="no such file"):
                resolve_input(path)

    def test_unknown_fixture(self):
        with pytest.raises(InvalidSpec):
            load_fixture("nonexistent.csv")


def synth(generator, **options):
    """``generate_synthetic`` with the synth command's defaults for the
    options not given."""
    defaults = dict(
        k=None, a=None, b=None, v=None, w=(), mean=0.5, epsilon=DEFAULT_EPSILON,
        c0=50.0, thickness=3.0, ph=None, schedule=DEFAULT_SCHEDULE, noise_sd=0.0,
        seed=0, contaminant=Contaminant.PB, run_label="synthetic",
    )
    return generate_synthetic(generator, **{**defaults, **options})


class TestGenerateSynthetic:
    def test_first_order_roundtrip(self):
        series = synth("first-order", k=-0.0006, c0=50.0)
        fit = fit_first_order(series)
        assert fit.k == pytest.approx(-0.0006, abs=1e-10)

    def test_exp_model_roundtrip(self):
        series = synth("exp-model", a=3.315, b=0.829, thickness=0.5, c0=50.0)
        columns, removal, _, _ = training_set(series)
        data = np.column_stack([columns["t_norm"], columns["thickness_cm"], removal])
        # at one constant thickness the curve is symmetric under swapping
        # a <-> (b + W), so the fit recovers the parameter PAIR {a, b+W}
        # and the curve, but either branch may carry the labels
        fit = fit_exp_model(data)
        assert fit.sse < 1e-10
        got = sorted([fit.a, fit.b + 0.5])
        want = sorted([3.315, 0.829 + 0.5])
        assert got == pytest.approx(want, abs=1e-3)

    def test_same_seed_identical(self, tmp_path):
        spec = dict(v=0.3852, w=[5.0], c0=50.0, mean=0.5, noise_sd=0.01, seed=7)
        a = synth("gp-draw", **spec)
        b = synth("gp-draw", **spec)
        assert a == b
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        write_series(a, pa)
        write_series(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_different_seed_differs(self):
        base = dict(v=0.3852, w=[5.0])
        a = synth("gp-draw", seed=1, **base)
        b = synth("gp-draw", seed=2, **base)
        assert a != b

    def test_noise_clamped_to_physical_range(self):
        series = synth("first-order", k=-0.002, c0=50.0, noise_sd=40.0, seed=3)
        c = series.concentrations()
        assert np.all((c >= 0.0) & (c <= 50.0))

    def test_invalid_specs(self):
        with pytest.raises(InvalidSpec):
            synth("first-order")
        with pytest.raises(InvalidSpec, match="unknown generator 'bogus'"):
            synth("bogus", k=-0.001)
        with pytest.raises(InvalidInput, match="strictly increasing"):
            synth("first-order", k=-0.001, schedule=[10.0, 5.0, 60.0])
        with pytest.raises(InvalidSpec):
            synth("first-order", k=-0.001, noise_sd=-1.0)


class TestSeriesRoundTrip:
    def test_load_write_load_idempotent_fixtures(self, tmp_path):
        for name, contaminant in FIXTURES.items():
            s1 = load_fixture(name)
            out1 = tmp_path / f"one_{name}"
            write_series(s1, out1)
            s2 = load_series(out1, contaminant, FIXTURE_C0)
            out2 = tmp_path / f"two_{name}"
            write_series(s2, out2)
            assert out1.read_bytes() == out2.read_bytes(), name
            assert [x.t_raw for x in s1.samples] == [x.t_raw for x in s2.samples]
            assert [x.concentration for x in s1.samples] == [
                x.concentration for x in s2.samples
            ]
            assert [x.removal_fraction for x in s1.samples] == [
                x.removal_fraction for x in s2.samples
            ]


def minimal_report():
    return FitReport(
        model_kind=ModelKind.GAUSSIAN_PROCESS,
        parameters={
            "v": 0.3852,
            "w": [0.7839, 2.8869, 2.859e-9],
            "epsilon": 1.490116e-08,
            "time_denominator": math.log(3600.0),
        },
        metrics=FitMetrics(r2=0.995, rmse=0.01, obs_pred_slope=1.0001, n=65),
        predictions=[
            PredictionRow(inputs={"t_norm": 0.5, "thickness_cm": 3.0}, predicted=0.4, observed=0.41),
            PredictionRow(inputs={"t_norm": 1.0, "thickness_cm": 3.0}, predicted=0.9, observed=0.9),
        ],
        provenance={"tool": "pabfit"},
    )


class TestFileMode:
    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
    def test_written_files_follow_the_umask(self, tmp_path, umask, mode):
        # a new output gets 0666 less the umask, as open() would give it
        previous = os.umask(umask)
        try:
            write_report(minimal_report(), tmp_path / "r.json")
            write_series(load_fixture("pcbc_run1.csv"), tmp_path / "s.csv")
        finally:
            os.umask(previous)
        written = sorted(tmp_path.iterdir())
        assert [p.name for p in written] == ["r.csv", "r.json", "s.csv"]
        assert [stat.S_IMODE(p.stat().st_mode) for p in written] == [mode] * 3

    def test_writes_leave_the_process_umask_alone(self, tmp_path, monkeypatch):
        # the umask is process-wide state: reading it by setting it races other threads
        def no_umask(*_):
            raise AssertionError("os.umask called")

        series = load_fixture("pcbc_run1.csv")
        monkeypatch.setattr(os, "umask", no_umask)
        write_series(series, tmp_path / "s.csv")
        write_report(minimal_report(), tmp_path / "r.json")
        write_comparison([("r.json", minimal_report(), None)], {"tool": "pabfit"}, tmp_path / "c.json")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "r.csv", "r.json", "s.csv"]


class TestFailedWrites:
    def test_report_csv_is_written_before_its_json(self, tmp_path):
        # a directory at the CSV fails the report's first write: its temp
        # file is removed and no JSON appears without its CSV
        (tmp_path / "r.csv").mkdir()
        with pytest.raises(FileIOError, match="cannot write"):
            write_report(minimal_report(), tmp_path / "r.json")
        assert [p.name for p in tmp_path.iterdir()] == ["r.csv"]

    def test_a_file_already_at_the_temp_name_is_kept(self, tmp_path, monkeypatch):
        series = load_fixture("pcbc_run1.csv")
        monkeypatch.setattr(os, "urandom", bytes)  # every temp name's suffix: 16 zeros
        taken = tmp_path / f"s.csv.{'0' * 16}.tmp"
        taken.write_text("another writer's file")
        with pytest.raises(FileIOError, match="cannot write"):
            write_series(series, tmp_path / "s.csv")
        assert list(tmp_path.iterdir()) == [taken]
        assert taken.read_text() == "another writer's file"


class TestReports:
    def test_roundtrip_bit_exact(self, tmp_path):
        report = minimal_report()
        path = tmp_path / "report.json"
        write_report(report, path)
        back = read_report(path)
        assert back.parameters == report.parameters
        assert back.metrics == report.metrics
        assert [r.inputs for r in back.predictions] == [r.inputs for r in report.predictions]
        assert [r.predicted for r in back.predictions] == [
            r.predicted for r in report.predictions
        ]

    def test_required_top_level_keys(self, tmp_path):
        path = tmp_path / "report.json"
        write_report(minimal_report(), path)
        payload = json.loads(path.read_text())
        assert set(payload) == {"model_kind", "parameters", "metrics", "predictions", "provenance"}

    def test_csv_row_count(self, tmp_path):
        path = tmp_path / "report.json"
        write_report(minimal_report(), path)
        lines = report_csv_path(path).read_text().strip().splitlines()
        assert len(lines) == 3  # header + 2 prediction rows

    def test_pb_hyperparameter_block_present(self, tmp_path):
        path = tmp_path / "report.json"
        write_report(minimal_report(), path)
        payload = json.loads(path.read_text())
        assert payload["parameters"]["v"] == 0.3852
        assert payload["parameters"]["w"] == [0.7839, 2.8869, 2.859e-9]

    def test_byte_order_mark_is_read_past(self, tmp_path):
        path = tmp_path / "report.json"
        write_report(minimal_report(), path)
        bom = tmp_path / "bom.json"
        bom.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert read_report(bom) == read_report(path)

    @pytest.mark.parametrize(
        "data",
        [b"{not json", b'{"model_kind": "exponential\xff"}', b"[" * 100_000, b"1" * 5000],
        ids=["not_json", "not_utf8", "deep_nesting", "int_past_4300_digits"],
    )
    def test_malformed_json_is_parse_error(self, tmp_path, data):
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        with pytest.raises(ParseError):
            read_report(path)

    @pytest.mark.parametrize(
        "change",
        [
            {"model_kind": "comparison"},
            {"parameters": []},
            {"parameters": {"v": 0.3852, "epsilon": 1.490116e-08, "w": []}},
            {"parameters": {"v": "0.3852", "epsilon": 1.490116e-08, "w": [1.0, 1.0]}},
            {"parameters": {"v": True, "epsilon": 1.490116e-08, "w": [1.0, 1.0]}},
            {"parameters": {"v": 10**400, "epsilon": 1.490116e-08, "w": [1.0, 1.0]}},
            {"parameters": {"v": 0.3852, "epsilon": float("nan"), "w": [1.0, 1.0]}},
            {"model_kind": "exponential", "parameters": {"a": 1.0, "b": 1.0, "exponent_form": "x"}},
            {"model_kind": "exponential", "parameters": {"a": 1.0, "b": 1.0, "exponent_form": []}},
            {"model_kind": "exponential", "parameters": {"a": 1.0, "b": 1.0, "exponent_form": {}}},
            {"parameters": {"v": 0.3852, "epsilon": 1.490116e-08, "w": [1.0], "inputs": ["t_norm", "ph"]}},
            {"parameters": {"v": 0.3852, "epsilon": 1.490116e-08, "w": [1.0] * 4}},
            {"model_kind": "first_order", "parameters": {"k": -0.1}},
            {"parameters": {"v": 0.3852, "epsilon": 1.490116e-08, "w": [1.0, 1.0], "time_denominator": -1.0}},
            {"metrics": {}},
            {"metrics": {"r2": 1.0, "rmse": 0.0, "obs_pred_slope": 1.0, "n": "2"}},
            {"predictions": {}},
            {"predictions": [{"predicted": 0.4}]},
            {"predictions": [{"inputs": {"t_norm": "abc"}, "predicted": 0.4}]},
            {"predictions": [{"inputs": {"t_norm": 0.5}, "predicted": None}]},
        ],
    )
    def test_invalid_parameters_rejected(self, tmp_path, change):
        path = tmp_path / "report.json"
        write_report(minimal_report(), path)
        payload = json.loads(path.read_text())
        payload.update(change)
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ValidationError):
            read_report(path)

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "number.json"
        path.write_text("3", encoding="utf-8")
        with pytest.raises(ValidationError, match="JSON object"):
            read_report(path)

    def test_missing_keys_rejected(self, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text(json.dumps({"model_kind": "first_order"}), encoding="utf-8")
        with pytest.raises(ValidationError):
            read_report(path)
