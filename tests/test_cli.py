"""Command line behavior: exit codes, emitted files, determinism."""

import importlib
import json
import shutil
import subprocess
from pathlib import Path

import numpy as np
import pytest

import compatflow as cf
from compatflow.cli import main
from compatflow.fieldfile import field_to_dict, save_field

PARAMS = cf.FlowParams(1.0, 1.0, 80.0)


@pytest.fixture()
def example_file(tmp_path):
    path = tmp_path / "field.json"
    save_field(cf.example_field(PARAMS, cf.cheb_grid(64)), path)
    return path


def test_example_writes_expected_files(tmp_path):
    out = tmp_path / "out"
    rc = main(["example", "--alpha", "1", "--beta", "1", "--reynolds", "80",
               "-o", str(out)])
    assert rc == 0
    for name in ("example_field.json", "example_report.json",
                 "velocity_slices.csv", "defect_profiles.csv", "defect_grid.csv"):
        assert (out / name).exists(), name
    rep = json.loads((out / "example_report.json").read_text())
    blocks = rep["max_relative_discrepancy"]
    # the cross-check runs on sampled profiles on purpose; the third
    # derivative inside the forcing sets the noise floor there
    assert blocks["forcing"] < 1e-7
    for name in ("vorticity", "dudt", "div_coeffs", "cc_coeffs"):
        assert blocks[name] < 1e-9, name


def test_example_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["example", "--alpha", "1", "--beta", "1",
                     "--reynolds", "80", "-o", str(out)]) == 0
    for name in ("example_field.json", "example_report.json", "defect_grid.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_check_incompatible_exit_code(example_file, tmp_path, capsys):
    out = tmp_path / "chk"
    rc = main(["check", str(example_file), "-o", str(out)])
    assert rc == 2
    assert "incompatible" in capsys.readouterr().out
    rep = json.loads((out / "report.json").read_text())
    assert rep["verdict"] == "incompatible"
    assert rep["schema_version"] == 1
    assert (out / "defect_profiles.csv").exists()
    grid = np.loadtxt(out / "defect_grid.csv", delimiter=",", skiprows=1)
    assert grid.shape[0] == 128 * 64


def test_check_tolerance_flag(example_file, tmp_path):
    rc = main(["check", str(example_file), "--tol", "1e-1",
               "-o", str(tmp_path / "chk")])
    assert rc == 0


def test_check_grid_override(example_file, tmp_path):
    out = tmp_path / "chk48"
    rc = main(["check", str(example_file), "--n", "48", "-o", str(out)])
    assert rc == 2
    rep = json.loads((out / "report.json").read_text())
    assert rep["n"] == 48


def test_check_missing_file(tmp_path, capsys):
    rc = main(["check", str(tmp_path / "nope.json"), "-o", str(tmp_path)])
    assert rc == 1
    assert "nope.json" in capsys.readouterr().err


def test_check_malformed_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"schema_version": ')
    rc = main(["check", str(path), "-o", str(tmp_path)])
    assert rc == 1
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")],
                         ids=["nan", "+inf", "-inf"])
def test_check_rejects_non_finite_file(tmp_path, capsys, bad):
    # u2 cos samples that are all NaN used to load and get "compatible"
    # with a defect and forcing scale of 0.0
    g = cf.cheb_grid(16)
    doc = field_to_dict(cf.example_field(PARAMS, g).strip_poly())
    doc["harmonics"][0]["u2"]["cos"] = {"values": [bad] * g.n}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "chk"
    rc = main(["check", str(path), "-o", str(out)])
    assert rc == 1
    assert "finite" in capsys.readouterr().err
    assert not (out / "report.json").exists()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_check_rejects_overflowing_field(tmp_path, capsys):
    # finite coefficients whose products overflow inside the forcing
    doc = {
        "schema_version": 1,
        "params": {"alpha": 1.0, "beta": 1.0, "reynolds": 80.0},
        "n": 32,
        "harmonics": [{"j": 1,
                       "u1": {"cos": {"poly": [-1e308, 0.0, 1e308]}},
                       "u2": {"sin": {"poly": [1.0, 0.0, -2.0, 0.0, 1.0]}}}],
    }
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "chk"
    rc = main(["check", str(path), "-o", str(out)])
    assert rc == 1
    assert "non-finite" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_validate_accepts_admissible_field(example_file, capsys):
    rc = main(["validate", str(example_file)])
    assert rc == 0
    assert "admissible" in capsys.readouterr().out


def test_validate_reports_violations(tmp_path, capsys):
    # u2 with only a (y^2-1) factor: its wall derivative is nonzero, so the
    # u3 completed from continuity slips at the walls
    g = cf.cheb_grid(32)
    u2 = cf.HarmonicScalar.zero(PARAMS, g)
    u2.put(1, cf.YProfile.from_poly(g, [-1.0, 0.0, 1.0]), cf.YProfile.zero(g))
    field = cf.WaveField(cf.HarmonicScalar.zero(PARAMS, g), u2,
                         cf.HarmonicScalar.zero(PARAMS, g), PARAMS, g)
    doc = field_to_dict(field)
    for h in doc["harmonics"]:
        h["u3"] = "continuity"
    path = tmp_path / "slip.json"
    path.write_text(json.dumps(doc))
    rc = main(["validate", str(path)])
    assert rc == 2
    assert "u3" in capsys.readouterr().out


def test_oss_table_and_mode_field(tmp_path, capsys):
    out = tmp_path / "oss"
    rc = main(["oss", "--alpha", "1", "--beta", "1", "--reynolds", "80",
               "--mode-index", "0", "--amplitude", "0.3", "-o", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "+0.57643470" in text
    doc = json.loads((out / "oss_modes.json").read_text())
    assert len(doc["modes"]) >= 3
    from compatflow.fieldfile import load_field
    field = load_field(out / "mode_field.json")
    assert cf.admissibility_violations(field) == []


def test_oss_mode_index_out_of_range(tmp_path, capsys):
    rc = main(["oss", "--alpha", "1", "--beta", "1", "--reynolds", "80",
               "--mode-index", "99", "-o", str(tmp_path)])
    assert rc == 1
    assert "index" in capsys.readouterr().err


def test_find_writes_root_field(tmp_path, capsys):
    out = tmp_path / "find"
    rc = main(["find", "--alpha", "1", "--beta", "1", "--reynolds", "80",
               "--seed", "0", "-o", str(out)])
    assert rc == 0
    assert "converged" in capsys.readouterr().out
    rep = json.loads((out / "search_report.json").read_text())
    assert rep["success"] is True
    assert rep["residual_rel"] < 1e-10
    assert len(rep["trace"]) >= 2
    from compatflow.fieldfile import load_field
    field = load_field(out / "found_field.json")
    assert cf.check(field, tol_rel=1e-8).verdict == "compatible"


SUBCOMMANDS = ("check", "example", "oss", "find", "validate")


@pytest.mark.skipif(
    shutil.which("compatflow") is None,
    reason="compatflow console script not on PATH (package not installed)",
)
def test_console_script_installed():
    exe = shutil.which("compatflow")
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    for sub in SUBCOMMANDS:
        assert sub in proc.stdout


def test_console_script_entry_point(capsys):
    """The entry point that installing declares resolves and runs, whether
    or not the package is installed."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    module, _, attr = scripts["compatflow"].partition(":")
    entry = getattr(importlib.import_module(module), attr)
    with pytest.raises(SystemExit) as exc:
        entry(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for sub in SUBCOMMANDS:
        assert sub in out
