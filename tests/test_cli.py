"""Command line behavior: exit codes, emitted files, determinism."""

import importlib
import json
import re
import shutil
import subprocess
import warnings
from pathlib import Path

import numpy as np
import pytest

import compatflow as cf
from compatflow import compat
from compatflow.cli import _write_csv, main
from compatflow.fieldfile import field_to_dict, load_field, save_field

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


def test_check_reruns_are_byte_identical(example_file, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["check", str(example_file), "-o", str(out)]) == 2
    for name in ("report.json", "defect_profiles.csv", "defect_grid.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_write_csv_matches_row_wise_repr(tmp_path):
    """The column-wise writer gives the bytes of formatting every entry
    with repr(float(v)), for repeats, signed zeros and non-finite values."""
    rng = np.random.default_rng(3)
    special = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -1e300, 0.1, 1.0]
    a = np.concatenate([rng.standard_normal(50), special, special])
    b = np.concatenate([np.repeat(rng.standard_normal(10), 5), special[::-1], special])
    ints = np.arange(a.size)
    path = tmp_path / "t.csv"
    _write_csv(str(path), ["a", "b", "i"], [a, b.reshape(2, -1), ints])
    want = "a,b,i\n" + "".join(
        ",".join(repr(float(v)) for v in row) + "\n" for row in zip(a, b, ints)
    )
    assert path.read_text() == want


def _plane_reference(scalar, x, y):
    """A harmonic scalar at the points (x, y, z = 0), one point and one
    barycentric interpolation at a time."""
    grid, params = scalar.grid, scalar.params
    out = np.zeros(x.size)
    for i, (xi, yi) in enumerate(zip(x, y)):
        theta = params.alpha * xi
        for j, (a, b) in scalar.items():
            out[i] += (grid.interpolate(a.values, yi) * np.cos(j * theta)
                       + grid.interpolate(b.values, yi) * np.sin(j * theta))
    return out


def _assert_column_matches(got, want, name):
    scale = np.max(np.abs(want))
    assert np.max(np.abs(got - want)) <= 1e-14 * scale, name


def test_defect_grid_csv_numbers(example_file, tmp_path):
    """128 x 64 points in the z = 0 plane, x fastest, x over one period
    without its end point, y from +1 down to -1."""
    out = tmp_path / "chk"
    assert main(["check", str(example_file), "-o", str(out)]) == 2
    lines = (out / "defect_grid.csv").read_text().splitlines()
    assert lines[0] == "x,y,defect"
    table = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert table.shape == (128 * 64, 3)
    x = np.linspace(0.0, 2.0 * np.pi / PARAMS.alpha, 128, endpoint=False)
    y = np.linspace(1.0, -1.0, 64)
    assert np.array_equal(table[:, 0], np.tile(x, 64))
    assert np.array_equal(table[:, 1], np.repeat(y, 128))
    defect = cf.check(load_field(example_file)).defect
    want = _plane_reference(defect, table[:, 0], table[:, 1])
    _assert_column_matches(table[:, 2], want, "defect")


def test_velocity_slices_csv_numbers(tmp_path):
    """129 x 65 points in the z = 0 plane, x fastest, x over one period
    including its end point, y from +1 down to -1."""
    out = tmp_path / "ex"
    assert main(["example", "--alpha", "1", "--beta", "1", "--reynolds", "80",
                 "-o", str(out)]) == 0
    lines = (out / "velocity_slices.csv").read_text().splitlines()
    assert lines[0] == "x,y,u2,u3"
    table = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert table.shape == (129 * 65, 4)
    x = np.linspace(0.0, 2.0 * np.pi / PARAMS.alpha, 129)
    y = np.linspace(1.0, -1.0, 65)
    assert np.array_equal(table[:, 0], np.tile(x, 65))
    assert np.array_equal(table[:, 1], np.repeat(y, 129))
    field = cf.example_field(PARAMS, cf.cheb_grid(64))
    for col, comp in ((2, field.u2), (3, field.u3)):
        want = _plane_reference(comp, table[:, 0], table[:, 1])
        _assert_column_matches(table[:, col], want, f"column {col}")


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


def test_check_refuses_non_finite_pressure(example_file, tmp_path, monkeypatch, capsys):
    """A NaN pressure gives a NaN tangential residual, which report.json
    would carry as the invalid JSON token NaN."""
    def nan_pressure(field):
        p = cf.HarmonicScalar.zero(field.params, field.grid)
        p.put(1, cf.YProfile(field.grid, np.full(field.grid.n, np.nan)),
              cf.YProfile.zero(field.grid))
        return p

    monkeypatch.setattr(compat, "solve_pressure", nan_pressure)
    with pytest.raises(cf.NumericalError, match="pressure max-abs nan"):
        cf.check(load_field(example_file))
    out = tmp_path / "out"
    assert main(["check", str(example_file), "-o", str(out)]) == 1
    assert "tangential residual max-abs nan" in capsys.readouterr().err
    assert not (out / "report.json").exists()


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


@pytest.mark.parametrize(
    "key, bad, why",
    [("u2", float("nan"), "finite"), ("u2", float("inf"), "finite"),
     ("u2", -float("inf"), "finite"), ("alpha", float("nan"), "finite"),
     ("beta", -float("inf"), "finite"), ("reynolds", float("inf"), "finite"),
     ("alpha", "1.5", "number"), ("alpha", True, "number"), ("j", True, "integer"),
     ("u2", 10**400, "too large"), ("reynolds", 10**400, "too large")],
    ids=["nan", "+inf", "-inf", "alpha-nan", "beta--inf", "reynolds-inf",
         "alpha-string", "alpha-bool", "j-bool", "u2-huge-int", "reynolds-huge-int"])
def test_check_rejects_non_finite_file(tmp_path, capsys, key, bad, why):
    # u2 cos samples that are all NaN used to load and get "compatible"
    # with a defect and forcing scale of 0.0; a NaN alpha ended in a
    # LinAlgError traceback, and "j": true was read as harmonic 1
    g = cf.cheb_grid(16)
    doc = field_to_dict(cf.example_field(PARAMS, g).strip_poly())
    if key == "u2":
        doc["harmonics"][0]["u2"]["cos"] = {"values": [bad] * g.n}
    elif key == "j":
        doc["harmonics"][0]["j"] = bad
    else:
        doc["params"][key] = bad
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "chk"
    rc = main(["check", str(path), "-o", str(out)])
    assert rc == 1
    assert why in capsys.readouterr().err
    assert not (out / "report.json").exists()
    assert main(["validate", str(path)]) == 1


@pytest.mark.parametrize("argv", [["find", "--reynolds", "nan"], ["oss", "--alpha", "nan"]],
                         ids=["find", "oss"])
def test_cli_rejects_non_finite_params(tmp_path, capsys, argv):
    rc = main(argv + ["-o", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "finite" in err
    assert not any(tmp_path.iterdir())


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
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["check", str(path), "-o", str(out)])
    assert rc == 1
    # one line for the user, not a numpy warning per overflowing operation
    err = capsys.readouterr().err
    assert err.startswith("error: non-finite result") and err.count("\n") == 1, err
    assert [str(w.message) for w in caught] == []
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
    field = load_field(out / "mode_field.json")
    assert cf.admissibility_violations(field) == []


def test_oss_reports_dropped_eigenvalues(tmp_path, capsys):
    n = 48
    assert main(["oss", "--alpha", "1", "--beta", "1", "--reynolds", "80",
                 "--n", str(n), "-o", str(tmp_path)]) == 0
    text = capsys.readouterr().out
    m = re.search(r"^kept (\d+) of (\d+) eigenvalues; (\d+) moved by more than "
                  r"1e-4 at n \+ 8$", text, re.M)
    kept, total, dropped = map(int, m.groups())
    assert total == n - 4
    assert kept + dropped == n - 4
    assert kept == len(json.loads((tmp_path / "oss_modes.json").read_text())["modes"])


def test_oss_mode_index_out_of_range(tmp_path, capsys):
    for index in ("99", "-1"):
        rc = main(["oss", "--alpha", "1", "--beta", "1", "--reynolds", "80",
                   "--mode-index", index, "-o", str(tmp_path)])
        assert rc == 1
        assert "index" in capsys.readouterr().err
        assert not (tmp_path / "mode_field.json").exists()


def test_find_writes_root_field(tmp_path, capsys):
    out = tmp_path / "find"
    rc = main(["find", "--alpha", "1", "--beta", "1", "--reynolds", "80",
               "--seed", "0", "-o", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "converged" in stdout and "model gap" in stdout
    rep = json.loads((out / "search_report.json").read_text())
    assert rep["success"] is True
    assert rep["residual_rel"] < 1e-10
    assert 0.0 <= rep["model_gap_rel"] <= 1e-12
    assert len(rep["trace"]) >= 2
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
