"""Command line behavior: exit codes, emitted files, determinism."""

import importlib
import inspect
import json
import os
import re
import shutil
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

import compatflow as cf
from compatflow import compat
from compatflow.cli import _build_parser, _write_csv, _write_json, main
from compatflow.fieldfile import field_to_dict, load_field, save_field
from helpers import count_calls, random_u2zero

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


@pytest.mark.parametrize("alpha", ["100", "400", "1e10", "1e50"])
def test_example_cross_checks_large_wavenumbers(tmp_path, alpha):
    """The closed forms stay finite where exp(8 k) would overflow."""
    out = tmp_path / "out"
    assert main(["example", "--alpha", alpha, "-o", str(out)]) == 0
    blocks = json.loads((out / "example_report.json").read_text())["max_relative_discrepancy"]
    assert np.all(np.isfinite(list(blocks.values())))
    assert blocks["forcing"] < 1e-12 and blocks["dudt"] < 1e-7


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


@pytest.mark.parametrize("argv", [["find", "--seed", "3"], ["oss"]], ids=["find", "oss"])
def test_reruns_are_byte_identical(tmp_path, capsys, argv):
    a, b = tmp_path / "a", tmp_path / "b"
    stdout = []
    for out in (a, b):
        assert main(argv + ["-o", str(out)]) == 0
        stdout.append(capsys.readouterr().out)
    assert stdout[0] == stdout[1]
    names = sorted(p.name for p in a.iterdir())
    assert names and names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_check_output_does_not_depend_on_blas_threads(tmp_path):
    """No LAPACK solve is left in check, so a run with 1 and with 2 BLAS
    threads writes the same bytes. A sampled u2 = 0 field at n = 128 is
    the most sensitive input: its defect is rounding noise."""
    grid = cf.cheb_grid(128)
    field = random_u2zero(PARAMS, grid, np.random.default_rng(31))
    path = tmp_path / "u2zero.json"
    save_field(field.strip_poly(), path)
    src = str(Path(cf.__file__).resolve().parents[1])
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "compatflow.cli", "check", str(path), "--n", "128",
             "-o", str(out)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outs.append((proc.stdout, out))
    (stdout1, a), (stdout2, b) = outs
    assert stdout1 == stdout2
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


def test_check_prints_the_absolute_wall_shear_of_a_zero_forcing(tmp_path, capsys):
    """u1 = y^2 - 1 at j = 0 has a zero forcing but a wall shear; the
    relative residual in report.json falls back to 0, so stdout gives the
    absolute value."""
    path = tmp_path / "shear.json"
    path.write_text(json.dumps({
        "schema_version": 1, "n": 32,
        "params": {"alpha": 1.0, "beta": 1.0, "reynolds": 80.0},
        "harmonics": [{"j": 0, "u1": {"cos": {"poly": [-1.0, 0.0, 1.0]}}}],
    }))
    assert main(["check", str(path), "-o", str(tmp_path / "out")]) == 0
    rep = json.loads((tmp_path / "out" / "report.json").read_text())
    assert rep["forcing_max_abs"] == 0.0
    assert rep["tangential_residual"]["max_abs_rel"] == 0.0
    wall = rep["tangential_residual"]["max_abs"]
    assert wall == pytest.approx(2.0 / 80.0)
    assert (f"tangential wall residual {wall:.3e} absolute, as the forcing is zero"
            in capsys.readouterr().out)


def test_check_refuses_non_finite_pressure(example_file, tmp_path, monkeypatch, capsys):
    """A NaN pressure source gives NaN wall pressures and a NaN tangential
    residual, which report.json would carry as the invalid JSON token NaN."""
    def nan_pressure(field):
        nan = cf.YProfile(field.grid, np.full(field.grid.n, np.nan))
        return cf.HarmonicScalar(field.params, field.grid,
                                 {1: (nan, cf.YProfile.zero(field.grid))})

    monkeypatch.setattr(compat, "pressure_rhs", nan_pressure)
    with pytest.raises(cf.NumericalError, match="pressure max-abs nan"):
        cf.check(load_field(example_file))
    out = tmp_path / "out"
    assert main(["check", str(example_file), "-o", str(out)]) == 1
    assert "tangential residual max-abs nan" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_check_refuses_non_finite_wall_pressure_once(example_file, monkeypatch):
    """An infinite pressure source with a finite forcing: one error, inside
    the same overflow guard as the forcing, that names all four scales."""
    def inf_pressure(field):
        inf = cf.YProfile(field.grid, np.full(field.grid.n, np.inf))
        return cf.HarmonicScalar(field.params, field.grid,
                                 {1: (inf, cf.YProfile.zero(field.grid))})

    monkeypatch.setattr(compat, "pressure_rhs", inf_pressure)
    field = load_field(example_file)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(cf.NumericalError) as err:
            cf.check(field)
    assert [str(w.message) for w in caught] == []
    msg = str(err.value)
    fscale = cf.forcing(field).max_abs()
    assert msg.startswith(f"non-finite result: forcing max-abs {fscale}, defect max-abs ")
    for name in ("wall pressure", "tangential residual"):
        assert f"{name} max-abs inf" in msg or f"{name} max-abs nan" in msg, msg


def test_check_tolerance_flag(example_file, tmp_path):
    rc = main(["check", str(example_file), "--tol", "1e-1",
               "-o", str(tmp_path / "chk")])
    assert rc == 0


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_check_rejects_bad_tolerance(example_file, tmp_path, capsys, tol):
    """A NaN tolerance would reach report.json as the invalid token NaN,
    and a negative one would fail every field without a word."""
    out = tmp_path / "chk"
    rc = main(["check", str(example_file), "--tol", tol, "-o", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: tolerance must be finite and >= 0")
    assert not out.exists()


def test_tolerance_defaults_are_the_library_constants(tmp_path, monkeypatch):
    from compatflow import search

    assert _build_parser().parse_args(["check", "f.json"]).tol == compat.DEFAULT_TOL_REL
    assert inspect.signature(search.find_compatible).parameters["tol"].default == search.DEFAULT_TOL
    # find leaves --tol unset in the parser, so that check need not load
    # the search, and reads the constant when it runs
    seen = []

    def stop(spec, tol, **kwargs):
        seen.append(tol)
        raise cf.NumericalError("stopped")

    monkeypatch.setattr(search, "find_compatible", stop)
    assert main(["find", "-o", str(tmp_path)]) == 1
    assert seen == [search.DEFAULT_TOL]


def test_find_rejects_non_finite_tolerance(tmp_path, capsys):
    rc = main(["find", "--tol", "nan", "-o", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: tolerance must be finite")
    assert not any(tmp_path.iterdir())


def test_oss_rejects_non_finite_amplitude(tmp_path, capsys):
    rc = main(["oss", "--amplitude", "nan", "-o", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: amplitude must be finite")
    assert not any(tmp_path.iterdir())


def test_write_json_refuses_nan(tmp_path):
    """NaN is not a JSON token; the writer raises before the file exists."""
    path = tmp_path / "r.json"
    with pytest.raises(ValueError):
        _write_json({"tolerance_rel": float("nan")}, str(path))
    assert not path.exists()


def test_cli_paths_import_no_scipy(tmp_path):
    """Every subcommand runs on numpy alone; scipy is a test dependency."""
    script = textwrap.dedent("""
        import json, os, sys
        from compatflow.cli import main
        out = sys.argv[1]
        field = os.path.join(out, "example_field.json")
        rcs = [main(["example", "-o", out]), main(["check", field, "-o", out]),
               main(["validate", field]), main(["find", "-o", out]),
               main(["oss", "-o", out])]
        mods = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
        print(json.dumps([rcs, mods]))
    """)
    src = str(Path(cf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    rcs, mods = json.loads(proc.stdout.splitlines()[-1])
    assert rcs == [0, 2, 0, 0, 0]
    assert mods == []


def test_check_grid_override(example_file, tmp_path):
    out = tmp_path / "chk48"
    rc = main(["check", str(example_file), "--n", "48", "-o", str(out)])
    assert rc == 2
    rep = json.loads((out / "report.json").read_text())
    assert rep["n"] == 48


def test_check_defaults_to_the_file_grid(tmp_path):
    """Without --n, check reads a file on the nodes it gives: a sampled
    128-node field is not moved onto 64 nodes, and the run writes the
    bytes of a run with --n 128."""
    path = tmp_path / "field128.json"
    save_field(cf.example_field(PARAMS, cf.cheb_grid(128)).strip_poly(), path)
    a, b = tmp_path / "default", tmp_path / "n128"
    assert main(["check", str(path), "-o", str(a)]) == 2
    assert main(["check", str(path), "--n", "128", "-o", str(b)]) == 2
    assert json.loads((a / "report.json").read_text())["n"] == 128
    for name in ("report.json", "defect_profiles.csv", "defect_grid.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


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
     ("u2", 10**400, "too large"), ("reynolds", 10**400, "too large"),
     ("alpha", 1e200, "error: field file: params: alpha^2 + beta^2 must be finite")],
    ids=["nan", "+inf", "-inf", "alpha-nan", "beta--inf", "reynolds-inf",
         "alpha-string", "alpha-bool", "j-bool", "u2-huge-int", "reynolds-huge-int",
         "k2-overflow"])
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


@pytest.mark.parametrize(
    "argv",
    [["find", "--reynolds", "nan"], ["oss", "--alpha", "nan"],
     ["oss", "--alpha", "1e200"], ["find", "--alpha", "1e200"],
     ["example", "--alpha", "1e200"], ["find", "--alpha", "1e100"]],
    ids=["find", "oss", "oss-k2-overflow", "find-k2-overflow", "example-k2-overflow",
         "find-model-overflow"])
def test_cli_rejects_non_finite_params(tmp_path, capsys, argv):
    # alpha^2 overflowed in a traceback; at alpha = 1e100 k2 is finite but
    # the search model overflows, which ended in a failed SVD
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


@pytest.mark.parametrize(
    "argv, why",
    [(["example", "--alpha", "1e100"], "non-finite result"),
     (["example", "--reynolds", "1e-320"], "non-finite result"),
     (["example", "--alpha", "1e77"], "closed forms of the example overflow"),
     (["oss", "--alpha", "1e100"], "Orr-Sommerfeld operator is not finite"),
     (["oss", "--reynolds", "1e-320"], "Orr-Sommerfeld operator is not finite")],
    ids=["example-alpha", "example-reynolds", "example-closed-form-power",
         "oss-alpha", "oss-reynolds"])
def test_cli_rejects_overflowing_params(tmp_path, capsys, argv, why):
    # finite parameters whose operators overflow: example ended in an
    # OverflowError traceback or numpy warnings after writing
    # example_field.json, oss in numpy warnings from the pencil
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(argv + ["-o", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {why}") and err.count("\n") == 1, err
    assert [str(w.message) for w in caught] == []
    assert not any(tmp_path.iterdir())


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv, why",
    [(["find", "--alpha", "1e-100", "--beta", "1e-170"], "search start 0 is non-finite"),
     (["find", "--alpha", "1e100", "--reynolds", "1e300"], "search start 0 is non-finite"),
     (["example", "--alpha", "1e-200", "--beta", "1e-200"], "alpha^2 + beta^2 must be 0"),
     (["oss", "--alpha", "1e-300", "--beta", "0"], "alpha^2 + beta^2 must be 0"),
     (["check", "tiny.json"], "alpha^2 + beta^2 must be 0"),
     (["validate", "tiny.json"], "alpha^2 + beta^2 must be 0")],
    ids=["find-l2-overflow", "find-forcing-overflow", "example", "oss", "check", "validate"])
def test_cli_refuses_extreme_wavenumbers(tmp_path, capsys, monkeypatch, argv, why):
    # find warned and still wrote its files; at a nonzero alpha^2 + beta^2
    # that reads 0, example and check met an unsolvable Neumann problem and
    # oss blamed alpha = beta = 0
    doc = {"schema_version": 1, "params": {"alpha": 1e-200, "beta": 1e-200, "reynolds": 80.0},
           "n": 32, "harmonics": [{"j": 1, "u2": {"cos": {"poly": [1.0, 0.0, -2.0, 0.0, 1.0]}}}]}
    (tmp_path / "tiny.json").write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out"
    assert main(argv + ["-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and why in err and err.count("\n") == 1, err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, module, name",
    [(["check", "field.json", "--n", "100000"], "compatflow.cli", "load_field"),
     (["oss", "--n", "100000"], "compatflow.modes", "solve_orr_sommerfeld"),
     (["find", "--degree", "100000"], "compatflow.search", "find_compatible")],
    ids=["check", "oss", "find"])
@pytest.mark.parametrize("message, shown",
                         [("Unable to allocate 74.5 GiB", "Unable to allocate 74.5 GiB"),
                          ("", "out of memory")], ids=["numpy", "bare"])
def test_cli_reports_memory_error(tmp_path, capsys, monkeypatch, argv, module, name,
                                  message, shown):
    # an n x n matrix at a huge --n or --degree ended in a numpy traceback;
    # the callee is made to fail instead of allocating
    def fail(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(importlib.import_module(module), name, fail)
    rc = main(argv + ["-o", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {shown}\n"
    assert not any(tmp_path.iterdir())


def test_example_computes_the_forcing_once(tmp_path, monkeypatch):
    # check's forcing is reused for the closed-form comparison
    calls = count_calls(monkeypatch, compat, "vorticity_rhs")
    assert main(["example", "--n", "32", "-o", str(tmp_path)]) == 0
    assert len(calls) == 1


def test_validate_accepts_admissible_field(example_file, capsys):
    rc = main(["validate", str(example_file)])
    assert rc == 0
    assert "admissible" in capsys.readouterr().out


def test_validate_reports_violations(tmp_path, capsys):
    # u2 with only a (y^2-1) factor: its wall derivative is nonzero, so the
    # u3 completed from continuity slips at the walls
    g = cf.cheb_grid(32)
    u2 = cf.HarmonicScalar(PARAMS, g, {1: (cf.YProfile.from_poly(g, [-1.0, 0.0, 1.0]),
                                          cf.YProfile.zero(g))})
    zero = cf.HarmonicScalar(PARAMS, g)
    field = cf.WaveField(zero, u2, zero)
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
        out, err = capsys.readouterr()
        kept = re.search(r"^kept (\d+) of", out, re.M).group(1)
        assert err == f"error: mode index {index} out of range ({kept} resolved modes)\n"
        assert not any(tmp_path.iterdir())


def test_oss_refuses_zero_wavenumber(tmp_path, capsys):
    rc = main(["oss", "--alpha", "0", "--beta", "0", "--n", "32",
               "-o", str(tmp_path)])
    assert rc == 1
    assert "alpha = beta = 0" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


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
    assert rep["recheck_n"] == 128 and rep["recheck_residual_rel"] < 1e-10
    assert 0.0 <= rep["model_gap_rel"] <= 1e-12
    assert len(rep["trace"]) >= 2
    field = load_field(out / "found_field.json")
    assert cf.check(field, tol_rel=1e-8).verdict == "compatible"


def test_find_refuses_a_root_of_a_coarse_grid(tmp_path, capsys):
    """At n = 12 the search meets its tolerance on its own grid, but the
    field is not compatible on 128 nodes: find exits 1 and says so."""
    rc = main(["find", "--n", "12", "--seed", "1", "-o", str(tmp_path)])
    assert rc == 1
    stdout = capsys.readouterr().out
    assert "re-check on 128 nodes: incompatible, residual 3.599e-07 relative" in stdout
    rep = json.loads((tmp_path / "search_report.json").read_text())
    assert rep["residual_rel"] <= 1e-10 < rep["recheck_residual_rel"]
    assert rep["success"] is False and rep["recheck_n"] == 128
    assert rep["message"] == "converged; the re-check on 128 nodes fails"


def test_find_below_degree_4_reports_the_null_space(tmp_path, capsys):
    rc = main(["find", "--degree", "2", "-o", str(tmp_path)])
    assert rc == 1
    stdout = capsys.readouterr().out
    assert "one start: the null space of L1 has dimension 2, fewer than" in stdout
    assert "(0 restarts)" in stdout
    rep = json.loads((tmp_path / "search_report.json").read_text())
    assert rep["success"] is False and rep["restarts"] == 0


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
