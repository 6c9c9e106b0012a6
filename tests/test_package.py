"""The package namespace resolves its public names on first use: each name
is its home submodule's object, and a process loads only the submodules
whose names it reads. Import checks run in fresh interpreters."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import compatflow as cf
from compatflow import compat
from compatflow.fieldfile import save_field

SRC = str(Path(cf.__file__).resolve().parents[1])

PUBLIC = [
    "AnsatzSpec", "BVPSpec", "ChebGrid", "CompatReport", "CompatflowError",
    "ConfigurationError", "DomainError", "FlowParams", "HarmonicScalar",
    "ModeResult", "NumericalError", "SearchResult", "ValidationError",
    "WaveField", "YProfile", "__version__", "admissibility_violations",
    "assemble", "cheb_grid", "check", "curl", "divergence",
    "example_cc_coeffs", "example_div_coeffs", "example_dudt", "example_field",
    "example_forcing", "example_vorticity", "find_compatible", "forcing",
    "harmonic_product", "load_field", "mode_to_field", "poiseuille_base",
    "require_admissible", "save_field", "solve_bvp", "solve_dudt",
    "solve_orr_sommerfeld", "solve_pressure", "tangential_residual",
    "vorticity_rhs",
]


def loaded_after(script, *args):
    """Submodules of compatflow (short names, sorted) that a fresh
    interpreter holds after running script."""
    code = textwrap.dedent(script) + textwrap.dedent("""
        import json, sys
        print(json.dumps(sorted(m.split(".", 1)[1] for m in sys.modules
                                if m.startswith("compatflow."))))
    """)
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_submodule():
    assert loaded_after("import compatflow") == []


def test_a_name_loads_only_its_module_and_imports():
    assert loaded_after("import compatflow; compatflow.cheb_grid(16)") == [
        "errors", "spectral"]


def test_check_and_validate_load_no_search_modes_or_oracle(tmp_path):
    params = cf.FlowParams(1.0, 1.0, 80.0)
    field = tmp_path / "field.json"
    save_field(cf.example_field(params, cf.cheb_grid(32)), field)
    loaded = loaded_after("""
        import sys
        from compatflow.cli import main
        assert main(["check", sys.argv[1], "-o", sys.argv[2]]) == 2
        assert main(["validate", sys.argv[1]]) == 0
    """, str(field), str(tmp_path / "out"))
    assert "compat" in loaded
    assert not {"search", "modes", "oracle"} & set(loaded)


def test_public_names_are_pinned():
    assert sorted(cf.__all__) == PUBLIC
    assert "__version__" in vars(cf)


@pytest.mark.parametrize("name", [n for n in PUBLIC if n != "__version__"])
def test_each_name_is_its_home_modules_object(name):
    obj = getattr(cf, name)
    assert obj.__module__.startswith("compatflow.")
    assert getattr(sys.modules[obj.__module__], name) is obj


def test_names_are_read_from_their_module_on_every_access(monkeypatch):
    # nothing is cached in the package, so a patched module attribute is
    # what the package hands out, and undoing the patch restores it
    def stub(*args, **kwargs):
        return None

    original = compat.check
    monkeypatch.setattr(compat, "check", stub)
    assert cf.check is stub
    monkeypatch.undo()
    assert cf.check is original


def test_dir_and_star_import_cover_every_name():
    assert set(cf.__all__) <= set(dir(cf))
    namespace = {}
    exec("from compatflow import *", namespace)
    assert set(cf.__all__) <= set(namespace)


def test_unknown_attribute():
    with pytest.raises(AttributeError, match="no_such_name"):
        cf.no_such_name
    assert not hasattr(cf, "no_such_name")
