"""Reading and writing velocity fields as JSON documents.

Layout (schema_version 1):

    {
      "schema_version": 1,
      "params": {"alpha": 1.0, "beta": 1.0, "reynolds": 80.0},
      "n": 64,
      "harmonics": [
        {"j": 1,
         "u1": {"cos": {"poly": [0.0, 1.0]}, "sin": {"poly": [0.0]}},
         "u2": {"cos": {"values": [ ... n samples ... ]}},
         "u3": "continuity"},
        ...
      ]
    }

Profiles are given either as polynomial coefficients in ascending powers of
y ("poly") or as nodal samples on the n-node Gauss-Lobatto grid ordered
from y = +1 down to y = -1 ("values"). Omitted profiles and components are
zero, except u3: leaving u3 out of a harmonic j >= 1 (or writing the string
"continuity") derives it from the continuity equation.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import ConfigurationError
from .fieldops import FlowParams, HarmonicScalar, WaveField, _continuity_u3
from .spectral import ChebGrid, YProfile, cheb_grid

SCHEMA_VERSION = 1
_COMPONENTS = ("u1", "u2", "u3")
_PARAMS = ("alpha", "beta", "reynolds")


def _bad(where: str, why: str) -> ConfigurationError:
    return ConfigurationError(f"field file: {where}: {why}")


def _numbers(seq) -> bool:
    """Whether every entry is an int or a float, in one pass over their
    types: json gives exact types, and a bool (an int to isinstance) or a
    subclass is refused."""
    return set(map(type, seq)) <= {int, float}


def _num_list(obj, where: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj or not _numbers(obj):
        raise _bad(where, "expected a non-empty list of numbers")
    try:
        arr = np.asarray(obj, dtype=float)
    except OverflowError as exc:  # an integer literal beyond the float range
        raise _bad(where, str(exc)) from exc
    # json reads NaN, Infinity and out-of-range literals such as 1e400 as
    # floats; a non-finite profile would slip through every comparison
    if not np.all(np.isfinite(arr)):
        raise _bad(where, "numbers must be finite (got NaN or Infinity)")
    return arr


def _check_trig_keys(obj: dict, where: str) -> None:
    # A misspelled key here would silently drop a profile, so be strict.
    for key in obj:
        if key not in ("cos", "sin"):
            raise _bad(where, f"unknown entry {key!r} (expected 'cos' or 'sin')")


def _load_profile(obj, grid: ChebGrid, src_grid: ChebGrid, where: str) -> YProfile:
    if obj is None:
        return YProfile.zero(grid)
    if not isinstance(obj, dict):
        raise _bad(where, "expected an object with a 'poly' or 'values' entry")
    for key in obj:
        if key not in ("poly", "values"):
            raise _bad(where, f"unknown entry {key!r} (expected 'poly' or 'values')")
    if "poly" in obj and "values" in obj:
        raise _bad(where, "give either 'poly' or 'values', not both")
    if "poly" in obj:
        return YProfile.from_poly(grid, _num_list(obj["poly"], where + ".poly"))
    if "values" in obj:
        vals = _num_list(obj["values"], where + ".values")
        if vals.size != src_grid.n:
            raise _bad(
                where + ".values",
                f"expected {src_grid.n} samples (file grid), got {vals.size}",
            )
        if grid == src_grid:
            return YProfile.from_values(grid, vals)
        return YProfile.from_values(grid, src_grid.interpolate(vals, grid.y))
    raise _bad(where, "expected a 'poly' or 'values' entry")


def load_field(path, n: int | None = None) -> WaveField:
    """Read a field file. When n is given the field is carried onto an
    n-node grid (polynomials re-evaluated, samples re-interpolated)."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise _bad("top level", "expected an object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise _bad("schema_version", f"expected {SCHEMA_VERSION}, got {version!r}")

    pobj = doc.get("params")
    if not isinstance(pobj, dict):
        raise _bad("params", "expected an object with alpha, beta, reynolds")
    try:
        vals = [pobj[key] for key in _PARAMS]
    except KeyError as exc:
        raise _bad("params", f"missing entry {exc.args[0]!r}") from exc
    if not _numbers(vals):
        raise _bad("params", f"alpha, beta and reynolds must be numbers, got {vals}")
    try:
        params = FlowParams(*map(float, vals))
    except (ConfigurationError, OverflowError) as exc:
        raise _bad("params", str(exc)) from exc

    n_file = doc.get("n")
    if not isinstance(n_file, int) or n_file < 4:
        raise _bad("n", f"expected an integer >= 4, got {n_file!r}")
    src_grid = cheb_grid(n_file)
    grid = cheb_grid(n) if n is not None else src_grid

    hlist = doc.get("harmonics")
    if not isinstance(hlist, list):
        raise _bad("harmonics", "expected a list")

    comp_data: dict[str, dict] = {name: {} for name in _COMPONENTS}
    seen = set()
    for idx, hobj in enumerate(hlist):
        where = f"harmonics[{idx}]"
        if not isinstance(hobj, dict):
            raise _bad(where, "expected an object")
        j = hobj.get("j")
        if not isinstance(j, int) or isinstance(j, bool) or j < 0:
            raise _bad(where + ".j", f"expected an integer >= 0, got {j!r}")
        if j in seen:
            raise _bad(where + ".j", f"harmonic {j} appears twice")
        seen.add(j)
        for key in hobj:
            if key != "j" and key not in _COMPONENTS:
                raise _bad(where, f"unknown entry {key!r}")

        profs = {}
        for name in ("u1", "u2"):
            cobj = hobj.get(name)
            if cobj is not None and not isinstance(cobj, dict):
                raise _bad(f"{where}.{name}", "expected an object")
            cobj = cobj or {}
            _check_trig_keys(cobj, f"{where}.{name}")
            profs[name] = (
                _load_profile(cobj.get("cos"), grid, src_grid, f"{where}.{name}.cos"),
                _load_profile(cobj.get("sin"), grid, src_grid, f"{where}.{name}.sin"),
            )
        u3obj = hobj.get("u3")
        if u3obj is None or u3obj == "continuity":
            profs["u3"] = _continuity_u3(params, j, profs["u1"], profs["u2"])
        elif isinstance(u3obj, dict):
            _check_trig_keys(u3obj, f"{where}.u3")
            profs["u3"] = (
                _load_profile(u3obj.get("cos"), grid, src_grid, f"{where}.u3.cos"),
                _load_profile(u3obj.get("sin"), grid, src_grid, f"{where}.u3.sin"),
            )
        else:
            raise _bad(f"{where}.u3", "expected an object or the string 'continuity'")
        for name in _COMPONENTS:
            # sin(0) = 0, so a j = 0 sine profile would be dropped unread
            if j == 0 and not profs[name][1].is_zero():
                raise _bad(f"{where}.{name}.sin",
                           "must be zero (harmonic 0 has no sine part)")
            comp_data[name][j] = profs[name]

    comps = [HarmonicScalar(params, grid, comp_data[name]) for name in _COMPONENTS]
    return WaveField(*comps)


def _dump_profile(prof: YProfile) -> dict:
    if prof.poly is not None:
        # without the zero padding up to the longest profile of its field
        return {"poly": [float(c) for c in np.trim_zeros(prof.poly, "b")]}
    if prof.is_zero():
        return {"poly": [0.0]}
    return {"values": [float(v) for v in prof.values]}


def _head(params: FlowParams, n: int) -> dict:
    """The entries every JSON document of the package starts with: schema
    version, flow parameters and node count."""
    return {
        "schema_version": SCHEMA_VERSION,
        "params": {key: float(getattr(params, key)) for key in _PARAMS},
        "n": int(n),
    }


def field_to_dict(field: WaveField) -> dict:
    harmonics = []
    for j in field.stacked.harmonics():
        entry = {"j": j}
        for name, comp in zip(_COMPONENTS, field.components):
            a, b = comp.get(j)
            cobj = {}
            if not a.is_zero():
                cobj["cos"] = _dump_profile(a)
            if not b.is_zero():
                cobj["sin"] = _dump_profile(b)
            # u3 is written even when zero: an absent u3 means "derive from
            # continuity" on load, which is not the same thing
            if cobj or name == "u3":
                entry[name] = cobj
        harmonics.append(entry)
    return {**_head(field.params, field.grid.n), "harmonics": harmonics}


def _write_json(obj: dict, path):
    # encoded first: a NaN (not a JSON token) raises before the file opens
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def save_field(field: WaveField, path):
    _write_json(field_to_dict(field), path)
