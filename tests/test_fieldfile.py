"""Field file round trips and loader diagnostics."""

import json

import numpy as np
import pytest

import compatflow as cf
from compatflow.fieldfile import field_to_dict, load_field, save_field
from helpers import prof, random_admissible

PARAMS = cf.FlowParams(1.0, 1.0, 80.0)
G = cf.cheb_grid(64)


def test_polynomial_round_trip(tmp_path):
    field = cf.example_field(PARAMS, G)
    path = tmp_path / "f.json"
    save_field(field, path)
    back = load_field(path)
    assert (field - back).max_abs() == 0.0
    assert back.u2.get(1)[0].poly is not None


def test_sampled_round_trip(tmp_path):
    rng = np.random.RandomState(41)
    field = random_admissible(PARAMS, G, rng).strip_poly()
    path = tmp_path / "f.json"
    save_field(field, path)
    back = load_field(path)
    assert (field - back).max_abs() == 0.0


def test_harmonic_zero_round_trip(tmp_path):
    # the writer emits no j = 0 sine profile, which the loader would refuse
    field = cf.example_field(PARAMS, G) + cf.poiseuille_base(PARAMS, G)
    for f in (field, field.strip_poly()):
        path = tmp_path / "f.json"
        save_field(f, path)
        assert (f - load_field(path)).max_abs() == 0.0


def test_written_polynomials_keep_their_own_length(tmp_path):
    # the harmonics of a scalar share one coefficient array, zero-padded to
    # the longest profile; the file holds each profile without that padding
    u1 = cf.HarmonicScalar(PARAMS, G, {
        1: (prof(G, [-1.0, 0.0, 1.0]), cf.YProfile.zero(G)),
        2: (prof(G, [-1.0, 0.5, 1.0, -0.5, 0.25]), cf.YProfile.zero(G)),
    })
    zero = cf.HarmonicScalar(PARAMS, G)
    field = cf.WaveField(u1, zero, zero)
    doc = field_to_dict(field)
    assert doc["harmonics"][0]["u1"]["cos"]["poly"] == [-1.0, 0.0, 1.0]
    assert doc["harmonics"][1]["u1"]["cos"]["poly"] == [-1.0, 0.5, 1.0, -0.5, 0.25]
    path = tmp_path / "f.json"
    save_field(field, path)
    assert (field - load_field(path)).max_abs() == 0.0


def test_zero_u3_survives_round_trip(tmp_path):
    # an absent u3 means "complete from continuity", which is not the same
    # as a u3 that is genuinely zero, so the writer must emit it
    u1 = cf.HarmonicScalar(PARAMS, G, {1: (prof(G, [-1.0, 0.0, 1.0]), cf.YProfile.zero(G))})
    zero = cf.HarmonicScalar(PARAMS, G)
    field = cf.WaveField(u1, zero, zero)
    doc = field_to_dict(field)
    assert "u3" in doc["harmonics"][0]
    path = tmp_path / "f.json"
    save_field(field, path)
    back = load_field(path)
    assert back.u3.harmonics() == []


def test_save_refuses_a_nan_sample(tmp_path):
    """YProfile(grid, values) does not validate, so a field can hold NaN;
    the writer raises before the file exists instead of writing the token
    NaN, which load_field refuses."""
    vals = np.zeros(G.n)
    vals[5] = np.nan
    u1 = cf.HarmonicScalar(PARAMS, G, {1: (cf.YProfile(G, vals), cf.YProfile.zero(G))})
    zero = cf.HarmonicScalar(PARAMS, G)
    path = tmp_path / "f.json"
    with pytest.raises(ValueError):
        save_field(cf.WaveField(u1, zero, zero), path)
    assert not path.exists()


def test_omitted_u3_is_completed_from_continuity(tmp_path):
    field = cf.example_field(PARAMS, G)
    doc = field_to_dict(field)
    for h in doc["harmonics"]:
        h.pop("u3", None)
    path = tmp_path / "f.json"
    path.write_text(json.dumps(doc))
    back = load_field(path)
    assert (field.u3 - back.u3).max_abs() < 1e-12


def test_continuity_keyword(tmp_path):
    field = cf.example_field(PARAMS, G)
    doc = field_to_dict(field)
    for h in doc["harmonics"]:
        h["u3"] = "continuity"
    path = tmp_path / "f.json"
    path.write_text(json.dumps(doc))
    back = load_field(path)
    assert (field.u3 - back.u3).max_abs() < 1e-12


def test_grid_override_resamples(tmp_path):
    field = cf.example_field(PARAMS, G)
    path = tmp_path / "f.json"
    save_field(field, path)
    back = load_field(path, n=48)
    assert back.grid.n == 48
    # polynomial profiles re-evaluate exactly on the new nodes
    yq = np.array([-0.9, -0.2, 0.55])
    a_old = field.u2.get(1)[0]
    a_new = back.u2.get(1)[0]
    assert np.max(np.abs(a_old(yq) - a_new(yq))) < 1e-13


def test_sampled_grid_override(tmp_path):
    rng = np.random.RandomState(42)
    field = random_admissible(PARAMS, G, rng).strip_poly()
    path = tmp_path / "f.json"
    save_field(field, path)
    back = load_field(path, n=80)
    yq = np.linspace(-1, 1, 21)
    a_old = field.u2.get(1)[0]
    a_new = back.u2.get(1)[0]
    assert np.max(np.abs(a_old(yq) - a_new(yq))) < 1e-10


def _write(tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    return path


def _base_doc():
    return {
        "schema_version": 1,
        "params": {"alpha": 1.0, "beta": 1.0, "reynolds": 80.0},
        "n": 8,
        "harmonics": [],
    }


class TestDiagnostics:
    def test_truncated_json_reports_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema_version": 1, "params": {')
        with pytest.raises(cf.ConfigurationError, match="line 1 column"):
            load_field(path)

    def test_wrong_schema_version(self, tmp_path):
        doc = _base_doc()
        doc["schema_version"] = 99
        with pytest.raises(cf.ConfigurationError, match="schema_version"):
            load_field(_write(tmp_path, doc))

    def test_missing_param(self, tmp_path):
        doc = _base_doc()
        del doc["params"]["beta"]
        with pytest.raises(cf.ConfigurationError, match="beta"):
            load_field(_write(tmp_path, doc))

    def test_bad_node_count(self, tmp_path):
        doc = _base_doc()
        doc["n"] = 2
        with pytest.raises(cf.ConfigurationError, match="n"):
            load_field(_write(tmp_path, doc))

    def test_duplicate_harmonic(self, tmp_path):
        doc = _base_doc()
        doc["harmonics"] = [{"j": 1}, {"j": 1}]
        with pytest.raises(cf.ConfigurationError, match="twice"):
            load_field(_write(tmp_path, doc))

    def test_negative_harmonic(self, tmp_path):
        doc = _base_doc()
        doc["harmonics"] = [{"j": -2}]
        with pytest.raises(cf.ConfigurationError, match="j"):
            load_field(_write(tmp_path, doc))

    def test_unknown_component_entry(self, tmp_path):
        doc = _base_doc()
        doc["harmonics"] = [{"j": 1, "u4": {}}]
        with pytest.raises(cf.ConfigurationError, match="u4"):
            load_field(_write(tmp_path, doc))

    def test_misplaced_profile_data(self, tmp_path):
        doc = _base_doc()
        doc["harmonics"] = [{"j": 1, "u2": {"values": [0.0] * 8}}]
        with pytest.raises(cf.ConfigurationError, match="cos"):
            load_field(_write(tmp_path, doc))

    def test_wrong_sample_count(self, tmp_path):
        doc = _base_doc()
        doc["harmonics"] = [{"j": 1, "u2": {"cos": {"values": [1.0, 2.0]}}}]
        with pytest.raises(cf.ConfigurationError, match="expected 8 samples"):
            load_field(_write(tmp_path, doc))

    def test_poly_and_values_together(self, tmp_path):
        doc = _base_doc()
        doc["harmonics"] = [
            {"j": 1, "u2": {"cos": {"poly": [1.0], "values": [0.0] * 8}}}
        ]
        with pytest.raises(cf.ConfigurationError, match="not both"):
            load_field(_write(tmp_path, doc))

    def test_u3_string_must_be_continuity(self, tmp_path):
        doc = _base_doc()
        doc["harmonics"] = [{"j": 1, "u3": "derive"}]
        with pytest.raises(cf.ConfigurationError, match="continuity"):
            load_field(_write(tmp_path, doc))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf],
                             ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize("key", ["poly", "values"])
    def test_non_finite_number(self, tmp_path, key, bad):
        # json writes and reads these as NaN / Infinity / -Infinity
        data = [0.0] * 8
        data[3] = bad
        doc = _base_doc()
        doc["harmonics"] = [{"j": 1, "u2": {"cos": {key: data}}}]
        with pytest.raises(cf.ConfigurationError, match=f"u2.cos.{key}.*finite"):
            load_field(_write(tmp_path, doc))

    @pytest.mark.parametrize("comp", ["u1", "u2", "u3"])
    @pytest.mark.parametrize("key", ["poly", "values"])
    def test_harmonic_zero_sine_must_be_zero(self, tmp_path, comp, key):
        # sin(0) = 0: a nonzero profile there would load as no field at all
        data = [0.0] * 8
        data[2] = 1.0
        doc = _base_doc()
        doc["harmonics"] = [{"j": 1}, {"j": 0, comp: {"sin": {key: data}}}]
        with pytest.raises(cf.ConfigurationError,
                           match=rf"harmonics\[1\]\.{comp}\.sin: must be zero"):
            load_field(_write(tmp_path, doc))

    @pytest.mark.parametrize("key", ["poly", "values"])
    def test_harmonic_zero_zero_sine_is_accepted(self, tmp_path, key):
        doc = _base_doc()
        doc["harmonics"] = [{"j": 0, "u1": {"cos": {"poly": [-1.0, 0.0, 1.0]},
                                            "sin": {key: [0.0] * 8}}}]
        field = load_field(_write(tmp_path, doc))
        assert field.u1.get(0)[0].max_abs > 0
        assert field.u1.get(0)[1].is_zero()

    def test_continuity_completion_requires_beta(self, tmp_path):
        doc = _base_doc()
        doc["params"]["beta"] = 0.0
        doc["harmonics"] = [
            {"j": 1, "u1": {"cos": {"poly": [-1.0, 0.0, 1.0]}}}
        ]
        with pytest.raises(cf.DomainError):
            load_field(_write(tmp_path, doc))
