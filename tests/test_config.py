import json
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochpacket.config import (
    _KINDS,
    ExperimentConfig,
    ExternalPotentialSpec,
    LatticePotentialSpec,
)
from blochpacket.envelope import GaussianEnvelope
from blochpacket.errors import ConfigError
from blochpacket.flow import CosineWellPotential, QuadraticPotential


def test_defaults_validate():
    cfg = ExperimentConfig(kind="convergence")
    cfg.validate()
    assert cfg.dimension == 1
    assert cfg.band_index == 1
    assert cfg.p0 == (0.3,)
    assert cfg.epsilons == (2**-4, 2**-5, 2**-6, 2**-7)
    assert cfg.sample_times == (1.0,)  # empty input fills in the final time


def test_round_trip_json():
    cfg = ExperimentConfig(
        kind="convergence",
        convergence_mode="residual",
        epsilons=(0.1, 0.05),
        t_final=0.75,
        sample_times=(0.25, 0.75),
        c0_list=(0.1, 0.2),
    )
    back = ExperimentConfig.from_json(json.dumps(cfg.to_dict()))
    assert back == cfg


def test_file_round_trip(tmp_path):
    cfg = ExperimentConfig(kind="bands", k_samples=17)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    assert ExperimentConfig.from_file(path) == cfg


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"kind": "bands", "not_a_field": 1})


def test_validation_rejections():
    bad = [
        dict(kind="unknown-kind"),
        dict(kind="convergence", epsilons=(2.0,)),
        dict(kind="convergence", epsilons=()),
        dict(kind="convergence", band_index=0),
        dict(kind="convergence", dimension=0),
        dict(kind="convergence", q0=(0.0, 0.0)),  # wrong length for d=1
        dict(kind="convergence", t_final=-1.0),
        dict(kind="convergence", convergence_mode="bogus"),
        dict(kind="convergence", initial_data="bogus"),
        dict(kind="convergence", convergence_mode="residual", residual_time=2.0, t_final=1.0),
        dict(kind="convergence", cutoff=0),  # below the cosine's support
        dict(kind="convergence", cutoff=1, band_index=4),  # 3 plane waves
        dict(kind="bands", cutoff=2, num_bands=80),  # 5 plane waves
        dict(kind="convergence", band_index=1090),  # past a sized cutoff's 1089 plane waves
        dict(kind="ehrenfest", c0_list=()),
        dict(kind="ehrenfest", c0_list=(0.1, 0.0)),  # a zero-length horizon
        dict(kind="convergence", flow_dt=0.0),
        dict(kind="envelope", grid_envelope_dt=-1e-3),
        dict(kind="envelope", envelope_dt=0.0),
    ]
    for kwargs in bad:
        with pytest.raises(ConfigError):
            ExperimentConfig(**kwargs).validate()


def test_unknown_kind_names_its_key():
    # the command line forces kind to its subcommand, so only Python reaches this check
    with pytest.raises(ConfigError, match=r"^kind 'unknown-kind' is not one of \('bands', "):
        ExperimentConfig(kind="unknown-kind").validate()


def test_lattice_potential_spec_builders():
    cos = LatticePotentialSpec(type="cosine", amplitude=2.0).build(1)
    assert dict(cos.coeffs)[(1,)] == pytest.approx(1.0)
    zero = LatticePotentialSpec(type="zero").build(1)
    assert zero.cutoff == 0
    general = LatticePotentialSpec(
        type="fourier", coeffs=(((1,), 0.5, 0.0), ((-1,), 0.5, 0.0))
    ).build(1)
    assert dict(general.coeffs)[(1,)] == pytest.approx(0.5)
    with pytest.raises(ConfigError):
        LatticePotentialSpec(type="bogus").build(1)


def test_external_potential_spec_builders():
    quad = ExternalPotentialSpec(type="quadratic").build(1)
    assert isinstance(quad, QuadraticPotential)
    # harmonic well by default: V = x^2 / 2
    assert quad.value(np.array([2.0])) == pytest.approx(2.0)
    well = ExternalPotentialSpec(type="cosine-well", amplitude=0.5, frequencies=(1.0,)).build(1)
    assert isinstance(well, CosineWellPotential)
    with pytest.raises(ConfigError):
        ExternalPotentialSpec(type="bogus").build(1)


@pytest.mark.parametrize(
    "spec, unread",
    [
        (ExternalPotentialSpec(type="quadratic", frequencies=(3.0,)), "frequencies"),
        (ExternalPotentialSpec(type="quadratic", amplitude=2.0), "amplitude"),
        (ExternalPotentialSpec(type="cosine-well", hessian=((1.0,),)), "hessian"),
        (ExternalPotentialSpec(type="cosine-well", linear=(0.5,)), "linear"),
        (LatticePotentialSpec(type="cosine", coeffs=(((1,), 0.5, 0.0),)), "coeffs"),
        (LatticePotentialSpec(type="zero", amplitude=0.3), "amplitude"),
        (
            LatticePotentialSpec(type="fourier", amplitude=0.3, coeffs=(((0,), 1.0, 0.0),)),
            "amplitude",
        ),
    ],
)
def test_spec_rejects_a_field_its_type_does_not_read(spec, unread):
    # such a field would change the config hash but not the model
    with pytest.raises(ConfigError, match=f"type '{spec.type}' does not read '{unread}'"):
        spec.build(1)


def test_spec_accepts_unread_fields_at_their_defaults():
    # an int or list spelling of a default is the default
    ExternalPotentialSpec(type="quadratic", amplitude=1, frequencies=[]).build(1)
    ExternalPotentialSpec(type="cosine-well", linear=[], hessian=[]).build(1)
    LatticePotentialSpec(type="zero", amplitude=1, coeffs=[]).build(1)


def test_make_band_and_gaussian():
    cfg = ExperimentConfig(kind="convergence")
    band = cfg.make_band()
    assert band.energy(np.array([0.3])) == pytest.approx(-0.5333259639656098, abs=1e-12)
    g = cfg.make_gaussian()
    assert isinstance(g, GaussianEnvelope)
    assert np.allclose(g.A, np.eye(1))


def test_unset_steps_are_sized_and_set_steps_are_floats():
    # null leaves flow_dt, envelope_dt and grid_envelope_dt to the pipelines'
    # step doubling; a set step is a float whatever its JSON spelling
    cfg = ExperimentConfig.from_json('{"flow_dt": null, "grid_envelope_dt": 1}').validate()
    assert cfg.flow_dt is None and cfg.envelope_dt is None
    assert ExperimentConfig().grid_envelope_dt is None
    assert type(cfg.grid_envelope_dt) is float and cfg.grid_envelope_dt == 1.0
    assert cfg.to_dict()["flow_dt"] is None
    with pytest.raises(ConfigError, match="grid_envelope_dt must be of type float | None"):
        ExperimentConfig.from_dict({"grid_envelope_dt": "fine"})


def test_config_hash_ignores_operational_fields():
    a = ExperimentConfig(kind="convergence", output_dir="x")
    b = ExperimentConfig(kind="convergence", output_dir="y")
    c = ExperimentConfig(kind="convergence", t_final=2.0)
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != c.config_hash()
    assert len(a.config_hash()) == 12


def test_config_hash_ignores_int_spelling_of_floats():
    assert ExperimentConfig(t_final=1) == ExperimentConfig(t_final=1.0)
    assert ExperimentConfig(t_final=1).config_hash() == ExperimentConfig(t_final=1.0).config_hash()
    assert ExperimentConfig().config_hash() == "7725ce583b41"
    # numpy scalars, lists and ints, as the benchmark passes them, store as
    # plain floats and ints in tuples and hash like the JSON spelling
    spelled = ExperimentConfig(
        band_index=np.int64(1),
        cutoff=np.int32(32),
        q0=[np.float64(0.5)],
        epsilons=[np.float32(0.125), 0.0625],
        external=ExternalPotentialSpec(hessian=[[np.int64(2)]]),
        lattice_potential=LatticePotentialSpec(
            type="fourier", coeffs=[[[np.int64(1)], np.float64(0.5), 0], [(-1,), 0.5, 0]]
        ),
    )
    json_spelling = ExperimentConfig.from_json(
        '{"band_index": 1, "cutoff": 32,'
        ' "q0": [0.5], "epsilons": [0.125, 0.0625], "external": {"hessian": [[2.0]]},'
        ' "lattice_potential": {"type": "fourier",'
        ' "coeffs": [[[1], 0.5, 0.0], [[-1], 0.5, 0.0]]}}'
    )
    for row in (spelled.q0, spelled.epsilons, *spelled.external.hessian):
        assert type(row) is tuple and all(type(v) is float for v in row)
    assert type(spelled.external.hessian) is type(spelled.lattice_potential.coeffs) is tuple
    for n, re, im in spelled.lattice_potential.coeffs:
        assert type(n) is tuple and all(type(c) is int for c in n)
        assert type(re) is type(im) is float
    assert type(spelled.band_index) is type(spelled.cutoff) is int
    assert spelled.config_hash() == json_spelling.config_hash()
    # an int field takes any integer but never truncates a fraction
    with pytest.raises(TypeError):
        ExperimentConfig(band_index=1.5)
    with pytest.raises(ConfigError, match="band_index must be of type int"):
        ExperimentConfig.from_json('{"band_index": 1.5}')
    # every field is normalized by its annotation or is a nested spec
    for cls in (ExperimentConfig, ExternalPotentialSpec, LatticePotentialSpec):
        for f in fields(cls):
            assert f.type in _KINDS or is_dataclass(f.default_factory), (cls, f.name)


def test_residual_time_bound_applies_to_residual_runs_only():
    ExperimentConfig(kind="envelope", t_final=0.3).validate()
    ExperimentConfig(kind="convergence", t_final=0.3).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="convergence", convergence_mode="residual", t_final=0.3).validate()


def test_num_bands_bound_applies_to_band_scans_only():
    # only band scans read num_bands; other runs read one band
    ExperimentConfig(kind="convergence", band_index=9).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="bands", band_index=9, num_bands=8).validate()


@given(
    eps=st.lists(
        st.sampled_from([2**-3, 2**-4, 2**-5, 2**-6]), min_size=1, max_size=4, unique=True
    ),
    t_final=st.floats(min_value=0.1, max_value=4.0),
    band=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=20)
def test_round_trip_is_identity_on_valid_configs(eps, t_final, band):
    cfg = ExperimentConfig(
        kind="convergence",
        epsilons=tuple(eps),
        t_final=t_final,
        residual_time=t_final / 2,
        band_index=band,
    )
    cfg.validate()
    assert ExperimentConfig.from_json(json.dumps(cfg.to_dict())) == cfg
    assert cfg.config_hash() == ExperimentConfig.from_json(json.dumps(cfg.to_dict())).config_hash()


@pytest.mark.parametrize(
    "data",
    [
        {"epsilons": 0.1},
        {"lattice_potential": "cosine"},
        {"k_samples": "2"},
        {"q0": [0, "a"]},
        {"external": {"hessian": 3}},
        {"dimension": "1"},
        {"external": {"not_a_field": 1.0}},
        {"lattice_potential": {"coeffs": [[1, 0.5, 0.0]]}},
        {"k_samples": True},
        {"jobs": 2},
    ],
)
def test_from_dict_malformed_values_raise_config_error(data):
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(data)


CONFIG_HASHES = {
    "bands.json": "a5920a7cbd03",
    "bloch_oscillation.json": "c4bdf660ff22",
    "convergence_error.json": "7725ce583b41",
    "ehrenfest.json": "04787a7e001f",
    "envelope_cosine_well.json": "42c4dfe4dbc3",
    "free_lattice_packet.json": "ed7816496dac",
    "residual.json": "30b30b584559",
    "zone_edge.json": "7563a6d448eb",
}


def test_config_hash_values_are_stable():
    # provenance hashes are pinned, so a changed default shows here;
    # int-valued floats become floats at the top level and in the specs alike
    assert ExperimentConfig().config_hash() == "7725ce583b41"
    # a fixed 2 pi box is a set field, so it hashes apart from the sized default
    assert ExperimentConfig(half_width=2 * np.pi).config_hash() == "bff9211c668a"
    configs = Path(__file__).resolve().parent.parent / "configs"
    for name, want in CONFIG_HASHES.items():
        assert ExperimentConfig.from_file(configs / name).config_hash() == want
    nested_ints = {
        "t_final": 1,
        "lattice_potential": {"amplitude": 2},
        "external": {"hessian": [[1]], "linear": [0]},
    }
    float_spelling = dict(nested_ints, t_final=1.0)
    assert ExperimentConfig.from_dict(nested_ints).config_hash() == "5f11886cbda9"
    assert ExperimentConfig.from_dict(float_spelling).config_hash() == "5f11886cbda9"
