"""Experiment configuration: JSON schema, validation, and object builders.

A config is a plain JSON document.  Potentials are restricted to forms the
theory admits: any trigonometric polynomial for the lattice potential, and
a whitelist of external potentials whose growth is at most quadratic with
bounded higher derivatives ("quadratic", "cosine-well").  Every derived
output row carries sha256(canonical config)[:12] for provenance.

Validating a config builds its model: `ExperimentConfig.validate` builds
both potentials and the Gaussian once each, and the model
constructors make the shape, symmetry, sign and Hermitian checks.  Their
rejections come back as a `ConfigError` naming the config key.
"""

from __future__ import annotations

import hashlib
import json
import operator
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np

from .bloch import MAX_PLANE_WAVES, BlochBand
from .envelope import GaussianEnvelope, gaussian_init
from .errors import ConfigError, EnvelopeError, PotentialError
from .flow import CosineWellPotential, QuadraticPotential
from .lattice import FourierPotential
from .reference import RESIDUAL_DELTA_FACTOR, RESIDUAL_DELTA_LIMIT

EXPERIMENT_KINDS = (
    "bands",
    "flow",
    "envelope",
    "packet",
    "reference",
    "convergence",
    "ehrenfest",
)
INITIAL_DATA_KINDS = ("packet", "well_prepared")
CONVERGENCE_MODES = ("error", "residual")
# each potential type with the spec fields it reads
EXTERNAL_KINDS = {
    "quadratic": ("linear", "hessian"), "cosine-well": ("amplitude", "frequencies"),
}
LATTICE_POTENTIAL_KINDS = {"cosine": ("amplitude",), "fourier": ("coeffs",), "zero": ()}
# the stored forms of the tuple fields
floats = tuple[float, ...]
matrix = tuple[floats, ...]
fourier_rows = tuple[tuple[tuple[int, ...], float, float], ...]  # ((index...), re, im)
# each field annotation with the JSON types it accepts (bool is never a number)
# and its stored form; str stays as given (None), an integer (numpy's too) as int
_KINDS = {
    "str": (str, None),
    "int": (int, operator.index),
    "int | None": ((int, type(None)), lambda v: v if v is None else operator.index(v)),
    "float": ((int, float), float),
    "float | None": ((int, float, type(None)), lambda v: v if v is None else float(v)),
    "floats": ((list, tuple), lambda v: tuple(map(float, v))),
    "matrix": ((list, tuple), lambda rows: tuple(tuple(map(float, r)) for r in rows)),
    "fourier_rows": (
        (list, tuple),
        lambda rows: tuple((tuple(map(int, n)), float(re), float(im)) for n, re, im in rows),
    ),
}


def _plain(value):
    """JSON form: dataclasses become dicts, tuples become lists."""
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    return [_plain(v) for v in value] if isinstance(value, tuple) else value


def _from_plain(cls, data, where: str = "config"):
    """Dataclass cls built from its JSON form; a malformed entry raises ConfigError."""
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be a JSON object")
    known = {f.name: f for f in fields(cls)}
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ConfigError(f"unknown config keys in {where}: {unknown}")
    kwargs = {}
    for key, value in data.items():
        kind, nested = known[key].type, known[key].default_factory
        if is_dataclass(nested):
            kwargs[key] = _from_plain(nested, value, f"{where}.{key}")
        elif isinstance(value, bool) or not isinstance(value, _KINDS[kind][0]):
            raise ConfigError(f"{where}.{key} must be of type {kind}, got {value!r}")
        else:
            kwargs[key] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed entry in {where}: {exc}") from exc


class _Serializable:
    """Stored forms, to_dict and from_dict derived from the dataclass fields;
    a JSON int in a float field, a list and a numpy scalar store and hash
    as their float and tuple spellings, and a non-finite number is rejected."""

    def __post_init__(self):
        for f in fields(self):
            store = _KINDS.get(f.type, (None, None))[1]  # nested specs store themselves
            if store:
                value = store(getattr(self, f.name))
                try:  # JSON admits NaN and Infinity; no field does
                    json.dumps(value, allow_nan=False)
                except ValueError:
                    raise ConfigError(f"{f.name} must be finite, got {value!r}") from None
                object.__setattr__(self, f.name, value)

    def to_dict(self) -> dict:
        return _plain(self)

    @classmethod
    def from_dict(cls, data):
        return _from_plain(cls, data)


def _check_read(spec, kinds: dict) -> None:
    """Raise ConfigError for a field off its default that spec.type does not read."""
    for f in fields(spec):
        if f.name not in kinds[spec.type] + ("type",) and getattr(spec, f.name) != f.default:
            raise ConfigError(f"type {spec.type!r} does not read {f.name!r}")


@dataclass(frozen=True)
class LatticePotentialSpec(_Serializable):
    """Periodic potential as a named form or explicit Fourier data."""

    type: str = "cosine"
    amplitude: float = 1.0
    coeffs: fourier_rows = ()  # explicit coefficients for type="fourier"

    def build(self, dimension: int) -> FourierPotential:
        """The potential; `FourierPotential` checks Hermitian symmetry."""
        if self.type not in LATTICE_POTENTIAL_KINDS:
            raise ConfigError(f"unknown lattice potential type {self.type!r}")
        _check_read(self, LATTICE_POTENTIAL_KINDS)
        if self.type == "cosine":
            return FourierPotential.cosine(dimension, self.amplitude)
        if self.type == "zero":
            return FourierPotential.zero(dimension)
        if not self.coeffs:
            raise ConfigError("fourier lattice potential needs coefficients")
        if any(len(n) != dimension for n, _, _ in self.coeffs):
            raise ConfigError("fourier coefficient rows are ((n,)*d, re, im)")
        return FourierPotential.from_coeffs({n: complex(re, im) for n, re, im in self.coeffs})


@dataclass(frozen=True)
class ExternalPotentialSpec(_Serializable):
    """Slow external potential from the admissible whitelist.

    The quadratic form is given by (linear, hessian), which makes the growth
    condition checkable syntactically; cosine wells have bounded derivatives
    of every order.  A constant in V would only multiply psi by the global
    phase e^{-i c t / eps}, so the form has none.
    """

    type: str = "quadratic"
    linear: floats = ()
    hessian: matrix = ()
    amplitude: float = 1.0
    frequencies: floats = ()

    def build(self, dimension: int):
        """The potential; `QuadraticPotential.create` checks shapes and
        symmetry, `CosineWellPotential.create` the signs."""
        if self.type not in EXTERNAL_KINDS:
            raise ConfigError(
                f"external potential {self.type!r} is not in the admissible"
                f" whitelist {tuple(EXTERNAL_KINDS)}"
            )
        _check_read(self, EXTERNAL_KINDS)
        if self.type == "quadratic":
            if len({len(row) for row in self.hessian}) > 1:
                raise ConfigError("hessian rows differ in length")
            return QuadraticPotential.create(
                dimension,
                linear=self.linear or None,
                hessian=self.hessian or np.eye(dimension),
            )
        if self.frequencies and len(self.frequencies) != dimension:
            raise ConfigError("frequencies have the wrong dimension")
        return CosineWellPotential.create(self.amplitude, self.frequencies or (1.0,) * dimension)


def _built(key: str, make):
    """make(), with its rejection, a model constructor's included,
    re-raised as a ConfigError that names the config key."""
    try:
        return make()
    except (ConfigError, PotentialError, EnvelopeError) as exc:
        raise ConfigError(f"{key}: {exc}") from exc


@dataclass(frozen=True)
class ExperimentConfig(_Serializable):
    """One experiment: model, initial data, sweep values, and step sizes."""

    kind: str = "convergence"
    dimension: int = 1
    lattice_potential: LatticePotentialSpec = field(default_factory=LatticePotentialSpec)
    external: ExternalPotentialSpec = field(default_factory=ExternalPotentialSpec)
    band_index: int = 1
    cutoff: int | None = None  # None: sized per band (bloch.sized_cutoff)

    q0: floats = (0.0,)
    p0: floats = (0.3,)
    envelope_a: matrix = ()  # () is the identity
    envelope_b: matrix = ()
    initial_data: str = "packet"

    epsilons: floats = (0.0625, 0.03125, 0.015625, 0.0078125)
    t_final: float = 1.0
    flow_dt: float | None = None  # None: sized by step doubling (experiments.refine)
    envelope_dt: float | None = None  # None: sized likewise
    grid_envelope_dt: float | None = None  # None: sized likewise
    sample_times: floats = ()  # () is (t_final,)
    residual_time: float = 0.5
    convergence_mode: str = "error"
    c0_list: floats = (0.1,)

    half_width: float | None = None  # None: 2 pi, sized for reference solves (experiments._box_terms)
    envelope_half_width: float = 16.0
    envelope_points: int = 512

    k_samples: int = 65
    num_bands: int = 8
    output_dir: str = "out"

    def __post_init__(self):
        super().__post_init__()
        d = self.dimension
        for name in ("envelope_a", "envelope_b"):
            rows = getattr(self, name) or tuple(tuple(row) for row in np.eye(d).tolist())
            if len(rows) != d or any(len(r) != d for r in rows):
                raise ConfigError(f"{name} must be a {d} x {d} matrix")
            object.__setattr__(self, name, rows)
        object.__setattr__(self, "sample_times", self.sample_times or (self.t_final,))

    def validate(self) -> "ExperimentConfig":
        """Check every field and build each model object once; a model
        constructor's rejection is re-raised as a ConfigError naming its key."""
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigError(f"kind {self.kind!r} is not one of {EXPERIMENT_KINDS}")
        if self.dimension < 1:
            raise ConfigError("dimension: dimension must be >= 1")
        potential = _built("lattice_potential", self.make_lattice_potential)
        _built("external", self.make_external)
        _built("envelope_a/envelope_b", self.make_gaussian)
        if self.band_index < 1:
            raise ConfigError("band_index is 1-based")
        if self.kind == "bands" and self.band_index > self.num_bands:
            raise ConfigError(
                f"band index {self.band_index} exceeds num_bands {self.num_bands}"
            )
        if self.cutoff is not None and self.cutoff < potential.cutoff:
            raise ConfigError(f"cutoff {self.cutoff} below the lattice potential's support")
        # band scans read num_bands bands; every other pipeline reads one band; an unset
        # cutoff is sized in the run (bloch.sized_cutoff), up to MAX_PLANE_WAVES plane waves
        name = "num_bands" if self.kind == "bands" else "band_index"
        waves = MAX_PLANE_WAVES if self.cutoff is None else (2 * self.cutoff + 1) ** self.dimension
        if getattr(self, name) > waves:
            raise ConfigError(f"{name} exceeds the {waves} plane waves of the largest basis")
        if len(self.q0) != self.dimension or len(self.p0) != self.dimension:
            raise ConfigError("q0 and p0 must have length = dimension")
        if self.initial_data not in INITIAL_DATA_KINDS:
            raise ConfigError(f"initial_data {self.initial_data!r} is not one of {INITIAL_DATA_KINDS}")
        if not self.epsilons:
            raise ConfigError("epsilons needs at least one value")
        if any(not 0.0 < e < 1.0 for e in self.epsilons):
            raise ConfigError("every value of epsilons must lie in (0, 1)")
        if self.t_final <= 0:
            raise ConfigError("t_final must be positive")
        for name in ("flow_dt", "envelope_dt", "grid_envelope_dt", "half_width",
                     "envelope_half_width"):
            if getattr(self, name) is not None and getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.convergence_mode not in CONVERGENCE_MODES:
            raise ConfigError(f"convergence_mode {self.convergence_mode!r} is not one of {CONVERGENCE_MODES}")
        if self.kind == "convergence" and self.convergence_mode == "residual":
            # the residual's snapshots sit at residual_time +- delta, delta =
            # RESIDUAL_DELTA_FACTOR eps^2; at the largest eps the offset is
            # widest and must still resolve the 1/eps phase (pde_residual's
            # delta <= eps / 10) and start at or after t = 0
            widest = max(self.epsilons)
            if not 0.0 < self.residual_time <= self.t_final:
                raise ConfigError("residual_time must lie in (0, t_final]")
            if RESIDUAL_DELTA_FACTOR * widest > RESIDUAL_DELTA_LIMIT:
                raise ConfigError(
                    f"max(epsilons) must be <= {RESIDUAL_DELTA_LIMIT / RESIDUAL_DELTA_FACTOR:g}"
                    f" in residual mode, so that delta = {RESIDUAL_DELTA_FACTOR:g} eps^2"
                    f" stays <= {RESIDUAL_DELTA_LIMIT:g} eps"
                )
            if self.residual_time < RESIDUAL_DELTA_FACTOR * widest**2:
                raise ConfigError(
                    f"residual_time must be >= {RESIDUAL_DELTA_FACTOR:g} * max(epsilons)^2"
                )
        if any(t < 0 or t > self.t_final + 1e-12 for t in self.sample_times):
            raise ConfigError("sample_times must lie in [0, t_final]")
        if self.kind == "ehrenfest" and not (self.c0_list and min(self.c0_list) > 0):
            raise ConfigError("ehrenfest runs need a non-empty c0_list of positive C0 values")
        if self.envelope_points < 16:
            raise ConfigError("envelope_points must be at least 16")
        if self.k_samples < 2 or self.num_bands < 1:
            raise ConfigError("band scan needs k_samples >= 2, num_bands >= 1")
        return self

    # ---- builders -------------------------------------------------------

    def make_lattice_potential(self) -> FourierPotential:
        return self.lattice_potential.build(self.dimension)

    def make_external(self):
        return self.external.build(self.dimension)

    def make_band(self) -> BlochBand:
        """The band; a scan's sized cutoff also resolves the energies of bands 1..num_bands."""
        top = max(self.num_bands, self.band_index + 2)
        scan = range(1, top + 1) if self.kind == "bands" else None
        return BlochBand(self.make_lattice_potential(), self.band_index, self.cutoff, scan)

    def make_gaussian(self) -> GaussianEnvelope:
        a = np.asarray(self.envelope_a, dtype=complex)
        b = np.asarray(self.envelope_b, dtype=complex)
        return gaussian_init(a, b)

    # ---- serialization --------------------------------------------------

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        return cls.from_json(Path(path).read_text())

    def config_hash(self) -> str:
        # identifies the scientific configuration: the output location
        # does not change any computed number
        payload = self.to_dict()
        payload.pop("output_dir", None)
        canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:12]
