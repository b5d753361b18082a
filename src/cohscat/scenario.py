"""Scenario configuration: a strict JSON schema with documented defaults.

Every run of the command-line harness resolves one Scenario (defaults
filled in, derived quantities computed) and echoes it into a manifest next
to its outputs, so a manifest can be fed back as the config of a later run.
Unknown keys anywhere in the document are rejected.
"""

from __future__ import annotations

import dataclasses
import json
import math
import types
import typing
from dataclasses import dataclass, field

import numpy as np

from . import emitter as em
from .correlations import BlinkingParams, TimingResponse
from .fock import SourceModel, check_phi_grid, solve_coupler_reflectivity
from .hom import HomSetup
from .pulsed import PulseTrain
from .spectrum import SpectralResponse

TWO_PI = 2.0 * math.pi


class SchemaError(ValueError):
    """Configuration document violates the scenario schema."""


def _type_ok(value, typ) -> bool:
    if isinstance(typ, types.UnionType):
        return any(_type_ok(value, t) for t in typing.get_args(typ))
    if typ is type(None):
        return value is None
    if typ is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if typ is int:
        return isinstance(value, int) and not isinstance(value, bool)
    if typ is bool:
        return isinstance(value, bool)
    if typ is str:
        return isinstance(value, str)
    return False


def _load_block(cls, data, path: str):
    if data is None:
        return cls()
    if not isinstance(data, dict):
        raise SchemaError(f"{path}: expected an object, got {type(data).__name__}")
    hints = typing.get_type_hints(cls)
    names = [f.name for f in dataclasses.fields(cls)]
    unknown = sorted(set(data) - set(names))
    if unknown:
        raise SchemaError(f"{path}: unknown key(s) {unknown}; allowed keys: {sorted(names)}")
    kwargs = {}
    for name in names:
        if name not in data:
            continue
        value = data[name]
        typ = hints[name]
        if not _type_ok(value, typ):
            raise SchemaError(f"{path}.{name}: expected {typ}, got {value!r}")
        if typ is float and value is not None:
            value = float(value)
        kwargs[name] = value
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


@dataclass(frozen=True)
class EmitterBlock:
    """Explicit t1/t2 win over the linewidth + coherence-ratio derivation."""

    t1_ns: float | None = None
    t2_ns: float | None = None
    linewidth_uev: float = 6.14
    coherence_ratio: float = 1.0
    detuning_rad_ns: float = 0.0

    def __post_init__(self):
        if (self.t1_ns is None) != (self.t2_ns is None):
            raise ValueError("t1_ns and t2_ns must be given together")

    def resolve(self) -> em.EmitterParams:
        if self.t1_ns is not None:
            return em.EmitterParams(t1=self.t1_ns, t2=self.t2_ns, detuning=self.detuning_rad_ns)
        # The homogeneous linewidth pins t2 = 2*hbar/dE; the coherence
        # ratio t2/(2*t1) then sets the lifetime.
        t2 = 2.0 * em.HBAR_UEV_NS / self.linewidth_uev
        t1 = t2 / (2.0 * self.coherence_ratio)
        return em.EmitterParams(t1=t1, t2=t2, detuning=self.detuning_rad_ns)


@dataclass(frozen=True)
class DriveBlock:
    """Drive strength; rabi_ghz converts to angular units by 2*pi, an
    explicit rabi_rad_ns bypasses the conversion."""

    rabi_ghz: float = 0.83
    rabi_rad_ns: float | None = None

    def resolve(self) -> float:
        if self.rabi_rad_ns is not None:
            return self.rabi_rad_ns
        return TWO_PI * self.rabi_ghz

    def conventions(self) -> dict[str, float]:
        """Both readings of a GHz figure: angular (2*pi f) and direct."""
        if self.rabi_rad_ns is not None:
            return {"rad_ns": self.rabi_rad_ns}
        return {"angular_rad_ns": TWO_PI * self.rabi_ghz, "direct_rad_ns": self.rabi_ghz}


@dataclass(frozen=True)
class GatingBlock:
    charge_occupation: float = 1.0
    collection_efficiency: float = 0.05
    laser_leakage: float | None = None  # counts/s per nW; None solves for `contrast`
    rabi_per_sqrt_power: float = 2.0  # rad/ns per sqrt(nW)
    contrast: float = 500.0

    def resolve(self, params: em.EmitterParams) -> em.GatingModel:
        leak = self.laser_leakage
        if leak is None:
            leak = em.leakage_for_contrast(
                params,
                self.charge_occupation,
                self.collection_efficiency,
                self.rabi_per_sqrt_power,
                self.contrast,
            )
        return em.GatingModel(
            charge_occupation=self.charge_occupation,
            laser_leakage=leak,
            collection_efficiency=self.collection_efficiency,
        )


@dataclass(frozen=True)
class BlinkingBlock:
    amplitude: float = 0.1
    timescale_ns: float = 50.0

    def resolve(self) -> BlinkingParams:
        return BlinkingParams(amplitude=self.amplitude, timescale=self.timescale_ns)


@dataclass(frozen=True)
class TimingBlock:
    fwhm_ns: float = 0.1

    def __post_init__(self):
        self.resolve()  # range checks at load time

    def resolve(self) -> TimingResponse:
        return TimingResponse(fwhm=self.fwhm_ns)


@dataclass(frozen=True)
class SpectralBlock:
    instrument_fwhm_uev: float = 0.78
    laser_fwhm_uev: float = 0.37

    def __post_init__(self):
        self.resolve()  # range checks at load time

    def resolve(self) -> SpectralResponse:
        return SpectralResponse(
            instrument_fwhm=self.instrument_fwhm_uev, laser_fwhm=self.laser_fwhm_uev
        )


@dataclass(frozen=True)
class HomBlock:
    delay_ns: float = 10.4
    splitter_ratio: float = 0.5

    def __post_init__(self):
        self.resolve()  # range checks at load time

    def resolve(self) -> HomSetup:
        return HomSetup(delay=self.delay_ns, splitter_ratio=self.splitter_ratio)


@dataclass(frozen=True)
class PulseTrainBlock:
    pulse_area_pi: float = 0.71
    pulse_fwhm_ns: float = 0.057
    separation_ns: float = 2.36
    pair_period_ns: float = 13.1
    n_pairs: int = 100000
    shape: str = "gaussian"

    def __post_init__(self):
        self.resolve()  # PulseTrain's range checks, at load time

    def resolve(self, n_pairs: int | None = None) -> PulseTrain:
        return PulseTrain(
            pulse_area=self.pulse_area_pi * math.pi,
            pulse_fwhm=self.pulse_fwhm_ns,
            separation=self.separation_ns,
            pair_period=self.pair_period_ns,
            n_pairs=self.n_pairs if n_pairs is None else n_pairs,
            shape=self.shape,
        )


@dataclass(frozen=True)
class SourceModelBlock:
    overlap: float = 0.90
    multiphoton_g: float = 0.167

    def __post_init__(self):
        self.resolve()  # SourceModel's range checks, at load time

    def resolve(self) -> SourceModel:
        return SourceModel(overlap=self.overlap, multiphoton_g=self.multiphoton_g)


@dataclass(frozen=True)
class CircuitBlock:
    r1: float = 0.5
    r2: float = 0.5
    n_phi: int = 161
    phi_span_rad: float = TWO_PI
    single_visibility: float | None = None  # if set, r1 = r2 solved from it

    def __post_init__(self):
        for r in self.couplers():
            if not 0.0 < r < 1.0:
                raise ValueError(f"coupler reflectivity must lie in (0, 1), got {r!r}")
        check_phi_grid(self.phi_grid())

    def phi_grid(self) -> np.ndarray:
        """The fringe phases (rad) the circuit figures sample."""
        return np.linspace(0.0, self.phi_span_rad, self.n_phi)

    def couplers(self) -> tuple[float, float]:
        """(r1, r2), solved from single_visibility when that is set."""
        if self.single_visibility is not None:
            r = solve_coupler_reflectivity(self.single_visibility)
            return r, r
        return self.r1, self.r2


_BLOCKS = {
    "emitter": EmitterBlock,
    "drive": DriveBlock,
    "gating": GatingBlock,
    "blinking": BlinkingBlock,
    "timing": TimingBlock,
    "spectral": SpectralBlock,
    "hom": HomBlock,
    "pulse_train": PulseTrainBlock,
    "source_model": SourceModelBlock,
    "circuit": CircuitBlock,
}


@dataclass(frozen=True)
class Scenario:
    emitter: EmitterBlock = field(default_factory=EmitterBlock)
    drive: DriveBlock = field(default_factory=DriveBlock)
    gating: GatingBlock = field(default_factory=GatingBlock)
    blinking: BlinkingBlock = field(default_factory=BlinkingBlock)
    timing: TimingBlock = field(default_factory=TimingBlock)
    spectral: SpectralBlock = field(default_factory=SpectralBlock)
    hom: HomBlock = field(default_factory=HomBlock)
    pulse_train: PulseTrainBlock = field(default_factory=PulseTrainBlock)
    source_model: SourceModelBlock = field(default_factory=SourceModelBlock)
    circuit: CircuitBlock = field(default_factory=CircuitBlock)
    seed: int = 12345
    output_dir: str = "out"

    def __post_init__(self):
        if not 0 <= self.seed < 2 ** 64:
            raise SchemaError("seed must be a 64-bit unsigned integer")

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        if not isinstance(data, dict):
            raise SchemaError(f"scenario: expected an object, got {type(data).__name__}")
        if "scenario" in data and "artifact" in data:
            data = data["scenario"]  # a manifest doubles as a config
        allowed = set(_BLOCKS) | {"seed", "output_dir"}
        unknown = sorted(set(data) - allowed)
        if unknown:
            raise SchemaError(
                f"scenario: unknown key(s) {unknown}; allowed keys: {sorted(allowed)}"
            )
        kwargs = {}
        for name, block_cls in _BLOCKS.items():
            kwargs[name] = _load_block(block_cls, data.get(name), name)
        if "seed" in data:
            if not _type_ok(data["seed"], int):
                raise SchemaError(f"scenario.seed: expected int, got {data['seed']!r}")
            kwargs["seed"] = data["seed"]
        if "output_dir" in data:
            if not _type_ok(data["output_dir"], str):
                raise SchemaError("scenario.output_dir: expected str")
            kwargs["output_dir"] = data["output_dir"]
        return cls(**kwargs)

    @classmethod
    def from_json(cls, path) -> "Scenario":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: invalid JSON ({exc})") from exc
        return cls.from_dict(data)

    def resolved_dict(self) -> dict:
        """Scenario with defaults and derived numbers filled in."""
        out = {}
        for name in _BLOCKS:
            out[name] = dataclasses.asdict(getattr(self, name))
        params = self.emitter.resolve()
        out["emitter"]["t1_ns"] = params.t1
        out["emitter"]["t2_ns"] = params.t2
        out["gating"]["laser_leakage"] = self.gating.resolve(params).laser_leakage
        out["seed"] = self.seed
        out["output_dir"] = self.output_dir
        return out
