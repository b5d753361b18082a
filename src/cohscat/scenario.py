"""Scenario configuration: a strict JSON schema with documented defaults.

Every run of the command-line harness resolves one Scenario (defaults
filled in, derived quantities computed) and echoes it into a manifest next
to its outputs, so a manifest can be fed back as the config of a later run.

One loader reads the document: each key must name a field, each value must
have the field's type (numbers finite), and each block is an object loaded
the same way. Six blocks are the library's own value classes. Five check
their values when built: `blinking` (BlinkingParams), `timing`
(TimingResponse), `spectral` (SpectralResponse), `source_model`
(SourceModel) and `pulse_train` (PulseTrain, areas in pi, times in ns;
only `bench`'s `_multi_frac` passes its `resolve` an n_pairs; its
pair_period_ns is also capped at `_MAX_PAIR_PERIOD_NS`). `gating`
(GatingModel) is checked against the resolved emitter, by the call that
solves its laser leakage when that is None, and so is the saturation
parameter of the `drive`, which must be finite. The rest resolve to what
they derive: `emitter` to EmitterParams, `drive` to a Rabi frequency, `hom`
to HomSetup and `circuit` to its couplers and phases. A scenario is valid
if and only if every block builds and resolves.
`Scenario.__post_init__` resolves them all, so every way of making a
Scenario (a config, `dataclasses.replace` with a flag's value) passes the
same check, and a failure is a SchemaError that names its block.
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
from .spectrum import SpectralResponse

TWO_PI = 2.0 * math.pi
# Largest circuit.n_phi. A `fig fig3e` run holds about 220 bytes per phase
# point (two fringe tables, their fits and the CSV), so about 57 MB here.
_MAX_PHI_POINTS = 1 << 18
# Largest pulse_train.pair_period_ns: the coincidence histogram of fig3b and
# sim hbt spans 3.2 pair periods in 0.05 ns bins, 64 bins per ns, so this
# caps it at 2^18 bins (2 MiB of counts, plus as many centers).
_MAX_PAIR_PERIOD_NS = 4096.0


class SchemaError(ValueError):
    """Configuration document violates the scenario schema."""


def _type_ok(value, typ) -> bool:
    if isinstance(typ, types.UnionType):
        return any(_type_ok(value, t) for t in typing.get_args(typ))
    if typ is type(None):
        return value is None
    if isinstance(value, bool):  # an int subclass, but no number
        return typ is bool
    if typ is float:
        try:
            return isinstance(value, (int, float)) and math.isfinite(value)
        except OverflowError:  # an integer beyond the float range
            return False
    return isinstance(value, typ)


def _load_block(cls, data, path: str | None = None):
    """cls from a JSON object: the Scenario itself at the top (path None),
    else the block at `path`. Absent keys keep their defaults."""
    where = path or "scenario"
    if not isinstance(data, dict):
        raise SchemaError(f"{where}: expected an object, got {type(data).__name__}")
    hints = typing.get_type_hints(cls)
    unknown = sorted(set(data) - set(hints))
    if unknown:
        raise SchemaError(f"{where}: unknown key(s) {unknown}; allowed keys: {sorted(hints)}")
    kwargs = {}
    for name, value in data.items():
        key, typ = (name if path is None else f"{path}.{name}"), hints[name]
        if dataclasses.is_dataclass(typ):
            value = _load_block(typ, value, key)
        elif not _type_ok(value, typ):
            raise SchemaError(f"{key}: expected {getattr(typ, '__name__', typ)}, got {value!r}")
        elif value is not None and float in (typ, *typing.get_args(typ)):
            value = float(value)
        kwargs[name] = value
    try:
        return cls(**kwargs)
    except SchemaError:
        raise
    except (ValueError, ArithmeticError) as exc:  # a block's own check at construction
        raise SchemaError(f"{where}: {exc}") from exc


@dataclass(frozen=True)
class EmitterBlock:
    """Explicit t1/t2 win over the linewidth + coherence-ratio derivation."""

    t1_ns: float | None = None
    t2_ns: float | None = None
    linewidth_uev: float = 6.14
    coherence_ratio: float = 1.0
    detuning_rad_ns: float = 0.0

    def resolve(self) -> em.EmitterParams:
        if (self.t1_ns is None) != (self.t2_ns is None):
            raise ValueError("t1_ns and t2_ns must be given together")
        if self.t1_ns is not None:
            return em.EmitterParams(t1=self.t1_ns, t2=self.t2_ns, detuning=self.detuning_rad_ns)
        if not self.linewidth_uev > 0:
            raise ValueError(f"linewidth_uev must be > 0, got {self.linewidth_uev}")
        if not 0.0 < self.coherence_ratio <= 1.0:
            raise ValueError(f"coherence_ratio must lie in (0, 1], got {self.coherence_ratio}")
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
        rabi = TWO_PI * self.rabi_ghz if self.rabi_rad_ns is None else self.rabi_rad_ns
        em._check_rabi(rabi)
        return rabi

    def conventions(self) -> dict[str, float]:
        """Both readings of a GHz figure: angular (2*pi f) and direct."""
        if self.rabi_rad_ns is not None:
            return {"rad_ns": self.rabi_rad_ns}
        return {"angular_rad_ns": TWO_PI * self.rabi_ghz, "direct_rad_ns": self.rabi_ghz}


@dataclass(frozen=True)
class HomBlock:
    delay_ns: float = 10.4
    splitter_ratio: float = 0.5

    def resolve(self) -> HomSetup:
        return HomSetup(delay=self.delay_ns, splitter_ratio=self.splitter_ratio)


@dataclass(frozen=True)
class CircuitBlock:
    r1: float = 0.5
    r2: float = 0.5
    n_phi: int = 161
    phi_span_rad: float = TWO_PI
    single_visibility: float | None = None  # if set, r1 = r2 solved from it

    def resolve(self) -> tuple[float, float, np.ndarray]:
        """Couplers (r1, r2), solved from single_visibility when that is
        set, and the fringe phases (rad) the circuit figures sample."""
        r1, r2 = self.r1, self.r2
        if self.single_visibility is not None:
            r1 = r2 = solve_coupler_reflectivity(self.single_visibility)
        for r in (r1, r2):
            if not 0.0 < r < 1.0:
                raise ValueError(f"coupler reflectivity must lie in (0, 1), got {r!r}")
        if self.n_phi > _MAX_PHI_POINTS:
            raise ValueError(f"n_phi must be at most {_MAX_PHI_POINTS}, got {self.n_phi}")
        return r1, r2, check_phi_grid(np.linspace(0.0, self.phi_span_rad, self.n_phi))


@dataclass(frozen=True)
class Scenario:
    emitter: EmitterBlock = field(default_factory=EmitterBlock)
    drive: DriveBlock = field(default_factory=DriveBlock)
    gating: em.GatingModel = field(default_factory=em.GatingModel)
    blinking: BlinkingParams = field(default_factory=BlinkingParams)
    timing: TimingResponse = field(default_factory=TimingResponse)
    spectral: SpectralResponse = field(default_factory=SpectralResponse)
    hom: HomBlock = field(default_factory=HomBlock)
    pulse_train: em.PulseTrain = field(default_factory=em.PulseTrain)
    source_model: SourceModel = field(default_factory=SourceModel)
    circuit: CircuitBlock = field(default_factory=CircuitBlock)
    seed: int = 12345
    output_dir: str = "out"

    def __post_init__(self):
        if not 0 <= self.seed < 2 ** 64:
            raise SchemaError("seed must be a 64-bit unsigned integer")
        params = None  # the emitter resolves first; gating and drive are checked against it
        for f in dataclasses.fields(self):
            block = getattr(self, f.name)
            try:
                if f.name == "emitter":
                    params = block.resolve()
                elif f.name == "gating":
                    block.leakage(params)
                elif f.name == "drive":
                    rabi = block.resolve()
                    with np.errstate(over="ignore"):
                        s = em.saturation_parameter(params, np.float64(rabi))
                    if not np.isfinite(s):
                        raise ValueError(f"saturation parameter s = W^2 T1 T2 / (1 + (D T2)^2) must be finite, "
                                         f"got {s} at rabi {rabi!r} rad/ns")
                elif f.name == "pulse_train" and not block.pair_period_ns <= _MAX_PAIR_PERIOD_NS:
                    raise ValueError(f"pair_period_ns must be at most {_MAX_PAIR_PERIOD_NS:g} "
                                     f"(the coincidence histogram's 2^18 bins), got {block.pair_period_ns!r}")
                elif hasattr(block, "resolve"):
                    block.resolve()
            except (ValueError, ArithmeticError) as exc:
                raise SchemaError(f"{f.name}: {exc}") from exc

    @classmethod
    def from_dict(cls, data) -> "Scenario":
        if isinstance(data, dict) and "scenario" in data and "artifact" in data:
            data = data["scenario"]  # a manifest doubles as a config
        return _load_block(cls, data)

    @classmethod
    def from_json(cls, path) -> "Scenario":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or an integer too long to parse
            raise SchemaError(f"{path}: invalid JSON ({exc})") from exc
        return cls.from_dict(data)

    def resolved_dict(self) -> dict:
        """Scenario with defaults and derived numbers filled in."""
        out = dataclasses.asdict(self)
        params = self.emitter.resolve()
        out["emitter"]["t1_ns"] = params.t1
        out["emitter"]["t2_ns"] = params.t2
        out["gating"]["laser_leakage"] = self.gating.leakage(params)
        return out
