"""Two-level emitter model: parameters, optical Bloch dynamics, steady state,
the coherently scattered fraction, and the gated saturation curve.

Units throughout: times in ns, (angular) Rabi frequency and detuning in
rad/ns, energies in µeV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

# Reduced Planck constant in µeV·ns.
HBAR_UEV_NS = 0.6582119

# Emission rates are computed per ns; detected intensities are reported in
# counts/s.
NS_PER_S = 1.0e9


class IntegrationError(RuntimeError):
    """Adaptive ODE integration failed (e.g. step-size underflow)."""


@dataclass(frozen=True)
class EmitterParams:
    """One two-level transition.

    t1 : radiative lifetime (ns)
    t2 : coherence time (ns), bounded by 0 < t2 <= 2*t1
    detuning : laser-transition detuning (rad/ns)
    cavity_q : device metadata, not used by the dynamics
    """

    t1: float
    t2: float
    detuning: float = 0.0
    cavity_q: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.t1) and self.t1 > 0):
            raise ValueError(f"t1 must be positive and finite, got {self.t1}")
        if not (math.isfinite(self.t2) and 0 < self.t2 <= 2 * self.t1 * (1 + 1e-12)):
            raise ValueError(
                f"t2 must satisfy 0 < t2 <= 2*t1, got t2={self.t2}, t1={self.t1}"
            )
        if not math.isfinite(self.detuning):
            raise ValueError("detuning must be finite")

    def linewidth_uev(self) -> float:
        """Homogeneous FWHM linewidth 2*hbar/t2 in µeV."""
        return 2.0 * HBAR_UEV_NS / self.t2

    @property
    def gamma(self) -> float:
        """Radiative decay rate 1/t1 (1/ns)."""
        return 1.0 / self.t1

    @property
    def gamma_phi(self) -> float:
        """Pure-dephasing rate 1/t2 - 1/(2*t1) (1/ns), zero at t2 = 2*t1."""
        return max(0.0, 1.0 / self.t2 - 0.5 / self.t1)

    def with_coherence_ratio(self, ratio: float) -> "EmitterParams":
        """Same lifetime, coherence time set to ratio * 2 * t1."""
        if not 0 < ratio <= 1:
            raise ValueError(f"coherence ratio must lie in (0, 1], got {ratio}")
        return EmitterParams(
            t1=self.t1,
            t2=ratio * 2.0 * self.t1,
            detuning=self.detuning,
            cavity_q=self.cavity_q,
        )


def default_cavity_params(linewidth_uev: float = 6.14, cavity_q: float = 8900.0) -> EmitterParams:
    """Lifetime-limited emitter whose linewidth matches the given FWHM (µeV)."""
    t2 = 2.0 * HBAR_UEV_NS / linewidth_uev
    return EmitterParams(t1=t2 / 2.0, t2=t2, cavity_q=cavity_q)


def default_bulk_params() -> EmitterParams:
    """Typical non-cavity emitter: t1 = 1 ns, t2 = 0.6 ns."""
    return EmitterParams(t1=1.0, t2=0.6)


def derive_cavity_params(
    t1_bulk: float,
    purcell_factor: float,
    coherence_ratio: float,
    cavity_q: float | None = None,
) -> EmitterParams:
    """Lifetime-reduced parameters: t1 = t1_bulk/purcell, t2 = ratio * 2 * t1."""
    if t1_bulk <= 0:
        raise ValueError("t1_bulk must be positive")
    if purcell_factor < 1:
        raise ValueError("purcell_factor must be >= 1")
    if not 0 < coherence_ratio <= 1:
        raise ValueError(f"coherence_ratio must lie in (0, 1], got {coherence_ratio}")
    t1 = t1_bulk / purcell_factor
    return EmitterParams(
        t1=t1,
        t2=coherence_ratio * 2.0 * t1,
        cavity_q=cavity_q,
    )


@dataclass(frozen=True)
class DriveField:
    """Classical drive with peak Rabi frequency ``rabi`` (rad/ns).

    shape is "cw", "square" (needs duration) or "gaussian" (needs fwhm).
    For pulses t0 marks the leading edge (square) or the center (gaussian).
    """

    rabi: float
    shape: str = "cw"
    duration: float | None = None
    fwhm: float | None = None
    t0: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.rabi) or self.rabi < 0:
            raise ValueError(f"rabi must be finite and >= 0, got {self.rabi}")
        if self.shape == "cw":
            pass
        elif self.shape == "square":
            if self.duration is None or self.duration <= 0:
                raise ValueError("square drive requires duration > 0")
        elif self.shape == "gaussian":
            if self.fwhm is None or self.fwhm <= 0:
                raise ValueError("gaussian drive requires fwhm > 0")
        else:
            raise ValueError(f"unknown drive shape {self.shape!r}")

    @property
    def pulse_area(self) -> float | None:
        """Integral of the Rabi envelope over all time; None for CW."""
        if self.shape == "cw":
            return None
        if self.shape == "square":
            return self.rabi * self.duration
        return self.rabi * self.fwhm * math.sqrt(math.pi / (4.0 * math.log(2.0)))

    def omega(self, t):
        """Instantaneous Rabi frequency at time(s) t."""
        t = np.asarray(t, dtype=float)
        if self.shape == "cw":
            return np.full_like(t, self.rabi)
        if self.shape == "square":
            inside = (t >= self.t0) & (t < self.t0 + self.duration)
            return np.where(inside, self.rabi, 0.0)
        sigma = self.fwhm / (2.0 * math.sqrt(2.0 * math.log(2.0)))
        return self.rabi * np.exp(-0.5 * ((t - self.t0) / sigma) ** 2)

    @classmethod
    def from_area(cls, area: float, shape: str, width: float, t0: float = 0.0) -> "DriveField":
        """Pulse of the given area; width is duration (square) or fwhm (gaussian)."""
        if shape == "square":
            return cls(rabi=area / width, shape="square", duration=width, t0=t0)
        if shape == "gaussian":
            peak = area / (width * math.sqrt(math.pi / (4.0 * math.log(2.0))))
            return cls(rabi=peak, shape="gaussian", fwhm=width, t0=t0)
        raise ValueError(f"from_area needs a pulsed shape, got {shape!r}")


_BLOCH_BALL_TOL = 1e-9


@dataclass(frozen=True)
class BlochState:
    """Coherence/population vector (u, v, w): u + iv = 2<sigma->, w = rho_ee - rho_gg."""

    u: float
    v: float
    w: float

    def __post_init__(self):
        norm2 = self.u ** 2 + self.v ** 2 + self.w ** 2
        if norm2 > 1.0 + _BLOCH_BALL_TOL:
            raise ValueError(f"state outside the Bloch ball: |r|^2 = {norm2}")

    def rho_ee(self) -> float:
        return (1.0 + self.w) / 2.0

    def as_array(self) -> np.ndarray:
        return np.array([self.u, self.v, self.w])

    @classmethod
    def ground(cls) -> "BlochState":
        return cls(0.0, 0.0, -1.0)

    @classmethod
    def excited(cls) -> "BlochState":
        return cls(0.0, 0.0, 1.0)


def bloch_system(params: EmitterParams, rabi: float):
    """Matrix A and offset b of the Bloch equations d(u,v,w)/dt = A x + b.

    du/dt = -u/T2 + D*v
    dv/dt = -D*u - v/T2 - W*w
    dw/dt =  W*v - (w + 1)/T1
    """
    d = params.detuning
    a_mat = np.array(
        [
            [-1.0 / params.t2, d, 0.0],
            [-d, -1.0 / params.t2, -rabi],
            [0.0, rabi, -1.0 / params.t1],
        ]
    )
    b_vec = np.array([0.0, 0.0, -1.0 / params.t1])
    return a_mat, b_vec


def _check_rabi(rabi: float):
    if not math.isfinite(rabi):
        raise ValueError(f"rabi must be finite, got {rabi}")
    if rabi < 0:
        raise ValueError(f"rabi must be >= 0, got {rabi}")


def steady_state(params: EmitterParams, rabi: float) -> BlochState:
    """Closed-form fixed point of the Bloch equations under CW drive."""
    _check_rabi(rabi)
    d2t2 = 1.0 + (params.detuning * params.t2) ** 2
    s_eff = rabi ** 2 * params.t1 * params.t2 / d2t2
    w = -1.0 / (1.0 + s_eff)
    v = -rabi * params.t2 * w / d2t2
    u = params.detuning * params.t2 * v
    return BlochState(u=u, v=v, w=w)


def rrs_fraction(params: EmitterParams, rabi: float) -> float:
    """Fraction of the emitted light that is coherently (elastically) scattered.

    Equals T2 / (2*T1*(1 + W^2*T1*T2)) on resonance and, identically, the
    steady-state ratio |<sigma>|^2 / rho_ee.
    """
    _check_rabi(rabi)
    d2t2 = 1.0 + (params.detuning * params.t2) ** 2
    s_eff = rabi ** 2 * params.t1 * params.t2 / d2t2
    return params.t2 / (2.0 * params.t1 * (1.0 + s_eff))


def evolve(
    params: EmitterParams,
    drive: DriveField,
    initial: BlochState,
    t_grid,
    tol: float = 1e-10,
) -> list[BlochState]:
    """Integrate the Bloch equations along t_grid with the given drive.

    Uses an adaptive 8th-order Runge-Kutta scheme; ``tol`` sets the local
    error tolerance. The grid must be strictly increasing and the first
    entry is the initial time.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) < 2:
        raise ValueError("t_grid must contain at least two times")
    if np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be strictly increasing")
    xs = _evolve_array(params, drive, initial.as_array(), t_grid, tol)
    return [BlochState(*_clip_to_ball(x)) for x in xs.T]


def _clip_to_ball(x, tol: float = 1e-6):
    # Projects integrator overshoot (at most ~tol outside the unit ball)
    # back onto the surface; anything larger is a genuine failure.
    norm2 = float(x @ x)
    if norm2 <= 1.0:
        return x
    if norm2 > 1.0 + tol:
        raise IntegrationError(f"integration left the Bloch ball: |r|^2 = {norm2}")
    return x / math.sqrt(norm2)


def _breakpoints(drive: DriveField, t_start: float, t_end: float):
    if drive.shape == "square":
        edges = [drive.t0, drive.t0 + drive.duration]
        return sorted(t for t in edges if t_start < t < t_end)
    return []


def _bloch_rhs(params: EmitterParams, drive: DriveField, scale=1.0):
    """Right-hand side f(t, x) of the Bloch equations of ``bloch_system``
    under the drive envelope. x is (k,) or (k, n): n independent emitters,
    column i driven by the envelope times scale[i] (a scalar scale drives
    all alike). A fourth component, when present, counts emitted photons:
    dn/dt = rho_ee / t1."""

    def rhs(t, x):
        w_drive = float(drive.omega(t)) * scale
        dx = [
            -x[0] / params.t2 + params.detuning * x[1],
            -params.detuning * x[0] - x[1] / params.t2 - w_drive * x[2],
            w_drive * x[1] - (x[2] + 1.0) / params.t1,
        ]
        if len(x) == 4:
            dx.append((1.0 + x[2]) / (2.0 * params.t1))
        return np.array(dx)

    return rhs


def _evolve_array(params, drive, x0, t_grid, tol, scale=1.0) -> np.ndarray:
    """States on t_grid from x0 at t_grid[0], shape x0.shape + (len(t_grid),).

    x0 holds (u, v, w) or (u, v, w, n), one column per emitter when 2-D;
    ``scale`` multiplies the drive per column (see ``_bloch_rhs``). All
    columns share one adaptive integration, its error norm taken over
    every component.
    """
    x0 = np.array(x0, dtype=float)
    shape = x0.shape
    rhs = _bloch_rhs(params, drive, scale)

    def fun(t, y):  # solve_ivp integrates a flat state
        return rhs(t, y.reshape(shape)).ravel()

    # Split at envelope discontinuities so the adaptive stepper never
    # straddles a square edge.
    pieces = [t_grid[0]] + _breakpoints(drive, t_grid[0], t_grid[-1]) + [t_grid[-1]]
    x_cur = x0.ravel()
    out = np.empty((x_cur.size, len(t_grid)))
    out[:, 0] = x_cur
    for a, b in zip(pieces[:-1], pieces[1:]):
        inside = (t_grid > a) & (t_grid <= b)
        # The piece end is always evaluated: the next piece starts from it.
        t_eval = np.union1d(t_grid[inside], b)
        sol = solve_ivp(
            fun,
            (a, b),
            x_cur,
            method="DOP853",
            t_eval=t_eval,
            rtol=tol,
            atol=tol * 1e-2,
            dense_output=False,
        )
        if not sol.success:
            t_fail = sol.t[-1] if len(sol.t) else a
            raise IntegrationError(f"integration failed near t = {t_fail}: {sol.message}")
        out[:, inside] = sol.y[:, : np.count_nonzero(inside)]
        x_cur = sol.y[:, -1]
    return out.reshape(shape + (len(t_grid),))


@dataclass(frozen=True)
class GatingModel:
    """Charge-occupation gate plus scalar laser leakage.

    charge_occupation : probability the emitter is in its active charge state
    laser_leakage     : detected laser counts/s per nW of incident power
    collection_efficiency : detected counts per emitted photon
    """

    charge_occupation: float
    laser_leakage: float
    collection_efficiency: float

    def __post_init__(self):
        if not 0.0 <= self.charge_occupation <= 1.0:
            raise ValueError("charge_occupation must lie in [0, 1]")
        if self.laser_leakage < 0 or self.collection_efficiency < 0:
            raise ValueError("leakage and collection efficiency must be >= 0")


def saturation_curve(
    params: EmitterParams,
    gating: GatingModel,
    powers,
    rabi_per_sqrt_power: float,
    gate_on: bool = True,
) -> list[tuple[float, float]]:
    """Detected counts/s versus incident resonant power (nW).

    counts = gate * occupation * efficiency * rho_ee(W(P)) / T1 + leakage * P
    with W(P) = rabi_per_sqrt_power * sqrt(P).
    """
    powers = np.asarray(powers, dtype=float)
    if np.any(powers < 0):
        raise ValueError("powers must be >= 0")
    out = []
    for p in powers:
        rabi = rabi_per_sqrt_power * math.sqrt(p)
        rho = steady_state(params, rabi).rho_ee()
        emitted = rho / params.t1 * NS_PER_S
        counts = float(gate_on) * gating.charge_occupation * gating.collection_efficiency * emitted
        out.append((float(p), counts + gating.laser_leakage * p))
    return out


def leakage_for_contrast(
    params: EmitterParams,
    occupation: float,
    collection_efficiency: float,
    rabi_per_sqrt_power: float,
    contrast: float = 500.0,
) -> float:
    """Laser leakage such that emission exceeds leaked laser by ``contrast``
    at the saturation knee (W^2*T1*T2 = 1)."""
    p_knee = 1.0 / (rabi_per_sqrt_power ** 2 * params.t1 * params.t2)
    rabi = rabi_per_sqrt_power * math.sqrt(p_knee)
    emitted = steady_state(params, rabi).rho_ee() / params.t1 * NS_PER_S
    detected = occupation * collection_efficiency * emitted
    return detected / (contrast * p_knee)
