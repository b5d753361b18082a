"""Two-level emitter model: parameters, optical Bloch dynamics, steady state,
the coherently scattered fraction, the gated saturation curve, one
excitation pulse on its own window (``Pulse``, which the propagator
``_propagate`` takes) and the two-pulse excitation train.

Units throughout: times in ns, (angular) Rabi frequency and detuning in
rad/ns, energies in µeV.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

# Reduced Planck constant in µeV·ns.
HBAR_UEV_NS = 0.6582119

# Emission rates are computed per ns; detected intensities are reported in
# counts/s.
NS_PER_S = 1.0e9

_FWHM_PER_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))  # of a gaussian
_WINDOW_SIGMAS = 5.0  # gaussian pulse window half-width, in sigma
# A gaussian is stepped within this many sigma of its center (5 sigma past
# its window); beyond, it is below e^-50 of its peak and counts as off.
_GAUSS_REACH_SIGMAS = 10.0
_STEPS_PER_PULSE = 4096  # steps of a pulse window in the jump engine (``pulsed``)
_GROUND = np.array([0.0, 0.0, -1.0, 1.0])  # the ground state on (u, v, w, tr)


class IntegrationError(RuntimeError):
    """Propagation of the Bloch equations failed: the step doubling did not
    converge."""


@dataclass(frozen=True)
class EmitterParams:
    """One two-level transition.

    t1 : radiative lifetime (ns)
    t2 : coherence time (ns), bounded by 0 < t2 <= 2*t1
    detuning : laser-transition detuning (rad/ns)

    A cavity enters only through these numbers: the Purcell-shortened t1
    and the coherence ratio t2/(2*t1).
    """

    t1: float
    t2: float
    detuning: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.t1) and self.t1 > 0):
            raise ValueError(f"t1 must be positive and finite, got {self.t1}")
        if not (math.isfinite(self.t2) and 0 < self.t2 <= 2 * self.t1 * (1 + 1e-12)):
            raise ValueError(
                f"t2 must satisfy 0 < t2 <= 2*t1, got t2={self.t2}, t1={self.t1}"
            )
        if not math.isfinite(self.detuning):
            raise ValueError("detuning must be finite")
        # GatingModel.knee_power divides by t1*t2; saturation_parameter squares detuning*t2
        scale = self.t1 * self.t2
        if not (scale > 0 and math.isfinite(1.0 / scale)):
            raise ValueError(f"saturation scale 1/(t1*t2) must be finite, got t1={self.t1}, t2={self.t2}")
        if not math.isfinite((self.detuning * self.t2) * (self.detuning * self.t2)):
            raise ValueError(f"detuning factor (detuning*t2)^2 must be finite, got detuning={self.detuning}")

    def linewidth_uev(self) -> float:
        """Homogeneous FWHM linewidth 2*hbar/t2 in µeV."""
        return 2.0 * HBAR_UEV_NS / self.t2

    def with_coherence_ratio(self, ratio: float) -> "EmitterParams":
        """Same lifetime, coherence time set to ratio * 2 * t1."""
        if not 0 < ratio <= 1:
            raise ValueError(f"coherence ratio must lie in (0, 1], got {ratio}")
        return EmitterParams(t1=self.t1, t2=ratio * 2.0 * self.t1, detuning=self.detuning)


def default_bulk_params() -> EmitterParams:
    """Typical non-cavity emitter: t1 = 1 ns, t2 = 0.6 ns."""
    return EmitterParams(t1=1.0, t2=0.6)


@dataclass(frozen=True)
class Pulse:
    """One excitation pulse of rotation ``area`` and width ``fwhm`` (ns; the
    duration of a square pulse) on its own window [0, 2 * half_window]: the
    square fills it, a gaussian is centered in it. Window times t run from 0."""

    area: float
    fwhm: float
    shape: str = "gaussian"

    def __post_init__(self):
        for name, value in (("pulse_area", self.area), ("pulse_fwhm", self.fwhm)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.area < 0:
            raise ValueError("pulse_area must be >= 0")
        if self.fwhm <= 0:
            raise ValueError("pulse_fwhm must be > 0")
        if self.shape not in ("square", "gaussian"):
            raise ValueError(f"unknown pulse shape {self.shape!r}")
        step = 2.0 * self.half_window / _STEPS_PER_PULSE
        if not step >= sys.float_info.min:
            raise ValueError(
                f"pulse_fwhm {self.fwhm!r} leaves a window step of {step!r} ns "
                f"({_STEPS_PER_PULSE} steps), which must be a positive normal float"
            )
        if not math.isfinite(self.peak):
            raise ValueError(f"peak Rabi rate pulse_area / pulse_fwhm must be finite, got {self.peak}")

    @property
    def half_window(self) -> float:
        """Half the window: half the square, or _WINDOW_SIGMAS sigma of a gaussian."""
        if self.shape == "square":
            return self.fwhm / 2.0
        return _WINDOW_SIGMAS * (self.fwhm / _FWHM_PER_SIGMA)

    @property
    def reach(self) -> tuple[float, float]:
        """Where the drive is on: the square, or _GAUSS_REACH_SIGMAS sigma
        about a gaussian's center (beyond, below e^-50 of its peak)."""
        if self.shape == "square":
            return 0.0, self.fwhm
        reach = _GAUSS_REACH_SIGMAS * self.fwhm / _FWHM_PER_SIGMA
        return self.half_window - reach, self.half_window + reach

    @property
    def peak(self) -> float:
        """Peak Rabi frequency (rad/ns)."""
        if self.shape == "square":
            return self.area / self.fwhm
        return self.area / (self.fwhm * math.sqrt(math.pi / (4.0 * math.log(2.0))))

    def omega(self, t):
        """Instantaneous Rabi frequency (rad/ns) at window time(s) t."""
        t = np.asarray(t, dtype=float)
        if self.shape == "square":
            return np.where((t >= 0.0) & (t < self.fwhm), self.peak, 0.0)
        return self.peak * np.exp(-0.5 * ((t - self.half_window) / (self.fwhm / _FWHM_PER_SIGMA)) ** 2)


@dataclass(frozen=True)
class PulseTrain:
    """Two excitation pulses per cycle; the scenario's `pulse_train` block.

    Pulse areas are in units of pi, times in ns; a square pulse lasts
    pulse_fwhm_ns. Each pulse runs in its ``pulse``'s window, shorter than
    both separation_ns and pair_period_ns - separation_ns: no two windows
    overlap, within or across cycles. ``resolve`` returns the train, or a
    copy of n_pairs pairs for `bench`'s `_multi_frac`, its only such caller.
    """

    pulse_area_pi: float = 0.71
    pulse_fwhm_ns: float = 0.057
    separation_ns: float = 2.36
    pair_period_ns: float = 13.1
    n_pairs: int = 100000
    shape: str = "gaussian"

    def __post_init__(self):
        for name in ("separation_ns", "pair_period_ns"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.separation_ns < self.pair_period_ns:
            raise ValueError("separation_ns must be smaller than pair_period_ns")
        if self.n_pairs < 1:
            raise ValueError("n_pairs must be >= 1")
        if 2.0 * self.pulse.half_window >= min(self.separation_ns, self.pair_period_ns - self.separation_ns):
            raise ValueError("pulse windows overlap; reduce pulse_fwhm_ns")

    @property
    def pulse(self) -> Pulse:
        return Pulse(self.pulse_area_pi * math.pi, self.pulse_fwhm_ns, self.shape)

    def resolve(self, n_pairs: int | None = None) -> "PulseTrain":
        return self if n_pairs is None else replace(self, n_pairs=n_pairs)


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


def _check_rabi(rabi):  # a Rabi frequency or an array of them
    if not np.all(np.isfinite(rabi)):
        raise ValueError(f"rabi must be finite, got {rabi}")
    if np.any(rabi < 0):
        raise ValueError(f"rabi must be >= 0, got {rabi}")


def saturation_parameter(params: EmitterParams, rabi):
    """s = W^2 T1 T2 / (1 + D^2 T2^2) for Rabi frequency (or array) W and
    detuning D."""
    return rabi ** 2 * params.t1 * params.t2 / (1.0 + (params.detuning * params.t2) ** 2)


def steady_rho_ee(params: EmitterParams, rabi):
    """Steady-state rho_ee = s / (2 (1 + s)), to full precision also at s << 1, where (1 + w) / 2 cancels.

    s is capped at 2^53, from where 1 + s rounds to s and the quotient is
    0.5 exactly, so an s that overflows to inf gives the saturated 0.5. A
    Python float stays one."""
    s = saturation_parameter(params, rabi)
    s = np.minimum(s, 2.0 ** 53) if np.ndim(s) else min(s, 2.0 ** 53)
    return 0.5 * s / (1.0 + s)


def steady_state(params: EmitterParams, rabi: float) -> np.ndarray:
    """Closed-form fixed point of the Bloch equations under CW drive, as the
    stationary vector (u, v, w, 1) on (u, v, w, tr); u + iv = 2<sigma->,
    w = rho_ee - rho_gg."""
    _check_rabi(rabi)
    d2t2 = 1.0 + (params.detuning * params.t2) ** 2
    s_eff = saturation_parameter(params, rabi)
    w = -1.0 / (1.0 + s_eff)
    v = -rabi * params.t2 * w / d2t2
    u = params.detuning * params.t2 * v
    return np.array([u, v, w, 1.0])


def rrs_fraction(params: EmitterParams, rabi):
    """Fraction of the emitted light that is coherently (elastically)
    scattered, at a Rabi frequency or an array of them.

    Equals T2 / (2*T1*(1 + W^2*T1*T2)) on resonance and, identically, the
    steady-state ratio |<sigma>|^2 / rho_ee.
    """
    _check_rabi(rabi)
    return params.t2 / (2.0 * params.t1 * (1.0 + saturation_parameter(params, rabi)))


def _generator(params: EmitterParams, rabi: float) -> np.ndarray:
    """``bloch_system`` as a linear generator on (u, v, w, tr, n):
    [[A, b], [0, 0]] on (u, v, w, tr), tr the conserved trace of the density
    operator, and a photon counter dn/dt = (tr + w) / (2 t1) = rho_ee / t1."""
    a_mat, b_vec = bloch_system(params, rabi)
    gen = np.zeros((5, 5))
    gen[:3, :3] = a_mat
    gen[:3, 3] = b_vec
    gen[4, 2] = gen[4, 3] = 0.5 / params.t1
    return gen


# Pade coefficients b_k of degree m (b_0 = 1, so exp(0) = I exactly) and
# the 1-norm theta_m up to which degree m gives double precision (Higham,
# SIAM J. Matrix Anal. Appl. 26, 1179 (2005), Table 2.3).
_PADE = {
    m: [
        math.factorial(2 * m - k) * math.factorial(m)
        / (math.factorial(2 * m) * math.factorial(k) * math.factorial(m - k))
        for k in range(m + 1)
    ]
    for m in (3, 5, 7, 9, 13)
}
_THETA = {
    3: 1.495585217958292e-2,
    5: 2.539398330063230e-1,
    7: 9.504178996162932e-1,
    9: 2.097847961257068,
    13: 5.371920351148152,
}


def _expm(m) -> np.ndarray:
    """Matrix exponentials of a real or complex (..., k, k) stack by the
    Pade approximant p(a) / p(-a). The stack's largest 1-norm picks the
    degree: the lowest of 3, 5, 7, 9 whose theta it does not exceed. Above
    theta_9 the degree is 13, with scaling and squaring: each matrix is
    halved s times until its 1-norm is at most theta_13, exponentiated and
    squared s times."""
    m = np.asarray(m)
    k = m.shape[-1]
    a = m.reshape(-1, k, k)
    norms = np.abs(a).sum(axis=1).max(axis=1)
    top = norms.max(initial=0.0)
    degree = next((d for d in (3, 5, 7, 9) if top <= _THETA[d]), 13)
    s = np.zeros(len(a), dtype=int)
    big = norms > _THETA[13]
    s[big] = np.ceil(np.log2(norms[big] / _THETA[13]))
    if big.any():
        a = a / np.ldexp(1.0, s)[:, None, None]
    even, odd, power = np.eye(k), 0.0, a  # b_0 = 1
    for j, b in enumerate(_PADE[degree][1:], start=1):
        if j > 1:
            power = power @ a
        if j % 2:
            odd = odd + b * power
        else:
            even = even + b * power
    r = np.linalg.solve(even - odd, even + odd)
    for i in range(s.max(initial=0)):
        r[s > i] = r[s > i] @ r[s > i]
    return r.reshape(m.shape)


_MIN_STEPS = 16  # split steps across a gaussian before the first doubling
_MAX_DOUBLINGS = 13
_SPLIT_TOL = 1e-10  # error estimate at which the doubling stops
_ANGLE_BLOCK = 64  # steps whose rotation angles are computed together


def _propagate(params, pulse, x0, t_grid, scale=1.0) -> np.ndarray:
    """States on t_grid from x0 at t_grid[0], shape x0.shape + (len(t_grid),).

    t_grid is in the window time of ``pulse`` (a ``Pulse``). x0 holds
    (u, v, w, tr, n) (see ``_generator``), one column per emitter when 2-D;
    ``scale`` multiplies the drive per column. The grid, split at the ends of
    the pulse's ``reach``, falls into intervals. Where the drive is constant
    an interval is one exact exponential of the generator. Across a gaussian,
    each of N steps of length h applies exp(G0 h/2) R exp(G0 h/2), G0 the
    drive-free generator and R the exact rotation of (v, w) by Omega(t + h/2) h.
    The step is symmetric, so its error expands in h^2, h^4, h^6, ...: the
    Richardson value R1_2N = (4 x_2N - x_N) / 3 is fourth order and the
    Romberg value R2_2N = (16 R1_2N - R1_N) / 15 sixth order. N doubles until
    R2's change over the last doubling, divided by 63 (its error estimate), is
    below ``_SPLIT_TOL``; the first such estimate needs three doublings.
    """
    x0 = np.asarray(x0, dtype=float)
    cols = x0.reshape(len(x0), -1)  # (dim, columns)
    scale = np.broadcast_to(np.asarray(scale, dtype=float), cols.shape[1:])
    g0 = _generator(params, 0.0)
    d_gen = _generator(params, 1.0) - g0  # per unit Rabi rate
    edges = pulse.reach
    # sorted union of grid and edges; np.union1d would import numpy.ma
    knots = np.sort(np.concatenate([t_grid, [t for t in edges if t_grid[0] < t < t_grid[-1]]]))
    knots = knots[np.concatenate([[True], knots[1:] != knots[:-1]])]
    lo, hi = knots[:-1], knots[1:]
    if pulse.shape == "gaussian":
        stepped = (lo >= edges[0]) & (hi <= edges[1])
        rate = np.zeros(len(lo))
    else:
        stepped = np.zeros(len(lo), dtype=bool)
        rate = pulse.omega(0.5 * (lo + hi))
    on_grid = np.isin(knots, t_grid)
    # one generator per interval and column, and its exponential over the
    # interval, which every doubling reuses (the identity where stepped)
    gens = g0 + np.multiply.outer(np.multiply.outer(rate, scale), d_gen)
    exact = _expm(gens * np.where(stepped, 0.0, hi - lo)[:, None, None, None])
    widths = np.where(stepped, hi - lo, 0.0)
    base = np.ceil(_MIN_STEPS * widths / (widths.sum() or 1.0)).astype(int)

    def march(doublings: int) -> np.ndarray:
        steps = base << doublings
        h = widths / np.maximum(steps, 1)
        halves = _expm(np.multiply.outer(h / 2.0, g0))  # exp(G0 h/2) per interval
        x = cols
        out = [x]
        for j, n in enumerate(steps):
            if n:
                x = _split_steps(x, pulse, scale, lo[j], h[j], n, halves[j])
            else:
                x = np.einsum("cij,jc->ic", exact[j], x)
            if on_grid[j + 1]:
                out.append(x)
        return np.stack(out, axis=-1).reshape(x0.shape + (len(out),))

    coarse = march(0)
    if not stepped.any():
        return coarse
    fourth = sixth = None
    for doublings in range(1, _MAX_DOUBLINGS + 1):
        fine = march(doublings)
        fourth_before, fourth = fourth, (4.0 * fine - coarse) / 3.0
        if fourth_before is not None:
            sixth_before, sixth = sixth, (16.0 * fourth - fourth_before) / 15.0
            if sixth_before is not None and np.max(np.abs(sixth - sixth_before)) / 63.0 < _SPLIT_TOL:
                return sixth
        coarse = fine
    raise IntegrationError(f"split steps did not reach tol {_SPLIT_TOL} at {_MIN_STEPS << _MAX_DOUBLINGS} steps")


def _split_steps(x, pulse, scale, t_start, h, steps, half) -> np.ndarray:
    """``steps`` split steps of length h from t_start on the (dim, columns)
    state x; half = exp(G0 h/2). The state is stepped as its (columns, dim)
    transpose, so each column's (v, w) is one complex number v + i w, which
    the drive rotates by exp(i Omega h)."""
    free = half.T  # the first step opens with half a free step
    full = free @ free
    bufs = np.empty((2, x.shape[1], x.shape[0]))
    outs = (bufs[0], bufs[1])
    vws = tuple(bufs[:, :, 1:3].view(complex)[..., 0])
    x = x.T
    k = 0
    for first in range(0, steps, _ANGLE_BLOCK):
        t_mid = t_start + (np.arange(first, min(first + _ANGLE_BLOCK, steps)) + 0.5) * h
        rotations = np.exp(np.multiply.outer(pulse.omega(t_mid) * h, 1j * scale))
        for rotation in rotations:
            x = np.dot(x, free, out=outs[k])
            np.multiply(vws[k], rotation, out=vws[k])
            free = full
            k ^= 1
    return (x @ half.T).T


@dataclass(frozen=True)
class GatingModel:
    """Charge-occupation gate plus scalar laser leakage; the scenario's `gating` block.

    charge_occupation : probability the emitter is in its active charge state
    collection_efficiency : detected counts per emitted photon
    laser_leakage : detected laser counts/s per nW of incident power (None: see ``leakage``)
    rabi_per_sqrt_power : drive W = rabi_per_sqrt_power * sqrt(P), in rad/ns per sqrt(nW)
    contrast : emission over leaked laser at the saturation knee
    """

    charge_occupation: float = 1.0
    collection_efficiency: float = 0.05
    laser_leakage: float | None = None
    rabi_per_sqrt_power: float = 2.0
    contrast: float = 500.0

    def knee_power(self, params: EmitterParams) -> float:
        """Incident power (nW) of the resonant saturation knee W^2*T1*T2 = 1."""
        k = self.rabi_per_sqrt_power
        if not k > 0:
            raise ValueError(f"rabi_per_sqrt_power must be > 0, got {k}")
        return 1.0 / (k ** 2 * params.t1 * params.t2)

    def leakage(self, params: EmitterParams) -> float:
        """``laser_leakage``, or when that is None the leakage at which the emission
        exceeds the leaked laser by ``contrast`` at the knee; checks the block against params.
        A given leakage must be > 0 (zero is an infinite contrast), and the emission and the
        leaked laser at the knee must be finite."""
        leak = self.laser_leakage
        p_knee = self.knee_power(params)  # the power scale of fig1d
        detected = self._detected(params, self.rabi_per_sqrt_power * math.sqrt(p_knee))
        if leak is None:
            if not self.contrast > 0:
                raise ValueError(f"contrast must be > 0, got {self.contrast}")
            if not detected > 0:
                raise ValueError(f"detected emission must be > 0 (occupation x efficiency), got {detected}")
            leak = detected / (self.contrast * p_knee)
            if not math.isfinite(leak):
                raise ValueError(f"solved laser leakage must be finite, got {leak}")
        if not 0.0 <= self.charge_occupation <= 1.0:
            raise ValueError("charge_occupation must lie in [0, 1]")
        if not leak > 0 or self.collection_efficiency < 0:
            raise ValueError(f"laser_leakage must be > 0 and collection efficiency >= 0, got {leak}")
        for name, value in (("detected emission", detected), ("leaked laser", leak * p_knee)):
            if not math.isfinite(value):
                raise ValueError(f"{name} at the knee must be finite, got {value}")
        return leak

    def _detected(self, params: EmitterParams, rabi):
        """Detected emission (counts/s) at Rabi frequency (or array) rabi: occupation *
        efficiency * rho_ee / T1, rho_ee from ``steady_rho_ee``."""
        _check_rabi(rabi)
        rho = steady_rho_ee(params, rabi)
        return self.charge_occupation * self.collection_efficiency * (rho / params.t1 * NS_PER_S)

    def counts(self, params: EmitterParams, powers, gate_on: bool = True):
        """Detected counts/s at incident resonant powers (nW):
        gate * occupation * efficiency * rho_ee(W(P)) / T1 + leakage * P."""
        powers = np.asarray(powers, dtype=float)
        if np.any(powers < 0):
            raise ValueError("powers must be >= 0")
        with np.errstate(over="ignore", invalid="ignore"):
            counts = float(gate_on) * self._detected(params, self.rabi_per_sqrt_power * np.sqrt(powers))
            counts = counts + self.leakage(params) * powers
        if not np.all(np.isfinite(counts)):
            raise ValueError("gating: detected counts overflow at these powers")
        return counts
