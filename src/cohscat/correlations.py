"""First- and second-order correlation functions of the CW-driven emitter.

g2, g1 and the incoherent spectrum (in `spectrum`) all follow from the
quantum regression theorem on one generator (Mollow, Phys. Rev. 188, 1969
(1969)): G = ``_generator(params, rabi)[:4, :4]`` on the Bloch coordinates
(u, v, w, tr) that `rabi_curve` and the jump engine use, tr the trace of
the evolved operator, with the closed-form ``steady_state`` as its
stationary vector. g2 evolves the ground state (the post-emission state)
and reads rho_ee = (w + tr)/2; g1 evolves s- rho_ss and reads its
rho_ge = (u - iv)/2. `_regression_setup` caches G, its stationary vector
and its modes per drive; g1 and g2 sum the modes, or take exact matrix
exponentials when G is (nearly) defective. The spectrum solves the
resolvent of G. Evenness in tau comes from the regression on |tau|; the
HOM layer folds its two detector orderings itself.

Every function here takes the caller's tau grid and returns the values on
it as an array: g2 real, g1 complex; `apply_blinking` and
`convolve_timing` take such an array of g2 values with its grid.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .emitter import _FWHM_PER_SIGMA, _GROUND, EmitterParams, _expm, _generator, steady_state


class GridError(ValueError):
    """A tau or energy grid unsuitable for the computation: not increasing
    and evenly spaced, too narrow, or too coarse to resolve a line."""


def _uniform_step(grid: np.ndarray, name: str) -> float:
    """Step of an increasing, evenly spaced grid: every step within 1e-9
    relative and 1e-12 absolute of the first, which is finite and > 0.
    Otherwise raises GridError naming the grid."""
    with np.errstate(invalid="ignore", over="ignore"):
        d = np.diff(grid)
        d0 = float(d[0]) if len(d) else math.nan
        if not (math.isfinite(d0) and d0 > 0 and (np.abs(d - d0) <= 1e-12 + 1e-9 * d0).all()):
            raise GridError(f"{name} must be increasing and evenly spaced")
    return d0


@dataclass(frozen=True)
class BlinkingParams:
    """Classical intermittency envelope (1 + amplitude * exp(-|tau|/timescale_ns))."""

    amplitude: float = 0.1
    timescale_ns: float = 50.0

    def __post_init__(self):
        if self.amplitude < 0:
            raise ValueError("blinking amplitude must be >= 0")
        if self.timescale_ns <= 0:
            raise ValueError("blinking timescale must be > 0")


@dataclass(frozen=True)
class TimingResponse:
    """Gaussian detector timing response; fwhm_ns = 0 is an ideal detector."""

    fwhm_ns: float = 0.1

    def __post_init__(self):
        if self.fwhm_ns < 0:
            raise ValueError("timing fwhm must be >= 0")


# Above this eigenvector condition number the eigen path loses more than
# about 1e-12 (the error grows like cond * 1e-16); the generator is then
# (nearly) defective, as at the critical drive, and exact exponentials
# take over.
_COND_MAX = 1e4

# Read-outs of a vector (u, v, w, tr): rho_ee = (w + tr)/2, rho_ge = (u - iv)/2.
_READ_EE = np.array([0.0, 0.0, 0.5, 0.5])
_READ_GE = np.array([0.5, -0.5j, 0.0, 0.0])


@functools.lru_cache(maxsize=8)
def _regression_setup(params: EmitterParams, rabi: float):
    """(G, its stationary vector (u, v, w, 1), its modes), read-only and
    cached per (params, rabi), rabi a float. The modes are (eigenvalues,
    eigenvectors) from a real `eig`, or None at condition `_COND_MAX`."""
    x_ss = steady_state(params, rabi)
    if rabi == 0.0:
        raise ValueError("correlation functions require a nonzero CW drive")
    gen = _generator(params, rabi)[:4, :4]
    evals, vecs = np.linalg.eig(gen)
    for a in (gen, x_ss, evals, vecs):
        a.flags.writeable = False
    return gen, x_ss, (evals, vecs) if np.linalg.cond(vecs) < _COND_MAX else None


def _propagate_modes(gen: np.ndarray, modes, x0: np.ndarray, taus: np.ndarray, read: np.ndarray) -> np.ndarray:
    """read . exp(gen |tau|) x0 for every tau, summed over the modes row by
    row (a BLAS product threads on long grids): one real exponential per
    real eigenvalue, one complex exponential and its conjugate per pair,
    which a real `eig` returns adjacent with the positive imaginary part
    first. Without modes, matrix exponentials once per distinct |tau|."""
    t = np.abs(taus)
    if modes is None:
        uniq, inverse = np.unique(t, return_inverse=True)
        return (_expm(np.multiply.outer(uniq, gen)) @ x0 @ read)[inverse]
    evals, vecs = modes
    weights = (read @ vecs) * np.linalg.solve(vecs, x0)
    out = np.zeros(t.shape, dtype=complex)
    for j, lam in enumerate(evals):
        if lam.imag == 0.0:
            out += weights[j] * np.exp(lam.real * t)
        elif lam.imag > 0.0:
            e = np.exp(lam * t)
            out += weights[j] * e + weights[j + 1] * e.conj()
    return out


def g2(params: EmitterParams, rabi: float, tau_grid) -> np.ndarray:
    """Normalized intensity autocorrelation g2(tau) of the driven emitter at
    each tau of tau_grid, clipped at 0.

    Evolves the ground state (0, 0, -1, 1), the post-emission state, and
    normalizes the regrowth of rho_ee by its steady-state value. Even in
    tau by construction.
    """
    gen, x_ss, modes = _regression_setup(params, float(rabi))
    tau_grid = np.asarray(tau_grid, dtype=float)
    rho_ee = _READ_EE @ x_ss
    vals = _propagate_modes(gen, modes, _GROUND, tau_grid, _READ_EE).real / rho_ee
    return np.clip(vals, 0.0, None)


def _g1_start(x_ss: np.ndarray) -> np.ndarray:
    """s- rho_ss for the stationary vector x_ss: (rho_ee, i rho_ee, -<s->, <s->)."""
    rho_ee = _READ_EE @ x_ss
    s_minus = (x_ss[0] + 1j * x_ss[1]) / 2.0
    return np.array([rho_ee, 1j * rho_ee, -s_minus, s_minus])


def g1(params: EmitterParams, rabi: float, tau_grid) -> np.ndarray:
    """First-order coherence g1(tau) = <s+(t+tau) s-(t)> / rho_ee at each
    tau of tau_grid, complex, with |g1| trimmed to 1.

    By the regression theorem the operator s- rho_ss evolves under the
    Bloch generator like a state, and <s+> of it is its rho_ge. g1 tends to
    its constant coherent part |<s->|^2 / rho_ee, which is
    `emitter.rrs_fraction`. Negative taus are filled by conjugate symmetry.
    """
    gen, x_ss, modes = _regression_setup(params, float(rabi))
    tau_grid = np.asarray(tau_grid, dtype=float)
    x0 = _g1_start(x_ss)
    rho_ee = float(x0[0].real)
    vals = _propagate_modes(gen, modes, x0, tau_grid, _READ_GE) / rho_ee
    vals = np.where(tau_grid < 0, np.conj(vals), vals)
    mag = np.abs(vals)
    return np.where(mag > 1.0, vals / np.maximum(mag, 1.0), vals)  # trim roundoff


def apply_blinking(tau_grid, values, blinking: BlinkingParams) -> np.ndarray:
    """g2 values on tau_grid times the bunching envelope (1 + a*exp(-|tau|/tau_b))."""
    return values * (1.0 + blinking.amplitude * np.exp(-np.abs(tau_grid) / blinking.timescale_ns))


def convolve_timing(tau_grid, values, irf: TimingResponse) -> np.ndarray:
    """g2 values on tau_grid convolved with the Gaussian detector response.

    An ideal detector (fwhm 0) returns the values; otherwise the tau grid
    must be increasing and uniform (GridError), and sigma <= dt / 40
    returns the values too (the kernel's side weights underflow to 0 from
    dt / sigma ~ 38.7 on). The kernel is unit-normalized on the grid, so
    the integral is preserved provided the trace has settled to a constant
    within a kernel width of the grid edges (edge bins are replicated
    outward). A kernel whose half-width 6 sigma exceeds the grid span
    cannot meet that, and is refused (GridError) before it is built.
    """
    if np.shape(values) != np.shape(tau_grid):
        raise ValueError("tau_grid and values must have matching shapes")
    if irf.fwhm_ns == 0.0:
        return values
    dt = _uniform_step(tau_grid, "tau grid")
    sigma = irf.fwhm_ns / _FWHM_PER_SIGMA
    if sigma <= dt / 40.0:  # a subnormal width even underflows to sigma = 0
        return values
    span = float(tau_grid[-1] - tau_grid[0])
    if 6.0 * sigma > span:
        raise GridError(
            f"timing fwhm {irf.fwhm_ns:g} ns: the kernel half-width 6 sigma = {6.0 * sigma:.4g} ns "
            f"exceeds the tau grid span of {span:.4g} ns"
        )
    half = max(1, int(math.ceil(6.0 * sigma / dt)))
    x = np.arange(-half, half + 1) * dt
    kernel = np.exp(-0.5 * (x / sigma) ** 2)
    kernel /= kernel.sum()
    padded = np.concatenate([np.full(half, values[0]), values, np.full(half, values[-1])])
    return np.convolve(padded, kernel, mode="valid")
