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
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .emitter import _FWHM_PER_SIGMA, _GROUND, EmitterParams, _expm, _generator, steady_state

_EVEN_TOL = 1e-9


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


@dataclass(frozen=True)
class CorrelationTrace:
    """Sampled correlation function on a tau grid (ns).

    kind is "G1" (complex values, with the constant coherent part recorded
    in coherent_offset) or "G2" (real, stored as given, clipped at 0).
    """

    tau_grid: np.ndarray
    values: np.ndarray
    kind: str
    coherent_offset: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "tau_grid", np.asarray(self.tau_grid, dtype=float))
        if self.kind == "G1":
            object.__setattr__(self, "values", np.asarray(self.values, dtype=complex))
            if np.any(np.abs(self.values) > 1.0 + _EVEN_TOL):
                raise ValueError("|g1| must not exceed 1")
        elif self.kind == "G2":
            vals = np.asarray(self.values, dtype=float)
            if np.any(vals < -_EVEN_TOL):
                raise ValueError("G2 values must be >= 0")
            object.__setattr__(self, "values", np.clip(vals, 0.0, None))
        else:
            raise ValueError(f"unknown correlation kind {self.kind!r}")
        if self.tau_grid.shape != self.values.shape:
            raise ValueError("tau_grid and values must have matching shapes")


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
    ss = steady_state(params, rabi)
    if rabi == 0.0:
        raise ValueError("correlation functions require a nonzero CW drive")
    gen = _generator(params, rabi)[:4, :4]
    x_ss = np.array([ss.u, ss.v, ss.w, 1.0])
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


def g2(params: EmitterParams, rabi: float, tau_grid) -> CorrelationTrace:
    """Normalized intensity autocorrelation g2(tau) of the driven emitter.

    Evolves the ground state (0, 0, -1, 1), the post-emission state, and
    normalizes the regrowth of rho_ee by its steady-state value. Even in
    tau by construction.
    """
    gen, x_ss, modes = _regression_setup(params, float(rabi))
    tau_grid = np.asarray(tau_grid, dtype=float)
    rho_ee = _READ_EE @ x_ss
    vals = _propagate_modes(gen, modes, _GROUND, tau_grid, _READ_EE).real / rho_ee
    return CorrelationTrace(tau_grid=tau_grid, values=np.clip(vals, 0.0, None), kind="G2")


def _g1_start(x_ss: np.ndarray) -> np.ndarray:
    """s- rho_ss for the stationary vector x_ss: (rho_ee, i rho_ee, -<s->, <s->)."""
    rho_ee = _READ_EE @ x_ss
    s_minus = (x_ss[0] + 1j * x_ss[1]) / 2.0
    return np.array([rho_ee, 1j * rho_ee, -s_minus, s_minus])


def g1(params: EmitterParams, rabi: float, tau_grid) -> CorrelationTrace:
    """First-order coherence g1(tau) = <s+(t+tau) s-(t)> / rho_ee.

    By the regression theorem the operator s- rho_ss evolves under the
    Bloch generator like a state, and <s+> of it is its rho_ge. The
    constant coherent part |<s->|^2 / rho_ee is stored as coherent_offset
    and equals the coherently scattered fraction. Negative taus are filled
    by conjugate symmetry.
    """
    gen, x_ss, modes = _regression_setup(params, float(rabi))
    tau_grid = np.asarray(tau_grid, dtype=float)
    x0 = _g1_start(x_ss)
    rho_ee = float(x0[0].real)
    vals = _propagate_modes(gen, modes, x0, tau_grid, _READ_GE) / rho_ee
    vals = np.where(tau_grid < 0, np.conj(vals), vals)
    mag = np.abs(vals)
    vals = np.where(mag > 1.0, vals / np.maximum(mag, 1.0), vals)  # trim roundoff
    offset = float(abs(x0[3])) ** 2 / rho_ee
    return CorrelationTrace(tau_grid=tau_grid, values=vals, kind="G1", coherent_offset=offset)


def apply_blinking(trace: CorrelationTrace, blinking: BlinkingParams) -> CorrelationTrace:
    """Multiply a G2 trace by the bunching envelope (1 + a*exp(-|tau|/tau_b))."""
    if trace.kind != "G2":
        raise ValueError("blinking applies to G2 traces only")
    env = 1.0 + blinking.amplitude * np.exp(-np.abs(trace.tau_grid) / blinking.timescale_ns)
    return replace(trace, values=trace.values * env)


def convolve_timing(trace: CorrelationTrace, irf: TimingResponse) -> CorrelationTrace:
    """Convolve a G2 trace with the Gaussian detector response.

    An ideal detector (fwhm 0) returns the trace; otherwise the tau grid
    must be increasing and uniform (GridError), and sigma <= dt / 40
    returns the trace too (the kernel's side weights underflow to 0 from
    dt / sigma ~ 38.7 on). The kernel is unit-normalized on the grid, so
    the integral is preserved provided the trace has settled to a constant
    within a kernel width of the grid edges (edge bins are replicated
    outward). A kernel whose half-width 6 sigma exceeds the grid span
    cannot meet that, and is refused (GridError) before it is built.
    """
    if trace.kind != "G2":
        raise ValueError("timing convolution applies to G2 traces only")
    if irf.fwhm_ns == 0.0:
        return trace
    dt = _uniform_step(trace.tau_grid, "tau grid")
    sigma = irf.fwhm_ns / _FWHM_PER_SIGMA
    if sigma <= dt / 40.0:  # a subnormal width even underflows to sigma = 0
        return trace
    span = float(trace.tau_grid[-1] - trace.tau_grid[0])
    if 6.0 * sigma > span:
        raise GridError(
            f"timing fwhm {irf.fwhm_ns:g} ns: the kernel half-width 6 sigma = {6.0 * sigma:.4g} ns "
            f"exceeds the tau grid span of {span:.4g} ns"
        )
    half = max(1, int(math.ceil(6.0 * sigma / dt)))
    x = np.arange(-half, half + 1) * dt
    kernel = np.exp(-0.5 * (x / sigma) ** 2)
    kernel /= kernel.sum()
    vals = trace.values
    padded = np.concatenate([np.full(half, vals[0]), vals, np.full(half, vals[-1])])
    return replace(trace, values=np.convolve(padded, kernel, mode="valid"))
