"""First- and second-order correlation functions of the CW-driven emitter.

g2 follows from evolving the Bloch equations out of the ground state after a
detection event; g1 from the regression theorem, which evolves the operator
s- rho_ss under the same Bloch generator. Both propagate through the
eigen-decomposition of the generator, or through exact matrix exponentials
when the generator is (nearly) defective. `_regression_start` sets up g1's
generator and start state once; the emission spectrum solves the resolvent
of the same generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .emitter import EmitterParams, _check_rabi, _expm, _generator, bloch_system, steady_state

_EVEN_TOL = 1e-9


# Grid checks run on every trace built, so they compare directly instead of
# through np.allclose's per-call overhead; each returns np.allclose's boolean.
def _grids_match(x: np.ndarray, y: np.ndarray, atol: float) -> bool:
    """np.allclose(x, y, rtol=0, atol=atol) for same-shape x and y."""
    with np.errstate(invalid="ignore"):  # inf - inf where both hold one infinity
        close = np.abs(x - y) <= atol
    return bool(close.all()) or bool((close | (x == y)).all())


def _evenly_spaced(d: np.ndarray) -> bool:
    """np.allclose(d, d[0], rtol=1e-9, atol=1e-12) for non-empty steps d."""
    d0 = float(d[0])
    if math.isfinite(d0):
        return bool((np.abs(d - d0) <= 1e-12 + 1e-9 * abs(d0)).all())
    return bool((d == d0).all())


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
    in coherent_offset), "G2" (real, non-negative, even) or "VISIBILITY"
    (real, in [0, 1]; flagged marks points where the denominator vanished).
    """

    tau_grid: np.ndarray
    values: np.ndarray
    kind: str
    coherent_offset: float | None = None
    flagged: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "tau_grid", np.asarray(self.tau_grid, dtype=float))
        if self.kind == "G1":
            object.__setattr__(self, "values", np.asarray(self.values, dtype=complex))
            if np.any(np.abs(self.values) > 1.0 + _EVEN_TOL):
                raise ValueError("|g1| must not exceed 1")
        elif self.kind in ("G2", "VISIBILITY"):
            vals = np.asarray(self.values, dtype=float)
            if np.any(vals < -_EVEN_TOL):
                raise ValueError(f"{self.kind} values must be >= 0")
            if self.tau_grid.shape != vals.shape:
                raise ValueError("tau_grid and values must have matching shapes")
            object.__setattr__(self, "values", np.clip(self._folded(vals), 0.0, None))
        else:
            raise ValueError(f"unknown correlation kind {self.kind!r}")
        if self.tau_grid.shape != self.values.shape:
            raise ValueError("tau_grid and values must have matching shapes")

    def _folded(self, vals):
        # Intensity correlations are recorded with both detector orderings,
        # so evenness in tau is enforced by folding whenever the grid is
        # sign-symmetric (a no-op for already-even data).
        rev = -self.tau_grid[::-1]
        if self.tau_grid.size and _grids_match(self.tau_grid, rev, 1e-12):
            return (vals + vals[::-1]) / 2.0
        return vals

    def is_uniform(self) -> bool:
        d = np.diff(self.tau_grid)
        return len(d) > 0 and _evenly_spaced(d)


# Above this eigenvector condition number the eigen path loses more than
# about 1e-12 (the error grows like cond * 1e-16); the generator is then
# (nearly) defective, as at the critical drive, and exact exponentials
# take over.
_COND_MAX = 1e4


def _propagate_modes(gen: np.ndarray, x0: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """exp(gen * tau) @ x0 for every tau >= 0, via eigen-decomposition, or
    one matrix exponential per distinct tau when the eigenvectors are
    ill-conditioned."""
    evals, vecs = np.linalg.eig(gen.astype(complex))
    if np.linalg.cond(vecs) < _COND_MAX:
        y0 = np.linalg.solve(vecs, x0.astype(complex))
        phases = np.exp(np.multiply.outer(taus, evals))
        return (phases * y0) @ vecs.T
    uniq, inverse = np.unique(taus, return_inverse=True)
    return (_expm(np.multiply.outer(uniq, gen)) @ x0.astype(complex))[inverse]


# Density-matrix coordinates (rho_ee, rho_eg, rho_ge, rho_gg) of an
# operator, from its complex Bloch coordinates (u, v, w, tr):
# rho_eg = (u + iv)/2, rho_ge = (u - iv)/2, rho_ee/gg = (tr +- w)/2.
_RHO_FROM_BLOCH = 0.5 * np.array(
    [[0, 0, 1, 1], [1, 1j, 0, 0], [1, -1j, 0, 0], [0, 0, -1, 1]], dtype=complex
)
_BLOCH_FROM_RHO = np.array(
    [[0, 1, 1, 0], [0, -1j, 1j, 0], [1, 0, 0, -1], [1, 0, 0, 1]], dtype=complex
)


def _require_cw(params: EmitterParams, rabi: float):
    _check_rabi(rabi)
    if rabi == 0.0:
        raise ValueError("correlation functions require a nonzero CW drive")


def g2(params: EmitterParams, rabi: float, tau_grid) -> CorrelationTrace:
    """Normalized intensity autocorrelation g2(tau) of the driven emitter.

    Evolves the Bloch vector from the ground state (the post-emission state)
    and normalizes the regrowth of rho_ee by its steady-state value. Even in
    tau by construction.
    """
    _require_cw(params, rabi)
    tau_grid = np.asarray(tau_grid, dtype=float)
    a_mat, b_vec = bloch_system(params, rabi)
    x_ss = np.linalg.solve(a_mat, -b_vec)
    rho_ss = (1.0 + x_ss[2]) / 2.0
    x0 = np.array([0.0, 0.0, -1.0]) - x_ss
    abs_tau = np.abs(tau_grid)
    modes = _propagate_modes(a_mat, x0, abs_tau)
    w = modes[:, 2].real + x_ss[2]
    vals = (1.0 + w) / 2.0 / rho_ss
    return CorrelationTrace(tau_grid=tau_grid, values=np.clip(vals, 0.0, None), kind="G2")


def _regression_start(params: EmitterParams, rabi: float):
    """g1's generator and vectors in density-matrix coordinates
    (rho_ee, rho_eg, rho_ge, rho_gg): the Bloch generator of
    ``bloch_system`` (its affine form on (u, v, w, tr), tr the conserved
    trace) under an exact change of basis, the regression-theorem start
    state s- rho_ss = (0, 0, rho_ee, <s->), and the stationary state rho_ss.
    """
    _require_cw(params, rabi)
    ss = steady_state(params, rabi)
    rho_ee = ss.rho_ee()
    c_ss = (ss.u + 1j * ss.v) / 2.0
    gen = _RHO_FROM_BLOCH @ _generator(params, rabi)[:4, :4] @ _BLOCH_FROM_RHO
    x0 = np.array([0.0, 0.0, rho_ee, c_ss], dtype=complex)
    rho = np.array([rho_ee, c_ss, np.conj(c_ss), 1.0 - rho_ee], dtype=complex)
    return gen, x0, rho


def g1(params: EmitterParams, rabi: float, tau_grid) -> CorrelationTrace:
    """First-order coherence g1(tau) = <s+(t+tau) s-(t)> / rho_ee.

    By the regression theorem the operator s- rho_ss evolves under the
    Bloch generator like a state, and <s+> of it is its rho_ge (see
    ``_regression_start``). The constant coherent part |<s->|^2 / rho_ee
    is stored as coherent_offset and equals the coherently scattered
    fraction. Negative taus are filled by conjugate symmetry.
    """
    gen, x0, _ = _regression_start(params, rabi)
    tau_grid = np.asarray(tau_grid, dtype=float)
    rho_ee = float(x0[2].real)
    modes = _propagate_modes(gen, x0, np.abs(tau_grid))
    vals = modes[:, 2] / rho_ee
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
    """Convolve a trace with the Gaussian detector response.

    Requires a uniform tau grid. The kernel is unit-normalized on the grid,
    so the integral is preserved provided the trace has settled to a
    constant within a kernel width of the grid edges (edge bins are
    replicated outward).
    """
    if not trace.is_uniform():
        raise ValueError("convolve_timing requires a uniform tau grid")
    if irf.fwhm_ns == 0.0:
        return replace(trace)
    dt = float(trace.tau_grid[1] - trace.tau_grid[0])
    sigma = irf.fwhm_ns / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    half = max(1, int(math.ceil(6.0 * sigma / dt)))
    x = np.arange(-half, half + 1) * dt
    kernel = np.exp(-0.5 * (x / sigma) ** 2)
    kernel /= kernel.sum()

    def smooth(arr):
        padded = np.concatenate([np.full(half, arr[0]), arr, np.full(half, arr[-1])])
        return np.convolve(padded, kernel, mode="valid")

    if trace.kind == "G1":
        vals = smooth(trace.values.real) + 1j * smooth(trace.values.imag)
    else:
        vals = smooth(trace.values)
    return replace(trace, values=vals)
