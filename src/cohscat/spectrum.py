"""Emission spectrum of the driven emitter.

The spectrum splits into a coherent line at the laser energy (weight equal
to the coherently scattered fraction, shape set by the laser linewidth) and
an incoherent part obtained by discrete Fourier transform of the decaying
component of g1. Both instrument and laser lines are modeled as
Lorentzians, so instrument convolution is exact: Lorentzian widths add, and
the incoherent part is damped in the time domain before transforming.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .correlations import g1 as g1_trace
from .emitter import HBAR_UEV_NS, EmitterParams, rrs_fraction


class GridError(ValueError):
    """Energy grid unsuitable for the requested spectrum (aliasing guard)."""


class FitConvergenceError(RuntimeError):
    """Least-squares fit failed to converge; carries the final residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:g})")
        self.residual = residual


@dataclass(frozen=True)
class SpectralResponse:
    """Lorentzian FWHM of the spectrometer and of the drive laser (µeV)."""

    instrument_fwhm: float
    laser_fwhm: float

    def __post_init__(self):
        if self.instrument_fwhm < 0 or self.laser_fwhm < 0:
            raise ValueError("spectral widths must be >= 0")


@dataclass(frozen=True)
class SpectrumTrace:
    """Spectral density (1/µeV) on an energy grid (µeV, relative to the laser).

    The density is renormalized to unit integral on the grid (Lorentzian
    tails outside any finite window are re-assigned proportionally);
    coherent_weight records the analytic coherent fraction.
    """

    energy_grid: np.ndarray
    density: np.ndarray
    coherent_weight: float

    def __post_init__(self):
        object.__setattr__(self, "energy_grid", np.asarray(self.energy_grid, dtype=float))
        object.__setattr__(self, "density", np.asarray(self.density, dtype=float))
        if np.any(self.density < 0):
            raise ValueError("spectral density must be >= 0")
        if not 0.0 <= self.coherent_weight <= 1.0:
            raise ValueError("coherent_weight must lie in [0, 1]")
        total = float(np.trapezoid(self.density, self.energy_grid))
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"spectral density must integrate to 1, got {total}")


def lorentzian(energy, center: float, fwhm: float):
    """Unit-area Lorentzian of the given FWHM."""
    half = fwhm / 2.0
    return (half / math.pi) / ((np.asarray(energy, float) - center) ** 2 + half ** 2)


def _uniform_spacing(grid: np.ndarray) -> float:
    d = np.diff(grid)
    if len(d) == 0 or not np.allclose(d, d[0], rtol=1e-9, atol=1e-12):
        raise GridError("energy grid must be uniform and ascending")
    if d[0] <= 0:
        raise GridError("energy grid must be ascending")
    return float(d[0])


def incoherent_spectrum(
    params: EmitterParams,
    rabi: float,
    energy_grid,
    instrument_fwhm: float = 0.0,
) -> np.ndarray:
    """Raw incoherent spectral density on the grid (1/µeV), not renormalized.

    Integrates to 1 - rrs_fraction up to grid truncation. Computed as the
    DFT of the decaying part of g1, damped by exp(-w_inst |tau| / 2 hbar)
    which convolves in a Lorentzian instrument line exactly.
    """
    energy_grid = np.asarray(energy_grid, dtype=float)
    de_req = _uniform_spacing(energy_grid)
    span_req = energy_grid[-1] - energy_grid[0]
    hbar = HBAR_UEV_NS

    # Internal FFT grid: wide enough to hold the sidebands at +-hbar*rabi
    # without wrap-around, fine enough to resolve the homogeneous line.
    lw = params.linewidth_uev()
    span = max(span_req, 4.0 * hbar * rabi + 40.0 * lw)
    de = min(de_req, lw / 16.0)
    n = 1 << max(12, int(math.ceil(math.log2(span / de))))
    if n > (1 << 22):
        raise GridError("energy grid demands an unreasonably large transform")
    de = span / n
    dtau = 2.0 * math.pi * hbar / span

    k = np.fft.fftfreq(n, d=1.0 / n)  # 0, 1, ..., -1 ordering
    taus = k * dtau
    trace = g1_trace(params, rabi, np.abs(taus))
    vals = trace.values - trace.coherent_offset
    vals = np.where(taus < 0, np.conj(vals), vals)
    if instrument_fwhm > 0.0:
        vals = vals * np.exp(-instrument_fwhm * np.abs(taus) / (2.0 * hbar))
    dens = np.fft.fftshift(np.fft.ifft(vals).real) * n * dtau / (2.0 * math.pi * hbar)
    energies = np.fft.fftshift(k) * de
    out = np.interp(energy_grid, energies, np.clip(dens, 0.0, None))
    return out


def emission_spectrum(
    params: EmitterParams,
    rabi: float,
    response: SpectralResponse,
    energy_grid,
) -> SpectrumTrace:
    """Full emission spectrum: coherent line plus incoherent part, both
    convolved with the instrument response, unit-normalized on the grid."""
    energy_grid = np.asarray(energy_grid, dtype=float)
    de = _uniform_spacing(energy_grid)
    span = energy_grid[-1] - energy_grid[0]
    if span < 10.0 * params.linewidth_uev():
        raise GridError(
            f"energy grid span {span:g} µeV must cover >= 10x the natural "
            f"linewidth {params.linewidth_uev():g} µeV"
        )
    frac = rrs_fraction(params, rabi)

    coherent_fwhm = response.laser_fwhm + response.instrument_fwhm
    if coherent_fwhm > 0.0:
        coh = lorentzian(energy_grid, 0.0, coherent_fwhm)
    else:
        coh = np.zeros_like(energy_grid)
        coh[int(np.argmin(np.abs(energy_grid)))] = 1.0 / de
    coh_total = np.trapezoid(coh, energy_grid)

    if frac < 1.0 - 1e-12:
        inc = incoherent_spectrum(params, rabi, energy_grid, response.instrument_fwhm)
        inc_total = np.trapezoid(inc, energy_grid)
        if inc_total <= 0.0:
            raise GridError("energy grid holds no incoherent spectral weight")
        density = frac * coh / coh_total + (1.0 - frac) * inc / inc_total
    else:
        density = coh / coh_total
    return SpectrumTrace(energy_grid=energy_grid, density=density, coherent_weight=min(frac, 1.0))


@dataclass(frozen=True)
class LinewidthFit:
    """Result of the intrinsic-linewidth fit."""

    intrinsic_fwhm: float
    total_fwhm: float
    center: float
    amplitude: float
    residual_norm: float


def _estimate_fwhm(grid: np.ndarray, dens: np.ndarray) -> float:
    i_pk = int(np.argmax(dens))
    half = dens[i_pk] / 2.0
    left = grid[0]
    for i in range(i_pk, 0, -1):
        if dens[i - 1] < half:
            left = np.interp(half, [dens[i - 1], dens[i]], [grid[i - 1], grid[i]])
            break
    right = grid[-1]
    for i in range(i_pk, len(grid) - 1):
        if dens[i + 1] < half:
            right = np.interp(half, [dens[i + 1], dens[i]], [grid[i + 1], grid[i]])
            break
    return float(right - left)


def fit_linewidth(trace: SpectrumTrace, response: SpectralResponse) -> LinewidthFit:
    """Least-squares fit of an instrument-convolved Lorentzian line.

    Lorentzian (x) Lorentzian widths add, so the model is a single
    Lorentzian of FWHM (intrinsic + instrument); the known instrument width
    is subtracted inside the fit. The peak must be resolvable above the
    grid spacing. No command calls this fit, so its optimizer is imported
    here and stays off the command-line start-up path.
    """
    from scipy.optimize import OptimizeWarning, curve_fit

    grid = trace.energy_grid
    dens = trace.density
    de = _uniform_spacing(grid)
    fwhm_obs = _estimate_fwhm(grid, dens)
    if fwhm_obs < de:
        raise GridError("spectral peak is not resolvable above the grid spacing")

    def model(e, amp, center, w_intr):
        return amp * lorentzian(e, center, abs(w_intr) + response.instrument_fwhm)

    w0 = max(fwhm_obs - response.instrument_fwhm, de / 10.0)
    amp0 = dens.max() * math.pi * (w0 + response.instrument_fwhm) / 2.0
    p0 = [amp0, grid[int(np.argmax(dens))], w0]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", OptimizeWarning)
            popt, _ = curve_fit(model, grid, dens, p0=p0, maxfev=20000)
    except RuntimeError as exc:
        resid = float(np.linalg.norm(model(grid, *p0) - dens))
        raise FitConvergenceError(f"linewidth fit did not converge: {exc}", resid) from exc
    resid = float(np.linalg.norm(model(grid, *popt) - dens))
    w_intr = abs(popt[2])
    # Width below a tenth of a grid step is indistinguishable from zero.
    if w_intr < de / 10.0:
        w_intr = 0.0
    return LinewidthFit(
        intrinsic_fwhm=w_intr,
        total_fwhm=w_intr + response.instrument_fwhm,
        center=float(popt[1]),
        amplitude=float(popt[0]),
        residual_norm=resid,
    )
