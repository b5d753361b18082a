"""Emission spectrum of the driven emitter.

The spectrum splits into a coherent line at the laser energy (weight equal
to the coherently scattered fraction, shape set by the laser linewidth) and
an incoherent part: the Fourier transform of the decaying component of g1,
taken in closed form as the resolvent of the Bloch generator that g1
propagates (Mollow 1969). Both instrument and laser lines are modeled as
Lorentzians, so instrument convolution is exact: Lorentzian widths add, and
the instrument line shifts the resolvent's argument by half its width.
`emission_spectrum` returns the density on the caller's energy grid; the
coherent weight it splits off is `emitter.rrs_fraction`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .correlations import _READ_GE, GridError, _g1_start, _regression_setup, _uniform_step
from .emitter import HBAR_UEV_NS, EmitterParams, rrs_fraction

# Largest relative change of a part's trapezoid sum when every other grid
# point is dropped; beyond it the grid does not resolve that part.
_RESOLUTION_RTOL = 1e-3


@dataclass(frozen=True)
class SpectralResponse:
    """Lorentzian FWHM of the spectrometer and of the drive laser (µeV)."""

    instrument_fwhm_uev: float = 0.78
    laser_fwhm_uev: float = 0.37

    def __post_init__(self):
        if self.instrument_fwhm_uev < 0 or self.laser_fwhm_uev < 0:
            raise ValueError("spectral widths must be >= 0")


def lorentzian(energy, center: float, fwhm: float):
    """Unit-area Lorentzian of the given FWHM."""
    half = fwhm / 2.0
    return (half / math.pi) / ((np.asarray(energy, float) - center) ** 2 + half ** 2)


def _resolved_total(part: str, density: np.ndarray, grid: np.ndarray) -> float:
    """Trapezoid sum of one smooth part of the density; raises GridError
    unless the sum over every other grid point (same end points) agrees
    within _RESOLUTION_RTOL."""
    total = float(np.trapezoid(density, grid))
    half = np.r_[np.arange(0, len(grid) - 1, 2), len(grid) - 1]
    change = abs(float(np.trapezoid(density[half], grid[half])) - total)
    if len(grid) < 3 or total <= 0.0 or not change <= _RESOLUTION_RTOL * total:
        raise GridError(
            f"energy grid of {len(grid)} points does not resolve the {part}: its "
            f"integral changes by {change:.3g} of {total:.3g} on every other point"
        )
    return total


def incoherent_spectrum(
    params: EmitterParams,
    rabi: float,
    energy_grid,
    instrument_fwhm: float = 0.0,
) -> np.ndarray:
    """Incoherent spectral density at each energy (1/µeV), not renormalized.

    Integrates to 1 - rrs_fraction over the whole line. By the regression
    theorem it is the transform of the decaying part of g1, damped by
    exp(-w_inst |tau| / 2 hbar), which convolves in a Lorentzian instrument
    line exactly; in closed form that is one 4x4 solve per energy,
    S(E) = Re[-(G - x_ss e_tr^T + z)^-1 x_dec]_ge / (pi hbar rho_ee) with
    z = iE/hbar - w_inst/(2 hbar). G is the Bloch generator on (u, v, w, tr),
    x_ss its stationary vector and x_dec g1's start vector less its
    stationary part. Subtracting x_ss from G's tr column deflates the
    stationary mode, which keeps E = 0 regular; no eigenvectors are
    needed, so the critical drive is covered too.
    """
    energy_grid = np.asarray(energy_grid, dtype=float)
    gen, x_ss, _ = _regression_setup(params, float(rabi))
    x0 = _g1_start(x_ss)
    x_dec = x0 - x_ss * x0[3]
    deflated = gen - np.outer(x_ss, [0.0, 0.0, 0.0, 1.0])
    z = (1j * energy_grid - instrument_fwhm / 2.0) / HBAR_UEV_NS
    resolvent = np.linalg.solve(deflated + z[:, None, None] * np.eye(4), -x_dec)
    # einsum, not a BLAS product, which threads on long grids
    rho_ge = np.einsum("ej,j->e", resolvent, _READ_GE)
    return rho_ge.real / (math.pi * HBAR_UEV_NS * x0[0].real)


def emission_spectrum(
    params: EmitterParams,
    rabi: float,
    response: SpectralResponse,
    energy_grid,
) -> np.ndarray:
    """Full emission spectrum: the spectral density (1/µeV) at each energy
    of the grid (µeV, relative to the laser), coherent line plus incoherent
    part, both convolved with the instrument response.

    Each part is renormalized to unit integral on the grid (its Lorentzian
    tails outside a finite window are re-assigned proportionally) and
    weighted by rrs_fraction and its complement. Raises GridError when the
    grid is not increasing and uniform, or does not resolve a smooth part
    (the incoherent density, or the coherent line when its width is > 0).
    """
    energy_grid = np.asarray(energy_grid, dtype=float)
    de = _uniform_step(energy_grid, "energy grid")
    span = energy_grid[-1] - energy_grid[0]
    if span < 10.0 * params.linewidth_uev():
        raise GridError(
            f"energy grid span {span:g} µeV must cover >= 10x the natural "
            f"linewidth {params.linewidth_uev():g} µeV"
        )
    frac = rrs_fraction(params, rabi)

    coherent_fwhm = response.laser_fwhm_uev + response.instrument_fwhm_uev
    if coherent_fwhm > 0.0:
        coh = lorentzian(energy_grid, 0.0, coherent_fwhm)
        coh_total = _resolved_total("coherent line", coh, energy_grid)
    else:
        coh = np.zeros_like(energy_grid)
        coh[int(np.argmin(np.abs(energy_grid)))] = 1.0 / de
        coh_total = np.trapezoid(coh, energy_grid)

    if frac < 1.0 - 1e-12:
        inc = incoherent_spectrum(params, rabi, energy_grid, response.instrument_fwhm_uev)
        inc_total = _resolved_total("incoherent spectrum", inc, energy_grid)
        density = frac * coh / coh_total + (1.0 - frac) * inc / inc_total
    else:
        density = coh / coh_total
    if np.any(density < 0):
        raise ValueError("spectral density must be >= 0")
    total = float(np.trapezoid(density, energy_grid))
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"spectral density must integrate to 1, got {total}")
    return density
