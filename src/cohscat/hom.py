"""CW two-photon interference in an unbalanced Mach-Zehnder interferometer.

Photons emitted one path-delay apart meet at the output coupler; the
post-selected autocorrelation decomposes into three delayed copies of the
source g2 plus, for parallel polarizations, an interference term carrying
|g1|^2 (Legero et al., Appl. Phys. B 77, 797 (2003)). Beat-note terms
between the two paths are dropped (the delay far exceeds the correlation
times of interest). A trace records both detector orderings, so the
ordered R^2/T^2 side weights enter folded, as their mean at -+delay.
`hom_pair` gives the traces of an ideal detector as arrays on the
caller's tau grid; a caller smears them with `correlations.convolve_timing`
and compares them with `visibility`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .correlations import TimingResponse, _uniform_step, convolve_timing, g1, g2
from .emitter import EmitterParams

PARALLEL = "parallel"
ORTHOGONAL = "orthogonal"
_IRF_FWHM_MAX = 2.0  # ns; widest detector response the IRF solve tries


@dataclass(frozen=True)
class HomSetup:
    """Unbalanced interferometer: path delay (ns), coupler reflectivity and
    the relative polarization of the two arms."""

    delay: float
    splitter_ratio: float = 0.5
    polarization: str = PARALLEL

    def __post_init__(self):
        if self.delay <= 0:
            raise ValueError("delay must be > 0")
        if not 0.0 < self.splitter_ratio < 1.0:
            raise ValueError("splitter_ratio must lie in (0, 1)")
        if self.polarization not in (PARALLEL, ORTHOGONAL):
            raise ValueError(f"polarization must be parallel or orthogonal, got {self.polarization!r}")


def _pair_values(params: EmitterParams, rabi: float, setup: HomSetup, tau_grid: np.ndarray):
    """(parallel, orthogonal) values; the parallel trace is clipped at 0,
    where a fully coherent source's dip sits at roundoff, and refused below
    -1e-9."""
    r = setup.splitter_ratio
    t = 1.0 - r
    center = g2(params, rabi, tau_grid)
    minus = g2(params, rabi, tau_grid - setup.delay)
    plus = g2(params, rabi, tau_grid + setup.delay)
    # both detector orderings: the side weights r^2 and t^2 fold into their mean
    perp = 2.0 * r * t * center + (r ** 2 + t ** 2) / 2.0 * (minus + plus)
    coh = np.abs(g1(params, rabi, tau_grid)) ** 2
    par = perp - 2.0 * r * t * coh
    if par.min() < -1e-9:
        raise ValueError(f"delay {setup.delay:g} ns is too short: the parallel trace reaches {par.min():.3g} < 0")
    return np.clip(par, 0.0, None), perp


def hom_g2(params: EmitterParams, rabi: float, setup: HomSetup, tau_grid) -> np.ndarray:
    """Post-selected autocorrelation at one interferometer output, on tau_grid.

    Requires the grid to reach at least twice the path delay so that the
    side structure is contained. The side dips at -+delay both have the
    folded depth (R^2 + T^2)/2, on any grid. A parallel trace below 0 beyond
    roundoff raises ValueError: the delay is too short for the model.
    """
    tau_grid = np.asarray(tau_grid, dtype=float)
    if np.max(np.abs(tau_grid)) < 2.0 * setup.delay:
        raise ValueError("tau grid must extend to at least twice the interferometer delay")
    par, perp = _pair_values(params, rabi, setup, tau_grid)
    return par if setup.polarization == PARALLEL else perp


def hom_pair(params: EmitterParams, rabi: float, setup: HomSetup, tau_grid) -> tuple[np.ndarray, np.ndarray]:
    """(parallel, orthogonal) traces of an ideal detector."""
    par = hom_g2(params, rabi, replace(setup, polarization=PARALLEL), tau_grid)
    perp = hom_g2(params, rabi, replace(setup, polarization=ORTHOGONAL), tau_grid)
    return par, perp


def visibility(parallel: np.ndarray, orthogonal: np.ndarray) -> np.ndarray:
    """Pointwise (g2_perp - g2_par)/g2_perp of two traces on one tau grid,
    in [0, 1]; zero where the orthogonal trace vanishes."""
    bad = orthogonal < 1e-12
    vals = np.where(bad, 0.0, (orthogonal - parallel) / np.where(bad, 1.0, orthogonal))
    return np.clip(vals, 0.0, 1.0)


def solve_timing_for_visibility(tau_grid, par: np.ndarray, perp: np.ndarray, target: float = 0.89) -> float:
    """Detector-response FWHM (ns) at which the peak visibility of the
    IRF-free traces (par, perp) of ``hom_pair`` on tau_grid, each convolved
    with that IRF, equals target.

    The IRF only smooths the two traces, so they are built once, by the
    caller. Peak visibility falls monotonically from 1 as the IRF smears
    the parallel dip, so a scalar bracket suffices: the width doubles from
    the grid spacing until the visibility drops below target, and a width
    past `_IRF_FWHM_MAX` raises ValueError.
    """
    if not 0.0 < target < 1.0:
        raise ValueError("target visibility must lie in (0, 1)")
    lo = _uniform_step(tau_grid, "tau grid")

    def peak(fwhm: float) -> float:
        irf = TimingResponse(fwhm_ns=fwhm)
        return float(np.max(visibility(convolve_timing(tau_grid, par, irf), convolve_timing(tau_grid, perp, irf))))

    hi, f_hi = lo, peak(lo) - target
    if f_hi < 0:
        raise ValueError("grid spacing too coarse to reach the target visibility")
    while f_hi > 0:
        f_lo = f_hi
        hi *= 2.0
        if hi > _IRF_FWHM_MAX:
            raise ValueError(f"no IRF below {_IRF_FWHM_MAX} ns yields visibility {target}")
        f_hi = peak(hi) - target
    if f_hi == 0:
        return float(hi)
    return _illinois(lambda f: peak(f) - target, hi / 2.0, f_lo, hi, f_hi, xtol=1e-6)


def _illinois(func, a: float, fa: float, b: float, fb: float, xtol: float) -> float:
    """Root of func in the bracket [a, b] (fa and fb of opposite signs) by
    regula falsi with the Illinois halving of a retained end's value
    (Dowell & Jarratt, BIT 11, 168 (1971)); stops when the bracket is
    narrower than xtol."""
    while abs(b - a) > xtol:
        c = (a * fb - b * fa) / (fb - fa)
        fc = func(c)
        if fc == 0:
            return float(c)
        if (fc > 0) == (fb > 0):
            fa *= 0.5
        else:
            a, fa = b, fb
        b, fb = c, fc
    return float(b)
