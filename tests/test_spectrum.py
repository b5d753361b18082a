import numpy as np
import pytest
from scipy.signal import find_peaks

import cohscat as cs
from cohscat import spectrum
from cohscat.scenario import EmitterBlock, Scenario
from cohscat.spectrum import GridError, lorentzian
from conftest import fit_linewidth, incoherent_spectrum_quadrature

_FIG2B_RABI = Scenario().drive.resolve()


def test_mollow_triplet_peak_positions():
    params = cs.EmitterParams(t1=1.0, t2=2.0)
    rabi = 30.0
    grid = np.linspace(-60.0, 60.0, 8192)
    inc = cs.incoherent_spectrum(params, rabi, grid)
    peaks, _ = find_peaks(inc, height=0.2 * inc.max())
    assert len(peaks) == 3
    de = grid[1] - grid[0]
    expected = np.array([-1.0, 0.0, 1.0]) * cs.HBAR_UEV_NS * rabi
    assert np.all(np.abs(grid[peaks] - expected) <= de)


def test_incoherent_integral_matches_weight():
    # The whole line, through E = L tan(theta) on the midpoints of an even
    # theta grid over (-pi/2, pi/2): dE = L sec^2(theta) dtheta.
    params = cs.EmitterParams(t1=1.0, t2=2.0)
    n, scale = 4096, 40.0
    theta = (np.arange(n) + 0.5) * (np.pi / n) - np.pi / 2.0
    grid = scale * np.tan(theta)
    for rabi in (0.5, 3.0, 20.0):
        inc = cs.incoherent_spectrum(params, rabi, grid)
        total = np.sum(inc * scale / np.cos(theta) ** 2) * (np.pi / n)
        assert total == pytest.approx(1.0 - cs.rrs_fraction(params, rabi), abs=1e-4)


@pytest.mark.parametrize(
    "params, rabi, instrument_fwhm, span",
    [
        (cs.EmitterParams(t1=1.0, t2=2.0), 30.0, 0.0, 40.0),
        (cs.EmitterParams(t1=1.0, t2=2.0), 0.25, 0.0, 10.0),  # critical drive 1 / (4 t1)
        (cs.EmitterParams(t1=1.0, t2=0.6), 3.0, 0.78, 20.0),
        (EmitterBlock().resolve(), _FIG2B_RABI, 0.78, 40.0),
        (EmitterBlock().resolve(), _FIG2B_RABI, 0.0, 40.0),
    ],
    ids=["mollow", "critical", "dephased-instrument", "cavity-fig2b", "cavity-no-instrument"],
)
def test_incoherent_density_matches_g1_quadrature(params, rabi, instrument_fwhm, span):
    # 41 points: E = 0 is on every grid, regular there with no instrument line
    energies = np.linspace(-span, span, 41)
    assert energies[20] == 0.0
    got = cs.incoherent_spectrum(params, rabi, energies, instrument_fwhm)
    want = incoherent_spectrum_quadrature(params, rabi, energies, instrument_fwhm)
    assert np.max(np.abs(got - want)) < 1e-7 * np.max(want)


@pytest.mark.parametrize("points", [3, 41])
@pytest.mark.parametrize("widths", [(0.78, 0.37), (0.0, 0.0)], ids=["lines", "zero-width"])
def test_unresolved_grid_raises(points, widths):
    params = EmitterBlock().resolve()
    response = cs.SpectralResponse(*widths)
    grid = np.linspace(-40.0, 40.0, points)
    # the zero-width line is one bin and exempt, so there the incoherent part trips
    part = "coherent line" if widths[0] else "incoherent spectrum"
    with pytest.raises(GridError, match=part):
        cs.emission_spectrum(params, _FIG2B_RABI, response, grid)


def test_weak_drive_zero_width_collapses_to_single_bin():
    params = cs.EmitterParams(t1=1.0, t2=2.0)
    grid = np.linspace(-40.0, 40.0, 4097)  # odd: a bin sits exactly at 0
    response = cs.SpectralResponse(instrument_fwhm_uev=0.0, laser_fwhm_uev=0.0)
    density = cs.emission_spectrum(params, 1e-4, response, grid)
    assert cs.rrs_fraction(params, 1e-4) > 0.999999
    k = int(np.argmax(density))
    assert grid[k] == pytest.approx(0.0, abs=1e-12)
    de = grid[1] - grid[0]
    assert density[k] * de > 0.999


def test_spectrum_normalization_and_symmetry():
    params = EmitterBlock().resolve()
    response = cs.SpectralResponse(instrument_fwhm_uev=0.78, laser_fwhm_uev=0.37)
    grid = np.linspace(-40.0, 40.0, 4096)
    density = cs.emission_spectrum(params, 2.0, response, grid)
    assert np.trapezoid(density, grid) == pytest.approx(1.0, abs=1e-6)
    assert np.max(np.abs(density - density[::-1])) < 1e-6


def test_measured_line_is_instrument_dominated():
    # coherent-dominated drive on the lifetime-limited emitter
    params = EmitterBlock().resolve()
    rabi = 0.4
    assert cs.rrs_fraction(params, rabi) > 0.99
    response = cs.SpectralResponse(instrument_fwhm_uev=0.78, laser_fwhm_uev=0.37)
    grid = np.linspace(-40.0, 40.0, 4096)
    density = cs.emission_spectrum(params, rabi, response, grid)

    half = density.max() / 2.0
    above = grid[density >= half]
    observed_fwhm = above[-1] - above[0]
    assert observed_fwhm == pytest.approx(0.37 + 0.78, abs=0.05)
    assert observed_fwhm < params.linewidth_uev() / 4.0

    fit = fit_linewidth(grid, density, response)
    assert fit.intrinsic_fwhm == pytest.approx(0.37, abs=0.03)
    assert params.linewidth_uev() / fit.intrinsic_fwhm >= 16.0


def test_fit_linewidth_synthetic_self_consistency():
    grid = np.linspace(-30.0, 30.0, 4001)
    response = cs.SpectralResponse(instrument_fwhm_uev=0.78, laser_fwhm_uev=0.0)
    density = lorentzian(grid, 0.0, 0.37 + 0.78)
    density = density / np.trapezoid(density, grid)
    fit = fit_linewidth(grid, density, response)
    assert fit.intrinsic_fwhm == pytest.approx(0.37, abs=0.02)
    assert fit.total_fwhm == pytest.approx(0.37 + 0.78, rel=0.01)
    assert fit.residual_norm < 1e-6


def test_fit_linewidth_zero_intrinsic():
    grid = np.linspace(-30.0, 30.0, 4001)
    response = cs.SpectralResponse(instrument_fwhm_uev=0.78, laser_fwhm_uev=0.0)
    density = lorentzian(grid, 0.0, 0.78)
    density = density / np.trapezoid(density, grid)
    fit = fit_linewidth(grid, density, response)
    assert fit.intrinsic_fwhm == pytest.approx(0.0, abs=grid[1] - grid[0])


def test_lorentzian_widths_add():
    grid = np.linspace(-30.0, 30.0, 6001)
    w1, w2 = 0.9, 1.7
    a = lorentzian(grid, 0.0, w1)
    # discrete convolution oracle for the width-addition rule
    conv = np.convolve(a, lorentzian(grid, 0.0, w2), mode="same") * (grid[1] - grid[0])
    half = conv.max() / 2.0
    above = grid[conv >= half]
    assert above[-1] - above[0] == pytest.approx(w1 + w2, rel=0.01)


def test_narrow_energy_grid_raises_grid_error():
    params = cs.EmitterParams(t1=1.0, t2=0.6)  # linewidth 2.19 µeV
    grid = np.linspace(-5.0, 5.0, 512)  # span 10 < 10 * 2.19
    response = cs.SpectralResponse(instrument_fwhm_uev=0.0, laser_fwhm_uev=0.0)
    with pytest.raises(GridError):
        cs.emission_spectrum(params, 1.0, response, grid)


def test_descending_energy_grid_raises_grid_error():
    response = cs.SpectralResponse()
    with pytest.raises(GridError, match="energy grid must be increasing"):
        cs.emission_spectrum(cs.EmitterParams(t1=1.0, t2=0.6), 1.0, response, np.linspace(40.0, -40.0, 4096))
    assert GridError is cs.GridError and issubclass(GridError, ValueError)


def test_spectrum_trace_guards(monkeypatch):
    # emission_spectrum refuses a density below 0 or off the unit integral;
    # neither happens on its own parts, so each is forced here
    params = EmitterBlock().resolve()
    grid = np.linspace(-40.0, 40.0, 4096)
    response = cs.SpectralResponse()
    real = cs.incoherent_spectrum
    monkeypatch.setattr(spectrum, "incoherent_spectrum", lambda *a: real(*a) - 1e-3)
    with pytest.raises(ValueError, match="spectral density must be >= 0"):
        cs.emission_spectrum(params, _FIG2B_RABI, response, grid)
    monkeypatch.setattr(spectrum, "incoherent_spectrum", real)
    monkeypatch.setattr(spectrum, "_resolved_total", lambda part, density, grid: 0.5 * np.trapezoid(density, grid))
    with pytest.raises(ValueError, match="spectral density must integrate to 1, got 2"):
        cs.emission_spectrum(params, _FIG2B_RABI, response, grid)
