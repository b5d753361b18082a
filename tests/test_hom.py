import numpy as np
import pytest
from scipy.integrate import solve_ivp

import cohscat as cs
from cohscat import hom
from cohscat.hom import HomSetup
from cohscat.scenario import EmitterBlock
from conftest import liouvillian_reference

PARAMS = EmitterBlock().resolve()
RABI = 2.0 * np.pi * 0.83
SETUP = HomSetup(delay=10.4)
TAUS = np.linspace(-25.0, 25.0, 2001)


def test_setup_validation():
    with pytest.raises(ValueError):
        HomSetup(delay=0.0)
    with pytest.raises(ValueError):
        HomSetup(delay=1.0, splitter_ratio=1.0)
    with pytest.raises(ValueError):
        HomSetup(delay=1.0, polarization="circular")


def test_orthogonal_zero_lag_is_half():
    perp = cs.hom_g2(PARAMS, RABI, HomSetup(delay=10.4, polarization="orthogonal"), TAUS)
    assert perp[len(TAUS) // 2] == pytest.approx(0.5, abs=1e-6)


def test_parallel_zero_lag_vanishes_for_full_coherence():
    par = cs.hom_g2(PARAMS, RABI, HomSetup(delay=10.4, polarization="parallel"), TAUS)
    assert par[len(TAUS) // 2] == pytest.approx(0.0, abs=1e-9)


def test_grid_must_reach_twice_the_delay():
    with pytest.raises(ValueError):
        cs.hom_g2(PARAMS, RABI, SETUP, np.linspace(-15.0, 15.0, 301))


def test_side_structure_against_independent_route():
    """Three-peak values recomputed with an ODE-propagated g1/g2 instead of
    the production eigen-decomposition."""
    r = 0.3
    setup = HomSetup(delay=10.4, splitter_ratio=r)
    check_taus = np.array([0.0, setup.delay, 2.0 * setup.delay])
    par, perp = cs.hom_pair(PARAMS, RABI, setup, TAUS)

    def ode_g2(tau):
        if tau == 0.0:
            return 0.0
        from cohscat.emitter import bloch_system

        a_mat, b_vec = bloch_system(PARAMS, RABI)
        sol = solve_ivp(
            lambda t, x: a_mat @ x + b_vec, (0.0, abs(tau)), [0.0, 0.0, -1.0],
            method="DOP853", rtol=1e-12, atol=1e-14,
        )
        x_ss = np.linalg.solve(a_mat, -b_vec)
        return (1.0 + sol.y[2, -1]) / (1.0 + x_ss[2])

    def ode_g1(tau):
        u, v, w, _ = cs.steady_state(PARAMS, RABI)
        rho_ee = (1.0 + w) / 2.0
        x0 = np.array([0.0, 0.0, rho_ee, (u + 1j * v) / 2.0], dtype=complex)
        if tau == 0.0:
            return 1.0
        lio = liouvillian_reference(PARAMS.t1, PARAMS.t2, 0.0, RABI)
        sol = solve_ivp(
            lambda t, y: lio @ y, (0.0, abs(tau)), x0, method="DOP853", rtol=1e-12, atol=1e-14
        )
        return sol.y[2, -1] / rho_ee

    t = 1.0 - r

    def perp_ordered(tau):
        return (
            2.0 * r * t * ode_g2(tau)
            + r ** 2 * ode_g2(tau - setup.delay)
            + t ** 2 * ode_g2(tau + setup.delay)
        )

    for tau in check_taus:
        # the recorded trace folds both detector orderings
        perp_ref = (perp_ordered(tau) + perp_ordered(-tau)) / 2.0
        par_ref = perp_ref - 2.0 * r * t * abs(ode_g1(tau)) ** 2
        i = int(np.argmin(np.abs(TAUS - tau)))
        assert perp[i] == pytest.approx(perp_ref, abs=1e-8)
        assert par[i] == pytest.approx(max(par_ref, 0.0), abs=1e-8)

    # folded side dips of depth (R^2 + T^2)/2 sit at both -+ the delay
    i_minus = int(np.argmin(np.abs(TAUS + setup.delay)))
    i_plus = int(np.argmin(np.abs(TAUS - setup.delay)))
    depth = (r ** 2 + t ** 2) / 2.0
    assert perp[i_plus] == pytest.approx(1.0 - depth, abs=1e-6)
    assert perp[i_minus] == pytest.approx(1.0 - depth, abs=1e-6)


def test_unbalanced_side_dips_fold_on_an_asymmetric_grid():
    # The fold is part of the closed form, so it needs no sign-symmetric
    # grid: both side dips of an r = 0.3 splitter have depth (R^2 + T^2)/2,
    # not the ordered R^2 and T^2.
    r = 0.3
    setup = HomSetup(delay=10.4, splitter_ratio=r)
    taus = np.linspace(-25.0, 30.0, 2201)
    _, perp = cs.hom_pair(PARAMS, RABI, setup, taus)
    depth = (r ** 2 + (1.0 - r) ** 2) / 2.0
    for tau in (-setup.delay, setup.delay):
        i = int(np.argmin(np.abs(taus - tau)))
        assert perp[i] == pytest.approx(1.0 - depth, abs=1e-6)


def test_visibility_peak_and_tail():
    par, perp = cs.hom_pair(PARAMS, RABI, SETUP, TAUS)
    vis = cs.visibility(par, perp)
    mid = len(TAUS) // 2
    assert vis[mid] == pytest.approx(1.0, abs=1e-6)
    assert np.all((vis >= 0.0) & (vis <= 1.0))
    assert np.max(np.abs(vis - vis[::-1])) < 1e-12
    offset = cs.rrs_fraction(PARAMS, RABI)  # the plateau of g1
    tail = vis[int(np.argmin(np.abs(TAUS - 24.0)))]
    assert tail == pytest.approx(offset ** 2 / 2.0, abs=1e-6)


def test_visibility_reads_zero_where_the_orthogonal_trace_vanishes():
    zero = np.zeros_like(TAUS)
    assert np.all(cs.visibility(zero, zero) == 0.0)


def test_parallel_dip_at_roundoff_is_clipped_at_zero(monkeypatch):
    # A fully coherent source's parallel dip at tau = 0 is the difference of
    # two equal numbers (about -3e-16 at this drive); what roundoff leaves below 0 is
    # clipped, here forced to -1e-12 by a g1 that exceeds 1 by as much
    real = hom.g1
    monkeypatch.setattr(hom, "g1", lambda *a: real(*a) * (1.0 + 1e-12))
    par, _ = cs.hom_pair(PARAMS, RABI, SETUP, TAUS)
    assert par[len(TAUS) // 2] == 0.0 and np.all(par >= 0.0)


def test_fully_incoherent_source_shows_no_visibility():
    par, perp = cs.hom_pair(PARAMS, RABI, SETUP, TAUS)
    vis = cs.visibility(perp, perp)  # parallel == orthogonal when g1 = 0
    assert np.all(vis == 0.0)


def test_family_ordering_near_zero_lag():
    traces = [cs.visibility(*cs.hom_pair(PARAMS.with_coherence_ratio(r), RABI, SETUP, TAUS)) for r in (0.3, 1.0)]
    band = (np.abs(TAUS) > 1e-9) & (np.abs(TAUS) < 0.2)
    assert np.all(traces[1][band] >= traces[0][band])
    assert np.max(traces[1]) == pytest.approx(1.0, abs=1e-6)


def _smeared_visibility(fwhm):
    irf = cs.TimingResponse(fwhm_ns=fwhm)
    return cs.visibility(*(cs.convolve_timing(TAUS, t, irf) for t in cs.hom_pair(PARAMS, RABI, SETUP, TAUS)))


def test_irf_solution_reproduces_peak_visibility():
    fwhm = cs.solve_timing_for_visibility(TAUS, *cs.hom_pair(PARAMS, RABI, SETUP, TAUS), target=0.89)
    vis = _smeared_visibility(fwhm)
    assert float(np.max(vis)) == pytest.approx(0.89, abs=0.005)


def _peak_minus_target(fwhm, target=0.89):
    return float(np.max(_smeared_visibility(fwhm))) - target


def test_irf_root_matches_brentq_oracle():
    from scipy.optimize import brentq

    fwhm = cs.solve_timing_for_visibility(TAUS, *cs.hom_pair(PARAMS, RABI, SETUP, TAUS), target=0.89)
    lo = TAUS[1] - TAUS[0]
    hi = lo
    while _peak_minus_target(hi) > 0:
        hi *= 2.0
    oracle = brentq(_peak_minus_target, hi / 2.0, hi, xtol=1e-12)
    assert fwhm == pytest.approx(oracle, abs=1e-6)


def test_fig2e_irf_solve_evaluates_each_point_once(monkeypatch):
    from cohscat import cli
    from cohscat.scenario import Scenario

    pairs, widths = [], []
    real_pair, real_convolve = hom.hom_pair, hom.convolve_timing

    def counted_pair(*args, **kwargs):
        pairs.append(args)
        return real_pair(*args, **kwargs)

    def counted_convolve(taus, values, irf):
        widths.append(irf.fwhm_ns)
        return real_convolve(taus, values, irf)

    monkeypatch.setattr(hom, "hom_pair", counted_pair)
    monkeypatch.setattr(hom, "convolve_timing", counted_convolve)
    sc = Scenario()
    params = sc.emitter.resolve().with_coherence_ratio(1.0)
    pair = hom.hom_pair(params, sc.drive.resolve(), sc.hom.resolve(), cli._HOM_TAUS)
    cs.solve_timing_for_visibility(cli._HOM_TAUS, *pair, 0.89)
    assert len(pairs) == 1  # the IRF-free traces are built once, by the caller
    evaluated = widths[::2]
    assert widths[1::2] == evaluated  # both traces at each trial width
    assert 0 < len(evaluated) <= 15
    assert len(set(evaluated)) == len(evaluated)


def test_irf_solve_failures_raise(monkeypatch):
    coarse = np.linspace(-25.0, 25.0, 51)
    with pytest.raises(ValueError, match="too coarse"):
        cs.solve_timing_for_visibility(coarse, *cs.hom_pair(PARAMS, RABI, SETUP, coarse), target=0.89)
    monkeypatch.setattr(hom, "_IRF_FWHM_MAX", 0.05)
    with pytest.raises(ValueError, match="no IRF below"):
        cs.solve_timing_for_visibility(TAUS, *cs.hom_pair(PARAMS, RABI, SETUP, TAUS), target=0.89)
    for grid in (TAUS[::-1], TAUS[-1:]):
        with pytest.raises(ValueError, match="increasing"):
            cs.solve_timing_for_visibility(grid, *cs.hom_pair(PARAMS, RABI, SETUP, grid), target=0.89)


def test_irf_solve_refuses_a_descending_grid_as_a_grid_error():
    pair = cs.hom_pair(PARAMS, RABI, SETUP, TAUS[::-1])
    with pytest.raises(cs.GridError, match="tau grid must be increasing"):
        cs.solve_timing_for_visibility(TAUS[::-1], *pair, target=0.89)
