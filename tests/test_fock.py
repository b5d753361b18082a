import itertools
import math

import numpy as np
import pytest

import cohscat as cs
from cohscat.fock import FringeTable, single_photon_visibility
from conftest import (
    CircuitElement,
    FockState,
    apply_circuit,
    apply_element,
    circuit_unitary,
    engine_fringes,
    fit_fringe_curve_fit,
    permanent_amplitude,
)


def random_elements(rng, n_modes, n_el=6):
    els = []
    for _ in range(n_el):
        if rng.random() < 0.5:
            i, j = sorted(rng.choice(n_modes, size=2, replace=False))
            els.append(CircuitElement.coupler(rng.uniform(0.05, 0.95), int(i), int(j)))
        else:
            els.append(CircuitElement.phase(rng.uniform(0.0, 2.0 * math.pi), int(rng.integers(n_modes))))
    return els


def test_element_guards():
    with pytest.raises(ValueError):
        CircuitElement.coupler(0.0, 0, 1)
    with pytest.raises(ValueError):
        CircuitElement.coupler(0.5, 1, 1)
    el = CircuitElement.coupler(0.5, 0, 2)
    with pytest.raises(ValueError):
        el.matrix(2)
    u = el.matrix(3)
    assert np.allclose(u @ u.conj().T, np.eye(3), atol=1e-12)


def test_hom_bunching_at_balanced_coupler():
    state = FockState.from_photons([(0, 0), (1, 0)], n_modes=2)
    out = apply_element(state, CircuitElement.coupler(0.5, 0, 1))
    probs = out.mode_occupations()
    assert probs.get((1, 1), 0.0) <= 1e-12
    assert probs[(2, 0)] == pytest.approx(0.5, abs=1e-12)
    assert probs[(0, 2)] == pytest.approx(0.5, abs=1e-12)


def test_phase_on_empty_mode_is_identity():
    state = FockState.from_photons([(1, 0)], n_modes=2)
    out = apply_element(state, CircuitElement.phase(1.234, 0))
    assert out.amplitudes == state.amplitudes


def test_phase_doubles_on_two_photon_component():
    state = FockState.from_photons([(0, 0), (1, 0)], n_modes=2)
    bunched = apply_element(state, CircuitElement.coupler(0.5, 0, 1))
    phi = 0.7
    out = apply_element(bunched, CircuitElement.phase(phi, 0))
    cfg20 = ((0, 0), (0, 0))
    cfg02 = ((1, 0), (1, 0))
    ratio_before = bunched.amplitudes[cfg20] / bunched.amplitudes[cfg02]
    ratio_after = out.amplitudes[cfg20] / out.amplitudes[cfg02]
    assert ratio_after / ratio_before == pytest.approx(np.exp(2j * phi), abs=1e-12)


def test_permanent_amplitude_identity_and_hom():
    eye = np.eye(3)
    assert permanent_amplitude(eye, [1, 1, 0], [1, 1, 0]) == pytest.approx(1.0)
    assert permanent_amplitude(eye, [1, 1, 0], [1, 0, 1]) == pytest.approx(0.0)
    bs = CircuitElement.coupler(0.5, 0, 1).matrix(2)
    assert abs(permanent_amplitude(bs, [1, 1], [1, 1])) < 1e-12
    with pytest.raises(ValueError):
        permanent_amplitude(eye, [1, 1, 0], [1, 0, 0])


def test_permanent_matches_composed_apply_on_random_circuits():
    rng = np.random.default_rng(7)
    two_photon_configs = list(itertools.combinations_with_replacement(range(3), 2))
    worst = 0.0
    for _ in range(20):
        els = random_elements(rng, 3)
        u = circuit_unitary(els, 3)
        for inp in two_photon_configs:
            occ_in = [inp.count(m) for m in range(3)]
            state = apply_circuit(FockState.from_photons([(m, 0) for m in inp], 3), els)
            for outp in two_photon_configs:
                occ_out = [outp.count(m) for m in range(3)]
                cfg = tuple(sorted((m, 0) for m in outp))
                amp = state.amplitudes.get(cfg, 0.0)
                worst = max(worst, abs(amp - permanent_amplitude(u, occ_in, occ_out)))
    assert worst < 1e-10


def test_three_photons_supported_and_unitary():
    rng = np.random.default_rng(3)
    els = random_elements(rng, 3)
    state = FockState.from_photons([(0, 0), (1, 0), (2, 0)], 3)
    out = apply_circuit(state, els)
    assert sum(abs(a) ** 2 for a in out.amplitudes.values()) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(ValueError):
        FockState.from_photons([(0, 0)] * 4, 3)


def test_apply_composition_equals_composed_unitary():
    rng = np.random.default_rng(11)
    els = random_elements(rng, 3, n_el=8)
    u = circuit_unitary(els, 3)
    state = apply_circuit(FockState.from_photons([(0, 0), (1, 0)], 3), els)
    for outp in itertools.combinations_with_replacement(range(3), 2):
        occ_out = [outp.count(m) for m in range(3)]
        cfg = tuple(sorted((m, 0) for m in outp))
        assert state.amplitudes.get(cfg, 0.0) == pytest.approx(
            permanent_amplitude(u, [1, 1, 0], occ_out), abs=1e-10
        )


def test_fringes_match_engine_at_unbalanced_couplers():
    rng = np.random.default_rng(23)
    phi = np.linspace(0.0, 2.0 * math.pi, 41)
    for _ in range(8):
        r1, r2 = rng.uniform(0.05, 0.95, size=2)
        src = cs.SourceModel(overlap=rng.uniform(0.05, 0.95), multiphoton_g=rng.uniform(0.01, 0.5))
        for kind in ("single", "dual"):
            table = cs.mzi_fringes(src, r1, r2, phi, input_kind=kind)
            p0, p1, pc = engine_fringes(src, r1, r2, phi, input_kind=kind)
            assert np.max(np.abs(table.p_out0 - p0)) < 1e-12
            assert np.max(np.abs(table.p_out1 - p1)) < 1e-12
            assert np.max(np.abs(table.p_coincidence - pc)) < 1e-12


def test_mzi_single_photon_swap_and_fringe():
    src = cs.SourceModel(overlap=1.0)
    phi = np.linspace(0.0, 2.0 * math.pi, 161)
    table = cs.mzi_fringes(src, 0.5, 0.5, phi, input_kind="single")
    assert table.p_out0[0] == pytest.approx(0.0, abs=1e-12)
    assert table.p_out1[0] == pytest.approx(1.0, abs=1e-12)
    fit = cs.fit_fringe(table, harmonic=1)
    assert fit.visibility == pytest.approx(1.0, abs=1e-9)
    assert fit.frequency == pytest.approx(1.0, abs=1e-9)


def test_mzi_ideal_dual_input():
    src = cs.SourceModel(overlap=1.0, multiphoton_g=0.0)
    phi = np.linspace(0.0, 2.0 * math.pi, 161)
    table = cs.mzi_fringes(src, 0.5, 0.5, phi, input_kind="dual")
    assert table.p_coincidence[0] == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(table.p_coincidence, np.cos(phi) ** 2, atol=1e-9)
    fit_d = cs.fit_fringe(table, harmonic=2)
    single = cs.mzi_fringes(src, 0.5, 0.5, phi, input_kind="single")
    fit_s = cs.fit_fringe(single, harmonic=1)
    assert fit_d.frequency / fit_s.frequency == pytest.approx(2.0, abs=0.02)


def test_probabilities_complete_and_unit(rng=None):
    src = cs.SourceModel(overlap=0.7, multiphoton_g=0.1)
    phi = np.linspace(0.0, 2.0 * math.pi, 81)
    table = cs.mzi_fringes(src, 0.4, 0.6, phi, input_kind="dual")
    assert np.all((table.p_coincidence >= 0.0) & (table.p_coincidence <= 1.0))
    assert np.all((table.p_out0 >= 0.0) & (table.p_out0 <= 1.0))
    assert np.allclose(table.p_out0 + table.p_out1, 1.0, atol=1e-9)


def test_distinguishable_pair_equals_single_photon_products():
    phi = np.linspace(0.0, 2.0 * math.pi, 81)
    src = cs.SourceModel(overlap=0.0, multiphoton_g=0.0)
    table = cs.mzi_fringes(src, 0.5, 0.5, phi, input_kind="dual")
    # independent-photon oracle: 2x2 transfer matrix products
    bs = np.array([[1.0, 1.0j], [1.0j, 1.0]]) / math.sqrt(2.0)
    for k, p in enumerate(phi):
        u = bs @ np.diag([np.exp(1j * p), 1.0]) @ bs
        pa0 = abs(u[0, 0]) ** 2
        pb0 = abs(u[0, 1]) ** 2
        coin = pa0 * (1.0 - pb0) + (1.0 - pa0) * pb0
        assert table.p_coincidence[k] == pytest.approx(coin, abs=1e-10)


def test_fringe_doubling_for_any_mixture_balanced():
    phi = np.linspace(0.0, 2.0 * math.pi, 128, endpoint=False)
    for m in (0.25, 0.9):
        src = cs.SourceModel(overlap=m, multiphoton_g=0.167)
        table = cs.mzi_fringes(src, 0.5, 0.5, phi, input_kind="dual")
        comps = np.fft.rfft(table.p_coincidence) / len(phi)
        assert abs(comps[1]) < 1e-9  # no frequency-1 leakage for balanced couplers
        assert abs(comps[2]) > 0.01


def test_mixture_minimum_matches_closed_form_oracle():
    m, g = 0.90, 0.167
    src = cs.SourceModel(overlap=m, multiphoton_g=g)
    phi = np.linspace(0.0, 2.0 * math.pi, 161)
    table = cs.mzi_fringes(src, 0.5, 0.5, phi, input_kind="dual")
    oracle = (
        m * np.cos(phi) ** 2
        + (1.0 - m) * (1.0 - np.sin(phi) ** 2 / 2.0)
        + 2.0 * g * (np.sin(phi) ** 2 / 2.0)
    ) / (1.0 + 2.0 * g)
    assert np.max(np.abs(table.p_coincidence - oracle)) < 1e-6
    assert table.p_coincidence.min() > 0.0
    assert table.p_coincidence.min() == pytest.approx(oracle.min(), abs=1e-6)


def test_solve_coupler_reflectivity_for_target_visibility():
    r = cs.solve_coupler_reflectivity(0.98)
    assert 0.5 < r < 1.0
    assert single_photon_visibility(r) == pytest.approx(0.98, abs=1e-12)
    phi = np.linspace(0.0, 2.0 * math.pi, 161)
    table = cs.mzi_fringes(cs.SourceModel(overlap=1.0), r, r, phi, input_kind="single")
    fit = cs.fit_fringe(table, harmonic=1)
    assert fit.visibility == pytest.approx(0.98, abs=0.005)
    assert cs.solve_coupler_reflectivity(1.0) == 0.5


def test_detuned_couplers_keep_frequency_doubling():
    r = cs.solve_coupler_reflectivity(0.98)
    src = cs.SourceModel(overlap=0.90, multiphoton_g=0.167)
    phi = np.linspace(0.0, 2.0 * math.pi, 161)
    dual = cs.mzi_fringes(src, r, r, phi, input_kind="dual")
    single = cs.mzi_fringes(src, r, r, phi, input_kind="single")
    fit_d = cs.fit_fringe(dual, harmonic=2)
    fit_s = cs.fit_fringe(single, harmonic=1)
    assert fit_d.frequency / fit_s.frequency == pytest.approx(2.0, abs=0.02)
    assert dual.p_coincidence.min() > 0.0


def test_fringe_fit_guards():
    phi = np.linspace(0.0, 2.0 * math.pi, 161)
    table = FringeTable(phi=phi, p_out0=np.cos(phi) ** 2, p_out1=np.sin(phi) ** 2,
                        p_coincidence=np.zeros_like(phi))
    with pytest.raises(ValueError):
        cs.fit_fringe(table, harmonic=3)
    with pytest.raises(ValueError):
        cs.mzi_fringes(cs.SourceModel(overlap=1.0), 0.5, 0.5, np.linspace(0, 1.0, 9))


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.5, math.nan])
def test_mzi_fringes_reject_reflectivity_outside_unit_interval(bad):
    phi = np.linspace(0.0, 2.0 * math.pi, 33)
    for r1, r2 in ((bad, 0.5), (0.5, bad)):
        with pytest.raises(ValueError, match="coupler reflectivity must lie in"):
            cs.mzi_fringes(cs.SourceModel(), r1, r2, phi)


@pytest.mark.parametrize("input_kind, harmonic, column",
                         [("single", 1, "p_out0"), ("dual", 2, "p_coincidence")])
def test_linear_fringe_fit_matches_curve_fit_oracle(rng, input_kind, harmonic, column):
    phi = np.linspace(0.0, 2.0 * math.pi, 161)
    for _ in range(20):
        src = cs.SourceModel(overlap=rng.uniform(0.0, 1.0), multiphoton_g=rng.uniform(0.0, 0.5))
        table = cs.mzi_fringes(src, 0.5, 0.5, phi, input_kind=input_kind)
        fit = cs.fit_fringe(table, harmonic=harmonic)
        got = (fit.visibility, fit.frequency, fit.offset, fit.amplitude)
        assert got == pytest.approx(fit_fringe_curve_fit(table, harmonic, column), abs=1e-12)
        assert fit.frequency == harmonic
        assert fit.residual_norm < 1e-12


def test_fringe_fit_reports_the_dominant_harmonic():
    phi = np.linspace(0.0, 2.0 * math.pi, 161)
    y = 0.5 + 0.1 * np.cos(phi + 0.3) + 0.3 * np.cos(2.0 * phi - 1.1)
    table = FringeTable(phi=phi, p_out0=y, p_out1=1.0 - y, p_coincidence=y)
    fit = cs.fit_fringe(table, harmonic=1)
    assert fit.frequency == 2.0
    assert fit.offset == pytest.approx(0.5, abs=1e-14)
    assert fit.amplitude == pytest.approx(0.3, abs=1e-14)
    assert fit.phase == pytest.approx(-1.1, abs=1e-13)
    assert fit.visibility == pytest.approx(0.6, abs=1e-13)
    # the power left outside the dominant harmonic
    assert fit.residual_norm == pytest.approx(np.linalg.norm(0.1 * np.cos(phi + 0.3)), abs=1e-13)


def test_coupler_reflectivity_round_trips_through_visibility():
    for v in np.concatenate([np.linspace(0.001, 1.0, 1000), [1e-6, 1e-3, 0.5, 0.98, 1.0]]):
        r = cs.solve_coupler_reflectivity(float(v))
        assert 0.5 <= r < 1.0
        assert single_photon_visibility(r) == pytest.approx(v, abs=1e-12)
    for bad in (0.0, -0.1, 1.0 + 1e-12):
        with pytest.raises(ValueError):
            cs.solve_coupler_reflectivity(bad)
