import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
import mpmath
from scipy.linalg import expm

import cohscat as cs
from cohscat import emitter
from cohscat.emitter import _expm, _generator, _propagate, bloch_system
from cohscat.scenario import EmitterBlock
from conftest import _bloch_rhs, _evolve_array, expm_degree13

GROUND = [0.0, 0.0, -1.0, 1.0, 0.0]  # (u, v, w, tr, n); see emitter._generator


def _bloch_path(params, pulse, x0, t_grid) -> np.ndarray:
    """(u, v, w) from ``_propagate`` on t_grid, one row per time."""
    return _propagate(params, pulse, x0, np.asarray(t_grid, dtype=float))[:3].T


def _constant(rabi: float, t_end: float):
    """A drive held at rabi over [0, t_end]: a square pulse from 0 that
    outlasts the grid, so every interval is one exact exponential."""
    return cs.Pulse(rabi * 2.0 * t_end, 2.0 * t_end, "square")


def test_params_validation():
    with pytest.raises(ValueError):
        cs.EmitterParams(t1=0.0, t2=0.1)
    with pytest.raises(ValueError):
        cs.EmitterParams(t1=1.0, t2=2.5)  # t2 > 2*t1
    with pytest.raises(ValueError):
        cs.EmitterParams(t1=1.0, t2=0.0)


def test_linewidth_inverts_exactly():
    de = 6.14
    params = EmitterBlock(linewidth_uev=de).resolve()
    assert abs(params.t2 - 2.0 * cs.HBAR_UEV_NS / de) < 1e-12
    assert abs(params.linewidth_uev() - de) < 1e-12
    assert abs(params.t2 - 2.0 * params.t1) < 1e-12


def _rho_ee(params, rabi) -> float:
    """(1 + w) / 2 of the closed-form steady state."""
    return (1.0 + cs.steady_state(params, rabi)[2]) / 2.0


def test_bloch_state_invariants(rng):
    # the closed form is the stationary vector (u, v, w, 1), inside the
    # Bloch ball, whose rho_ee is steady_rho_ee
    for _ in range(200):
        t1 = rng.uniform(0.05, 3.0)
        params = cs.EmitterParams(t1=t1, t2=rng.uniform(0.05, 1.0) * 2.0 * t1, detuning=rng.uniform(-5.0, 5.0))
        rabi = 10.0 ** rng.uniform(-3.0, 3.0)
        x = cs.steady_state(params, rabi)
        assert x.shape == (4,) and x[3] == 1.0
        assert x[:3] @ x[:3] <= 1.0
        assert (1.0 + x[2]) / 2.0 == pytest.approx(emitter.steady_rho_ee(params, rabi), rel=1e-12)


def test_steady_rho_ee_saturates_where_s_overflows():
    # s overflows to inf; rho_ee is then its limit 0.5, not inf / inf
    params = cs.EmitterParams(t1=1.0, t2=0.6)
    with np.errstate(over="ignore"):
        rho = emitter.steady_rho_ee(params, np.array([1e200, 1e154, 1.0, 0.0]))
    assert rho.tolist() == [0.5, 0.5, 0.5 * 0.6 / 1.6, 0.0]
    # so a power far past the knee counts the saturated emission, and warns nothing
    gating = cs.GatingModel(laser_leakage=1e-300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        counts = gating.counts(params, np.array([1.7e308]))
    saturated = gating.charge_occupation * gating.collection_efficiency * 0.5 / params.t1 * 1e9
    assert counts.tolist() == [saturated + 1e-300 * 1.7e308]


def test_steady_state_undriven():
    params = cs.EmitterParams(t1=1.0, t2=0.6)
    assert cs.steady_state(params, 0.0).tolist() == [0.0, 0.0, -1.0, 1.0]
    assert _rho_ee(params, 0.0) == 0.0


def test_steady_state_saturation_limit():
    params = cs.EmitterParams(t1=1.0, t2=0.6)
    rabi = math.sqrt(1e12 / (params.t1 * params.t2))  # s = 1e12
    assert _rho_ee(params, rabi) == pytest.approx(0.5, abs=1e-6)


def test_steady_state_s_equals_one_against_ode():
    params = cs.EmitterParams(t1=1.0, t2=0.6)
    rabi = math.sqrt(1.0 / (params.t1 * params.t2))
    st = cs.steady_state(params, rabi)
    assert _rho_ee(params, rabi) == pytest.approx(0.25, abs=1e-12)
    # Independent check: integrate the equations of motion to 50 lifetimes.
    t_end = 50.0 * params.t1
    final = _bloch_path(params, _constant(rabi, t_end), GROUND, [0.0, t_end])[-1]
    assert final == pytest.approx(st[:3], abs=1e-8)


def test_steady_state_rejects_bad_rabi():
    params = cs.EmitterParams(t1=1.0, t2=0.6)
    with pytest.raises(ValueError):
        cs.steady_state(params, float("nan"))
    with pytest.raises(ValueError):
        cs.steady_state(params, -1.0)


def test_rho_ee_saturation_curve_shape():
    params = cs.EmitterParams(t1=0.7, t2=1.1)
    for s in (0.1, 1.0, 1.857, 25.0):
        rabi = math.sqrt(s / (params.t1 * params.t2))
        assert _rho_ee(params, rabi) == pytest.approx(s / (2.0 * (1.0 + s)), abs=1e-12)
    # intensity reaches 0.65 of its asymptote at s = 1.857
    rabi = math.sqrt(1.857 / (params.t1 * params.t2))
    assert _rho_ee(params, rabi) / 0.5 == pytest.approx(0.65, abs=1e-3)


def test_evolve_free_decay():
    params = cs.EmitterParams(t1=0.8, t2=1.2)
    ts = np.linspace(0.0, 6.0, 61)
    states = _bloch_path(params, _constant(0.0, 6.0), [0.0, 0.0, 1.0, 1.0, 0.0], ts)
    w_exact = 2.0 * np.exp(-ts / params.t1) - 1.0
    for (u, v, w), w_ref in zip(states, w_exact):
        assert u == 0.0 and v == 0.0
        assert w == pytest.approx(w_ref, abs=1e-8)


def test_evolve_impulsive_pi_pulse():
    params = cs.EmitterParams(t1=1.0, t2=2.0)
    dur = params.t1 / 1000.0
    pulse = cs.Pulse(math.pi, dur, "square")
    w = _bloch_path(params, pulse, GROUND, [0.0, dur])[-1, 2]
    assert (1.0 + w) / 2.0 >= 0.999


def test_evolve_converges_to_steady_state():
    params = cs.EmitterParams(t1=1.0, t2=1.5)
    rabi = 2.0
    final = _bloch_path(params, _constant(rabi, 50.0), GROUND, [0.0, 50.0])[-1]
    assert np.allclose(final, cs.steady_state(params, rabi)[:3], atol=1e-8)


def test_evolve_preserves_bloch_ball(rng):
    params = cs.EmitterParams(t1=1.0, t2=1.3)
    pulses = [_constant(8.0, 4.0), cs.Pulse(math.pi, 0.01, "square"), cs.Pulse(2.0 * math.pi, 0.05)]
    ts = np.linspace(0.0, 4.0, 201)
    for pulse in pulses:
        states = _bloch_path(params, pulse, GROUND, ts)
        assert np.all(np.sum(states ** 2, axis=1) <= 1.0 + 1e-7)


@pytest.mark.parametrize("t0, duration, t_end, points", [(0.05, 0.5, 2.0, 5), (0.13, 0.3, 4.0, 201)])
def test_evolve_square_edges_off_grid(t0, duration, t_end, points):
    # Square edges that fall between grid points split the integration;
    # the states must match a grid that samples both edges. The pulse
    # starts at window time 0, so the grid starts at -t0.
    params = cs.EmitterParams(t1=1.0, t2=2.0)
    pulse = cs.Pulse(2.0 * math.pi * duration, duration, "square")
    ts = np.linspace(0.0, t_end, points) - t0
    with_edges = np.union1d(ts, [0.0, duration])
    assert len(with_edges) == points + 2
    coarse = _bloch_path(params, pulse, GROUND, ts)
    fine = _bloch_path(params, pulse, GROUND, with_edges)[np.isin(with_edges, ts)]
    assert np.max(np.abs(coarse - fine)) < 1e-8


def test_bloch_rhs_matches_bloch_system(rng):
    for _ in range(20):
        t1 = rng.uniform(0.1, 2.0)
        params = cs.EmitterParams(t1=t1, t2=rng.uniform(0.05, 1.0) * 2.0 * t1, detuning=rng.normal())
        rabi = rng.uniform(0.0, 10.0)
        a_mat, b_vec = bloch_system(params, rabi)
        rhs = _bloch_rhs(params, _constant(rabi, 5.0))
        x = rng.uniform(-1.0, 1.0, size=3)
        t = rng.uniform(0.0, 5.0)
        assert np.allclose(rhs(t, x), a_mat @ x + b_vec, rtol=0.0, atol=1e-13)
        with_counter = rhs(t, np.append(x, rng.uniform()))
        assert np.allclose(with_counter[:3], a_mat @ x + b_vec, rtol=0.0, atol=1e-13)
        assert with_counter[3] == pytest.approx((1.0 + x[2]) / (2.0 * t1), rel=1e-15)
        # the linear generator on (u, v, w, tr, n)
        flow = _generator(params, rabi) @ np.append(x, [1.0, rng.uniform()])
        assert np.allclose(flow[[0, 1, 2, 4]], with_counter, rtol=0.0, atol=1e-13)
        assert flow[3] == 0.0


GAUSSIAN = cs.Pulse(2.2 * math.pi, 0.3)  # centered at window time 0.637
SQUARE = cs.Pulse(9.0 * 0.33, 0.33, "square")


@pytest.mark.parametrize(
    "params, pulse, t_grid",
    [
        (cs.EmitterParams(t1=1.0, t2=2.0), GAUSSIAN, np.linspace(0.0, 4.0, 41) - 0.363),
        (cs.EmitterParams(t1=1.0, t2=2.0), GAUSSIAN, [-0.363, 0.137, 2.637]),
        (cs.EmitterParams(t1=1.0, t2=2.0), SQUARE, np.linspace(0.0, 4.0, 41) - 0.41),
        (cs.EmitterParams(t1=1.0, t2=2.0, detuning=3.0), GAUSSIAN, np.linspace(0.0, 4.0, 41) - 0.363),
        (cs.EmitterParams(t1=0.7, t2=0.5), SQUARE, np.linspace(0.0, 4.0, 41) - 0.41),
        (cs.EmitterParams(t1=0.7, t2=0.5, detuning=-1.5), _constant(4.0, 4.0), np.linspace(0.0, 4.0, 41)),
        (EmitterBlock().resolve(), cs.Pulse(3.0 * math.pi, 0.057), np.linspace(0.0, 1.0, 101) - 0.179),
    ],
    ids=["gaussian", "gaussian-coarse", "square", "detuned", "dephased", "cw", "sim-rabi-pulse"],
)
def test_evolve_matches_dop853_oracle(params, pulse, t_grid):
    ours = _bloch_path(params, pulse, GROUND, t_grid)
    oracle = _evolve_array(params, pulse, [0.0, 0.0, -1.0], np.asarray(t_grid), 1e-12).T
    assert np.max(np.abs(ours - oracle)) < 1e-8


@pytest.mark.parametrize(
    "area, fwhm, shape, message",
    [
        (1.0, float("nan"), "gaussian", "pulse_fwhm must be finite"),
        (1.0, float("inf"), "gaussian", "pulse_fwhm must be finite"),
        (1.0, float("nan"), "square", "pulse_fwhm must be finite"),
        (float("nan"), 0.1, "gaussian", "pulse_area must be finite"),
        (float("inf"), 0.1, "square", "pulse_area must be finite"),
        (-1.0, 0.1, "gaussian", "pulse_area must be >= 0"),
        (1.0, 0.0, "square", "pulse_fwhm must be > 0"),
        (1.0, 0.1, "cw", "unknown pulse shape"),
    ],
    ids=["nan-fwhm", "inf-fwhm", "nan-square-fwhm", "nan-area", "inf-area", "negative-area", "zero-fwhm",
         "unknown-shape"],
)
def test_pulse_rejects_bad_values(area, fwhm, shape, message):
    # a NaN width would leave the propagator no interval to drive
    with pytest.raises(ValueError, match=message):
        cs.Pulse(area, fwhm, shape)


def test_split_steps_give_up_loudly(monkeypatch):
    monkeypatch.setattr(emitter, "_MAX_DOUBLINGS", 2)
    monkeypatch.setattr(emitter, "_SPLIT_TOL", 1e-30)
    with pytest.raises(cs.IntegrationError):
        _propagate(cs.EmitterParams(t1=1.0, t2=2.0), GAUSSIAN, GROUND, np.array([0.0, 3.0]))


def test_expm_matches_scipy(rng):
    stacks = [rng.normal(size=(40, 5, 5)) * scale for scale in (1e-3, 1.0, 3.0)]
    stacks.append(rng.normal(size=(40, 3, 3)) + 1j * rng.normal(size=(40, 3, 3)))
    # generators over long times: large norms, many squarings
    params = cs.EmitterParams(t1=0.3, t2=0.5, detuning=2.0)
    stacks.append(np.multiply.outer(np.geomspace(1e-4, 300.0, 40), _generator(params, 7.0)))
    for stack in stacks:
        ours = _expm(stack)
        for m, e in zip(stack, ours):
            ref = expm(m)
            assert np.max(np.abs(e - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))
    assert np.array_equal(_expm(np.zeros((4, 4))), np.eye(4))


def _expm_stacks(rng, count=12):
    """Real 4x4, complex 3x3 and Bloch-generator 5x5 stacks."""
    params = cs.EmitterParams(t1=0.3, t2=0.5, detuning=2.0)
    return [
        rng.normal(size=(count, 4, 4)),
        rng.normal(size=(count, 3, 3)) + 1j * rng.normal(size=(count, 3, 3)),
        np.array([_generator(params, rabi) for rabi in rng.uniform(0.0, 30.0, count)]),
    ]


def _largest_norm(stack) -> float:
    return float(np.abs(stack).sum(axis=-2).max())


@pytest.mark.parametrize("degree", [3, 5, 7, 9])
def test_expm_degree_follows_the_norm(monkeypatch, rng, degree):
    used = []

    class Recording(dict):
        def __getitem__(self, m):
            used.append(m)
            return super().__getitem__(m)

    monkeypatch.setattr(emitter, "_PADE", Recording(emitter._PADE))
    theta = emitter._THETA[degree]
    following = {3: 5, 5: 7, 7: 9, 9: 13}[degree]
    for stack in _expm_stacks(rng):
        # one matrix just below theta, the others spread beneath it
        stack = stack * (theta / _largest_norm(stack)) * rng.uniform(0.1, 1.0, len(stack))[:, None, None]
        stack[0] *= theta * (1.0 - 1e-12) / _largest_norm(stack[0])
        got = _expm(stack)
        assert used.pop() == degree
        # the tolerance of test_step_exponentials_match_expm
        with mpmath.workdps(30):
            for m, e in zip(stack, got):
                exact = np.array(mpmath.expm(mpmath.matrix(m.tolist())).tolist(), dtype=stack.dtype)
                np.testing.assert_allclose(e, exact, rtol=0, atol=1e-14)
        _expm(stack * (1.0 + 1e-9))
        assert used.pop() == following


def test_expm_above_theta_9_is_the_degree_13_evaluation(rng):
    theta = emitter._THETA[9]
    stacks = [stack * (theta / _largest_norm(stack)) * (1.0 + 1e-12) for stack in _expm_stacks(rng)]
    stacks += [stack * 50.0 for stack in _expm_stacks(rng)]
    # generators over long times, like the drive-free decay and the exact
    # intervals: norms up to 2^13 theta_13, densely, so every squaring count
    params = cs.EmitterParams(t1=0.1072, t2=0.2144)
    stacks.append(np.multiply.outer(np.geomspace(1e-4, 300.0, 400), _generator(params, 7.0)))
    for stack in stacks:
        assert _largest_norm(stack) > theta
        assert _expm(stack).tobytes() == expm_degree13(stack).tobytes()


def test_pulse_areas_match_quadrature():
    # Over its window a square pulse holds its whole area and a gaussian
    # the share within _WINDOW_SIGMAS of its center; over its reach, both
    # hold the whole area.
    gaussian_share = math.erf(emitter._WINDOW_SIGMAS / math.sqrt(2.0))
    for pulse, share in ((cs.Pulse(1.2, 0.4, "square"), 1.0), (cs.Pulse(0.71 * math.pi, 0.057), gaussian_share)):
        for (lo, hi), expected in (((0.0, 2.0 * pulse.half_window), share * pulse.area), (pulse.reach, pulse.area)):
            area, _ = quad(lambda t: float(pulse.omega(t)), lo, hi, limit=200)
            assert area == pytest.approx(expected, rel=1e-12)


def test_rrs_fraction_examples():
    bulk = cs.EmitterParams(t1=1.0, t2=0.6)
    assert cs.rrs_fraction(bulk, 0.0) == pytest.approx(0.30, abs=1e-12)
    ideal = cs.EmitterParams(t1=1.0, t2=2.0)
    assert cs.rrs_fraction(ideal, 0.0) == pytest.approx(1.0, abs=1e-12)
    rabi = math.sqrt(1.0 / (ideal.t1 * ideal.t2))  # s = 1
    assert cs.rrs_fraction(ideal, rabi) == pytest.approx(0.5, abs=1e-12)


def test_rrs_fraction_matches_steady_state_ratio(rng):
    for _ in range(100):
        t1 = rng.uniform(0.05, 3.0)
        t2 = rng.uniform(0.05, 1.0) * 2.0 * t1
        rabi = rng.uniform(0.0, 20.0)
        params = cs.EmitterParams(t1=t1, t2=t2)
        u, v, _, _ = cs.steady_state(params, rabi)
        rho_ee = _rho_ee(params, rabi)
        ratio = (u ** 2 + v ** 2) / 4.0 / rho_ee if rho_ee > 0 else t2 / (2 * t1)
        assert cs.rrs_fraction(params, rabi) == pytest.approx(ratio, abs=1e-10)


def test_rrs_fraction_monotone_and_bounded():
    params = cs.EmitterParams(t1=1.0, t2=1.1)
    omegas = np.linspace(0.0, 30.0, 400)
    vals = np.array([cs.rrs_fraction(params, w) for w in omegas])
    assert np.all(np.diff(vals) < 0.0)
    assert np.all(vals > 0.0)
    assert vals[0] == pytest.approx(params.t2 / (2.0 * params.t1), abs=1e-12)


def test_bloch_system_steady_state_consistency():
    params = cs.EmitterParams(t1=0.9, t2=1.0, detuning=2.5)
    rabi = 3.0
    a_mat, b_vec = bloch_system(params, rabi)
    x = cs.steady_state(params, rabi)[:3]
    assert np.allclose(a_mat @ x + b_vec, 0.0, atol=1e-13)


def test_saturation_curve_gate_off_is_linear():
    params = cs.EmitterParams(t1=1.0, t2=0.6)
    gating = cs.GatingModel(charge_occupation=0.9, laser_leakage=12.5, collection_efficiency=0.1,
                            rabi_per_sqrt_power=1.0)
    powers = np.linspace(0.0, 50.0, 11)
    counts = gating.counts(params, powers, gate_on=False)
    assert counts == pytest.approx(12.5 * powers, rel=1e-12)
    assert counts[0] == 0.0


def test_saturation_curve_occupation_zero_kills_emission():
    params = cs.EmitterParams(t1=1.0, t2=0.6)
    gating = cs.GatingModel(charge_occupation=0.0, laser_leakage=3.0, collection_efficiency=0.1,
                            rabi_per_sqrt_power=1.0)
    assert gating.counts(params, 4.0, gate_on=True) == pytest.approx(3.0 * 4.0, rel=1e-12)
    # with no leakage given, none can be solved for a contrast
    with pytest.raises(ValueError, match="detected emission must be > 0"):
        dataclasses.replace(gating, laser_leakage=None).leakage(params)


def test_saturation_curve_monotone_and_contrast():
    params = EmitterBlock().resolve()
    k = 2.0
    gating = cs.GatingModel(charge_occupation=1.0, collection_efficiency=0.05, rabi_per_sqrt_power=k,
                            contrast=500.0)
    p_knee = 1.0 / (k ** 2 * params.t1 * params.t2)
    assert gating.knee_power(params) == p_knee
    powers = np.linspace(0.0, 5.0 * p_knee, 200)
    counts = gating.counts(params, powers)
    assert np.all(np.diff(counts) >= -1e-9)
    gated = gating.counts(params, p_knee, gate_on=True)
    laser = gating.counts(params, p_knee, gate_on=False)
    assert (gated - laser) / laser == pytest.approx(500.0, rel=0.01)
    # the solved leakage, given explicitly, leaves the counts as they are
    explicit = dataclasses.replace(gating, laser_leakage=gating.leakage(params))
    assert np.array_equal(explicit.counts(params, powers), counts)
    # point by point the closed-form steady state
    rho = np.array([_rho_ee(params, k * math.sqrt(p)) for p in powers])
    expected = 0.05 * rho / params.t1 * 1e9 + gating.leakage(params) * powers
    assert counts == pytest.approx(expected, rel=1e-14)
