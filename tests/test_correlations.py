import time
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

import cohscat as cs
from cohscat.correlations import _READ_EE, _READ_GE, GridError, _g1_start, _propagate_modes, _regression_setup, _uniform_step
from cohscat.scenario import DriveBlock, EmitterBlock, HomBlock
from conftest import g2_resonant_closed_form, liouvillian_reference


def test_g2_antibunching_at_zero():
    params = cs.EmitterParams(t1=0.3, t2=0.5)
    assert cs.g2(params, 4.0, np.array([0.0]))[0] == 0.0


def test_g2_factorizes_at_large_tau():
    params = cs.EmitterParams(t1=1.0, t2=1.4)
    assert cs.g2(params, 2.0, np.array([80.0]))[0] == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("omega_t1", [0.1, 1.0, 10.0])
def test_g2_matches_resonant_closed_form(omega_t1):
    t1 = 0.7
    params = cs.EmitterParams(t1=t1, t2=2.0 * t1)
    taus = np.linspace(-10.0 * t1, 10.0 * t1, 1501)
    expected = g2_resonant_closed_form(t1, omega_t1 / t1, taus)
    assert np.max(np.abs(cs.g2(params, omega_t1 / t1, taus) - expected)) < 1e-6


def test_g2_oscillation_frequency_matches_mu():
    t1 = 1.0
    rabi = 10.0 / t1
    params = cs.EmitterParams(t1=t1, t2=2.0 * t1)
    taus = np.linspace(0.0, 40.0 * t1, 16001)
    vals = cs.g2(params, rabi, taus) - 1.0
    spec = np.abs(np.fft.rfft(vals, n=1 << 18))
    freqs = np.fft.rfftfreq(1 << 18, d=taus[1] - taus[0]) * 2.0 * np.pi
    k = int(np.argmax(spec[1:])) + 1
    # parabolic interpolation around the peak
    a, b, c = spec[k - 1 : k + 2]
    shift = 0.5 * (a - c) / (a - 2.0 * b + c)
    f_peak = freqs[k] + shift * (freqs[1] - freqs[0])
    mu = np.sqrt(rabi ** 2 - (1.0 / (4.0 * t1)) ** 2)
    assert f_peak == pytest.approx(mu, rel=0.01)


def test_g2_requires_drive():
    params = cs.EmitterParams(t1=1.0, t2=1.0)
    with pytest.raises(ValueError):
        cs.g2(params, 0.0, np.array([0.0, 1.0]))


def test_g1_normalization_and_offset():
    params = cs.EmitterParams(t1=1.0, t2=1.2)
    rabi = 1.7
    vals = cs.g1(params, rabi, np.linspace(0.0, 40.0, 401))
    assert vals[0] == pytest.approx(1.0, abs=1e-12)
    # the coherent plateau is the coherently scattered fraction
    assert abs(vals[-1]) == pytest.approx(cs.rrs_fraction(params, rabi), abs=1e-10)


def test_g1_weak_drive_tends_to_coherence_ratio():
    params = cs.EmitterParams(t1=1.0, t2=0.6)
    assert abs(cs.g1(params, 1e-4, np.array([0.0, 200.0]))[-1]) == pytest.approx(0.3, abs=1e-6)


def test_g1_half_coherent_at_s_one():
    t2 = 0.2144
    params = cs.EmitterParams(t1=t2 / 2.0, t2=t2)
    rabi = np.sqrt(1.0 / (params.t1 * params.t2))
    assert abs(cs.g1(params, rabi, np.linspace(0.0, 60.0 * t2, 301))[-1]) == pytest.approx(0.5, abs=1e-4)


def test_g1_conjugate_symmetry_and_bound(rng):
    params = cs.EmitterParams(t1=0.5, t2=0.8)
    taus = np.linspace(-5.0, 5.0, 501)
    vals = cs.g1(params, 3.0, taus)
    assert np.all(np.abs(vals) <= 1.0 + 1e-9)
    assert np.allclose(vals, np.conj(vals[::-1]), atol=1e-12)


def test_g1_matches_independent_ode_regression():
    params = cs.EmitterParams(t1=1.0, t2=1.1)
    rabi = 2.3
    taus = np.linspace(0.0, 8.0, 81)
    ours = cs.g1(params, rabi, taus)

    lio = liouvillian_reference(params.t1, params.t2, 0.0, rabi)
    u, v, w, _ = cs.steady_state(params, rabi)
    rho_ee = (1.0 + w) / 2.0
    x0 = np.array([0.0, 0.0, rho_ee, (u + 1j * v) / 2.0], dtype=complex)
    sol = solve_ivp(
        lambda t, y: lio @ y, (0.0, taus[-1]), x0, t_eval=taus, method="DOP853",
        rtol=1e-12, atol=1e-14,
    )
    reference = sol.y[2] / rho_ee
    assert np.max(np.abs(ours - reference)) < 1e-9


def _critical(t1, t2):
    return abs(1.0 / t2 - 1.0 / t1) / 2.0


@pytest.mark.parametrize(
    "t1, t2, rabi",
    [
        (1.0, 2.0, _critical(1.0, 2.0)),
        (0.3, 0.5, _critical(0.3, 0.5)),
        (0.107, 0.214, _critical(0.107, 0.214)),
        (0.3, 0.5, _critical(0.3, 0.5) * (1.0 + 1e-6)),
        (0.3, 0.5, 5.0),
    ],
    ids=["critical-1-2", "critical-0.3-0.5", "critical-0.107-0.214", "near-critical", "generic"],
)
def test_correlations_match_expm_oracle(t1, t2, rabi):
    # At the critical drive the Bloch generator is defective: its
    # eigenvectors are nearly parallel, and the eigen path loses ~1e-9.
    params = cs.EmitterParams(t1=t1, t2=t2)
    taus = np.linspace(-12.0 * t1, 12.0 * t1, 97)
    lio = liouvillian_reference(t1, t2, 0.0, rabi)
    props = np.array([expm(lio * abs(t)) for t in taus])
    u, v, w, _ = cs.steady_state(params, rabi)
    rho_ee = (1.0 + w) / 2.0
    ground = np.array([0.0, 0.0, 0.0, 1.0])
    g2_ref = (props @ ground)[:, 0].real / rho_ee
    x0 = np.array([0.0, 0.0, rho_ee, (u + 1j * v) / 2.0])
    g1_ref = (props @ x0)[:, 2] / rho_ee
    g1_ref = np.where(taus < 0, np.conj(g1_ref), g1_ref)
    assert np.max(np.abs(cs.g2(params, rabi, taus) - g2_ref)) < 1e-10
    assert np.max(np.abs(cs.g1(params, rabi, taus) - g1_ref)) < 1e-10


@pytest.mark.parametrize(
    "params, rabi, pair",
    [(cs.EmitterParams(t1=0.3, t2=0.5), 0.5, False), (EmitterBlock().resolve(), DriveBlock().resolve(), True)],
    ids=["over-damped", "default"],
)
def test_mode_sum_matches_expm_path(params, rabi, pair):
    # Over-damped, G's eigenvalues are all real; at the default drive two
    # form a conjugate pair. The grid holds negative, zero and both
    # delay-shifted taus, as the HOM traces ask for them.
    gen, x_ss, modes = _regression_setup(params, rabi)
    assert modes is not None and bool(np.any(modes[0].imag != 0.0)) == pair
    delay = HomBlock().delay_ns
    grid = np.linspace(-3.0, 3.0, 61)
    taus = np.concatenate([grid, grid - delay, grid + delay, [0.0, -0.0]])
    for x0, read in [(np.array([0.0, 0.0, -1.0, 1.0]), _READ_EE), (_g1_start(x_ss), _READ_GE)]:
        ours = _propagate_modes(gen, modes, x0, taus, read)
        oracle = _propagate_modes(gen, None, x0, taus, read)  # exact exponentials, per distinct |tau|
        assert np.max(np.abs(ours - oracle)) < 1e-12


def test_setup_is_shared_across_rabi_types_and_read_only(monkeypatch):
    calls = []
    real = np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig", lambda a: calls.append(a.shape) or real(a))
    _regression_setup.cache_clear()
    params = cs.EmitterParams(t1=0.3, t2=0.5)
    taus = np.linspace(-2.0, 2.0, 41)
    first = cs.g2(params, 5.2, taus)
    for rabi in (np.float64(5.2), np.array(5.2)):
        assert np.array_equal(cs.g2(params, rabi, taus), first)
    cs.g1(params, np.array(5.2), taus)
    cs.incoherent_spectrum(params, np.float64(5.2), np.linspace(-20.0, 20.0, 41))
    assert len(calls) == 1 and _regression_setup.cache_info().currsize == 1
    gen, x_ss, (evals, vecs) = _regression_setup(params, 5.2)
    for array in (gen, x_ss, evals, vecs):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


def test_g1_offset_matches_rrs_for_random_draws(rng):
    for _ in range(25):
        t1 = rng.uniform(0.1, 2.0)
        t2 = rng.uniform(0.1, 1.0) * 2.0 * t1
        rabi = rng.uniform(0.1, 12.0)
        params = cs.EmitterParams(t1=t1, t2=t2)
        # g1's plateau, reached once the slowest decay rate 1/(2 t1) has
        # run 60 e-folds, is the coherently scattered fraction
        plateau = abs(cs.g1(params, rabi, np.array([0.0, 120.0 * t1]))[-1])
        assert plateau == pytest.approx(cs.rrs_fraction(params, rabi), abs=1e-10)


def test_blinking_envelope():
    params = cs.EmitterParams(t1=1.0, t2=2.0)
    taus = np.linspace(-300.0, 300.0, 1201)
    base = cs.g2(params, 3.0, taus)

    same = cs.apply_blinking(taus, base, cs.BlinkingParams(amplitude=0.0, timescale_ns=10.0))
    assert np.array_equal(same, base)

    blk = cs.BlinkingParams(amplitude=0.2, timescale_ns=100.0)
    bunched = cs.apply_blinking(taus, base, blk)
    mid = len(taus) // 2
    assert bunched[mid] == 0.0  # antibunching survives
    i = np.argmin(np.abs(taus - 100.0))
    assert bunched[i] / base[i] == pytest.approx(1.0 + 0.2 / np.e, rel=1e-9)
    assert bunched[-1] / base[-1] == pytest.approx(1.0, abs=1e-2)


def test_convolve_timing_identity_and_delta():
    taus = np.linspace(-2.0, 2.0, 801)
    delta = np.zeros_like(taus)
    delta[400] = 1.0
    out0 = cs.convolve_timing(taus, delta, cs.TimingResponse(fwhm_ns=0.0))
    assert np.array_equal(out0, delta)

    fwhm = 0.2
    out = cs.convolve_timing(taus, delta, cs.TimingResponse(fwhm_ns=fwhm))
    assert np.sum(out) == pytest.approx(np.sum(delta), rel=1e-9)
    # the delta response is a unit-norm Gaussian sampled on the grid
    dt = taus[1] - taus[0]
    sigma = fwhm / (2.0 * np.sqrt(2.0 * np.log(2.0)))
    half = int(np.ceil(6.0 * sigma / dt))
    kern = np.exp(-0.5 * ((np.arange(-half, half + 1) * dt) / sigma) ** 2)
    kern /= kern.sum()
    expected = np.zeros_like(taus)
    expected[400 - half : 400 + half + 1] = kern
    assert np.max(np.abs(out - expected)) < 1e-12
    # measured width within one grid step of the requested one
    half = out.max() / 2.0
    above = taus[out >= half]
    assert above[-1] - above[0] == pytest.approx(fwhm, abs=taus[1] - taus[0])


def test_convolve_timing_against_direct_sum():
    params = cs.EmitterParams(t1=1.0, t2=2.0)
    # wide enough that the trace has settled to 1 at the grid edges, which
    # the integral-preservation contract assumes
    taus = np.linspace(-40.0, 40.0, 4001)
    trace = cs.g2(params, 5.0, taus)
    irf = cs.TimingResponse(fwhm_ns=0.1 * params.t1)
    out = cs.convolve_timing(taus, trace, irf)

    # direct O(N^2) oracle with the same edge-replication convention
    dt = taus[1] - taus[0]
    sigma = irf.fwhm_ns / (2.0 * np.sqrt(2.0 * np.log(2.0)))
    half = int(np.ceil(6.0 * sigma / dt))
    kern = np.exp(-0.5 * ((np.arange(-half, half + 1) * dt) / sigma) ** 2)
    kern /= kern.sum()
    padded = np.concatenate([np.full(half, trace[0]), trace, np.full(half, trace[-1])])
    direct = np.array(
        [np.dot(padded[i : i + 2 * half + 1], kern[::-1]) for i in range(len(taus))]
    )
    assert np.max(np.abs(out - direct)) < 1e-12
    assert out[len(taus) // 2] > 0.0  # finite response lifts the dip
    assert np.sum(out) * dt == pytest.approx(np.sum(trace) * dt, rel=1e-9)


def test_convolve_timing_returns_the_trace_below_the_grid_width():
    taus = np.linspace(-2.0, 2.0, 801)
    dt = taus[1] - taus[0]
    trace = cs.g2(cs.EmitterParams(t1=1.0, t2=2.0), 5.0, taus)
    to_fwhm = 2.0 * np.sqrt(2.0 * np.log(2.0))
    # a subnormal width underflows sigma to 0, whose kernel was all NaN
    for fwhm in (5e-324, dt / 40.0 * to_fwhm, 1e-6 * dt):
        out = cs.convolve_timing(taus, trace, cs.TimingResponse(fwhm_ns=fwhm))
        assert out.tobytes() == trace.tobytes()
    # just wider, the kernel's side weights have already underflowed: the
    # full convolution is the identity too, so the rule moves no output
    for ratio in (38.8, 39.9):
        out = cs.convolve_timing(taus, trace, cs.TimingResponse(fwhm_ns=dt / ratio * to_fwhm))
        assert out.tobytes() == trace.tobytes()
    # at dt / sigma = 38 they have not
    out = cs.convolve_timing(taus, trace, cs.TimingResponse(fwhm_ns=dt / 38.0 * to_fwhm))
    assert not np.array_equal(out, trace)


def test_convolve_timing_refuses_a_kernel_wider_than_the_grid():
    # fig2a's grid: a 1 us IRF would ask for a kernel of 254801 entries
    # (a 1 ms one, for GiB); the refusal comes before any of it exists
    taus = np.linspace(-120.0, 120.0, 12001)
    trace = np.ones_like(taus)
    to_fwhm = 2.0 * np.sqrt(2.0 * np.log(2.0))
    tracemalloc.start()
    try:
        start = time.perf_counter()
        with pytest.raises(ValueError, match="exceeds the tau grid span of 240 ns"):
            cs.convolve_timing(taus, trace, cs.TimingResponse(fwhm_ns=1e3))
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.5 and peak < 1 << 20
    # 6 sigma = 240 ns is still a kernel, just past it is not
    edge = 40.0 * to_fwhm
    assert cs.convolve_timing(taus, trace, cs.TimingResponse(fwhm_ns=edge)).shape == taus.shape
    with pytest.raises(ValueError, match="kernel half-width"):
        cs.convolve_timing(taus, trace, cs.TimingResponse(fwhm_ns=edge * (1.0 + 1e-12)))


def test_convolve_timing_rejects_nonuniform():
    taus = np.array([0.0, 0.1, 0.3])
    with pytest.raises(ValueError):
        cs.convolve_timing(taus, np.ones(3), cs.TimingResponse(fwhm_ns=0.1))


def test_convolve_timing_rejects_values_off_the_grid():
    # np.convolve would smear any length on the grid's step without complaint
    taus = np.linspace(-2.0, 2.0, 801)
    for fwhm in (0.0, 0.2):
        with pytest.raises(ValueError, match="matching shapes"):
            cs.convolve_timing(taus, np.ones(400), cs.TimingResponse(fwhm_ns=fwhm))


def test_convolve_timing_rejects_a_descending_uniform_grid():
    # evenly spaced but descending: the grid rule refuses it before the
    # kernel is checked against the (negative) span
    taus = np.linspace(25.0, -25.0, 4001)
    with pytest.raises(GridError, match="tau grid must be increasing"):
        cs.convolve_timing(taus, np.ones_like(taus), cs.TimingResponse(fwhm_ns=0.1))


_NAN, _INF = float("nan"), float("inf")
_GRIDS = [
    [0.0, 0.1, 0.2],
    [-1.0, 0.0, 1.0],
    [-1.0, 0.0, 1.0 + 1e-12],
    [-1.0, 0.0, 1.0 + 3e-12],
    [-1.0, 1e-13, 1.0],
    [0.0, 1.0, 2.0 + 1e-9],
    [0.0, 1.0, 2.0 + 3e-9],
    [0.0, 1e300, 2e300],
    [-1.7e308, 0.0, 1.7e308],
    [-_INF, 0.0, _INF],
    [-_INF, _INF],
    [0.0, _INF],
    [_INF, _INF],
    [0.0, 1.0, _INF],
    [-_INF, 0.0, 1.0],
    [0.0, _NAN, 2.0],
    [_NAN, _NAN],
    [0.0, 0.0, 0.0],
]


@pytest.mark.parametrize("grid", _GRIDS)
def test_grid_checks_match_allclose(grid):
    # the step is np.allclose's verdict on the steps, less a first step that
    # is not finite and > 0; inf and NaN grids raise GridError, no warning
    grid = np.array(grid)
    with np.errstate(invalid="ignore", over="ignore"):
        d = np.diff(grid)
        uniform = np.isfinite(d[0]) and d[0] > 0 and np.allclose(d, d[0], rtol=1e-9, atol=1e-12)
    if uniform:
        assert _uniform_step(grid, "tau grid") == d[0]
    else:
        with pytest.raises(GridError, match="tau grid must be increasing"):
            _uniform_step(grid, "tau grid")
