import copy
import dataclasses
import itertools
import math

import mpmath
import numpy as np
import pytest
from scipy.linalg import expm

import cohscat as cs
from cohscat import cli, emitter, pulsed
from cohscat.emitter import _GAUSS_REACH_SIGMAS, _WINDOW_SIGMAS, _expm, _generator, _split_steps
from cohscat.scenario import EmitterBlock, PulseTrainBlock
from conftest import (
    cluster_areas_whole_stream,
    coincidence_counts_whole_array,
    liouvillian_reference,
    pair_moment_oracle,
    rabi_curve_per_area,
    simulate_stream_flips,
    stream_csv_per_tag,
    synthetic_stream,
    traced_peak,
    window_reference,
)

PARAMS = EmitterBlock().resolve()  # t1 = 0.1072 ns, t2 = 2*t1
SEGMENTED = cs.EmitterParams(t1=0.01, t2=0.02)  # a 1 ns window spans several table segments


def make_train(area_pi, fwhm, n_pairs):
    return cs.PulseTrain(
        pulse_area=area_pi * math.pi,
        pulse_fwhm=fwhm,
        separation=2.36,
        pair_period=13.1,
        n_pairs=n_pairs,
    )


def test_train_validation():
    with pytest.raises(ValueError):
        cs.PulseTrain(pulse_area=1.0, pulse_fwhm=3.0, separation=2.36, pair_period=13.1)
    with pytest.raises(ValueError):
        cs.PulseTrain(pulse_area=1.0, pulse_fwhm=0.1, separation=14.0, pair_period=13.1)
    with pytest.raises(ValueError):
        cs.PulseTrain(pulse_area=-1.0, pulse_fwhm=0.1, separation=2.0, pair_period=13.0)


@pytest.mark.parametrize("shape, fwhm", [("gaussian", 2.36), ("gaussian", 3.0), ("square", 2.36), ("square", 3.0)])
def test_train_rejects_a_pulse_as_wide_as_the_separation(shape, fwhm):
    # a window is at least the fwhm wide, so it then runs into the next pulse's
    with pytest.raises(ValueError, match="pulse windows overlap"):
        cs.PulseTrain(pulse_area=1.0, pulse_fwhm=fwhm, separation=2.36, pair_period=13.1, shape=shape)


@pytest.mark.parametrize("name, value", [("pulse_area", math.nan), ("pulse_fwhm", math.nan),
                                         ("separation", math.inf), ("pair_period", math.inf),
                                         ("pulse_area", -math.inf)])
def test_train_rejects_non_finite_fields(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        cs.PulseTrain(**{"pulse_area": 1.0, "pulse_fwhm": 0.057, name: value})


def test_rabi_curve_examples():
    fwhm = PARAMS.t1 / 1000.0
    curve = dict(pulsed.rabi_curve(PARAMS, [0.0, 0.71 * math.pi, math.pi], fwhm))
    assert curve[0.0] == 0.0
    assert curve[math.pi] >= 0.98
    assert curve[0.71 * math.pi] == pytest.approx(math.sin(0.71 * math.pi / 2.0) ** 2, rel=0.02)


def test_rabi_curve_maxima_at_odd_pi():
    fwhm = PARAMS.t1 / 1000.0
    areas = np.linspace(0.0, 4.0, 41) * math.pi
    probs = np.array([p for _, p in pulsed.rabi_curve(PARAMS, areas, fwhm)])
    # local maxima of the sampled curve sit at pi and 3*pi
    peaks = [areas[i] for i in range(1, 40) if probs[i] > probs[i - 1] and probs[i] > probs[i + 1]]
    assert np.allclose(peaks, [math.pi, 3.0 * math.pi], atol=areas[1] - areas[0])


SIM_RABI_AREAS = np.linspace(0.0, 3.0, 61) * math.pi  # `sim rabi` default grid
SIM_RABI_FWHM = 0.057


@pytest.mark.parametrize(
    "params, areas, shape",
    [
        (PARAMS, SIM_RABI_AREAS, "gaussian"),
        (PARAMS, SIM_RABI_AREAS, "square"),
        (cs.EmitterParams(t1=PARAMS.t1, t2=PARAMS.t2, detuning=2.0), SIM_RABI_AREAS[::3], "gaussian"),
        (cs.EmitterParams(t1=PARAMS.t1, t2=0.6 * PARAMS.t1), SIM_RABI_AREAS[::3], "square"),
        (PARAMS, [2.2 * math.pi], "gaussian"),
        (PARAMS, [0.0], "square"),
    ],
    ids=["gaussian", "square", "detuned", "dephased", "one-area", "zero-only"],
)
def test_rabi_curve_matches_per_area_oracle(params, areas, shape):
    # all areas share one integration; each must still match its own
    batched = np.array(pulsed.rabi_curve(params, areas, SIM_RABI_FWHM, shape=shape))
    oracle = np.array(rabi_curve_per_area(params, areas, SIM_RABI_FWHM, shape))
    assert batched.shape == (len(areas), 2)
    assert np.array_equal(batched[:, 0], oracle[:, 0])
    assert np.max(np.abs(batched[:, 1] - oracle[:, 1])) < 1e-8


def test_rabi_curve_stops_at_sixth_order(monkeypatch):
    # The Romberg estimate stops the doubling at N = 512 on the `sim rabi`
    # grid: 16 + 32 + ... + 512 split steps, where the fourth-order stop
    # needed 4080.
    steps = []

    def counting(x, drive, scale, t_start, h, n, half):
        steps.append(n)
        return _split_steps(x, drive, scale, t_start, h, n, half)

    monkeypatch.setattr(emitter, "_split_steps", counting)
    pulsed.rabi_curve(PARAMS, SIM_RABI_AREAS, SIM_RABI_FWHM)
    assert sum(steps) <= 1008


def test_rabi_curve_matches_fine_richardson_value():
    # Reference: the same split steps at 2^13 and 2^14 steps, combined into
    # their fourth-order Richardson value. The pulse window starts at 0; the
    # steps reach _GAUSS_REACH_SIGMAS past the center, exact decay follows.
    areas = SIM_RABI_AREAS[1:]
    sigma = SIM_RABI_FWHM / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    center = _WINDOW_SIGMAS * sigma
    unit = cs.Pulse(1.0, SIM_RABI_FWHM)  # centered in its window
    stepped = center + _GAUSS_REACH_SIGMAS * sigma
    t_end = 2.0 * center + 15.0 * PARAMS.t1
    g0 = _generator(PARAMS, 0.0)
    x0 = np.tile([[0.0], [0.0], [-1.0], [1.0], [0.0]], len(areas))

    def split(n):
        h = stepped / n
        return _split_steps(x0, unit, areas, 0.0, h, n, _expm(g0 * h / 2.0))

    richardson = (4.0 * split(1 << 14) - split(1 << 13)) / 3.0
    reference = (_expm(g0 * (t_end - stepped)) @ richardson)[4]
    curve = np.array(pulsed.rabi_curve(PARAMS, SIM_RABI_AREAS, SIM_RABI_FWHM))
    assert np.max(np.abs(curve[1:, 1] - reference)) < 1e-10


@pytest.mark.parametrize(
    "areas, fwhm, shape",
    [
        ([math.pi, -0.1, 2.0 * math.pi], 0.057, "gaussian"),
        ([math.pi, float("nan")], 0.057, "gaussian"),
        ([math.pi], 0.0, "gaussian"),
        ([math.pi], float("inf"), "gaussian"),
        ([0.0], 0.057, "sech"),
    ],
    ids=["negative-area", "nan-area", "zero-fwhm", "infinite-fwhm", "unknown-shape"],
)
def test_rabi_curve_checks_inputs_before_integrating(monkeypatch, areas, fwhm, shape):
    def fail(*args, **kwargs):
        raise AssertionError("integrated before the input checks")

    monkeypatch.setattr(pulsed, "_propagate", fail)
    with pytest.raises(ValueError):
        pulsed.rabi_curve(PARAMS, areas, fwhm, shape=shape)


def test_zero_area_gives_empty_stream():
    train = make_train(0.0, 0.01, 200)
    # zero-area "pulses" cannot excite anything
    train = cs.PulseTrain(pulse_area=0.0, pulse_fwhm=0.01, separation=2.36,
                          pair_period=13.1, n_pairs=200)
    stream = pulsed.simulate_stream(PARAMS, train, seed=1)
    assert stream.n_tags == 0


def test_impulsive_pi_pulse_statistics():
    train = make_train(1.0, PARAMS.t1 / 1000.0, 50000)  # 1e5 pulses
    stream = pulsed.simulate_stream(PARAMS, train, seed=42)
    assert stream.mean_per_pulse == pytest.approx(1.0, abs=0.01)
    counts = stream.counts_per_pulse()
    assert (counts >= 2).sum() / counts.size < 0.005


def test_reexcitation_grows_with_pulse_width():
    n = 50000
    p2 = {}
    for fwhm in (0.25 * PARAMS.t1, 0.53 * PARAMS.t1):
        stream = pulsed.simulate_stream(PARAMS, make_train(1.0, fwhm, n), seed=9)
        counts = stream.counts_per_pulse()
        p2[fwhm] = (counts >= 2).sum() / counts.size
    assert 0.0 < p2[0.25 * PARAMS.t1] < p2[0.53 * PARAMS.t1]


def test_mc_mean_matches_ode_expectation():
    fwhm = 0.057
    train = make_train(0.71, fwhm, 50000)  # 1e5 pulses
    stream = pulsed.simulate_stream(PARAMS, train, seed=3)
    expected = pulsed.rabi_curve(PARAMS, [0.71 * math.pi], fwhm)[0][1]
    n_pulses = 2 * train.n_pairs
    sigma = math.sqrt(expected / n_pulses)  # counts are nearly Bernoulli
    assert abs(stream.mean_per_pulse - expected) < 3.0 * sigma + 0.002


def test_stream_determinism_and_worker_equivalence(monkeypatch):
    # More pairs than one chunk, so threads really split the work; on the
    # segmented square train smaller chunks keep that cheap.
    cases = [
        (PARAMS, make_train(0.71, 0.057, (1 << 16) + 3000), 1 << 16),
        (SEGMENTED,
         cs.PulseTrain(pulse_area=3.0 * math.pi, pulse_fwhm=1.0, n_pairs=5000, shape="square"),
         1 << 11),
    ]
    for params, train, chunk in cases:
        monkeypatch.setattr(pulsed, "_CHUNK_PAIRS", chunk)
        a = pulsed.simulate_stream(params, train, seed=11)
        assert a.pair_index.max() >= chunk
        for workers in (1, 2, 3):
            b = pulsed.simulate_stream(params, train, seed=11, workers=workers)
            assert a.times.tobytes() == b.times.tobytes()
            assert a.pair_index.tobytes() == b.pair_index.tobytes()
            assert a.pulse_index.tobytes() == b.pulse_index.tobytes()


def test_rng_keys_of_neighbouring_seeds_are_distinct():
    # The pulsed-HOM routing at seed S once drew the stream deviates of
    # seed S + 1; the top seed overflowed S + 1.
    def key(seed, purpose, index):
        return tuple(int(v) for v in pulsed._rng(seed, purpose, index).bit_generator.state["state"]["key"])

    purposes = (pulsed._STREAM, pulsed._ROUTE_PARALLEL, pulsed._ROUTE_ORTHOGONAL)
    for seed in (0, 7, 12345, 2 ** 64 - 2):
        triples = list(itertools.product((seed, seed + 1), purposes, range(4)))
        assert len({key(*t) for t in triples}) == len(triples)
    # stream chunks keep the key (seed, chunk), so streams keep their values
    assert key(12345, pulsed._STREAM, 3) == (12345, 3)


def test_thread_pool_is_capped(monkeypatch):
    requested = []

    class RecordingPool:
        """Runs the chunks in this thread and records the pool size asked for."""

        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(pulsed, "ThreadPoolExecutor", RecordingPool)
    # four chunks of undriven pairs: cheap, and no jumps at all
    train = make_train(0.0, 0.057, 4 << 16)
    for cores, expected in ((3, 3), (16, 4)):
        monkeypatch.setattr(pulsed.os, "cpu_count", lambda: cores)
        pulsed.simulate_stream(PARAMS, train, seed=1, workers=10**6)
        assert requested.pop() == expected


DENSE = cs.EmitterParams(t1=2.0 * PARAMS.t1, t2=2.0 * PARAMS.t1)  # pure dephasing on


@pytest.mark.parametrize(
    "params,area_pi,fwhm,oracle",
    [(PARAMS, 0.71, 0.057, 0.021292), (DENSE, 3.0, 0.4, 0.88518)],
    ids=["default", "dense"],
)
def test_stream_matches_conditional_master_equation(params, area_pi, fwhm, oracle):
    train = make_train(area_pi, fwhm, 100000)
    counts = pulsed.simulate_stream(params, train, seed=41).counts_per_pulse().ravel()
    n = counts.size
    expected = pulsed.rabi_curve(params, [area_pi * math.pi], fwhm)[0][1]
    assert abs(counts.mean() - expected) < 4.0 * counts.std() / math.sqrt(n)

    pairs = counts * (counts - 1) / 2.0
    moment = pair_moment_oracle(params, train)
    assert moment == pytest.approx(oracle, rel=2e-5)
    assert abs(pairs.mean() - moment) < 4.0 * pairs.std() / math.sqrt(n)


def test_step_exponentials_match_expm(rng):
    # no-jump step generators L0 dt over random drives, detunings, coherence
    # times and steps, plus the critical drive rabi = 1/(2 t1) on resonance
    n = 400
    t1 = rng.uniform(0.01, 2.0, n)
    t2 = 2.0 * t1 * rng.uniform(0.01, 1.0, n) ** (rng.random(n) < 0.6)
    rabi = rng.uniform(0.0, 100.0, n)
    detuning = rng.normal(0.0, 5.0, n) * (rng.random(n) < 0.7)
    dt = 10.0 ** rng.uniform(-6.0, -1.0, n)
    rabi[:3], detuning[:3], dt[:3] = 0.5 / t1[:3], 0.0, [1e-5, 1e-3, 0.1]
    # (u, v, w, tr) from (rho_ee, rho_eg, rho_ge, rho_gg): u + iv = 2 rho_eg
    basis = np.array([[0, 1, 1, 0], [0, -1j, 1j, 0], [1, 0, 0, -1], [1, 0, 0, 1]])
    gens = []
    for k in range(n):
        params = cs.EmitterParams(t1=t1[k], t2=t2[k], detuning=detuning[k])
        gen = pulsed._no_jump_generator(params, rabi[k])
        reference = liouvillian_reference(t1[k], t2[k], detuning[k], rabi[k])
        reference[3, 0] = 0.0  # the emission jump refills rho_gg
        np.testing.assert_allclose(gen, basis @ reference @ np.linalg.inv(basis), rtol=0, atol=1e-12)
        gens.append(gen * dt[k])
    # scipy's expm strays by up to 4e-14 on these; 30 digits settle it
    got = _expm(np.array(gens))
    with mpmath.workdps(30):
        for k in range(n):
            exact = np.array(mpmath.expm(mpmath.matrix(gens[k].tolist())).tolist(), dtype=float)
            np.testing.assert_allclose(got[k], exact, rtol=0, atol=1e-14)


WINDOW_CASES = [
    # several re-anchoring segments, so segment starts and ends are covered
    (cs.EmitterParams(t1=0.01, t2=0.02, detuning=3.0),
     cs.PulseTrain(pulse_area=3.0 * math.pi, pulse_fwhm=0.4, n_pairs=1)),
    # dephased, t2 << t1: the segments follow t2
    (cs.EmitterParams(t1=0.01, t2=0.002),
     cs.PulseTrain(pulse_area=3.0 * math.pi, pulse_fwhm=1.0, n_pairs=1, shape="square")),
]


def test_window_tables_match_sequential_products():
    steps = 500
    ground = np.array([0.0, 0.0, -1.0, 1.0])
    for params, train in WINDOW_CASES:
        tab = pulsed._WindowTables(params, train, steps)
        pulse = train.pulse
        dt = 2.0 * pulse.half_window / steps
        seg = int(pulsed._SEGMENT_T * min(params.t1, params.t2) / dt)
        starts = set(range(0, steps, seg))
        assert len(starts) > 2
        assert tab.bounds == sorted(starts) + [steps]
        prods = [np.eye(4)]
        for j in range(1, steps + 1):
            prod = np.eye(4) if j - 1 in starts else prods[-1]
            prods.append(expm(pulsed._no_jump_generator(params, pulse.omega((j - 0.5) * dt)) * dt) @ prod)
        prods = np.array(prods)
        # the no-jump products over at most 9 min(t1, t2) stay well conditioned
        assert np.linalg.cond(prods).max() <= math.exp(9.0)
        np.testing.assert_allclose(np.array(tab.trace_row).T, prods[:, 3], rtol=0, atol=1e-12)
        np.testing.assert_allclose(tab.ends, prods[tab.bounds[1:]], rtol=0, atol=1e-12)
        for k in range(steps + 1):
            expected = ground if k in starts else np.linalg.solve(prods[k], ground)
            np.testing.assert_allclose(tab.reset[:, k], expected, rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize(
    "params, train",
    [
        (PARAMS, make_train(0.71, 0.057, 100000)),
        (SEGMENTED, cs.PulseTrain(pulse_area=3.0 * math.pi, pulse_fwhm=1.0, n_pairs=20000, shape="square")),
    ],
    ids=["default", "segmented-square"],
)
def test_stream_matches_flip_engine_without_dephasing(params, train):
    # At t2 = 2 t1 the flip engine draws no flips: both engines march by the
    # same law and draw the same deviates, once they re-anchor alike.
    new = pulsed.simulate_stream(params, train, seed=41)
    old = simulate_stream_flips(params, train, 41, segment_t1=pulsed._SEGMENT_T)
    assert np.array_equal(new.pair_index, old.pair_index)
    assert np.array_equal(new.pulse_index, old.pulse_index)
    # A click in a drive-free stretch solves rho_gg + rho_ee e^(-t/t1) = u.
    # Where u sits just above rho_gg its time is ill-conditioned (a click
    # 17 t1 after the pulse moved 1.2e-7 ns), but the survival factor
    # e^(-t/t1) is not, so such a click may match by that instead.
    free_start = train.pulse.half_window + new.pulse_index * train.separation
    local = [s.times - s.pair_index * train.pair_period for s in (new, old)]
    survival = [np.exp(-(t - free_start) / params.t1) for t in local]
    close = np.abs(new.times - old.times) <= 1e-9
    close |= (local[0] > free_start) & (np.abs(survival[0] - survival[1]) <= 1e-12)
    assert close.all()


def test_stream_draws_one_deviate_per_trajectory_and_click(monkeypatch):
    # Dephasing is inside the step propagator, so it draws nothing.
    draws = []

    class Counting:
        def __init__(self, gen):
            self.gen = gen

        def random(self, n):
            draws.append(n)
            return self.gen.random(n)

    keyed = pulsed._rng
    monkeypatch.setattr(pulsed, "_rng", lambda seed, purpose, index: Counting(keyed(seed, purpose, index)))
    train = make_train(3.0, 0.4, 5000)
    stream = pulsed.simulate_stream(DENSE, train, seed=5)
    assert 1.0 / DENSE.t2 - 0.5 / DENSE.t1 > 0 and stream.n_tags > train.n_pairs
    assert sum(draws) == train.n_pairs + stream.n_tags


def test_long_window_stays_finite_and_unbiased():
    # a 1 ns square pulse on a 0.01 ns emitter: the no-jump propagator over
    # the window has |det| = e^-50, so the tables must re-anchor
    params = cs.EmitterParams(t1=0.01, t2=0.02)
    train = cs.PulseTrain(pulse_area=3.0 * math.pi, pulse_fwhm=1.0, n_pairs=20000, shape="square")
    stream = pulsed.simulate_stream(params, train, seed=13)
    assert np.all(np.isfinite(stream.times))
    counts = stream.counts_per_pulse().ravel()
    expected = pulsed.rabi_curve(params, [3.0 * math.pi], 1.0, shape="square")[0][1]
    assert abs(counts.mean() - expected) < 5.0 * counts.std() / math.sqrt(counts.size)


def test_dephasing_channel_keeps_emission_statistics():
    dephased = cs.EmitterParams(t1=PARAMS.t1, t2=0.6 * PARAMS.t1)
    train = make_train(1.0, PARAMS.t1 / 1000.0, 20000)
    stream = pulsed.simulate_stream(dephased, train, seed=5)
    # an impulsive pi pulse inverts regardless of t2; emission count stays ~1
    assert stream.mean_per_pulse == pytest.approx(1.0, abs=0.02)


def test_synthetic_stream_matches_targets():
    train = make_train(0.71, PARAMS.t1 / 1000.0, 100000)
    mu = 0.8
    stream = synthetic_stream(PARAMS, train, mean_per_pulse=mu, g_target=0.167, seed=21)
    assert stream.mean_per_pulse == pytest.approx(mu, abs=0.01)
    report = pulsed.hbt_analyze(stream)
    assert report.g_metric == pytest.approx(0.167, abs=3.0 * report.g_metric_err + 0.005)
    with pytest.raises(ValueError):
        synthetic_stream(PARAMS, train, mean_per_pulse=0.1, g_target=300.0, seed=1)


def test_hbt_single_photon_stream():
    train = make_train(0.71, PARAMS.t1 / 1000.0, 20000)
    stream = synthetic_stream(PARAMS, train, mean_per_pulse=1.0, g_target=0.0, seed=2)
    report = pulsed.hbt_analyze(stream)
    assert report.g_metric == 0.0
    assert report.g2_zero == 0.0
    sides = [report.peak_areas[d] / (train.n_pairs - d) for d in range(2, 11)]
    assert np.std(sides) / np.mean(sides) < 0.01  # flat side clusters


def test_hbt_peak_areas_equal_a_pair_count():
    # Peak area at lag d counts the unordered photon pairs d pair periods
    # apart (d = 0: both in one pair, same pulse or not).
    train = make_train(0.71, PARAMS.t1 / 1000.0, 300)
    stream = synthetic_stream(PARAMS, train, mean_per_pulse=0.8, g_target=0.167, seed=3)
    counts = [0] * 21
    for a, b in itertools.combinations(stream.pair_index.tolist(), 2):
        if abs(a - b) <= 20:
            counts[abs(a - b)] += 1
    report = pulsed.hbt_analyze(stream)
    assert [report.peak_areas[d] for d in range(21)] == counts


def test_hbt_rejects_empty_and_reports_errors():
    train = make_train(0.71, 0.057, 5000)
    stream = pulsed.simulate_stream(PARAMS, train, seed=6)
    report = pulsed.hbt_analyze(stream)
    assert report.g_metric_err > 0.0
    assert 0 in report.peak_areas and 2 in report.peak_areas
    empty = pulsed.PhotonStream(
        times=np.empty(0), pair_index=np.empty(0, int), pulse_index=np.empty(0, int),
        params=PARAMS, train=train,
    )
    with pytest.raises(ValueError):
        pulsed.hbt_analyze(empty)


def test_estimator_sums_match_per_pulse_formulas():
    # the integer pair sum and the tallied meeting probabilities are the
    # per-pulse formulas bit for bit, here with up to 3+ photons per pulse
    train = make_train(3.0, 0.4, 3000)
    params = dataclasses.replace(PARAMS, t2=PARAMS.t1)
    stream = pulsed.simulate_stream(params, train, seed=7)
    counts = stream.counts_per_pulse()
    assert counts.max() >= 3
    assert pulsed._same_pulse_pairs(counts, stream.n_tags) == float(np.sum(counts * (counts - 1) / 2.0))
    r = pulsed._SPLITTER_RATIO
    for base, col in ((1.0 - r, 0), (r, 1)):
        assert pulsed._mean_power(base, counts[:, col]) == float(np.mean(base ** counts[:, col]))


@pytest.mark.parametrize("overlap_true,g,tol", [(1.0, 0.0, 0.01), (0.0, 0.0, 0.01)])
def test_pulsed_hom_trivial_overlaps(overlap_true, g, tol):
    train = make_train(0.71, PARAMS.t1 / 1000.0, 2000000)
    mu = math.sin(0.71 * math.pi / 2.0) ** 2
    stream = synthetic_stream(PARAMS, train, mean_per_pulse=mu, g_target=g, seed=17)
    report = pulsed.pulsed_hom(stream, overlap_true, seed=23)
    assert report.aux["overlap_raw"] == pytest.approx(overlap_true, abs=tol)
    assert report.overlap == pytest.approx(overlap_true, abs=tol)


def test_pulsed_hom_recovers_contaminated_overlap():
    train = make_train(0.71, PARAMS.t1 / 1000.0, 400000)
    mu = math.sin(0.71 * math.pi / 2.0) ** 2
    stream = synthetic_stream(PARAMS, train, mean_per_pulse=mu, g_target=0.167, seed=29)
    report = pulsed.pulsed_hom(stream, 0.90, seed=31)
    assert report.overlap == pytest.approx(0.90, abs=0.02)
    assert report.g_metric == pytest.approx(0.167, abs=0.01)
    assert report.aux["correction"] > 1.5  # multi-photon correction is substantial


def test_pulsed_hom_estimator_bias_is_small():
    """Average the estimator over independent streams: bias < 0.01."""
    train = make_train(0.71, PARAMS.t1 / 1000.0, 200000)
    mu = math.sin(0.71 * math.pi / 2.0) ** 2
    estimates = []
    for seed in range(5):
        stream = synthetic_stream(PARAMS, train, mean_per_pulse=mu, g_target=0.167, seed=seed)
        estimates.append(pulsed.pulsed_hom(stream, 0.90, seed=seed + 100).aux["overlap_raw"])
    assert abs(float(np.mean(estimates)) - 0.90) < 0.01


@pytest.mark.parametrize("seed", [-1, 2 ** 64], ids=["negative", "2^64"])
def test_out_of_range_seed_raises_value_error(seed):
    train = make_train(0.71, 0.057, 10)
    with pytest.raises(ValueError, match="seed must lie in"):
        pulsed.simulate_stream(PARAMS, train, seed)
    stream = synthetic_stream(PARAMS, make_train(0.71, PARAMS.t1 / 1000.0, 1000), mean_per_pulse=0.8,
                              g_target=0.0, seed=1)
    with pytest.raises(ValueError, match="seed must lie in"):
        pulsed.pulsed_hom(stream, 0.9, seed)


def test_pulsed_hom_blocks_match_whole_stream_routing(monkeypatch):
    # Small blocks, so the draws, the first photons and the cluster counts
    # all cross block boundaries; pairs with two photons in a pulse make
    # the first-photon choice matter.
    monkeypatch.setattr(pulsed, "_CHUNK_PAIRS", 1000)
    stream = synthetic_stream(PARAMS, make_train(0.71, PARAMS.t1 / 1000.0, 5500), mean_per_pulse=0.8,
                              g_target=0.3, seed=3)
    report = pulsed.pulsed_hom(stream, 0.9, seed=12345)
    par = cluster_areas_whole_stream(stream, pulsed._rng(12345, pulsed._ROUTE_PARALLEL, 0), True, 0.9)
    ort = cluster_areas_whole_stream(stream, pulsed._rng(12345, pulsed._ROUTE_ORTHOGONAL, 0), False, 0.0)
    assert report.peak_areas == par
    assert report.aux["areas_orthogonal"] == ort


@pytest.mark.parametrize("shuffle", [False, True], ids=["sorted", "unsorted"])
def test_coincidence_histogram_blocks_match_whole_array(monkeypatch, rng, shuffle):
    # blocks of 7 start tags; repeated times give zero lags
    monkeypatch.setattr(pulsed, "_CHUNK_PAIRS", 7)
    times = np.sort(np.round(rng.uniform(0.0, 30.0, 200), 1))
    if shuffle:
        rng.shuffle(times)
    centers, counts = pulsed.coincidence_histogram(times, max_lag=2.5, bin_width=0.3)
    expected = coincidence_counts_whole_array(times, 2.5, 0.3)
    assert np.array_equal(counts, np.concatenate([expected[::-1], expected]))
    assert len(centers) == len(counts)


def test_coincidence_histogram_fills_its_outer_bins(rng):
    # the edges run to 0.45, a bin past max_lag: the last bin [0.40, 0.45]
    # holds every lag up to its edge, as many as its neighbours on a flat
    # lag density (about 1e6 each)
    times = np.sort(rng.uniform(0.0, 2000.0, 200_000))
    centers, counts = pulsed.coincidence_histogram(times, max_lag=0.42, bin_width=0.05)
    assert centers[-1] == pytest.approx(0.425) and len(counts) == 18
    assert counts[-1] == counts[0] == pytest.approx(counts[-2], rel=0.01)


def test_coincidence_histogram_pairs():
    times = np.array([0.0, 0.1, 5.0])
    centers, counts = pulsed.coincidence_histogram(times, max_lag=1.0, bin_width=0.2)
    assert counts.sum() == 2  # the 0.1 lag counted at +-
    assert len(centers) == len(counts)


@pytest.mark.parametrize("scale", [1.0, 1e-6, 1e9], ids=["ns", "sub-ps", "seconds"])
def test_export_stream_matches_per_tag_oracle(tmp_path, monkeypatch, scale):
    # Rescaled times put the tags in the 12-digit window's corners and past
    # it (scientific notation); one extra tag carries an infinite time and
    # the int64 extremes. `sim stream` writes whatever stream the engine
    # hands it.
    stream = pulsed.simulate_stream(PARAMS, make_train(0.71, 0.057, 3000), seed=5)
    stream = dataclasses.replace(
        stream,
        times=np.append(stream.times * scale, np.inf),
        pair_index=np.append(stream.pair_index, np.iinfo(np.int64).max),
        pulse_index=np.append(stream.pulse_index, np.iinfo(np.int64).min),
    )
    monkeypatch.setattr(pulsed, "simulate_stream", lambda *args, **kwargs: stream)
    assert cli.main(["sim", "stream", "--threads", "1", "--out", str(tmp_path / "o")]) == 0
    stream_csv_per_tag(stream, tmp_path / "oracle.csv")
    assert (tmp_path / "o" / "stream.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


# The dense train of bench/dense.json: about three tags per pair.
DENSE_TRAIN_PARAMS = EmitterBlock(coherence_ratio=0.5).resolve()


def dense_train(n_pairs):
    return PulseTrainBlock(pulse_area_pi=3.0, pulse_fwhm_ns=0.4, n_pairs=n_pairs).resolve()


def window_train(name):
    """(params, train) of the default, dense and segmented trains."""
    return {
        "default": (PARAMS, make_train(0.71, 0.057, 20000)),
        "dense": (DENSE_TRAIN_PARAMS, dense_train(20000)),
        "segmented": (SEGMENTED,
                      cs.PulseTrain(pulse_area=3.0 * math.pi, pulse_fwhm=1.0, n_pairs=20000, shape="square")),
    }[name]


def state_twin(state):
    """A copy of a chunk's state with the same generator state and no tags."""
    twin = copy.copy(state)
    twin.rng = copy.deepcopy(state.rng)
    twin.x, twin.thresh = state.x.copy(), state.thresh.copy()
    twin.tag_idx, twin.tag_time, twin.tag_pulse = [], [], []
    return twin


@pytest.mark.parametrize("name", ["default", "dense", "segmented"])
def test_pulse_window_matches_reference(name):
    # Each window starts both engines from the same state, tables and
    # generator state; the compact passes must click the same trajectories
    # in the same passes and draw the same thresholds.
    params, train = window_train(name)
    tab = pulsed._WindowTables(params, train, pulsed._STEPS_PER_PULSE)
    state = pulsed._ChunkState(train.n_pairs, pulsed._rng(12345, pulsed._STREAM, 0))
    half = train.pulse.half_window
    for pulse, center in enumerate((0.0, train.separation)):
        new, ref = state_twin(state), state_twin(state)
        pulsed._run_pulse_window(new, tab, center - half, pulse, from_ground=pulse == 0)
        window_reference(ref, tab, center - half, pulse)
        assert len(new.tag_idx) == len(ref.tag_idx) >= 2  # clicks after re-anchoring too
        for got, expected in zip(new.tag_idx, ref.tag_idx):
            assert np.array_equal(got, expected)
        assert new.tag_pulse == ref.tag_pulse == [pulse] * len(ref.tag_idx)
        assert np.array_equal(new.thresh, ref.thresh)
        assert repr(new.rng.bit_generator.state) == repr(ref.rng.bit_generator.state)
        np.testing.assert_allclose(np.concatenate(new.tag_time), np.concatenate(ref.tag_time), rtol=1e-12, atol=0)
        np.testing.assert_allclose(new.x, ref.x, rtol=0, atol=1e-13)
        state = new
        pulsed._run_free_decay(state, center + half, tab.gaps[pulse], pulse, params, tab.decay[pulse])


@pytest.mark.parametrize("name", ["default", "dense", "segmented"])
def test_ground_crossing_matches_binary_search(rng, name):
    params, train = window_train(name)
    tab = pulsed._WindowTables(params, train, pulsed._STEPS_PER_PULSE)
    b = tab.bounds[1]
    col = tab.ground_trace
    assert len(col) == b + 1
    # the column searched: clipped at 1, above every threshold
    assert np.all(np.diff(np.minimum(col, 1.0)) <= 0.0)
    # thresholds that click within the first segment, at and beside every
    # value of the column
    u = np.concatenate([rng.uniform(col[b], 1.0, 20000), col, np.nextafter(col, 0.0), np.nextafter(col, 1.0)])
    u = u[(u > col[b]) & (u < 1.0)]
    ground = np.broadcast_to(pulsed._GROUND[:, None], (4, len(u)))
    hi, steps = pulsed._crossing(tab, 0, b, ground, 1.0, u)
    got_hi, got_steps = tab.ground_crossing(u)
    assert np.array_equal(got_hi, hi)
    assert got_steps.tobytes() == steps.tobytes()


def stream_bytes(stream):
    return stream.times.nbytes + stream.pair_index.nbytes + stream.pulse_index.nbytes


@pytest.mark.parametrize("threads", [1, 2])
def test_chunk_merge_equals_a_global_stable_sort(monkeypatch, threads):
    # Two chunks, each sorted on its own; the oracle sorts the same records
    # the way one global stable argsort over all of them would.
    records = {}
    tags = pulsed._ChunkState.tags

    def kept(state, first_pair, pair_period):
        counts = [len(i) for i in state.tag_idx]
        records[first_pair] = (np.concatenate(state.tag_idx) + first_pair, np.concatenate(state.tag_time),
                               np.repeat(state.tag_pulse, counts))
        return tags(state, first_pair, pair_period)

    monkeypatch.setattr(pulsed._ChunkState, "tags", kept)
    train = dense_train(70000)
    stream = pulsed.simulate_stream(DENSE_TRAIN_PARAMS, train, seed=12345, workers=threads)
    assert sorted(records) == [0, pulsed._CHUNK_PAIRS]
    pair, t_local, pulse = (np.concatenate(column) for column in zip(*(records[k] for k in sorted(records))))
    times = pair * train.pair_period + t_local
    order = np.argsort(times, kind="stable")
    assert stream.times.tobytes() == times[order].tobytes()
    assert stream.pair_index.tobytes() == pair[order].tobytes()
    assert stream.pulse_index.tobytes() == pulse[order].astype(np.int64).tobytes()


@pytest.fixture(scope="module")
def dense_streams():
    """{pairs: (stream, simulate_stream's traced peak)} at 2^16 and 2^17 pairs."""
    return {n: traced_peak(pulsed.simulate_stream, DENSE_TRAIN_PARAMS, dense_train(n), 12345)
            for n in (1 << 16, 1 << 17)}


def test_stream_peak_above_its_tags_does_not_grow_with_the_train(dense_streams):
    # one chunk's working set, which does not grow with the train
    excess = {n: peak - stream_bytes(stream) for n, (stream, peak) in dense_streams.items()}
    assert excess[1 << 17] <= 1.2 * excess[1 << 16]


def test_pulsed_hom_peak_is_bounded_by_blocks(dense_streams):
    stream = dense_streams[1 << 17][0]
    _, peak = traced_peak(pulsed.pulsed_hom, stream, 0.9, 12345)
    assert peak <= 1.5 * stream_bytes(stream)


def test_coincidence_histogram_peak_is_bounded_by_blocks(dense_streams):
    stream = dense_streams[1 << 17][0]
    _, peak = traced_peak(pulsed.coincidence_histogram, stream.times, 3.2 * stream.train.pair_period, 0.05)
    assert peak <= 0.5 * stream_bytes(stream)
