"""Pulsed excitation: Rabi oscillations, quantum-jump photon streams,
coincidence-peak analysis and the click-level two-photon interference
estimator.

The Monte Carlo engine unravels only the emission channel of the emitter
master equation, in the waiting-time form of the quantum-jump method
(Dalibard, Castin & Moelmer, PRL 68, 580 (1992)), over two-pulse excitation
cycles. Pulse cycles are statistically independent (the emitter starts each
cycle in the ground state; residual excitation at the end of a cycle is
negligible for any sensible cycle period).
Between clicks a trajectory carries the unnormalized conditional density
matrix x = (u, v, w, tr) under the no-jump generator L0 = L - J, whose trace
is the probability of no click since the last one (Srinivas & Davies, Opt.
Acta 28, 981 (1981)). Pure dephasing is part of L0, so it draws no random
numbers: the click statistics are exact without unravelling it. Within the
window of a pulse (the train's ``emitter.Pulse``) x evolves under per-step
matrix exponentials of L0, and a click happens at the first step boundary
where tr(x) falls below a uniform deviate; a click resets the emitter to the
ground state, records a time tag and draws a new deviate. The drive-free
stretches between windows take one exact exponential each, and their click
times are solved in closed form.

Rather than marching every trajectory through every step, the engine
tabulates the cumulative step products once per stream and runs a window one
table segment [a, b) at a time. Every trajectory then aims at the same
boundary b: a pass moves all of them to b with one 4x4 product and tests the
trace there. Those that stay above their threshold are done with the
segment; the others locate their click by binary search on the
non-increasing trace, re-anchor there and go round again. Later passes carry
only the clicking trajectories, test them on a tabulated trace at b, and
write the state of one back only where it ends. In the first pulse window
all start in the ground state, so the first search reads a tabulated column.
The step exponentials have 1-norms near 0.01, where ``emitter._expm`` takes
the degree-3 Pade approximant.

Randomness comes from the counter-based Philox generator, keyed by
`_rng(seed, purpose, index)` (Salmon et al., SC'11 (2011)). Pairs fall into
fixed chunks of 2^16; chunk i draws from purpose 0, index i, so a stream
depends on the seed and the model alone, never on the thread count. Each
trajectory draws one deviate at the start and one per click; within a
segment, passes run in order and the clicks of one pass draw in ascending
trajectory order.

Memory: a run holds the returned stream plus one chunk's working set per
thread, not a multiple of the stream. Chunk order is time order, so each
chunk sorts its own tags and the stream is their concatenation, made one
column at a time. The estimators work on `_CHUNK_PAIRS`-sized blocks:
`pulsed_hom` routes with int8 slots and detectors drawn block by block
and counts its clusters per block of pairs, and `coincidence_histogram`
takes its lag differences per block of start tags.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np
import numpy.random  # noqa: F401 -- numpy loads it lazily; load it with the module, not in a run

from .emitter import _GROUND, _STEPS_PER_PULSE, EmitterParams, Pulse, PulseTrain, _expm, _generator, _propagate

_CHUNK_PAIRS = 1 << 16  # pairs per Philox key
_STREAM, _ROUTE_PARALLEL, _ROUTE_ORTHOGONAL = range(3)  # Philox key purposes
_SEGMENT_T = 9.0  # propagator-table segment length, in min(t1, t2)
_MAX_SIDE_LAG = 20  # side clusters of `hbt_analyze`, in pair periods
_SPLITTER_RATIO = 0.5  # long-arm probability of `pulsed_hom`'s interferometer
_BALL_TOL = 1e-9  # relative slack of the step maps' Bloch-ball check in `_WindowTables`


def _rng(seed: int, purpose: int, index: int) -> np.random.Generator:
    """Philox generator keyed (seed, purpose * 2^56 + index): for
    index < 2^56, distinct (seed, purpose, index) triples share no key."""
    if not 0 <= seed < 2 ** 64:
        raise ValueError(f"seed must lie in [0, 2^64), got {seed}")
    key = np.array([seed, (purpose << 56) + index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class PhotonStream:
    """Time-tagged emission record.

    times are global (ns, ascending); pair_index / pulse_index annotate the
    excitation cycle and the pulse within it; params/train are the model
    that produced it.
    """

    times: np.ndarray
    pair_index: np.ndarray
    pulse_index: np.ndarray
    params: EmitterParams
    train: PulseTrain

    def __post_init__(self):
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        object.__setattr__(self, "pair_index", np.asarray(self.pair_index, dtype=np.int64))
        object.__setattr__(self, "pulse_index", np.asarray(self.pulse_index, dtype=np.int64))
        if not (len(self.times) == len(self.pair_index) == len(self.pulse_index)):
            raise ValueError("tag arrays must have equal length")
        if np.any(self.times[1:] < self.times[:-1]):
            raise ValueError("tags must be sorted by time")
        if np.any(self.pair_index[1:] < self.pair_index[:-1]):
            raise ValueError("pair indices must not decrease along the stream")
        mean = self.mean_per_pulse
        # at most one photon per t1 while the window drives, and one after it
        bound = 1.0 + 2.0 * self.train.pulse.half_window / self.params.t1 + 0.05
        if mean > bound:
            raise ValueError(f"mean emissions/pulse {mean:.3f} exceeds the physical band {bound:.3f}")

    @property
    def n_tags(self) -> int:
        return len(self.times)

    @property
    def mean_per_pulse(self) -> float:
        return self.n_tags / (2.0 * self.train.n_pairs)

    def counts_per_pulse(self) -> np.ndarray:
        """(n_pairs, 2) integer emission counts."""
        key = self.pair_index * 2
        key += self.pulse_index
        return np.bincount(key, minlength=2 * self.train.n_pairs).reshape(-1, 2)


def rabi_curve(
    params: EmitterParams,
    areas,
    pulse_fwhm: float,
    shape: str = "gaussian",
) -> list[tuple[float, float]]:
    """Expected photons emitted per pulse versus pulse area.

    Deterministic ensemble expectation: propagates the Bloch equations with
    an auxiliary emission integral d n/dt = rho_ee / t1 through the pulse
    and 15 t1 of subsequent decay, which equals the trajectory-averaged
    photon number of the jump unraveling. Approaches sin^2(area/2) for
    pulse_fwhm << t1.

    The pulse is ``emitter.Pulse(area, pulse_fwhm, shape)`` on its window,
    as in ``PulseTrain``. Every area shares the envelope shape, window and
    end time; only the peak Rabi rate differs. So all nonzero
    areas propagate together as the columns of one (5, n_areas) state under
    the unit-area pulse scaled per column (see ``emitter._propagate``): a
    square pulse and the decay tail are one matrix exponential each, and a
    gaussian pulse takes split steps whose count doubles until the error
    estimate of their sixth-order Romberg value is below
    ``emitter._SPLIT_TOL``.
    """
    areas = np.asarray(areas, dtype=float)
    unit = Pulse(1.0, pulse_fwhm, shape)
    if np.any(areas < 0):
        raise ValueError("areas must be >= 0")
    if not np.all(np.isfinite(areas)):
        raise ValueError("areas must be finite")
    photons = np.zeros(len(areas))
    driven = areas > 0.0
    if np.any(driven):
        t_end = 2.0 * unit.half_window + 15.0 * params.t1
        x0 = np.tile(np.append(_GROUND, 0.0)[:, None], np.count_nonzero(driven))
        x = _propagate(params, unit, x0, np.array([0.0, t_end]), scale=areas[driven])
        photons[driven] = x[4, :, -1]
    return [(float(a), float(n)) for a, n in zip(areas, photons)]


def _no_jump_generator(params: EmitterParams, rabi: float) -> np.ndarray:
    """Generator L0 = L - J on x = (u, v, w, tr) (see ``emitter._generator``):
    the master equation without the emission jump J, so tr(x) leaks at
    rho_ee / t1 and no jump refills the ground state."""
    g = _generator(params, rabi)
    l0 = g[:4, :4].copy()
    l0[3] -= g[4, :4]
    l0[2] += g[4, :4]
    return l0


class _WindowTables:
    """Read-only propagator tables of one excitation cycle, shared by all chunks.

    Step j (0 <= j < steps) of a pulse window applies m_j = expm(L0 dt)
    (``_no_jump_generator``) at the step's midpoint Rabi rate; boundary j
    lies after j steps. The window splits into segments [a, b) between
    consecutive entries of `bounds`, of `seg` steps except perhaps the last,
    at most 9 min(t1, t2): the symmetric part of L0 has eigenvalues 0, -1/t1
    and -1/t2 (twice), so a product over time T has condition number at
    most e^(T / min(t1, t2)) <= e^9 and the reset columns stay accurate.

    - C_j is the product of the steps from the start of the segment holding
      step j-1 through step j-1 (C_0 = I);
    - trace_row[l][j]: entry (3, l) of C_j, the row that maps a state to its
      trace;
    - ends[s]: C_b at the end b = bounds[s + 1] of segment s, the whole
      product over that segment;
    - reset[:, k]: the ground state (0, 0, -1, 1) mapped by the inverse of
      C_k, which is the identity at a segment start;
    - live: the l, ascending, whose trace_row[l] is not identically zero
      (the u entry vanishes without detuning); ``trace_at`` sums only those;
    - exit_trace[k]: tr(C_b reset[:, k]) for k in segment [a, b);
    - decay[i]: expm(L0 gaps[i]) at zero drive, over the drive-free gaps
      after pulse i (the ground state is its fixed point);
    - ground_trace[j]: tr(C_j g) from the ground state g = (0, 0, -1, 1)
      for j in [0, b] of the first segment, searched by the first pass of the
      first pulse window; entries a few ulp above 1 pass any threshold < 1.

    A trajectory anchored at boundary k of segment [a, b) with state x
    carries y, with x = C_k y (y = x at a, y = reset[:, k] after a click at
    k); for k < j <= b its state is C_j y.
    """

    def __init__(self, params: EmitterParams, train: PulseTrain, steps: int):
        pulse = train.pulse
        half = pulse.half_window
        self.dt = dt = 2.0 * half / steps
        omegas = pulse.omega((np.arange(steps) + 0.5) * dt)
        free = _no_jump_generator(params, 0.0)
        per_rabi = _no_jump_generator(params, 1.0) - free
        seg = max(1, min(steps, int(_SEGMENT_T * min(params.t1, params.t2) / dt)))
        n_seg = -(-steps // seg)
        # A drive too strong for the steps loses accuracy in the squaring of
        # `_expm`, or overflows there or in the scan. The no-jump map keeps
        # a state in the Bloch ball, |(u, v, w)| <= tr; a step map that
        # takes the ground state out of it (m_j g = column 3 - column 2)
        # has lost its accuracy. Both are checked once, before the solve.
        with np.errstate(over="ignore", invalid="ignore"):
            mats = _expm((free + np.multiply.outer(omegas, per_rabi)) * dt)
            step_g = mats[:, :, 3] - mats[:, :, 2]
            in_ball = np.linalg.norm(step_g[:, :3], axis=1) <= step_g[:, 3] * (1.0 + _BALL_TOL)
            prod = np.tile(np.eye(4), (n_seg * seg, 1, 1))
            prod[:steps] = mats
            prod = prod.reshape(n_seg, seg, 4, 4)
            # Hillis-Steele scan within each segment, later steps on the left.
            shift = 1
            while shift < seg:
                prod[:, shift:] = prod[:, shift:] @ prod[:, :-shift]
                shift *= 2
        c = np.concatenate([np.eye(4)[None], prod.reshape(-1, 4, 4)[:steps]])
        try:
            if not in_ball.all():
                raise np.linalg.LinAlgError("a step map takes the ground state out of the Bloch ball")
            if not np.isfinite(c).all():
                raise np.linalg.LinAlgError("non-finite step products")
            reset = np.linalg.solve(c, np.broadcast_to(_GROUND[:, None], (steps + 1, 4, 1)))[..., 0]
        except np.linalg.LinAlgError as exc:
            raise OverflowError(
                f"the drive (peak {pulse.peak:.3g} rad/ns) overflows the step exponentials of the "
                f"{steps} window steps of {dt:.3g} ns ({exc})"
            ) from None
        reset[::seg] = _GROUND
        self.bounds = list(range(0, steps, seg)) + [steps]
        self.ends = c[self.bounds[1:]]
        # One contiguous array per entry: per-trajectory gathers from 1-D
        # tables are several times faster than from stacked ones.
        self.trace_row = [np.ascontiguousarray(c[:, 3, l]) for l in range(4)]
        self.live = [l for l in range(4) if self.trace_row[l].any()]
        self.reset = np.ascontiguousarray(reset.T)
        self.exit_trace = self.trace_at(np.repeat(self.bounds[1:], np.diff(self.bounds)), self.reset[:, :-1])
        self.ground_trace = self.trace_at(np.arange(self.bounds[1] + 1), _GROUND[:, None])
        self.gaps = (train.separation_ns - 2.0 * half, train.pair_period_ns - train.separation_ns - 2.0 * half)
        self.decay = _expm(np.multiply.outer(self.gaps, free))

    def trace_at(self, j, y) -> np.ndarray:
        """tr(C_j y) for the (4, n) anchored states y, over the live rows."""
        # Elementwise sums in this order: the stream's rounding rests on it.
        first, *rest = self.live
        total = self.trace_row[first].take(j)
        total *= y[first]
        for l in rest:
            term = self.trace_row[l].take(j)
            term *= y[l]
            total += term
        return total


class _ChunkState:
    """Mutable per-chunk trajectory arrays (one trajectory per pulse pair).

    Each `record` call keeps the clicking trajectories, their local times
    and the one pulse number they share, until `tags` merges them.
    """

    def __init__(self, n: int, rng: np.random.Generator):
        self.rng = rng
        self.x = np.repeat(_GROUND[:, None], n, axis=1)
        self.thresh = rng.random(n)
        self.tag_idx = [np.empty(0, dtype=np.int64)]
        self.tag_time = [np.empty(0)]
        self.tag_pulse = [0]

    def record(self, idx, times, pulse: int):
        self.tag_idx.append(idx)
        self.tag_time.append(times)
        self.tag_pulse.append(pulse)

    def reset_ground(self, idx):
        self.x[:, idx] = _GROUND[:, None]
        self.thresh[idx] = self.rng.random(len(idx))

    def tags(self, first_pair: int, pair_period: float):
        """The chunk's clicks in time order, as a list of global times,
        global pair indices and pulse indices (int8), for pairs numbered
        from `first_pair`. The sort is stable: equal times keep record
        order."""
        pulse = np.repeat(np.array(self.tag_pulse, dtype=np.int8), [len(i) for i in self.tag_idx])
        pair = np.concatenate(self.tag_idx)
        self.tag_idx = None
        pair += first_pair
        times = pair * pair_period
        times += np.concatenate(self.tag_time)
        self.tag_time = None
        order = np.argsort(times, kind="stable")
        return [times.take(order), pair.take(order), pulse.take(order)]


def _run_pulse_window(state: _ChunkState, tab: _WindowTables, t_start, pulse_idx, from_ground=False):
    """Carry all trajectories through one pulse window, recording clicks.

    The law is that of marching step by step: after each step tr(x) is
    tested against the threshold; below it, the emitter clicks at that
    boundary (the tag time interpolates log-linearly within the step) and
    resets to the ground state. The window runs one table segment [a, b)
    at a time, and a segment in passes. The first pass moves every
    trajectory to b with the segment's product C_b (state.x then holds
    where it ends unless it clicks first) and tests the trace there. Those
    that stay above their threshold are done; the others find their first
    boundary below it (tr(x) does not increase between clicks), click
    there, re-anchor and take part in the next pass. A pass carries only
    its clicking trajectories (index, boundary, threshold) and writes
    state.x only where one ends: the ground state after a click at b, or
    C_b y when it stays above its new threshold after re-anchoring
    (``_reanchor``). Anchored states and their products live only inside
    the helper that uses them, so a window holds little beyond state.x.

    Every pass locates its clicks with ``_crossing``; where all start the
    window in the ground state (``from_ground``), the first pass searches
    the tabulated column ``_WindowTables.ground_trace``.

    Draw order: the trajectories of a pass are kept in ascending order, so
    its clicks draw their new thresholds in that order, and the draws of
    one segment all precede those of the next.
    """
    for a, b, end in zip(tab.bounds[:-1], tab.bounds[1:], tab.ends):
        y = state.x  # C_a = I at a segment start
        state.x = np.einsum("ij,jn->in", end, y)  # not @: the stream's rounding rests on einsum
        idx = np.flatnonzero(state.x[3] < state.thresh)
        if not len(idx):
            continue
        u = state.thresh.take(idx)
        if from_ground and a == 0:
            del y  # every state is the ground state, whose traces are tabulated
            hi, steps = _crossing(tab.ground_trace.take, a, b, 1.0, u)
        else:
            y = y.take(idx, axis=1)
            hi, steps = _crossing(partial(tab.trace_at, y=y), a, b, y[3], u)
            del y  # later passes anchor in the reset states
        while True:
            state.record(idx, t_start + steps * tab.dt, pulse_idx)
            u = state.rng.random(len(idx))
            state.thresh[idx] = u
            at_b = hi == b
            if at_b.any():
                state.x[:, idx[at_b]] = _GROUND[:, None]  # a click at b leaves the ground state there
                go = np.flatnonzero(~at_b)
                idx, hi, u = idx.take(go), hi.take(go), u.take(go)
            idx, k, u = _reanchor(state, tab, end, idx, hi, u)
            if not len(idx):
                break
            hi, steps = _crossing(partial(tab.trace_at, y=tab.reset.take(k, axis=1)), k, b, 1.0, u)


def _crossing(trace, k, b, s_anchor, u):
    """The first boundary hi in (k, b] with trace(hi) < u, where trace(j) is
    tr(C_j y) for states y anchored at boundary k whose trace there is
    s_anchor >= u and at b is below u, and the click time in steps.

    The last boundary lo = hi - 1 with trace(lo) >= u comes in binary steps
    of falling size, a candidate past b tested at b; hi is clamped to b,
    where trace(b) may round to >= u against the click test there."""
    lo = np.full(u.shape, k)
    for shift in reversed(range(int(b - np.min(k) - 1).bit_length())):
        lo += (1 << shift) * (trace(np.minimum(lo + (1 << shift), b)) >= u)
    hi = np.minimum(lo + 1, b)
    lo = hi - 1
    return hi, _click_steps(hi, np.where(lo == k, s_anchor, trace(lo)), trace(hi), u)


def _click_steps(hi, s0, s1, u):
    """Click times in steps from the window start: within step hi - 1,
    where the trace falls from s0 to s1 across u, interpolated
    log-linearly."""
    # a trace below a tiny threshold can round to <= 0
    frac = np.log(s0 / u) / np.log(s0 / np.maximum(s1, np.finfo(float).tiny))
    return hi - 1 + np.clip(frac, 0.0, 1.0)


def _reanchor(state: _ChunkState, tab: _WindowTables, end, idx, k, u):
    """Anchor the trajectories idx, which clicked at boundaries k before
    the segment's end b, in the ground state there. Those whose trace at b
    (``exit_trace``) stays above their new threshold u are done: their
    state there is written. Returns (idx, k, u) of the others, which click again."""
    clicks = tab.exit_trace.take(k) < u
    stay = np.flatnonzero(~clicks)
    state.x[:, idx.take(stay)] = np.einsum("ij,jn->in", end, tab.reset.take(k.take(stay), axis=1))
    again = np.flatnonzero(clicks)
    return idx.take(again), k.take(again), u.take(again)


def _run_free_decay(state: _ChunkState, t_start, length, pulse_idx, params, decay):
    """Drive-free stretch: at most one click per trajectory, at the time
    where rho_gg + rho_ee e^(-t/t1) meets the threshold, then the exact
    propagator ``decay``, if given."""
    gamma = 1.0 / params.t1
    x = state.x
    pe = 0.5 * (x[3] + x[2])
    pg = x[3] - pe
    jumped = np.flatnonzero(pg + pe * math.exp(-gamma * length) < state.thresh)
    if len(jumped):
        arg = (state.thresh[jumped] - pg[jumped]) / pe[jumped]
        state.record(jumped, t_start - np.log(arg) / gamma, pulse_idx)
        state.reset_ground(jumped)
    if decay is not None:
        state.x = np.einsum("ij,jn->in", decay, state.x)  # not @, as in the window


def _simulate_chunk(params, train, tables, rng, n_chunk, first_pair):
    state = _ChunkState(n_chunk, rng)
    # Local timeline: pulse 0 spans [-half, half] around 0, pulse 1 around
    # `separation_ns`; the cycle ends where the next cycle's window begins.
    half = train.pulse.half_window
    for pulse, center in enumerate((0.0, train.separation_ns)):
        _run_pulse_window(state, tables, center - half, pulse, from_ground=pulse == 0)
        decay = None if pulse else tables.decay[0]  # no state is read after the cycle
        _run_free_decay(state, center + half, tables.gaps[pulse], pulse, params, decay)
    return state.tags(first_pair, train.pair_period_ns)


def simulate_stream(
    params: EmitterParams,
    train: PulseTrain,
    seed: int,
    workers: int = 1,
) -> PhotonStream:
    """Quantum-jump Monte Carlo photon stream for a two-pulse train.

    The stream is a function of (params, train, seed): each pulse window
    takes `_STEPS_PER_PULSE` steps, pairs are split into fixed chunks of
    2^16, chunk i draws from `_rng(seed, _STREAM, i)`, and `workers` only
    sets how many threads (at most the core count) run the chunks. A seed
    outside [0, 2^64) raises ValueError.

    Memory: the peak above the returned stream (24 bytes per tag) is one
    chunk's working set per thread, not a multiple of the stream. Pair p's
    tags lie in [p T - half, (p + 1) T - half) for pair period T and half
    window `half`, so chunk i's tags all precede chunk i + 1's. Each chunk
    sorts its own tags as it finishes and keeps them in 17 bytes per tag
    (the pulse index as int8). The stream's columns are then concatenated
    one at a time, and each column's chunk copies are dropped once merged.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    tables = _WindowTables(params, train, _STEPS_PER_PULSE)
    n = train.n_pairs
    n_chunks = -(-n // _CHUNK_PAIRS)

    def run(chunk):
        lo = chunk * _CHUNK_PAIRS
        size = min(_CHUNK_PAIRS, n - lo)
        return _simulate_chunk(params, train, tables, _rng(seed, _STREAM, chunk), size, lo)

    threads = min(workers, os.cpu_count() or 1, n_chunks)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(run, range(n_chunks)))
    else:
        parts = [run(chunk) for chunk in range(n_chunks)]

    columns = []
    for c, dtype in enumerate((float, np.int64, np.int64)):
        columns.append(np.concatenate([part[c] for part in parts], dtype=dtype))
        for part in parts:
            part[c] = None
    times, pair_index, pulse_index = columns
    return PhotonStream(
        times=times, pair_index=pair_index, pulse_index=pulse_index, params=params, train=train
    )


@dataclass(frozen=True)
class PeakReport:
    """Coincidence-cluster analysis of a pulsed stream.

    peak_areas maps the integer pair-period lag to the total coincidence
    count of that cluster (lag 0 holds all same-pair photon pairs).
    g_metric is the same-pulse two-photon rate over the uncorrelated
    two-single-photon rate; g2_zero the per-pulse analogue. overlap and aux
    (the orthogonal areas, the multi-photon correction and the unclipped
    overlap with its error) are only set by the two-photon-interference
    estimator.
    """

    peak_areas: dict[int, float]
    g_metric: float
    g2_zero: float
    g_metric_err: float = 0.0
    g2_zero_err: float = 0.0
    overlap: float | None = None
    aux: dict = field(default_factory=dict)

    def __post_init__(self):
        if any(v < 0 for v in self.peak_areas.values()):
            raise ValueError("peak areas must be >= 0")
        if self.g_metric < 0 or self.g2_zero < 0:
            raise ValueError("g metrics must be >= 0")
        if self.overlap is not None and not -1e-9 <= self.overlap <= 1.0 + 1e-9:
            raise ValueError("overlap estimate must lie in [0, 1]")


def hbt_analyze(stream: PhotonStream) -> PeakReport:
    """Cluster the pulsed autocorrelation and form the two-photon metric.

    Cluster areas are kept for pair-period lags 0 to `_MAX_SIDE_LAG` (or
    n_pairs - 1 when fewer). The metric normalizes the same-pulse pair count by the mean
    uncorrelated cluster area at lags of two or more pair periods, matching
    the combination multiplicity of the central sub-peak (the lag-d*period
    sub-peak collects both same-pulse-index products, exactly like the
    central one). g2_zero does the same per pulse using the full
    four-combination cluster area. Poisson one-sigma errors accompany both.
    """
    if stream.n_tags == 0:
        raise ValueError("empty photon stream")
    counts = stream.counts_per_pulse()
    n = counts.shape[0]
    if n < 3:
        raise ValueError("need at least 3 pulse pairs for side clusters")
    # Lag sums stay on the int64 counts: numpy's integer dot is exact and
    # never enters BLAS.
    c0, c1 = counts[:, 0], counts[:, 1]

    same_pulse = _same_pulse_pairs(counts, stream.n_tags)
    center_rates = []
    all_rates = []
    peak_areas = {0: same_pulse + float(c0 @ c1)}
    tot = c0 + c1
    for d in range(1, min(_MAX_SIDE_LAG, n - 1) + 1):
        area = float(tot[:-d] @ tot[d:])
        peak_areas[d] = area
        if d >= 2:
            center = float(c0[:-d] @ c0[d:] + c1[:-d] @ c1[d:])
            center_rates.append(center / (n - d))
            all_rates.append(area / (n - d))
    if not center_rates:
        raise ValueError("not enough pairs beyond two periods for normalization")
    center_ref = float(np.mean(center_rates))  # ~ 2 * mu^2 per pair instance
    all_ref = float(np.mean(all_rates))  # ~ 4 * mu^2 per pair instance
    if center_ref <= 0 or all_ref <= 0:
        raise ValueError("side clusters are empty; cannot normalize")

    g_metric = (same_pulse / n) / center_ref
    g2_zero = (same_pulse / (2.0 * n)) / (all_ref / 4.0)
    g_err = math.sqrt(same_pulse + 1.0) / (n * center_ref)
    g2_err = math.sqrt(same_pulse + 1.0) / (2.0 * n * all_ref / 4.0)
    return PeakReport(
        peak_areas=peak_areas,
        g_metric=g_metric,
        g2_zero=g2_zero,
        g_metric_err=g_err,
        g2_zero_err=g2_err,
    )


def _same_pulse_pairs(counts: np.ndarray, n_tags: int) -> float:
    """Photon pairs within one pulse, the sum of c (c - 1) / 2 over the
    per-pulse counts c (which sum to n_tags): (c.c - n_tags) / 2, with one
    exact int64 dot."""
    flat = counts.ravel()
    return float((flat @ flat - n_tags) // 2)


def _mean_power(base: float, counts: np.ndarray) -> float:
    """Mean of base ** c over the counts c, summed once per distinct count."""
    tally = np.bincount(counts)
    return float(np.sum(tally * base ** np.arange(len(tally)))) / len(counts)


def _draw_below(rng, m: int, p: float) -> np.ndarray:
    """Boolean rng.random(m) < p, drawn in blocks of `_CHUNK_PAIRS`: the
    same sequential deviates without an m-long float array."""
    out = np.empty(m, dtype=bool)
    for lo in range(0, m, _CHUNK_PAIRS):
        block = out[lo : lo + _CHUNK_PAIRS]
        np.less(rng.random(len(block)), p, out=block)
    return out


def _first_per_pair(pair_index, mask):
    """Positions and pair indices of the first photon of each pair among
    those in `mask`; pair_index does not decrease along a stream."""
    idx = np.flatnonzero(mask)
    pairs = pair_index[idx]
    first = np.empty(len(idx), dtype=bool)
    first[:1] = True
    np.not_equal(pairs[1:], pairs[:-1], out=first[1:])
    return idx[first], pairs[first]


def _route_config(stream: PhotonStream, rng, hom_active, overlap):
    """One interferometer pass: slot id (0, 1, 2 within the pair) and
    detector per photon, both int8.

    The draws run in order: the long-path choice of every photon, then
    every detector, then, when `hom_active`, the bunching and the port of
    every meeting."""
    m = stream.n_tags
    long_path = _draw_below(rng, m, _SPLITTER_RATIO)
    det = _draw_below(rng, m, 0.5).view(np.int8)

    if hom_active:
        # One interfering pair per cycle: the first pulse-0 photon routed
        # long against the first pulse-1 photon routed short.
        pulse = stream.pulse_index
        a_idx, a_pairs = _first_per_pair(stream.pair_index, (pulse == 0) & long_path)
        b_idx, b_pairs = _first_per_pair(stream.pair_index, (pulse == 1) & ~long_path)
        pos = np.searchsorted(b_pairs, a_pairs)
        hit = pos < len(b_pairs)
        hit[hit] = b_pairs[pos[hit]] == a_pairs[hit]
        a_idx, b_idx = a_idx[hit], b_idx[pos[hit]]
        bunch = rng.random(len(a_idx)) < overlap
        port = rng.random(len(a_idx)) < 0.5
        det[a_idx[bunch]] = port[bunch]
        det[b_idx[bunch]] = port[bunch]
    slot = long_path.view(np.int8)
    slot += stream.pulse_index
    return slot, det


def _cluster_areas(stream: PhotonStream, slot, det):
    """Cross-detector pair counts at same-pair slot lags 0, 1, 2, summed
    over blocks of pairs (``_slot_products``): p[s, s']
    pairs slot s at detector 0 with slot s' at detector 1, so lag l sums
    the entries with |s - s'| = l."""
    pair = stream.pair_index
    n = stream.train.n_pairs
    # Half-chunk blocks: a block's tally (six int64 counts per pair) then
    # fits in the memory a chunk's trajectory state (four floats per pair)
    # freed, rather than adding to the peak.
    size = max(_CHUNK_PAIRS // 2, 1)
    firsts = range(0, n, size)
    edges = np.searchsorted(pair, [*firsts, n])
    p = np.zeros((3, 3), dtype=np.int64)
    for first, lo, hi in zip(firsts, edges[:-1], edges[1:]):
        p += _slot_products(pair[lo:hi], slot[lo:hi], det[lo:hi], first, min(size, n - first))
    areas = (np.trace(p), p[0, 1] + p[1, 0] + p[1, 2] + p[2, 1], p[0, 2] + p[2, 0])
    return {lag: float(area) for lag, area in enumerate(areas)}


def _slot_products(pair, slot, det, first: int, n_pairs: int) -> np.ndarray:
    """The 3x3 int64 product of the detector-0 and detector-1 slot counts
    of pairs first ... first + n_pairs - 1, from one tally of the photons
    per (pair, slot, detector). Its arrays die with the call, so blocks
    never overlap in memory."""
    key = pair - first
    key *= 3
    key += slot
    key *= 2
    key += det
    counts = np.bincount(key, minlength=6 * n_pairs).reshape(-1, 3, 2)
    return counts[:, :, 0].T @ counts[:, :, 1]  # exact, no BLAS


def pulsed_hom(
    stream: PhotonStream,
    overlap_true: float,
    seed: int,
) -> PeakReport:
    """Click-level two-photon interference of consecutive pulses.

    Photons pass an unbalanced interferometer whose delay is the pulse
    separation and whose first coupler sends a photon into the long arm with
    probability `_SPLITTER_RATIO`; a same-pair meeting (pulse-0 photon delayed against pulse-1
    photon) bunches with probability overlap_true in the parallel
    configuration and never in the orthogonal one. The overlap estimate is
    1 - A_par(0)/A_orth(0) rescaled by the multi-photon correction
    2*A_orth(0)/(n*S), with S the per-cycle probability of a meeting
    computed from the recorded per-pulse counts; for weak contamination the
    correction reduces to the familiar (1 + 4g) inflation.

    The two configurations route with `_rng(seed, purpose, 0)` under their
    own purposes, so the stream's seed may be passed: no key is shared
    with any stream chunk. A seed outside [0, 2^64) raises ValueError.
    """
    if not 0.0 <= overlap_true <= 1.0:
        raise ValueError("overlap_true must lie in [0, 1]")
    if stream.n_tags == 0:
        raise ValueError("empty photon stream")

    rng_par, rng_ort = _rng(seed, _ROUTE_PARALLEL, 0), _rng(seed, _ROUTE_ORTHOGONAL, 0)
    # one configuration's routing at a time, dropped once counted
    areas_par = _cluster_areas(stream, *_route_config(stream, rng_par, True, overlap_true))
    areas_ort = _cluster_areas(stream, *_route_config(stream, rng_ort, False, 0.0))

    counts = stream.counts_per_pulse()  # int64: the dots below stay out of BLAS
    n = counts.shape[0]
    r = _SPLITTER_RATIO
    p_meet_a = 1.0 - _mean_power(1.0 - r, counts[:, 0])
    p_meet_b = 1.0 - _mean_power(r, counts[:, 1])
    s_meet = p_meet_a * p_meet_b
    if s_meet <= 0 or areas_ort[0] <= 0:
        raise ValueError("stream carries no interfering events")

    raw = 1.0 - areas_par[0] / areas_ort[0]
    correction = 2.0 * areas_ort[0] / (n * s_meet)
    estimate = raw * correction
    err = 2.0 * math.sqrt(areas_par[0] + areas_ort[0]) / (n * s_meet)

    m2 = _same_pulse_pairs(counts, stream.n_tags) / n
    x = float(counts[:, 0] @ counts[:, 1]) / n
    g_est = m2 / (2.0 * x) if x > 0 else 0.0
    return PeakReport(
        peak_areas=areas_par,
        g_metric=g_est,
        g2_zero=g_est,
        overlap=min(max(estimate, 0.0), 1.0),
        aux={
            "areas_orthogonal": areas_ort,
            "correction": correction,
            "overlap_raw": estimate,
            "overlap_err": err,
        },
    )


def coincidence_histogram(times: np.ndarray, max_lag: float, bin_width: float):
    """Symmetric histogram of pairwise time differences.

    The bins of width bin_width run from 0 to the first edge at or past
    max_lag, and count every lag up to that last edge, so the outermost
    bins are as full as their neighbours. Returns (bin centers, counts);
    each unordered pair contributes at +lag and -lag, as a start-stop
    correlator would record it. Sorted times are used as given, others are
    sorted first; the differences are taken for `_CHUNK_PAIRS` start tags
    at a time.

    Bin rule, as np.histogram's on these edges: lag d falls in bin j when
    e_j <= d < e_(j+1), and the last bin also holds d = L. With n bins of
    width w, np.arange lays edge j down as e_j = fl(j w), so L = e_n. Each
    lag takes f = fl(d s), s = fl(n / L), and i = trunc(f); its fractional
    part r = f - i is exact (Sterbenz). With unit roundoff u,
    e_j = j w (1 + a_j) and L = n w (1 + a_n) for |a_j| <= u, so
    f = (d / w)(1 + b) with |b| <= 3u to first order. If tol <= r <= 1 - tol,
    then d / w >= (i + tol)(1 - 3u) >= i (1 + u) >= e_i / w once tol >= 4u i,
    and d / w <= (i + 1 - tol)(1 + 3u) < (i + 1)(1 - u) <= e_(i+1) / w once
    tol > 4u (i + 1). Since i < n (d <= L keeps f <= n (1 + 3u), so i = n
    only with r <= 3un), tol = 4 n eps = 8 n u bounds both with a factor 2,
    and such a lag lies strictly inside bin i. Only lags with r within tol
    of 0 or 1 take the edge comparisons.
    """
    times = np.asarray(times, dtype=float)
    if not np.all(times[1:] >= times[:-1]):
        times = np.sort(times)
    edges = np.arange(0.0, max_lag + bin_width, bin_width)
    nbins = len(edges) - 1
    pos = np.zeros(nbins, dtype=np.int64)
    m = len(times) if nbins else 0
    scale = nbins / edges[-1] if nbins else 0.0
    tol = 4.0 * nbins * np.finfo(float).eps
    for start in range(0, m, _CHUNK_PAIRS):
        stop = min(start + _CHUNK_PAIRS, m)
        # differences grow with the lag k for every start tag, so a block
        # is done at the first lag with none up to the last edge
        for k in range(1, m - start):
            count = min(stop, m - k) - start
            diffs = times[start + k : start + k + count] - times[start : start + count]
            close = diffs[diffs <= edges[-1]]
            if len(close) == 0:
                break
            f = close * scale
            idx = f.astype(np.intp)
            f -= idx
            near = np.flatnonzero((f < tol) | (f > 1.0 - tol))
            if len(near):  # np.histogram's fix of edge roundoff
                lag = close.take(near)
                j = np.minimum(idx.take(near), nbins - 1)
                j -= lag < edges[j]
                j += (lag >= edges[j + 1]) & (j < nbins - 1)
                idx[near] = j
            pos += np.bincount(idx, minlength=nbins)
    centers_pos = (edges[:-1] + edges[1:]) / 2.0
    centers = np.concatenate([-centers_pos[::-1], centers_pos])
    counts = np.concatenate([pos[::-1], pos])
    return centers, counts
