"""Shared test oracles, kept independent of the library code paths they check."""

import itertools
import math
import tracemalloc
import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm
from scipy.optimize import OptimizeWarning, curve_fit

from cohscat.emitter import (
    _PADE,
    _THETA,
    HBAR_UEV_NS,
    EmitterParams,
    IntegrationError,
    Pulse,
    PulseTrain,
    steady_state,
)
from cohscat.pulsed import _CHUNK_PAIRS, _SPLITTER_RATIO, _STREAM, PhotonStream, _rng
from cohscat._svg import _COLORS, _H, _MB, _ML, _MR, _MT, _W, _ticks
from cohscat.correlations import _uniform_step
from cohscat.spectrum import GridError, SpectralResponse, lorentzian

Config = tuple[tuple[int, int], ...]  # sorted ((mode, label), ...)
_MAX_PHOTONS = 3  # largest photon number the Fock engine and the permanent take


def g2_resonant_closed_form(t1, rabi, taus):
    """Damped-oscillation solution for the resonant g2 at t2 = 2*t1.

    mu is complex below the oscillation threshold; the expression stays
    real either way.
    """
    taus = np.abs(np.asarray(taus, dtype=float))
    mu = np.sqrt(complex(rabi ** 2 - (1.0 / (4.0 * t1)) ** 2))
    if mu == 0:
        damp = 1.0 + 3.0 * taus / (4.0 * t1)
    else:
        damp = np.cos(mu * taus) + (3.0 / (4.0 * t1)) * np.sin(mu * taus) / mu
    return (1.0 - np.exp(-3.0 * taus / (4.0 * t1)) * damp).real


def liouvillian_reference(t1, t2, detuning, rabi):
    """Master-equation generator on (rho_ee, rho_eg, rho_ge, rho_gg),
    written out independently for ODE-based regression cross-checks."""
    g = 1.0 / t1
    gt = 1.0 / t2
    hw = 0.5j * rabi
    return np.array(
        [
            [-g, -hw, hw, 0.0],
            [-hw, -1j * detuning - gt, 0.0, hw],
            [hw, 0.0, 1j * detuning - gt, -hw],
            [g, hw, -hw, 0.0],
        ],
        dtype=complex,
    )


def rabi_curve_per_area(params, areas, pulse_fwhm, shape="gaussian", tol=1e-10):
    """Photons per pulse versus area, one Bloch-plus-counter integration
    per area, the way ``rabi_curve`` worked before it batched the areas.

    Own scalar right-hand side and envelope; a square pulse integrates its
    driven and free stretches separately, so no step straddles an edge.
    The window, end time and tolerances are those of ``rabi_curve``.
    """
    t1, t2, d = params.t1, params.t2, params.detuning
    root = math.sqrt(math.pi / (4.0 * math.log(2.0)))
    sigma = pulse_fwhm / (2.0 * math.sqrt(2.0 * math.log(2.0)))

    def rhs_for(envelope):
        def rhs(t, x):
            w_drive = envelope(t)
            u, v, w = x[0], x[1], x[2]
            return [
                -u / t2 + d * v,
                -d * u - v / t2 - w_drive * w,
                w_drive * v - (w + 1.0) / t1,
                (1.0 + w) / (2.0 * t1),
            ]

        return rhs

    out = []
    for area in areas:
        if area == 0.0:
            out.append((0.0, 0.0))
            continue
        if shape == "gaussian":
            t0 = 5.0 * sigma
            peak = area / (pulse_fwhm * root)
            t_end = 2.0 * t0 + 15.0 * t1
            pieces = [(0.0, t_end, lambda t: peak * math.exp(-0.5 * ((t - t0) / sigma) ** 2))]
        else:
            rate = area / pulse_fwhm
            t_end = pulse_fwhm + 15.0 * t1
            pieces = [(0.0, pulse_fwhm, lambda t: rate), (pulse_fwhm, t_end, lambda t: 0.0)]
        x = [0.0, 0.0, -1.0, 0.0]
        for a, b, envelope in pieces:
            sol = solve_ivp(rhs_for(envelope), (a, b), x, method="DOP853",
                            t_eval=[b], rtol=tol, atol=tol * 1e-2)
            assert sol.success, sol.message
            x = sol.y[:, -1]
        out.append((float(area), float(x[3])))
    return out


# ---------------------------------------------------------------------------
# Adaptive DOP853 Bloch integration: the propagation path of cohscat.emitter
# before exact exponentials and split steps replaced it, kept as the oracle
# for ``_propagate`` and ``rabi_curve``.


def _breakpoints(pulse: Pulse, t_start: float, t_end: float):
    if pulse.shape == "square":
        return [t for t in (0.0, pulse.fwhm) if t_start < t < t_end]
    return []


def _bloch_rhs(params: EmitterParams, pulse: Pulse, scale=1.0):
    """Right-hand side f(t, x) of the Bloch equations of ``bloch_system``
    under the pulse envelope (window time t). x is (k,) or (k, n): n independent emitters,
    column i driven by the envelope times scale[i] (a scalar scale drives
    all alike). A fourth component, when present, counts emitted photons:
    dn/dt = rho_ee / t1."""

    def rhs(t, x):
        w_drive = float(pulse.omega(t)) * scale
        dx = [
            -x[0] / params.t2 + params.detuning * x[1],
            -params.detuning * x[0] - x[1] / params.t2 - w_drive * x[2],
            w_drive * x[1] - (x[2] + 1.0) / params.t1,
        ]
        if len(x) == 4:
            dx.append((1.0 + x[2]) / (2.0 * params.t1))
        return np.array(dx)

    return rhs


def _evolve_array(params, pulse, x0, t_grid, tol, scale=1.0) -> np.ndarray:
    """States on t_grid from x0 at t_grid[0], shape x0.shape + (len(t_grid),).

    x0 holds (u, v, w) or (u, v, w, n), one column per emitter when 2-D;
    ``scale`` multiplies the drive per column (see ``_bloch_rhs``). All
    columns share one adaptive integration, its error norm taken over
    every component.
    """
    x0 = np.array(x0, dtype=float)
    shape = x0.shape
    rhs = _bloch_rhs(params, pulse, scale)

    def fun(t, y):  # solve_ivp integrates a flat state
        return rhs(t, y.reshape(shape)).ravel()

    # Split at envelope discontinuities so the adaptive stepper never
    # straddles a square edge.
    pieces = [t_grid[0]] + _breakpoints(pulse, t_grid[0], t_grid[-1]) + [t_grid[-1]]
    x_cur = x0.ravel()
    out = np.empty((x_cur.size, len(t_grid)))
    out[:, 0] = x_cur
    for a, b in zip(pieces[:-1], pieces[1:]):
        inside = (t_grid > a) & (t_grid <= b)
        # The piece end is always evaluated: the next piece starts from it.
        t_eval = np.union1d(t_grid[inside], b)
        sol = solve_ivp(
            fun,
            (a, b),
            x_cur,
            method="DOP853",
            t_eval=t_eval,
            rtol=tol,
            atol=tol * 1e-2,
            dense_output=False,
        )
        if not sol.success:
            t_fail = sol.t[-1] if len(sol.t) else a
            raise IntegrationError(f"integration failed near t = {t_fail}: {sol.message}")
        out[:, inside] = sol.y[:, : np.count_nonzero(inside)]
        x_cur = sol.y[:, -1]
    return out.reshape(shape + (len(t_grid),))


def pair_moment_oracle(params, train, reset_points=51, tol=1e-10):
    """Expected same-pulse photon pairs E[N(N-1)/2] for one pulse from the
    ground state, from the conditional master equation (Fischer et al.,
    NJP 18, 113053 (2016)).

    The first emission comes at rate r(t) = (1 + w(t)) / (2 t1), taken from
    one Bloch run; a jump at t resets the emitter to the ground state, after
    which n_after(t) more photons are expected (a Bloch run from the ground
    state at t with its photon counter). The moment is the integral of
    r * n_after over the pulse window. Gaussian pulses only: the integrand
    vanishes smoothly at both window edges, so the trapezoid rule converges
    spectrally (51 and 401 reset points agree to 1e-11).
    """
    pulse = train.pulse
    half = pulse.half_window
    t_end = 2.0 * half + 15.0 * params.t1
    grid = np.linspace(0.0, 2.0 * half, reset_points)
    ground = [0.0, 0.0, -1.0, 0.0]
    rate = (1.0 + _evolve_array(params, pulse, ground, grid, tol)[2]) / (2.0 * params.t1)
    n_after = [
        _evolve_array(params, pulse, ground, np.array([t, t_end]), tol)[3, -1] for t in grid
    ]
    return float(np.trapezoid(rate * np.array(n_after), grid))


# ---------------------------------------------------------------------------
# Flip-based quantum-jump engine: two complex amplitudes per trajectory under
# closed-form 2x2 step exponentials, with pure dephasing as Bernoulli sign
# flips of the coherence at every step boundary. cohscat.pulsed ran this
# engine before it unravelled only the emission channel. With t2 = 2 t1 there
# are no flips, and both engines follow the same step-by-step law and draw
# the same random numbers in the same order, provided their tables re-anchor
# at the same boundaries (segment_t1 = 9 matches cohscat.pulsed at t2 = 2 t1).


def expm_degree13(m) -> np.ndarray:
    """``cohscat.emitter._expm`` as it was before it chose the Pade degree
    from the norm: degree 13 for every stack, each matrix halved until its
    1-norm is at most theta_13."""
    m = np.asarray(m)
    k = m.shape[-1]
    a = m.reshape(-1, k, k)
    norms = np.abs(a).sum(axis=1).max(axis=1)
    s = np.zeros(len(a), dtype=int)
    big = norms > _THETA[13]
    s[big] = np.ceil(np.log2(norms[big] / _THETA[13]))
    a = a / np.ldexp(1.0, s)[:, None, None]
    power = np.broadcast_to(np.eye(k), a.shape)
    even = odd = 0.0
    for j, b in enumerate(_PADE[13]):
        if j % 2:
            odd = odd + b * power
        else:
            even = even + b * power
        power = power @ a
    r = np.linalg.solve(even - odd, even + odd)
    for i in range(s.max(initial=0)):
        r[s > i] = r[s > i] @ r[s > i]
    return r.reshape(m.shape)


def _expm_2x2(m: np.ndarray) -> np.ndarray:
    """Matrix exponentials of a complex (..., 2, 2) stack in closed form.

    With c = tr(M)/2 and H = M - c I, H^2 = s^2 I where
    s^2 = ((M00 - M11)/2)^2 + M01 M10, so
    expm(M) = e^c (cosh(s) I + sinh(s)/s H). Both functions of s are even,
    so the branch of the square root does not matter; near s = 0 (a
    defective M, e.g. the critical drive) sinh(s)/s comes from its series.
    """
    c = 0.5 * (m[..., 0, 0] + m[..., 1, 1])
    s2 = (0.5 * (m[..., 0, 0] - m[..., 1, 1])) ** 2 + m[..., 0, 1] * m[..., 1, 0]
    s = np.sqrt(s2)
    small = np.abs(s) < 1e-3
    s_safe = np.where(small, 1.0, s)
    sinhc = np.where(small, 1.0 + s2 / 6.0 + s2 * s2 / 120.0, np.sinh(s_safe) / s_safe)
    ec = np.exp(c)
    out = (ec * sinhc)[..., None, None] * m
    diag = ec * (np.cosh(s) - c * sinhc)
    out[..., 0, 0] += diag
    out[..., 1, 1] += diag
    return out


class _WindowTables:
    """Read-only propagator tables of one pulse window, shared by all chunks.

    Step j (0 <= j < steps) applies m_j = expm(G dt) (`_expm_2x2`), G the
    non-Hermitian no-jump generator at the step's midpoint Rabi rate;
    boundary j lies after j steps. The window splits into segments [a, b)
    between consecutive entries of `bounds`, of `seg` steps (about 18 t1,
    so |det| >= e^-9 and the inverses stay well conditioned):

    - c[j]: the product of the steps from the start of the segment holding
      step j-1 through step j-1 (c[0] = I);
    - inv[k]: the inverse of the product that continues from boundary k,
      the identity at a segment start;
    - g00, g11, g01: the entries of c[j]^H c[j].

    A trajectory anchored at boundary k of segment [a, b) with state x
    carries y = inv[k] x; for k < j <= b its state is c[j] y and its
    squared norm the quadratic form of y under the Gram entries at j.
    """

    def __init__(self, params: EmitterParams, train: PulseTrain, steps: int, segment_t1: float):
        half = train.pulse.half_window
        self.steps = steps
        self.dt = dt = 2.0 * half / steps
        omegas = train.pulse.omega((np.arange(steps) + 0.5) * dt)
        g_rad = 1.0 / params.t1
        gens = np.zeros((steps, 2, 2), dtype=complex)
        gens[:, 0, 0] = -1j * params.detuning - g_rad / 2.0
        gens[:, 0, 1] = gens[:, 1, 0] = 0.5j * omegas
        mats = _expm_2x2(gens * dt)

        seg = max(1, min(steps, int(segment_t1 * params.t1 / dt)))
        n_seg = -(-steps // seg)
        prod = np.tile(np.eye(2, dtype=complex), (n_seg * seg, 1, 1))
        prod[:steps] = mats
        prod = prod.reshape(n_seg, seg, 2, 2)
        # Hillis-Steele scan within each segment, later steps on the left.
        shift = 1
        while shift < seg:
            prod[:, shift:] = prod[:, shift:] @ prod[:, :-shift]
            shift *= 2
        c = np.empty((steps + 1, 2, 2), dtype=complex)
        c[0] = np.eye(2)
        c[1:] = prod.reshape(-1, 2, 2)[:steps]
        c00, c01, c10, c11 = c[:, 0, 0], c[:, 0, 1], c[:, 1, 0], c[:, 1, 1]
        det = c00 * c11 - c01 * c10
        inv = [c11 / det, -c01 / det, -c10 / det, c00 / det]
        for q, one in zip(inv, (1.0, 0.0, 0.0, 1.0)):
            q[::seg] = one
        self.c = (c00, c01, c10, c11)
        self.inv = tuple(inv)
        self.g00 = np.abs(c00) ** 2 + np.abs(c10) ** 2
        self.g11 = np.abs(c01) ** 2 + np.abs(c11) ** 2
        self.g01 = c00.conj() * c01 + c10.conj() * c11
        self.bounds = list(range(0, steps, seg)) + [steps]
        gamma_phi = 1.0 / params.t2 - 0.5 / params.t1  # pure dephasing; <= 0 is none
        self.flip_p = -math.expm1(-0.5 * gamma_phi * dt) if gamma_phi > 0 else 0.0

    def norm(self, j, p0, p1, q):
        """Squared norm c[j] y for |y0|^2 = p0, |y1|^2 = p1, conj(y0) y1 = q."""
        return self.g00[j] * p0 + self.g11[j] * p1 + 2.0 * (self.g01[j] * q).real

    def flip_gaps(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Boundaries to each trajectory's next dephasing flip (Bernoulli at
        every boundary, so geometric gaps); past the window end if none."""
        if self.flip_p == 0.0:
            return np.full(n, self.steps + 1, dtype=np.int64)
        return rng.geometric(self.flip_p, n)


class _ChunkState:
    """Mutable per-chunk trajectory arrays (one trajectory per pulse pair)."""

    def __init__(self, n: int, rng: np.random.Generator):
        self.n = n
        self.rng = rng
        self.ce = np.zeros(n, dtype=complex)
        self.cg = np.ones(n, dtype=complex)
        self.thresh = rng.random(n)
        self.tag_time: list[np.ndarray] = []
        self.tag_idx: list[np.ndarray] = []
        self.tag_pulse: list[np.ndarray] = []

    def record(self, idx, times, pulse):
        self.tag_idx.append(np.asarray(idx, dtype=np.int64))
        self.tag_time.append(np.asarray(times, dtype=float))
        self.tag_pulse.append(np.full(len(idx), pulse, dtype=np.int64))

    def reset_ground(self, idx):
        self.ce[idx] = 0.0
        self.cg[idx] = 1.0
        self.thresh[idx] = self.rng.random(len(idx))


def _run_pulse_window(state: _ChunkState, tab: _WindowTables, t_start, pulse_idx):
    """Carry all trajectories through one pulse window, recording jumps.

    The law is that of marching step by step: after each step the squared
    norm is tested against the threshold (a jump resets to the ground state
    at that boundary; its time interpolates log-linearly within the step),
    then the coherence sign flips with probability flip_p. The window runs
    one table segment [a, b) at a time, in passes that move every
    trajectory still in the segment to its next event: the first boundary
    below its threshold (bisection; the norm does not increase between
    events), else its next flip or b. Within a segment the passes run in
    order, so the draws of one segment all precede those of the next.
    """
    rng, dt = state.rng, tab.dt
    flip = tab.flip_gaps(rng, state.n)
    for a, b in zip(tab.bounds[:-1], tab.bounds[1:]):
        k = np.full(state.n, a)
        # inv[a] = I at a segment start, so y = x
        y0, y1 = state.ce.copy(), state.cg.copy()
        s_anchor = np.abs(y0) ** 2 + np.abs(y1) ** 2
        act = np.arange(state.n)
        while len(act):
            ka = k[act]
            stop = np.minimum(flip[act], b)
            ya0, ya1 = y0[act], y1[act]
            quad = (np.abs(ya0) ** 2, np.abs(ya1) ** 2, ya0.conj() * ya1)
            u = state.thresh[act]
            fell = tab.norm(stop, *quad) < u
            finished = []

            jmp = act[fell]
            if len(jmp):
                # Invariant: norm(lo) >= u > norm(hi); mid > lo keeps every
                # evaluation inside the anchor's segment.
                lo, hi = ka[fell], stop[fell]
                qj = tuple(q[fell] for q in quad)
                uj = u[fell]
                for _ in range(int((hi - lo).max() - 1).bit_length()):
                    mid = (lo + hi + 1) // 2
                    below = tab.norm(mid, *qj) < uj
                    hi = np.where(below, mid, hi)
                    lo = np.where(below, lo, mid)
                s0 = np.where(hi - 1 == ka[fell], s_anchor[jmp], tab.norm(hi - 1, *qj))
                s1 = tab.norm(hi, *qj)
                frac = np.log(s0 / uj) / np.log(s0 / s1)
                state.record(jmp, t_start + (hi - 1 + np.clip(frac, 0.0, 1.0)) * dt, pulse_idx)
                state.reset_ground(jmp)
                k[jmp] = hi
                y0[jmp] = tab.inv[1][hi]
                y1[jmp] = tab.inv[3][hi]
                s_anchor[jmp] = 1.0
                # A flip at the jump boundary acts on the ground state, where a
                # sign is a global phase: consume it.
                hit = jmp[flip[jmp] == hi]
                flip[hit] += tab.flip_gaps(rng, len(hit))
                finished.append(jmp[hi == b])

            mov = act[~fell]
            if len(mov):
                st = stop[~fell]
                c00, c01, c10, c11 = (m[st] for m in tab.c)
                ya0, ya1 = ya0[~fell], ya1[~fell]
                x0 = c00 * ya0 + c01 * ya1
                x1 = c10 * ya0 + c11 * ya1
                flipped = flip[mov] == st
                x1[flipped] = -x1[flipped]
                hit = mov[flipped]
                flip[hit] += tab.flip_gaps(rng, len(hit))
                state.ce[mov] = x0
                state.cg[mov] = x1
                i00, i01, i10, i11 = (m[st] for m in tab.inv)
                k[mov] = st
                y0[mov] = i00 * x0 + i01 * x1
                y1[mov] = i10 * x0 + i11 * x1
                s_anchor[mov] = np.abs(x0) ** 2 + np.abs(x1) ** 2
                finished.append(mov[st == b])

            act = np.setdiff1d(act, np.concatenate(finished), assume_unique=True)


def _run_free_decay(state: _ChunkState, t_start, length, pulse_idx, params):
    """Analytic drive-free stretch: at most one radiative jump per trajectory."""
    if length <= 0:
        return
    gamma = 1.0 / params.t1
    pe = np.abs(state.ce) ** 2
    pg = np.abs(state.cg) ** 2
    s_end = pg + pe * math.exp(-gamma * length)
    jumped = np.flatnonzero(s_end < state.thresh)
    if len(jumped):
        arg = (state.thresh[jumped] - pg[jumped]) / pe[jumped]
        t_jump = t_start - np.log(arg) / gamma
        state.record(jumped, t_jump, pulse_idx)
        state.reset_ground(jumped)
    # Jumped trajectories sit in the ground state (ce = 0), so a blanket
    # decay factor is a no-op for them.
    state.ce *= np.exp(-(1j * params.detuning + gamma / 2.0) * length)
    gamma_phi = 1.0 / params.t2 - 0.5 / params.t1
    if gamma_phi > 0:
        p_odd = 0.5 * (1.0 - math.exp(-gamma_phi * length))
        flips = state.rng.random(state.n) < p_odd
        state.cg[flips] = -state.cg[flips]


def _simulate_chunk(params, train, tables, rng, n_chunk):
    state = _ChunkState(n_chunk, rng)
    half = train.pulse.half_window

    # Local timeline: pulse 0 spans [-half, half] around 0, pulse 1 around
    # `separation`; the cycle ends where the next cycle's window begins.
    if tables is not None:
        _run_pulse_window(state, tables, -half, 0)
    _run_free_decay(state, half, train.separation_ns - 2.0 * half, 0, params)
    if tables is not None:
        _run_pulse_window(state, tables, train.separation_ns - half, 1)
    _run_free_decay(
        state, train.separation_ns + half, train.pair_period_ns - train.separation_ns - 2.0 * half, 1, params
    )

    if state.tag_idx:
        idx = np.concatenate(state.tag_idx)
        t_local = np.concatenate(state.tag_time)
        pulse = np.concatenate(state.tag_pulse)
    else:
        idx = np.empty(0, dtype=np.int64)
        t_local = np.empty(0, dtype=float)
        pulse = np.empty(0, dtype=np.int64)
    return idx, t_local, pulse


def simulate_stream_flips(params, train, seed, steps_per_pulse=4096, segment_t1=18.0):
    """``cohscat.pulsed.simulate_stream`` with the flip-based engine, one chunk
    after another; segment_t1 is the table segment length in t1."""
    tables = _WindowTables(params, train, steps_per_pulse, segment_t1) if train.pulse_area_pi > 0 else None
    n = train.n_pairs
    parts = []
    for chunk in range(-(-n // _CHUNK_PAIRS)):
        lo = chunk * _CHUNK_PAIRS
        size = min(_CHUNK_PAIRS, n - lo)
        idx, t_local, pulse = _simulate_chunk(params, train, tables, _rng(seed, _STREAM, chunk), size)
        parts.append((idx + lo, t_local, pulse))
    pair_idx = np.concatenate([p[0] for p in parts])
    t_local = np.concatenate([p[1] for p in parts])
    pulse = np.concatenate([p[2] for p in parts])
    times = pair_idx * train.pair_period_ns + t_local
    order = np.argsort(times, kind="stable")
    return PhotonStream(
        times=times[order], pair_index=pair_idx[order], pulse_index=pulse[order],
        params=params, train=train,
    )


# ---------------------------------------------------------------------------
# Streams with a prescribed count distribution, for the coincidence
# estimators.


def synthetic_stream(
    params: EmitterParams,
    train: PulseTrain,
    mean_per_pulse: float,
    g_target: float,
    seed: int,
) -> PhotonStream:
    """Stream with a prescribed mean and two-photon ratio g = p2 / mean^2.

    Per pulse the photon count is 0, 1 or 2 with p2 = g * mean^2; emission
    times decay exponentially from the pulse. Intended for validating the
    coincidence estimators against known inputs.
    """
    p2 = g_target * mean_per_pulse ** 2
    p1 = mean_per_pulse - 2.0 * p2
    if p1 < 0 or p1 + p2 > 1:
        raise ValueError("mean/g combination is not a valid count distribution")
    rng = _rng(seed, _STREAM, 0)
    n = train.n_pairs
    counts = rng.choice(3, size=(n, 2), p=[1.0 - p1 - p2, p1, p2])
    flat = counts.reshape(-1)
    pair_idx = np.repeat(np.repeat(np.arange(n), 2), flat)
    pulse_idx = np.repeat(np.tile(np.array([0, 1]), n), flat)
    # First photon an exponential decay after its pulse; a second photon
    # (re-excitation) follows one more exponential later.
    waits = rng.exponential(params.t1, size=len(pair_idx))
    offsets = np.zeros(len(pair_idx))
    starts = np.cumsum(flat) - flat
    two_start = starts[flat == 2]
    offsets[two_start + 1] = waits[two_start]
    t_local = pulse_idx * train.separation_ns + waits + offsets
    times = pair_idx * train.pair_period_ns + t_local
    order = np.argsort(times, kind="stable")
    return PhotonStream(
        times=times[order],
        pair_index=pair_idx[order],
        pulse_index=np.asarray(pulse_idx)[order],
        params=params,
        train=train,
    )


def cluster_areas_whole_stream(stream: PhotonStream, rng, hom_active, overlap):
    """One `pulsed_hom` configuration's cluster areas, routed and counted
    on the whole stream at once with np.unique and np.intersect1d, the way
    it was done before the blocks. rng is that configuration's generator."""
    m = stream.n_tags
    long_path = rng.random(m) < _SPLITTER_RATIO
    slot = stream.pulse_index + long_path.astype(np.int64)
    det = (rng.random(m) < 0.5).astype(np.int64)
    if hom_active:
        a_mask = (stream.pulse_index == 0) & long_path
        b_mask = (stream.pulse_index == 1) & ~long_path
        a_pairs, a_first = np.unique(stream.pair_index[a_mask], return_index=True)
        b_pairs, b_first = np.unique(stream.pair_index[b_mask], return_index=True)
        common, ia, ib = np.intersect1d(a_pairs, b_pairs, return_indices=True)
        a_idx = np.flatnonzero(a_mask)[a_first[ia]]
        b_idx = np.flatnonzero(b_mask)[b_first[ib]]
        bunch = rng.random(len(common)) < overlap
        port = (rng.random(len(common)) < 0.5).astype(np.int64)
        det[a_idx[bunch]] = port[bunch]
        det[b_idx[bunch]] = port[bunch]
    key = stream.pair_index * 3 + slot
    size = 3 * stream.train.n_pairs
    n0 = np.bincount(key[det == 0], minlength=size).reshape(-1, 3)
    n1 = np.bincount(key[det == 1], minlength=size).reshape(-1, 3)
    return {
        0: float(np.sum(n0 * n1)),
        1: float(np.sum(n0[:, :-1] * n1[:, 1:] + n1[:, :-1] * n0[:, 1:])),
        2: float(np.sum(n0[:, 0] * n1[:, 2] + n1[:, 0] * n0[:, 2])),
    }


def window_reference(state, tab, t_start, pulse_idx):
    """``cohscat.pulsed._run_pulse_window`` as it was before its compact
    passes: every pass carries full-length index arrays, the binary search
    serves every pass, and each click writes the ground state and a new
    threshold through ``state.reset_ground``. Same tables, same law, same
    draws."""
    for a, b, end in zip(tab.bounds[:-1], tab.bounds[1:], tab.ends):
        y = state.x  # C_a = I at a segment start
        n = len(state.thresh)
        idx, k, s_anchor = np.arange(n), np.full(n, a), y[3]
        state.x = np.einsum("ij,jn->in", end, y)
        while True:
            jp = np.flatnonzero(state.x[3].take(idx) < state.thresh.take(idx))
            if not len(jp):
                break
            idx, k, y, s_anchor = idx.take(jp), k.take(jp), y.take(jp, axis=1), s_anchor.take(jp)
            u = state.thresh.take(idx)
            lo = k
            for shift in reversed(range(int(b - k.min() - 1).bit_length())):
                cand = np.minimum(lo + (1 << shift), b)
                lo = lo + (cand - lo) * (tab.trace_at(cand, y) >= u)
            hi = lo + 1
            s0 = np.where(lo == k, s_anchor, tab.trace_at(lo, y))
            s1 = np.maximum(tab.trace_at(hi, y), np.finfo(float).tiny)
            frac = np.log(s0 / u) / np.log(s0 / s1)
            state.record(idx, t_start + (hi - 1 + np.clip(frac, 0.0, 1.0)) * tab.dt, pulse_idx)
            state.reset_ground(idx)
            go = np.flatnonzero(hi < b)
            idx, k = idx.take(go), hi.take(go)
            y, s_anchor = tab.reset[:, k], np.ones(len(k))
            state.x[:, idx] = np.einsum("ij,jn->in", end, y)


def coincidence_counts_whole_array(times, max_lag, bin_width):
    """Positive-lag counts of ``coincidence_histogram``, one lag at a time
    over the whole sorted array, up to the last bin edge."""
    times = np.sort(np.asarray(times, dtype=float))
    edges = np.arange(0.0, max_lag + bin_width, bin_width)
    pos = np.zeros(len(edges) - 1, dtype=np.int64)
    for k in range(1, len(times)):
        diffs = times[k:] - times[:-k]
        close = diffs[diffs <= edges[-1]]
        if len(close) == 0:
            break
        pos += np.histogram(close, bins=edges)[0]
    return pos


# ---------------------------------------------------------------------------
# Few-photon Fock engine: states over (mode, internal label) occupation
# configurations, evolved element by element by creation-operator monomial
# expansion. Photons with different labels never interfere. It shares no
# code with the closed-form fringes of cohscat.fock.


@dataclass(frozen=True)
class CircuitElement:
    """Directional coupler or single-mode phase shifter.

    The coupler unitary on its two modes is [[sqrt(R), i sqrt(1-R)],
    [i sqrt(1-R), sqrt(R)]].
    """

    kind: str
    modes: tuple[int, ...]
    reflectivity: float | None = None
    phi: float | None = None

    @classmethod
    def coupler(cls, reflectivity: float, mode_a: int, mode_b: int) -> "CircuitElement":
        if not 0.0 < reflectivity < 1.0:
            raise ValueError("coupler reflectivity must lie in (0, 1)")
        if mode_a == mode_b:
            raise ValueError("coupler needs two distinct modes")
        return cls(kind="coupler", modes=(mode_a, mode_b), reflectivity=reflectivity)

    @classmethod
    def phase(cls, phi: float, mode: int) -> "CircuitElement":
        return cls(kind="phase", modes=(mode,), phi=phi)

    def matrix(self, n_modes: int) -> np.ndarray:
        """Element unitary embedded in the identity on n_modes."""
        if max(self.modes) >= n_modes:
            raise ValueError(f"element touches mode {max(self.modes)} of {n_modes}")
        u = np.eye(n_modes, dtype=complex)
        if self.kind == "coupler":
            a, b = self.modes
            r = math.sqrt(self.reflectivity)
            t = 1j * math.sqrt(1.0 - self.reflectivity)
            u[a, a] = r
            u[b, b] = r
            u[a, b] = t
            u[b, a] = t
        else:
            u[self.modes[0], self.modes[0]] = np.exp(1j * self.phi)
        if not np.allclose(u @ u.conj().T, np.eye(n_modes), atol=1e-12):
            raise ValueError("element matrix is not unitary")
        return u


def _config_norm(config: Config) -> float:
    norm = 1.0
    for count in Counter(config).values():
        norm *= math.factorial(count)
    return norm


@dataclass(frozen=True)
class FockState:
    """Superposition over occupation configurations of (mode, label) pairs."""

    amplitudes: dict[Config, complex]
    n_modes: int

    def __post_init__(self):
        if not self.amplitudes:
            raise ValueError("state must contain at least one configuration")
        counts = {len(cfg) for cfg in self.amplitudes}
        if len(counts) != 1:
            raise ValueError("all configurations must hold the same photon number")
        if max(counts) > _MAX_PHOTONS:
            raise ValueError(f"at most {_MAX_PHOTONS} photons supported")
        for cfg in self.amplitudes:
            if tuple(sorted(cfg)) != cfg:
                raise ValueError(f"configuration {cfg} is not in sorted canonical form")
            if any(m < 0 or m >= self.n_modes for m, _ in cfg):
                raise ValueError(f"configuration {cfg} uses modes outside 0..{self.n_modes - 1}")
        total = sum(abs(a) ** 2 for a in self.amplitudes.values())
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"state norm^2 is {total}, must be 1")

    @property
    def n_photons(self) -> int:
        return len(next(iter(self.amplitudes)))

    @classmethod
    def from_photons(cls, photons, n_modes: int) -> "FockState":
        """Product state with one photon per (mode, label) entry."""
        cfg = tuple(sorted(tuple(p) for p in photons))
        return cls(amplitudes={cfg: 1.0 + 0.0j}, n_modes=n_modes)

    def mode_occupations(self) -> dict[tuple[int, ...], float]:
        """Probability of each mode-occupation pattern, labels traced out."""
        probs: dict[tuple[int, ...], float] = {}
        for cfg, amp in self.amplitudes.items():
            occ = [0] * self.n_modes
            for mode, _ in cfg:
                occ[mode] += 1
            key = tuple(occ)
            probs[key] = probs.get(key, 0.0) + abs(amp) ** 2
        return probs

    def expected_mode_counts(self) -> np.ndarray:
        out = np.zeros(self.n_modes)
        for occ, p in self.mode_occupations().items():
            out += p * np.asarray(occ)
        return out


def apply_element(state: FockState, element: CircuitElement) -> FockState:
    """Evolve the state through one element by monomial expansion."""
    if max(element.modes) >= state.n_modes:
        raise ValueError(
            f"element touches mode {max(element.modes)}, state has {state.n_modes} modes"
        )
    if element.kind == "phase":
        out = {}
        mode = element.modes[0]
        for cfg, amp in state.amplitudes.items():
            k = sum(1 for m, _ in cfg if m == mode)
            out[cfg] = out.get(cfg, 0.0) + amp * np.exp(1j * element.phi * k)
        return FockState(amplitudes=out, n_modes=state.n_modes)

    u = element.matrix(state.n_modes)
    out: dict[Config, complex] = {}
    for cfg, amp in state.amplitudes.items():
        base = amp / math.sqrt(_config_norm(cfg))
        choices = []
        for mode, label in cfg:
            if mode in element.modes:
                choices.append([(m, label, u[m, mode]) for m in element.modes])
            else:
                choices.append([(mode, label, 1.0 + 0.0j)])
        for combo in itertools.product(*choices):
            factor = base
            for _, _, coeff in combo:
                factor *= coeff
            if factor == 0.0:
                continue
            new_cfg = tuple(sorted((m, l) for m, l, _ in combo))
            out[new_cfg] = out.get(new_cfg, 0.0) + factor * math.sqrt(_config_norm(new_cfg))
    out = {cfg: a for cfg, a in out.items() if abs(a) > 1e-14}
    return FockState(amplitudes=out, n_modes=state.n_modes)


def apply_circuit(state: FockState, elements) -> FockState:
    for el in elements:
        state = apply_element(state, el)
    return state


def _mzi_elements(r1: float, phi: float, r2: float):
    return [
        CircuitElement.coupler(r1, 0, 1),
        CircuitElement.phase(phi, 0),
        CircuitElement.coupler(r2, 0, 1),
    ]


def _dual_component_probs(r1, phi, r2, labels):
    state = FockState.from_photons([(0, labels[0]), (1, labels[1])], n_modes=2)
    state = apply_circuit(state, _mzi_elements(r1, phi, r2))
    probs = state.mode_occupations()
    coinc = probs.get((1, 1), 0.0)
    mean0 = state.expected_mode_counts()[0]
    return mean0 / 2.0, coinc


def _contamination_probs(r1, phi, r2, port):
    photons = [(port, 0), (port, 1)]  # re-excited photons do not interfere
    state = FockState.from_photons(photons, n_modes=2)
    state = apply_circuit(state, _mzi_elements(r1, phi, r2))
    probs = state.mode_occupations()
    coinc = probs.get((1, 1), 0.0)
    mean0 = state.expected_mode_counts()[0]
    return mean0 / 2.0, coinc


def engine_fringes(source, coupler_r1, coupler_r2, phi_grid, input_kind="dual"):
    """(p_out0, p_out1, p_coincidence) of the two-coupler interferometer,
    one phase at a time through the Fock engine."""
    phi_grid = np.asarray(phi_grid, dtype=float)
    p0 = np.empty_like(phi_grid)
    p1 = np.empty_like(phi_grid)
    pc = np.empty_like(phi_grid)
    for i, phi in enumerate(phi_grid):
        if input_kind == "single":
            state = FockState.from_photons([(0, 0)], n_modes=2)
            state = apply_circuit(state, _mzi_elements(coupler_r1, phi, coupler_r2))
            mean0 = state.expected_mode_counts()[0]
            p0[i], p1[i], pc[i] = mean0, 1.0 - mean0, 0.0
            continue
        if input_kind != "dual":
            raise ValueError(f"input_kind must be single or dual, got {input_kind!r}")
        m = source.overlap
        g = source.multiphoton_g
        p0_ind, pc_ind = _dual_component_probs(coupler_r1, phi, coupler_r2, (0, 0))
        p0_dis, pc_dis = _dual_component_probs(coupler_r1, phi, coupler_r2, (0, 1))
        p0_mix = m * p0_ind + (1.0 - m) * p0_dis
        pc_mix = m * pc_ind + (1.0 - m) * pc_dis
        if g > 0:
            p0_c0, pc_c0 = _contamination_probs(coupler_r1, phi, coupler_r2, 0)
            p0_c1, pc_c1 = _contamination_probs(coupler_r1, phi, coupler_r2, 1)
            weight = 1.0 + 2.0 * g
            p0_mix = (p0_mix + g * (p0_c0 + p0_c1)) / weight
            pc_mix = (pc_mix + g * (pc_c0 + pc_c1)) / weight
        p0[i], p1[i], pc[i] = p0_mix, 1.0 - p0_mix, pc_mix
    return p0, p1, pc


# ---------------------------------------------------------------------------
# General few-photon transition amplitudes: matrix permanents over a composed
# circuit unitary.


def circuit_unitary(elements, n_modes: int) -> np.ndarray:
    """Composed mode matrix of a sequence of elements (applied in order)."""
    u = np.eye(n_modes, dtype=complex)
    for el in elements:
        u = el.matrix(n_modes) @ u
    return u


def _permanent(mat: np.ndarray) -> complex:
    n = mat.shape[0]
    if n == 0:
        return 1.0 + 0.0j
    total = 0.0 + 0.0j
    for perm in itertools.permutations(range(n)):
        term = 1.0 + 0.0j
        for i, j in enumerate(perm):
            term *= mat[i, j]
        total += term
    return total


def permanent_amplitude(unitary: np.ndarray, input_occ, output_occ) -> complex:
    """Transition amplitude <output|U|input> for identical bosons.

    Occupations are per-mode photon counts; the amplitude is the permanent
    of the row/column-repeated submatrix with the usual 1/sqrt(n!)
    normalization.
    """
    unitary = np.asarray(unitary, dtype=complex)
    input_occ = list(input_occ)
    output_occ = list(output_occ)
    if len(input_occ) != unitary.shape[1] or len(output_occ) != unitary.shape[0]:
        raise ValueError("occupation lists must match the unitary dimension")
    if sum(input_occ) != sum(output_occ):
        raise ValueError("photon number must be conserved")
    if sum(input_occ) > _MAX_PHOTONS:
        raise ValueError(f"at most {_MAX_PHOTONS} photons supported")
    cols = [m for m, n in enumerate(input_occ) for _ in range(n)]
    rows = [m for m, n in enumerate(output_occ) for _ in range(n)]
    sub = unitary[np.ix_(rows, cols)]
    norm = 1.0
    for n in input_occ:
        norm *= math.factorial(n)
    for n in output_occ:
        norm *= math.factorial(n)
    return _permanent(sub) / math.sqrt(norm)


def fit_fringe_curve_fit(table, harmonic: int, column: str):
    """The nonlinear fringe fit ``fock.fit_fringe`` made before it became
    one linear fit: a fixed-harmonic linear pre-fit seeds ``curve_fit`` of
    y = c + a cos(f phi + theta) with f free. Returns (visibility,
    frequency, offset, amplitude)."""
    phi = table.phi
    y = getattr(table, column)
    design = np.column_stack([np.ones_like(phi), np.cos(harmonic * phi), np.sin(harmonic * phi)])
    c0, cc, cs = np.linalg.lstsq(design, y, rcond=None)[0]
    amp0 = math.hypot(cc, cs)
    theta0 = math.atan2(-cs, cc)

    def model(x, c, a, f, theta):
        return c + a * np.cos(f * x + theta)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OptimizeWarning)
        popt, _ = curve_fit(model, phi, y, p0=[c0, max(amp0, 1e-6), float(harmonic), theta0], maxfev=20000)
    c, a, f, _ = popt
    return (a / c if c > 0 else math.inf), abs(f), c, abs(a)


class FitConvergenceError(RuntimeError):
    """Least-squares fit failed to converge; carries the final residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:g})")
        self.residual = residual


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


def fit_linewidth(grid: np.ndarray, dens: np.ndarray, response: SpectralResponse) -> LinewidthFit:
    """Least-squares fit of an instrument-convolved Lorentzian line to the
    spectral density dens on the energy grid.

    Lorentzian (x) Lorentzian widths add, so the model is a single
    Lorentzian of FWHM (intrinsic + instrument); the known instrument width
    is subtracted inside the fit. The peak must be resolvable above the
    grid spacing.
    """
    de = _uniform_step(grid, "energy grid")
    fwhm_obs = _estimate_fwhm(grid, dens)
    if fwhm_obs < de:
        raise GridError("spectral peak is not resolvable above the grid spacing")

    def model(e, amp, center, w_intr):
        return amp * lorentzian(e, center, abs(w_intr) + response.instrument_fwhm_uev)

    w0 = max(fwhm_obs - response.instrument_fwhm_uev, de / 10.0)
    amp0 = dens.max() * math.pi * (w0 + response.instrument_fwhm_uev) / 2.0
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
        total_fwhm=w_intr + response.instrument_fwhm_uev,
        center=float(popt[1]),
        amplitude=float(popt[0]),
        residual_norm=resid,
    )


def incoherent_spectrum_quadrature(params, rabi, energies, instrument_fwhm=0.0):
    """Incoherent density (1/µeV) by direct trapezoid quadrature of the
    decaying part of g1 over tau in [0, 40 t1] on 2**18 steps:
    S(E) = Re int exp(i E tau / hbar - w_inst tau / 2 hbar) g1_dec(tau) dtau
    / (pi hbar). g1 comes from ``liouvillian_reference`` stepped by one
    matrix exponential (its powers up to a block of 512 steps, and leaps of
    a block), started from s- rho_ss of the closed-form steady state."""
    n, block = 1 << 18, 512
    h = 40.0 * params.t1 / n
    step = expm(liouvillian_reference(params.t1, params.t2, params.detuning, rabi) * h)
    powers = [np.eye(4, dtype=complex)]
    for _ in range(block - 1):
        powers.append(step @ powers[-1])
    leap = step @ powers[-1]
    u, v, w, _ = steady_state(params, rabi)
    rho_ee = (1.0 + w) / 2.0
    coherence = (u + 1j * v) / 2.0
    x = np.array([0.0, 0.0, rho_ee, coherence], dtype=complex)
    starts = []
    for _ in range(n // block + 1):
        starts.append(x)
        x = leap @ x
    rho_ge = np.einsum("ja,ka->kj", np.array(powers)[:, 2, :], np.array(starts)).reshape(-1)[: n + 1]
    taus = np.arange(n + 1) * h
    decay = (rho_ge - abs(coherence) ** 2) / rho_ee * np.exp(-instrument_fwhm * taus / (2.0 * HBAR_UEV_NS))
    weights = np.full(n + 1, h)
    weights[0] = weights[-1] = h / 2.0
    decay = decay * weights
    out = np.array([np.exp(1j * e / HBAR_UEV_NS * taus) @ decay for e in energies])
    return out.real / (math.pi * HBAR_UEV_NS)


def render_lines_per_point(path, series, title="", xlabel="", ylabel="", scatter=False):
    """The SVG writer ``_svg.render_lines`` was before it mapped whole
    columns to pixels: every point goes through px/py as a numpy scalar and
    gets its own f-string."""
    xs = np.concatenate([np.asarray(x, float) for x, _ in series.values()])
    ys = np.concatenate([np.asarray(y, float) for _, y in series.values()])
    xs = xs[np.isfinite(xs)]
    ys = ys[np.isfinite(ys)]
    x_lo, x_hi = (float(xs.min()), float(xs.max())) if len(xs) else (0.0, 1.0)
    y_lo, y_hi = (float(ys.min()), float(ys.max())) if len(ys) else (0.0, 1.0)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def px(x):
        return _ML + (x - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def py(y):
        return _H - _MB - (y - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.1f}" y="22" text-anchor="middle" font-size="15">{title}</text>',
    ]
    for t in _ticks(x_lo, x_hi):
        parts.append(
            f'<line x1="{px(t):.1f}" y1="{_H - _MB}" x2="{px(t):.1f}" y2="{_H - _MB + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{px(t):.1f}" y="{_H - _MB + 18}" text-anchor="middle">{t:g}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        parts.append(
            f'<line x1="{_ML - 5}" y1="{py(t):.1f}" x2="{_ML}" y2="{py(t):.1f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_ML - 8}" y="{py(t) + 4:.1f}" text-anchor="end">{t:g}</text>'
        )
    parts.append(
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" height="{_H - _MT - _MB}" '
        f'fill="none" stroke="black"/>'
    )
    parts.append(
        f'<text x="{(_ML + _W - _MR) / 2:.1f}" y="{_H - 14}" text-anchor="middle">{xlabel}</text>'
    )
    parts.append(
        f'<text x="18" y="{(_MT + _H - _MB) / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 18 {(_MT + _H - _MB) / 2:.1f})">{ylabel}</text>'
    )
    for i, (label, (x, y)) in enumerate(series.items()):
        color = _COLORS[i % len(_COLORS)]
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        ok = np.isfinite(x) & np.isfinite(y)
        if scatter:
            for xi, yi in zip(x[ok], y[ok]):
                parts.append(f'<circle cx="{px(xi):.1f}" cy="{py(yi):.1f}" r="2" fill="{color}"/>')
        else:
            pts = " ".join(f"{px(xi):.1f},{py(yi):.1f}" for xi, yi in zip(x[ok], y[ok]))
            parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = _MT + 16 + 16 * i
        parts.append(f'<line x1="{_W - 170}" y1="{ly - 4}" x2="{_W - 146}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{_W - 140}" y="{ly}">{label}</text>')
    parts.append("</svg>")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")


def assert_same_text(got: str, expected: str) -> None:
    """Equal texts. A mismatch names the first line that differs, since
    pytest's own diff of megabyte strings takes minutes."""
    if got == expected:
        return
    a, b = got.split("\n"), expected.split("\n")
    first = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    shown = [repr(lines[first : first + 1])[:300] for lines in (a, b)]
    pytest.fail(f"line {first} differs: {shown[0]} != {shown[1]} ({len(a)} lines against {len(b)})")


def stream_csv_per_tag(stream: PhotonStream, csv_path) -> None:
    """The stream.csv of ``sim stream`` as it was written before whole
    columns: one f-string per tag."""
    lines = ["pair_index,pulse_index,time_ns"]
    for pair, pulse, t in zip(stream.pair_index, stream.pulse_index, stream.times):
        lines.append(f"{pair},{pulse},{t:.12g}")
    with open(csv_path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def traced_peak(fn, *args):
    """(fn(*args), the peak of the memory that tracemalloc saw allocated
    during the call, in bytes; it counts the result)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
