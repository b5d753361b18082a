"""Shared test oracles, kept independent of the library code paths they check."""

import itertools
import math
import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import OptimizeWarning, curve_fit

from cohscat.emitter import DriveField, EmitterParams, IntegrationError
from cohscat.fock import _MAX_PHOTONS, CircuitElement
from cohscat._svg import _COLORS, _H, _MB, _ML, _MR, _MT, _W, _ticks

Config = tuple[tuple[int, int], ...]  # sorted ((mode, label), ...)


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
# for ``evolve`` and ``rabi_curve``.


def _breakpoints(drive: DriveField, t_start: float, t_end: float):
    if drive.shape == "square":
        edges = [drive.t0, drive.t0 + drive.duration]
        return sorted(t for t in edges if t_start < t < t_end)
    return []


def _bloch_rhs(params: EmitterParams, drive: DriveField, scale=1.0):
    """Right-hand side f(t, x) of the Bloch equations of ``bloch_system``
    under the drive envelope. x is (k,) or (k, n): n independent emitters,
    column i driven by the envelope times scale[i] (a scalar scale drives
    all alike). A fourth component, when present, counts emitted photons:
    dn/dt = rho_ee / t1."""

    def rhs(t, x):
        w_drive = float(drive.omega(t)) * scale
        dx = [
            -x[0] / params.t2 + params.detuning * x[1],
            -params.detuning * x[0] - x[1] / params.t2 - w_drive * x[2],
            w_drive * x[1] - (x[2] + 1.0) / params.t1,
        ]
        if len(x) == 4:
            dx.append((1.0 + x[2]) / (2.0 * params.t1))
        return np.array(dx)

    return rhs


def _evolve_array(params, drive, x0, t_grid, tol, scale=1.0) -> np.ndarray:
    """States on t_grid from x0 at t_grid[0], shape x0.shape + (len(t_grid),).

    x0 holds (u, v, w) or (u, v, w, n), one column per emitter when 2-D;
    ``scale`` multiplies the drive per column (see ``_bloch_rhs``). All
    columns share one adaptive integration, its error norm taken over
    every component.
    """
    x0 = np.array(x0, dtype=float)
    shape = x0.shape
    rhs = _bloch_rhs(params, drive, scale)

    def fun(t, y):  # solve_ivp integrates a flat state
        return rhs(t, y.reshape(shape)).ravel()

    # Split at envelope discontinuities so the adaptive stepper never
    # straddles a square edge.
    pieces = [t_grid[0]] + _breakpoints(drive, t_grid[0], t_grid[-1]) + [t_grid[-1]]
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
    half = train._half_window()
    drive = train.drive(center=half)
    t_end = 2.0 * half + 15.0 * params.t1
    grid = np.linspace(0.0, 2.0 * half, reset_points)
    ground = [0.0, 0.0, -1.0, 0.0]
    rate = (1.0 + _evolve_array(params, drive, ground, grid, tol)[2]) / (2.0 * params.t1)
    n_after = [
        _evolve_array(params, drive, ground, np.array([t, t_end]), tol)[3, -1] for t in grid
    ]
    return float(np.trapezoid(rate * np.array(n_after), grid))


# ---------------------------------------------------------------------------
# Few-photon Fock engine: states over (mode, internal label) occupation
# configurations, evolved element by element by creation-operator monomial
# expansion. Photons with different labels never interfere. It shares no
# code with the closed-form fringes of cohscat.fock.


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


def fit_fringe_curve_fit(table, harmonic: int, column: str):
    """The nonlinear fringe fit ``fock.fit_fringe`` made before it became
    one linear fit: a fixed-harmonic linear pre-fit seeds ``curve_fit`` of
    y = c + a cos(f phi + theta) with f free. Returns (visibility,
    frequency, offset, amplitude)."""
    phi = table.phi
    y = table.column(column)
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


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
