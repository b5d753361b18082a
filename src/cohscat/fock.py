"""Two-photon linear optics of a two-coupler interferometer.

The interferometer (coupler r1, phase phi on mode 0, coupler r2) acts on
the two modes through one 2x2 mode matrix U(phi). Detection probabilities
follow in closed form from its entries: a single photon entering mode 0
leaves mode 0 with |U00|^2; a photon pair entering one per mode coincides
with |U00 U11 + U01 U10|^2 when indistinguishable and with
|U00|^2 |U11|^2 + |U01|^2 |U10|^2 when distinguishable.

Every such fringe is a trig polynomial of degree at most 2 in phi, so a
fringe fit is one linear least-squares fit on the low harmonics of phi;
it is exact and needs no starting point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_FIT_HARMONICS = 3


@dataclass(frozen=True)
class SourceModel:
    """Pairwise photon indistinguishability and two-photon contamination.

    overlap : probability weight of the fully indistinguishable component
    multiphoton_g : relative weight of a two-photons-in-one-port event
    """

    overlap: float = 0.90
    multiphoton_g: float = 0.167

    def __post_init__(self):
        if not 0.0 <= self.overlap <= 1.0:
            raise ValueError("overlap must lie in [0, 1]")
        if not (self.multiphoton_g >= 0 and math.isfinite(1.0 + 2.0 * self.multiphoton_g)):
            raise ValueError("multiphoton_g must be >= 0 with a finite normalization 1 + 2 multiphoton_g")


@dataclass(frozen=True)
class FringeTable:
    """Detection probabilities versus interferometer phase."""

    phi: np.ndarray
    p_out0: np.ndarray
    p_out1: np.ndarray
    p_coincidence: np.ndarray


def _mzi_unitary(r1: float, r2: float, phi: np.ndarray) -> np.ndarray:
    """Mode matrices U(phi) = B2 diag(e^{i phi}, 1) B1, shape (len(phi), 2, 2),
    of couplers B = [[sqrt(R), i sqrt(1-R)], [i sqrt(1-R), sqrt(R)]]."""
    for r in (r1, r2):
        if not 0.0 < r < 1.0:
            raise ValueError(f"coupler reflectivity must lie in (0, 1), got {r!r}")
    b1, b2 = (
        np.array([[math.sqrt(r), 1j * math.sqrt(1.0 - r)], [1j * math.sqrt(1.0 - r), math.sqrt(r)]])
        for r in (r1, r2)
    )
    phase = np.exp(1j * phi)[:, None, None]
    return phase * np.outer(b2[:, 0], b1[0, :]) + np.outer(b2[:, 1], b1[1, :])


def check_phi_grid(phi_grid) -> np.ndarray:
    """The phase grid as a float array, if it holds at least two points
    and covers a full period."""
    phi_grid = np.asarray(phi_grid, dtype=float)
    if phi_grid.ndim != 1 or len(phi_grid) < 2:
        raise ValueError("phi grid must hold at least two points")
    span = phi_grid[-1] - phi_grid[0]
    step = span / (len(phi_grid) - 1)
    # a half-open [0, 2*pi) sampling counts as full coverage
    if span + step < 2.0 * math.pi - 1e-9:
        raise ValueError("phi grid must cover at least 2*pi")
    return phi_grid


def mzi_fringes(
    source: SourceModel,
    coupler_r1: float,
    coupler_r2: float,
    phi_grid,
    input_kind: str = "dual",
) -> FringeTable:
    """Single-photon and coincidence fringes of a two-coupler interferometer.

    Dual input mixes an indistinguishable pair (weight overlap) with a
    distinguishable pair, plus two-photons-in-one-port contamination
    events of relative weight multiphoton_g per input port; the two
    contaminating photons never interfere.
    """
    phi_grid = check_phi_grid(phi_grid)
    if input_kind not in ("single", "dual"):
        raise ValueError(f"input_kind must be single or dual, got {input_kind!r}")
    u = _mzi_unitary(coupler_r1, coupler_r2, phi_grid)
    p = np.abs(u) ** 2  # p[:, k, j]: a photon entering mode j leaves mode k
    if input_kind == "single":
        p0 = p[:, 0, 0]
        return FringeTable(phi=phi_grid, p_out0=p0, p_out1=1.0 - p0, p_coincidence=np.zeros_like(p0))
    m = source.overlap
    g = source.multiphoton_g
    pc_ind = np.abs(u[:, 0, 0] * u[:, 1, 1] + u[:, 0, 1] * u[:, 1, 0]) ** 2
    pc_dis = p[:, 0, 0] * p[:, 1, 1] + p[:, 0, 1] * p[:, 1, 0]
    # Both photons in port j: coincidence 2 |U0j|^2 |U1j|^2.
    pc_contam = 2.0 * (p[:, 0, 0] * p[:, 1, 0] + p[:, 0, 1] * p[:, 1, 1])
    pc = (m * pc_ind + (1.0 - m) * pc_dis + g * pc_contam) / (1.0 + 2.0 * g)
    # Each photon of a pair enters by its own port, and contamination puts
    # both photons in port 0 as often as in port 1, so every component of
    # the mixture has the same mean port-0 share.
    p0 = (p[:, 0, 0] + p[:, 0, 1]) / 2.0
    return FringeTable(phi=phi_grid, p_out0=p0, p_out1=1.0 - p0, p_coincidence=pc)


@dataclass(frozen=True)
class FringeFit:
    visibility: float
    frequency: float
    phase: float
    offset: float
    amplitude: float
    residual_norm: float


def fit_fringe(table: FringeTable, harmonic: int) -> FringeFit:
    """Sinusoid y = c + a cos(f phi + theta) of the dominant harmonic.

    One linear least-squares fit on the harmonics 0-3 (cosine and sine) is
    exact for the noise-free fringes of ``mzi_fringes``, which are trig
    polynomials of degree at most 2 in phi. The harmonic f of largest
    amplitude is reported as the frequency, with its amplitude and phase;
    ``harmonic`` picks the column (p_out0 for 1, p_coincidence for 2) and
    sets the sampling check. The residual norm is taken against the single
    sinusoid, so it measures the power outside the dominant harmonic. The
    visibility is a / c.
    """
    if harmonic not in (1, 2):
        raise ValueError("harmonic must be 1 or 2")
    phi = table.phi
    y = table.p_coincidence if harmonic == 2 else table.p_out0
    span = phi[-1] - phi[0]
    pts_per_period = len(phi) / (span / (2.0 * math.pi / harmonic))
    if pts_per_period < 8:
        raise ValueError("need at least 8 samples per fringe period")

    k = np.arange(1, _FIT_HARMONICS + 1)
    angles = np.outer(phi, k)
    design = np.column_stack([np.ones_like(phi), np.cos(angles), np.sin(angles)])
    coef = np.linalg.lstsq(design, y, rcond=None)[0]
    c, cos_c, sin_c = coef[0], coef[1 : 1 + len(k)], coef[1 + len(k) :]
    best = int(np.argmax(np.hypot(cos_c, sin_c)))
    f = float(k[best])
    a = math.hypot(cos_c[best], sin_c[best])
    theta = math.atan2(-sin_c[best], cos_c[best])
    resid = float(np.linalg.norm(c + a * np.cos(f * phi + theta) - y))
    vis = a / c if c > 0 else math.inf
    return FringeFit(
        visibility=float(vis),
        frequency=f,
        phase=float(math.remainder(theta, 2.0 * math.pi)),
        offset=float(c),
        amplitude=float(a),
        residual_norm=resid,
    )


def single_photon_visibility(reflectivity: float) -> float:
    """Fringe visibility of the direct output for equal couplers R1 = R2."""
    diff = (2.0 * reflectivity - 1.0) ** 2
    return (1.0 - diff) / (1.0 + diff)


def solve_coupler_reflectivity(target_visibility: float) -> float:
    """Equal-coupler reflectivity whose direct-output fringe visibility
    matches the target (the branch above 1/2 is returned by convention).

    With d = (2r - 1)^2 the visibility is V = (1 - d)/(1 + d), so
    r = (1 + sqrt((1 - V)/(1 + V)))/2.
    """
    if not 0.0 < target_visibility <= 1.0:
        raise ValueError("target visibility must lie in (0, 1]")
    if target_visibility == 1.0:
        return 0.5
    return 0.5 * (1.0 + math.sqrt((1.0 - target_visibility) / (1.0 + target_visibility)))
