"""cohscat: coherent light scattering from a cavity-enhanced two-level emitter.

Library layout:

- emitter       parameters, the Bloch generator on (u, v, w, tr) with its
                closed-form steady state, coherent fraction, Pulse (one pulse
                on its own window) with its propagator, and two scenario
                blocks: PulseTrain (`pulse_train`, areas in pi, times in ns;
                only `bench`'s `_multi_frac` passes its `resolve` n_pairs)
                and GatingModel (`gating`, the gated detection of fig1d)
- correlations  g1/g2 by the regression theorem on that generator, as value
                arrays on the caller's tau grid; blinking, detector timing
                response, GridError
- spectrum      coherent + incoherent emission spectrum (the resolvent of the
                same generator), as the density on the caller's energy grid
- hom           CW two-photon interference in a delay interferometer: the
                ideal-detector (parallel, orthogonal) g2 pair, its two
                detector orderings folded in closed form, and its visibility
- pulsed        Rabi curves, quantum-jump photon streams, coincidence-peak
                analysis, click-level pulsed interference; not re-exported
                here, so importing the package does not load the engine:
                use `from cohscat import pulsed`
- fock          closed-form two-photon fringes of a two-coupler
                interferometer with partial distinguishability, and their fit
- scenario/cli  JSON-configured figure-reproducing command line

Deterministic outputs do not depend on the machine: they agree within 1e-10
relative (1e-12 absolute floor) across BLAS kernels, which
`tests/test_cw_digest.py` checks under the OpenBLAS kernels of other cores.

BLAS runs on one thread. Every product here is a 4x4 or batched-4x4
product or solve, or as small, so a BLAS worker thread never has work, yet
OpenBLAS starts one when numpy loads and it spins for about 0.1 s of CPU.
Importing this package before numpy therefore sets OPENBLAS_NUM_THREADS=1,
which OpenBLAS reads once, when its library loads. A caller who sets
OPENBLAS_NUM_THREADS, or who imports numpy first, keeps their own BLAS
setup; either way results do not change. The variable is inherited by
child processes. `--threads` (COHSCAT_THREADS) sets only the Monte Carlo
chunk threads.
"""

import os
import sys

if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from .correlations import (
    BlinkingParams,
    GridError,
    TimingResponse,
    apply_blinking,
    convolve_timing,
    g1,
    g2,
)
from .emitter import (
    HBAR_UEV_NS,
    EmitterParams,
    GatingModel,
    IntegrationError,
    Pulse,
    PulseTrain,
    default_bulk_params,
    rrs_fraction,
    steady_state,
)
from .fock import (
    FringeTable,
    SourceModel,
    fit_fringe,
    mzi_fringes,
    solve_coupler_reflectivity,
)
from .hom import (
    HomSetup,
    hom_g2,
    hom_pair,
    solve_timing_for_visibility,
    visibility,
)
from .scenario import Scenario, SchemaError
from .spectrum import (
    SpectralResponse,
    emission_spectrum,
    incoherent_spectrum,
)
