"""cohscat: coherent light scattering from a cavity-enhanced two-level emitter.

Library layout:

- emitter       parameters, the Bloch generator on (u, v, w, tr) with its
                closed-form steady state, the pulse propagator (behind
                `pulsed.rabi_curve`), coherent fraction, the pulse train and
                its window rule, and GatingModel: the gated detection model
                of fig1d, which is also the scenario's `gating` block
- correlations  g1/g2 by the regression theorem on that generator as G1 and
                G2 traces, blinking envelope, detector timing response
- spectrum      coherent + incoherent emission spectrum (the resolvent of the
                same generator)
- hom           CW two-photon interference in a delay interferometer: the
                ideal-detector (parallel, orthogonal) G2 pair, its two
                detector orderings folded in closed form, and its visibility
- pulsed        Rabi curves, quantum-jump photon streams, coincidence-peak
                analysis, click-level pulsed interference; not re-exported
                here, so importing the package does not load the engine:
                use `from cohscat import pulsed`
- fock          closed-form two-photon fringes of a two-coupler
                interferometer with partial distinguishability, and their fit
- scenario/cli  JSON-configured figure-reproducing command line
"""

__version__ = "0.1.0"

from .correlations import (
    BlinkingParams,
    CorrelationTrace,
    TimingResponse,
    apply_blinking,
    convolve_timing,
    g1,
    g2,
)
from .emitter import (
    HBAR_UEV_NS,
    BlochState,
    DriveField,
    EmitterParams,
    GatingModel,
    IntegrationError,
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
    GridError,
    SpectralResponse,
    SpectrumTrace,
    emission_spectrum,
    incoherent_spectrum,
)
