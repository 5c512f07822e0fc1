"""Simulator and calibration toolkit for flux-modulated coupler gates.

Two heavy-fluxonium qubits coupled through a flux-tunable transmon are
modeled from the circuit level up: exact single-circuit spectra, the
truncated three-body Hamiltonian, analytic effective couplings,
time-domain propagation under parametric flux drives, Floquet
quasienergy analysis, and CZ gate tuning with coherent and incoherent
error metrics.

Units throughout: energies and frequencies in GHz (h = 1), times in ns,
fluxes in units of the flux quantum.
"""

from .config import (
    AmplitudeConfig,
    ChevronConfig,
    FloquetConfig,
    ReferenceValues,
    RunConfig,
    ShiftScanConfig,
    SweepConfig,
    load_config,
)
from .circuits import (
    FluxoniumParams,
    OscillatorParams,
    SpectralData,
    TransmonParams,
    coupler_flux_derivative,
    diagonalize_fluxonium,
    diagonalize_transmon_charge,
    transmon_oscillator_params,
)
from .effective import (
    EffectiveCouplings,
    ParametricCoupling,
    PlasmonModeSelection,
    TransitionCategory,
    classify_transition,
    parametric_strength,
    plasmon_coupler_strengths,
    squeezing_coefficients,
    static_plasmon_coupling,
    swt_dressed_shifts,
)
from .errors import (
    ConfigError,
    ConstructionError,
    ConvergenceError,
    CutoffError,
    DomainError,
    FluxgateError,
    FluxgateWarning,
    IntegrationError,
    LabelingError,
    SearchError,
)
from .evolve import (
    ComputationalUnitary,
    EvolutionResult,
    propagate_computational_unitary,
    propagate_state,
)
from .floquet import (
    FloquetSpectrum,
    Monodromy,
    TransitionResult,
    extract_transition,
    monodromy,
    quasienergies,
)
from .gates import (
    CoherenceTimes,
    GateConfig,
    GateMetrics,
    LeakageChannel,
    OptimizationResult,
    evaluate_gate,
    gate_metrics,
    gate_schedule,
    incoherent_error,
    leakage_channels,
    optimize_cz,
    simplex_search,
)
from .pulses import BiasRamp, ParametricPulse, flux_waveform
from .system import (
    CompositeParams,
    CompositeOperator,
    LabeledSpectrum,
    build_hamiltonian,
    find_idle_point,
    label_eigenstates,
    state_dependent_shifts,
    zz_coupling,
)

__version__ = "0.1.0"
