"""Simulator and calibration toolkit for flux-modulated coupler gates.

Two heavy-fluxonium qubits coupled through a flux-tunable transmon are
modeled from the circuit level up: exact single-circuit spectra, the
truncated three-body Hamiltonian, time-domain propagation under
parametric flux drives, Floquet quasienergy analysis, and CZ gate
calibration.

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
    SpectralData,
    TransmonParams,
    diagonalize_fluxonium,
    diagonalize_transmon_charge,
    oscillator_coefficients,
)
from .errors import (
    ConfigError,
    ConstructionError,
    ConvergenceError,
    CutoffError,
    DomainError,
    FluxgateError,
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
    GateConfig,
    GateMetrics,
    LeakageChannel,
    OptimizationResult,
    evaluate_gate,
    gate_metrics,
    gate_schedule,
    leakage_channels,
    optimize_cz,
    simplex_search,
)
from .pulses import BiasRamp, ParametricPulse
from .system import (
    CompositeParams,
    CompositeOperator,
    LabeledSpectrum,
    build_hamiltonian,
    label_eigenstates,
    state_dependent_shifts,
    zz_coupling,
)

__version__ = "0.1.0"
