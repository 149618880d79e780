"""Bloch-band interferometry in a triangular optical lattice.

A simulation and pulse-design toolkit for ultracold atoms in an optical
lattice driven by shortcut (on/off) pulse sequences:

* :mod:`artifact.lattice` — geometry, plane-wave basis, lattice Hamiltonians;
* :mod:`artifact.dynamics` — band solutions, pulse sequences, evolution;
* :mod:`artifact.shortcut` — rotation fidelity and sequence optimization;
* :mod:`artifact.interferometer` — Ramsey / echo fringes, quasi-momentum
  ensembles, contrast and coherence extraction;
* :mod:`artifact.sequences` — reference pulse sequences;
* :mod:`artifact.cli` — reproducible command-line runs.
"""

from .lattice import (
    Geometry,
    LatticeSpec,
    PlaneWaveBasis,
    TRIANGULAR_FOURIER_COEF,
    angular_frequency_per_Er,
    build_basis,
    calibrate_fourier_coefficient,
    fringe_period_us,
    hamiltonian_on,
    potential_fourier,
    recoil_energy,
    sd_gap,
)
from .dynamics import (
    PulseSequence,
    PulseStep,
    bloch_state,
    default_band_pair,
    solve_bands,
)
from .shortcut import (
    ObjectiveKind,
    OptimizeResult,
    OptimizerOptions,
    PulseObjective,
    build_objective,
    design_sequence,
    fidelity,
    fidelity_report,
    optimize,
)
from .interferometer import (
    ContrastCurve,
    CoherenceResult,
    EnsembleSpec,
    FringeCurve,
    FringeKind,
    IdealPulses,
    SequencePulses,
    coherence_time,
    contrast_curve,
    echo_pd,
    ensemble_fringe,
    phase_scan_contrast,
    ramsey_pd,
)
from .sequences import (
    REFERENCE_LOAD,
    REFERENCE_PI,
    REFERENCE_PI2,
    REFERENCE_PI_VARIABLE,
    REFERENCE_SEQUENCES,
)

__version__ = "0.1.0"

__all__ = [
    "Geometry",
    "LatticeSpec",
    "PlaneWaveBasis",
    "TRIANGULAR_FOURIER_COEF",
    "angular_frequency_per_Er",
    "build_basis",
    "calibrate_fourier_coefficient",
    "fringe_period_us",
    "hamiltonian_on",
    "potential_fourier",
    "recoil_energy",
    "sd_gap",
    "PulseSequence",
    "PulseStep",
    "bloch_state",
    "default_band_pair",
    "solve_bands",
    "ObjectiveKind",
    "OptimizeResult",
    "OptimizerOptions",
    "PulseObjective",
    "build_objective",
    "design_sequence",
    "fidelity",
    "fidelity_report",
    "optimize",
    "ContrastCurve",
    "CoherenceResult",
    "EnsembleSpec",
    "FringeCurve",
    "FringeKind",
    "IdealPulses",
    "SequencePulses",
    "coherence_time",
    "contrast_curve",
    "echo_pd",
    "ensemble_fringe",
    "phase_scan_contrast",
    "ramsey_pd",
    "REFERENCE_LOAD",
    "REFERENCE_PI",
    "REFERENCE_PI2",
    "REFERENCE_PI_VARIABLE",
    "REFERENCE_SEQUENCES",
    "__version__",
]
