"""Simulator and analytic-verification toolkit for a two-level system swept
through an avoided crossing under simultaneous longitudinal and transverse
periodic driving.

Layers:

- ``specfun``: special functions (Bessel, Fresnel, complex log-gamma over
  ``scipy.special``; Stokes phase and the Weber parabolic cylinder function).
- ``model``: drive parameters, field vector (with the transverse field and
  longitudinal phase that ``integrate``'s frame reads), Hamiltonian, and
  the (n, alpha) crossing table ``crossings`` that every closed form reads.
- ``su2``: the SU(2) pair type ``CayleyKlein`` that ``integrate`` and
  ``analytic`` share: compose with ``@``, the exponential of an su(2)
  vector, the ordered tree product and the prefix scan.
- ``integrate``: sixth-order Magnus propagation (three Gauss points per
  step) of the Schrodinger equation in the frame of the exact longitudinal
  phase, with a Richardson error estimate (not an upper bound on the
  error); Bloch trajectories are its SO(3) image (numeric ground truth).
- ``analytic``: closed-form survival/transition probabilities for strong and
  weak longitudinal drive, Cayley-Klein parameters (a finite-window transfer
  matrix is the frame propagator over its window), unswept special cases.
- ``blochpert``: perturbative Bloch-vector solutions and their kernel
  algebra.
- ``harness``: run configs, traces, parameter sweeps, comparison reports,
  and the special-function selftest (also exposed as the ``lzdrive`` CLI).
"""

from .errors import (
    AccuracyError,
    ConfigError,
    DomainError,
    IntegrationError,
    OffResonanceError,
    UnsupportedConfigError,
)
from .model import (
    ALPHAS,
    Crossings,
    DriveConfig,
    FieldVector,
    HarmonicIndex,
    crossings,
    eigenenergies,
    field_vector,
    hamiltonian,
    level_offset,
)
from .integrate import (
    SolveStats,
    Trajectory,
    bloch_angles,
    populations,
    propagate_bloch,
    propagate_tdse,
    spinor_to_bloch,
)
from .analytic import (
    CayleyKlein,
    PassagePropagator,
    caley_klein_asymptotic,
    caley_klein_finite,
    inverse_lz_case,
    rabi_case,
    resonance_index,
    single_passage_propagator,
    strong_drive_delta,
    strong_drive_survival,
    transfer_matrix,
    weak_drive_probabilities,
)
from .blochpert import (
    TruncationSpec,
    ac_as,
    bloch_asymptotic_uz,
    bloch_perturbative,
    default_truncation,
    fg_kernels,
    lm_kernel,
    phase_kernel,
)
from .harness import (
    CompareReport,
    RunSpec,
    SweepSpec,
    parse_config,
    parse_sweep,
    run_compare,
    run_sweep,
    run_trace,
    selftest,
)

__version__ = "0.1.0"

__all__ = [
    "ALPHAS",
    "AccuracyError",
    "CayleyKlein",
    "CompareReport",
    "ConfigError",
    "Crossings",
    "DomainError",
    "DriveConfig",
    "FieldVector",
    "HarmonicIndex",
    "IntegrationError",
    "OffResonanceError",
    "PassagePropagator",
    "RunSpec",
    "SolveStats",
    "SweepSpec",
    "Trajectory",
    "TruncationSpec",
    "UnsupportedConfigError",
    "ac_as",
    "bloch_angles",
    "bloch_asymptotic_uz",
    "bloch_perturbative",
    "caley_klein_asymptotic",
    "caley_klein_finite",
    "crossings",
    "default_truncation",
    "eigenenergies",
    "fg_kernels",
    "field_vector",
    "hamiltonian",
    "inverse_lz_case",
    "level_offset",
    "lm_kernel",
    "parse_config",
    "parse_sweep",
    "phase_kernel",
    "populations",
    "propagate_bloch",
    "propagate_tdse",
    "rabi_case",
    "resonance_index",
    "run_compare",
    "run_sweep",
    "run_trace",
    "selftest",
    "single_passage_propagator",
    "spinor_to_bloch",
    "strong_drive_delta",
    "strong_drive_survival",
    "transfer_matrix",
    "weak_drive_probabilities",
]
