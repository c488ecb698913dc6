"""Forward and inverse spectral solver for the third-order operator

    y''' + (tau1 y)' + tau1 y' + tau0 y = lambda y  on (0, 1),

with a distributional coefficient tau0 = sigma0' represented through its
antiderivative sigma0.  The package computes the two boundary-value
spectra with their weight numbers (forward problem) and recovers the
coefficients from such data by solving the main equation of the method
of spectral mappings against an explicitly constructed model problem
(inverse problem).
"""

from .grid import (
    Grid,
    GridFunction,
    CoefficientPair,
    integrate,
    cumulative,
    l2_norm,
    w2m1_distance,
    read_coefficients,
    write_coefficients,
)
from .quasi import SystemVariant
from .forward import (
    SpectralData,
    detect_K,
    compute_spectral_data,
    weyl_matrix,
    weight_matrix,
    save_spectral_data,
    load_spectral_data,
)
from .asympt import eigen_guess, extract_remainders, validate_condition1
from .model import ModelCache, build_model, xi_sequence, distance_d
from .inverse import (
    index_set,
    assemble,
    solve_phi,
    reconstruct,
    run_inverse,
    verify_spectral,
    verify_weyl,
    stability_experiment,
)
from .selfadjoint import complete, check_suff_conditions, check_symmetry
from .errors import (
    NoConvergenceError,
    BasinEscapeError,
    DerivativeVanishesError,
    GammaZeroError,
    NearPoleError,
    PoleHitError,
    SingularSystemError,
    AdmissibilityViolationError,
    ResolutionGuardError,
    IntegrationOverflowError,
)

__all__ = [
    "Grid", "GridFunction", "CoefficientPair", "integrate", "cumulative",
    "l2_norm", "w2m1_distance", "read_coefficients", "write_coefficients",
    "SystemVariant", "SpectralData", "detect_K", "compute_spectral_data",
    "weyl_matrix", "weight_matrix", "save_spectral_data", "load_spectral_data",
    "eigen_guess", "extract_remainders", "validate_condition1", "ModelCache",
    "build_model", "xi_sequence", "distance_d", "index_set", "assemble",
    "solve_phi", "reconstruct", "run_inverse", "verify_spectral",
    "verify_weyl", "stability_experiment", "complete", "check_suff_conditions",
    "check_symmetry", "NoConvergenceError",
    "BasinEscapeError", "DerivativeVanishesError", "GammaZeroError",
    "NearPoleError", "PoleHitError", "SingularSystemError",
    "AdmissibilityViolationError", "ResolutionGuardError",
    "IntegrationOverflowError",
]

__version__ = "0.1.0"
