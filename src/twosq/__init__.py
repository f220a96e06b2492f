"""Toolkit for sums of two squares: segmented membership sieves, the sieve
special functions (Buchstab omega, its envelope sup, the half-dimensional
pair F/f), admissible systems of linear forms, exact GPY-style divisor-sum
weights, and desk-scale scan experiments."""

from .admissible import (
    AdmissibleSystem,
    LinearForm,
    build_default_set,
    compute_W,
    find_v0,
    is_p3_admissible,
)
from .arith import landau_constant, nu, p1_numbers, p3_squarefree_upto, phi_S
from .errors import AdmissibilityError, ConvergenceError, DomainError, ResourceError
from .scans import (
    MaierConfig,
    MaierReport,
    ScanReport,
    maier_demo,
    predicted_average,
    scan_intervals,
    scan_progressions,
    scan_residues,
)
from .sieve import (
    ProgressionQuery,
    SegmentTable,
    count_interval,
    count_progression,
    count_upto,
    is_two_square,
    sieve_segment,
)
from .special import (
    DelayTable,
    EULER_GAMMA,
    buchstab_omega,
    g,
    halfdim_F,
    halfdim_f,
)
from .weights import (
    QuadFormReport,
    WeightSystem,
    build_weights,
    gamma_p3_indicator,
    check_weight_mass,
    quadratic_forms,
    verify_sieve_summation,
    weight_w,
    weighted_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityError",
    "AdmissibleSystem",
    "ConvergenceError",
    "DelayTable",
    "DomainError",
    "EULER_GAMMA",
    "LinearForm",
    "MaierConfig",
    "MaierReport",
    "ProgressionQuery",
    "QuadFormReport",
    "ResourceError",
    "ScanReport",
    "SegmentTable",
    "WeightSystem",
    "build_default_set",
    "build_weights",
    "buchstab_omega",
    "compute_W",
    "count_interval",
    "count_progression",
    "count_upto",
    "find_v0",
    "g",
    "gamma_p3_indicator",
    "halfdim_F",
    "halfdim_f",
    "is_p3_admissible",
    "is_two_square",
    "landau_constant",
    "check_weight_mass",
    "maier_demo",
    "nu",
    "p1_numbers",
    "p3_squarefree_upto",
    "phi_S",
    "predicted_average",
    "quadratic_forms",
    "scan_intervals",
    "scan_progressions",
    "scan_residues",
    "sieve_segment",
    "verify_sieve_summation",
    "weight_w",
    "weighted_experiment",
]
