"""Toolkit for sums of two squares: segmented membership sieves, the sieve
special functions (Buchstab omega, its envelope sup, the half-dimensional
pair F/f), admissible systems of linear forms, exact GPY-style divisor-sum
weights, and desk-scale scan experiments.

`import twosq` loads no submodule: each exported name is imported from its
home module on first access (PEP 562), so a caller pays only for the
modules it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each exported name, by the module that defines it.
_EXPORTS = {
    "admissible": (
        "AdmissibleSystem",
        "LinearForm",
        "build_default_set",
        "compute_W",
        "find_v0",
        "is_p3_admissible",
    ),
    "arith": ("landau_constant", "nu", "p1_numbers", "p3_squarefree_upto", "phi_S"),
    "errors": ("AdmissibilityError", "ConvergenceError", "DomainError", "ResourceError"),
    "scans": (
        "MaierConfig",
        "MaierReport",
        "ScanReport",
        "maier_demo",
        "predicted_average",
        "scan_intervals",
        "scan_progressions",
        "scan_residues",
    ),
    "sieve": (
        "ProgressionQuery",
        "SegmentTable",
        "count_interval",
        "count_progression",
        "count_upto",
        "is_two_square",
        "sieve_segment",
    ),
    "special": ("DelayTable", "EULER_GAMMA", "buchstab_omega", "g", "halfdim_F", "halfdim_f"),
    "weights": (
        "QuadFormReport",
        "WeightSystem",
        "build_weights",
        "check_weight_mass",
        "gamma_p3_indicator",
        "quadratic_forms",
        "verify_sieve_summation",
        "weight_w",
        "weighted_experiment",
    ),
}


def _lazy_getattr(namespace: dict, exports: dict[str, tuple[str, ...]]):
    """A module __getattr__ (PEP 562) for the names in exports, a table of
    twosq module -> names: the first access imports the name's module and
    binds the name in namespace, the module's globals, so later reads (and a
    rebinding by the caller) go through the globals alone."""
    home = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str):
        if name not in home:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        value = namespace[name] = getattr(import_module(f"{__name__}.{home[name]}"), name)
        return value

    return __getattr__


__getattr__ = _lazy_getattr(globals(), _EXPORTS)

__all__ = sorted(name for names in _EXPORTS.values() for name in names)

