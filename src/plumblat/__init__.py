"""Lattice homology calculators for negative-definite plumbing forests.

The public names load their module on first use (PEP 562), so ``import
plumblat`` loads no engine; ``plumblat.<submodule>`` works without an import.
"""

import importlib

__version__ = "1.0.0"

# defining module -> the public names it exports here
_EXPORTS = {
    "charlattice": ("CharVector", "LatticeVector", "SpinCOrbit", "chi", "is_characteristic"),
    "classify": ("ARVerdict", "ClassificationReport", "RationalityVerdict", "full_report",
                 "is_almost_rational", "is_rational"),
    "dsl": ("parse_dsl", "parse_json_plumbing", "parse_plumbing", "serialize_dsl"),
    "homology": ("ClassRef", "DerivedDimensions", "HomologyResult", "SignedClass", "ZERO",
                 "class_of", "compute_homology", "derived_dimensions"),
    "hplus": ("CrossCheckReport", "GradedHPlus", "HPlusLevel", "compute_hplus",
              "ker_u_cross_check"),
    "moves": ("BlowdownResult", "ConventionConversion", "ExactnessReport", "SurgeryTriple",
              "blow_down", "check_exactness", "convert_convention", "surgery_triple"),
    "plumbing": ("CanonicalClass", "Definiteness", "EdgeSign", "IntersectionForm",
                 "PlumbingForest", "SemidefiniteVerdict", "bad_vertices", "canonical_class",
                 "intersection_form", "semidefinite_classify", "validate_forest"),
    "seifert": ("SeifertConversion", "SeifertData", "cont_frac_expand", "parse_sfs",
                "seifert_to_plumbing"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "errors", "intlinalg"}

__all__ = list(_HOME)


def __getattr__(name: str):
    # no caching: each access reads the defining module's current attribute
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
