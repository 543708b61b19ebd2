"""Lattice homology calculators for negative-definite plumbing forests."""

__version__ = "1.0.0"

from .charlattice import (
    CharVector,
    LatticeVector,
    SpinCOrbit,
    chi,
    is_characteristic,
)
from .classify import (
    ARVerdict,
    ClassificationReport,
    RationalityVerdict,
    full_report,
    is_almost_rational,
    is_rational,
)
from .dsl import parse_dsl, parse_json_plumbing, parse_plumbing, serialize_dsl
from .homology import (
    ClassRef,
    DerivedDimensions,
    HomologyResult,
    SignedClass,
    ZERO,
    class_of,
    compute_homology,
    derived_dimensions,
)
from .hplus import (
    CrossCheckReport,
    GradedHPlus,
    HPlusLevel,
    compute_hplus,
    ker_u_cross_check,
)
from .moves import (
    BlowdownResult,
    ConventionConversion,
    ExactnessReport,
    FormalSum,
    SurgeryTriple,
    add_vertex_map,
    blow_down,
    bump_framing_map,
    bump_framing_section,
    check_exactness,
    convert_convention,
    surgery_triple,
)
from .plumbing import (
    CanonicalClass,
    Definiteness,
    EdgeSign,
    IntersectionForm,
    PlumbingForest,
    SemidefiniteVerdict,
    bad_vertices,
    canonical_class,
    intersection_form,
    semidefinite_classify,
    validate_forest,
)
from .seifert import (
    SeifertConversion,
    SeifertData,
    cont_frac_expand,
    parse_sfs,
    seifert_to_plumbing,
)
