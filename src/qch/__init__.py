"""Numerical tensor algebra for quasi-constant holomorphic curvature models.

The package builds the three curvature blocks of the model on an explicit
even-dimensional stage, applies curvature operators as derivations, checks
the resulting algebraic identities, and solves the warped boundary profiles
used to produce non-semisymmetric examples.
"""

from .curvature import (
    CurvatureTensor,
    QCHCoefficients,
    SymmetryReport,
    build_phi,
    build_pi,
    build_psi,
    check_kahler_symmetries,
    combine,
    fit_coefficients,
    hol_sect,
    product_curvature,
)
from .derivation import (
    KahlerSymmetryWarning,
    NumericBreakdownError,
    curv_dot,
    curvature_operators,
    endo_derive,
    fused_sups,
    pseudosymmetry_defect,
    pseudosymmetry_sups,
)
from .identities import (
    SUITES,
    CheckResult,
    run_suite,
    verify_eq32,
    verify_multiplication_table,
    verify_product_route,
    verify_theorem1,
)
from .profiles import (
    Profile,
    ProfileReport,
    ProfileSample,
    ab2,
    ab2_alternate,
    boundary_residuals,
    eval_profile,
    profile_report,
    solve_profile,
)
from .spaces import (
    HermitianSpace,
    make_space,
    project_D,
    random_adapted_change,
    structure_tensors,
)
from .tensors import (
    Tensor,
    UsageError,
    frobenius_inner,
    from_text,
    max_abs,
    parse_records,
    pullback,
    to_text,
)

__version__ = "0.1.0"

__all__ = [
    "CheckResult",
    "CurvatureTensor",
    "HermitianSpace",
    "KahlerSymmetryWarning",
    "NumericBreakdownError",
    "Profile",
    "ProfileReport",
    "ProfileSample",
    "QCHCoefficients",
    "SUITES",
    "SymmetryReport",
    "Tensor",
    "UsageError",
    "ab2",
    "ab2_alternate",
    "boundary_residuals",
    "build_phi",
    "build_pi",
    "build_psi",
    "check_kahler_symmetries",
    "combine",
    "curv_dot",
    "curvature_operators",
    "endo_derive",
    "eval_profile",
    "fit_coefficients",
    "frobenius_inner",
    "fused_sups",
    "from_text",
    "hol_sect",
    "make_space",
    "max_abs",
    "parse_records",
    "product_curvature",
    "profile_report",
    "project_D",
    "pseudosymmetry_defect",
    "pseudosymmetry_sups",
    "pullback",
    "random_adapted_change",
    "run_suite",
    "solve_profile",
    "structure_tensors",
    "to_text",
    "verify_eq32",
    "verify_multiplication_table",
    "verify_product_route",
    "verify_theorem1",
]
