"""Exact auxiliary linear forms for q-hypergeometric series values.

Public surface: problem validation and scalar parameters, the forms engine,
rigorous series enclosures, the identity/bounds verifier, and the
certificate generator. All arithmetic is exact rational or enclosure-based.
"""

from .enclosure import Enclosure, log_enclosure, sqrt_enclosure
from .errors import (
    Condition1Violated,
    Condition2Violated,
    DimensionTooLargeForExhaustive,
    DomainViolation,
    InvalidSpec,
    NotApplicable,
    PrecisionCapExceeded,
    PRootAtQPower,
    QFormsError,
    QNotAdmissible,
    RetryCapExceeded,
    UndecidableAtCap,
    ZeroOmega,
    ZeroVector,
)
from .forms import (
    LinearForm,
    form_height,
    operator_poly,
    u_form,
    v_form,
    vl_form,
    w_form,
)
from .measure import (
    Certificate,
    ExponentScanReport,
    certify_lower_bound,
    choose_parameters,
    exponent_scan,
)
from .problem import (
    MeasureParams,
    PolynomialQ,
    ProblemSpec,
    gamma_enclosure,
    measure_params,
    validate_spec,
)
from .series import (
    Grid,
    evaluate_form,
    f_derivative_enclosure,
    functional_equation_residual,
    lambda_enclosure,
    omega_from_vector,
    value_table,
)
from .util import PrecisionPolicy
from .verifier import (
    BoundsReport,
    IdentityReport,
    NonvanishingVerdict,
    bounds_report,
    check_identities,
    nonvanishing_scan,
)

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "Condition1Violated",
    "Condition2Violated",
    "BoundsReport",
    "DimensionTooLargeForExhaustive",
    "DomainViolation",
    "Enclosure",
    "ExponentScanReport",
    "Grid",
    "IdentityReport",
    "InvalidSpec",
    "LinearForm",
    "MeasureParams",
    "NonvanishingVerdict",
    "NotApplicable",
    "PRootAtQPower",
    "PolynomialQ",
    "PrecisionCapExceeded",
    "PrecisionPolicy",
    "ProblemSpec",
    "QFormsError",
    "QNotAdmissible",
    "RetryCapExceeded",
    "UndecidableAtCap",
    "ZeroOmega",
    "ZeroVector",
    "bounds_report",
    "certify_lower_bound",
    "check_identities",
    "choose_parameters",
    "evaluate_form",
    "exponent_scan",
    "f_derivative_enclosure",
    "form_height",
    "functional_equation_residual",
    "gamma_enclosure",
    "lambda_enclosure",
    "log_enclosure",
    "measure_params",
    "nonvanishing_scan",
    "omega_from_vector",
    "operator_poly",
    "sqrt_enclosure",
    "u_form",
    "v_form",
    "validate_spec",
    "value_table",
    "vl_form",
    "w_form",
]
