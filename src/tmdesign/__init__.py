"""Designs with odd harmonic indices T_m = {1, 3, ..., 2m-1}.

Interval designs on [-1, 1], weighted interval designs, and spherical
designs, with exact rational certificates where possible and
tolerance-controlled floating verification otherwise.  The headline facts
this package makes machine-checkable: a T_m multiset with at most 2m points
is symmetric, a weighted T_m design with at most m nonzero support points is
even, a spherical T_m set with at most 2m points is antipodal, and each of
these bounds is attained by an explicit construction one point past it.
"""

from .errors import (
    DesignError,
    DomainError,
    HypothesisError,
    InternalDefectError,
    NotSquarefreeError,
    PreconditionError,
    ToleranceError,
)
from .scalars import DEFAULT_TOL, Scalar, format_scalar, parse_scalar
from .symfun import (
    ElemSymVector,
    OddEquivalence,
    PowerSumVector,
    elementary_symmetric,
    extend_odd_power_sums,
    newton_e_from_p,
    newton_p_from_e,
    odd_equivalence_check,
    power_sums,
)
from .polyroot import (
    IsolatingInterval,
    RationalPolynomial,
    cauchy_root_bound,
    evaluate,
    isolate_in_brackets,
    isolate_real_roots,
    monic_from_roots,
    power_sums_from_coeffs,
    refine_root,
    sturm_root_count,
)
from .interval_design import (
    Configuration,
    DesignReport,
    SymmetryCertificate,
    WeightedConfiguration,
    certify_symmetry,
    certify_weighted_symmetry,
    is_symmetric,
    verify_interval_design,
    verify_weighted_design,
)
from .constructions import (
    PerturbedDesignResult,
    QuadratureReport,
    add_zero,
    base_roots,
    binom_alternating_sum,
    binomial_weighted_design,
    chebyshev_gauss_check,
    chebyshev_gauss_nodes,
    choose_epsilon,
    pad_with_antipodal_pairs,
    perturbed_interval_design,
    polygon_weighted_design,
)
from .spherical import (
    AntipodalCertificate,
    GegenbauerEvaluator,
    SixPointSearchReport,
    SphericalConfig,
    SphericalDesignReport,
    certify_antipodal,
    embed,
    escalation_diagnostic,
    gegenbauer_value,
    harmonic_index_residual,
    is_antipodal,
    pad_with_antipodal_pairs_spherical,
    polygon_on_circle,
    project_to_line,
    six_point_search,
    verify_spherical_Tm,
    verify_spherical_t_design_full,
)

__version__ = "0.1.0"
