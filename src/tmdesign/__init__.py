"""Designs with odd harmonic indices T_m = {1, 3, ..., 2m-1}.

Interval designs on [-1, 1], weighted interval designs, and spherical
designs, with exact rational certificates where possible and
tolerance-controlled floating verification otherwise.  The headline facts
this package makes machine-checkable: a T_m multiset with at most 2m points
is symmetric, a weighted T_m design with at most m nonzero support points is
even, a spherical T_m set with at most 2m points is antipodal, and each of
these bounds is attained by an explicit construction one point past it.

Importing the package runs none of its submodules.  Each is registered in
``sys.modules`` as a lazy module and runs on first use: the first attribute
read from it, or from the public names below, which resolve to it.  So a
command line call runs only the modules its command uses.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# The public names, by the submodule that defines them.
_EXPORTS = {
    "errors": (
        "DesignError",
        "DomainError",
        "HypothesisError",
        "InternalDefectError",
        "NotSquarefreeError",
        "PreconditionError",
        "ToleranceError",
    ),
    "scalars": ("DEFAULT_TOL", "Scalar", "format_scalar", "parse_scalar"),
    "symfun": (
        "ElemSymVector",
        "OddEquivalence",
        "PowerSumVector",
        "elementary_symmetric",
        "extend_odd_power_sums",
        "newton_e_from_p",
        "newton_p_from_e",
        "odd_equivalence_check",
        "power_sums",
    ),
    "polyroot": (
        "IsolatingInterval",
        "RationalPolynomial",
        "cauchy_root_bound",
        "evaluate",
        "isolate_in_brackets",
        "isolate_real_roots",
        "monic_from_roots",
        "power_sums_from_coeffs",
        "refine_root",
        "sturm_root_count",
    ),
    "interval_design": (
        "Configuration",
        "DesignReport",
        "SymmetryCertificate",
        "WeightedConfiguration",
        "certify_symmetry",
        "certify_weighted_symmetry",
        "is_symmetric",
        "verify_interval_design",
        "verify_weighted_design",
    ),
    "constructions": (
        "PerturbedDesignResult",
        "QuadratureReport",
        "add_zero",
        "base_roots",
        "binom_alternating_sum",
        "binomial_weighted_design",
        "chebyshev_gauss_check",
        "chebyshev_gauss_nodes",
        "choose_epsilon",
        "pad_with_antipodal_pairs",
        "perturbed_interval_design",
        "polygon_weighted_design",
    ),
    "spherical": (
        "AntipodalCertificate",
        "SixPointSearchReport",
        "SphericalConfig",
        "SphericalDesignReport",
        "certify_antipodal",
        "embed",
        "escalation_diagnostic",
        "gegenbauer_value",
        "harmonic_index_residual",
        "is_antipodal",
        "pad_with_antipodal_pairs_spherical",
        "polygon_on_circle",
        "project_to_line",
        "six_point_search",
        "verify_spherical_Tm",
        "verify_spherical_t_design_full",
    ),
}

_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_ORIGIN)


def _register(name: str) -> None:
    """Put submodule ``name`` in ``sys.modules`` and in this package, unrun."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    globals()[name] = module


for _name in _EXPORTS:
    _register(_name)
del _name


def __getattr__(name: str):
    try:
        module = _ORIGIN[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(globals()[module], name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
