"""Crossing/nesting pairing statistics, two-parameter Wick sums, and the
operator models that realize them at finite size.

Every export is imported from its module on first access (PEP 562), so
`import qtwick` loads no engine and no numpy until a name needs it.
"""

import importlib

__version__ = "0.2.0"

_MODULE_EXPORTS = {
    "errors": (
        "NonPairClassError",
        "SizeLimitError",
        "TruncationError",
        "ValidationError",
    ),
    "pairings": (
        "PairPartition",
        "cross_nest",
        "cross_nest_counts",
        "enumerate_counted_pairings",
        "enumerate_pair_partitions",
    ),
    "wickpoly": (
        "DEFAULT_COVARIANCE",
        "QTPolynomial",
        "wick_field",
        "wick_joint",
        "wick_mixed",
    ),
    "fock": (
        "FockParams",
        "annihilate",
        "commutator_residual",
        "create",
        "field",
        "gram_matrix",
        "inner_product",
        "number_scale",
        "vacuum",
        "vacuum_moment",
    ),
    "coeffs": (
        "CoefficientTable",
        "NormalOrderResult",
        "derive_seed",
        "normal_order",
        "pair_limit_monomial",
        "pair_pattern_is_default",
        "sample_base",
        "sample_packed",
        "sample_ranks",
        "sampled_table",
    ),
    "jw": (
        "CommutationReport",
        "MonomialOperator",
        "build_jw",
        "check_commutation",
        "vacuum_expectation",
    ),
    "clt": (
        "ExperimentConfig",
        "ExperimentReport",
        "convergence_experiment",
        "limit_coefficient_estimate",
        "partial_sum_moment",
    ),
}

# export name -> the module that defines it
_EXPORTS = {name: module for module, names in _MODULE_EXPORTS.items() for name in names}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
