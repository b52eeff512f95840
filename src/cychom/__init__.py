"""Exact cyclic homology computations for finite-dimensional algebras."""

from .rings import ZZ, QQ, GF, BaseRing, ring_from_name
from .matrix import ExactMatrix
from .complexes import ChainComplex, HomologyGroup, complex_homology
from .snf import det_bareiss, diagonal_of, invariant_factors, smith_normal_form
from .algebra import (
    CATALOG_NAMES,
    Algebra,
    AlgebraError,
    algebra_from_json,
    algebra_to_json,
    catalog,
)
from .cyclic import (
    CyclicModule,
    NormalizedBarModule,
    cyclic_bar_module,
    cyclic_identity_multibase_report,
    cyclic_identity_report,
    normalized,
)
from .bicomplex import (
    HomologyTable,
    StabilizationReport,
    conjugate_dimension_check,
    default_q_schedule,
    hc,
    hc_minus_poly,
    hh,
    hp_poly,
    hp_s_tower_table,
)
from .tate import (
    CheckReport,
    GModuleComplex,
    TateComplex,
    TateError,
    construction_5_1_check,
    corollary_5_3_check,
    direct_sum_modules,
    named_module,
    norm_oracle,
    tate_complex,
)
from .verify import CRITERIA, CRITERION_NAMES, CriterionResult, SuiteContext, run_suite

__version__ = "0.1.0"

__all__ = [
    "ZZ",
    "QQ",
    "GF",
    "BaseRing",
    "ring_from_name",
    "ExactMatrix",
    "ChainComplex",
    "HomologyGroup",
    "complex_homology",
    "smith_normal_form",
    "invariant_factors",
    "diagonal_of",
    "det_bareiss",
    "Algebra",
    "AlgebraError",
    "CATALOG_NAMES",
    "catalog",
    "algebra_from_json",
    "algebra_to_json",
    "CyclicModule",
    "NormalizedBarModule",
    "cyclic_bar_module",
    "normalized",
    "cyclic_identity_report",
    "cyclic_identity_multibase_report",
    "HomologyTable",
    "StabilizationReport",
    "default_q_schedule",
    "hc",
    "hh",
    "hp_poly",
    "hc_minus_poly",
    "hp_s_tower_table",
    "conjugate_dimension_check",
    "TateError",
    "GModuleComplex",
    "named_module",
    "direct_sum_modules",
    "TateComplex",
    "tate_complex",
    "norm_oracle",
    "CheckReport",
    "construction_5_1_check",
    "corollary_5_3_check",
    "CRITERIA",
    "CRITERION_NAMES",
    "CriterionResult",
    "SuiteContext",
    "run_suite",
    "__version__",
]
