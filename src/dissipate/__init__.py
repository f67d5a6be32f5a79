"""Dissipativity analysis of scalar second order operators in divergence
form with complex coefficients, on a Lebesgue scale of exponents.

The package splits into small layers:

* :mod:`dissipate.coeffspec`: JSON operator documents and the expression
  language for coefficient fields.
* :mod:`dissipate.pointwise`: node-level linear algebra (the algebraic
  condition in the exponent, admissible exponent intervals, quadratic
  form sufficiency, the constant coefficient verdict).
* :mod:`dissipate.grids`: tensor grids with Dirichlet zero boundary and
  grid functions with central difference gradients.
* :mod:`dissipate.formcheck`: quadrature evaluation of the dissipativity
  form, the transformed functional, and the falsifier.
* :mod:`dissipate.semigroup`: sparse discretization and implicit Euler
  evolution with norm traces and growth rate estimates.
* :mod:`dissipate.report` / :mod:`dissipate.cli`: deterministic reports
  and the command line front end.
"""

from .coeffspec import (
    ComplexField,
    EvalDomainError,
    ExprError,
    OperatorSpec,
    SampledOperator,
    SpecError,
    bump,
    load_spec,
    sample_operator,
    spec_from_dict,
)
from .formcheck import (
    FalsifyResult,
    FormEvaluator,
    GradientSplit,
    equivalence_gap,
    falsify,
    form_direct,
    form_transformed,
    gradient_split,
    operator_form,
)
from .grids import Grid, GridFunction
from .pointwise import (
    ConstVerdict,
    LambdaResult,
    NonnegativityError,
    PInterval,
    QSufficiency,
    SymDecomp,
    check_p_condition,
    constant_coeff_verdict,
    decompose,
    jacobi_eigh,
    lambda_nodes,
    lambda_of,
    min_eigenvalue,
    p_condition_nodes,
    p_interval,
    q_sufficiency,
)
from .report import Report, render_report, spec_digest
from .semigroup import (
    DiscreteOperator,
    NormTrace,
    discretize,
    estimate_omega,
    evolve,
    lp_norm,
)
from .version import __version__

__all__ = [
    "__version__",
    "ComplexField",
    "EvalDomainError",
    "ExprError",
    "OperatorSpec",
    "SampledOperator",
    "SpecError",
    "bump",
    "load_spec",
    "sample_operator",
    "spec_from_dict",
    "FalsifyResult",
    "FormEvaluator",
    "GradientSplit",
    "equivalence_gap",
    "falsify",
    "form_direct",
    "form_transformed",
    "gradient_split",
    "operator_form",
    "Grid",
    "GridFunction",
    "ConstVerdict",
    "LambdaResult",
    "NonnegativityError",
    "PInterval",
    "QSufficiency",
    "SymDecomp",
    "check_p_condition",
    "constant_coeff_verdict",
    "decompose",
    "jacobi_eigh",
    "lambda_nodes",
    "lambda_of",
    "min_eigenvalue",
    "p_condition_nodes",
    "p_interval",
    "q_sufficiency",
    "Report",
    "render_report",
    "spec_digest",
    "DiscreteOperator",
    "NormTrace",
    "discretize",
    "estimate_omega",
    "evolve",
    "lp_norm",
]
