"""Dissipativity analysis of scalar second order operators in divergence
form with complex coefficients, on a Lebesgue scale of exponents.

The package exports the entry points of the library: ``spec_from_dict``
(an operator document), ``decompose``, ``lambda_of`` and ``p_interval``
(the ratio and the admissible exponent interval of a matrix or a stack
of them) and ``falsify`` (the counterexample search).  Everything else
is imported from the module that defines it:

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

from .coeffspec import spec_from_dict
from .formcheck import falsify
from .pointwise import decompose, lambda_of, p_interval
from .version import __version__

__all__ = ["__version__", "decompose", "falsify", "lambda_of", "p_interval", "spec_from_dict"]
