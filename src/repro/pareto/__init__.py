"""Pareto-dominance machinery.

Implements the dominance relations of Section 3 (dominance, strict dominance,
approximate dominance with factor alpha), Pareto frontier containers with the
two pruning policies used by Algorithms 2 and 3, the approximation-error
indicator used throughout the evaluation (Section 6.1), and a hypervolume
indicator as an additional quality measure.

The package is split into a hot numeric kernel and the algorithm-facing
containers built on top of it:

* :mod:`repro.pareto.engine` — NumPy-backed batched dominance, frontier
  storage (:class:`~repro.pareto.engine.ParetoSet`), the vectorized ε
  indicator, and hypervolume sweeps;
* :mod:`repro.pareto.reference` — the original pure-Python implementations,
  kept as the executable specification the engine is property-tested
  against.
"""

from repro.pareto.dominance import (
    approx_dominates,
    dominates,
    strictly_dominates,
)
from repro.pareto.engine import ParetoSet, as_cost_matrix
from repro.pareto.frontier import ParetoFrontier, pareto_filter
from repro.pareto.epsilon import (
    approximation_error,
    approximation_error_of_plans,
    approximation_error_scalar,
    is_alpha_approximation,
)
from repro.pareto.hypervolume import hypervolume, hypervolume_scalar
from repro.pareto.selection import NoFeasiblePlanError, filter_by_bounds, select_plan

__all__ = [
    "select_plan",
    "filter_by_bounds",
    "NoFeasiblePlanError",
    "dominates",
    "strictly_dominates",
    "approx_dominates",
    "ParetoFrontier",
    "ParetoSet",
    "as_cost_matrix",
    "pareto_filter",
    "approximation_error",
    "approximation_error_scalar",
    "approximation_error_of_plans",
    "is_alpha_approximation",
    "hypervolume",
    "hypervolume_scalar",
]
