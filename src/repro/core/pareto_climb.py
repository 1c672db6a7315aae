"""Fast multi-objective hill climbing (Algorithm 2 of the paper).

``ParetoStep`` improves a plan by recursively improving its sub-plans and
then applying the local transformations at the current node, so that many
beneficial mutations in independent sub-trees are applied in a single step.
``ParetoClimb`` repeats steps until no neighbor strictly dominates the
current plan.

Two properties of the problem are exploited, exactly as discussed in
Section 4.2:

* the multi-objective principle of optimality — sub-plan improvements never
  worsen the whole plan, so mutations are judged by their local cost effect
  (cost vectors are maintained bottom-up, making re-costing O(#metrics));
* plan decomposability — mutations in independent sub-trees are applied
  simultaneously, reducing the number of complete plans built on the path to
  a local optimum.

Plans producing different output data representations are kept separately
during a step (the paper's ``SameOutput`` pruning), because the
representation influences the cost and applicability of operators higher up
in the tree.  Per representation a single non-dominated candidate is kept,
matching the pseudo-code's intent ("keeps one Pareto plan per output
format") and the complexity analysis (Lemma 2), which assumes each
``ParetoStep`` instance returns one plan per format.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List

from repro.cost.model import PlanFactory
from repro.pareto.dominance import strictly_dominates
from repro.pareto.engine import SMALL_SET_SIZE, as_cost_matrix, dominance_fold
from repro.plans.operators import DataFormat
from repro.plans.plan import JoinPlan, Plan
from repro.plans.transformations import ArenaTransformationRules, TransformationRules

if TYPE_CHECKING:  # pragma: no cover - imports for type checking only
    from repro.cost.batch import BatchCostModel, JoinSpec, PlanRef


@dataclass(frozen=True)
class ClimbResult:
    """Outcome of one ``ParetoClimb`` invocation.

    Attributes
    ----------
    plan:
        The locally Pareto-optimal plan reached by the climb.
    path_length:
        Number of strictly improving moves performed (the statistic shown in
        Figure 3, left).
    plans_built:
        Number of plan nodes constructed during the climb (work counter).
    """

    plan: Plan
    path_length: int
    plans_built: int


class ParetoClimber:
    """Multi-objective hill climbing over the bushy plan space.

    Parameters
    ----------
    factory:
        Plan factory used to build mutated plans.
    rules:
        The local transformation rules defining the neighborhood.
    max_steps:
        Safety bound on the number of climbing steps (the climb always
        terminates because every move strictly dominates its predecessor,
        but a bound keeps worst cases predictable).
    """

    def __init__(
        self,
        factory: PlanFactory,
        rules: TransformationRules | None = None,
        max_steps: int = 10_000,
    ) -> None:
        if max_steps < 1:
            raise ValueError(f"max_steps must be positive, got {max_steps}")
        self._factory = factory
        self._rules = rules if rules is not None else TransformationRules()
        self._max_steps = max_steps
        self._plans_built = 0

    # ------------------------------------------------------------ ParetoStep
    def pareto_step(self, plan: Plan) -> Dict[DataFormat, Plan]:
        """One parallel transformation step (function ``ParetoStep``).

        Returns the best mutated plan found for each output data
        representation.  Sub-plans are improved by recursive calls before
        mutations are applied at this node, so a single step can change many
        independent parts of the plan tree.
        """
        candidates: List[Plan]
        if isinstance(plan, JoinPlan):
            outer_pareto = self.pareto_step(plan.outer)
            inner_pareto = self.pareto_step(plan.inner)
            candidates = []
            for outer in outer_pareto.values():
                for inner in inner_pareto.values():
                    rebuilt = self._rebuild(plan, outer, inner)
                    candidates.extend(self._rules.mutations(rebuilt, self._factory))
        else:
            candidates = self._rules.mutations(plan, self._factory)
        self._plans_built += len(candidates)
        return self._prune_per_format(candidates)

    # ----------------------------------------------------------- ParetoClimb
    def climb(self, plan: Plan) -> ClimbResult:
        """Climb from ``plan`` until no neighbor strictly dominates it."""
        built_before = self._plans_built
        current = plan
        path_length = 0
        improving = True
        while improving and path_length < self._max_steps:
            improving = False
            mutations = self.pareto_step(current)
            for mutated in mutations.values():
                if strictly_dominates(mutated.cost, current.cost):
                    current = mutated
                    path_length += 1
                    improving = True
                    break
        return ClimbResult(
            plan=current,
            path_length=path_length,
            plans_built=self._plans_built - built_before,
        )

    # ------------------------------------------------------------ accessors
    @property
    def plans_built(self) -> int:
        """Total number of candidate plans constructed by this climber."""
        return self._plans_built

    @property
    def rules(self) -> TransformationRules:
        """The transformation rules defining the neighborhood."""
        return self._rules

    # ------------------------------------------------------------- internals
    def _rebuild(self, original: JoinPlan, outer: Plan, inner: Plan) -> JoinPlan:
        """Rebuild the original join on top of possibly improved children."""
        if outer is original.outer and inner is original.inner:
            return original
        return self._rules.rebuild_join(outer, inner, original.operator, self._factory)

    def _prune_per_format(self, candidates: List[Plan]) -> Dict[DataFormat, Plan]:
        """Keep one non-dominated candidate per output data representation.

        When two candidates of the same representation are mutually
        non-dominated the incumbent is kept; Section 4.2 explicitly allows
        selecting an arbitrary non-dominated neighbor instead of branching.
        Large candidate groups resolve the sequential fold through the
        vectorized :func:`repro.pareto.engine.dominance_fold`, which selects
        exactly the same plan as the scalar loop.
        """
        groups: Dict[DataFormat, List[Plan]] = {}
        for candidate in candidates:
            groups.setdefault(candidate.output_format, []).append(candidate)
        best: Dict[DataFormat, Plan] = {}
        for output_format, group in groups.items():
            if len(group) > SMALL_SET_SIZE:
                costs = as_cost_matrix([plan.cost for plan in group])
                best[output_format] = group[dominance_fold(costs)]
                continue
            incumbent = group[0]
            for candidate in group[1:]:
                if strictly_dominates(candidate.cost, incumbent.cost):
                    incumbent = candidate
            best[output_format] = incumbent
        return best


class ArenaParetoClimber:
    """Multi-objective hill climbing on the columnar engine.

    The algorithm is :class:`ParetoClimber`'s, move for move; the difference
    is purely mechanical.  A ``ParetoStep`` node first *describes* its whole
    neighborhood as uncosted :class:`~repro.cost.batch.JoinSpec` candidates
    (via :class:`~repro.plans.transformations.ArenaTransformationRules`),
    then costs them in one batched
    :meth:`~repro.cost.batch.BatchCostModel.cost_specs` call and prunes per
    output format.  Only the per-format winners are realized into arena
    nodes, so a climb allocates a handful of rows per step instead of one
    ``Plan`` tree per candidate.

    ``ParetoStep`` is a pure function of the (hash-consed) plan handle, so
    its result is memoized per handle: successive climb steps share every
    sub-tree that did not change, and repeated encounters of the same
    sub-plan across iterations are dictionary hits.  The work counter is
    charged as if the sub-tree had been re-derived (each memo entry records
    its sub-tree's candidate count), so ``plans_built`` matches the object
    climber exactly.

    Selected plans, path lengths, and the ``plans_built`` counter are
    identical to the object climber (``tests/test_arena.py``).
    """

    def __init__(
        self,
        model: "BatchCostModel",
        rules: TransformationRules | None = None,
        max_steps: int = 10_000,
    ) -> None:
        if max_steps < 1:
            raise ValueError(f"max_steps must be positive, got {max_steps}")
        self._model = model
        self._arena = model.arena
        self._rules = ArenaTransformationRules(model, rules)
        self._max_steps = max_steps
        self._plans_built = 0
        # handle -> (winners per format, candidate count of the whole
        # recursion), see the class docstring.
        self._step_memo: Dict[int, tuple] = {}

    # ------------------------------------------------------------ ParetoStep
    def pareto_step(self, handle: int) -> Dict[int, int]:
        """One parallel transformation step; maps format codes to handles."""
        cached = self._step_memo.get(handle)
        if cached is not None:
            winners, subtree_candidates = cached
            self._plans_built += subtree_candidates
            return winners
        built_before = self._plans_built
        winners = self._pareto_step_uncached(handle)
        self._step_memo[handle] = (winners, self._plans_built - built_before)
        return winners

    def _pareto_step_uncached(self, handle: int) -> Dict[int, int]:
        arena = self._arena
        if not arena.is_join(handle):
            candidates: "List[PlanRef]" = self._rules.mutations(handle, [])
            self._plans_built += len(candidates)
            return self._prune_per_format(candidates)
        outer_pareto = self.pareto_step(arena.outer(handle))
        inner_pareto = self.pareto_step(arena.inner(handle))
        pending: "List[JoinSpec]" = []
        candidates = []
        original_outer = arena.outer(handle)
        original_inner = arena.inner(handle)
        root_code = arena.op_code(handle)
        for outer in outer_pareto.values():
            for inner in inner_pareto.values():
                if outer == original_outer and inner == original_inner:
                    rebuilt = handle
                else:
                    rebuilt = self._rules.rebuild_join(outer, inner, root_code)
                candidates.extend(self._rules.mutations(rebuilt, pending))
        self._plans_built += len(candidates)
        self._model.cost_specs(pending)
        return self._prune_per_format(candidates)

    # ----------------------------------------------------------- ParetoClimb
    def climb(self, handle: int) -> ClimbResult:
        """Climb from ``handle`` until no neighbor strictly dominates it."""
        built_before = self._plans_built
        arena = self._arena
        current = handle
        path_length = 0
        improving = True
        while improving and path_length < self._max_steps:
            improving = False
            mutations = self.pareto_step(current)
            for mutated in mutations.values():
                if strictly_dominates(arena.cost(mutated), arena.cost(current)):
                    current = mutated
                    path_length += 1
                    improving = True
                    break
        return ClimbResult(
            plan=current,
            path_length=path_length,
            plans_built=self._plans_built - built_before,
        )

    # ------------------------------------------------------------ accessors
    @property
    def plans_built(self) -> int:
        """Total number of candidate plans costed by this climber."""
        return self._plans_built

    # ------------------------------------------------------------- internals
    def _cost_of(self, ref: "PlanRef"):
        if isinstance(ref, int):
            return self._arena.cost(ref)
        assert ref.cost is not None
        return ref.cost

    def _prune_per_format(self, candidates: "List[PlanRef]") -> Dict[int, int]:
        """Keep one non-dominated candidate per output format (see object twin).

        Winners are realized into arena handles; losing candidates never
        touch the arena.
        """
        model = self._model
        arena = self._arena
        op_list = arena.op_code_list
        fmt_of_op = arena.format_code_by_op
        groups: "Dict[int, List[PlanRef]]" = {}
        for candidate in candidates:
            if type(candidate) is int:
                code = fmt_of_op[op_list[candidate]]
            else:
                code = fmt_of_op[candidate.op_code]
            groups.setdefault(code, []).append(candidate)
        best: Dict[int, int] = {}
        for format_code, group in groups.items():
            if len(group) > SMALL_SET_SIZE:
                costs = as_cost_matrix([self._cost_of(ref) for ref in group])
                best[format_code] = model.realize(group[dominance_fold(costs)])
                continue
            incumbent = group[0]
            incumbent_cost = self._cost_of(incumbent)
            for candidate in group[1:]:
                candidate_cost = self._cost_of(candidate)
                if strictly_dominates(candidate_cost, incumbent_cost):
                    incumbent = candidate
                    incumbent_cost = candidate_cost
            best[format_code] = model.realize(incumbent)
        return best
