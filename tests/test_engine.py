"""Property and unit tests for the vectorized Pareto engine.

The engine (:mod:`repro.pareto.engine`) is the live path for frontier
insertion, the approximation-error indicator, and the hypervolume indicator.
These tests pin it against the pure-Python reference implementations
(:mod:`repro.pareto.dominance`, :mod:`repro.pareto.reference`, the scalar
functions in :mod:`repro.pareto.epsilon` / :mod:`repro.pareto.hypervolume`)
on random inputs: dominance matrices must match the pairwise scalar
relations, engine-backed frontiers must evolve identically to the scalar
container (same kept items, same order, same acceptance counts — also for
non-finite costs, tagged rows, duplicates, and interleaved single and batch
insertions), the batched
ε indicator must be bit-identical to the scalar double loop, and the
hypervolume variants must agree up to floating-point accumulation.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pareto import engine
from repro.pareto.dominance import approx_dominates, dominates, strictly_dominates
from repro.pareto.epsilon import (
    approximation_error,
    approximation_error_scalar,
    is_alpha_approximation,
    is_alpha_approximation_scalar,
)
from repro.pareto.frontier import ParetoFrontier, pareto_filter
from repro.pareto.hypervolume import hypervolume, hypervolume_scalar
from repro.pareto.reference import ScalarParetoFrontier, scalar_pareto_filter

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------
finite_cost = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
costs2 = st.tuples(finite_cost, finite_cost)
costs3 = st.tuples(finite_cost, finite_cost, finite_cost)
cost_lists3 = st.lists(costs3, min_size=1, max_size=40)
alphas = st.floats(min_value=1.0, max_value=50.0, allow_nan=False)

# Small-magnitude grids produce many dominance ties and duplicates, which is
# where sequential-equivalence bugs would hide.
gridded_cost = st.integers(min_value=0, max_value=4).map(float)
gridded3 = st.tuples(gridded_cost, gridded_cost, gridded_cost)
gridded_lists = st.lists(gridded3, min_size=1, max_size=40)
# Adversarial component values including non-finite ones.
weird_cost = st.one_of(
    gridded_cost,
    finite_cost,
    st.sampled_from([float("inf"), float("-inf"), float("nan")]),
)


def _normalized(value):
    """Compare float containers by ``repr`` so that NaN equals NaN."""
    if isinstance(value, (tuple, list)):
        return type(value)(_normalized(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return value


class _TaggedScalarReference:
    """Scalar specification of a tagged :class:`~repro.pareto.engine.ParetoSet`.

    One :class:`ScalarParetoFrontier` per tag (rows of different tags are
    never compared); items carry their arrival number so the union can be
    listed in insertion order, as ``ParetoSet.costs`` does.
    """

    def __init__(self, alpha=1.0):
        self.alpha = alpha
        self._frontiers = {}
        self._arrivals = 0

    def insert(self, cost, tag=0):
        frontier = self._frontiers.get(tag)
        if frontier is None:
            frontier = ScalarParetoFrontier(cost_of=lambda item: item[1], alpha=self.alpha)
            self._frontiers[tag] = frontier
        self._arrivals += 1
        return frontier.insert((self._arrivals, tuple(cost)))

    def costs(self):
        items = [item for f in self._frontiers.values() for item in f.items()]
        return [cost for _, cost in sorted(items, key=lambda item: item[0])]

    def covers(self, cost, alpha, tag=None):
        return any(
            frontier.covers(cost, alpha)
            for frontier_tag, frontier in self._frontiers.items()
            if tag is None or frontier_tag == tag
        )

    def dominated_by_any(self, cost):
        return any(f.dominated_by_any(cost) for f in self._frontiers.values())


def _checked_insert(pareto_set, reference, cost, tag=0):
    """Insert into both; pin acceptance, eviction indices, and contents."""
    before = pareto_set.costs()
    accepted, evicted = pareto_set.insert(cost, alpha=reference.alpha, tag=tag)
    assert accepted == reference.insert(cost, tag=tag)
    expected = [row for index, row in enumerate(before) if index not in evicted]
    if accepted:
        expected.append(tuple(cost))
    assert _normalized(pareto_set.costs()) == _normalized(expected)
    assert _normalized(pareto_set.costs()) == _normalized(reference.costs())


# ---------------------------------------------------------------------------
# Batched dominance vs. scalar relations
# ---------------------------------------------------------------------------
class TestDominanceMatrices:
    @given(cost_lists3, cost_lists3)
    def test_dominates_matrix_matches_scalar(self, first, second):
        matrix = engine.dominates_matrix(
            engine.as_cost_matrix(first), engine.as_cost_matrix(second)
        )
        for i, a in enumerate(first):
            for j, b in enumerate(second):
                assert matrix[i, j] == dominates(a, b)

    @given(cost_lists3, cost_lists3)
    def test_strict_matrix_matches_scalar(self, first, second):
        matrix = engine.strictly_dominates_matrix(
            engine.as_cost_matrix(first), engine.as_cost_matrix(second)
        )
        for i, a in enumerate(first):
            for j, b in enumerate(second):
                assert matrix[i, j] == strictly_dominates(a, b)

    @given(cost_lists3, cost_lists3, alphas)
    def test_approx_matrix_matches_scalar(self, first, second, alpha):
        matrix = engine.approx_dominates_matrix(
            engine.as_cost_matrix(first), engine.as_cost_matrix(second), alpha
        )
        for i, a in enumerate(first):
            for j, b in enumerate(second):
                assert matrix[i, j] == approx_dominates(a, b, alpha)

    def test_ragged_input_rejected(self):
        with pytest.raises(ValueError):
            engine.as_cost_matrix([(1.0, 2.0), (1.0,)])


# ---------------------------------------------------------------------------
# Engine-backed frontier vs. scalar reference container
# ---------------------------------------------------------------------------
class TestFrontierAgainstScalarReference:
    @given(cost_lists3, alphas)
    def test_sequential_insert_matches_reference(self, costs, alpha):
        vectorized: ParetoFrontier = ParetoFrontier(alpha=alpha)
        reference: ScalarParetoFrontier = ScalarParetoFrontier(alpha=alpha)
        for cost in costs:
            assert vectorized.insert(cost) == reference.insert(cost)
            assert vectorized.items() == reference.items()

    @given(gridded_lists, st.booleans())
    def test_batch_insert_matches_sequential_reference(self, costs, preload):
        vectorized: ParetoFrontier = ParetoFrontier()
        reference: ScalarParetoFrontier = ScalarParetoFrontier()
        if preload:
            seed = [(2.0, 2.0, 2.0), (0.0, 4.0, 1.0)]
            vectorized.insert_all(seed)
            for cost in seed:
                reference.insert(cost)
        accepted = vectorized.insert_all(costs)
        accepted_reference = sum(1 for cost in costs if reference.insert(cost))
        assert accepted == accepted_reference
        assert vectorized.items() == reference.items()

    @given(st.one_of(cost_lists3, gridded_lists))
    def test_pareto_filter_matches_reference(self, costs):
        assert pareto_filter(costs) == scalar_pareto_filter(costs)

    @given(cost_lists3, costs3, alphas)
    def test_queries_match_reference(self, costs, probe, alpha):
        vectorized: ParetoFrontier = ParetoFrontier()
        reference: ScalarParetoFrontier = ScalarParetoFrontier()
        for cost in costs:
            vectorized.insert(cost)
            reference.insert(cost)
        assert vectorized.covers(probe, alpha) == reference.covers(probe, alpha)
        assert vectorized.dominated_by_any(probe) == reference.dominated_by_any(probe)

    def test_large_frontier_crosses_vectorized_threshold(self, rng):
        """Inserting past SMALL_SET_SIZE exercises the NumPy path end to end."""
        vectorized: ParetoFrontier = ParetoFrontier()
        reference: ScalarParetoFrontier = ScalarParetoFrontier()
        for _ in range(400):
            # Anti-correlated metrics keep almost every point non-dominated.
            u = rng.random()
            cost = (u, 1.0 - u, rng.random())
            assert vectorized.insert(cost) == reference.insert(cost)
        assert len(vectorized) > engine.SMALL_SET_SIZE
        assert vectorized.items() == reference.items()

    @given(gridded_lists, st.floats(min_value=1.0, max_value=3.0))
    def test_gridded_sequences_match_reference(self, rows, alpha):
        """Single inserts on a small grid with α ≥ 1: ties and duplicates."""
        pareto_set = engine.ParetoSet()
        reference = _TaggedScalarReference(alpha)
        for row in rows:
            _checked_insert(pareto_set, reference, row)

    @given(
        st.lists(st.tuples(*[gridded_cost] * 4), max_size=40),
        st.lists(st.tuples(*[gridded_cost] * 4), min_size=1, max_size=80),
    )
    def test_batch_after_seed_matches_reference(self, seed, batch):
        """A batch merged into a frontier built by single inserts."""
        pareto_set = engine.ParetoSet()
        reference: ScalarParetoFrontier = ScalarParetoFrontier()
        for row in seed:
            assert pareto_set.insert(row)[0] == reference.insert(row)
        before = pareto_set.costs()
        accepted, kept, surviving = pareto_set.insert_batch(batch)
        assert accepted == sum(1 for row in batch if reference.insert(row))
        expected = [row for row, alive in zip(before, surviving) if alive]
        expected += [batch[j] for j in kept]
        assert pareto_set.costs() == expected == reference.items()

    @given(gridded_lists, st.lists(gridded3, min_size=1, max_size=20))
    def test_set_queries_match_reference(self, rows, probes):
        pareto_set = engine.ParetoSet()
        reference: ScalarParetoFrontier = ScalarParetoFrontier()
        for row in rows:
            pareto_set.insert(row)
            reference.insert(row)
        for probe in probes:
            for alpha in (1.0, 2.0):
                assert pareto_set.covers(probe, alpha) == reference.covers(
                    probe, alpha
                )
            assert pareto_set.strictly_dominates_any(probe) == (
                reference.dominated_by_any(probe)
            )

    def test_gridded_rows_match_reference(self):
        """500 rows on a small grid: many ties, duplicates, and evictions."""
        rng = random.Random(20160626)
        rows = [tuple(float(rng.randrange(6)) for _ in range(3)) for _ in range(500)]
        reference: ScalarParetoFrontier = ScalarParetoFrontier()
        pareto_set = engine.ParetoSet()
        for row in rows:
            assert pareto_set.insert(row)[0] == reference.insert(row)
        assert pareto_set.costs() == reference.items()

    @given(st.lists(st.tuples(weird_cost, weird_cost, weird_cost), max_size=60))
    def test_non_finite_rows_match_reference(self, rows):
        pareto_set = engine.ParetoSet()
        reference = _TaggedScalarReference()
        for row in rows:
            _checked_insert(pareto_set, reference, row)

    def test_large_tagged_set_matches_reference(self, rng):
        """Past SMALL_SET_SIZE: non-finite components, re-offered rows, tags."""
        specials = (float("inf"), float("-inf"), float("nan"))
        pareto_set = engine.ParetoSet()
        reference = _TaggedScalarReference()
        offered = []
        for index in range(300):
            if index % 5 == 4:
                row = offered[index // 2]  # exact duplicates must be rejected
            else:
                u = rng.random()
                third = specials[index % 3] if index % 7 == 0 else rng.random()
                row = (u, 1.0 - u, third)
            offered.append(row)
            _checked_insert(pareto_set, reference, row, tag=index % 2)
        assert len(pareto_set) > engine.SMALL_SET_SIZE
        for probe in offered[::10]:
            for tag in (None, 0, 1):
                assert pareto_set.covers(probe, 1.0, tag) == reference.covers(
                    probe, 1.0, tag
                )
            assert pareto_set.strictly_dominates_any(probe) == (
                reference.dominated_by_any(probe)
            )

    @given(
        st.lists(st.tuples(gridded_cost, gridded_cost), min_size=1, max_size=50),
        st.lists(st.tuples(gridded_cost, gridded_cost), min_size=1, max_size=20),
        st.floats(min_value=1.0, max_value=3.0),
    )
    def test_tagged_rows_match_reference(self, rows, probes, alpha):
        """Tags partition the comparisons (the plan cache's ``SigBetter``)."""
        pareto_set = engine.ParetoSet()
        reference = _TaggedScalarReference(alpha)
        for index, row in enumerate(rows):
            _checked_insert(pareto_set, reference, row, tag=index % 3)
        for probe in probes:
            for tag in (None, 0, 1, 2):
                assert pareto_set.covers(probe, alpha, tag) == reference.covers(
                    probe, alpha, tag
                )
            assert pareto_set.strictly_dominates_any(probe) == (
                reference.dominated_by_any(probe)
            )

    @given(
        st.lists(
            st.tuples(st.booleans(), st.tuples(gridded_cost, gridded_cost)),
            min_size=1,
            max_size=40,
        )
    )
    def test_insert_merge_interleavings(self, script):
        """Random interleavings of single inserts and batch merges."""
        pareto_set = engine.ParetoSet()
        reference: ScalarParetoFrontier = ScalarParetoFrontier()
        pending = []
        for is_merge, row in script:
            if is_merge and pending:
                accepted, kept, _ = pareto_set.insert_batch(list(pending))
                offered = len(pareto_set.costs()) - len(kept)
                assert accepted == sum(1 for cost in pending if reference.insert(cost))
                assert pareto_set.costs()[offered:] == [pending[j] for j in kept]
                pending = []
            else:
                pending.append(row)
                assert pareto_set.insert(row)[0] == reference.insert(row)
            assert pareto_set.costs() == reference.items()


# ---------------------------------------------------------------------------
# ParetoSet specifics (tags, eviction reporting)
# ---------------------------------------------------------------------------
class TestParetoSet:
    def test_tags_partition_the_comparisons(self):
        pareto_set = engine.ParetoSet()
        assert pareto_set.insert((1.0, 1.0), tag=0)[0]
        # Same cost, different tag: not compared, so kept.
        assert pareto_set.insert((1.0, 1.0), tag=1)[0]
        # Dominated within tag 0: rejected.
        assert not pareto_set.insert((2.0, 2.0), tag=0)[0]
        # Dominating within tag 1 evicts only the tag-1 row (index 1).
        accepted, evicted = pareto_set.insert((0.5, 0.5), tag=1)
        assert accepted and evicted == [1]
        assert pareto_set.costs() == [(1.0, 1.0), (0.5, 0.5)]

    def test_eviction_indices_refer_to_pre_insert_positions(self):
        pareto_set = engine.ParetoSet()
        pareto_set.insert((1.0, 5.0))
        pareto_set.insert((5.0, 1.0))
        pareto_set.insert((4.0, 4.0))
        accepted, evicted = pareto_set.insert((3.0, 3.0))
        assert accepted and evicted == [2]
        assert pareto_set.costs() == [(1.0, 5.0), (5.0, 1.0), (3.0, 3.0)]

    def test_dimension_mismatch_rejected(self):
        pareto_set = engine.ParetoSet()
        pareto_set.insert((1.0, 2.0))
        with pytest.raises(ValueError):
            pareto_set.insert((1.0, 2.0, 3.0))

    def test_clear_resets_dimension(self):
        pareto_set = engine.ParetoSet()
        pareto_set.insert((1.0, 2.0))
        pareto_set.clear()
        assert pareto_set.insert((1.0, 2.0, 3.0))[0]

    def test_clear_resets_large_set(self):
        pareto_set = engine.ParetoSet()
        for i in range(50):  # past SMALL_SET_SIZE: the array buffer is live
            pareto_set.insert((float(i), float(50 - i)))
        pareto_set.clear()
        assert len(pareto_set) == 0 and pareto_set.costs() == []
        assert pareto_set.insert((1.0, 2.0, 3.0))[0]
        assert pareto_set.costs() == [(1.0, 2.0, 3.0)]

    def test_duplicate_costs_first_occurrence_kept(self):
        pareto_set = engine.ParetoSet()
        assert pareto_set.insert((1.0, 2.0)) == (True, [])
        assert pareto_set.insert((1.0, 2.0)) == (False, [])
        assert pareto_set.insert((2.0, 1.0)) == (True, [])
        assert pareto_set.insert((1.0, 1.0)) == (True, [0, 1])
        assert pareto_set.costs() == [(1.0, 1.0)]
        accepted, kept, _ = engine.ParetoSet().insert_batch(
            [(3.0, 1.0), (1.0, 3.0), (3.0, 1.0), (1.0, 3.0)]
        )
        assert (accepted, kept) == (2, [0, 1])

    def test_all_dominated_batch(self):
        pareto_set = engine.ParetoSet()
        pareto_set.insert((0.0, 0.0, 0.0))
        accepted, kept, surviving = pareto_set.insert_batch(
            [(float(i % 5 + 1), float(i % 3 + 1), float(i % 7 + 1)) for i in range(400)]
        )
        assert (accepted, kept, surviving.tolist()) == (0, [], [True])
        assert pareto_set.costs() == [(0.0, 0.0, 0.0)]

    def test_all_incomparable_batch(self):
        """Every row kept, across several insertion chunks."""
        rows = [(float(i), float(1000 - i)) for i in range(600)]
        pareto_set = engine.ParetoSet()
        accepted, kept, surviving = pareto_set.insert_batch(rows)
        assert (accepted, kept, surviving.tolist()) == (600, list(range(600)), [])
        assert pareto_set.costs() == rows


# ---------------------------------------------------------------------------
# Approximation error: vectorized vs. scalar (bit-identical)
# ---------------------------------------------------------------------------
class TestApproximationErrorAgreement:
    @given(cost_lists3, cost_lists3)
    def test_error_is_bit_identical_to_scalar(self, produced, reference):
        assert approximation_error(produced, reference) == approximation_error_scalar(
            produced, reference
        )

    @given(cost_lists3, cost_lists3, alphas)
    def test_alpha_coverage_matches_scalar(self, produced, reference, alpha):
        assert is_alpha_approximation(
            produced, reference, alpha
        ) == is_alpha_approximation_scalar(produced, reference, alpha)

    def test_infinite_costs_match_scalar(self):
        """inf/inf component ratios are NaN; both paths must skip them.

        Regression test: the scalar ``max_ratio`` ignores NaN components, so
        a produced plan with an infinite metric must not silently count as a
        perfect cover of an infinite reference metric.
        """
        inf = float("inf")
        produced = [(inf, 2.0)]
        reference = [(inf, 1.0), (1.0, 1.0)]
        assert approximation_error_scalar(produced, reference) == inf
        assert approximation_error(produced, reference) == inf
        # Covering the inf reference point with a finite plan is factor-2
        # coverage of the finite metric and a zero ratio on the inf one.
        produced_finite = [(2.0, 2.0)]
        assert approximation_error(
            produced_finite, reference
        ) == approximation_error_scalar(produced_finite, reference)

    def test_large_inputs_chunked_reduction(self, rng):
        produced = [(rng.uniform(0.1, 10), rng.uniform(0.1, 10)) for _ in range(500)]
        reference = [(rng.uniform(0.1, 10), rng.uniform(0.1, 10)) for _ in range(500)]
        assert approximation_error(produced, reference) == approximation_error_scalar(
            produced, reference
        )


# ---------------------------------------------------------------------------
# Hypervolume: exact live path, fast sweep, scalar reference
# ---------------------------------------------------------------------------
class TestHypervolumeAgreement:
    @given(st.lists(costs2, min_size=0, max_size=15))
    def test_live_agrees_with_scalar_2d(self, costs):
        reference = (1e6 + 1.0, 1e6 + 1.0)
        exact = hypervolume(costs, reference)
        scalar = hypervolume_scalar(costs, reference)
        assert exact == pytest.approx(scalar, rel=1e-9, abs=1e-6)

    @given(st.lists(costs3, min_size=0, max_size=12))
    def test_live_agrees_with_scalar_3d(self, costs):
        reference = (1e6 + 1.0, 1e6 + 1.0, 1e6 + 1.0)
        exact = hypervolume(costs, reference)
        scalar = hypervolume_scalar(costs, reference)
        assert exact == pytest.approx(scalar, rel=1e-9, abs=1e-6)

    @given(st.lists(costs3, min_size=1, max_size=12))
    def test_fast_sweep_agrees_with_exact(self, costs):
        reference = (1e6 + 1.0,) * 3
        matrix = engine.as_cost_matrix([tuple(c) for c in costs])
        inside = np.all(matrix < np.asarray(reference), axis=1)
        cleaned = matrix[inside]
        if cleaned.shape[0] == 0:
            return
        front = cleaned[engine.pareto_kept_mask(cleaned)]
        fast = engine.hypervolume_sweep(front, reference)
        exact = engine.hypervolume_exact(front, reference)
        assert fast == pytest.approx(exact, rel=1e-9, abs=1e-6)

    @settings(max_examples=50)
    @given(st.lists(costs2, min_size=1, max_size=12), costs2, costs2)
    def test_exact_monotone_under_union(self, costs, extra_a, extra_b):
        """The live hypervolume never decreases when points are added."""
        reference = (1e6 + 1.0, 1e6 + 1.0)
        base = hypervolume(costs, reference)
        one = hypervolume(costs + [extra_a], reference)
        two = hypervolume(costs + [extra_a, extra_b], reference)
        assert one >= base
        assert two >= one

    def test_infinite_reference_bound_matches_scalar(self):
        """A +inf reference bound gives interior points infinite extent.

        Regression test: the rational sweep cannot represent inf, so the
        live path must short-circuit to the same values the scalar float
        recursion produces.
        """
        inf = float("inf")
        assert hypervolume([(1.0, 1.0)], (inf, 2.0)) == inf
        assert hypervolume_scalar([(1.0, 1.0)], (inf, 2.0)) == inf
        # NaN / -inf bounds admit no strictly-dominating point at all.
        assert hypervolume([(1.0, 1.0)], (float("nan"), 2.0)) == 0.0
        assert hypervolume([(1.0, 1.0)], (-inf, 2.0)) == 0.0
        assert hypervolume_scalar([(1.0, 1.0)], (-inf, 2.0)) == 0.0
        # A -inf point coordinate has infinite dominated extent (and a NaN
        # coordinate never passes the strictly-inside cleaning).
        assert hypervolume([(-inf, 1.0)], (10.0, 10.0)) == inf
        assert hypervolume_scalar([(-inf, 1.0)], (10.0, 10.0)) == inf
        assert hypervolume([(float("nan"), 1.0)], (10.0, 10.0)) == 0.0
        assert hypervolume_scalar([(float("nan"), 1.0)], (10.0, 10.0)) == 0.0

    def test_exact_monotone_on_seed_counterexample(self):
        """The case that broke floating-point accumulation in the seed."""
        costs = [(0.0, 137440.56456262816), (6.853751722207469e-135, 0.0)]
        extra = (2.225073858507e-311, 1.3213931992650032)
        reference = (1000001.0, 1000001.0)
        assert hypervolume(costs + [extra], reference) >= hypervolume(costs, reference)


# ---------------------------------------------------------------------------
# Sequential dominance fold (ParetoStep pruning kernel)
# ---------------------------------------------------------------------------
class TestDominanceFold:
    @given(gridded_lists)
    def test_fold_matches_sequential_scan(self, costs):
        matrix = engine.as_cost_matrix(costs)
        incumbent = 0
        for j in range(1, len(costs)):
            if strictly_dominates(costs[j], costs[incumbent]):
                incumbent = j
        assert engine.dominance_fold(matrix) == incumbent

    def test_fold_rejects_empty(self):
        with pytest.raises(ValueError):
            engine.dominance_fold(engine.as_cost_matrix([]))


def test_insert_speedup_is_measurable(rng):
    """Smoke-check that batch insertion beats scalar insertion on 1000 vectors.

    The full measurement (with the ≥3× acceptance threshold) lives in
    ``benchmarks/bench_micro_pareto.py``; this test only guards against the
    vectorized path silently degrading to something slower than the scalar
    reference.
    """
    import timeit

    vectors = [
        (rng.random() * 100, rng.random() * 100, rng.random() * 100)
        for _ in range(1000)
    ]

    def scalar_run():
        frontier: ScalarParetoFrontier = ScalarParetoFrontier()
        for vector in vectors:
            frontier.insert(vector)
        return len(frontier)

    def batch_run():
        frontier: ParetoFrontier = ParetoFrontier()
        frontier.insert_all(vectors)
        return len(frontier)

    assert scalar_run() == batch_run()
    scalar_time = min(timeit.repeat(scalar_run, number=1, repeat=3))
    batch_time = min(timeit.repeat(batch_run, number=1, repeat=3))
    assert batch_time < scalar_time
