"""Pareto frontier containers and pruning.

Two pruning policies appear in the paper:

* Algorithm 2 (``Prune`` for hill climbing) keeps **one** non-dominated plan
  per output data representation — it only needs a single good plan.
* Algorithm 3 (``Prune`` for frontier approximation) keeps a set of plans
  such that no kept plan is *approximately* dominated (factor ``α``) by
  another kept plan — an α-approximate Pareto frontier whose size is bounded
  polynomially (Lemma 6).

:class:`ParetoFrontier` implements the second policy (with ``alpha = 1``
giving an exact frontier) over arbitrary items carrying a cost vector;
:func:`pareto_filter` is a convenience for one-shot filtering of cost-vector
collections.

Storage and comparisons are delegated to the NumPy kernel in
:mod:`repro.pareto.engine` (a :class:`~repro.pareto.engine.ParetoSet` keeps
the cost rows contiguous and answers dominance queries in batch); the
pure-Python implementation this replaces is preserved as
:class:`repro.pareto.reference.ScalarParetoFrontier` and property-tested to
agree.  ``insert_all`` with an exact frontier takes a fully vectorized batch
path whose result — kept items, order, and acceptance count — is identical
to sequential insertion.
"""

from __future__ import annotations

from typing import Callable, Generic, Iterable, Iterator, List, Sequence, Tuple, TypeVar

from repro.pareto.engine import ParetoSet

ItemT = TypeVar("ItemT")


def _identity(item):  # default cost extractor: items are the cost vectors
    return item


class ParetoFrontier(Generic[ItemT]):
    """A set of items kept mutually non-(α-)dominated by cost vector.

    Parameters
    ----------
    cost_of:
        Function extracting the cost vector from an item (identity for plain
        cost vectors, ``lambda plan: plan.cost`` for plans).
    alpha:
        Approximation factor used when deciding whether a *new* item is
        already covered by an existing one.  Existing items are only evicted
        by new items that dominate them exactly (factor one), mirroring
        Algorithm 3's pruning function.
    """

    def __init__(
        self,
        cost_of: Callable[[ItemT], Sequence[float]] = _identity,  # type: ignore[assignment]
        alpha: float = 1.0,
    ) -> None:
        if alpha < 1.0:
            raise ValueError(f"approximation factor must be at least 1, got {alpha}")
        self._cost_of = cost_of
        self._alpha = alpha
        self._items: List[ItemT] = []
        self._set = ParetoSet()

    # ------------------------------------------------------------ accessors
    @property
    def alpha(self) -> float:
        """Approximation factor used for insertion."""
        return self._alpha

    @alpha.setter
    def alpha(self, value: float) -> None:
        if value < 1.0:
            raise ValueError(f"approximation factor must be at least 1, got {value}")
        self._alpha = value

    def items(self) -> List[ItemT]:
        """The currently kept items (copy)."""
        return list(self._items)

    def costs(self) -> List[Tuple[float, ...]]:
        """Cost vectors of the currently kept items."""
        return [tuple(self._cost_of(item)) for item in self._items]

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[ItemT]:
        return iter(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    # -------------------------------------------------------------- updates
    def insert(self, item: ItemT) -> bool:
        """Insert ``item`` unless an existing item α-dominates it.

        When the item is inserted, existing items it (exactly) dominates are
        removed.  Returns True if the item was inserted.
        """
        accepted, evicted = self._set.insert(self._cost_of(item), alpha=self._alpha)
        if not accepted:
            return False
        if evicted:
            removed = set(evicted)
            self._items = [
                existing
                for index, existing in enumerate(self._items)
                if index not in removed
            ]
        self._items.append(item)
        return True

    def insert_all(self, items: Iterable[ItemT]) -> int:
        """Insert several items; returns how many were accepted.

        With an exact frontier (``alpha == 1``) the whole batch is processed
        by one vectorized kernel call; the kept items, their order, and the
        returned count are identical to inserting one by one.
        """
        batch = list(items)
        if not batch:
            return 0
        if self._alpha == 1.0 and len(batch) > 1:
            if self._cost_of is _identity:
                costs: Sequence[Sequence[float]] = batch  # type: ignore[assignment]
            else:
                costs = [self._cost_of(item) for item in batch]
            try:
                accepted, kept_indices, surviving = self._set.insert_batch(costs)
            except ValueError:
                # Ragged or mismatched cost vectors: replay sequentially so
                # the error surfaces exactly where scalar insertion raises it
                # (insert_batch does not mutate state before raising).
                return sum(1 for item in batch if self.insert(item))
            self._items = [
                item for item, kept in zip(self._items, surviving) if kept
            ] + [batch[index] for index in kept_indices]
            return accepted
        return sum(1 for item in batch if self.insert(item))

    def clear(self) -> None:
        """Remove all items."""
        self._items.clear()
        self._set.clear()

    # ------------------------------------------------------------- queries
    def covers(self, cost: Sequence[float], alpha: float | None = None) -> bool:
        """Return whether some kept item α-dominates the given cost vector."""
        factor = self._alpha if alpha is None else alpha
        return self._set.covers(cost, factor)

    def dominated_by_any(self, cost: Sequence[float]) -> bool:
        """Return whether some kept item strictly dominates the cost vector."""
        return self._set.strictly_dominates_any(cost)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ParetoFrontier(size={len(self._items)}, alpha={self._alpha})"


def pareto_filter(
    costs: Iterable[Sequence[float]], alpha: float = 1.0
) -> List[Tuple[float, ...]]:
    """Return a (α-approximate) Pareto-optimal subset of the given cost vectors.

    With ``alpha = 1`` the result contains one representative for every
    non-dominated cost value (duplicates are collapsed) and the whole input
    is filtered in one ``insert_all`` call — a single vectorized batch
    insertion.
    """
    frontier: ParetoFrontier[Tuple[float, ...]] = ParetoFrontier(alpha=alpha)
    frontier.insert_all([tuple(cost) for cost in costs])
    return frontier.items()
