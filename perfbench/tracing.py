"""Span recorder and the class-level timing wrappers of the traced run.

Nothing in ``src/`` is instrumented for the benchmark.  A traced run calls
:func:`install`, which replaces each layer's public entry points (methods
at class level, module functions at every import site) with wrappers that
record one span per call, and removes them again on exit.  Untraced runs
never install anything, so their timings carry no wrapper cost.

Self time is a span's duration minus the durations of its direct child
spans; spans nest per thread, so the coordinator's worker threads keep
separate stacks.
"""

from __future__ import annotations

import contextlib
import importlib
import threading
import time
from typing import Callable, Dict, Iterator, List, Tuple

#: Report names of the figure algorithms (``baselines.<alg>.s``).
ALGORITHM_KEYS = {
    "RMQ": "rmq",
    "II": "ii",
    "2P": "2p",
    "SA": "sa",
    "NSGA-II": "nsga-ii",
    "DP(2)": "dp-2",
    "DP(1000)": "dp-1000",
    "DP(Infinity)": "dp-inf",
}


class _Aggregate:
    __slots__ = ("calls", "total_s", "self_s", "items")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.items = 0


class Recorder:
    """Per-name span aggregates (calls, inclusive and self seconds, items).

    ``items`` is a per-span work count supplied by the wrapper: specs per
    ``cost_specs`` call, candidates per kernel or insert call, climb path
    length per climb.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.spans: Dict[str, _Aggregate] = {}
        #: Coordinator lease bookkeeping (grant instants and round trips).
        self.lease_grants: Dict[str, float] = {}
        self.lease_roundtrips: List[float] = []
        self.lease_wait_s = 0.0
        self.leases = 0
        self.failed_leases = 0
        #: Wrap targets that this version of the package does not define.
        self.missing: List[str] = []

    def _stack(self) -> List[List[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, function: Callable, args, kwargs, count=None):
        """Run ``function`` inside a span named ``name``."""
        stack = self._stack()
        frame = [0.0]  # accumulated child time
        stack.append(frame)
        start = time.perf_counter()
        try:
            result = function(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][0] += duration
        items = count(args, kwargs, result) if count is not None else 0
        with self._lock:
            aggregate = self.spans.get(name)
            if aggregate is None:
                aggregate = self.spans[name] = _Aggregate()
            aggregate.calls += 1
            aggregate.total_s += duration
            aggregate.self_s += duration - frame[0]
            aggregate.items += items
        return result

    def get(self, name: str) -> _Aggregate:
        return self.spans.get(name, _Aggregate())


def _len_arg(position: int):
    def count(args, kwargs, result) -> int:
        value = args[position]
        return len(value) if hasattr(value, "__len__") else 0

    return count


def _batch_size(args, kwargs, result) -> int:
    return int(result.size)


def _batches_size(args, kwargs, result) -> int:
    return sum(int(batch.size) for batch in result)


def _insert_size(args, kwargs, result) -> int:
    batch = args[2] if len(args) > 2 else kwargs["batch"]
    return int(batch.size)


def _path_length(args, kwargs, result) -> int:
    return int(result.path_length)


def _method_wrapper(recorder: Recorder, name: str, original: Callable, count=None):
    def wrapper(*args, **kwargs):
        return recorder.call(name, original, args, kwargs, count)

    wrapper.__wrapped__ = original
    return wrapper


def _execute_task_wrapper(recorder: Recorder, original: Callable):
    def execute_task(spec, task, *args, **kwargs):
        key = ALGORITHM_KEYS.get(task.algorithm, task.algorithm.lower())
        return recorder.call(
            f"baselines.{key}", original, (spec, task) + args, kwargs
        )

    execute_task.__wrapped__ = original
    return execute_task


def _lease_wrappers(recorder: Recorder, coordinator_cls) -> Dict[str, Callable]:
    """Wrappers of the Coordinator's lease lifecycle (threads of the main process)."""
    request_lease = coordinator_cls.request_lease
    complete_lease = coordinator_cls.complete_lease
    wait_for_work = coordinator_cls.wait_for_work
    fail_lease = coordinator_cls.fail_lease

    def wrapped_request(self, worker_id):
        start = time.perf_counter()
        lease = request_lease(self, worker_id)
        now = time.perf_counter()
        with recorder._lock:
            if lease is None:
                recorder.lease_wait_s += now - start
            else:
                recorder.leases += 1
                recorder.lease_grants[lease.lease_id] = now
        return lease

    def wrapped_complete(self, lease_id, results):
        now = time.perf_counter()
        with recorder._lock:
            granted = recorder.lease_grants.pop(lease_id, None)
            if granted is not None:
                recorder.lease_roundtrips.append(now - granted)
        return complete_lease(self, lease_id, results)

    def wrapped_wait(self, timeout):
        start = time.perf_counter()
        try:
            return wait_for_work(self, timeout)
        finally:
            with recorder._lock:
                recorder.lease_wait_s += time.perf_counter() - start

    def wrapped_fail(self, lease_id):
        with recorder._lock:
            recorder.failed_leases += 1
            recorder.lease_grants.pop(lease_id, None)
        return fail_lease(self, lease_id)

    return {
        "request_lease": wrapped_request,
        "complete_lease": wrapped_complete,
        "wait_for_work": wrapped_wait,
        "fail_lease": wrapped_fail,
    }


_QUERY = ("repro.query.generator", "QueryGenerator")
_GENERATOR = ("repro.core.random_plans", "ArenaRandomPlanGenerator")
_CLIMBER = ("repro.core.pareto_climb", "ArenaParetoClimber")
_APPROXIMATOR = ("repro.core.frontier", "ArenaFrontierApproximator")
_CACHE = ("repro.core.plan_cache", "ArenaPlanCache")
_BATCH = ("repro.cost.batch", "BatchCostModel")
_DP = ("repro.baselines.dp", "ArenaDPOptimizer")

#: ``((module, class), attribute, span name, item counter)`` of every wrapped
#: method, on the classes of the default (arena) plan engine.
TARGETS = [
    (_QUERY, "generate", "query.generate", None),
    (_GENERATOR, "random_bushy_plan", "core.random_plan", None),
    (_GENERATOR, "random_left_deep_plan", "core.random_plan", None),
    (_CLIMBER, "climb", "core.climb", _path_length),
    (_BATCH, "cost_specs", "cost.cost_specs", _len_arg(1)),
    (_APPROXIMATOR, "approximate", "core.approximate", None),
    (_BATCH, "join_candidates", "cost.join_candidates", _batch_size),
    # Private: the cross-product description inside both kernels.
    (_BATCH, "_describe_cross", "cost.describe_cross", None),
    (_BATCH, "join_candidates_multi", "cost.join_candidates_multi", _batches_size),
    (_CACHE, "insert_candidates", "plan_cache.insert_candidates", _insert_size),
    (_DP, "step", "baselines.dp.step", None),
]


@contextlib.contextmanager
def install(recorder: Recorder) -> Iterator[Recorder]:
    """Wrap every layer boundary for the duration of the block."""
    import repro.bench.runner as runner
    import repro.bench.tasks as tasks
    import repro.dist.coordinator as coordinator

    saved: List[Tuple[object, str, object]] = []

    def patch(owner, attribute: str, replacement) -> None:
        saved.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    try:
        for (module_name, class_name), attribute, name, count in TARGETS:
            owner = getattr(importlib.import_module(module_name), class_name, None)
            if owner is None or attribute not in owner.__dict__:
                recorder.missing.append(f"{module_name}.{class_name}.{attribute}")
                continue
            original = owner.__dict__[attribute]
            patch(owner, attribute, _method_wrapper(recorder, name, original, count))
        patch(tasks, "execute_task", _execute_task_wrapper(recorder, tasks.execute_task))
        schedule = _method_wrapper(recorder, "bench.schedule", tasks.schedule_tasks)
        for module in (tasks, runner, coordinator):
            if "schedule_tasks" in module.__dict__:
                patch(module, "schedule_tasks", schedule)
        patch(
            runner,
            "reduce_task_results",
            _method_wrapper(recorder, "bench.reduce", runner.reduce_task_results),
        )
        for attribute, wrapper in _lease_wrappers(
            recorder, coordinator.Coordinator
        ).items():
            patch(coordinator.Coordinator, attribute, wrapper)
        yield recorder
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)
