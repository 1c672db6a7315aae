"""The three benchmark workloads.

Each workload turns an input seed into a fixed, deterministic amount of work
(a *pass*, or a *round* for ``figure1-coord``) and runs it through the
library's public API in a closed loop: a process issues the next call only
after the previous one returned.

``rmq-large`` and ``dp-reference`` run their pass in 2 spawned worker
processes at once, one per core of the machine the benchmark was sized
for, and each worker repeats the pass until the run's time is up, so that
every step is timed several times, on both cores and at different moments.
``figure1-coord`` repeats cold rounds of the figure through the lease
coordinator, whose 2 worker processes are the pool.

The cores of that machine switch between two speeds about 1.8 times apart,
for a fraction of a second to minutes at a time.  Between steps, a pass
therefore times :func:`reference_loop`, a fixed piece of code that uses
nothing from the package, and :mod:`run` scales each step to the time it
would have taken at the loop's reference speed (``REFERENCE_S``).

A pass returns a :class:`Round`: the latency of every completed step of
every operation, the work done, and one *output* per operation — the
frontier fingerprint of an optimization run, the cell digest of a figure
cell, or ``error:<type>`` when the operation raised.  :func:`check` compares
outputs with the values pinned in ``pins/<workload>.json``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import multiprocessing
import os
import random
import resource
import statistics
import threading
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import resource_tracker
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Tuple

import numpy as np
from repro.baselines.dp import make_dp_optimizer
from repro.bench import runner
from repro.bench.figures import STEP_FIGURE_SPECS
from repro.bench.scenario import ScenarioScale
from repro.bench.tasks import clear_reference_memo
from repro.core.frontier import AlphaSchedule
from repro.core.rmq import RMQOptimizer
from repro.cost.model import MultiObjectiveCostModel
from repro.dist.worker import run_coordinated, shared_process_pool, shutdown_shared_pool
from repro.query.generator import QueryGenerator
from repro.query.join_graph import GraphShape
from repro.regress.fingerprint import float_hex, frontier_fingerprint
from repro.utils.rng import derive_rng

#: Inputs repeat with period ``PIN_POOL`` in the seed: seed ``s`` runs input
#: case ``s % PIN_POOL``, whose outputs are pinned in ``pins/``.
PIN_POOL = 32

#: Worker processes of every workload: one per core of the 2-core machine
#: the benchmark was sized on.
WORKERS = 2

#: Pause before each timed set-up.  On the 2-vCPU virtual machine the
#: benchmark was sized on, a core's speed switches between two states about
#: 1.8 times apart, for periods of a fraction of a second to minutes; the
#: pause spreads the set-ups over more of those periods, so
#: that the fastest of them is steady from run to run.
SETUP_PAUSE_S = 0.05

#: Seconds :func:`reference_loop` takes on the machine the benchmark was
#: sized on, in its fast state.  Step times are scaled by
#: ``REFERENCE_S / (the loop's seconds around the step)``: the time the
#: step would have taken at that reference speed.
REFERENCE_S = 0.0004

#: Reference-loop samples on each side of a step that its speed is taken
#: from (the median of them).
SPEED_WINDOW = 2

_REFERENCE_ARRAY = np.arange(512, dtype=np.float64)


def reference_loop() -> int:
    """A fixed mix of interpreter work and small NumPy calls.

    It uses nothing from the package, so a change to the program does not
    change its time; only the speed of the core it runs on does.
    """
    table: Dict[int, int] = {}
    total = 0
    for i in range(600):
        key = (i * 7919) % 509
        table[key] = table.get(key, 0) + i
        total += len(str(key))
    ordered = sorted(table.items(), key=lambda item: item[1])
    values = _REFERENCE_ARRAY
    for _ in range(12):
        values = np.sqrt(values * 1.0001 + 1.0)
        order = values.argsort()
    return total + len(ordered) + int(order[0])


def speed_sample(clock=time.perf_counter) -> float:
    """Seconds of one :func:`reference_loop` by ``clock``."""
    start = clock()
    reference_loop()
    return clock() - start


def at_reference_speed(steps: List[float], samples: List[float]) -> List[float]:
    """Scale each step to the reference speed.

    ``samples[i]`` was taken just before step ``i`` and ``samples[i + 1]``
    just after it; a step's speed is the median of the samples within
    ``SPEED_WINDOW`` steps of it.
    """
    scaled = []
    for index, seconds in enumerate(steps):
        window = samples[max(0, index - SPEED_WINDOW) : index + SPEED_WINDOW + 2]
        scaled.append(seconds * REFERENCE_S / statistics.median(window))
    return scaled


@dataclass
class Operation:
    """One optimization run, or one figure cell, of a pass."""

    key: str
    output: str = ""
    error: str = ""


@dataclass
class Round:
    """What one pass (or figure round) did and produced."""

    #: Wall seconds of the pass, as measured.
    wall_s: float = 0.0
    #: The latencies of each operation's completed steps, operation by
    #: operation in a fixed order (figure1: one leaf per entry).
    operation_steps: List[List[float]] = field(default_factory=list)
    #: :func:`speed_sample` seconds taken between the steps, per operation
    #: (one before its first step and one after each step).
    speed_samples: List[List[float]] = field(default_factory=list)
    #: Seconds until a step raised, for each operation that raised.
    failed_step_s: List[float] = field(default_factory=list)
    #: Steps the pass would have run had no operation raised.
    planned_steps: int = 0
    work: float = 0.0
    operations: List[Operation] = field(default_factory=list)
    #: Final full-query frontier size per completed operation.
    rows_final: List[int] = field(default_factory=list)
    #: Leaves per figure cell: a mismatched cell fails this many operations.
    ops_per_output: int = 1
    #: Why the whole round failed, when it produced no outputs at all.
    error: str = ""


@dataclass
class Measurement:
    """Every pass or round of a run, with its set-up times and peak memory."""

    rounds: List[Round]
    #: Seconds of each timed build, per set-up unit (an operation, or the
    #: whole set-up of a figure round); ``setup_s`` sums the fastest of each.
    setups: List[List[float]]
    #: Peak RSS of each process that ran the work, in MB.
    peaks_mb: List[float]


def _describe(exc: Exception) -> str:
    """Type, message and innermost frame of an operation's exception."""
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    where = "/".join(frame.filename.split(os.sep)[-2:])
    return f"{type(exc).__name__}: {exc} ({where}:{frame.lineno} in {frame.name})"


def _fingerprint(result: Round, frontiers: list) -> None:
    """Fill the outputs of completed operations (outside the timed region)."""
    for operation, frontier in zip(result.operations, frontiers):
        if frontier is not None:
            operation.output = frontier_fingerprint(frontier)
            result.rows_final.append(len(frontier))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed_pause() -> None:
    gc.collect()
    time.sleep(SETUP_PAUSE_S)


class _Repeated:
    """A workload whose pass is repeated in :data:`WORKERS` processes at once.

    Subclasses define ``queries``, ``build(seed, index)`` (one operation's
    query, cost model and optimizer) and ``run_pass(operations)``.
    """

    #: Passes each worker runs at least, whatever ``--seconds`` says.
    min_passes = 1
    #: Timed builds of each operation before every pass; the last one is run.
    setup_repeats = 3
    wall_from_rounds = False
    tail_per_operation = False

    def single_pass(self, seed: int) -> Round:
        """One pass in this process (the traced run and ``pin.py``)."""
        return self.run_pass([self.build(seed, index) for index in range(self.queries)])

    def measure(self, seed: int, seconds: float) -> Measurement:
        """Both workers' passes, their set-up times and their peak memory."""
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(WORKERS, mp_context=context, max_tasks_per_child=1) as pool:
            futures = [
                pool.submit(_worker_passes, self.name, seed, seconds)
                for _ in range(WORKERS)
            ]
            parts = [future.result() for future in futures]
        # Spawning started multiprocessing's resource tracker; stop it and
        # wait for it, once the pool's semaphores are collected.
        gc.collect()
        resource_tracker._resource_tracker._stop()
        rounds = [part for passes, _, _ in parts for part in passes]
        setups = [sum(per_op, []) for per_op in zip(*(setups for _, setups, _ in parts))]
        return Measurement(rounds, setups, [peak for _, _, peak in parts])


def _worker_passes(name: str, seed: int, seconds: float):
    """Passes of a repeated workload in this (fresh) worker process.

    Before each pass every operation is built ``setup_repeats`` times, each
    build timed after a pause; the last build is the one run.  Passes go on
    until the next one would end after ``seconds`` (and at least
    ``min_passes``).  Returns the passes, the
    build seconds per operation and the process's peak RSS in MB.
    """
    workload = WORKLOADS[name]()
    setups: List[List[float]] = [[] for _ in range(workload.queries)]
    passes: List[Round] = []
    deadline = time.perf_counter() + seconds
    while True:
        operations = []
        for index in range(workload.queries):
            for _ in range(workload.setup_repeats):
                operation = None  # free the previous build before timing the next
                _timed_pause()
                start = time.perf_counter()
                operation = workload.build(seed, index)
                setups[index].append(time.perf_counter() - start)
            operations.append(operation)
            operation = None
        gc.collect()
        passes.append(workload.run_pass(operations))
        del operations
        if len(passes) >= workload.min_passes and time.perf_counter() + passes[-1].wall_s > deadline:
            break
    return passes, setups, _peak_rss_mb()


# --------------------------------------------------------------------- RMQ
@dataclass
class _RMQRun:
    key: str
    optimizer: RMQOptimizer


def _rmq_pass(runs: List[_RMQRun], iterations: int) -> Round:
    """Step every optimizer ``iterations`` times, one query after another.

    An operation that raises is recorded with its type, message and
    iteration, and the pass continues with the next query.  A finished
    operation's optimizer is freed before the next one starts, so the peak
    memory is that of the largest operation, and an early failure does not
    lower it.
    """
    result = Round(planned_steps=iterations * len(runs))
    clock = time.perf_counter
    frontiers = []
    pass_start = clock()
    for run in runs:
        operation = Operation(run.key)
        optimizer, run.optimizer = run.optimizer, None
        steps: List[float] = []
        samples = [speed_sample()]
        result.operation_steps.append(steps)
        result.speed_samples.append(samples)
        try:
            for _ in range(iterations):
                start = clock()
                optimizer.step()
                steps.append(clock() - start)
                samples.append(speed_sample())
            frontiers.append(optimizer.frontier())
        except Exception as exc:  # recorded per operation; the pass goes on
            result.failed_step_s.append(clock() - start)
            operation.error = f"iteration {len(steps) + 1}: {_describe(exc)}"
            operation.output = f"error:{type(exc).__name__}"
            frontiers.append(None)
        del optimizer
        result.work += len(steps)
        result.operations.append(operation)
    result.wall_s = clock() - pass_start
    _fingerprint(result, frontiers)
    return result


class RMQLarge(_Repeated):
    """RMQ with the paper's α schedule on 100-table chain, cycle and star queries."""

    name = "rmq-large"
    tables = 100
    # 3 × 34 steps per pass: the tail (10 samples beyond it) is p90.2.
    iterations = 34
    shapes = (GraphShape.CHAIN, GraphShape.CYCLE, GraphShape.STAR)
    queries = len(shapes)
    # One pass per worker: more builds, so that the fastest is steady.
    setup_repeats = 8
    rate_name = "rmq.iterations_per_s"

    def build(self, seed: int, index: int) -> _RMQRun:
        shape = self.shapes[index]
        query = QueryGenerator(rng=random.Random(seed)).generate(self.tables, shape)
        optimizer = RMQOptimizer(
            MultiObjectiveCostModel(query),
            rng=random.Random(seed),
            schedule=AlphaSchedule.paper(),
        )
        return _RMQRun(f"{shape.value}-{self.tables}", optimizer)

    def run_pass(self, operations: List[_RMQRun]) -> Round:
        return _rmq_pass(operations, self.iterations)


# ---------------------------------------------------------------------- DP
class DPReference(_Repeated):
    """DP(2), sequential arena backend, on 7-table chains run to completion."""

    name = "dp-reference"
    tables = 7
    queries = 12
    alpha = 2.0
    rate_name = "dp.plans_per_s"
    tail_per_operation = True
    # Every DP step is timed at least 4 times (2 workers × 2 passes).
    min_passes = 2

    def build(self, seed: int, index: int) -> Tuple[str, object]:
        generator = QueryGenerator(rng=derive_rng(seed, self.name, "query", index))
        query = generator.generate(self.tables, GraphShape.CHAIN)
        optimizer = make_dp_optimizer(
            MultiObjectiveCostModel(query), alpha=self.alpha, backend="sequential"
        )
        return f"chain-{self.tables}-{index}", optimizer

    def run_pass(self, operations: List[Tuple[str, object]]) -> Round:
        result = Round()
        clock = time.perf_counter
        frontiers = []
        pass_start = clock()
        while operations:
            key, optimizer = operations.pop(0)
            operation = Operation(key)
            steps: List[float] = []
            samples = [speed_sample()]
            result.operation_steps.append(steps)
            result.speed_samples.append(samples)
            try:
                while not optimizer.finished:
                    start = clock()
                    optimizer.step()
                    steps.append(clock() - start)
                    samples.append(speed_sample())
                frontiers.append(optimizer.frontier())
            except Exception as exc:  # recorded per operation; the pass goes on
                result.failed_step_s.append(clock() - start)
                operation.error = _describe(exc)
                operation.output = f"error:{type(exc).__name__}"
                frontiers.append(None)
            result.work += optimizer.statistics.plans_built
            del optimizer
            result.operations.append(operation)
        result.wall_s = clock() - pass_start
        result.planned_steps = sum(len(steps) for steps in result.operation_steps)
        _fingerprint(result, frontiers)
        return result


# ------------------------------------------------------------ figure1-coord
def cell_key(cell) -> str:
    return f"{cell.shape}:{cell.num_tables}:{cell.algorithm}"


def cell_digest(cell) -> str:
    """Exact digest of one figure cell (float bit patterns, not reprs)."""
    payload = [
        cell_key(cell),
        [float_hex(value) for value in cell.checkpoints],
        [float_hex(value) for value in cell.median_errors],
        [float_hex(value) for value in cell.median_frontier_sizes],
    ]
    encoded = json.dumps(payload, separators=(",", ":")).encode("ascii")
    return hashlib.sha256(encoded).hexdigest()[:16]


def figure1_spec(seed: int):
    spec = STEP_FIGURE_SPECS["figure1"](ScenarioScale.SMOKE)
    return replace(spec, seed=seed)


def _noop() -> int:
    return 0


class _SpeedSampler:
    """Reference-loop samples taken every 50 ms in a thread of this process.

    While a figure round runs, its leaves run in the worker processes,
    out of reach of the benchmark; the thread samples the speed of the
    cores meanwhile.  Each sample is timed in the thread's own CPU time, so
    that waiting for a core the workers hold does not count.
    """

    interval_s = 0.05

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        while True:
            self.samples.append(speed_sample(time.thread_time))
            if self._stop.wait(self.interval_s):
                return

    def __enter__(self) -> "_SpeedSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()


class Figure1Coord:
    """Step-driven figure1 at smoke scale through the lease coordinator.

    The round is the coordinator path of ``run_scenario(backend=
    "coordinator", workers=2)`` unrolled into its two public calls,
    ``run_coordinated`` and ``reduce_task_results``, so that the leaf
    results (and their per-leaf seconds) stay visible.  Every run starts
    cold: a fresh worker pool, an empty reference memo, no task cache.
    """

    name = "figure1-coord"
    rate_name = "leaves_per_s"
    #: ``wall_ref_s`` is the rounds' own (median) wall time: the leaves run
    #: in parallel, so the sum of their steps is not the figure's time.
    wall_from_rounds = True
    tail_per_operation = False
    #: Set-ups timed before the first round, and again after the last.
    #: (Between rounds the driver process is larger, and starting the pool
    #: forks it more slowly.)
    setups = 15

    def setup(self, seed: int):
        spec = figure1_spec(seed)
        clear_reference_memo()
        shutdown_shared_pool()
        pool = shared_process_pool(WORKERS)
        # Start both workers now, so that the round does not pay for it.
        for future in [pool.submit(_noop) for _ in range(WORKERS)]:
            future.result()
        return spec

    def timed_setup(self, seed: int) -> float:
        _timed_pause()
        start = time.perf_counter()
        self.setup(seed)
        seconds = time.perf_counter() - start
        shutdown_shared_pool()
        return seconds

    def run(self, spec) -> Round:
        result = Round(ops_per_output=spec.num_test_cases)
        sampler = _SpeedSampler()
        start = time.perf_counter()
        try:
            with sampler:
                coordinator = run_coordinated(spec, workers=WORKERS)
                results = coordinator.results()
                cells = runner.reduce_task_results(spec, results)
        except Exception as exc:  # the whole figure failed: no cell is produced
            result.wall_s = time.perf_counter() - start
            result.failed_step_s.append(result.wall_s)
            result.speed_samples = [sampler.samples]
            result.error = _describe(exc)
            return result
        result.wall_s = time.perf_counter() - start
        leaves = sorted(results, key=lambda leaf: leaf.task.task_id)
        # The leaves ran in the workers: one speed, the round's, for all.
        result.speed_samples = [sampler.samples]
        result.operation_steps = [[leaf.elapsed] for leaf in leaves]
        result.planned_steps = result.work = len(leaves)
        for cell in cells:
            result.operations.append(Operation(cell_key(cell), output=cell_digest(cell)))
        result.rows_final = [len(leaf.records[-1].frontier_costs) for leaf in leaves]
        return result

    def measure(self, seed: int, seconds: float) -> Measurement:
        """Rounds until the next one would end after ``seconds``.

        The rounds share one pool, started cold for the run: fresh worker
        processes touch new memory, and on a loaded host each page they
        touch first is slow to come, so that a round in a fresh pool
        measured the host's memory more than the program.  No leaf of the
        figure is memoized, so every round does the same work.

        Set-ups are timed before the first round and after the last, so
        that they sample the machine's speed at both ends of the run.
        """
        setups = [self.timed_setup(seed) for _ in range(self.setups)]
        rounds = []
        deadline = time.perf_counter() + seconds
        spec = self.setup(seed)
        try:
            while True:
                gc.collect()
                clear_reference_memo()
                rounds.append(self.run(spec))
                if time.perf_counter() + rounds[-1].wall_s > deadline:
                    break
        finally:
            shutdown_shared_pool()
        setups += [self.timed_setup(seed) for _ in range(self.setups)]
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return Measurement(rounds, [setups], [max(own, children) / 1024.0])

    def run_in_process(self, spec) -> Round:
        """The same figure run sequentially in this process.

        Its cell digests are the pinned values the coordinator must match,
        and the traced run takes its layer split from it.
        """
        clear_reference_memo()
        result = Round(ops_per_output=spec.num_test_cases)
        start = time.perf_counter()
        scenario = runner.run_scenario(spec, workers=1, backend="local")
        result.wall_s = time.perf_counter() - start
        for cell in scenario.cells:
            result.operations.append(Operation(cell_key(cell), output=cell_digest(cell)))
        return result

    def teardown(self, state) -> None:
        shutdown_shared_pool()


WORKLOADS: Dict[str, Callable[[], object]] = {
    "rmq-large": RMQLarge,
    "dp-reference": DPReference,
    "figure1-coord": Figure1Coord,
}


# ------------------------------------------------------------- correctness
def load_pins(path: str) -> Dict[str, Dict[str, str]]:
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if data.get("pool") != PIN_POOL or len(data.get("seeds", ())) != PIN_POOL:
        raise ValueError(f"{path}: does not pin all {PIN_POOL} input cases")
    return data["seeds"]


@dataclass
class Check:
    attempted: int = 0
    failed: int = 0
    mismatches: List[str] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    unpinned: List[str] = field(default_factory=list)


def check(workload: str, input_seed: int, rounds: List[Round], pinned: Dict[str, str]) -> Check:
    """Count attempted and failed operations; compare outputs with the pins.

    An operation fails when it raised or when its output differs from the
    pinned one, and either is a mismatch.  The one exception is a known
    defect: an operation that raises the error type its pin records fails
    without being a mismatch.  An operation that completes where the pin
    recorded an error (the defect was fixed) has nothing to be compared
    with; it is listed as unpinned.  A pinned output that a pass did not
    produce, and an output with no pin, are mismatches.
    """
    outcome = Check()
    for round_index, result in enumerate(rounds):
        at = f"{workload} seed={input_seed} pass={round_index}"
        if result.error:
            outcome.errors.append(f"{at}: {result.error}")
        produced = {operation.key for operation in result.operations}
        for key in sorted(set(pinned) - produced):
            outcome.attempted += result.ops_per_output
            outcome.failed += result.ops_per_output
            outcome.mismatches.append(f"{at} {key}: not produced")
        for operation in result.operations:
            size = result.ops_per_output
            outcome.attempted += size
            where = f"{at} {operation.key}"
            expected = pinned.get(operation.key)
            if operation.error:
                outcome.failed += size
                outcome.errors.append(f"{where}: {operation.error}")
                if operation.output != expected:
                    outcome.mismatches.append(
                        f"{where}: raised ({operation.output}), pinned {expected}"
                    )
                continue
            if expected is None:
                outcome.failed += size
                outcome.mismatches.append(f"{where}: output {operation.output} has no pin")
                continue
            if expected.startswith("error:"):
                outcome.unpinned.append(f"{where}: {operation.output} (pinned {expected})")
                continue
            if operation.output != expected:
                outcome.failed += size
                outcome.mismatches.append(
                    f"{where}: output {operation.output} != pinned {expected}"
                )
    return outcome
