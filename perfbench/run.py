"""Benchmark entry point: one workload, one seed, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload rmq-large --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` runs one untraced and one traced round in this process and
reports the per-layer metrics of the traced round and the tracing overhead
(``figure1-coord`` adds a traced in-process round for the layer split).  The last
line of standard output is the JSON result; the lines before it are a
human-readable report.  The exit code is 0 when every output matched its
pinned value, 1 on a mismatch, and 2 when the benchmark cannot run (a
``REPRO_*`` switch is set, or the package is not importable).

Workload records, the metric-to-layer map and the known defects are in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Each of these switches the code path being measured.
GUARDED_ENV = ("REPRO_PLAN_ENGINE", "REPRO_FRONTIER_STORE", "REPRO_DP_FABRIC", "REPRO_TRACE")


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def tail(samples):
    """Latency at the highest percentile with at least 10 samples beyond it.

    Returns ``(value, percentile, sample_count)``; with fewer than 11
    samples the maximum is returned.
    """
    ordered = sorted(samples)
    count = len(ordered)
    index = count - 11 if count > 10 else count - 1
    return ordered[index], 100.0 * (index + 1) / count, count


def at_reference(workload, result):
    """A round's step times, failed attempts and wall seconds at the reference speed.

    Steps of a pass are scaled each by the speed measured around it;
    a figure round's leaves ran in the workers and share the round's speed.
    """
    from workloads import REFERENCE_S, at_reference_speed

    every = [sample for samples in result.speed_samples for sample in samples]
    factor = REFERENCE_S / statistics.median(every)
    failed = [seconds * factor for seconds in result.failed_step_s]
    if workload.wall_from_rounds:
        steps = [[seconds * factor for seconds in leaf] for leaf in result.operation_steps]
    else:
        steps = [
            at_reference_speed(operation, samples)
            for operation, samples in zip(result.operation_steps, result.speed_samples)
        ]
    return steps, failed, result.wall_s * factor


def median_steps(rounds):
    """Each step of each operation at the median of its timings across rounds.

    ``rounds`` holds each round's per-operation step lists.  Every round
    (pass) runs the same deterministic steps, so step ``i`` of operation
    ``j`` is timed once per round.
    """
    typical = []
    for index in range(max(len(operations) for operations in rounds)):
        timings = [operations[index] for operations in rounds if index < len(operations)]
        length = max(len(steps) for steps in timings)
        typical.append([
            statistics.median(steps[i] for steps in timings if i < len(steps))
            for i in range(length)
        ])
    return typical


def end_to_end(workload, measurement):
    """The end-to-end metrics of a measurement, and report lines."""
    rounds = measurement.rounds
    scaled = [at_reference(workload, result) for result in rounds]
    typical = median_steps([s for s, _, _ in scaled])
    steps = [sample for operation in typical for sample in operation]
    planned = max(result.planned_steps for result in rounds)
    work = statistics.median(result.work for result in rounds)
    if workload.wall_from_rounds:
        # The figure's leaves run in parallel: the rounds' wall time.
        measured = wall = statistics.median(round_wall for _, _, round_wall in scaled)
    elif steps:
        # Steps that failed operations did not run are charged at the mean
        # step time: an operation that fails early must not look faster.
        measured = sum(steps)
        wall = measured * planned / len(steps)
    else:
        measured = wall = 0.0
    if not steps:
        # Every step raised: time the attempts instead, so that the run
        # still reports (``failed`` then equals ``attempted``).
        steps = [
            statistics.median(attempts) for attempts in zip(*(failed for _, failed, _ in scaled))
        ]
        wall = wall or sum(steps)
    if workload.tail_per_operation:
        # One query's heaviest steps are not the run's tail: each query's
        # own tail, and the median over the queries.
        tails = [tail(operation) for operation in typical if operation]
        value = statistics.median(t[0] for t in tails)
        percentile, count = tails[0][1], tails[0][2]
    else:
        value, percentile, count = tail(steps)
    metrics = {
        "wall_ref_s": (wall, "s"),
        "step_p50_ref_ms": (1000.0 * statistics.median(steps), "ms"),
        "step_tail_ref_ms": (1000.0 * value, "ms"),
        "peak_rss_mb": (statistics.median(measurement.peaks_mb), "MB"),
        "setup_s": (sum(min(unit) for unit in measurement.setups), "s"),
    }
    rate = work / measured if measured else 0.0
    speeds = [1000.0 * statistics.median(sum(r.speed_samples, [])) for r in rounds]
    notes = [
        f"{workload.rate_name} {rate:.6g} 1/s at the reference speed"
        f" (work {work:g} / {measured:.4f} s)",
        f"step_tail_ref_ms is p{percentile:.1f} of {count} steps"
        + (" per query, median over queries" if workload.tail_per_operation else ""),
        f"{len(rounds)} rounds, wall s as measured: "
        + ", ".join(f"{result.wall_s:.3f}" for result in rounds),
        "wall s at the reference speed per round: "
        + ", ".join(f"{round_wall:.3f}" for _, _, round_wall in scaled),
        "reference loop ms per round (median): " + ", ".join(f"{ms:.4f}" for ms in speeds),
        "peak RSS per process (MB): "
        + ", ".join(f"{peak:.1f}" for peak in measurement.peaks_mb),
    ]
    return metrics, notes


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def per_layer(recorder, traced_wall: float, untraced_wall: float, rows, inproc=None):
    """Per-layer metrics of one traced round.

    ``inproc`` is ``(recorder, wall)`` of an in-process run of the same work
    when the traced round ran its leaves in worker processes that the
    main process's wrappers cannot see (``figure1-coord``); the ``core``,
    ``cost``, ``plan_cache``, ``baselines`` and ``query`` numbers and the
    shares then come from it, and ``bench``/``dist`` from ``recorder``.
    """
    from tracing import ALGORITHM_KEYS

    layers, layer_wall = (recorder, traced_wall) if inproc is None else inproc
    metrics = {}

    def add(name, value, unit):
        metrics[name] = (float(value), unit)

    def span(prefix, name, per_call=None):
        aggregate = layers.get(name)
        add(f"{prefix}.calls", aggregate.calls, "count")
        add(f"{prefix}.self_s", aggregate.self_s, "s")
        if per_call is not None:
            mean = aggregate.items / aggregate.calls if aggregate.calls else 0.0
            add(f"{prefix}.{per_call}", mean, per_call.replace("_per_call", "/call"))

    add("query.generate.self_s", layers.get("query.generate").self_s, "s")
    span("core.random_plan", "core.random_plan")
    span("core.climb", "core.climb")
    climb = layers.get("core.climb")
    add("core.climb.path_length_mean", climb.items / climb.calls if climb.calls else 0.0, "moves")
    span("cost.cost_specs", "cost.cost_specs", "specs_per_call")
    span("core.approximate", "core.approximate")
    span("cost.join_candidates", "cost.join_candidates", "candidates_per_call")
    span("cost.describe_cross", "cost.describe_cross")
    span("plan_cache.insert_candidates", "plan_cache.insert_candidates", "candidates_per_call")
    add("plan_cache.rows_final", _mean(rows), "rows")
    span("cost.join_candidates_multi", "cost.join_candidates_multi", "candidates_per_call")
    add("baselines.dp.step.self_s", layers.get("baselines.dp.step").self_s, "s")
    for key in ALGORITHM_KEYS.values():
        add(f"baselines.{key}.s", layers.get(f"baselines.{key}").total_s, "s")
    add("bench.schedule.self_s", recorder.get("bench.schedule").self_s, "s")
    add("bench.reduce.self_s", recorder.get("bench.reduce").self_s, "s")
    add("dist.leases", recorder.leases, "count")
    roundtrips = recorder.lease_roundtrips
    roundtrip_ms = 1000.0 * statistics.median(roundtrips) if roundtrips else 0.0
    add("dist.lease_roundtrip_p50_ms", roundtrip_ms, "ms")
    add("dist.lease_wait_s", recorder.lease_wait_s, "s")
    add("dist.failed_leases", recorder.failed_leases, "count")
    dp_total = layers.get("baselines.dp.step").total_s
    if inproc is not None:
        dp_keys = ("dp-2", "dp-1000", "dp-inf")
        dp_total = sum(layers.get(f"baselines.{key}").total_s for key in dp_keys)
    add("share.core.climb", layers.get("core.climb").total_s / layer_wall, "share")
    add("share.baselines.dp", dp_total / layer_wall, "share")
    add("trace.wall_s", traced_wall, "s")
    add("trace.untraced_wall_s", untraced_wall, "s")
    add("trace.overhead_s", traced_wall - untraced_wall, "s")
    return metrics


def one_round(workload, input_seed: int):
    """One round of the workload in this process, where wrappers see it."""
    if not hasattr(workload, "single_pass"):
        gc.collect()
        spec = workload.setup(input_seed)
        try:
            return workload.run(spec)
        finally:
            workload.teardown(spec)
    gc.collect()
    return workload.single_pass(input_seed)


def traced(workload, input_seed: int):
    """One untraced round, then the same round traced.

    Returns ``(metrics, rounds)``.
    """
    import tracing
    from workloads import figure1_spec

    untraced_round = one_round(workload, input_seed)
    recorder = tracing.Recorder()
    with tracing.install(recorder):
        traced_round = one_round(workload, input_seed)
    rounds = [untraced_round, traced_round]
    inproc = None
    rows = traced_round.rows_final or untraced_round.rows_final
    if workload.name == "figure1-coord":
        layers = tracing.Recorder()
        gc.collect()
        with tracing.install(layers):
            rounds.append(workload.run_in_process(figure1_spec(input_seed)))
        inproc = (layers, rounds[-1].wall_s)
    for target in recorder.missing:
        print(f"  UNTRACED {target}: not defined by this version of the package")
    metrics = per_layer(recorder, traced_round.wall_s, untraced_round.wall_s, rows, inproc)
    return metrics, rounds


def main(argv=None) -> int:
    args = _parse(argv)
    switched = [name for name in GUARDED_ENV if os.environ.get(name)]
    if switched:
        _fail(f"refusing to run with {', '.join(switched)} set: it switches the measured code path")
    if args.seconds <= 0:
        _fail("--seconds must be positive")
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        _fail(f"no package at {os.path.relpath(source)}/repro; run from the repository root")
    sys.path.insert(0, source)
    sys.path.insert(0, HERE)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]()
    input_seed = args.seed % workloads.PIN_POOL
    pins = workloads.load_pins(os.path.join(HERE, "pins", f"{args.workload}.json"))

    if args.trace:
        metrics, rounds = traced(workload, input_seed)
        notes = []
    else:
        measurement = workload.measure(input_seed, args.seconds)
        rounds = measurement.rounds
        metrics, notes = end_to_end(workload, measurement)

    outcome = workloads.check(args.workload, input_seed, rounds, pins[str(input_seed)])
    failed_share = outcome.failed / outcome.attempted
    print(
        f"workload {args.workload}  seed {args.seed} (input case {input_seed})"
        f"  rounds {len(rounds)}  trace {args.trace}"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    for note in notes:
        print(f"  {note}")
    print(
        f"  failed_share {failed_share:.4f} share"
        f" ({outcome.failed} of {outcome.attempted} operations)"
    )
    for line in outcome.errors:
        print(f"  FAILED {line}")
    for line in outcome.mismatches:
        print(f"  MISMATCH {line}")
    for line in outcome.unpinned:
        print(f"  UNPINNED {line}")
    correct = not outcome.mismatches
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
