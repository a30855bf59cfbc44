"""The four benchmark workloads, from spec document to verified digest.

Each workload builds its spec documents from the workload seed, measures
its set-up, runs a closed loop of operations for the requested seconds
and checks every output against the digests and CD1-CD7 verdicts pinned
in ``pins.json``.  With tracing on, the same loop alternates untraced
operations with traced ones, whose spans around the public calls of each
layer give the per-layer table.

All delivery is simulated (``ConstantLatency(1.0)`` in virtual time), so
every wall-clock latency here is processor time, not network time.
"""

from __future__ import annotations

import random
import shutil
import statistics
import tempfile
import threading
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator, Optional

from repro.api import (
    ExperimentSession,
    ExperimentSpec,
    FailureSpec,
    SweepSpec,
    TopologySpec,
    churn_scenario_spec,
    clear_topology_cache,
    load_spec,
    quickstart_spec,
    topology_cache_info,
)
from repro.churn.runner import run_churn, run_churn_asyncio
from repro.core.properties import extract_decisions
from repro.experiments.runner import RunResult, build_simulator
from repro.experiments.scenarios import torus_block_members
from repro.service import ServiceClient, execute_document, serve
from repro.sim.partition import measure_worker_payloads, partition_graph, run_partitioned
from repro.trace import collect_metrics

from harness import (
    CountingFaults,
    HandlerClock,
    Outcome,
    Tracer,
    failed_properties,
    import_seconds,
    peak_rss_mb,
    properties_of_violations,
    tail_percentile,
    timed_node_factory,
)

#: single-large: a SIDE x SIDE torus with BLOCKS_PER_SHARD crashed
#: BLOCK x BLOCK squares inside each of the SHARDS shards that
#: partition_graph itself draws, so the partitioned run has work in
#: every shard.  MARGIN keeps each block's border inside its shard.
SIDE = 64
BLOCK = 3
SHARDS = 2
BLOCKS_PER_SHARD = 2
MARGIN = 4
TOPOLOGY = TopologySpec("torus", {"width": SIDE, "height": SIDE})

#: sweep-churn-faults draws SWEEP_SEEDS run seeds from range(SWEEP_SEED_POOL).
SWEEP_SEED_POOL = 32
SWEEP_SEEDS = 8
SWEEP_WORKERS = 2
SWEEP_GRID = {
    "runtime.engine": ["sim", "asyncio-virtual"],
    "runtime.faults.loss": [0.0, 0.02],
}

#: service-mixed submits quickstart_spec(side=SERVICE_SIDE) documents
#: whose seeds come from range(SERVICE_SEED_POOL): in every block of
#: FRESH_PER_BLOCK + HITS_PER_BLOCK jobs, FRESH_PER_BLOCK are new seeds
#: and the rest resubmit an earlier one.
SERVICE_SIDE = 10
SERVICE_SEED_POOL = 256
FRESH_PER_BLOCK = 3
HITS_PER_BLOCK = 2
SERVICE_TIMEOUT = 60.0
LOCAL_EXECUTIONS = 12

SETUP_REPEATS = 5


@dataclass
class Context:
    """One benchmark run: where it is, what it was asked, what it found."""

    root: Path
    src: Path
    seed: int
    seconds: float
    trace: bool
    pins: dict[str, Any]
    tracer: Tracer = field(default_factory=Tracer)
    outcome: Outcome = field(default_factory=Outcome)
    #: Per-layer samples (name -> values); the report takes medians.
    layers: dict[str, list[float]] = field(default_factory=dict)

    def sample(self, name: str, value: float) -> None:
        self.layers.setdefault(name, []).append(float(value))

    def record_op(self, op: int, **extra: float) -> None:
        """File a traced op's layer spans and extra values as samples."""
        for name, seconds in self.tracer.children(op).items():
            self.sample(name + "_s", seconds)
        for name, value in extra.items():
            self.sample(name, value)

    def closed_loop(self, operation: Callable[[int], None]) -> tuple[float, int]:
        """Call ``operation(i)`` until ``seconds`` have passed (at least once)."""
        started = perf_counter()
        count = 0
        while count == 0 or perf_counter() - started < self.seconds:
            operation(count)
            count += 1
        return perf_counter() - started, count

    def measure_setup(
        self,
        prepare: Callable[[], Any],
        discard: Optional[Callable[[Any], None]] = None,
    ) -> Any:
        """Median of SETUP_REPEATS set-ups: a fresh import plus ``prepare``.

        All but the last prepared value are passed to ``discard``.
        """
        samples = []
        value = None
        for repeat in range(SETUP_REPEATS):
            if repeat and discard is not None:
                discard(value)
            imported = import_seconds(self.src)
            started = perf_counter()
            value = prepare()
            samples.append(imported + perf_counter() - started)
        self.outcome.metric("setup_s", statistics.median(samples), "s", len(samples))
        return value

    def finish(self, latencies: list[float], wall: float, operations: int) -> None:
        """The end-to-end metrics every workload reports."""
        outcome = self.outcome
        outcome.metric("ops_per_s", operations / wall, "1/s", operations)
        outcome.metric(
            "run_latency_p50_s", statistics.median(latencies), "s", len(latencies)
        )
        p90 = tail_percentile(latencies, 90)
        if p90 is not None:
            outcome.metric("run_latency_p90_s", p90, "s", len(latencies))
        outcome.metric("peak_rss_mb", peak_rss_mb(), "MB")
        outcome.metric(
            "failed_ratio",
            outcome.failed / max(outcome.attempted, 1),
            "ratio",
            outcome.attempted,
        )

    def cache_window(self) -> Callable[[], None]:
        """Start counting topology-cache lookups; call the result to stop."""
        before = topology_cache_info()

        def stop() -> None:
            after = topology_cache_info()
            hits = after.hits - before.hits
            lookups = hits + after.misses - before.misses
            if lookups:
                self.sample("api.topology_cache_hit_ratio", hits / lookups)

        return stop


def verify(digest: str, failed: list[str], pin: dict[str, Any]) -> Optional[str]:
    """None when a run's digest and violated properties match its pin."""
    if digest != pin["digest"]:
        return f"digest {digest} != pinned {pin['digest']}"
    if failed != pin["failed"]:
        return f"violated properties {failed} != pinned {pin['failed']}"
    return None


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------
def _torus_distance(a: tuple[int, int], b: tuple[int, int]) -> int:
    dx = abs(a[0] - b[0])
    dy = abs(a[1] - b[1])
    return min(dx, SIDE - dx) + min(dy, SIDE - dy)


def _depth_inside(graph: Any, shard: frozenset) -> dict[Any, int]:
    """Hop distance of every node from the nearest node outside ``shard``."""
    outside = [node for node in graph.nodes if node not in shard]
    depth = {node: 0 for node in outside}
    frontier = deque(outside)
    while frontier:
        current = frontier.popleft()
        for neighbour in graph.neighbours(current):
            if neighbour not in depth:
                depth[neighbour] = depth[current] + 1
                frontier.append(neighbour)
    return depth


def place_blocks(graph: Any, shards: tuple[frozenset, ...]) -> list[list[tuple[int, int]]]:
    """BLOCKS_PER_SHARD crash blocks deep inside each shard, spread apart.

    The first block of a shard is its deepest; each further block is the
    candidate farthest from the blocks already chosen.  Ties go to the
    smallest origin, so the placement is a pure function of the shards.
    """
    regions = []
    for shard in shards:
        depth = _depth_inside(graph, shard)
        candidates = []
        for origin in sorted(shard):
            members = torus_block_members(SIDE, BLOCK, origin)
            block_depth = min(depth[member] for member in members)
            if block_depth >= MARGIN:
                candidates.append((origin, members, block_depth))
        if not candidates:
            raise ValueError(f"no {BLOCK}x{BLOCK} block fits {MARGIN} hops inside a shard")
        chosen = [max(candidates, key=lambda candidate: candidate[2])]
        while len(chosen) < BLOCKS_PER_SHARD:
            chosen.append(
                max(
                    candidates,
                    key=lambda candidate: min(
                        _torus_distance(candidate[0], block[0]) for block in chosen
                    ),
                )
            )
        regions.extend(sorted(members) for _origin, members, _depth in chosen)
    return regions


def single_large_spec(regions: list) -> ExperimentSpec:
    return ExperimentSpec(
        name="single-large",
        topology=TOPOLOGY,
        failure=FailureSpec("multi_region", {"regions": regions, "at": 1.0, "stagger": 0.5}),
        check=True,
    )


def sweep_spec(seed: int) -> SweepSpec:
    seeds = sorted(random.Random(seed).sample(range(SWEEP_SEED_POOL), SWEEP_SEEDS))
    template = churn_scenario_spec("steady", nodes=64)
    template = replace(
        template, check=True, runtime=replace(template.runtime, faults={"loss": 0.0})
    )
    return SweepSpec(
        experiment=template,
        seeds=tuple(seeds),
        grid=SWEEP_GRID,
        workers=SWEEP_WORKERS,
        name="sweep-churn-faults",
    )


def sweep_point_key(point: ExperimentSpec) -> str:
    return f"{point.runtime.engine}/loss={point.runtime.faults['loss']}/seed={point.seed}"


def service_plan(seed: int) -> Iterator[tuple[str, int]]:
    """Endless ``(kind, quickstart seed)`` jobs; kind is fresh or cached.

    Starts with one fresh job and one resubmission of it (the warm-up),
    then blocks of FRESH_PER_BLOCK fresh and HITS_PER_BLOCK cached jobs
    in seeded order; a cached job resubmits a seeded choice among the
    seeds already submitted.
    """
    rng = random.Random(seed)
    fresh = rng.sample(range(SERVICE_SEED_POOL), SERVICE_SEED_POOL)
    used = [fresh.pop()]
    yield "fresh", used[0]
    yield "cached", used[0]
    while True:
        kinds = ["fresh"] * FRESH_PER_BLOCK + ["cached"] * HITS_PER_BLOCK
        rng.shuffle(kinds)
        for kind in kinds:
            if kind == "fresh":
                if not fresh:
                    raise RuntimeError(
                        f"service plan ran out of its {SERVICE_SEED_POOL} fresh seeds"
                    )
                used.append(fresh.pop())
                yield kind, used[-1]
            else:
                yield kind, rng.choice(used)


# ---------------------------------------------------------------------------
# single-large and single-large-p2
# ---------------------------------------------------------------------------
@dataclass
class LargeInputs:
    document: str
    partitioned_document: str
    shards: tuple[frozenset, ...]


def large_inputs(tracer: Tracer) -> LargeInputs:
    """Build the torus, draw its shards and place the crash blocks."""
    clear_topology_cache()
    with tracer.span("graph.build"):
        graph = TOPOLOGY.build()
    with tracer.span("partition.graph"):
        shards = partition_graph(graph, SHARDS)
    document = single_large_spec(place_blocks(graph, shards)).to_json()
    with tracer.span("api.resolve"):
        spec = load_spec(document)
        ExperimentSession().resolve(spec)
    return LargeInputs(document, spec.with_partitions(SHARDS).to_json(), shards)


def _prepare_large(ctx: Context) -> LargeInputs:
    inputs = ctx.measure_setup(lambda: large_inputs(ctx.tracer))
    pin = ctx.pins["single-large"]
    ctx.outcome.check(
        load_spec(inputs.document).digest() == pin["spec_digest"],
        "the single-large spec document differs from the pinned one "
        "(did partition_graph draw other shards?)",
    )
    return inputs


def _check_shard_balance(ctx: Context, inputs: LargeInputs, result: Any) -> list[int]:
    """Every shard holds crashed nodes and a third of the mean trace events."""
    owner = {node: index for index, shard in enumerate(inputs.shards) for node in shard}
    events = [0] * len(inputs.shards)
    for event in result.trace:
        if event.node is not None:
            events[owner[event.node]] += 1
    crashed = result.schedule.nodes
    mean = sum(events) / len(events)
    for index, shard in enumerate(inputs.shards):
        ctx.outcome.check(
            bool(crashed & shard), f"shard {index} holds no crashed node"
        )
        ctx.outcome.check(
            events[index] * 3 >= mean,
            f"shard {index} has {events[index]} trace events, under a third "
            f"of the mean {mean:.0f}",
        )
    return events


def _run_document(
    ctx: Context, document: str, pin: dict[str, Any], latencies: list[float], label: str
) -> Any:
    """One untraced run: spec document in, verified digest out.

    Returns ``(result, digest)``, or None when the run raised.
    """
    box: list[Any] = []

    def operation() -> Optional[str]:
        started = perf_counter()
        result = ExperimentSession().run(load_spec(document))
        digest = result.digest()
        latencies.append(perf_counter() - started)
        box.append((result, digest))
        return verify(digest, failed_properties(result.specification), pin)

    ctx.outcome.attempt(label, operation)
    return box[0] if box else None


def _traced_sequential(ctx: Context, document: str, pin: dict[str, Any]) -> float:
    """single-large with a span around each layer's public call."""
    tracer = ctx.tracer
    clock = HandlerClock()
    state: dict[str, Any] = {}

    def operation() -> Optional[str]:
        with tracer.span("op") as op:
            with tracer.span("api.resolve"):
                spec = load_spec(document)
                graph, schedule, _membership = ExperimentSession().resolve(spec)
            runtime = spec.runtime
            with tracer.span("sim.build"):
                sim = build_simulator(
                    graph,
                    schedule,
                    latency=runtime.resolve_latency(),
                    failure_detector=runtime.resolve_failure_detector(),
                    seed=spec.seed,
                    node_factory=timed_node_factory(
                        clock,
                        arbitration_enabled=spec.arbitration,
                        early_termination=spec.early_termination,
                    ),
                    batch_dispatch=runtime.batched,
                    collection=runtime.collection,
                    faults=runtime.resolve_faults(),
                )
            with tracer.span("sim.run"):
                sim.run(until=runtime.until, max_events=runtime.max_events)
            with tracer.span("trace.metrics"):
                metrics = collect_metrics(sim.trace)
            with tracer.span("trace.decisions"):
                decisions = extract_decisions(sim.trace)
            result = RunResult(graph, schedule, sim, sim.trace, metrics, decisions)
            with tracer.span("trace.digest"):
                digest = result.digest()
            with tracer.span("core.check"):
                report = result.check_specification(include_liveness=sim.is_quiescent())
        state["wall"] = tracer.wall(op)
        ctx.record_op(
            op,
            **{"core.handler_s": clock.seconds},
            **_run_counts(result),
        )
        return verify(digest, failed_properties(report), pin)

    ctx.outcome.attempt("traced run", operation)
    return state.get("wall", 0.0)


def _run_counts(result: Any) -> dict[str, float]:
    metrics = result.metrics
    return {
        "sim.events": len(result.trace),
        "sim.messages_sent": metrics.messages_sent,
        "sim.bytes_sent": metrics.bytes_sent,
        "core.decisions": metrics.decisions,
        "core.rejections": metrics.rejections,
        "core.failed_instances": metrics.failed_instances,
        "core.speaking_nodes": metrics.speaking_nodes,
        "core.messages_per_decision": metrics.messages_sent / max(metrics.decisions, 1),
    }


def single_large(ctx: Context) -> None:
    inputs = _prepare_large(ctx)
    pin = ctx.pins["single-large"]
    warm = _run_document(ctx, inputs.document, pin, [], "warm-up run")
    if warm is not None:
        _check_shard_balance(ctx, inputs, warm[0])
        ctx.outcome.digests["single-large"] = warm[1]
    stop_cache = ctx.cache_window()
    latencies: list[float] = []
    traced_walls: list[float] = []

    def operation(index: int) -> None:
        _run_document(ctx, inputs.document, pin, latencies, f"run {index}")
        if ctx.trace:
            traced_walls.append(_traced_sequential(ctx, inputs.document, pin))

    wall, count = ctx.closed_loop(operation)
    stop_cache()
    if ctx.trace:
        _trace_summary(ctx, traced_walls, latencies)
        # Alternating traced runs share the loop's wall; throughput counts
        # the untraced runs only.
        wall = sum(latencies)
    ctx.finish(latencies, wall, count)


def _trace_summary(ctx: Context, traced: list[float], untraced: list[float]) -> None:
    """Tracing overhead, span coverage and digest share of a traced run."""
    if traced and untraced:
        ctx.sample(
            "bench.tracing_overhead_s", statistics.median(traced) - statistics.median(untraced)
        )
    ctx.sample("bench.span_share", ctx.tracer.span_share())
    ctx.sample("trace.digest_share", ctx.tracer.digest_share())


def _traced_partitioned(
    ctx: Context, inputs: LargeInputs, pin: dict[str, Any]
) -> float:
    """single-large-p2 with spans around the partition layer's calls."""
    tracer = ctx.tracer
    state: dict[str, Any] = {}

    def operation() -> Optional[str]:
        with tracer.span("op") as op:
            with tracer.span("api.resolve"):
                spec = load_spec(inputs.partitioned_document)
                graph, schedule, _membership = ExperimentSession().resolve(spec)
            runtime = spec.runtime
            with tracer.span("partition.run"):
                result = run_partitioned(
                    graph,
                    schedule,
                    partitions=runtime.partitions,
                    latency=runtime.resolve_latency(),
                    failure_detector=runtime.resolve_failure_detector(),
                    seed=spec.seed,
                    arbitration_enabled=spec.arbitration,
                    early_termination=spec.early_termination,
                    check=False,
                    max_events=runtime.max_events,
                    until=runtime.until,
                    collection=runtime.collection,
                    faults=runtime.resolve_faults(),
                )
            with tracer.span("partition.parent_digest"):
                digest = result.digest()
            with tracer.span("partition.parent_check"):
                report = result.check_specification(include_liveness=result.quiescent)
        state["wall"] = tracer.wall(op)
        events = _check_shard_balance(ctx, inputs, result)
        ctx.record_op(
            op,
            **{
                "partition.barrier_rounds": result.barrier_rounds,
                "partition.event_imbalance": max(events) / (sum(events) / len(events)),
            },
            **_run_counts(result),
        )
        return verify(digest, failed_properties(report), pin)

    ctx.outcome.attempt("traced partitioned run", operation)
    return state.get("wall", 0.0)


def single_large_p2(ctx: Context) -> None:
    inputs = _prepare_large(ctx)
    # The partitioned run must reproduce the sequential run's digest.
    pin = ctx.pins["single-large"]
    warm = _run_document(ctx, inputs.partitioned_document, pin, [], "warm-up run")
    if warm is not None:
        _check_shard_balance(ctx, inputs, warm[0])
        ctx.outcome.digests["single-large-p2"] = warm[1]
    stop_cache = ctx.cache_window()
    latencies: list[float] = []
    sequential: list[float] = []
    traced_walls: list[float] = []

    def operation(index: int) -> None:
        if ctx.trace:
            _run_document(ctx, inputs.document, pin, sequential, f"sequential run {index}")
        _run_document(ctx, inputs.partitioned_document, pin, latencies, f"run {index}")
        if ctx.trace:
            traced_walls.append(_traced_partitioned(ctx, inputs, pin))

    wall, count = ctx.closed_loop(operation)
    stop_cache()
    if ctx.trace:
        _trace_summary(ctx, traced_walls, latencies)
        ctx.sample(
            "partition.speedup", statistics.median(sequential) / statistics.median(latencies)
        )
        # After the loop: what the workers ship to the parent.
        spec = load_spec(inputs.partitioned_document)
        graph, schedule, _membership = ExperimentSession().resolve(spec)
        payloads = measure_worker_payloads(
            graph, schedule, partitions=spec.runtime.partitions, seed=spec.seed
        )
        ctx.sample("partition.wire_bytes", payloads["total_payload_bytes"])
        wall = sum(latencies)
    ctx.finish(latencies, wall, count)


# ---------------------------------------------------------------------------
# sweep-churn-faults
# ---------------------------------------------------------------------------
def _prepare_sweep(ctx: Context) -> str:
    clear_topology_cache()
    spec = sweep_spec(ctx.seed)
    document = spec.to_json()
    with ctx.tracer.span("graph.build"):
        spec.experiment.topology.build()
    with ctx.tracer.span("api.resolve"):
        loaded = load_spec(document)
        ExperimentSession().resolve(loaded.expand()[0])
    return document


def _verify_sweep(
    ctx: Context, points: list[ExperimentSpec], report: Any, label: str
) -> None:
    """One attempted operation per sweep point, checked against its pin."""
    pins = ctx.pins["sweep-churn-faults"]
    outcomes = report.outcomes if report is not None else ()
    for index, point in enumerate(points):
        key = sweep_point_key(point)

        def operation() -> Optional[str]:
            if index >= len(outcomes):
                return "sweep returned no outcome"
            outcome = outcomes[index]
            if outcome.seed != point.seed:
                return f"outcome seed {outcome.seed} != point seed {point.seed}"
            return verify(outcome.digest, properties_of_violations(outcome.violations), pins[key])

        ctx.outcome.attempt(f"{label} {key}", operation)


def _run_sweep(ctx: Context, document: str, points: list, label: str) -> Optional[Any]:
    started = perf_counter()
    report = None
    try:
        report = ExperimentSession().run_sweep(load_spec(document))
        report.digest()
    except Exception as exc:  # every point of the sweep counts as failed
        ctx.outcome.errors.append(f"{label}: {type(exc).__name__}: {exc}")
    latency = perf_counter() - started
    _verify_sweep(ctx, points, report, label)
    return (report, latency) if report is not None else None


@dataclass
class TracedPoint:
    wall: float
    faults: CountingFaults
    result: Any


def _traced_sweep_point(ctx: Context, point: ExperimentSpec) -> Optional[TracedPoint]:
    """One sweep point in-process, with spans around the churn, vtime and
    fault layers."""
    tracer = ctx.tracer
    pin = ctx.pins["sweep-churn-faults"][sweep_point_key(point)]
    clock = HandlerClock()
    traced: list[TracedPoint] = []

    def operation() -> Optional[str]:
        with tracer.span("op") as op:
            with tracer.span("api.resolve"):
                graph, schedule, membership = ExperimentSession().resolve(point)
            runtime = point.runtime
            faults = CountingFaults(runtime.resolve_faults())
            if runtime.engine == "sim":
                with tracer.span("churn.run"):
                    result = run_churn(
                        graph,
                        schedule,
                        membership,
                        latency=runtime.resolve_latency(),
                        failure_detector=runtime.resolve_failure_detector(),
                        seed=point.seed,
                        node_factory=timed_node_factory(clock),
                        check=False,
                        max_events=runtime.max_events,
                        until=runtime.until,
                        batch_dispatch=runtime.batched,
                        faults=faults,
                    )
            else:
                with tracer.span("vtime.run"):
                    result = run_churn_asyncio(
                        graph,
                        schedule,
                        membership,
                        node_factory=timed_node_factory(clock),
                        detection_delay=runtime.detection_delay,
                        time_scale=runtime.time_scale,
                        timeout=runtime.timeout,
                        seed=point.seed,
                        check=False,
                        virtual=True,
                        failure_detector=runtime.resolve_failure_detector(),
                        max_events=runtime.max_events,
                        faults=faults,
                    )
            with tracer.span("churn.check"):
                report = result.check_specification(include_liveness=result.quiescent)
            with tracer.span("churn.digest"):
                digest = result.digest()
        ctx.record_op(op, **{"core.handler_s": clock.seconds})
        traced.append(TracedPoint(tracer.wall(op), faults, result))
        return verify(digest, failed_properties(report), pin)

    ctx.outcome.attempt(f"traced point {sweep_point_key(point)}", operation)
    return traced[0] if traced else None


def sweep_churn_faults(ctx: Context) -> None:
    document = ctx.measure_setup(lambda: _prepare_sweep(ctx))
    points = load_spec(document).expand()
    # Warm-up: one point of each engine in-process, so the pool's forked
    # workers start with every runner module imported.
    for engine in ("sim", "asyncio-virtual"):
        point = next(p for p in points if p.runtime.engine == engine)
        pin = ctx.pins["sweep-churn-faults"][sweep_point_key(point)]

        def warm() -> Optional[str]:
            result = ExperimentSession().run(point)
            return verify(result.digest(), failed_properties(result.specification), pin)

        ctx.outcome.attempt(f"warm-up {sweep_point_key(point)}", warm)
    stop_cache = ctx.cache_window()
    latencies: list[float] = []
    reports: list[Any] = []

    def operation(index: int) -> None:
        ran = _run_sweep(ctx, document, points, f"sweep {index}")
        if ran is not None:
            reports.append(ran[0])
            latencies.append(ran[1])

    if ctx.trace:
        # One pooled sweep for the scale layer, then every point traced
        # in-process.
        started = perf_counter()
        operation(0)
        wall, count = perf_counter() - started, 1
        _trace_sweep_points(ctx, points, reports)
    else:
        wall, count = ctx.closed_loop(operation)
    stop_cache()
    ctx.outcome.digests["sweep-churn-faults"] = reports[0].digest() if reports else ""
    # Throughput counts sweep points; latency is per sweep document.
    ctx.finish(latencies or [wall], wall, len(points) * count)


def _trace_sweep_points(ctx: Context, points: list, reports: list) -> None:
    traced = [t for t in (_traced_sweep_point(ctx, point) for point in points) if t]
    # Counts are totals over the sweep's points.
    totals: dict[str, float] = {}
    lost = duplicated = decisions = 0
    vtime_events = 0
    for point in traced:
        for name, value in _run_counts(point.result).items():
            if name == "sim.events" and point.result.runtime != "sim":
                vtime_events += value
                continue
            totals[name] = totals.get(name, 0.0) + value
        if point.faults.lost or point.faults.duplicated:
            lost += point.faults.lost
            duplicated += point.faults.duplicated
            decisions += point.faults.decisions
    totals["core.messages_per_decision"] = totals.get("sim.messages_sent", 0.0) / max(
        totals.get("core.decisions", 0.0), 1
    )
    for name, value in totals.items():
        ctx.sample(name, value)
    ctx.sample("vtime.events", vtime_events)
    ctx.sample("faults.lost", lost)
    ctx.sample("faults.duplicated", duplicated)
    ctx.sample("faults.loss_ratio", lost / decisions if decisions else 0.0)
    untraced = []
    if reports:
        report = reports[0]
        untraced = [outcome.wall_time for outcome in report.outcomes]
        ctx.sample(
            "scale.worker_busy_share",
            report.worker_time / (report.workers * report.wall_time),
        )
        ctx.sample("scale.task_s_p50", statistics.median(untraced))
    # Per point: traced in-process wall against the pooled worker's wall.
    _trace_summary(ctx, [point.wall for point in traced], untraced)


# ---------------------------------------------------------------------------
# service-mixed
# ---------------------------------------------------------------------------
@dataclass
class Server:
    root: Path
    server: Any
    thread: threading.Thread
    client: ServiceClient

    def close(self) -> None:
        try:
            self.server.shutdown()
            self.server.service.stop_workers()
            self.server.server_close()
            self.thread.join(timeout=10.0)
        finally:
            shutil.rmtree(self.root, ignore_errors=True)


def _start_server(ctx: Context) -> Server:
    scratch = ctx.root / ".perfbench"
    scratch.mkdir(exist_ok=True)
    root = Path(tempfile.mkdtemp(prefix="service-", dir=scratch))
    server = serve(root, port=0, workers=1)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServiceClient(server.url, timeout=SERVICE_TIMEOUT)
    client.health()
    return Server(root, server, thread, client)


def _prepare_service(ctx: Context) -> Server:
    clear_topology_cache()
    document = quickstart_spec(side=SERVICE_SIDE).to_json()
    with ctx.tracer.span("graph.build"):
        load_spec(document).topology.build()
    with ctx.tracer.span("api.resolve"):
        ExperimentSession().resolve(load_spec(document))
    return _start_server(ctx)


@dataclass
class Job:
    kind: str
    seed: int
    traced: bool = False
    latency: float = 0.0
    digest: str = ""


def _service_job(ctx: Context, client: ServiceClient, job: Job, label: str) -> None:
    """Submit, wait for, fetch and verify one job; spans when ``job.traced``."""
    tracer = ctx.tracer
    pin = ctx.pins["service-mixed"][str(job.seed)]
    document = quickstart_spec(side=SERVICE_SIDE, seed=job.seed).to_dict()

    def call(name: str, fn: Callable[[], Any]) -> Any:
        if not job.traced:
            return fn()
        with tracer.span(f"service.{name}_{job.kind}"):
            return fn()

    def operation() -> Optional[str]:
        with tracer.span("op") if job.traced else nullcontext() as op:
            started = perf_counter()
            record = call("submit", lambda: client.submit(document)["job"])
            if record["state"] != "done":
                record = call(
                    "wait", lambda: client.wait(record["id"], timeout=SERVICE_TIMEOUT)
                )
            fetched = call("result", lambda: client.result(record["id"]))
            job.latency = perf_counter() - started
        if job.traced:
            ctx.record_op(op)
        if record["state"] != "done":
            return f"job ended {record['state']}: {record.get('error')}"
        if record["cached"] != (job.kind == "cached"):
            return f"cached flag {record['cached']} but the plan says {job.kind}"
        envelope = fetched["envelope"]
        job.digest = envelope["digest"]
        if record["digest"] != envelope["digest"]:
            return "job digest differs from its result envelope"
        violations = envelope["result"]["specification"]["violations"]
        return verify(envelope["digest"], properties_of_violations(violations), pin)

    ctx.outcome.attempt(label, operation)


def service_mixed(ctx: Context) -> None:
    server = ctx.measure_setup(lambda: _prepare_service(ctx), discard=Server.close)
    try:
        _service_loop(ctx, server)
    finally:
        server.close()


def _service_loop(ctx: Context, server: Server) -> None:
    client = server.client
    plan = service_plan(ctx.seed)
    warm_up = [Job(*next(plan)) for _ in range(2)]
    for job in warm_up:
        _service_job(ctx, client, job, f"warm-up {job.kind} seed {job.seed}")
    timed: list[Job] = []

    def operation(index: int) -> None:
        kind, seed = next(plan)
        job = Job(kind, seed, traced=ctx.trace and index % 2 == 1)
        _service_job(ctx, client, job, f"job {index} ({kind} seed {seed})")
        timed.append(job)

    stop_cache = ctx.cache_window()
    wall, count = ctx.closed_loop(operation)
    stop_cache()
    fresh = [job for job in timed if job.kind == "fresh"]
    cached = [job.latency for job in timed if job.kind == "cached"]
    ctx.finish([job.latency for job in fresh], wall, count)
    outcome = ctx.outcome
    outcome.metric("cache_hit_latency_p50_s", statistics.median(cached), "s", len(cached))
    p90 = tail_percentile(cached, 90)
    if p90 is not None:
        outcome.metric("cache_hit_latency_p90_s", p90, "s", len(cached))
    outcome.digests["service-mixed"] = warm_up[0].digest

    jobs = warm_up + timed
    planned = sum(1 for job in jobs if job.kind == "cached")
    records = client.jobs()
    hits = sum(1 for record in records if record["state"] == "done" and record["cached"])
    outcome.check(
        len(records) == len(jobs) and hits == planned,
        f"{hits} of {len(records)} service jobs were cache hits; "
        f"the plan has {planned} of {len(jobs)}",
    )
    if not ctx.trace:
        return
    health = client.health()
    ctx.sample("service.cache_hit_ratio", hits / len(records))
    ctx.sample("service.cache_hit_latency_p50_s", statistics.median(cached))
    ctx.sample(
        "service.journal_bytes", (server.root / "ledger" / "ledger.jsonl").stat().st_size
    )
    ctx.sample("service.store_bytes", health["store_bytes"])
    _trace_summary(
        ctx,
        [job.latency for job in fresh if job.traced],
        [job.latency for job in fresh if not job.traced],
    )
    # Outside the timed loop: the first LOCAL_EXECUTIONS fresh documents
    # executed locally, whose digests the service's must equal.
    for job in fresh[:LOCAL_EXECUTIONS]:
        document = quickstart_spec(side=SERVICE_SIDE, seed=job.seed).to_dict()
        computed: list[float] = []

        def local() -> Optional[str]:
            started = perf_counter()
            envelope = execute_document(document)
            computed.append(perf_counter() - started)
            pinned = ctx.pins["service-mixed"][str(job.seed)]["digest"]
            if envelope["digest"] != pinned:
                return f"local digest {envelope['digest'][:16]} != service digest"
            return None

        if outcome.attempt(f"local execution seed {job.seed}", local):
            ctx.sample("service.compute_s", computed[0])
            ctx.sample("service.overhead_s", job.latency - computed[0])


WORKLOADS: dict[str, Callable[[Context], None]] = {
    "single-large": single_large,
    "single-large-p2": single_large_p2,
    "sweep-churn-faults": sweep_churn_faults,
    "service-mixed": service_mixed,
}
