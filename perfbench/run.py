"""Cliff-edge consensus benchmark: spec document in, verified digest out.

Run from the repository root::

    python3 perfbench/run.py --workload single-large --seed 0 --seconds 15 --trace 0

``--workload all`` runs every workload in turn, each in its own process,
and exits non-zero when any of them does.

Workloads (``BENCHMARK.json`` says why each exists):

* ``single-large`` — one 4,096-node torus run with four crash blocks,
  two inside each shard of ``partition_graph(graph, 2)``; sequential
  simulator, full trace, CD1-CD7 checked.
* ``single-large-p2`` — the same document with ``runtime.partitions=2``
  (process backend); its digest must equal ``single-large``'s.
* ``sweep-churn-faults`` — one 32-point churn sweep over two engines and
  two loss rates on a pool of two workers; the seed picks the run seeds.
* ``service-mixed`` — an in-process experiment server and one
  closed-loop client submitting fresh and repeated quickstart documents;
  the seed picks the order.

Each operation is closed-loop, one at a time, and is checked against the
digests and CD1-CD7 verdicts in ``perfbench/pins.json``; a mismatch, an
error or a ``cached`` flag that differs from the plan fails it.  The run
exits 1 when any operation or run-level check failed.

Output: a stamp line (CPU count, Python, commit, source digest and the
workload's digest), one line per metric with its unit and sample count,
and, last, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the JSON carries the end-to-end
metrics of ``BENCHMARK.json``; with ``--trace 1`` its per-layer
metrics.  A per-layer metric reads 0 on a workload whose traced run does
not exercise that layer.

End-to-end metrics, measured with tracing off:

* ``setup_s`` — median of five set-ups: a fresh interpreter importing
  the program, plus building the spec documents, filling the topology
  cache and, for ``service-mixed``, starting the server.
* ``ops_per_s`` — operations per second of timed wall; an operation is
  one run, one sweep point or one service job.
* ``run_latency_p50_s`` — spec document in to verified result out, for
  fresh executions (a whole sweep document for ``sweep-churn-faults``).
* ``peak_rss_mb`` — peak RSS of the harness or its largest child.

The metric lines also show ``failed_ratio``, ``cache_hit_latency_p50_s``
for ``service-mixed`` and p90 latencies where ten samples lie beyond.

The traced run alternates untraced operations with traced ones.  Traced
operations call each layer's public functions under a span, time the
protocol handlers through a ``CliffEdgeNode`` subclass and count
link-fault decisions through a wrapper; their digests must equal the
pinned ones.  ``bench.tracing_overhead_s`` is the traced minus the
untraced operation wall, ``bench.span_share`` the share of an
operation's wall its layer spans cover.  Per-layer seconds are medians
per operation; counts are per run (``single-large``, ``-p2``) or totals
over the sweep.  Spans are written to ``.perfbench/`` at the end.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"

#: Every run must end well inside the 180 s a run may take.
WATCHDOG_SECONDS = 170


class Watchdog(BaseException):
    """Raised by the alarm when a run overstays WATCHDOG_SECONDS."""


def _alarm(_signum: int, _frame: object) -> None:
    raise Watchdog(f"run exceeded {WATCHDOG_SECONDS} s")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's sources are missing ({SRC})", file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in benchmark["workloads"]]
    if args.workload == "all":
        return _run_all(names, args)
    if args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    # Temporary files stay inside the checkout.
    temporary = SCRATCH / "tmp"
    temporary.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(temporary)
    sys.path.insert(0, str(SRC))

    from harness import stamp
    from workloads import WORKLOADS, Context

    pins = json.loads((BENCH_DIR / "pins.json").read_text())
    ctx = Context(
        root=ROOT,
        src=SRC,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        pins=pins,
    )
    signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(WATCHDOG_SECONDS)
    try:
        WORKLOADS[args.workload](ctx)
    except Watchdog as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
        shutil.rmtree(temporary, ignore_errors=True)

    outcome = ctx.outcome
    print(
        f"perfbench workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}"
    )
    print("stamp " + json.dumps(stamp(ROOT, SRC, outcome.digests), sort_keys=True))
    if args.trace:
        metrics = _layer_metrics(ctx, benchmark["per_layer"])
        ctx.tracer.dump(SCRATCH / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        for name, metric in outcome.metrics.items():
            print(f"metric {name:<26} {metric.value:.6g} {metric.unit} n={metric.samples}")
        metrics = {}
        for entry in benchmark["end_to_end"]:
            metric = outcome.metrics.get(entry["name"])
            if metric is None:
                outcome.check(False, f"end-to-end metric {entry['name']} was not measured")
                continue
            metrics[entry["name"]] = {"value": metric.value, "unit": entry["unit"]}
    for error in outcome.errors[:20]:
        print(f"error {error}")
    if len(outcome.errors) > 20:
        print(f"error ... and {len(outcome.errors) - 20} more")
    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if outcome.correct else 1


def _run_all(names: list[str], args: argparse.Namespace) -> int:
    """Every workload in its own process; the first non-zero exit code wins."""
    worst = 0
    for name in names:
        completed = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", f"{args.seconds:g}", "--trace", str(args.trace)],
            cwd=ROOT,
        )
        worst = worst or completed.returncode
    return worst


def _layer_metrics(ctx: Any, entries: list[dict]) -> dict[str, dict]:
    """Every per-layer metric: op-level samples first, then set-up spans."""
    tracer = ctx.tracer
    setup: dict[str, list[float]] = {}
    for name, start, end, parent in tracer.spans:
        if parent == -1 and name != "op":
            setup.setdefault(name + "_s", []).append(end - start)
    metrics = {}
    for entry in entries:
        name = entry["name"]
        samples = ctx.layers.get(name) or setup.get(name) or []
        value = statistics.median(samples) if samples else 0.0
        print(f"layer {name:<34} {value:.6g} {entry['unit']} n={len(samples)}")
        metrics[name] = {"value": value, "unit": entry["unit"]}
    return metrics


if __name__ == "__main__":
    sys.exit(main())
